"""Spec validation, deterministic serialization, and end-to-end runs."""

import json
import math
import os
from fractions import Fraction

import pytest

import numpy as np

from ordwalk import asymptotics, cli, engine, lattice_exact, transform
from ordwalk.cli import (
    SpecError,
    _fmt_float,
    _to_json,
    main,
    run_experiment,
    validate_spec,
)
from ordwalk.distributions import make_distribution
from ordwalk.engine import PartialResultError, conditioned_endpoints
from ordwalk.lattice_exact import gap_chain_alive_distribution

GOOD_KM = """
kind: exact-km
walk:
  k: 2
  start: [0, 1]
  dist: rademacher
seed: 0
params:
  n: 4
"""


def test_validate_good_spec():
    spec = validate_spec(GOOD_KM)
    assert spec.kind == "exact-km" and spec.k == 2
    assert spec.start == (0, 1) and spec.params == {"n": 4}


def test_validate_json_subset():
    doc = json.dumps({"kind": "exact-km",
                      "walk": {"k": 2, "start": [0, 1], "dist": "rademacher"},
                      "seed": 3, "params": {"n": 2}})
    spec = validate_spec(doc)
    assert spec.seed == 3


def test_json_reads_a_dotless_exponent_as_a_number():
    # JSON parses 1e-2 as a float; PyYAML's YAML 1.1 resolver reads it as a
    # string, so a YAML spec must still write 1.0e-2
    doc = ('{"kind": "lclt", "walk": {"k": 2, "start": [0, 1], "dist": "lazy_lattice"}, '
           '"params": {"threshold": 1e-2}}')
    assert validate_spec(doc).params == {"threshold": 0.01}
    with pytest.raises(SpecError, match="params.threshold must be a finite number, got '1e-2'"):
        validate_spec("kind: lclt\nwalk: {k: 2, start: [0, 1]}\nparams: {threshold: 1e-2}\n")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_json_rejects_nonfinite_tokens(token):
    doc = ('{"kind": "tail", "walk": {"k": 2, "start": [0, 1]}, '
           f'"params": {{"exponent_tol": {token}}}}}')
    with pytest.raises(SpecError, match="params.exponent_tol must be a finite number") as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1


def test_validate_collects_all_errors():
    bad = """
kind: nonsense
walk:
  k: 1
  start: [3, 1]
  dist: cauchy
seed: -2
params:
  n: -4
"""
    with pytest.raises(SpecError) as exc:
        validate_spec(bad)
    msgs = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 4
    assert "kind" in msgs and "seed" in msgs and "n" in msgs


def test_validate_rejects_garbage():
    with pytest.raises(SpecError):
        validate_spec("just a string")
    with pytest.raises(SpecError):
        validate_spec("kind: [unclosed")


@pytest.mark.parametrize("kind", ["[1]", "{a: 1}", "null"])
def test_validate_rejects_a_kind_that_is_no_name(kind):
    # a list or mapping kind crashed validate_spec with TypeError (unhashable)
    with pytest.raises(SpecError, match="unknown kind") as exc:
        validate_spec(f"{{kind: {kind}, walk: {{k: 2, start: [0, 1]}}, params: {{n: 2}}}}")
    assert len(exc.value.errors) == 1


def test_validate_noninteger_lattice_start():
    bad = GOOD_KM.replace("[0, 1]", "[0.5, 1.5]")
    with pytest.raises(SpecError, match="integer start"):
        validate_spec(bad)


@pytest.mark.parametrize("walk", [
    "{k: 2, start: [0.0, .inf], dist: gaussian}",
    "{k: 2, start: [-.inf, 0.0], dist: gaussian}",
    "{k: 2, start: [0.0, .nan], dist: gaussian}",
    "{k: 2, start: [0, .inf], dist: rademacher}",
])
def test_validate_rejects_nonfinite_start(walk):
    # an infinite gaussian start used to pass and run to "value": Infinity
    with pytest.raises(SpecError, match="start coordinates must be finite") as exc:
        validate_spec(f"kind: estimate-v\nwalk: {walk}\n")
    assert len(exc.value.errors) == 1


def test_validate_rejects_a_walk_that_is_no_mapping():
    # a list used to crash validate_spec with AttributeError; now it is read
    # as an empty walk, which lacks k and start
    with pytest.raises(SpecError) as exc:
        validate_spec('{"kind": "tail", "walk": [1, 2]}')
    assert exc.value.errors[0] == "walk must be a mapping of k, start and dist, got [1, 2]"


@pytest.mark.parametrize("dist, message", [
    ("{kind: [1]}", "unknown distribution kind"),
    ("{kind: custom_lattice, masses: [1, 2]}", "masses mapping"),
    ("{kind: gaussian, variance: .nan}", "positive and finite"),
    ("{kind: uniform, variance: .inf}", "positive and finite"),
    ("{kind: laplace, variance: -.inf}", "positive and finite"),
    ("{kind: rademacher, variance: 2}", "dist.variance is not read by kind rademacher, "
                                        "which reads nothing"),
    ("{kind: gaussian, variance: 2, masses: {0: 1}}", "dist.masses is not read by kind "
                                                      "gaussian, which reads variance"),
])
def test_validate_rejects_a_dist_the_kind_cannot_build(dist, message):
    # each of these used to crash validate_spec or validate and run another walk
    doc = f"kind: estimate-v\nwalk: {{k: 2, start: [0, 1], dist: {dist}}}\n"
    with pytest.raises(SpecError, match=f"bad distribution: .*{message}") as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1


def test_float_formatting():
    assert _fmt_float(0.1) == "0.10000000000000001"
    assert _fmt_float(float("nan")) == "NaN"
    assert _fmt_float(float("inf")) == "Infinity"


def test_json_writer_deterministic_and_exact():
    obj = {"b": Fraction(1, 3), "a": [1, 2.5], "c": {"nested": True, "x": None}}
    text = _to_json(obj)
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    assert '"1/3"' in text
    assert "2.5" in text
    parsed = json.loads(text)
    assert parsed["c"]["nested"] is True and parsed["c"]["x"] is None
    assert _to_json(np.bool_(False)) == "false"
    assert _to_json(np.bool_(True)) == "true"


def test_run_exact_km_end_to_end(tmp_path):
    spec = validate_spec(GOOD_KM)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 0 and manifest.passed
    assert manifest.checks == {"km_identity": True}
    for fname in ("exact_km.json", "summary.txt", "manifest.json",
                  "timing.json"):
        assert (tmp_path / fname).exists()
    assert "exact_km.json" in manifest.files
    assert "timing.json" not in manifest.files  # wall clock stays undigested
    assert "PASS" in (tmp_path / "summary.txt").read_text()


def test_run_exact_v_tables(tmp_path):
    doc = GOOD_KM.replace("exact-km", "exact-v")
    manifest, code = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert code == 0
    csv = (tmp_path / "v_exact.csv").read_text().splitlines()
    assert csv[0] == "n,v_exact,v_float"
    assert csv[1].startswith("1,5/4,1.25")


@pytest.mark.parametrize("walk, n, passes", [
    ("{k: 3, start: [0, 1, 2], dist: rademacher}", 6,
     [((0, 1, 2), 7), ((-1, 0, 3), 6), ((-1, 2, 3), 6)]),
    ("{k: 2, start: [0, 1], dist: lazy_lattice}", 8,
     [((0, 1), 9), ((-1, 1), 8), ((-1, 2), 8)]),
])
def test_exact_v_runs_one_forward_dp_per_translation_class(tmp_path, monkeypatch,
                                                           walk, n, passes):
    # the start's pass to n + 1 gives V_1..V_n, V_{n+1}(x) and V_n of the
    # start's translates; each other class of neighbours runs one pass to n
    doc = f"kind: exact-v\nwalk: {walk}\nseed: 0\nparams: {{n: {n}}}\n"
    spec = validate_spec(doc)
    expected = [str(v) for v in lattice_exact.exact_vn(spec.walk_config(), n)]
    calls = []
    real = lattice_exact._forward_tables

    def counting(cfg, horizon):
        calls.append((cfg.start, horizon))
        return real(cfg, horizon)

    monkeypatch.setattr(lattice_exact, "_forward_tables", counting)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 0 and manifest.checks["harmonicity"]
    assert calls == passes
    rows = (tmp_path / "v_exact.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == expected


def test_run_is_byte_identical_across_reruns(tmp_path):
    doc = """
kind: tail
walk:
  k: 2
  start: [0, 1]
  dist: rademacher
seed: 1
params:
  horizons: [16, 32, 64, 128]
  paths: 40000
  exponent_tol: 0.2
"""
    spec = validate_spec(doc)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    m1, c1 = run_experiment(spec, out_dir=str(out1))
    m2, c2 = run_experiment(spec, out_dir=str(out2))
    assert c1 == c2 == 0
    assert m1.files == m2.files
    for fname in m1.files:
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    # the run's throughput goes to timing.json, outside the digests
    for out, manifest in ((out1, m1), (out2, m2)):
        assert "timing.json" not in manifest.files
        timing = json.loads((out / "timing.json").read_text())
        work = json.loads((out / "tail.json").read_text())["work"]
        assert timing["path_steps_per_s"] == work["path_steps"] / timing["wall_seconds"]


_RAD2 = {"k": 2, "start": [0, 1], "dist": "rademacher"}


@pytest.mark.parametrize("kind, walk, seed, params, files", [
    pytest.param("tail", _RAD2, 3, {"horizons": [16, 64], "paths": 20000}, {
        "summary.txt": "73e9593403a765f1355b29db3ee166106e83f86ff033ecc574dee59634c61a20",
        "survival.csv": "fd9d66551881e20ebff35db3378fc661f68205bc02a8c3c96ac615db463b5045",
        "tail.json": "dd3172b9fc91da46eece66bfe352e3fe74cdb0aca9d63dbbb34cbd23d19fd6b7",
    }, id="tail"),
    pytest.param("estimate-v", {"k": 2, "start": [0.0, 1.0], "dist": "gaussian"}, 3,
                 {"schedule": [16, 32], "paths": 20000}, {
        "estimate_v.json": "8e6bab37781064f64dea1dad04c9fbe7aa09a6a1880e7e1c255f70a2ac8e8429",
        "summary.txt": "8b43fb36e417403e3046c818e3b42d1dbacf5a358d477800bc5c26512b5a7b5c",
        "v_estimates.csv": "59bfb255283016967da74b632f1c442f2e5b18c79a077d0901874b74bf3ca645",
    }, id="estimate-v"),
    pytest.param("endpoint", {"k": 2, "start": [0, 1], "dist": "lazy_lattice"}, 3,
                 {"n": 64, "survivors": 500}, {
        "endpoint.json": "21c73c316039727f3d0fe6da55c32b32e605add4dbe4e16f54c7011ebd87520e",
        "endpoints.csv": "d683913d6dc62bf316483c382b57938e78f46a1e9d20267f9fe6134280f2b30a",
        "summary.txt": "31450640cecc986bca4eb6d3ff1ba7aef9c55209b9db7d35b02507e4b85c222d",
    }, id="endpoint"),
    pytest.param("transform", _RAD2, 3, {"t_steps": 4, "paths": 300}, {
        "summary.txt": "c7e85b1303d02648ea0c57a57ec055d3d06592b8948d2c2dc92cdee4bfc23478",
        "transform.json": "14b3d3eb884ed1253ef3d397cefe4ef27966c2cd56b531b148de1e0b06177e4b",
        "transform_samples.csv": "566e1f5252106915911264f28238dbb049a320aca9388e871ba1e9ae077a519d",
    }, id="transform"),
    pytest.param("endpoint", {"k": 3, "start": [0, 1, 2], "dist": "rademacher"}, 5,
                 {"n": 64, "survivors": 10000, "max_attempts": 2000}, {
        "partial_endpoint.csv": "6565f172a8a4b00d65998a0ffd42c79cdcef09c98c4368224d2c461e08fac017",
        "summary.txt": "e38cc22dc99f3e74a2388c4033074ab616fc7732b0aa34ad22e58a340173f580",
    }, id="partial-endpoint"),
])
def test_run_digests_are_frozen(tmp_path, kind, walk, seed, params, files):
    # digests written down from the per-cell CSV writer (float endpoints,
    # integer transform samples, a partial sample) and the block simulator's
    # walker-major chunks with one-bit Rademacher lanes, on SFC64 streams
    # with chunks that grow with the block's age
    doc = json.dumps({"kind": kind, "walk": walk, "seed": seed, "params": params})
    manifest, _ = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert manifest.files == files
    timing = json.loads((tmp_path / "timing.json").read_text())
    monte_carlo = manifest.error is None
    assert ("path_steps_per_s" in timing) == monte_carlo


def test_run_failed_check_exits_one(tmp_path):
    doc = """
kind: tail
walk:
  k: 2
  start: [0, 1]
  dist: rademacher
seed: 1
params:
  horizons: [2, 4]
  paths: 5000
  exponent_tol: 0.0001
"""
    manifest, code = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert code == 1 and not manifest.passed
    assert "FAIL" in (tmp_path / "summary.txt").read_text()


def test_run_refusal_exits_two(tmp_path):
    # K V(0,1,2) 1000^(-3/2) = 7.14e-5, below the transform's 1e-4 floor
    doc = """
kind: transform
walk:
  k: 3
  start: [0, 1, 2]
  dist: rademacher
seed: 3
params:
  t_steps: 4
  paths: 100
  guard_m: 1000
"""
    manifest, code = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert code == 2
    assert manifest.error and "FeasibilityError" in manifest.error


def test_partial_run_writes_collected_samples(tmp_path):
    doc = """
kind: endpoint
walk:
  k: 3
  start: [0, 1, 2]
  dist: rademacher
seed: 5
params:
  n: 64
  survivors: 10000
  max_attempts: 2000
"""
    spec = validate_spec(doc)
    with pytest.raises(PartialResultError) as exc:
        conditioned_endpoints(spec.walk_config(), 64, 10_000, 2000)
    collected = exc.value.endpoints
    assert 0 < len(collected) < 10_000
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 2 and "PartialResultError" in manifest.error
    assert "partial_endpoint.csv" in manifest.files
    lines = (tmp_path / "partial_endpoint.csv").read_text().splitlines()
    assert lines[0] == "y1,y2,y3"
    assert len(lines) - 1 == len(collected)
    assert [float(c) for c in lines[1].split(",")] == collected[0].tolist()


def test_main_validate_and_run(tmp_path, capsys):
    spec_path = tmp_path / "km.yaml"
    spec_path.write_text(GOOD_KM)
    assert main(["validate", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "ok: exact-km" in out
    rc = main(["run", str(spec_path), "--out", str(tmp_path / "res")])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def _far_transform(shift=0):
    """The transform spec of 1024-steps from within 1024 of 2**63, its start
    moved by `shift`."""
    return {"kind": "transform", "seed": 1,
            "walk": {"k": 3, "start": [9223372036854771712 + shift,
                                       9223372036854773760 + shift,
                                       9223372036854774784 + shift],
                     "dist": {"kind": "custom_lattice",
                              "masses": {"-1024": 0.5, "1024": 0.5}}},
            "params": {"t_steps": 4, "paths": 50}}


def _built_in_code(doc):
    """The spec of a document, built without `validate_spec`."""
    walk, dist = doc["walk"], doc["walk"]["dist"]
    dist = {"kind": dist} if isinstance(dist, str) else dist
    return cli.ExperimentSpec(
        kind=doc["kind"], k=walk["k"], start=tuple(walk["start"]), dist_kind=dist["kind"],
        dist_params={a: b for a, b in dist.items() if a != "kind"},
        seed=doc.get("seed", 0), params=doc.get("params", {}))


def test_run_refuses_a_lattice_walk_whose_positions_could_pass_int64(tmp_path, capsys):
    # 64 steps (twice the guard horizon 32) of 1024 from within 1024 of 2**63
    # would wrap the int64 positions and report a row out of order
    spec_path = tmp_path / "far.json"
    spec_path.write_text(json.dumps(_far_transform()))
    assert main(["validate", str(spec_path)]) == 1
    err = capsys.readouterr().err
    assert "reach 2**63 within 64 steps" in err and "int64" in err
    # a spec built in code is refused before its first block
    manifest, code = run_experiment(_built_in_code(_far_transform()), out_dir=str(tmp_path / "r"))
    assert code == 1 and "reach 2**63" in manifest.error
    assert not (tmp_path / "r" / "transform_samples.csv").exists()
    # one step short of the bound, the walk validates and runs: its top walker
    # may reach 2**63 - 1
    short = _far_transform(-63 * 1024 - 1)
    assert short["walk"]["start"][-1] + 64 * 1024 == 2 ** 63 - 1
    spec_path.write_text(json.dumps(short))
    assert main(["validate", str(spec_path)]) == 0
    manifest, code = run_experiment(validate_spec(json.dumps(short)), out_dir=str(tmp_path / "s"))
    assert code == 0 and manifest.error is None
    assert (tmp_path / "s" / "transform_samples.csv").exists()


def test_validate_and_run_agree_on_integer_starts_past_2_53(tmp_path, capsys):
    # 2**53 + 1 is an integer, though float() rounds it to 2**53
    spec_path = tmp_path / "tail.json"
    spec_path.write_text(json.dumps({
        "kind": "tail",
        "walk": {"k": 2, "start": [9007199254740993, 9007199254740994], "dist": "rademacher"},
        "params": {"horizons": [16, 64], "paths": 1000}}))
    assert main(["validate", str(spec_path)]) == 0
    assert main(["run", str(spec_path), "--out", str(tmp_path / "r")]) == 0
    assert "tail: PASS" in capsys.readouterr().out


def test_main_validate_bad_spec(tmp_path, capsys):
    spec_path = tmp_path / "bad.yaml"
    spec_path.write_text("kind: nonsense\nwalk: {k: 2, start: [0, 1]}\n")
    assert main(["validate", str(spec_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_suite(tmp_path, capsys):
    (tmp_path / "specs").mkdir()
    (tmp_path / "specs" / "a_km.yaml").write_text(GOOD_KM)
    (tmp_path / "specs" / "b_v.yaml").write_text(
        GOOD_KM.replace("exact-km", "exact-v"))
    rc = main(["suite", str(tmp_path / "specs"),
               "--out", str(tmp_path / "suite")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "a_km.yaml: PASS" in out and "b_v.yaml: PASS" in out
    assert (tmp_path / "suite" / "a_km" / "manifest.json").exists()


def test_seed_override(tmp_path):
    spec_path = tmp_path / "km.yaml"
    spec_path.write_text(GOOD_KM)
    rc = main(["run", str(spec_path), "--out", str(tmp_path / "r"),
               "--seed", "9"])
    assert rc == 0
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["spec"]["seed"] == 9


def test_validate_rejects_a_seed_the_philox_key_would_truncate():
    # a seed is one 64-bit word (the name recalls the Philox key that held it)
    validate_spec(GOOD_KM.replace("seed: 0", f"seed: {2 ** 64 - 1}"))
    with pytest.raises(SpecError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        validate_spec(GOOD_KM.replace("seed: 0", f"seed: {2 ** 64}"))


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("seed", [-3, 2 ** 64])
def test_seed_override_is_validated(tmp_path, capsys, command, seed):
    (tmp_path / "specs").mkdir()
    spec_path = tmp_path / "specs" / "km.yaml"
    spec_path.write_text(GOOD_KM)
    target = str(spec_path if command == "run" else tmp_path / "specs")
    rc = main([command, target, "--out", str(tmp_path / "r"), "--seed", str(seed)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"seed must be an integer in [0, 2**64), got {seed}" in captured.out + captured.err
    assert not (tmp_path / "r").exists()


def _verdicts_with_pinned_moment(tmp_path, monkeypatch, doc, module, name, keys,
                                 value):
    """Run `doc` with `module.name` reporting the gap moment `value` +- 1e-9."""
    real = getattr(module, name)

    def pinned(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep[keys[0]], rep[keys[1]] = [value], [1e-9]
        return rep

    monkeypatch.setattr(module, name, pinned)
    manifest, _ = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    return manifest.checks


@pytest.mark.parametrize("exact", [True, False])
def test_endpoint_gate_uses_exact_gap_dp_mean(tmp_path, monkeypatch, exact):
    doc = """
kind: endpoint
walk: {k: 2, start: [0, 1], dist: rademacher}
params: {n: 64, survivors: 200}
"""
    gaps, probs = gap_chain_alive_distribution(make_distribution("rademacher"), 1, 64)
    value = float(gaps @ probs) / 8.0 if exact else math.sqrt(math.pi)
    checks = _verdicts_with_pinned_moment(
        tmp_path, monkeypatch, doc, asymptotics, "endpoint_density_distance",
        ("gap_mean", "gap_mean_stderr"), value)
    assert checks["gap_mean_3sigma"] is exact


@pytest.mark.parametrize("exact", [True, False])
def test_hermite_gate_uses_exact_transformed_mean(tmp_path, monkeypatch, exact):
    doc = """
kind: hermite
walk: {k: 2, start: [0, 1], dist: rademacher}
params: {n: 64, paths: 200}
"""
    gaps, probs = transform.transformed_gap_distribution(1, 64)
    value = float((gaps / 8.0) ** 2 @ probs) if exact else 6.0
    checks = _verdicts_with_pinned_moment(
        tmp_path, monkeypatch, doc, transform, "hermite_distance",
        ("gap_sq_mean", "gap_sq_stderr"), value)
    assert checks["gap_sq_mean_3sigma"] is exact


@pytest.mark.parametrize("dist, shift, passed", [
    ("rademacher", 0, True), ("rademacher", 2, False),
    ("lazy_lattice", 0, True), ("lazy_lattice", 1, False),
])
def test_transform_gate_uses_exact_conditioned_gap_mean(tmp_path, monkeypatch, dist,
                                                        shift, passed):
    # a k=2 lattice run passes at its own samples and fails once the upper
    # walker is moved by `shift`
    doc = f"""
kind: transform
walk: {{k: 2, start: [0, 1], dist: {dist}}}
params: {{t_steps: 4, paths: 2000}}
"""
    real = transform.transform_paths_rejection

    def moved(*args, **kwargs):
        res = real(*args, **kwargs)
        res["samples"][:, 1] += shift
        return res

    monkeypatch.setattr(transform, "transform_paths_rejection", moved)
    manifest, _ = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert manifest.checks == {"gap_mean_4se": passed}


def test_transform_k3_has_no_exact_gate(tmp_path):
    doc = """
kind: transform
walk: {k: 3, start: [0, 1, 2], dist: rademacher}
params: {t_steps: 2, paths: 50}
"""
    manifest, _ = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert manifest.checks == {"collected": True}


@pytest.mark.parametrize("edit, field", [
    (("seed: 0", "seed: true"), "seed"),
    (("k: 2", "k: true"), "k"),
    (("start: [0, 1]", "start: [false, true]"), "start"),
    (("n: 4", "n: true"), "params.n"),
    (("n: 4", "n: 2.5"), "params.n"),
])
def test_validate_rejects_bool_and_fractional_ints(edit, field):
    with pytest.raises(SpecError, match=field):
        validate_spec(GOOD_KM.replace(*edit))


@pytest.mark.parametrize("params", [
    "horizons: [0, -5]",
    "horizons: [16, 2.5]",
    "horizons: [16, true]",
    "horizons: []",
    "horizons: 64",
    "schedule: [16, -32]",
    "schedule: [16, 16.5]",
    "schedule: [16, 32, 16]",
])
def test_validate_rejects_bad_horizon_lists(params):
    key = params.split(":")[0]
    kind = "tail" if key == "horizons" else "estimate-v"
    doc = GOOD_KM.replace("exact-km", kind).replace("n: 4", params)
    with pytest.raises(SpecError, match=key) as exc:
        validate_spec(doc)
    assert all("must list" in e or "repeated" in e for e in exc.value.errors)


def test_validate_accepts_positive_horizon_lists():
    doc = GOOD_KM.replace("exact-km", "tail").replace("n: 4", "horizons: [16, 64]")
    assert validate_spec(doc).params == {"horizons": [16, 64]}
    doc = GOOD_KM.replace("exact-km", "estimate-v").replace("n: 4", "schedule: [8, 16]")
    assert validate_spec(doc).params == {"schedule": [8, 16]}


@pytest.mark.parametrize("kind, params, field", [
    ("endpoint", "{n: 64, survivor: 100}", "params.survivor"),
    ("exact-km", "{n: 4, paths: 10}", "params.paths"),
    ("tail", "{horizons: [16, 64], schedule: [16]}", "params.schedule"),
    ("exact-reflect", "{n: 4, l: 9}", "params.l"),
    ("exact-reflect", "{l: 5}", r"1\.\.4"),
    ("exact-reflect", "{n: 3, l: 4}", r"1\.\.3"),
])
def test_validate_rejects_params_the_kind_does_not_read(kind, params, field):
    doc = f"kind: {kind}\nwalk: {{k: 2, start: [0, 1]}}\nparams: {params}\n"
    with pytest.raises(SpecError, match=field) as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1


@pytest.mark.parametrize("kind, params, field", [
    ("dyson-compare", '{t: "abc"}', "params.t "),
    ("dyson-compare", "{tv_threshold: [1]}", "params.tv_threshold"),
    ("dyson-compare", "{t: true}", "params.t "),
    ("dyson-compare", "{t: .inf}", "params.t "),
    ("tail", "{exponent_tol: .nan}", "params.exponent_tol"),
    ("tail", '{exponent_tol: "x"}', "params.exponent_tol"),
    ("lclt", '{threshold: "1e-2"}', "params.threshold"),
    ("dyson-compare", "{x_unit: [1, 0]}", "params.x_unit"),
    ("dyson-compare", '{x_unit: "ab"}', "params.x_unit"),
    ("dyson-compare", "{x_unit: [0, 1, 2]}", "params.x_unit"),
    ("dyson-compare", "{x_unit: [false, true]}", "params.x_unit"),
    ("dyson-compare", "{x_unit: [0.0, .inf]}", "params.x_unit"),
    ("transform", "{t_steps: 8, guard_m: 4}", "t_steps = 8"),
    ("transform", "{guard_m: 8}", "t_steps = 16"),
    # floor(t n) = 0 steps compared the unmoved start gap with the law at t
    ("dyson-compare", "{t: 0.01, horizons: [1, 4]}", r"= 0\) at horizons \[1, 4\]"),
    ("dyson-compare", "{t: 0.001}", r"at horizons \[256\]$"),
    ("dyson-compare", "{t: 0.25, horizons: [3, 4]}", r"at horizons \[3\]$"),
    # tail exited 1 on a repeated horizon; lclt and dyson-compare failed their trend check
    ("tail", "{horizons: [64, 64]}", r"params.horizons has repeated horizons: \[64, 64\]"),
    ("lclt", "{horizons: [256, 256]}", "params.horizons has repeated"),
    ("dyson-compare", "{horizons: [64, 256, 64]}", "params.horizons has repeated"),
])
def test_validate_rejects_params_the_run_cannot_use(kind, params, field):
    # each of these specs used to pass validation and then exit 1 in the run
    dist = "lazy_lattice" if kind == "lclt" else "rademacher"
    doc = f"kind: {kind}\nwalk: {{k: 2, start: [0, 1], dist: {dist}}}\nparams: {params}\n"
    with pytest.raises(SpecError, match=field) as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1


@pytest.mark.parametrize("kind, params", [
    ("dyson-compare", "{t: 1, x_unit: [-0.5, 0.5], tv_threshold: 0.1}"),
    ("lclt", "{threshold: 1.0e-2}"),
    ("transform", "{t_steps: 8, guard_m: 8}"),
    ("transform", "{guard_m: 16}"),
    ("dyson-compare", "{t: 0.25, horizons: [4, 16]}"),
])
def test_validate_accepts_numbers_and_a_guard_past_t_steps(kind, params):
    dist = "lazy_lattice" if kind == "lclt" else "rademacher"
    doc = f"kind: {kind}\nwalk: {{k: 2, start: [0, 1], dist: {dist}}}\nparams: {params}\n"
    assert validate_spec(doc).kind == kind


@pytest.mark.parametrize("kind, dist, message", [
    # exact masses are needed: each of these exited 1 in the run
    ("exact-km", "gaussian", "kind exact-km needs a lattice law, got gaussian"),
    ("exact-reflect", "uniform", "kind exact-reflect needs a lattice law"),
    ("exact-v", "laplace", "kind exact-v needs a lattice law"),
    ("lclt", "{kind: gaussian, variance: 2}", "kind lclt needs a lattice law"),
    # lclt compares on offset 0 + span Z only
    ("lclt", "rademacher", r"rademacher lives on 1 \+ 2Z"),
    ("lclt", '{kind: custom_lattice, masses: {-3: "1/4", 1: "3/4"}}', r"lives on 1 \+ 4Z"),
])
def test_validate_rejects_a_law_the_kind_cannot_run(kind, dist, message):
    doc = f"kind: {kind}\nwalk: {{k: 2, start: [0, 1], dist: {dist}}}\n"
    with pytest.raises(SpecError, match=message) as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1


def test_validate_accepts_lclt_on_an_offset_zero_sublattice():
    doc = ("kind: lclt\nwalk: {k: 2, start: [0, 2], dist: {kind: custom_lattice, "
           'masses: {-2: "1/8", 0: "3/4", 2: "1/8"}}}\n')
    assert validate_spec(doc).kind == "lclt"


@pytest.mark.parametrize("out", ["null", "[a, b]", '""', "5"])
def test_validate_rejects_an_out_that_is_no_directory_name(out):
    # null used to write into a directory named None, [a, b] into "['a', 'b']"
    with pytest.raises(SpecError, match="out must be a non-empty string") as exc:
        validate_spec(f"{GOOD_KM}out: {out}\n")
    assert len(exc.value.errors) == 1
    assert validate_spec(f"{GOOD_KM}out: runs/km\n").out == "runs/km"


def test_validate_accepts_every_param_each_runner_reads(tmp_path, monkeypatch):
    # every key a runner looks up in the params it is handed must be in its
    # kind's record, and it reads them all
    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            raise AssertionError(f"a runner reads params.{key} with a default")

    for kind, record in cli._KINDS.items():
        monkeypatch.setitem(cli._KINDS, kind, record._replace(
            run=lambda params, cfg, run=record.run: run(Recording(params), cfg)))

    small = {"exact-km": "{n: 2}", "exact-reflect": "{n: 2, l: 2}",
             "exact-v": "{n: 2}", "estimate-v": "{schedule: [2, 4], paths: 100}",
             "tail": "{horizons: [2, 4], paths: 100, exponent_tol: 10}",
             "endpoint": "{n: 4, survivors: 20, max_attempts: 2000}",
             "lclt": "{horizons: [4, 8], threshold: 1}",
             "transform": "{t_steps: 1, paths: 20, guard_m: 2}",
             "hermite": "{n: 4, paths: 20}",
             "dyson-compare": "{t: 1.0, horizons: [4, 16], paths: 20, "
                              "x_unit: [0, 1], tv_threshold: 1}"}
    assert set(small) == set(cli._KINDS)
    for kind, params in small.items():
        dist = "lazy_lattice" if kind == "lclt" else "rademacher"
        spec = validate_spec(f"kind: {kind}\nwalk: {{k: 2, start: [0, 1], dist: {dist}}}\n"
                             f"params: {params}\n")
        assert set(spec.params) == set(cli._KINDS[kind].params)
        read = set()
        manifest, _ = run_experiment(spec, out_dir=str(tmp_path / kind))
        assert manifest.error is None, (kind, manifest.error)
        assert read == set(cli._KINDS[kind].params), kind


# each kind's Monte Carlo sample size, cut to keep a run short
_FEW_PATHS = {"estimate-v": {"paths": 2000}, "tail": {"paths": 2000},
              "endpoint": {"survivors": 200}, "transform": {"paths": 200},
              "hermite": {"paths": 200}, "dyson-compare": {"paths": 200}}


@pytest.mark.parametrize("kind", cli._KINDS)
def test_spelled_out_defaults_write_the_same_files(tmp_path, kind):
    # a spec that writes out every default the table gives must validate and
    # run as the spec that leaves them out: a default that breaks the
    # validator's own rules (a repeated horizon, a float where an integer is
    # read) shows here
    small = _FEW_PATHS.get(kind, {})
    spelled = {**{key: val for key, val in cli._KINDS[kind].params.items() if val is not None},
               **small}
    assert spelled != small
    dist = "lazy_lattice" if kind == "lclt" else "rademacher"
    files = []
    for params in (small, spelled):
        spec = validate_spec(json.dumps({"kind": kind, "seed": 5, "params": params,
                                         "walk": {"k": 2, "start": [0, 1], "dist": dist}}))
        manifest, _ = run_experiment(spec, out_dir=str(tmp_path / str(len(files))))
        assert manifest.error is None, manifest.error
        files.append(manifest.files)
    assert files[0] == files[1]


@pytest.mark.parametrize("kind", ["hermite", "dyson-compare"])
@pytest.mark.parametrize("k, dist", [(3, "rademacher"), (2, "lazy_lattice")])
def test_the_transformed_chain_runs_on_k2_rademacher_only(tmp_path, kind, k, dist):
    # validate used to accept these specs, which the run then refused (exit 2)
    doc = json.dumps({"kind": kind, "params": {"paths": 100},
                      "walk": {"k": k, "start": list(range(k)), "dist": dist}})
    with pytest.raises(SpecError, match=f"kind {kind} needs k=2 rademacher walkers, "
                                        f"got k={k} {dist}") as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1
    # a spec built in code, past the validator, is still refused
    spec = cli.ExperimentSpec(kind=kind, k=k, start=tuple(range(k)), dist_kind=dist,
                              params={"paths": 100})
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 2 and "FeasibilityError: kind" in manifest.error


def _walk(kind, k, dist, params=None):
    return {"kind": kind, "seed": 1, "params": params or {},
            "walk": {"k": k, "start": list(range(k)), "dist": dist}}


def _wide(half):
    return {"kind": "custom_lattice", "masses": {str(-half): 0.5, str(half): 0.5}}


_GAUSS2 = {"kind": "gaussian", "variance": 2}
_THIRDS = {"kind": "custom_lattice", "masses": {"-3": "1/4", "1": "3/4"}}
_FAR_LCLT = {"kind": "custom_lattice",
             "masses": {"-4503599627370496": 0.25, "0": 0.5, "4503599627370496": 0.25}}


# specs that `run` refuses before its runner starts, with the exit code of a
# spec built in code and the rule or bound the message names
@pytest.mark.parametrize("doc, code, message", [
    # a law the kind cannot run: exact-* and lclt exited 1 from their modules
    (_walk("exact-km", 2, "gaussian"), 2, "kind exact-km needs a lattice law, got gaussian"),
    (_walk("exact-reflect", 2, "uniform"), 2, "kind exact-reflect needs a lattice law"),
    (_walk("exact-v", 2, "laplace"), 2, "kind exact-v needs a lattice law"),
    (_walk("lclt", 2, _GAUSS2), 2, "kind lclt needs a lattice law"),
    (_walk("lclt", 2, "rademacher"), 2, r"rademacher lives on 1 \+ 2Z"),
    (_walk("lclt", 2, _THIRDS), 2, r"lives on 1 \+ 4Z"),
    (_walk("hermite", 3, "rademacher"), 2, "kind hermite needs k=2 rademacher walkers, got k=3"),
    (_walk("hermite", 2, "lazy_lattice"), 2, "needs k=2 rademacher walkers, got k=2 lazy"),
    (_walk("dyson-compare", 3, "rademacher"), 2, "kind dyson-compare needs k=2 rademacher"),
    (_walk("dyson-compare", 2, "lazy_lattice"), 2, "kind dyson-compare needs k=2 rademacher"),
    # endpoint simulated every path, then exited 1 in the limit-law layer
    (_walk("endpoint", 4, "rademacher", {"n": 4, "survivors": 200}), 2,
     "kind endpoint needs k <= 3 walkers"),
    # walks whose int64 positions may pass 2**63 exited 1 with OverflowError,
    # or (transform) ran to a wrapped row
    (_far_transform(), 1, r"may reach 2\*\*63 within 64 steps"),
    (_walk("exact-km", 2, _wide(2 ** 61), {"n": 6}), 1, r"2\*\*63 within 6 steps"),
    (_walk("exact-v", 2, _wide(2 ** 61), {"n": 6}), 1, r"2\*\*63 within 7 steps"),
    (_walk("exact-reflect", 2, _wide(2 ** 61), {"n": 6}), 1, r"2\*\*63 within 6 steps"),
    (_walk("lclt", 2, _FAR_LCLT), 1, r"2\*\*63 within 4096 steps"),
    # a law spread over 2**63 or more, whose span no int64 holds
    (_walk("endpoint", 2, _wide(2 ** 62 + 1), {"n": 1, "survivors": 10}), 1,
     r"with a spread below 2\*\*63"),
    (_walk("exact-km", 2, _wide(2 ** 62 + 1)), 1, r"with a spread below 2\*\*63"),
    (_walk("exact-v", 2, _wide(2 ** 62 + 1)), 1, r"with a spread below 2\*\*63"),
])
def test_validate_refuses_what_run_refuses_before_any_work(tmp_path, monkeypatch, doc, code,
                                                          message):
    with pytest.raises(SpecError, match=message) as exc:
        validate_spec(json.dumps(doc))
    assert len(exc.value.errors) == 1
    # built in code, the spec is refused with the same message, and no runner starts
    for kind, record in cli._KINDS.items():
        monkeypatch.setitem(cli._KINDS, kind, record._replace(run=None))
    manifest, got = run_experiment(_built_in_code(doc), out_dir=str(tmp_path))
    assert got == code
    refusal = "FeasibilityError" if code == 2 else "ValueError"
    assert manifest.error == f"{refusal}: {exc.value.errors[0].removeprefix('bad distribution: ')}"
    assert manifest.files == {"summary.txt": manifest.files["summary.txt"]}


@pytest.mark.parametrize("kind, horizons, message", [
    # tail ran its simulation and then exited 1 in its fit
    ("tail", "[64]", "must list at least 2 horizons"),
    # lclt exited 1 on a one-step walk
    ("lclt", "[1, 16]", "must list horizons >= 2 for kind lclt"),
    # one horizon passed the trend check, `all` over no pairs
    ("lclt", "[256]", "must list at least 2 horizons"),
    ("dyson-compare", "[256]", "must list at least 2 horizons"),
])
def test_validate_rejects_horizon_lists_the_run_cannot_use(kind, horizons, message):
    dist = "lazy_lattice" if kind == "lclt" else "rademacher"
    doc = (f"kind: {kind}\nwalk: {{k: 2, start: [0, 1], dist: {dist}}}\n"
           f"params: {{horizons: {horizons}}}\n")
    with pytest.raises(SpecError, match=message) as exc:
        validate_spec(doc)
    assert len(exc.value.errors) == 1


def test_estimate_v_run_simulates_once(tmp_path, monkeypatch):
    from ordwalk import v_module

    doc = """
kind: estimate-v
walk: {k: 2, start: [0, 1], dist: rademacher}
params: {schedule: [4, 8, 16], paths: 2000}
"""
    calls = []
    real = v_module._vn_over_schedule
    monkeypatch.setattr(v_module, "_vn_over_schedule",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    spec = validate_spec(doc)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 0 and len(calls) == 1
    report = json.loads((tmp_path / "estimate_v.json").read_text())
    monkeypatch.undo()
    est = v_module.estimate_v(spec.walk_config(), [4, 8, 16], 2000)
    assert report["value"] == est.value.mean
    assert report["tail_diagnostic"] == est.tail_diagnostic


def test_estimate_v_writes_its_verdicts_as_json_bools(tmp_path):
    doc = """
kind: estimate-v
walk: {k: 2, start: [0, 1], dist: rademacher}
params: {schedule: [4, 8], paths: 500}
"""
    manifest, _ = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    report = json.loads((tmp_path / "estimate_v.json").read_text())
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert isinstance(report["positive_at_4_stderr"], bool)
    assert written["checks"]["positivity_4sigma"] is report["positive_at_4_stderr"]
    assert written["passed"] is manifest.passed


def _block_work(cfg, horizon, blocks):
    """(paths, sum of min(tau, horizon), exits) over the given block sizes."""
    taus = [engine._simulate_block(cfg, horizon, b, size)[0] for b, size in enumerate(blocks)]
    tau = np.concatenate(taus)
    return {"paths": tau.size, "path_steps": int(np.minimum(tau, horizon).sum()),
            "exits": int((tau <= horizon).sum())}


@pytest.mark.parametrize("kind, walk, params, horizon", [
    ("tail", "{k: 3, start: [0, 1, 2], dist: rademacher}",
     "{horizons: [4, 16], paths: 20000}", 16),
    ("estimate-v", "{k: 2, start: [0.0, 1.0], dist: gaussian}",
     "{schedule: [4, 8], paths: 20000}", 8),
], ids=["tail", "estimate-v"])
def test_reports_count_the_monte_carlo_work(tmp_path, kind, walk, params, horizon):
    spec = validate_spec(f"kind: {kind}\nwalk: {walk}\nseed: 3\nparams: {params}\n")
    manifest, _ = run_experiment(spec, out_dir=str(tmp_path))
    assert manifest.error is None  # the verdicts of so small a run do not matter
    report = json.loads((tmp_path / f"{kind.replace('-', '_')}.json").read_text())
    assert report["work"] == _block_work(spec.walk_config(), horizon,
                                         engine._block_sizes(20000))


def test_endpoint_report_counts_work_and_gap_dp_extent(tmp_path):
    doc = """
kind: endpoint
walk: {k: 2, start: [0, 1], dist: rademacher}
seed: 3
params: {n: 64, survivors: 200, max_attempts: 40000}
"""
    spec = validate_spec(doc)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 0, manifest.error
    report = json.loads((tmp_path / "endpoint.json").read_text())
    # 200 survivors of n = 64 take the first block alone (P(tau > 64) ~ 0.1)
    assert report["work"] == _block_work(spec.walk_config(), 64, [engine.BLOCK_SIZE])
    p = lattice_exact._gap_chain_dp(make_distribution("rademacher"), 1, [64])[64]
    assert report["gap_dp"] == {"truncated_mass": p.truncated, "window_cells": p.mass.size}


def test_transform_report_counts_the_work_of_the_blocks_it_drew(tmp_path):
    doc = """
kind: transform
walk: {k: 3, start: [0, 1, 2], dist: rademacher}
seed: 9
params: {t_steps: 3, guard_m: 12, paths: 6000}
"""
    spec = validate_spec(doc)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path))
    assert code == 0, manifest.error
    report = json.loads((tmp_path / "transform.json").read_text())
    # the run draws full blocks until 6000 paths survive to m = 12
    cfg, blocks, kept = spec.walk_config(), 0, 0
    while kept < 6000:
        kept += int((engine._simulate_block(cfg, 24, blocks, engine.BLOCK_SIZE)[0] > 12).sum())
        blocks += 1
    assert blocks > 1
    assert report["work"] == _block_work(cfg, 24, [engine.BLOCK_SIZE] * blocks)


def test_hermite_report_records_gap_dp_extent(tmp_path):
    doc = """
kind: hermite
walk: {k: 2, start: [0, 1], dist: rademacher}
params: {n: 64, paths: 200}
"""
    manifest, code = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert code == 0, manifest.error
    report = json.loads((tmp_path / "hermite.json").read_text())
    p = lattice_exact._gap_chain_dp(make_distribution("rademacher"), 1, [64])[64]
    assert report["gap_dp"] == {"truncated_mass": p.truncated, "window_cells": p.mass.size}


def _k2_lattice_spec(kind, params, start=(0, 1)):
    return validate_spec(json.dumps({
        "kind": kind, "walk": {"k": 2, "start": list(start), "dist": "rademacher"},
        "seed": 5, "params": params}))


@pytest.mark.parametrize("kind, params, start", [
    ("tail", {"horizons": [4, 16], "paths": 2000}, (-2, 1)),  # no star formula
    ("estimate-v", {"schedule": [4, 8], "paths": 2000}, (0, 1)),
    ("endpoint", {"n": 16, "survivors": 100}, (0, 1)),
    ("transform", {"t_steps": 2, "paths": 100}, (0, 1)),
    ("hermite", {"n": 16, "paths": 100}, (0, 1)),
], ids=["tail", "estimate-v", "endpoint", "transform", "hermite"])
def test_every_k2_lattice_run_reads_the_gap_dp_through_its_one_entry(tmp_path, monkeypatch,
                                                                     kind, params, start):
    # the tracer wraps lattice_exact._gap_chain_dp, so a run that reached the
    # gap DP some other way would leave its cells out of the traced counts
    calls = []
    real = lattice_exact._gap_chain_dp

    def counting(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(lattice_exact, "_gap_chain_dp", counting)
    manifest, _ = run_experiment(_k2_lattice_spec(kind, params, start), out_dir=str(tmp_path))
    assert manifest.error is None
    assert calls and all(gap == start[1] - start[0] for _, gap in calls)


@pytest.mark.parametrize("kind, params", [
    ("estimate-v", {"schedule": [16, 64], "paths": 2000}),
    ("endpoint", {"n": 64, "survivors": 100}),
], ids=["estimate-v", "endpoint"])
def test_a_run_whose_gap_dp_truncates_too_much_fails(tmp_path, monkeypatch, kind, params):
    monkeypatch.setattr(lattice_exact, "_WINDOW_SIGMAS", 1.0)
    manifest, code = run_experiment(_k2_lattice_spec(kind, params), out_dir=str(tmp_path))
    assert code == 1
    written = json.loads((tmp_path / "manifest.json").read_text())
    assert written["error"].startswith("TruncationError: ")
    assert "truncated mass bounding its error by" in written["error"]


TAIL_K3 = """
kind: tail
walk: {k: 3, start: [START], dist: DIST}
seed: 3
params: {horizons: [4, 16, 64], paths: 20000}
"""


def test_tail_gates_a_packed_rademacher_start_on_the_exact_survival(tmp_path, monkeypatch):
    spec = validate_spec(TAIL_K3.replace("START", "5, 6, 7").replace("DIST", "rademacher"))
    manifest, _ = run_experiment(spec, out_dir=str(tmp_path / "ok"))
    report = json.loads((tmp_path / "ok" / "tail.json").read_text())
    exact = lattice_exact.star_survival(3, [4, 16, 64])
    assert report["exact_survival"] == [[n, p] for n, p in exact]
    assert manifest.checks["exact_within_4sd"]
    # an estimate 5 binomial sd above the exact P(tau > 16) fails the gate
    real = engine.batch_survival
    p16 = exact[1][1]

    def biased(cfg, horizons, paths, work=None):
        out = real(cfg, horizons, paths, work=work)
        shift = 5.0 * math.sqrt(p16 * (1.0 - p16) / paths)
        return [(n, ci if n != 16 else engine.EstimateCI(p16 + shift, ci.stderr))
                for n, ci in out]

    monkeypatch.setattr(engine, "batch_survival", biased)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path / "biased"))
    assert code == 1 and not manifest.checks["exact_within_4sd"]


@pytest.mark.parametrize("start, dist", [("0, 1, 3", "rademacher"),
                                         ("0, 1, 2", "lazy_lattice")])
def test_tail_has_no_exact_gate_without_the_star_formula(tmp_path, start, dist):
    spec = validate_spec(TAIL_K3.replace("START", start).replace("DIST", dist))
    manifest, _ = run_experiment(spec, out_dir=str(tmp_path))
    assert "exact_within_4sd" not in manifest.checks


def _tail_k2(start, dist, seed=3, horizons=(4, 16, 64, 256)):
    return validate_spec(json.dumps({
        "kind": "tail", "walk": {"k": 2, "start": start, "dist": dist}, "seed": seed,
        "params": {"horizons": list(horizons), "paths": 20000}}))


@pytest.mark.parametrize("start, dist", [((0, 1), "lazy_lattice"), ((-2, 1), "rademacher")])
def test_tail_gates_a_k2_lattice_walk_on_the_gap_chain_survival(tmp_path, monkeypatch,
                                                                start, dist):
    spec = _tail_k2(start, dist)
    manifest, _ = run_experiment(spec, out_dir=str(tmp_path / "ok"))
    report = json.loads((tmp_path / "ok" / "tail.json").read_text())
    exact = lattice_exact.gap_chain_survival(make_distribution(dist), start[1] - start[0],
                                             [4, 16, 64, 256])
    assert report["exact_survival"] == [[n, p] for n, p in exact]
    assert manifest.checks["exact_within_4sd"]
    # an estimate 5 binomial sd above the exact P(tau > 16) fails the gate
    real = engine.batch_survival
    p16 = exact[1][1]

    def biased(cfg, horizons, paths, work=None):
        out = real(cfg, horizons, paths, work=work)
        shift = 5.0 * math.sqrt(p16 * (1.0 - p16) / paths)
        return [(n, ci if n != 16 else engine.EstimateCI(p16 + shift, ci.stderr))
                for n, ci in out]

    monkeypatch.setattr(engine, "batch_survival", biased)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path / "biased"))
    assert code == 1 and not manifest.checks["exact_within_4sd"]


@pytest.mark.parametrize("start, dist, seed", [
    ((0, 23), "lazy_lattice", 0), ((0, 41), "rademacher", 0),
    # one of the 20000 paths exits by step 24 (lazy) or 40 (Rademacher), where
    # 0.035 are expected: 5.2 binomial sd, which the gate's one path allows
    ((0, 23), "lazy_lattice", 11), ((0, 41), "rademacher", 16),
])
def test_tail_exact_gate_holds_from_far_starts(tmp_path, start, dist, seed):
    spec = _tail_k2(start, dist, seed, horizons=(16, 24, 40, 64, 256))
    manifest, _ = run_experiment(spec, out_dir=str(tmp_path))
    assert manifest.checks["exact_within_4sd"]


ESTIMATE_V_K2 = """
kind: estimate-v
walk: {k: 2, start: [0, 3], dist: DIST}
seed: 3
params: {schedule: [2, 4, 6], paths: 20000}
"""


@pytest.mark.parametrize("dist", ["rademacher", "lazy_lattice"])
def test_estimate_v_gates_a_k2_lattice_walk_on_the_exact_vn(tmp_path, monkeypatch, dist):
    from ordwalk import v_module

    spec = validate_spec(ESTIMATE_V_K2.replace("DIST", dist))
    manifest, code = run_experiment(spec, out_dir=str(tmp_path / "ok"))
    report = json.loads((tmp_path / "ok" / "estimate_v.json").read_text())
    exact = lattice_exact.exact_vn(spec.walk_config(), 6)
    assert [n for n, _ in report["exact_v"]] == [2, 4, 6]
    for n, v in report["exact_v"]:
        assert v == pytest.approx(float(exact[n - 1]), abs=1e-12)
    assert code == 0 and manifest.checks["exact_vn_4se"]
    # an estimate at exact V_4 + 5 exact se + width / paths lies past the
    # gate's bound, 4 exact se + width / paths, on every stream
    four = lattice_exact._gap_chain_dp(spec.walk_config().dist, 3, [4])[4]
    se = math.sqrt((four.stopped_sq - four.stopped ** 2) / spec.params["paths"])
    assert se > 0
    off = 3 - four.stopped + 5 * se + 2 / spec.params["paths"]  # width 2
    real = v_module._vn_over_schedule

    def biased(*args, **kwargs):
        return [(n, ci if n != 4 else engine.EstimateCI(off, ci.stderr))
                for n, ci in real(*args, **kwargs)]

    monkeypatch.setattr(v_module, "_vn_over_schedule", biased)
    manifest, code = run_experiment(spec, out_dir=str(tmp_path / "biased"))
    assert code == 1 and not manifest.checks["exact_vn_4se"]


@pytest.mark.parametrize("dist, gap", [("rademacher", 23), ("rademacher", 41),
                                       ("rademacher", 301), ("lazy_lattice", 23)])
@pytest.mark.parametrize("seed", range(5))
def test_estimate_v_exact_gate_holds_from_far_starts(tmp_path, dist, gap, seed):
    # default schedule [16, 32, 64, 128] and 1e5 paths. From gap 41 an exit
    # by n = 32 has chance 6e-8, so the sample mostly sees none and its
    # stderr is 0 while the exact V_32 exceeds 41; from gap 301 no exit is
    # possible by n = 128, though mass crosses the DP window's cap
    doc = (f"kind: estimate-v\nwalk: {{k: 2, start: [0, {gap}], dist: {dist}}}\n"
           f"seed: {seed}\n")
    manifest, code = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert code == 0 and manifest.checks["exact_vn_4se"]


@pytest.mark.parametrize("walk", ["{k: 3, start: [0, 1, 2], dist: rademacher}",
                                  "{k: 2, start: [0.0, 1.0], dist: gaussian}"])
def test_estimate_v_has_no_exact_gate_off_the_k2_lattice(tmp_path, walk):
    doc = f"kind: estimate-v\nwalk: {walk}\nparams: {{schedule: [2, 4], paths: 500}}\n"
    manifest, _ = run_experiment(validate_spec(doc), out_dir=str(tmp_path))
    assert set(manifest.checks) == {"positivity_4sigma"}
