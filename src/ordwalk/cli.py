"""Experiment orchestration: config parsing, dispatch, reports, manifests.

A spec file (JSON or YAML) names an experiment kind,
a walk configuration, a master seed, and kind-specific parameters. Running a
spec emits machine-readable JSON, CSV tables, a plain-text summary, and a
manifest with a sha256 digest of every result file. All randomness flows
from the master seed, so a rerun reproduces the result files byte for byte;
wall-clock timing (and, for the Monte Carlo kinds, path-steps per second)
lives in a separate timing.json, which is the only nondeterministic output.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import __version__, asymptotics, engine, lattice_exact, transform, v_module
from .distributions import make_distribution, seed_error
from .engine import PartialResultError, WalkConfig, int64_error, is_integral
from .geometry import in_weyl
from .transform import FeasibilityError

__all__ = [
    "ExperimentSpec",
    "RunManifest",
    "SpecError",
    "validate_spec",
    "run_experiment",
    "emit_report",
    "main",
]

_INT_PARAMS = ("n", "l", "paths", "survivors", "max_attempts", "t_steps", "guard_m")
_FLOAT_PARAMS = ("t", "exponent_tol", "threshold", "tv_threshold")
_HORIZON_PARAMS = ("horizons", "schedule")


def _law_error(kind, k, dist):
    """Why a run of `kind` cannot take k walkers of law `dist`, or None."""
    law = _KINDS[kind].law
    if law in ("lattice", "lattice on span Z") and not dist.is_lattice:
        return f"kind {kind} needs a lattice law, got {dist.kind}"
    if law == "lattice on span Z" and (offset := dist.lattice.lo % dist.lattice.span):
        return (f"kind {kind} needs a support of offset 0 modulo its span; "
                f"{dist.kind} lives on {offset} + {dist.lattice.span}Z")
    if law == "k=2 rademacher" and (k, dist.kind) != (2, "rademacher"):
        return f"kind {kind} needs k=2 rademacher walkers, got k={k} {dist.kind}"
    if law == "k <= 3" and k > 3:
        return f"kind {kind} needs k <= 3 walkers (gap marginals of its limit law), got k={k}"
    return None


def _is_int(value):
    """An int that is not a bool (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    """An int or a float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class SpecError(ValueError):
    """Invalid experiment spec; .errors lists every problem found."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment. Building it checks every field and raises one SpecError
    listing every problem, so a spec that exists is valid, however it was built."""

    kind: str
    k: int
    start: tuple
    dist_kind: str
    dist_params: dict = field(default_factory=dict)
    seed: int = 0
    params: dict = field(default_factory=dict)
    out: str = "results"

    def __post_init__(self):
        errors = []
        kind, k, start, params = self.kind, self.k, self.start, self.params
        record = _KINDS.get(kind) if isinstance(kind, str) else None
        if record is None:
            errors.append(f"unknown kind {kind!r}; expected one of {', '.join(_KINDS)}")
        if not _is_int(k) or k < 2:
            errors.append(f"k must be an integer >= 2, got {k!r}")
            k = 2
        if not isinstance(start, (list, tuple)) or len(start) != k:
            errors.append(f"start must list k={k} coordinates, got {start!r}")
            start = tuple(range(k))
        else:
            start = tuple(start)
            if not all(map(_is_number, start)):
                errors.append(f"start coordinates not numeric: {start!r}")
                start = tuple(range(k))
            elif not all(map(math.isfinite, start)):
                errors.append(f"start coordinates must be finite, got {start!r}")
                start = tuple(range(k))
            elif not in_weyl(start):
                errors.append("start not strictly ordered")
        object.__setattr__(self, "start", start)
        try:
            dist = make_distribution(self.dist_kind, **self.dist_params)
        except (ValueError, TypeError) as exc:
            errors.append(f"bad distribution: {exc}")
        else:
            if dist.is_lattice and not all(map(is_integral, start)):
                errors.append("lattice walks need integer start coordinates")
            if record and (error := _law_error(kind, k, dist)):
                errors.append(error)

        if error := seed_error(self.seed):
            errors.append(error)
        if not isinstance(params, dict):
            errors.append("params must be a mapping")
            params = {}
        for key, val in params.items():
            if key in _INT_PARAMS and not _is_int(val):
                errors.append(f"params.{key} must be an integer, got {val!r}")
            elif key in _HORIZON_PARAMS:
                if (not isinstance(val, list) or not val
                        or not all(_is_int(h) and h > 0 for h in val)):
                    errors.append(
                        f"params.{key} must list positive integers, got {val!r}")
                elif len(set(val)) != len(val):
                    errors.append(f"params.{key} has repeated horizons: {val!r}")
                elif key == "horizons" and len(val) < 2:
                    # tail fits a slope; lclt and dyson-compare check a trend
                    errors.append(f"params.horizons must list at least 2 horizons, "
                                  f"got {val!r}")
            elif key == "x_unit":
                if (not isinstance(val, list) or len(val) != k
                        or not all(_is_number(v) and math.isfinite(v) for v in val)
                        or not in_weyl(val)):
                    errors.append(f"params.x_unit must list k={k} strictly increasing "
                                  f"finite numbers, got {val!r}")
            elif key in _FLOAT_PARAMS and not (_is_number(val) and math.isfinite(val)):
                errors.append(f"params.{key} must be a finite number, got {val!r}")
            elif _is_number(val) and val <= 0:
                errors.append(f"params.{key} must be positive, got {val}")
            if record and key not in record.params:
                errors.append(f"params.{key} is not read by kind {kind}, which reads "
                              f"{', '.join(record.params)}")
        if not isinstance(self.out, str) or not self.out:
            errors.append(f"out must be a non-empty string, got {self.out!r}")

        # the kind's rule reads the walk and every param, given or at its
        # default, once each passed its own check
        if not errors and (error := record.rule(WalkConfig(k=k, start=start, dist=dist),
                                                {**record.params, **params})):
            errors.append(error)
        if errors:
            raise SpecError(errors)

    def walk_config(self) -> WalkConfig:
        dist = make_distribution(self.dist_kind, **self.dist_params)
        return WalkConfig(k=self.k, start=self.start, dist=dist,
                          master_seed=self.seed)


@dataclass
class RunManifest:
    spec: dict
    version: str
    checks: dict
    files: dict  # name -> sha256
    passed: bool
    error: str | None = None


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON number")


def _parse_spec(raw: str):
    """The document of a spec text: by `json` when the text is JSON, else by
    PyYAML, which is imported only then.

    A JSON text that spells NaN or Infinity is left to PyYAML, which reads
    those tokens as strings, so validation rejects them as it does in YAML.
    """
    try:
        return json.loads(raw, parse_constant=_reject_constant)
    except ValueError:
        pass
    import yaml
    try:
        return yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise SpecError([f"unparseable config: {exc}"])


def validate_spec(raw: str) -> ExperimentSpec:
    """The spec of a document. A walk or dist of the wrong shape is listed first,
    then read by a fallback, so one SpecError lists every problem."""
    doc = _parse_spec(raw)
    if not isinstance(doc, dict):
        raise SpecError(["config must be a mapping"])
    errors = []
    walk = doc.get("walk") or {}
    if not isinstance(walk, dict):
        errors.append(f"walk must be a mapping of k, start and dist, got {walk!r}")
        walk = {}
    dist = walk.get("dist", "rademacher")
    dist = {"kind": dist} if isinstance(dist, str) else dist
    if not isinstance(dist, dict) or "kind" not in dist:
        errors.append(f"dist must be a kind name or mapping with 'kind': {dist!r}")
        dist = {"kind": "rademacher"}
    try:
        spec = ExperimentSpec(kind=doc.get("kind"), k=walk.get("k"), start=walk.get("start"),
                              dist_kind=dist["kind"],
                              dist_params={a: b for a, b in dist.items() if a != "kind"},
                              seed=doc.get("seed", 0), params=doc.get("params") or {},
                              out=doc.get("out", "results"))
    except SpecError as exc:
        errors += exc.errors
    if errors:
        raise SpecError(errors)
    return spec


def _spec_doc(spec: ExperimentSpec) -> dict:
    """The spec as a plain document, as the manifest records it."""
    return {
        "kind": spec.kind,
        "walk": {
            "k": spec.k,
            "start": list(spec.start),
            "dist": spec.dist_kind if not spec.dist_params
            else {"kind": spec.dist_kind, **spec.dist_params},
        },
        "seed": spec.seed,
        "params": dict(spec.params),
        "out": spec.out,
    }


# ---------------------------------------------------------------------------
# deterministic serialization: 17 significant digits, exact fraction strings

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _to_json(obj, indent=0):
    pad = " " * indent
    inner = " " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(key))}: {_to_json(val, indent + 1)}'
                 for key, val in sorted(obj.items(), key=lambda kv: str(kv[0]))]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{_to_json(val, indent + 1)}" for val in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(None if obj is None else bool(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(str(obj))


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(_to_json(obj) + "\n")


def _write_csv(path, header, rows):
    """Write a header and rows: a sequence of tuples, or a 2-D numpy array."""
    def cell(v):
        if isinstance(v, Fraction):
            return f"{v.numerator}/{v.denominator}"
        if isinstance(v, (float, np.floating)):
            return _fmt_float(float(v))
        return str(v)

    lines = [",".join(header) + "\n"]
    kind = rows.dtype.kind if isinstance(rows, np.ndarray) else None
    if kind in ("i", "u") or (kind == "f" and np.isfinite(rows).all()):
        # the same text per cell as `cell`, from one % over the whole table
        spec = "%.17g" if kind == "f" else "%d"
        line = ",".join([spec] * rows.shape[1]) + "\n"
        lines.append(line * rows.shape[0] % tuple(rows.ravel().tolist()))
    else:
        lines += [",".join(cell(v) for v in row) + "\n" for row in rows]
    with open(path, "w") as fh:
        fh.writelines(lines)


def emit_report(out_dir: str, name: str, result: dict, tables: dict | None = None):
    """Write <name>.json plus optional CSV tables; returns emitted file names."""
    os.makedirs(out_dir, exist_ok=True)
    writes = [(f"{name}.json", _write_json, (result,))] + [
        (f"{tname}.csv", _write_csv, table) for tname, table in (tables or {}).items()]
    for fname, write, args in writes:
        path = os.path.join(out_dir, fname)
        try:
            write(path, *args)
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc
    return [fname for fname, _, _ in writes]


# ---------------------------------------------------------------------------
# experiment kinds

def _run_exact_km(params, cfg):
    rep = lattice_exact.exact_km_check(cfg, params["n"])
    return {"km": rep.to_dict()}, {}, {"km_identity": rep.passed}


def _run_exact_reflect(params, cfg):
    n, l = params["n"], params["l"]
    ls = [l] if l is not None else list(range(1, n + 1))
    reps = lattice_exact.exact_reflection_check(cfg, n, ls)
    reports = {f"l={l}": rep.to_dict() for l, rep in zip(ls, reps)}
    checks = {f"reflection_l{l}": rep.passed for l, rep in zip(ls, reps)}
    return {"reflection": reports}, {}, checks


def _run_exact_v(params, cfg):
    n = params["n"]
    # one forward pass to n + 1 gives V_1..V_n and the V_{n+1}(x) of the harmonicity check
    v_start = lattice_exact.exact_vn(cfg, n + 1)
    vs = v_start[:n]
    mart = lattice_exact.exact_martingale_check(cfg, n)
    harm = lattice_exact.exact_harmonicity_check(cfg, n, v_start)
    positive = all(v > 0 for v in vs)
    rows = [(i + 1, v, float(v)) for i, v in enumerate(vs)]
    return (
        {"v_values": {str(i + 1): v for i, v in enumerate(vs)},
         "martingale": mart.to_dict(),
         "harmonicity": harm.to_dict(),
         "positivity": positive},
        {"v_exact": (("n", "v_exact", "v_float"), rows)},
        {"martingale": mart.passed, "harmonicity": harm.passed,
         "positivity": positive},
    )


_Oracle = namedtuple("_Oracle", "survival vn alive rejection transformed")


def _oracle(cfg):
    """The exact values a Monte Carlo run of `cfg` can gate on: each field a
    function that computes them when a runner asks, or None where none exists.
    Every DP is looked up on its module at call time, where wrappers go."""
    dist, x = cfg.dist, cfg.start
    packed = dist.kind == "rademacher" and all(b - a == 1 for a, b in zip(x, x[1:]))
    # [(n, P(tau > n))] by the star formula, before any DP
    star = (lambda ns: lattice_exact.star_survival(cfg.k, ns)) if packed else None
    if cfg.k != 2 or not dist.is_lattice:
        return _Oracle(star, None, None, None, None)
    gap = int(x[1] - x[0])  # Delta(x); every other value is the k=2 gap DP's
    return _Oracle(
        survival=star or (lambda ns: lattice_exact.gap_chain_survival(dist, gap, ns)),
        # [(n, V_n, the sd of Delta(X(tau)) 1{tau <= n})]
        vn=lambda ns: [(n, gap - p.stopped,
                        math.sqrt(max(p.stopped_sq - p.stopped * p.stopped, 0.0)))
                       for n, p in lattice_exact._gap_chain_dp(dist, gap, ns).items()],
        alive=lambda n: lattice_exact._gap_chain_dp(dist, gap, [n])[n],  # its pass at n
        # the law of the gap at t given tau > m
        rejection=lambda t, m: transform._rejection_gap_law(dist, gap, t, m),
        # the h-transformed gap's law and the extent of its DP
        transformed=(lambda n: transform._transformed_gap_law(gap, n))
        if dist.kind == "rademacher" else None)


def _gate(estimate, target, se=0.0, z=0, allowance=0.0):
    """The one gate form: |estimate - target| <= z se + allowance."""
    return bool(abs(estimate - target) <= z * se + allowance)


def _trend(reports, key, threshold):
    """The one trend form over reports in horizon order: whether `key` falls at
    every horizon, and whether its last value is below `threshold`."""
    return (all(a[key] > b[key] for a, b in zip(reports, reports[1:])),
            reports[-1][key] < threshold)


def _run_estimate_v(params, cfg):
    paths = params["paths"]
    work = engine.WorkCounts()
    est = v_module.estimate_v(cfg, params["schedule"], paths, work=work)
    # the diagnostic column: each estimate's move from the previous horizon's
    prev = [math.nan] + [ci.mean for _, ci in est.per_horizon]
    rows = [(n, ci.mean, ci.stderr, abs(ci.mean - p)) for (n, ci), p in zip(est.per_horizon, prev)]
    result = {
        "x": list(cfg.start),
        "n_used": est.n_used,
        "value": est.value.mean,
        "stderr": est.value.stderr,
        "tail_diagnostic": est.tail_diagnostic,
        "converged": est.converged,
        "positive_at_4_stderr": est.value.mean > 4 * est.value.stderr,
        "work": asdict(work),
    }
    checks = {"positivity_4sigma": result["positive_at_4_stderr"]}
    if vn := _oracle(cfg).vn:
        # each estimate must fall within 4 exact standard errors of the exact
        # V_n, plus one path's exit, |Delta(X(tau))| / paths < width / paths:
        # when exits are rare a single one is many standard errors
        lat = cfg.dist.lattice
        width = lat.span * (len(lat.weights) - 1)
        exact = vn([n for n, _ in est.per_horizon])
        result["exact_v"] = [[n, v] for n, v, _ in exact]
        checks["exact_vn_4se"] = all(
            _gate(ci.mean, v, sd / math.sqrt(paths), 4, width / paths)
            for (_, ci), (_, v, sd) in zip(est.per_horizon, exact))
    return (result,
            {"v_estimates": (("n", "estimate", "stderr", "diagnostic"), rows)},
            checks)


def _run_tail(params, cfg):
    paths = params["paths"]
    work = engine.WorkCounts()
    surv = engine.batch_survival(cfg, params["horizons"], paths, work=work)
    fit = asymptotics.tail_fit(surv, sigma=math.sqrt(cfg.dist.variance))
    theory = -cfg.k * (cfg.k - 1) / 4.0
    result = {**asdict(fit), "theory_exponent": theory, "work": asdict(work)}
    rows = [(n, ci.mean, ci.stderr) for n, ci in surv]
    checks = {"exponent_within_tol": _gate(fit.exponent, theory,
                                           allowance=params["exponent_tol"])}
    if survival := _oracle(cfg).survival:
        # each estimate must fall within 4 binomial sd of the exact value,
        # plus one path: from a far start exits are rare, and a single one
        # is many sd
        exact = survival([n for n, _ in surv])
        result["exact_survival"] = [[n, p] for n, p in exact]
        checks["exact_within_4sd"] = all(
            _gate(ci.mean, p, math.sqrt(p * (1.0 - p) / paths), 4, 1.0 / paths)
            for (_, ci), (_, p) in zip(surv, exact))
    return (result, {"survival": (("n", "p_survive", "stderr"), rows)}, checks)


def _run_endpoint(params, cfg):
    n, target = params["n"], params["survivors"]
    max_attempts = params["max_attempts"] or 200 * target
    work = engine.WorkCounts()
    endpoints, rate = engine.conditioned_endpoints(cfg, n, target, max_attempts, work=work)
    sigma = math.sqrt(cfg.dist.variance)
    rep = asymptotics.endpoint_density_distance(endpoints, cfg.k, sigma=sigma)
    rep.update(acceptance_rate=rate, n=n, work=asdict(work))
    header = tuple(f"y{i + 1}" for i in range(cfg.k))
    # a k=2 gap's mean: the limit law's sqrt(pi) off the lattice, else the
    # exact finite-n mean of the conditioned gap; k=3 has neither
    mean = math.sqrt(math.pi) if cfg.k == 2 else None
    if alive := _oracle(cfg).alive:
        p = alive(n)
        (gaps, probs), rep["gap_dp"] = p.law(), p.extent()
        mean = float(gaps @ probs) / (math.sqrt(n) * sigma)
    checks = {} if mean is None else {"gap_mean_3sigma": _gate(
        rep["gap_mean"][0], mean, rep["gap_mean_stderr"][0], 3)}
    return (rep, {"endpoints": (header, endpoints)}, checks)


def _run_lclt(params, cfg):
    reports = [asymptotics.local_clt_deviation(cfg.dist, n) for n in params["horizons"]]
    threshold = params["threshold"]
    decreasing, final_ok = _trend(reports, "sup_deviation", threshold)
    rows = [(r["n"], r["sup_deviation"], r["argmax_site"], r["total_mass"])
            for r in reports]
    return ({"reports": reports, "decreasing": decreasing,
             "threshold": threshold, "final_below_threshold": final_ok},
            {"lclt": (("n", "sup_deviation", "argmax_site", "total_mass"), rows)},
            {"decreasing": decreasing, "final_below_threshold": final_ok})


def _run_transform(params, cfg):
    t_steps = params["t_steps"]
    work = engine.WorkCounts()
    result = transform.transform_paths_rejection(
        cfg, t_steps, params["paths"], guard_m=params["guard_m"], work=work)
    samples = result.pop("samples")
    header = tuple(f"x{i + 1}" for i in range(cfg.k))
    result["work"] = asdict(work)
    checks = {}
    if rejection := _oracle(cfg).rejection:
        # the exact mean of the gap at t_steps given survival to guard_m
        gaps, probs = rejection(t_steps, result["guard_m"])
        mean = float(gaps @ probs)
        sd = math.sqrt(max(float(gaps ** 2 @ probs) - mean ** 2, 0.0))
        se = sd / math.sqrt(len(samples))
        gap_mean = float(np.diff(samples, axis=1).mean())
        result.update(gap_mean=gap_mean, exact_gap_mean=mean, gap_mean_stderr=se)
        checks["gap_mean_4se"] = _gate(gap_mean, mean, se, 4)
    return (result, {"transform_samples": (header, samples)}, checks)


def _run_hermite(params, cfg):
    n = params["n"]
    y = transform.transformed_pair_paths(cfg.start, n, params["paths"],
                                         master_seed=cfg.master_seed)
    rep = transform.hermite_distance(y / math.sqrt(n), 2)
    rep["n"] = n
    gaps, probs, rep["gap_dp"] = _oracle(cfg).transformed(n)
    x = gaps / math.sqrt(n)
    rep["exact_gap_tv"] = transform.gap_law_tv(x, probs)
    # the exact finite-n E[g^2]/n of the transformed chain, not its limit 6
    m2_ok = _gate(rep["gap_sq_mean"][0], float(x ** 2 @ probs), rep["gap_sq_stderr"][0], 3)
    return (rep, {}, {"gap_sq_mean_3sigma": m2_ok})


def _run_dyson(params, cfg):
    reports = [transform.dyson_compare(tuple(params["x_unit"]), params["t"], n,
                                       params["paths"], master_seed=cfg.master_seed)
               for n in params["horizons"]]
    decreasing, final_ok = _trend(reports, "tv", params["tv_threshold"])
    rows = [(r["n"], r["tv"], r["ks"], r["gap_mean"]) for r in reports]
    return ({"reports": reports, "decreasing": decreasing,
             "final_below_threshold": final_ok},
            {"dyson": (("n", "tv", "ks", "gap_mean"), rows)},
            {"tv_decreasing": decreasing, "final_below_threshold": final_ok})


# every run kind, in the order `validate` lists them: its runner; the params it
# reads, with their defaults (None is worked out by the runner: l, every exit
# time 1..n; max_attempts, 200 per survivor; guard_m, `transform._guard_horizon`);
# the law it needs (`_law_error`); and its rule, run on the walk and the params
# once each passed its own check: why the params disagree, or why the walk may
# pass int64 within the steps it walks (hermite: its float64 pairs), or None
_Kind = namedtuple("_Kind", "run params law rule")
_KINDS = {
    "exact-km": _Kind(_run_exact_km, {"n": 6}, "lattice", lambda c, p: int64_error(c, p["n"])),
    "exact-reflect": _Kind(_run_exact_reflect, {"n": 4, "l": None}, "lattice", lambda c, p: (
        f"params.l must lie in 1..n = 1..{p['n']}, got {p['l']}"
        if p["l"] is not None and not 1 <= p["l"] <= p["n"] else int64_error(c, p["n"]))),
    "exact-v": _Kind(_run_exact_v, {"n": 6}, "lattice", lambda c, p: int64_error(c, p["n"] + 1)),
    "estimate-v": _Kind(_run_estimate_v, {"schedule": [16, 32, 64, 128], "paths": 100000},
                        None, lambda c, p: int64_error(c, max(p["schedule"]))),
    "tail": _Kind(_run_tail, {"horizons": [64, 128, 256, 512, 1024, 2048, 4096],
                              "paths": 1000000, "exponent_tol": 0.15},
                  None, lambda c, p: int64_error(c, max(p["horizons"]))),
    "endpoint": _Kind(_run_endpoint, {"n": 1024, "survivors": 20000, "max_attempts": None},
                      "k <= 3", lambda c, p: int64_error(c, p["n"])),
    "lclt": _Kind(_run_lclt, {"horizons": [256, 4096], "threshold": 0.01}, "lattice on span Z",
                  lambda c, p: (
        f"params.horizons must list horizons >= 2 for kind lclt, got {p['horizons']!r}"
        if min(p["horizons"]) < 2 else int64_error(c, max(p["horizons"])))),
    "transform": _Kind(_run_transform, {"t_steps": 16, "paths": 2000, "guard_m": None}, None,
                       lambda c, p: (
        f"params.guard_m must be >= t_steps = {p['t_steps']}, got {p['guard_m']}"
        if p["guard_m"] is not None and p["guard_m"] < p["t_steps"]
        else int64_error(c, 2 * transform._guard_horizon(p["t_steps"], p["guard_m"])))),
    "hermite": _Kind(_run_hermite, {"n": 4096, "paths": 20000}, "k=2 rademacher",
                     lambda c, p: transform._pair_bound_error(c.start, p["n"])),
    # the transformed chain runs floor(t n) steps at horizon n; it reads no start
    "dyson-compare": _Kind(_run_dyson, {"t": 1.0, "horizons": [256, 1024], "paths": 50000,
                                        "x_unit": [0, 1], "tv_threshold": 0.05},
                           "k=2 rademacher", lambda c, p: (
        f"params.t = {p['t']} runs no step (floor(t n) = 0) at horizons "
        f"{[n for n in p['horizons'] if int(p['t'] * n) < 1]}"
        if int(p["t"] * min(p["horizons"])) < 1 else None)),
}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def run_experiment(spec: ExperimentSpec, out_dir=None):
    """Run one experiment; returns (manifest, exit_code).

    The spec checked itself when it was built, so nothing here refuses its
    contents. Exit code 0: every asserted check passed. 1: a check failed or
    a module raised. 2: an infeasible rejection budget, or partial results,
    whose samples are written to partial_<kind>.csv.
    """
    out = out_dir or spec.out
    os.makedirs(out, exist_ok=True)
    name = spec.kind.replace("-", "_")
    t0 = time.monotonic()
    checks, files, error, code, work = {}, [], None, 0, None
    try:
        cfg = spec.walk_config()
        record = _KINDS[spec.kind]
        result, tables, checks = record.run({**record.params, **spec.params}, cfg)
        work = result.get("work")
        files = emit_report(out, name, result, tables)
    except (FeasibilityError, PartialResultError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        code = 2
        if getattr(exc, "endpoints", None) is not None:
            # keep what the run collected before it fell short
            files = [f"partial_{name}.csv"]
            _write_csv(os.path.join(out, files[0]),
                       [f"y{i + 1}" for i in range(spec.k)], exc.endpoints)
    except Exception as exc:  # surfaced in the manifest, nonzero exit
        error = f"{type(exc).__name__}: {exc}"
        code = 1
    wall = time.monotonic() - t0
    passed = code == 0 and all(checks.values())
    if code == 0 and not passed:
        code = 1

    summary_lines = [f"{spec.kind}: {'PASS' if passed else 'FAIL'}"] + [
        f"  {cname}: {'pass' if ok else 'FAIL'}" for cname, ok in sorted(checks.items())]
    if error:
        summary_lines.append(f"  error: {error}")
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write("\n".join(summary_lines) + "\n")
    files.append("summary.txt")

    manifest = RunManifest(spec=_spec_doc(spec), version=__version__, checks=checks,
                           files={f: _sha256(os.path.join(out, f)) for f in files},
                           passed=passed, error=error)
    _write_json(os.path.join(out, "manifest.json"), asdict(manifest))
    # wall-clock isolated from the deterministic outputs; a Monte Carlo run
    # adds its path-steps per second of the run's wall time
    timing = {"wall_seconds": wall}
    if work is not None and wall > 0:
        timing["path_steps_per_s"] = work["path_steps"] / wall
    _write_json(os.path.join(out, "timing.json"), timing)
    return manifest, code


# ---------------------------------------------------------------------------
# command line

def _load_spec_file(path, seed=None, out=None):
    with open(path) as fh:
        spec = validate_spec(fh.read())
    # a changed spec checks itself again as it is built
    overrides = {key: val for key, val in {"seed": seed, "out": out}.items() if val is not None}
    return replace(spec, **overrides) if overrides else spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ordwalk",
        description="ordered random walks: exact identities and limit laws")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment spec")
    p_run.add_argument("spec_file")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)

    p_val = sub.add_parser("validate", help="check a spec without running it")
    p_val.add_argument("spec_file")
    p_val.set_defaults(seed=None, out=None)

    p_suite = sub.add_parser("suite", help="run every spec in a directory")
    p_suite.add_argument("spec_dir")
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)

    if args.command in ("validate", "run"):
        try:
            spec = _load_spec_file(args.spec_file, args.seed, args.out)
        except SpecError as exc:
            for err in exc.errors:
                print(f"error: {err}", file=sys.stderr)
            return 1
        if args.command == "validate":
            print(f"ok: {spec.kind} (k={spec.k}, dist={spec.dist_kind})")
            return 0
        manifest, code = run_experiment(spec)
        with open(os.path.join(spec.out, "summary.txt")) as fh:
            print(fh.read(), end="")
        return code

    # suite
    spec_files = sorted(
        os.path.join(args.spec_dir, f) for f in os.listdir(args.spec_dir)
        if f.endswith((".yaml", ".yml", ".json")))
    if not spec_files:
        print(f"no spec files in {args.spec_dir}", file=sys.stderr)
        return 1
    worst = 0
    for path in spec_files:
        try:
            spec = _load_spec_file(path, args.seed, None)
        except SpecError as exc:
            print(f"{os.path.basename(path)}: INVALID ({exc.errors[0]})")
            worst = max(worst, 1)
            continue
        sub_out = os.path.join(args.out or "suite-results",
                               os.path.splitext(os.path.basename(path))[0])
        manifest, code = run_experiment(spec, out_dir=sub_out)
        status = "PASS" if manifest.passed else (
            "REFUSED" if code == 2 else "FAIL")
        print(f"{os.path.basename(path)}: {status}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
