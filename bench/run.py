"""ordwalk benchmark: time each workload end to end, trace its layers, check it.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all`, which runs each in a
fresh process of its own. A run imports ordwalk from `src/` of the checkout,
validates the workload's specs with `cli.validate_spec` and runs them with
`cli.run_experiment`, the path `ordwalk run` takes. It repeats whole passes
over the workload for about S seconds (at least 3 passes without --trace)
and reports medians over passes.

With --trace 0 the result line holds the end-to-end metrics: `setup_s`, the
median over 3 fresh processes of importing ordwalk and validating the specs;
`wall_ref`, one pass with each item's wall time divided by the time of a
fixed reference computation run just before and after it (see reference_s);
and `peak_rss_mb`. The host's speed drifts, so `setup_s` is scaled the same
way and reported in seconds at REFERENCE_NOMINAL_S per reference run; the
unscaled set-up and pass times are printed beside the metrics.
With --trace 1 the run alternates plain passes with passes traced by
spans.py and reports per-layer metrics, the per-kind run times of the plain
passes, and the tracing overhead: the median traced pass minus the median
plain pass, in seconds.

Every pass uses the same spec seeds, so every pass must write byte-identical
result files. After the passes, oracles.py checks the outputs against exact
values. A run counts as failed operations: items that raise or are refused,
digest mismatches between passes, counters that differ between traced
passes, and oracle misses. A spec's own pass/fail verdicts are printed but
not counted, because a legitimate change of the random stream can flip a
3-sigma verdict.

Known spec gates that fail on correct samples: the k=2 `endpoint` gate
compares the gap mean with sqrt(pi) = 1.77245 instead of the exact finite-n
mean (1.742285 at n=1024), a bias of about 4.6 standard errors at the spec
defaults; the `hermite` gate compares E[g^2]/n with 6 instead of the exact
5.93069 at n=4096; and the k=3 `tail` exponent gate is underpowered at 2^19
paths.

Each run is isolated from machine state: ordwalk reads its constants cache
from XDG_CACHE_HOME at import, so the run points it at a fresh empty
directory inside a scratch directory in the checkout, and deletes the cache
file before every pass so K and Z1 are computed by quadrature each time.
ORDWALK_THREADS is unset, BLAS runs single-threaded, and all outputs go to
the scratch directory, which is removed at exit.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import GAP_SURVIVAL, TIMED_KINDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
MIN_PLAIN_PASSES = 3  # so the end-to-end medians are over at least 3 passes
# reference_s() on the 2-vCPU Xeon VM the workload sizes were set on; set-up
# times are reported as seconds on a host where the reference takes this long.
REFERENCE_NOMINAL_S = 0.1


def _isolate_environment(scratch: Path):
    """Environment for this process and its children; set before any import."""
    cache = scratch / "xdg-cache"
    cache.mkdir()
    os.environ["XDG_CACHE_HOME"] = str(cache)
    os.environ.pop("ORDWALK_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return cache / "ordwalk" / "constants.json"


def _item_seed(seed, index):
    return seed * 100 + index


def measure_setup(items, seed, scratch):
    """Fresh-process set-up times (import ordwalk, validate the specs): the
    median in raw seconds, and the median of each time scaled by the
    reference computation timed just before and after it."""
    specs = scratch / "specs.json"
    specs.write_text(json.dumps([it.spec_text(_item_seed(seed, i))
                                 for i, it in enumerate(items)
                                 if it.kind != GAP_SURVIVAL]))
    raw, scaled = [], []
    ref_before = reference_s()
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(specs)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        ref_after = reference_s()
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * REFERENCE_NOMINAL_S / ((ref_before + ref_after) / 2.0))
        ref_before = ref_after
    return statistics.median(raw), statistics.median(scaled)


def reference_s():
    """Seconds taken by a fixed computation that does not use ordwalk.

    It mixes the operations the program spends its time in: Philox integer
    draws on a (16384, 3) array with an order test, and Fraction sums. Its
    time tracks the speed of the host at that moment.
    """
    import numpy as np  # after the environment is isolated

    t0 = perf_counter()
    rng = np.random.Generator(np.random.Philox(7))
    pos = np.zeros((1 << 14, 3), dtype=np.int64)
    for _ in range(80):
        pos += rng.integers(-1, 2, size=pos.shape)
        np.any(np.diff(pos, axis=1) <= 0, axis=1)
    total = Fraction(0)
    for i in range(1, 2500):
        total += Fraction(1, i)
    return perf_counter() - t0


@dataclass
class Pass:
    wall_s: float  # sum of the items' wall times
    wall_ref: float  # sum of each item's time over the reference time around it
    ref_s: list
    run_s: dict
    digests: dict
    outputs: dict
    verdicts: dict
    errors: list
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def _digest(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def run_pass(items, seed, pass_dir, constants_cache):
    """One closed-loop pass over the items; returns timings and outputs.

    The reference computation runs before the first item and after every
    item, outside the items' timings. Dividing each item's time by the mean
    of the two reference times around it cancels most of the host's speed
    drift, which on a shared 2-vCPU VM reaches +-20% over tens of seconds.
    """
    from ordwalk import cli, lattice_exact
    from ordwalk.distributions import make_distribution

    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    if constants_cache.exists():
        constants_cache.unlink()
    gc.collect()
    p = Pass(0.0, 0.0, [reference_s()], defaultdict(float), {}, {}, {}, [])
    for i, item in enumerate(items):
        seconds = None
        try:
            if item.kind == GAP_SURVIVAL:
                t0 = perf_counter()
                result = lattice_exact.gap_chain_survival(
                    make_distribution("rademacher"), item.params["start_gap"],
                    item.params["horizons"])
                seconds = perf_counter() - t0
                p.outputs[item.name] = result
                p.digests[item.name] = _digest(result)
            else:
                spec = cli.validate_spec(item.spec_text(_item_seed(seed, i)))
                out = pass_dir / f"{i:02d}-{item.name}"
                t0 = perf_counter()
                manifest, _ = cli.run_experiment(spec, out_dir=str(out))
                seconds = perf_counter() - t0
                p.outputs[item.name] = str(out)
                p.digests[item.name] = manifest.files
                p.verdicts[item.name] = manifest.checks
                if manifest.error is not None:
                    p.errors.append(f"{item.name}: {manifest.error}")
        except Exception as exc:  # an operation failed; the run goes on
            p.errors.append(f"{item.name}: {type(exc).__name__}: {exc}")
        p.ref_s.append(reference_s())
        if seconds is not None:
            p.run_s[item.kind] += seconds
            p.wall_s += seconds
            p.wall_ref += seconds / ((p.ref_s[-2] + p.ref_s[-1]) / 2.0)
    p.run_s = dict(p.run_s)
    return p


def run_passes(items, seed, seconds, scratch, constants_cache, trace):
    """Passes that fit in `seconds`: one more starts only if, at the mean
    pass time so far, it would end in time. Without trace there are at least
    MIN_PLAIN_PASSES passes; with trace, plain and traced passes alternate
    and there is at least one of each."""
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    plain, traced = [], []
    t_start = perf_counter()
    while True:
        if not trace or len(plain) <= len(traced):
            plain.append(run_pass(items, seed, scratch / "pass", constants_cache))
        else:
            tracer.reset()
            tracer.install()
            try:
                p = run_pass(items, seed, scratch / "pass", constants_cache)
            finally:
                tracer.uninstall()
            p.layers = tracer.layer_metrics(sum(it.kind == "estimate-v" for it in items))
            p.counts = dict(tracer.counts)  # must repeat exactly across passes
            traced.append(p)
        elapsed = perf_counter() - t_start
        done = len(plain) + len(traced)
        enough = traced if trace else len(plain) >= MIN_PLAIN_PASSES
        if enough and elapsed * (done + 1) / done > seconds:
            return plain, traced


def consistency_checks(plain, traced):
    """(name, ok) per comparison: digests against the first pass, and the
    exact counters of each traced pass against the first traced pass."""
    first = plain[0]
    rows = []
    for n, p in enumerate(plain[1:] + traced, start=1):
        for name, digest in first.digests.items():
            rows.append((f"pass {n} {name}: result digests equal pass 0",
                         p.digests.get(name) == digest))
    for n, p in enumerate(traced[1:], start=1):
        rows.append((f"traced pass {n}: exact counters equal traced pass 0",
                     p.counts == traced[0].counts))
    return rows


def environment_line():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def run_workload(name, seed, seconds, trace, scratch, constants_cache):
    import oracles

    items = WORKLOADS[name]
    setup_raw_s, setup_s = (None, None) if trace else measure_setup(items, seed, scratch)
    plain, traced = run_passes(items, seed, seconds, scratch, constants_cache, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    every = plain + traced
    last = every[-1]

    print(f"# environment: {environment_line()}")
    print(f"# workload {name}, seed {seed}: closed loop, 1 client, single-threaded; "
          f"{len(plain)} plain and {len(traced)} traced passes of {len(items)} items")
    for n, p in enumerate(every):
        label = "traced" if p.layers else "plain"
        kinds = " ".join(f"{k}={s:.4f}" for k, s in p.run_s.items())
        print(f"# pass {n} {label}: wall={p.wall_s:.4f} s wall_ref={p.wall_ref:.2f} "
              f"reference={statistics.median(p.ref_s):.4f} s; {kinds}")
    errors = [e for p in every for e in p.errors]
    for e in errors:
        print(f"# error: {e}")

    for item in items:
        verdicts = last.verdicts.get(item.name, {})
        text = " ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in sorted(verdicts.items()))
        print(f"# spec verdicts (not counted) {item.name}: {text or '-'}")

    checks = []
    for item in items:
        if item.name not in last.outputs:
            continue
        try:
            checks.extend(oracles.check_item(item, last.outputs[item.name]))
        except Exception as exc:  # unreadable output is a miss, not a crash
            checks.append(oracles.Check(f"{item.name}: oracle", False,
                                        f"{type(exc).__name__}: {exc}"))
    for k in sorted({it.walk["k"] for it in items if it.kind == "endpoint"}):
        checks.extend(oracles.check_constants(k, str(scratch)))
    for c in checks:
        print(f"# oracle {'ok' if c.ok else 'MISS'} {c.name}: {c.detail}")
    consistency = consistency_checks(plain, traced)
    for label, ok in consistency:
        if not ok:
            print(f"# determinism MISMATCH {label}")

    attempted = (len(every) * len(items) + len(checks) + len(consistency))
    failed = (len(errors) + sum(not c.ok for c in checks)
              + sum(not ok for _, ok in consistency))
    print(f"# operations: attempted={attempted} failed={failed} "
          f"failed_share={failed / attempted:.6g} "
          f"({len(checks)} oracle checks, {len(consistency)} determinism checks)")

    plain_wall_s = statistics.median(p.wall_s for p in plain)
    if trace:
        import spans

        metrics = {m: (statistics.median(p.layers[m] for p in traced), spans.unit_of(m))
                   for m in traced[0].layers}
        for kind in TIMED_KINDS:
            metrics[f"cli.run_s.{kind}"] = (
                statistics.median(p.run_s.get(kind, 0.0) for p in plain), "s")
        metrics["trace.plain_wall_s"] = (plain_wall_s, "s")
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - plain_wall_s, "s")
    else:
        print(f"# not scaled by the reference: setup {setup_raw_s:.6g} s, "
              f"pass wall_s {plain_wall_s:.6g} s")
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_ref": (statistics.median(p.wall_ref for p in plain), "ref"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    for m, (value, unit) in metrics.items():
        print(f"# metric {m} = {value:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in a fresh process; one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            total["metrics"][f"{name}.{m}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "ordwalk" / "__init__.py").is_file():
        print(f"error: no ordwalk sources under {SRC}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the scratch directory is removed
    # and a running set-up probe is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    scratch = Path(tempfile.mkdtemp(prefix=".bench-scratch-", dir=ROOT))
    try:
        constants_cache = _isolate_environment(scratch)
        sys.path.insert(0, str(SRC))
        import ordwalk

        if Path(ordwalk.__file__).resolve().parent != (SRC / "ordwalk").resolve():
            print(f"error: imported ordwalk from {ordwalk.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              scratch, constants_cache)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
