"""The benchmark's tracer hooks into names of the package; they must exist.

`bench/spans.py` wraps entry points such as `lattice_exact.exact_d_matrix`
and the `exact_det` name that `lattice_exact` imports. A renamed hook would
otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from ordwalk import lattice_exact
from ordwalk.distributions import make_distribution
from ordwalk.engine import WalkConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_spans().Tracer()
    try:
        tracer.install()  # AttributeError if a hooked name is gone
        hooks = list(tracer._originals)
        assert hooks
        assert all(getattr(owner, attr) is not original for owner, attr, original in hooks)
        cfg = WalkConfig(k=2, start=(0, 1), dist=make_distribution("rademacher"))
        assert lattice_exact.exact_km_check(cfg, 3).passed  # through the wrapper
        assert tracer.self_s["lattice_exact.identity"] > 0
        assert tracer.counts["lattice_exact.cell_steps"] > 0
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in hooks)
