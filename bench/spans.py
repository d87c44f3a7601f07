"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` replaces each layer's entry points with wrappers that time
the call and count its work, and `uninstall()` puts the originals back. Where
the work sits behind a private function (`engine._simulate_block`,
`lattice_exact._forward_tables`, `lattice_exact._gap_chain_dp`), the wrapper
goes there. A wrapper is installed on the module attribute that callers look
up, so calls from inside the module are caught as well.

Times are self times: a span's duration minus the part covered by the spans
it caused. Counts are exact and deterministic for a given seed. Nothing is
kept per call; spans are summed by name as they close.

The end-to-end metric each layer should move, and where:
  distributions.*, engine.*   cli.run_s.{tail,estimate-v,endpoint} on mc_paths
  v_module.*                  cli.run_s.estimate-v on mc_paths
  lattice_exact.forward/identity/det_calls, geometry.*
                              cli.run_s.{exact-km,exact-reflect} on exact_dp
  lattice_exact.gap_*         cli.run_s.gap-survival on exact_dp
  asymptotics.constants/report/quad_calls
                              cli.run_s.endpoint on limit_laws, not mc_paths
  asymptotics.fit_s           cli.run_s.tail (tiny)
  transform.chain/report      cli.run_s.{hermite,dyson-compare} on limit_laws
  transform.reject            wall_s on limit_laws
  cli.validate_s              setup_s
  cli.emit/bytes/manifest     cli.run_s.endpoint on mc_paths
Each cli.run_s.<kind> in turn moves wall_s of the same workload.
"""

import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from ordwalk import asymptotics, cli, distributions, engine, lattice_exact, transform, v_module


class _CountingIntegrate:
    """scipy.integrate seen by asymptotics, with `quad` calls counted."""

    def __init__(self, module, counts):
        self._module = module
        self._counts = counts

    def quad(self, *args, **kwargs):
        self._counts["asymptotics.quad_calls"] += 1
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # child seconds of each open span
        self._originals = []

    def reset(self):
        self.self_s.clear()
        self.counts.clear()

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(result, args, kwargs) adds its work counts."""
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur
            if count is not None:
                count(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def install(self):
        c = self.counts
        span, counter, patch = self.span, self.counter, self._patch

        def draws(result, args, kwargs):
            c["distributions.draws"] += int(np.size(result))

        def simulated(result, args, kwargs):
            tau = result[0]
            horizon = args[1]
            c["engine.path_steps"] += int(np.minimum(tau, horizon).sum())
            c["engine.paths"] += tau.size
            c["engine.survivors"] += int((tau > horizon).sum())

        def vn_pass(result, args, kwargs):
            c["v_module.sim_passes"] += 1

        def forward(result, args, kwargs):
            survival, _ = result
            cfg = args[0]
            steps = len(cfg.dist.masses) ** cfg.k
            c["lattice_exact.cell_steps"] += steps * sum(len(t) for t in survival[:-1])

        def gap_cells(dist, start_gap, n):
            offsets, _ = lattice_exact._gap_step_law(dist)
            return n * (start_gap + n * int(offsets.max()) + 1)

        def gap_dp(result, args, kwargs):
            c["lattice_exact.gap_cell_steps"] += gap_cells(args[0], args[1], max(result))

        def gap_alive(result, args, kwargs):
            c["lattice_exact.gap_cell_steps"] += gap_cells(*args[:3])

        def chain(result, args, kwargs):
            c["transform.chain_steps"] += args[1] * args[2]

        def rejection(result, args, kwargs):
            c["transform.reject_calls"] += 1
            c["transform.reject_accept_sum"] += result["acceptance_rate"]

        def emitted(result, args, kwargs):
            out_dir = args[0]
            c["cli.bytes_written"] += sum(
                os.path.getsize(os.path.join(out_dir, f)) for f in result)

        patch(distributions.StepDistribution, "sample_array",
              lambda f: span("distributions.sample", f, draws))
        patch(engine, "_simulate_block", lambda f: span("engine.simulate", f, simulated))
        patch(v_module, "_vn_over_schedule", lambda f: span("v_module.estimate", f, vn_pass))
        patch(v_module, "estimate_v", lambda f: span("v_module.estimate", f))
        patch(lattice_exact, "_forward_tables",
              lambda f: span("lattice_exact.forward", f, forward))
        for name in ("exact_km_check", "exact_reflection_check", "exact_vn",
                     "exact_martingale_check", "exact_harmonicity_check"):
            patch(lattice_exact, name, lambda f: span("lattice_exact.identity", f))
        patch(lattice_exact, "exact_d_matrix",
              lambda f: counter("lattice_exact.det_calls", f))
        # lattice_exact calls geometry's determinant through its own imported
        # name; wrapping geometry.exact_det itself would also count the
        # recursive minors of each cofactor expansion.
        patch(lattice_exact, "exact_det",
              lambda f: counter("geometry.exact_det_calls", span("geometry.exact_det", f)))
        patch(lattice_exact, "_gap_chain_dp", lambda f: span("lattice_exact.gap_dp", f, gap_dp))
        patch(lattice_exact, "gap_chain_alive_distribution",
              lambda f: span("lattice_exact.gap_dp", f, gap_alive))
        patch(asymptotics, "_constants", lambda f: span("asymptotics.constants", f))
        patch(asymptotics, "integrate", lambda m: _CountingIntegrate(m, c))
        for name in ("endpoint_density_distance", "local_clt_deviation"):
            patch(asymptotics, name, lambda f: span("asymptotics.report", f))
        patch(asymptotics, "tail_fit", lambda f: span("asymptotics.fit", f))
        for name in ("transformed_pair_paths", "transformed_gap_paths"):
            patch(transform, name, lambda f: span("transform.chain", f, chain))
        for name in ("hermite_distance", "hermite_gap_tv_exact", "dyson_compare"):
            patch(transform, name, lambda f: span("transform.report", f))
        patch(transform, "transform_paths_rejection",
              lambda f: span("transform.reject", f, rejection))
        patch(cli, "validate_spec", lambda f: span("cli.validate", f))
        patch(cli, "emit_report", lambda f: span("cli.emit", f, emitted))
        patch(cli, "_sha256", lambda f: span("cli.manifest", f))

    def layer_metrics(self, estimate_v_runs):
        """Per-layer metrics of one pass, from its self times and counts."""
        t, c = self.self_s, self.counts

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "distributions.sample_s": t["distributions.sample"],
            "distributions.draws": c["distributions.draws"],
            "distributions.draws_per_s": rate(c["distributions.draws"],
                                              t["distributions.sample"]),
            "engine.simulate_s": t["engine.simulate"],
            "engine.path_steps": c["engine.path_steps"],
            "engine.path_steps_per_s": rate(c["engine.path_steps"], t["engine.simulate"]),
            "engine.accept_ratio": ratio(c["engine.survivors"], c["engine.paths"]),
            "v_module.estimate_s": t["v_module.estimate"],
            "v_module.sim_passes": ratio(c["v_module.sim_passes"], estimate_v_runs),
            "lattice_exact.forward_s": t["lattice_exact.forward"],
            "lattice_exact.cell_steps": c["lattice_exact.cell_steps"],
            "lattice_exact.cell_steps_per_s": rate(c["lattice_exact.cell_steps"],
                                                   t["lattice_exact.forward"]),
            "lattice_exact.identity_s": t["lattice_exact.identity"],
            "lattice_exact.det_calls": c["lattice_exact.det_calls"],
            "geometry.exact_det_s": t["geometry.exact_det"],
            "geometry.exact_det_calls": c["geometry.exact_det_calls"],
            "lattice_exact.gap_dp_s": t["lattice_exact.gap_dp"],
            "lattice_exact.gap_cell_steps": c["lattice_exact.gap_cell_steps"],
            "lattice_exact.gap_cell_steps_per_s": rate(c["lattice_exact.gap_cell_steps"],
                                                       t["lattice_exact.gap_dp"]),
            "asymptotics.constants_s": t["asymptotics.constants"],
            "asymptotics.report_s": t["asymptotics.report"],
            "asymptotics.quad_calls": c["asymptotics.quad_calls"],
            "asymptotics.fit_s": t["asymptotics.fit"],
            "transform.chain_s": t["transform.chain"],
            "transform.chain_steps": c["transform.chain_steps"],
            "transform.chain_steps_per_s": rate(c["transform.chain_steps"],
                                                t["transform.chain"]),
            "transform.report_s": t["transform.report"],
            "transform.reject_s": t["transform.reject"],
            "transform.reject_accept_ratio": ratio(c["transform.reject_accept_sum"],
                                                   c["transform.reject_calls"]),
            "cli.validate_s": t["cli.validate"],
            "cli.emit_s": t["cli.emit"],
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.manifest_s": t["cli.manifest"],
        }


def unit_of(metric):
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "B"
    return "count"
