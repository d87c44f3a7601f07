"""Workload definitions: the specs each workload runs, in pass order.

Every workload is one closed loop with a single client: items run one after
another, each waiting for the previous one, in one single-threaded process.
The workload seed reaches the program only as each spec's `seed`.

The three workloads stress different layers, so that a change to one layer
has a workload that exercises it and others that bypass it. Each workload
also runs a small *probe* of every kind it lacks among TIMED_KINDS and
`transform`, so that every layer does some work on every workload and no
per-layer time reads 0 by construction. Probes take a few percent of a pass.
"""

import json
from dataclasses import dataclass, field

# Sizes are set so one pass takes about 4 s (mc_paths), 7 s (exact_dp) or
# 10 s (limit_laws) on a 2-vCPU Xeon VM; a run repeats passes for --seconds.


@dataclass(frozen=True)
class Item:
    """One operation of a pass: an `ordwalk run` spec or a direct DP call."""

    name: str
    kind: str
    walk: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def spec_text(self, seed: int) -> str:
        """The spec document for this item (JSON, which `validate_spec` accepts)."""
        return json.dumps({"kind": self.kind, "walk": self.walk, "seed": seed,
                           "params": self.params})


def _walk(k, dist="rademacher", start=None):
    return {"k": k, "start": list(start if start is not None else range(k)),
            "dist": dist}


def _pow2(lo, hi):
    return [1 << j for j in range(lo, hi + 1)]


# `gap-survival` has no `ordwalk run` kind: it is a direct call of
# lattice_exact.gap_chain_survival(rademacher, start_gap, horizons), the
# float64 gap DP that backs the k=2 half of the survival criterion.
GAP_SURVIVAL = "gap-survival"

# Kinds whose run time each pass reports as cli.run_s.<kind>; exact-v, lclt
# and transform take under half a second and count only in wall_s.
TIMED_KINDS = ("tail", "estimate-v", "endpoint", "exact-km", "exact-reflect",
               GAP_SURVIVAL, "hermite", "dyson-compare")

_PROBES = (
    Item("tail_probe", "tail", _walk(2), {"horizons": [16, 64, 256], "paths": 1 << 15}),
    Item("estimate_v_probe", "estimate-v", _walk(2, "gaussian", [0.0, 1.0]),
         {"schedule": [16, 32, 64], "paths": 1 << 15}),
    Item("endpoint_probe", "endpoint", _walk(2), {"n": 64, "survivors": 2000}),
    Item("exact_km_probe", "exact-km", _walk(2), {"n": 6}),
    Item("exact_reflect_probe", "exact-reflect", _walk(2), {"n": 4}),
    Item("gap_survival_probe", GAP_SURVIVAL,
         params={"start_gap": 1, "horizons": [16] + _pow2(6, 10)}),
    Item("hermite_probe", "hermite", _walk(2), {"n": 256, "paths": 4000}),
    Item("dyson_probe", "dyson-compare", _walk(2), {"horizons": [64, 256], "paths": 4000}),
    Item("transform_probe", "transform", _walk(2), {"t_steps": 4, "paths": 500}),
)


def _with_probes(*items):
    own = {item.kind for item in items}
    return items + tuple(p for p in _PROBES if p.kind not in own)


WORKLOADS = {
    # Monte Carlo through engine and distributions, four ways: a k=3 batch
    # whose alive set shrinks to nothing by about step 1300; a k=2 batch whose
    # survivors keep the arrays large; the continuous-law sampler with V's
    # double simulation; and sequential rejection at about 3.5% acceptance
    # with a large CSV.
    "mc_paths": _with_probes(
        Item("tail_k3", "tail", _walk(3),
             {"horizons": [16] + _pow2(6, 12), "paths": 1 << 17}),
        Item("tail_k2", "tail", _walk(2),
             {"horizons": [16] + _pow2(6, 10), "paths": 1 << 16}),
        Item("estimate_v_gauss", "estimate-v", _walk(2, "gaussian", [0.0, 1.0]),
             {"schedule": _pow2(4, 8), "paths": 1 << 16}),
        Item("endpoint_k2", "endpoint", _walk(2),
             {"n": 1024, "survivors": 5000}),
    ),
    # Exact rational DP and determinants, plus the float64 gap DP; only the
    # probes draw random numbers.
    "exact_dp": _with_probes(
        Item("exact_km_k3", "exact-km", _walk(3), {"n": 7}),
        Item("exact_km_k2", "exact-km", _walk(2), {"n": 10}),
        Item("exact_reflect_k3", "exact-reflect", _walk(3), {"n": 5}),
        Item("exact_reflect_k2", "exact-reflect", _walk(2), {"n": 6}),
        Item("exact_v_k3", "exact-v", _walk(3), {"n": 6}),
        Item("exact_v_lazy", "exact-v", _walk(2, "lazy_lattice"), {"n": 8}),
        Item("lclt_lazy", "lclt", _walk(2, "lazy_lattice"),
             {"horizons": [256, 4096]}),
        Item("gap_survival", GAP_SURVIVAL,
             params={"start_gap": 1, "horizons": [16] + _pow2(6, 14)}),
    ),
    # Quadrature and limit-law reports, and the transformed-chain samplers.
    # The k=3 endpoint is the same kind as on mc_paths but bound by scalar
    # quad calls and cold K/Z1 quadrature instead of simulation.
    "limit_laws": _with_probes(
        Item("endpoint_k3", "endpoint", _walk(3),
             {"n": 64, "survivors": 2000, "max_attempts": 10 ** 6}),
        Item("hermite", "hermite", _walk(2), {"n": 4096, "paths": 4000}),
        Item("dyson_compare", "dyson-compare", _walk(2),
             {"horizons": [256, 1024], "paths": 10000}),
        Item("transform_k3", "transform", _walk(3),
             {"t_steps": 4, "paths": 2000}),
    ),
}
