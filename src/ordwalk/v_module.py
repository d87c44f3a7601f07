"""Monte Carlo estimation of the harmonic function V and its diagnostics.

V(x) = Delta(x) - E_x[Delta(X(tau))] is the positive function whose Doob
transform realizes the walk conditioned to stay ordered forever. It is
approached through the truncations V_n(x) = Delta(x) - E_x[Delta(X(tau))
1{tau <= n}], which are strictly positive and iterate one step at a time
under the killed transition kernel.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .engine import EstimateCI, WalkConfig, WorkCounts
from .geometry import in_weyl, vandermonde

__all__ = [
    "VEstimate",
    "estimate_v",
    "scaling_check",
    "snap_to_lattice",
]


@dataclass(frozen=True)
class VEstimate:
    n_used: int
    value: EstimateCI
    tail_diagnostic: float  # |change| over the last doubling, nan if untracked
    converged: bool
    per_horizon: list  # (n, EstimateCI) of V_n at every horizon of the schedule


def _vn_over_schedule(cfg: WalkConfig, horizons, paths, work: WorkCounts | None = None):
    """V_n estimates at every horizon from one shared batch of paths.

    Each path is run to min(tau, max horizon); the stopped Vandermonde
    contributes to every horizon >= tau, so all truncations are read off a
    single simulation pass. Its work is added to `work` if one is given.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    horizons = sorted(int(h) for h in horizons)
    if not horizons:
        raise ValueError("horizon schedule must be nonempty")
    if len(set(horizons)) != len(horizons):
        raise ValueError("horizon schedule must be strictly increasing")
    if horizons[0] < 1:
        raise ValueError("horizons must be >= 1")
    max_h = horizons[-1]
    totals = np.zeros((len(horizons), 2))
    for tau, delta, _, _ in engine._blocks(cfg, max_h, paths, work, stopped=True):
        for i, h in enumerate(horizons):
            contrib = np.where(tau <= h, delta, 0.0)
            totals[i] += contrib.sum(), (contrib ** 2).sum()
    delta_x = float(vandermonde(cfg.start))
    out = []
    for i, h in enumerate(horizons):
        mean_stopped = totals[i, 0] / paths
        var = max(totals[i, 1] / paths - mean_stopped ** 2, 0.0)
        est = EstimateCI(mean=delta_x - mean_stopped, stderr=math.sqrt(var / paths))
        out.append((h, est))
    return out


def estimate_v(cfg: WalkConfig, horizon_schedule, paths: int,
               work: WorkCounts | None = None) -> VEstimate:
    """Estimate V(x) as V_{n_max} over a doubling schedule of horizons, from
    one simulation pass whose work is added to `work` if one is given.

    The tail diagnostic is the absolute change of the estimate over the last
    schedule step. If it exceeds 3 stderr the estimate is flagged as not
    converged; that is a report, not a failure, since heavy-tailed step laws
    can converge arbitrarily slowly.
    """
    per_horizon = _vn_over_schedule(cfg, horizon_schedule, paths, work=work)
    n_used, final = per_horizon[-1]
    if len(per_horizon) >= 2:
        tail = abs(final.mean - per_horizon[-2][1].mean)
    else:
        tail = math.nan
    converged = not (tail > 3.0 * final.stderr) if not math.isnan(tail) else True
    return VEstimate(n_used=n_used, value=final, tail_diagnostic=tail,
                     converged=converged, per_horizon=per_horizon)


def snap_to_lattice(x, k: int):
    """Nearest integer configuration in W, ties in ordering broken upward."""
    snapped = [int(math.floor(c + 0.5)) for c in x]
    for i in range(1, k):
        if snapped[i] <= snapped[i - 1]:
            snapped[i] = snapped[i - 1] + 1
    return tuple(snapped)


def scaling_check(cfg: WalkConfig, x_unit, n_list, paths: int):
    """Tabulate n^{-k(k-1)/4} V-hat(sqrt(n) x_unit) against Delta(x_unit).

    The scaled estimate should approach Delta(x_unit) as n grows. Returns a
    dict with per-n rows (n, start used, scaled value, scaled stderr, ratio)
    plus a trend verdict over the last two doublings. A single-entry n_list
    skips the trend test with a warning.
    """
    if not in_weyl(x_unit):
        raise ValueError("x_unit must lie in the Weyl chamber")
    n_list = sorted(int(n) for n in n_list)
    k = cfg.k
    power = k * (k - 1) / 4.0
    delta_unit = float(vandermonde(x_unit))
    rows = []
    for n in n_list:
        scaled_x = [math.sqrt(n) * float(c) for c in x_unit]
        if cfg.dist.is_lattice:
            start = snap_to_lattice(scaled_x, k)
        else:
            start = tuple(scaled_x)
        run_cfg = replace(cfg, start=start)
        schedule = [max(1, n // 2), n] if n > 1 else [1]
        est = estimate_v(run_cfg, schedule, paths)
        scale = n ** (-power)
        rows.append({
            "n": n,
            "start": start,
            "scaled_value": scale * est.value.mean,
            "scaled_stderr": scale * est.value.stderr,
            "ratio": scale * est.value.mean / delta_unit,
        })
    warning = None
    if len(rows) >= 3:
        r = [abs(row["ratio"] - 1.0) for row in rows[-3:]]
        trend_ok = r[2] <= r[1] + rows[-1]["scaled_stderr"] / delta_unit
        trend_ok = trend_ok and r[2] <= r[0]
    elif len(rows) == 2:
        trend_ok = abs(rows[1]["ratio"] - 1.0) <= abs(rows[0]["ratio"] - 1.0)
    else:
        trend_ok = True
        warning = "single horizon: trend test skipped"
    return {"rows": rows, "delta_unit": delta_unit, "trend_ok": trend_ok,
            "warning": warning}
