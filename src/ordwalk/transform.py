"""The V-transformed walk (conditioned to stay ordered) and its limit laws.

The transform has transition kernel p(x -> y) 1{y in W} V(y)/V(x); with the
true harmonic V these masses sum to one exactly and the chain never exits
the chamber. Endpoints rescaled by sqrt(n) approach the squared-Vandermonde
Gaussian ensemble; rescaled path marginals approach the determinantal
transition density of ordered Brownian motions.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np
from scipy import special, stats

from . import asymptotics
from .distributions import (
    TRANSFORMED_CHAIN_SALT,
    TRANSFORM_REJECTION_SALT,
    RandomStream,
    StepDistribution,
    UnsupportedOperationError,
    make_distribution,
)
from .engine import PartialResultError, WalkConfig
from .geometry import in_weyl, vandermonde
from .lattice_exact import exact_vn, killed_gap_chain

__all__ = [
    "TransformTable",
    "FeasibilityError",
    "rademacher_gap_table",
    "transform_step_exact",
    "transformed_gap_paths",
    "transformed_gap_distribution",
    "gap_law_tv",
    "transform_paths_rejection",
    "hermite_distance",
    "sample_hermite_limit",
    "dyson_density",
    "dyson_gap_marginal",
    "dyson_gap_cdf",
    "dyson_compare",
    "clamp_warning_count",
    "reset_clamp_warnings",
]


class FeasibilityError(RuntimeError):
    """Plain rejection would be hopeless; carries the predicted cost."""


@dataclass(frozen=True)
class TransformTable:
    """V values over a lattice domain, exact or estimated.

    `values` maps configurations to Fraction (exact) or (mean, stderr)
    tuples; `closed_form`, when set, serves configurations outside the dict.
    All stored values must be positive.
    """

    k: int
    domain: str
    values: dict = field(default_factory=dict)
    closed_form: object = None
    exact: bool = True
    stderr_budget: float = 0.0

    def __post_init__(self):
        for x, v in self.values.items():
            mean = v[0] if isinstance(v, tuple) else v
            if mean <= 0:
                raise ValueError(f"V must be positive, got {mean} at {x}")

    def v(self, x):
        if x in self.values:
            val = self.values[x]
            return val[0] if isinstance(val, tuple) else val
        if self.closed_form is not None:
            return self.closed_form(x)
        raise KeyError(f"configuration {x} outside table domain {self.domain}")


def _rademacher_gap_v(x):
    """Closed-form V for two Rademacher walkers, as a function of the config.

    In gap coordinates g = x2 - x1: V = g + 1 for odd g (the walk exits
    exactly at gap -1, so E[gap at exit] = -1) and V = g for even g (exit
    lands on gap 0 where the Vandermonde vanishes).
    """
    g = x[1] - x[0]
    if g <= 0:
        raise ValueError("configuration must be strictly ordered")
    return Fraction(g + 1) if g % 2 else Fraction(g)


def rademacher_gap_table() -> TransformTable:
    """Exact V table for k=2 Rademacher steps via the closed form."""
    return TransformTable(k=2, domain="all ordered integer pairs",
                          closed_form=_rademacher_gap_v, exact=True)


def table_from_exact_vn(cfg: WalkConfig, n: int, domain) -> TransformTable:
    """Truncated table of exact rational V_n over an explicit domain.

    V_n is only approximately invariant (it iterates to V_{n+1}), so one-step
    normalization holds within the truncation gap, not exactly; the table
    carries an stderr budget of max |V_{n+1}/V_n - 1| over the domain.
    """
    from dataclasses import replace

    values = {}
    budget = 0.0
    for x in domain:
        vs = exact_vn(replace(cfg, start=tuple(x)), n + 1)
        values[tuple(x)] = vs[n - 1]
        budget = max(budget, abs(float(vs[n] / vs[n - 1]) - 1.0))
    return TransformTable(k=cfg.k, domain=f"{len(values)} configurations",
                          values=values, exact=False, stderr_budget=budget)


def transform_step_exact(table: TransformTable, x, dist: StepDistribution,
                         stream: RandomStream):
    """One transformed step from x: sample y with mass p(x->y) V(y)/V(x).

    With an exact table the one-step masses are verified to sum to one in
    rational arithmetic; estimated tables get the table's stderr budget as
    tolerance. Moves leaving the chamber have V-weight zero by convention
    (the Vandermonde vanishes on the boundary) and are never proposed.
    """
    if not dist.is_lattice:
        raise UnsupportedOperationError("exact transform steps need a lattice law")
    x = tuple(x)
    vx = table.v(x)
    targets = []
    weights = []
    for steps in product(dist.support(), repeat=table.k):
        y = tuple(a + s for a, s in zip(x, steps))
        if not in_weyl(y):
            continue
        mass = math.prod(dist.masses[s] for s in steps)
        vy = table.v(y)
        weights.append(Fraction(mass) * Fraction(vy) / Fraction(vx)
                       if table.exact else float(mass) * vy / vx)
        targets.append(y)
    total = sum(weights)
    if table.exact:
        if total != 1:
            raise ArithmeticError(
                f"transformed one-step mass is {total}, expected exactly 1")
    elif abs(float(total) - 1.0) > max(table.stderr_budget, 1e-12):
        raise ArithmeticError(
            f"transformed one-step mass {float(total)} off by more than the "
            f"table budget {table.stderr_budget}")
    u = stream.generator().random()
    acc = 0.0
    for y, w in zip(targets, weights):
        acc += float(w) / float(total)
        if u < acc:
            return y
    return targets[-1]


# ---------------------------------------------------------------------------
# the k=2 Rademacher transformed chain in gap coordinates
#
# The gap performs steps -2/0/+2 with base masses 1/4, 1/2, 1/4; transformed
# probabilities are reweighted by V(g')/V(g). Parity of the gap is preserved.

def _gap_v_array(gaps: np.ndarray) -> np.ndarray:
    return np.where(gaps % 2 == 1, gaps + 1.0, gaps.astype(float))


def transformed_gap_paths(start_gap: int, n: int, paths: int,
                          master_seed: int = 0) -> np.ndarray:
    """Sample the transformed gap chain; returns gaps at time n, shape (paths,)."""
    if start_gap < 1:
        raise ValueError("start gap must be >= 1")
    rng = RandomStream(master_seed, TRANSFORMED_CHAIN_SALT).generator()
    g = np.full(paths, start_gap, dtype=np.int64)
    for _ in range(n):
        v = _gap_v_array(g)
        p_up = 0.25 * _gap_v_array(g + 2) / v
        p_down = 0.25 * np.where(g >= 2, _gap_v_array(np.maximum(g - 2, 0)), 0.0) / v
        u = rng.random(paths)
        g = np.where(u < p_up, g + 2, np.where(u < p_up + p_down, g - 2, g))
    return g


def transformed_pair_paths(start, n: int, paths: int,
                           master_seed: int = 0) -> np.ndarray:
    """Sample full k=2 transformed configurations at time n, shape (paths, 2).

    For Rademacher steps the pair (sum, gap) moves on a checkerboard: the gap
    changes by +-2 exactly when the two steps differ, in which case the sum is
    frozen; when the gap stays, the sum jumps +-2 with equal probability. The
    V-reweighting touches only the gap component.
    """
    if not in_weyl(start):
        raise ValueError("start must be strictly ordered")
    start_gap = int(start[1] - start[0])
    rng = RandomStream(master_seed, TRANSFORMED_CHAIN_SALT).generator()
    g = np.full(paths, start_gap, dtype=np.int64)
    s = np.full(paths, int(start[0] + start[1]), dtype=np.int64)
    for _ in range(n):
        v = _gap_v_array(g)
        p_up = 0.25 * _gap_v_array(g + 2) / v
        p_down = 0.25 * np.where(g >= 2, _gap_v_array(np.maximum(g - 2, 0)), 0.0) / v
        u = rng.random(paths)
        moved = u < p_up + p_down
        g = np.where(u < p_up, g + 2, np.where(moved, g - 2, g))
        coin = rng.random(paths) < 0.5
        s = np.where(moved, s, s + np.where(coin, 2, -2))
    return np.stack([(s - g) / 2.0, (s + g) / 2.0], axis=1)


def transformed_gap_distribution(start_gap: int, n: int) -> tuple:
    """Exact float64 law of the transformed gap at time n: (gaps, probs).

    The transform is the Doob h-transform of the killed chain by V, so
    P^V_g0(g_n = g) = P_g0(tau > n, g_n = g) V(g) / V(g0).
    """
    if start_gap < 1:
        raise ValueError("start gap must be >= 1")
    mass, _ = killed_gap_chain(make_distribution("rademacher"), start_gap, [n])
    v0 = float(_rademacher_gap_v((0, start_gap)))
    probs = mass * _gap_v_array(np.arange(mass.size)) / v0
    keep = probs > 0
    return np.flatnonzero(keep), probs[keep]


def transform_paths_rejection(cfg: WalkConfig, t_steps: int, paths: int,
                              guard_m=None, predicted_acceptance=None):
    """Approximate the transformed law by conditioning on long survival.

    Simulates plain paths, keeps those still ordered at the guard horizon m
    (default 8x the requested length), and returns their positions at
    t_steps. The conditional law converges to the transform as m grows, with
    no explicit rate, so the report always includes a bias proxy: the binned
    TV distance between the kept marginals under m and under 2m.
    """
    if t_steps < 0:
        raise ValueError("t_steps must be >= 0")
    m = guard_m if guard_m is not None else max(8 * t_steps, 8)
    if m < t_steps:
        raise ValueError("guard horizon must be >= t_steps")
    k = cfg.k
    if predicted_acceptance is None:
        p = k * (k - 1) / 4.0
        predicted_acceptance = min(
            1.0,
            asymptotics.constant_K(k) * float(vandermonde(cfg.start))
            * (2.0 * m * cfg.dist.variance) ** (-p),
        )
    if predicted_acceptance < 1e-4:
        raise FeasibilityError(
            f"predicted acceptance {predicted_acceptance:.3g} below 1e-4 at "
            f"guard horizon {m}; plain rejection would need about "
            f"{paths / max(predicted_acceptance, 1e-300):.3g} attempts")

    rng = RandomStream(cfg.master_seed, TRANSFORM_REJECTION_SALT).generator()
    kept_m = []
    kept_2m = []
    attempts = 0
    max_attempts = int(paths / max(predicted_acceptance, 1e-6)) * 20 + 10000
    block = 1 << 13
    while len(kept_m) < paths and attempts < max_attempts:
        pos = np.tile(np.asarray(cfg.start, dtype=float), (block, 1))
        at_t = np.zeros_like(pos)
        alive = np.ones(block, dtype=bool)
        alive_m = np.zeros(block, dtype=bool)
        snap = np.zeros_like(pos)
        for step in range(1, 2 * m + 1):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            pos[idx] += cfg.dist.sample_array(rng, (idx.size, k))
            exited = np.any(np.diff(pos[idx], axis=1) <= 0, axis=1)
            alive[idx[exited]] = False
            if step == t_steps:
                at_t[alive] = pos[alive]
            if step == m:
                alive_m = alive.copy()
                snap = at_t.copy()
        if t_steps == 0:
            snap = np.tile(np.asarray(cfg.start, dtype=float), (block, 1))
            at_t = snap.copy()
        kept_m.extend(snap[alive_m].tolist())
        kept_2m.extend(at_t[alive].tolist())
        attempts += block
    rate = len(kept_m) / attempts if attempts else 0.0
    if len(kept_m) < paths:
        raise PartialResultError(
            f"kept {len(kept_m)}/{paths} paths after {attempts} attempts "
            f"(acceptance {rate:.3g})",
            endpoints=np.asarray(kept_m), acceptance_rate=rate)
    samples_m = np.asarray(kept_m[:paths])
    samples_2m = np.asarray(kept_2m)
    proxy = _marginal_tv(samples_m, samples_2m) if len(samples_2m) else math.nan
    return {
        "samples": samples_m,
        "acceptance_rate": rate,
        "guard_m": m,
        "bias_proxy_tv": proxy,
        "n_at_2m": len(samples_2m),
    }


def _marginal_tv(a: np.ndarray, b: np.ndarray) -> float:
    """Binned TV between two sample sets, first gap coordinate, shared grid."""
    ga = np.diff(a, axis=1)[:, 0]
    gb = np.diff(b, axis=1)[:, 0]
    lo = min(ga.min(), gb.min())
    hi = max(ga.max(), gb.max())
    edges = np.linspace(lo, hi + 1e-9, 41)
    ha, _ = np.histogram(ga, edges)
    hb, _ = np.histogram(gb, edges)
    return 0.5 * float(np.abs(ha / len(ga) - hb / len(gb)).sum())


# ---------------------------------------------------------------------------
# Hermite ensemble comparison

def hermite_distance(samples, k: int, sigma: float = 1.0) -> dict:
    """Goodness of fit of rescaled transformed endpoints to the squared law.

    Same statistic suite as the endpoint report, but against the density
    proportional to exp(-|y|^2/2) Delta(y)^2. Also reports the second gap
    moment (limit value 6 for k=2).
    """
    report, gaps = asymptotics._limit_law_report(samples, k, 2, sigma)
    report["gap_sq_mean"], report["gap_sq_stderr"] = asymptotics._mean_stderr(gaps ** 2)
    return report


def hermite_gap_tv_exact(start_gap: int, n: int) -> float:
    """Noise-free TV between the exact transformed gap law and its limit.

    No sampling enters, so the value is deterministic and its decrease in n
    is a clean trend test.
    """
    gaps, probs = transformed_gap_distribution(start_gap, n)
    return gap_law_tv(gaps / math.sqrt(n), probs)


def _limit_gap_cdf(g):
    """CDF of the k=2 beta=2 limit gap, density g^2 exp(-g^2/4) / (2 sqrt(pi))."""
    g = np.asarray(g, dtype=float)
    return special.erf(g / 2.0) - g / math.sqrt(math.pi) * np.exp(-g ** 2 / 4.0)


def gap_law_tv(x, probs) -> float:
    """TV between the law of gaps x with masses probs and the k=2 beta=2 limit.

    Both laws are binned in steps of 1/4 on [0, 8]; mass outside is one
    overflow cell.
    """
    upper = 8.0
    edges = np.arange(0.0, upper + 0.125, 0.25)
    emp, _ = np.histogram(x, edges, weights=probs)
    emp_out = max(0.0, 1.0 - emp.sum())
    model = np.diff(_limit_gap_cdf(edges))
    model_out = 1.0 - float(_limit_gap_cdf(upper))
    return 0.5 * float(np.abs(emp - model).sum() + abs(emp_out - model_out))


def sample_hermite_limit(k: int, size: int, rng) -> np.ndarray:
    """Exact samples from the squared-Vandermonde ensemble (k=2 only).

    Center v ~ N(0, 1/2); gap density proportional to g^2 exp(-g^2/4) is a
    chi distribution with 3 degrees of freedom scaled by sqrt(2).
    """
    if k != 2:
        raise UnsupportedOperationError("Hermite sampler implemented for k=2")
    g = np.sqrt(2.0) * stats.chi.rvs(3, size=size, random_state=rng)
    v = rng.normal(0.0, math.sqrt(0.5), size)
    return np.stack([v - g / 2.0, v + g / 2.0], axis=1)


# ---------------------------------------------------------------------------
# ordered Brownian motion (the Delta-transformed Gaussian law)

_clamp_warnings = 0


def clamp_warning_count() -> int:
    return _clamp_warnings


def reset_clamp_warnings():
    global _clamp_warnings
    _clamp_warnings = 0


def dyson_density(x, t: float, y) -> float:
    """Transition density of k ordered Brownian motions from x to y in time t.

    det[phi_t(y_j - x_i)] * Delta(y) / Delta(x), with phi_t the centered
    Gaussian kernel of variance t. Nonnegative up to round-off; tiny negative
    determinant values are clamped to zero and counted.
    """
    global _clamp_warnings
    if t <= 0:
        raise ValueError("t must be positive")
    if not (in_weyl(x) and in_weyl(y)):
        raise ValueError("x and y must lie in the Weyl chamber")
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    diff = ys[None, :] - xs[:, None]
    kern = np.exp(-diff ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    det = float(np.linalg.det(kern))
    val = det * float(vandermonde(ys)) / float(vandermonde(xs))
    if val < 0:
        _clamp_warnings += 1
        val = 0.0
    return val


def dyson_gap_marginal(g0: float, t: float, g) -> np.ndarray:
    """Gap density of two ordered Brownian motions after time t, start gap g0.

    The gap is a Brownian motion of variance 2t conditioned positive via the
    h-transform h(g)=g: density (phi_2t(g-g0) - phi_2t(g+g0)) * g / g0.
    """
    g = np.asarray(g, dtype=float)
    var = 2.0 * t
    norm = 1.0 / math.sqrt(2.0 * math.pi * var)
    out = (np.exp(-(g - g0) ** 2 / (2 * var))
           - np.exp(-(g + g0) ** 2 / (2 * var))) * norm * g / g0
    return np.where(g > 0, out, 0.0)


def dyson_gap_cdf(g0: float, t: float, g) -> np.ndarray:
    """CDF of `dyson_gap_marginal`, in closed form.

    With s^2 = 2t and phi_s the N(0, s^2) density, integrating the density
    term by term gives Phi((g-g0)/s) - Phi(-g0/s) + Phi((g+g0)/s) - Phi(g0/s)
    + s^2 (phi_s(g+g0) - phi_s(g-g0)) / g0, which tends to exactly 1.
    """
    g = np.maximum(np.asarray(g, dtype=float), 0.0)
    s = math.sqrt(2.0 * t)
    norm = stats.norm
    return (norm.cdf((g - g0) / s) - norm.cdf(-g0 / s)
            + norm.cdf((g + g0) / s) - norm.cdf(g0 / s)
            + s * s * (norm.pdf(g + g0, scale=s) - norm.pdf(g - g0, scale=s)) / g0)


def dyson_compare(x_unit, t: float, n: int, paths: int, sigma: float = 1.0,
                  master_seed: int = 0) -> dict:
    """Distance between rescaled transformed-walk marginals and the BM law.

    k=2 Rademacher route: starts the exact transformed gap chain at the
    snapped gap sqrt(n) * (unit gap), runs floor(t n) steps, rescales by
    sqrt(n), and compares against the exact gap marginal at diffusion time
    t * sigma^2 by binned TV and KS.
    """
    if len(x_unit) != 2:
        raise UnsupportedOperationError("dyson_compare is a k=2 gap-chain route")
    if not in_weyl(x_unit):
        raise ValueError("x_unit must lie in the Weyl chamber")
    g0_unit = float(x_unit[1] - x_unit[0])
    start_gap = max(1, int(round(math.sqrt(n) * g0_unit)))
    steps = int(t * n)
    gaps = transformed_gap_paths(start_gap, steps, paths, master_seed)
    rescaled = gaps / math.sqrt(n)
    t_eff = t * sigma ** 2
    g0_eff = start_gap / math.sqrt(n)

    hi = g0_eff + 6.0 * math.sqrt(2.0 * t_eff)
    edges = np.arange(0.0, hi, 0.25 * sigma)
    counts, _ = np.histogram(rescaled, edges)
    model_bins = np.diff(dyson_gap_cdf(g0_eff, t_eff, edges))
    emp = counts / len(rescaled)
    # both laws have total mass 1, so the overflow cells differ by the sums
    tv = 0.5 * (np.abs(emp - model_bins).sum() + abs(model_bins.sum() - emp.sum()))
    ks = float(stats.kstest(rescaled,
                            lambda g: dyson_gap_cdf(g0_eff, t_eff, g)).statistic)
    return {
        "n": n,
        "steps": steps,
        "start_gap": start_gap,
        "n_samples": paths,
        "tv": float(tv),
        "ks": ks,
        "gap_mean": float(rescaled.mean()),
    }
