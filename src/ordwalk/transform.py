"""The V-transformed walk (conditioned to stay ordered) and its limit laws.

The transform has transition kernel p(x -> y) 1{y in W} V(y)/V(x); with the
true harmonic V these masses sum to one exactly and the chain never exits
the chamber. Endpoints rescaled by sqrt(n) approach the squared-Vandermonde
Gaussian ensemble; rescaled path marginals approach the determinantal
transition density of ordered Brownian motions.
"""

import math

import numpy as np

from . import asymptotics, engine
from .distributions import (
    TRANSFORMED_CHAIN_SALT,
    RandomStream,
    UnsupportedOperationError,
    make_distribution,
)
from .engine import PartialResultError, WalkConfig
from .geometry import in_weyl, vandermonde
from .lattice_exact import (
    _WINDOW_SIGMAS,
    _gap_dp_extent,
    _require_truncation_within,
    _survival_by_gap,
    gap_chain_alive_distribution,
    killed_gap_chain,
)

__all__ = [
    "FeasibilityError",
    "transformed_gap_paths",
    "transformed_pair_paths",
    "transformed_gap_distribution",
    "gap_law_tv",
    "transform_paths_rejection",
    "hermite_distance",
    "hermite_gap_tv_exact",
    "dyson_gap_marginal",
    "dyson_gap_cdf",
    "dyson_compare",
]


class FeasibilityError(RuntimeError):
    """Plain rejection would be hopeless; carries the predicted cost."""


def _rademacher_v(x):
    """The harmonic V of Rademacher walkers, for every k: V(x) = Delta(x + c).

    c_i counts the odd gaps below walker i. A +-1 step never changes the
    parity of a gap, so the killed walk from x is the killed walk from x + c
    moved back by c; x + c has even gaps only, its walkers cannot cross
    without meeting, and Delta is harmonic for them. Takes one integer
    configuration or an array of them along the last axis. At every exit
    reachable in one step (a gap of 0 or -1) the value is exactly 0.
    """
    x = np.asarray(x, dtype=np.int64)
    c = np.cumsum(np.diff(x, axis=-1) % 2, axis=-1)
    return vandermonde(x + np.concatenate([np.zeros_like(x[..., :1]), c], axis=-1))


# ---------------------------------------------------------------------------
# the k=2 Rademacher transformed chain
#
# The chain is the Doob h-transform of the killed walk by V. The gap moves
# by +-2 when the two steps differ, with masses V(g +- 2) / (4 V(g)), and
# V(g + 2) + V(g - 2) = 2 V(g), so it moves at exactly half of the steps
# whatever its state. A path therefore makes M ~ Bin(n, 1/2) gap moves, and
# its other n - M steps move both walkers together by +-1 with equal chance.
# A move keeps the parity of the gap, so it moves V by the same +-2, and
# w = V(g) / 2 goes up with chance (w + 1) / (2 w): the h-transform by
# h(w) = w of a simple random walk killed at 0, the discrete Bessel-3 chain
# (Koenig, O'Connell & Roch, EJP 7, 2002). Its law after M moves from w0 is
# the reflection formula P(w) = [p_M(w - w0) - p_M(w + w0)] w / w0, w >= 1,
# with p_M the M-step simple-random-walk pmf, so each path needs one draw.

def _move_law(w0: int, m: int) -> tuple:
    """Law of w after m moves of the chain from w0: (w, probs) on w >= 1.

    With X ~ Bin(m, 1/2), w = w0 + 2X - m, p_m(w - w0) = P(X = x) and
    p_m(w + w0) = P(X = x + w0). The law is kept on x within
    _WINDOW_SIGMAS / 2 sqrt(m) of m / 2, that is w within _WINDOW_SIGMAS
    standard deviations sqrt(m) of w0, so moves drawn from Bin(n, 1/2), about
    sqrt(n) distinct values, cost O(n) cells in all. P(X = x) comes from the
    ratio (m - x) / (x + 1) of neighbouring masses, normalised over the
    window. By Hoeffding, X leaves the window with chance at most
    exp(-2 d^2 / m) on a side at distance d, and w / w0 <= 1 + m / w0, so the
    mass the law misplaces (cells outside, reflections past its end and the
    normalisation) is at most 3 (1 + m / w0) times the two tails; it must
    stay within _TRUNCATION_RTOL.
    """
    half = math.ceil(_WINDOW_SIGMAS / 2 * math.sqrt(m)) + 1
    lo, hi = max(m // 2 - half, 0), min(m // 2 + half, m)
    tails = ((math.exp(-2 * (m / 2 - lo + 1) ** 2 / m) if lo > 0 else 0.0)
             + (math.exp(-2 * (hi + 1 - m / 2) ** 2 / m) if hi < m else 0.0))
    _require_truncation_within(f"transformed gap law mass after {m} moves", 1.0,
                               3 * (1 + m / w0) * tails)
    x = np.arange(lo, hi + 1)
    pmf = np.ones(x.size)
    pmf[1:] = (m - x[:-1]) / (x[:-1] + 1)
    np.cumprod(pmf, out=pmf)
    pmf /= pmf.sum()
    pmf[:max(x.size - w0, 0)] -= pmf[w0:]
    w = w0 - m + 2 * x
    keep = w >= 1
    return w[keep], pmf[keep] * w[keep] / w0


def _transformed_gaps(start_gap: int, moves: np.ndarray, rng) -> np.ndarray:
    """Gaps after moves[i] moves of the transformed gap chain on path i.

    The paths are grouped by their number of moves m. Each group inverts one
    uniform per path through the CDF of `_move_law(w0, m)`, and w maps back
    to the gap by g = 2 w - (V(start_gap) - start_gap).
    """
    v0 = int(_rademacher_v((0, start_gap)))
    # a target in (0, total] lands on a cell of positive mass
    target = 1.0 - rng.random(moves.size)
    order = np.argsort(moves, kind="stable")
    distinct, first = np.unique(moves[order], return_index=True)
    out = np.empty(moves.size, dtype=np.int64)
    for m, paths in zip(distinct.tolist(), np.split(order, first[1:])):
        w, probs = _move_law(v0 // 2, m)
        cdf = np.cumsum(probs)
        out[paths] = w[np.searchsorted(cdf, target[paths] * cdf[-1])]
    return 2 * out - (v0 - start_gap)


def transformed_gap_paths(start_gap: int, n: int, paths: int,
                          master_seed: int = 0) -> np.ndarray:
    """Sample the transformed gap chain; returns gaps at time n, shape (paths,).

    Draws each path's number of gap moves M ~ Bin(n, 1/2), then its gap from
    the exact law after M moves, one uniform per path (`_transformed_gaps`).
    """
    if start_gap < 1:
        raise ValueError("start gap must be >= 1")
    rng = RandomStream(master_seed, TRANSFORMED_CHAIN_SALT).generator()
    return _transformed_gaps(start_gap, rng.binomial(n, 0.5, paths), rng)


def transformed_pair_paths(start, n: int, paths: int,
                           master_seed: int = 0) -> np.ndarray:
    """Sample full k=2 transformed configurations at time n, shape (paths, 2).

    The sum s of the two walkers is frozen while the gap moves and jumps by
    +-2 with equal chance at each of the other n - M steps, so
    s = s0 + 2 (2 Bin(n - M, 1/2) - (n - M)). The gaps equal those of
    `transformed_gap_paths` at the same seed.
    """
    if not in_weyl(start):
        raise ValueError("start must be strictly ordered")
    rng = RandomStream(master_seed, TRANSFORMED_CHAIN_SALT).generator()
    moves = rng.binomial(n, 0.5, paths)
    g = _transformed_gaps(int(start[1] - start[0]), moves, rng)
    frozen = n - moves
    s = int(start[0] + start[1]) + 2 * (2 * rng.binomial(frozen, 0.5) - frozen)
    return np.stack([(s - g) / 2.0, (s + g) / 2.0], axis=1)


def _transformed_gap_law(start_gap: int, n: int):
    """`transformed_gap_distribution`'s (gaps, probs), and the extent of the
    killed gap DP behind it (lattice_exact._gap_dp_extent)."""
    if start_gap < 1:
        raise ValueError("start gap must be >= 1")
    gaps, mass, table = killed_gap_chain(make_distribution("rademacher"), start_gap, [n])
    v0 = float(_rademacher_v((0, start_gap)))
    truncated = table[n][2]
    # a truncated path ends at a gap of at most start_gap + 2n, where V <= gap + 1
    _require_truncation_within(f"transformed gap law mass at n={n}", 1.0,
                               truncated * (start_gap + 2 * n + 1) / v0)
    probs = mass * _rademacher_v(np.stack([np.zeros_like(gaps), gaps], axis=1)) / v0
    keep = probs > 0
    return gaps[keep], probs[keep], _gap_dp_extent(truncated, mass.size)


def transformed_gap_distribution(start_gap: int, n: int) -> tuple:
    """Exact float64 law of the transformed gap at time n: (gaps, probs).

    The transform is the Doob h-transform of the killed chain by V, so
    P^V_g0(g_n = g) = P_g0(tau > n, g_n = g) V(g) / V(g0).
    """
    return _transformed_gap_law(start_gap, n)[:2]


def transform_paths_rejection(cfg: WalkConfig, t_steps: int, paths: int,
                              guard_m=None):
    """Approximate the transformed law by conditioning on long survival.

    Simulates plain paths to 2m in engine blocks, keeps those still ordered
    at the guard horizon m (default 8x the requested length), and returns
    their positions at t_steps, in block order. The conditional law
    converges to the transform as m grows, with no explicit rate, so the
    report always includes a bias proxy: the binned TV distance between the
    kept marginals under m and under 2m.
    """
    if t_steps < 0:
        raise ValueError("t_steps must be >= 0")
    m = guard_m if guard_m is not None else max(8 * t_steps, 8)
    if m < t_steps:
        raise ValueError("guard horizon must be >= t_steps")
    k = cfg.k
    predicted_acceptance = min(1.0, asymptotics.constant_K(k) * float(vandermonde(cfg.start))
                               * (2.0 * m * cfg.dist.variance) ** (-k * (k - 1) / 4.0))
    if predicted_acceptance < 1e-4:
        raise FeasibilityError(
            f"predicted acceptance {predicted_acceptance:.3g} below 1e-4 at "
            f"guard horizon {m}; plain rejection would need about "
            f"{paths / max(predicted_acceptance, 1e-300):.3g} attempts")

    kept_m = []
    kept_2m = []
    got = attempts = block = 0
    max_attempts = int(paths / max(predicted_acceptance, 1e-6)) * 20 + 10000
    while got < paths and attempts < max_attempts:
        size = min(engine.BLOCK_SIZE, max_attempts - attempts)
        tau, _, _, at_t = engine._simulate_block(cfg, 2 * m, block, size, t_steps)
        kept_m.append(at_t[tau > m])
        kept_2m.append(at_t[tau > 2 * m])
        got += kept_m[-1].shape[0]
        attempts += size
        block += 1
    samples = np.concatenate(kept_m)[:paths]
    at_2m = np.concatenate(kept_2m)
    rate = got / attempts
    if got < paths:
        raise PartialResultError(
            f"kept {got}/{paths} paths after {attempts} attempts "
            f"(acceptance {rate:.3g})",
            endpoints=samples, acceptance_rate=rate)
    return {
        "samples": samples,
        "acceptance_rate": rate,
        "guard_m": m,
        "bias_proxy_tv": _marginal_tv(samples, at_2m) if len(at_2m) else math.nan,
        "n_at_2m": len(at_2m),
    }


def _rejection_gap_law(dist, start_gap: int, t_steps: int, guard_m: int):
    """Exact law of the k=2 gap at t_steps given survival to guard_m, the law
    `transform_paths_rejection` samples: (gaps, probs), by the gap DP.

    By the Markov property at t_steps, P(g_t = g | tau > m) is proportional to
    P_g0(g_t = g, tau > t) P_g(tau > m - t), the second factor for every g
    from one pass of the gap DP.
    """
    gaps, probs = gap_chain_alive_distribution(dist, start_gap, t_steps)
    probs = probs * _survival_by_gap(dist, gaps, guard_m - t_steps)
    return gaps, probs / probs.sum()


def _marginal_tv(a: np.ndarray, b: np.ndarray) -> float:
    """Binned TV between two sample sets, first gap coordinate, shared grid."""
    ga = np.diff(a, axis=1)[:, 0]
    gb = np.diff(b, axis=1)[:, 0]
    lo = min(ga.min(), gb.min())
    hi = max(ga.max(), gb.max())
    edges = np.linspace(lo, hi + 1e-9, 41)
    # the bins hold every sample, so both overflow cells are empty
    ha = np.append(np.histogram(ga, edges)[0] / len(ga), 0.0)
    hb = np.append(np.histogram(gb, edges)[0] / len(gb), 0.0)
    return asymptotics._tv(ha, hb)


# ---------------------------------------------------------------------------
# Hermite ensemble comparison

def hermite_distance(samples, k: int) -> dict:
    """Goodness of fit of rescaled transformed endpoints to the squared law.

    Same statistic suite as the endpoint report, but against the density
    proportional to exp(-|y|^2/2) Delta(y)^2. Also reports the second gap
    moment (limit value 6 for k=2).
    """
    report, gaps = asymptotics._limit_law_report(samples, k, 2)
    report["gap_sq_mean"], report["gap_sq_stderr"] = asymptotics._mean_stderr(gaps ** 2)
    return report


def hermite_gap_tv_exact(start_gap: int, n: int) -> float:
    """Noise-free TV between the exact transformed gap law and its limit.

    No sampling enters, so the value is deterministic and its decrease in n
    is a clean trend test.
    """
    gaps, probs = transformed_gap_distribution(start_gap, n)
    return gap_law_tv(gaps / math.sqrt(n), probs)


def gap_law_tv(x, probs) -> float:
    """TV between the law of gaps x with masses probs and the k=2 beta=2 limit.

    Both laws are binned in steps of 1/4 on [0, 8]; mass outside is one
    overflow cell.
    """
    edges = np.arange(0.0, 8.125, 0.25)
    emp, _ = np.histogram(x, edges, weights=probs)
    model = np.diff(asymptotics._gap_marginal_cdf(2, 2)(np.append(edges, np.inf)))
    return asymptotics._tv(np.append(emp, max(0.0, 1.0 - emp.sum())), model)


# ---------------------------------------------------------------------------
# ordered Brownian motion (the Delta-transformed Gaussian law)

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

    def phi(x):  # the N(0, s^2) density
        return np.exp(-(x / s) ** 2 / 2.0) / np.sqrt(2.0 * np.pi) / s
    Phi = asymptotics._norm_cdf
    return (Phi((g - g0) / s) - Phi(-g0 / s)
            + Phi((g + g0) / s) - Phi(g0 / s)
            + s * s * (phi(g + g0) - phi(g - g0)) / g0)


def dyson_compare(x_unit, t: float, n: int, paths: int,
                  master_seed: int = 0) -> dict:
    """Distance between rescaled transformed-walk marginals and the BM law.

    k=2 Rademacher route: starts the exact transformed gap chain at the
    snapped gap sqrt(n) * (unit gap), runs floor(t n) steps, rescales by
    sqrt(n), and compares against the exact gap marginal at diffusion time t
    by binned TV and KS.
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
    g0 = start_gap / math.sqrt(n)

    edges = np.arange(0.0, g0 + 6.0 * math.sqrt(2.0 * t), 0.25)
    counts, _ = np.histogram(rescaled, edges)
    emp = np.append(counts, paths - counts.sum()) / paths
    model = np.diff(dyson_gap_cdf(g0, t, np.append(edges, np.inf)))
    ks = asymptotics._ks_statistic(rescaled, lambda g: dyson_gap_cdf(g0, t, g))
    return {
        "n": n,
        "steps": steps,
        "start_gap": start_gap,
        "n_samples": paths,
        "tv": asymptotics._tv(emp, model),
        "ks": ks,
        "gap_mean": float(rescaled.mean()),
    }
