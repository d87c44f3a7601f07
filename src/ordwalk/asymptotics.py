"""Survival-tail fitting, the limit constants, and limit-law diagnostics.

The ordered walk survives past time n with probability ~ K V(x) n^{-k(k-1)/4}.
Conditioned on survival, its rescaled endpoint X(n)/sqrt(n) has density
proportional to exp(-|y|^2/2) Delta(y) on the chamber; the endpoint of the
V-transformed walk tends to the density proportional to exp(-|y|^2/2)
Delta(y)^2. Both limits belong to one family indexed by the Vandermonde power
beta. This module fits the exponent and prefactor from survival curves,
takes K and the normalizations Z_beta from Mehta's integral in closed form
(the acceptance criteria check K on the exact Rademacher survival curves of
`lattice_exact.star_survival`), measures goodness of fit of samples to the
beta law, and provides a local-CLT deviation diagnostic for lattice step
laws.
"""

import json
import math
import os
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distributions import StepDistribution, UnsupportedOperationError

__all__ = [
    "TailFit",
    "tail_fit",
    "constant_K",
    "z1_constant",
    "endpoint_density_distance",
    "local_clt_deviation",
    "walk_pmf",
]


def __getattr__(name):
    # `bench/spans.py` patches `asymptotics.integrate` to count quad calls, of
    # which there are none; scipy is imported for that patch alone. The
    # benchmark change of ROADMAP direction 5 drops the patch, and this hook
    # and the `cache_path` writes go with it.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# erfc and the normal CDF
#
# libm's erfc, one point at a time. Its cost per point does not matter here:
# `_ks_statistic` calls a CDF once per distinct sample value, and rescaled
# lattice samples repeat, so a report evaluates a few thousand points at most.

_INV_SQRT_PI = 5.6418958354775628695e-1
_erfc_points = np.frompyfunc(math.erfc, 1, 1)


def _erfc(x):
    """The complementary error function, elementwise; NaN stays NaN."""
    return np.asarray(_erfc_points(np.asarray(x, dtype=float)), dtype=float)[()]


def _norm_cdf(x):
    """The standard normal CDF Phi(x) = erfc(-x/sqrt(2))/2, elementwise."""
    return 0.5 * _erfc(np.multiply(x, -math.sqrt(0.5)))


# ---------------------------------------------------------------------------
# survival-tail fitting

@dataclass(frozen=True)
class TailFit:
    exponent: float
    prefactor: float
    r_squared: float
    n_range: tuple
    cut_sensitivity: float = math.nan  # exponent shift: top-half vs full fit
    dropped: int = 0

    def __post_init__(self):
        if self.n_range[0] >= self.n_range[1]:
            raise ValueError("n_range must be increasing")
        if not 0.0 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared out of range: {self.r_squared}")


def _wls_loglog(ns, ps, ses):
    """Weighted LS of log p on log n; returns slope, intercept, r^2."""
    x = np.log(ns)
    y = np.log(ps)
    # delta method: var(log p) ~ (se/p)^2; exact points get the best weight
    rel = np.where(ps > 0, ses / ps, np.inf)
    if np.all(rel == 0):
        w = np.ones_like(x)
    else:
        floor = max(rel[rel > 0].min() if (rel > 0).any() else 1.0, 1e-12)
        w = 1.0 / np.maximum(rel, floor) ** 2
    W = w.sum()
    xb = (w * x).sum() / W
    yb = (w * y).sum() / W
    sxx = (w * (x - xb) ** 2).sum()
    sxy = (w * (x - xb) * (y - yb)).sum()
    slope = sxy / sxx
    intercept = yb - slope * xb
    resid = y - (intercept + slope * x)
    sst = (w * (y - yb) ** 2).sum()
    r2 = 1.0 - (w * resid ** 2).sum() / sst if sst > 0 else 1.0
    return slope, intercept, min(max(r2, 0.0), 1.0)


# the share of the horizon ladder, from the top, that enters the headline fit
_TOP_FRACTION = 0.5


def tail_fit(survival, sigma: float = 1.0) -> TailFit:
    """Fit P(tau > n) ~ A n^p from a survival curve.

    `survival` is a list of (n, estimate) pairs where estimate is either a
    probability or an object with .mean/.stderr. Time is rescaled by sigma^2
    so that non-unit-variance step laws compare against the unit-variance
    limit theorem. Only the top `_TOP_FRACTION` of the horizon ladder enters
    the headline fit (finite-n bias lives at small n); the shift of the
    exponent against the all-points fit is reported as cut sensitivity.
    """
    ns, ps, ses = [], [], []
    dropped = 0
    for n, est in survival:
        # numpy scalars have a .mean method, so test for .stderr instead
        p, se = (est.mean, est.stderr) if hasattr(est, "stderr") else (est, 0.0)
        if p <= 0:
            dropped += 1
            continue
        ns.append(float(n) * sigma ** 2)
        ps.append(float(p))
        ses.append(float(se))
    if len(ns) < 2:
        raise ValueError(f"need >= 2 usable points, have {len(ns)} "
                         f"({dropped} dropped at P<=0)")
    order = np.argsort(ns)
    ns = np.asarray(ns)[order]
    ps = np.asarray(ps)[order]
    ses = np.asarray(ses)[order]
    cut = max(0, min(len(ns) - 2, int(len(ns) * (1.0 - _TOP_FRACTION))))
    slope, intercept, r2 = _wls_loglog(ns[cut:], ps[cut:], ses[cut:])
    sens = math.nan
    if cut > 0:
        slope_all, _, _ = _wls_loglog(ns, ps, ses)
        sens = abs(slope - slope_all)
    return TailFit(exponent=float(slope), prefactor=float(math.exp(intercept)),
                   r_squared=float(r2), n_range=(float(ns[cut]), float(ns[-1])),
                   cut_sensitivity=sens, dropped=dropped)


# ---------------------------------------------------------------------------
# the limit laws exp(-|y|^2/2) Delta(y)^beta on W and their normalizations
#
# Mehta's integral gives, for every k,
#   int_{R^k} |Delta(y)|^beta exp(-|y|^2/2) dy
#       = (2pi)^{k/2} prod_{j=1..k} Gamma(1 + j beta/2) / Gamma(1 + beta/2),
# of which the chamber W holds 1/k!. Substituting y = v*1 + prefix sums c(g)
# of the gap vector g in (0,inf)^{k-1} and integrating the center v out
# analytically leaves
#   Z_beta = int_W ... dy = sqrt(2pi/k) * int_{g>0} Delta(c(g))^beta exp(-Q(g)/2) dg,
# with Q(g) = sum_i c_i^2 - (sum_i c_i)^2 / k.

def _chamber_integral(k, beta):
    """Z_beta: the integral of exp(-|y|^2/2) Delta(y)^beta over W."""
    ratio = math.prod(math.gamma(1.0 + j * beta / 2.0) / math.gamma(1.0 + beta / 2.0)
                      for j in range(1, k + 1))
    return (2.0 * math.pi) ** (k / 2.0) * ratio / math.factorial(k)


def _gap_integrand(k, beta):
    """Delta(c(g))^beta exp(-Q(g)/2) as a function of the k-1 gaps.

    Takes one array per gap and broadcasts them against each other.
    """
    pairs = list(combinations(range(k), 2))

    def f(*gaps):
        c = [0.0]
        for g in gaps:
            c.append(c[-1] + np.asarray(g, dtype=float))
        delta = 1.0
        for i, j in pairs:
            delta = delta * (c[j] - c[i])
        s = sum(c)
        q = sum(ci ** 2 for ci in c) - s ** 2 / k
        return delta ** beta * np.exp(-q / 2.0)

    return f


def _constants(k: int, cache_path=None):
    """(K, Z1) for k walkers, from Mehta's integral.

    With `cache_path`, the pair is also written there as {k: {K, Z1}}; the
    file is never read back.
    """
    z1 = _chamber_integral(k, 1)
    fact = math.prod(math.factorial(l) for l in range(1, k))
    K = z1 / ((2.0 * math.pi) ** (k / 2.0) * fact)
    if cache_path is not None:
        os.makedirs(os.path.dirname(cache_path) or ".", exist_ok=True)
        with open(cache_path, "w") as fh:
            json.dump({str(k): {"K": K, "Z1": z1}}, fh, indent=1)
    return K, z1


def constant_K(k: int, cache_path=None) -> float:
    """The limit constant in n^{k(k-1)/4} P_x(tau > n) -> K V(x)."""
    K, _ = _constants(k, cache_path)
    return K


def z1_constant(k: int, cache_path=None) -> float:
    """Normalization of the endpoint density exp(-|y|^2/2) Delta(y) on W."""
    _, Z1 = _constants(k, cache_path)
    return Z1


# ---------------------------------------------------------------------------
# goodness of fit to the beta law

def _k3_gap_density(g, beta):
    """Unnormalized density of a k=3 gap under the beta law (integer beta).

    The other gap h is integrated out of (g h (g+h))^beta exp(-(g^2+gh+h^2)/3)
    in closed form: with a = g/2 and u = h + a this is g^beta exp(-g^2/4)
    sum_j C(beta, j) (-a^2)^(beta-j) M_2j, where M_2j = int_a^inf u^2j
    exp(-u^2/3) du, M_0 = (sqrt(3 pi)/2) erfc(a/sqrt(3)) and, by parts,
    M_2j = (3/2)(a^(2j-1) exp(-a^2/3) + (2j-1) M_(2j-2)).
    """
    g = np.asarray(g, dtype=float)
    a = g / 2.0
    moments = [math.sqrt(3.0 * math.pi) / 2.0 * _erfc(a / math.sqrt(3.0))]
    for j in range(1, beta + 1):
        moments.append(1.5 * (a ** (2 * j - 1) * np.exp(-a * a / 3.0)
                              + (2 * j - 1) * moments[-1]))
    inner = sum(math.comb(beta, j) * (-a * a) ** (beta - j) * m
                for j, m in enumerate(moments))
    return g ** beta * np.exp(-g * g / 4.0) * inner


def _k2_gap_cdf_beta2(g):
    """P(3/2, x^2) = erf(x) - 2 x exp(-x^2) / sqrt(pi), x = |g|/2.

    x stops at 30, past which the value is 1 in float64 anyway, so that
    g = inf gives 1 and not inf * 0.
    """
    x = np.minimum(np.abs(g) / 2.0, 30.0)
    return 1.0 - _erfc(x) - 2.0 * _INV_SQRT_PI * x * np.exp(-x * x)


def _gap_marginal_cdf(k, beta):
    """CDF of a gap under the beta law (k = 2 or 3), as a callable.

    The law is invariant under y -> -reverse(y), so the k=3 gaps share one
    law. For k=2 the density g^beta exp(-g^2/4) has the exact CDF
    P((beta+1)/2, g^2/4), the regularized lower incomplete gamma function,
    in closed form for beta = 1 (1 - exp(-g^2/4)) and beta = 2; for k=3 the
    CDF is the trapezoid rule of `_k3_gap_density` on a grid of [0, 30].
    """
    if k == 2:
        if beta == 1:
            return lambda g: -np.expm1(-np.square(g) / 4.0)
        if beta == 2:
            return _k2_gap_cdf_beta2
        raise UnsupportedOperationError(
            f"k=2 gap marginals implemented for beta 1 and 2, got {beta}")
    if k != 3:
        raise UnsupportedOperationError(
            f"gap marginals implemented for k <= 3, got {k}")
    grid = np.linspace(0.0, 30.0, 4001)
    dens = _k3_gap_density(grid, beta)
    cum = np.concatenate(
        ([0.0], np.cumsum(np.diff(grid) * (dens[1:] + dens[:-1]) / 2.0)))
    cum /= cum[-1]
    return lambda g: np.interp(g, grid, cum)


def _ks_statistic(x, cdf):
    """One-sample two-sided KS statistic of x against `cdf`, as kstest has it.

    `cdf` is called once, on the distinct values of the sorted sample, and
    each value's result is repeated for its ties.
    """
    x = np.sort(x)
    first = np.concatenate(([True], x[1:] != x[:-1]))
    c = cdf(x[first])[np.cumsum(first) - 1]
    i = np.arange(len(c))
    return float(max(((i + 1) / len(c) - c).max(), (c - i / len(c)).max()))


def _tv(emp, model):
    """TV distance of two binned laws; each array's last cell is its overflow."""
    return 0.5 * float(np.abs(emp[:-1] - model[:-1]).sum()
                       + abs(emp[-1] - model[-1]))


# `_binned_tv` bins a sample by its center mean(y) in [-4, 4) and each of
# its k - 1 gaps in [0, 8), in 32 half-open bins of width 1/4 per axis
_TV_WIDTH, _TV_BINS, _TV_CENTER_LOW = 0.25, 32, -4.0
# a binned TV is sampling noise when exact draws of the same size would
# already show more than this, on average
_TV_FLOOR_MAX = 0.1
# Gauss-Legendre nodes per gap in a k = 3 gap cell; the cell masses then
# agree with adaptive quadrature to about 1e-17
_TV_GAUSS_NODES = 5


def _binned_model(k, beta):
    """Masses of the beta law (k = 2, 3) in the cells of `_binned_tv`,
    overflow last.

    The law factors into the center, N(0, 1/k), and the gaps, of density
    proportional to `_gap_integrand`, since |y|^2 = k mean(y)^2 + Q(gaps).
    Center cells take normal CDF differences. For k=2 the gap cells take
    differences of the exact `_gap_marginal_cdf`; for k=3 each of the 32x32
    gap cells takes a tensor Gauss-Legendre rule of the gap integrand.
    """
    edges = np.arange(_TV_BINS + 1) * _TV_WIDTH
    center = np.diff(_norm_cdf(math.sqrt(k) * (_TV_CENTER_LOW + edges)))
    if k == 2:
        gaps = np.diff(_gap_marginal_cdf(2, beta)(edges))
    else:
        t, w = np.polynomial.legendre.leggauss(_TV_GAUSS_NODES)
        nodes = (edges[:-1, None] + 0.5 * _TV_WIDTH * (t + 1.0)).ravel()
        weights = np.tile(0.5 * _TV_WIDTH * w, _TV_BINS)
        vals = (_gap_integrand(3, beta)(nodes[:, None], nodes[None, :])
                * np.outer(weights, weights))
        shape = (_TV_BINS, _TV_GAUSS_NODES) * 2
        gaps = (vals.reshape(shape).sum(axis=(1, 3)) * math.sqrt(2.0 * math.pi / 3)
                / _chamber_integral(3, beta))
    model = np.multiply.outer(center, gaps).ravel()
    return np.append(model, 1.0 - model.sum())


def _binned_tv(y, k, beta):
    """(tv, floor): the total-variation distance between samples y and the
    beta law (k = 2, 3), and the TV that as many exact draws from the binned
    law would show on average.

    Each sample is binned by its center and its gaps; mass of either measure
    outside the box is one overflow cell. The model's cell masses p_c come
    from `_binned_model`. The floor takes each cell count of m draws as
    normal, so that E|emp_c - p_c| = sqrt(2 p_c (1 - p_c) / (pi m)).
    """
    coords = np.column_stack([y.mean(axis=1), np.diff(y, axis=1)])
    lows = np.array([_TV_CENTER_LOW] + [0.0] * (k - 1))
    idx = np.floor((coords - lows) / _TV_WIDTH).astype(int)
    inside = np.all((idx >= 0) & (idx < _TV_BINS), axis=1)
    cells = _TV_BINS ** k
    flat = np.where(inside, np.ravel_multi_index(tuple(idx.T), (_TV_BINS,) * k,
                                                 mode="clip"), cells)
    emp = np.bincount(flat, minlength=cells + 1) / len(y)
    model = _binned_model(k, beta)
    tv = _tv(emp, model)
    # p (1 - p) goes into emp's buffer, which the TV no longer needs: a new
    # array of 32^3 cells here raised the peak RSS of k=3 runs by about 0.5 MB
    spread = np.square(model, out=emp)
    np.subtract(model, spread, out=spread)
    np.sqrt(np.clip(spread, 0.0, None, out=spread), out=spread)
    return tv, 0.5 * math.sqrt(2.0 / (math.pi * len(y))) * float(spread.sum())


def _limit_law_report(samples, k, beta, sigma=1.0):
    """Fit of samples / sigma to the beta law; returns (report, gaps).

    The report holds per-gap one-sample KS statistics against the gap
    marginal and the binned total-variation distance; callers add the gap
    moment they test.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0 or samples.shape[1] != k:
        raise ValueError("samples must be a nonempty (m, k) array")
    if not np.all(np.diff(samples, axis=1) > 0):
        raise ValueError("all samples must lie in the Weyl chamber")
    y = samples / sigma
    gaps = np.diff(y, axis=1)
    cdf = _gap_marginal_cdf(k, beta)
    ks = [_ks_statistic(gaps[:, i], cdf) for i in range(k - 1)]
    tv, floor = _binned_tv(y, k, beta)
    report = {
        "n_samples": len(y),
        "ks_per_gap": ks,
        "tv": tv,
        "tv_floor": floor,
        "tv_underpowered": floor > _TV_FLOOR_MAX,
    }
    return report, gaps


def _mean_stderr(x):
    """Column means of a (m, d) array and their standard errors, as lists."""
    m = len(x)
    stderr = ((x.std(axis=0, ddof=1) / math.sqrt(m)).tolist() if m > 1
              else [math.inf] * x.shape[1])
    return x.mean(axis=0).tolist(), stderr


def endpoint_density_distance(samples, k: int, sigma: float = 1.0) -> dict:
    """Goodness of fit of rescaled survivor endpoints to the limit law.

    Per-gap KS statistics against the gap marginals of the density
    proportional to exp(-|y|^2/2) Delta(y), a binned total-variation
    distance, and the sample gap means with standard errors. Samples are
    divided by sigma first so non-unit-variance laws compare against the
    same limit.
    """
    report, gaps = _limit_law_report(samples, k, 1, sigma)
    report["gap_mean"], report["gap_mean_stderr"] = _mean_stderr(gaps)
    return report


# ---------------------------------------------------------------------------
# local CLT diagnostic

def walk_pmf(dist: StepDistribution, n: int):
    """PMF of the n-step single-walk sum by convolution doubling.

    The sum lives on n lo + span Z, with lo and span those of the step
    lattice; the convolutions run on its sites alone. Returns (sites,
    masses), the masses as floats.
    """
    if not dist.is_lattice:
        raise UnsupportedOperationError("walk_pmf needs a lattice law")
    if n < 1:
        raise ValueError("n must be >= 1")
    lattice = dist.lattice
    power = np.array([w / lattice.denominator for w in lattice.weights])
    result = None
    m = n
    while m:
        if m & 1:
            result = power if result is None else np.convolve(result, power)
        m >>= 1
        if m:
            power = np.convolve(power, power)
    sites = n * lattice.lo + lattice.span * np.arange(len(result))
    return sites, result


def local_clt_deviation(dist: StepDistribution, n: int) -> dict:
    """Sup-norm gap between the exact n-step PMF and its Gaussian profile.

    Reports sup over lattice sites s of
        | (sqrt(n) * sigma / alpha) * p_n(s) - phi(s / (sqrt(n) sigma)) |
    with alpha the lattice span and phi the standard normal density. Only
    aperiodic laws (support offset 0 modulo the span) are handled: on a
    shifted sublattice the site set moves with n and the plain comparison
    above is not well defined.
    """
    if not dist.is_lattice:
        raise UnsupportedOperationError("local CLT diagnostic needs a lattice law")
    alpha = dist.lattice.span
    if dist.lattice.lo % alpha:
        raise UnsupportedOperationError(
            f"{dist.kind} lives on a shifted sublattice (offset "
            f"{dist.lattice.lo % alpha} mod {alpha}); the plain "
            "local-CLT comparison applies to offset-0 supports only")
    if n < 2:
        raise ValueError("n must be >= 2")
    sigma = math.sqrt(dist.variance)
    sites, masses = walk_pmf(dist, n)
    scale = math.sqrt(n) * sigma
    gauss = np.exp(-0.5 * (sites / scale) ** 2) / math.sqrt(2.0 * math.pi)
    dev = np.abs(scale / alpha * masses - gauss)
    worst = int(np.argmax(dev))
    return {
        "n": n,
        "sup_deviation": float(dev[worst]),
        "argmax_site": int(sites[worst]),
        "total_mass": float(masses.sum()),
    }
