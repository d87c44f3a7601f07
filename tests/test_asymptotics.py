"""Tail fits, the limit constant, endpoint diagnostics, and the local CLT."""

import json
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special, stats

from ordwalk.asymptotics import (
    _binned_model,
    _binned_tv,
    _chamber_integral,
    _erfc,
    _gap_integrand,
    _gap_marginal_cdf,
    _k3_gap_density,
    _ks_statistic,
    _norm_cdf,
    constant_K,
    endpoint_density_distance,
    local_clt_deviation,
    tail_fit,
    walk_pmf,
    z1_constant,
)
from ordwalk.distributions import UnsupportedOperationError, make_distribution
from ordwalk.engine import EstimateCI
from ordwalk.lattice_exact import _single_walk_counts, gap_chain_survival, star_survival
from ordwalk.transform import dyson_gap_cdf

RAD = make_distribution("rademacher")
LAZY = make_distribution("lazy_lattice")


@pytest.fixture()
def cache(tmp_path):
    return str(tmp_path / "constants.json")


def test_tail_fit_recovers_pure_power_law():
    ns = [2 ** i for i in range(4, 12)]
    pts = [(n, 3.0 * n ** -0.5) for n in ns]
    fit = tail_fit(pts)
    assert fit.exponent == pytest.approx(-0.5, abs=1e-10)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.cut_sensitivity == pytest.approx(0.0, abs=1e-10)


def test_tail_fit_accepts_estimates_and_drops_zeros():
    pts = [(16, EstimateCI(0.25, 0.01)),
           (64, EstimateCI(0.125, 0.01)),
           (256, EstimateCI(0.0625, 0.01)),
           (1024, EstimateCI(0.0, 0.0))]
    fit = tail_fit(pts)
    assert fit.dropped == 1
    assert fit.exponent == pytest.approx(-0.5, abs=0.01)


def test_tail_fit_sigma_rescaling():
    # halving the variance doubles the effective time without moving the slope
    ns = [2 ** i for i in range(4, 10)]
    pts = [(n, n ** -0.5) for n in ns]
    base = tail_fit(pts, sigma=1.0)
    scaled = tail_fit(pts, sigma=math.sqrt(0.5))
    assert scaled.exponent == pytest.approx(base.exponent, abs=1e-10)
    # A n^p in rescaled time t = n sigma^2 becomes (A sigma^{-2p}) t^p
    assert scaled.prefactor == pytest.approx(base.prefactor * math.sqrt(0.5),
                                             rel=1e-10)


def test_tail_fit_accepts_numpy_scalars():
    ns = [2 ** i for i in range(4, 12)]
    plain = tail_fit([(n, 3.0 * n ** -0.5) for n in ns])
    scalars = tail_fit([(np.int64(n), np.float64(3.0 * n ** -0.5)) for n in ns])
    assert scalars == plain


def test_tail_fit_needs_two_points():
    with pytest.raises(ValueError):
        tail_fit([(16, 0.5)])
    with pytest.raises(ValueError):
        tail_fit([(16, 0.0), (32, 0.0)])


def test_tail_fit_on_exact_survival_curve():
    horizons = [2 ** i for i in range(4, 13)]
    curve = gap_chain_survival(RAD, 1, horizons)
    fit = tail_fit(curve)
    assert abs(fit.exponent + 0.5) < 0.01
    assert fit.r_squared > 0.999


def test_constant_k2_closed_form(cache):
    assert constant_K(2, cache_path=cache) == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-12)


def test_constant_k3_schemes_agree(cache):
    # Mehta's closed form against the exact survival curve from (0, 1, 2),
    # where V = 16: n^{3/2} P(tau > n) / 16 -> K, within 1.6e-4 at n = 2^14
    K = constant_K(3, cache_path=cache)
    (n, p), = star_survival(3, [2 ** 14])
    assert n ** 1.5 * p / 16 == pytest.approx(K, rel=2.5e-4)


def test_constant_cache_roundtrip(cache):
    first = constant_K(3, cache_path=cache)
    again = constant_K(3, cache_path=cache)
    assert first == again
    assert z1_constant(3, cache_path=cache) > 0
    with open(cache) as fh:
        assert json.load(fh) == {"3": {"K": first, "Z1": z1_constant(3)}}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("beta", [1, 2])
def test_chamber_integral_matches_adaptive_quadrature(k, beta):
    # the gap integrand, which `_binned_model` integrates, against Mehta
    gap_integral, _ = integrate.nquad(_gap_integrand(k, beta), [(0.0, np.inf)] * (k - 1),
                                      opts={"epsabs": 1e-10, "epsrel": 1e-10})
    quadrature = math.sqrt(2.0 * math.pi / k) * gap_integral
    assert _chamber_integral(k, beta) == pytest.approx(quadrature, rel=1e-9)


def test_constants_ignore_planted_cache(cache):
    with open(cache, "w") as fh:
        json.dump({"2": {"K": 1.0, "Z1": 1.0, "scheme_gap": 0.5}}, fh)
    assert constant_K(2, cache_path=cache) == pytest.approx(
        1.0 / math.sqrt(math.pi), rel=1e-12)


def test_constants_touch_no_default_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    constant_K(3)
    z1_constant(3)
    assert os.listdir(tmp_path) == []


def test_z1_k2_value(cache):
    # int_W e^{-|y|^2/2} (y2 - y1) dy = sqrt(pi) * ... ; K relation fixes it
    z1 = z1_constant(2, cache_path=cache)
    assert z1 == pytest.approx(constant_K(2, cache_path=cache) * 2.0 * math.pi,
                               rel=1e-12)


def _sample_endpoint_limit(size, rng):
    """Exact samples from the k=2 endpoint limit density.

    Factorizes as center v ~ N(0, 1/2) independent of gap g with density
    (g/2) exp(-g^2/4), sampled by CDF inversion g = 2 sqrt(-log u).
    """
    u = rng.random(size)
    g = 2.0 * np.sqrt(-np.log(u))
    v = rng.normal(0.0, math.sqrt(0.5), size)
    return np.stack([v - g / 2.0, v + g / 2.0], axis=1)


def test_endpoint_distance_self_test():
    rng = np.random.default_rng(7)
    samples = _sample_endpoint_limit(20_000, rng)
    rep = endpoint_density_distance(samples, 2)
    assert rep["n_samples"] == 20_000
    assert rep["ks_per_gap"][0] < 0.02
    assert abs(rep["gap_mean"][0] - math.sqrt(math.pi)) < \
        4 * rep["gap_mean_stderr"][0]
    assert rep["tv"] < 0.08
    assert not rep["tv_underpowered"]


def test_endpoint_distance_detects_wrong_law():
    rng = np.random.default_rng(8)
    g = np.abs(rng.normal(0.0, 1.0, 5000)) + 1e-9  # not the limit gap law
    v = rng.normal(0.0, math.sqrt(0.5), 5000)
    bad = np.stack([v - g / 2, v + g / 2], axis=1)
    rep = endpoint_density_distance(bad, 2)
    assert rep["ks_per_gap"][0] > 0.1


def test_endpoint_distance_input_validation():
    with pytest.raises(ValueError):
        endpoint_density_distance(np.zeros((0, 2)), 2)
    with pytest.raises(ValueError):
        endpoint_density_distance(np.array([[1.0, 0.0]]), 2)


def test_limit_law_report_k4_unsupported():
    # the gap marginals and the binned model exist for k = 2 and 3 only
    samples = np.array([[0.0, 1.0, 2.0, 3.0]])
    with pytest.raises(UnsupportedOperationError):
        endpoint_density_distance(samples, 4)


@pytest.mark.parametrize("beta", [1, 2])
def test_gap_marginal_cdf_k2_is_exact(beta):
    def dens(x):
        return x ** beta * math.exp(-x * x / 4.0)

    total = integrate.quad(dens, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)[0]
    cdf = _gap_marginal_cdf(2, beta)
    for g in (0.0, 0.1, 0.5, 1.3, 2.0, 4.0, 7.5, 12.0):
        mass = integrate.quad(dens, 0.0, g, epsabs=1e-13, epsrel=1e-13)[0]
        assert abs(float(cdf(g)) - mass / total) <= 1e-12
    assert float(cdf(60.0)) == 1.0


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("i", [0, 1])
def test_k3_gap_density_is_the_marginal(i, beta):
    # the closed form against the gap integrand integrated over the other gap
    f = _gap_integrand(3, beta)
    for g in (0.5, 1.5, 3.0, 6.0):
        def slice_f(u):
            return float(f(g, u) if i == 0 else f(u, g))
        mass, _ = integrate.quad(slice_f, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)
        assert float(_k3_gap_density(g, beta)) == pytest.approx(mass, rel=1e-12)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("i", [0, 1])
def test_gap_marginal_cdf_k3_matches_quadrature(i, beta):
    f = _gap_integrand(3, beta)
    total = _chamber_integral(3, beta) / math.sqrt(2.0 * math.pi / 3)
    cdf = _gap_marginal_cdf(3, beta)  # one CDF for both gaps
    for g in (0.5, 1.5, 3.0):
        def slice_f(x, u):
            return f(x, u) if i == 0 else f(u, x)
        mass, _ = integrate.nquad(slice_f, [(0.0, g), (0.0, np.inf)],
                                  opts={"epsabs": 1e-11, "epsrel": 1e-11})
        # the CDF is a trapezoid rule on a grid of step 0.0075
        assert cdf(g) == pytest.approx(mass / total, abs=1e-5)


# 0.46875 and 4, where rational erfc approximations such as Cody's switch
# ranges, their float neighbours, 0 and the infinities
_BRANCH_EDGES = [e * sign for e in (0.46875, 4.0) for sign in (1.0, -1.0)]
_ERFC_POINTS = np.concatenate([
    np.linspace(-40.0, 40.0, 160_001), _BRANCH_EDGES,
    np.nextafter(_BRANCH_EDGES, np.inf), np.nextafter(_BRANCH_EDGES, -np.inf),
    [0.0, -0.0, np.inf, -np.inf]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ours, reference", [(_erfc, special.erfc), (_norm_cdf, special.ndtr)],
                         ids=["erfc", "Phi"])
def test_erfc_kernel_matches_scipy(ours, reference):
    # scipy stays out of the package and serves here as the reference; near
    # x = 26 its erfc is itself off by about 6e-14 relative (against mpmath)
    got, want = ours(_ERFC_POINTS), reference(_ERFC_POINTS)
    err = np.abs(got - want)
    assert err.max() <= 1e-15
    shown = want > 1e-300
    assert (err[shown] / want[shown]).max() <= 1e-13


def test_erfc_kernel_is_libm():
    x = _ERFC_POINTS[np.isfinite(_ERFC_POINTS)]
    assert np.array_equal(_erfc(x), [math.erfc(v) for v in x.tolist()])


@pytest.mark.filterwarnings("error")
def test_erfc_kernel_at_the_ends():
    assert _erfc(0.0) == 1.0 and _erfc(np.inf) == 0.0 and _erfc(-np.inf) == 2.0
    assert _norm_cdf(-np.inf) == 0.0 and _norm_cdf(0.0) == 0.5 and _norm_cdf(np.inf) == 1.0
    assert np.isnan(_erfc(np.nan)) and np.isnan(_norm_cdf([np.nan, 1.0])[0])
    assert np.ndim(_erfc(1.0)) == 0 and _erfc(np.zeros((2, 3))).shape == (2, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta, tol", [(1, 1e-15), (2, 5e-15)])
def test_k2_gap_cdf_is_the_incomplete_gamma(beta, tol):
    # P((beta + 1)/2, g^2/4) at shapes 1 and 3/2, in closed form. On this grid
    # scipy's gammainc(3/2, .) is itself off by up to 4.1e-15 (near g = 2.5,
    # against mpmath), the closed form by 1.1e-16, hence the looser tol at 3/2
    g = np.concatenate([np.linspace(0.0, 60.0, 60_001), [np.inf]])
    cdf = _gap_marginal_cdf(2, beta)
    assert np.abs(cdf(g) - special.gammainc((beta + 1) / 2.0, g * g / 4.0)).max() <= tol
    assert cdf(0.0) == 0.0 and cdf(np.inf) == 1.0
    if beta == 2:  # erf(x) - 2 x exp(-x^2)/sqrt(pi), x = g/2, with libm's erf
        libm = [math.erf(x) - 2.0 * x * math.exp(-x * x) / math.sqrt(math.pi)
                for x in (g[:-1] / 2.0).tolist()]
        assert np.abs(cdf(g[:-1]) - libm).max() <= 1e-15


@pytest.mark.parametrize("beta", [0, 3, 4])
def test_k2_gap_cdf_needs_beta_1_or_2(beta):
    with pytest.raises(UnsupportedOperationError, match="beta 1 and 2"):
        _gap_marginal_cdf(2, beta)


@pytest.mark.parametrize("beta", [1, 2])
def test_k3_gap_cdf_is_the_cumulative_trapezoid(beta):
    grid = np.linspace(0.0, 30.0, 4001)
    cum = integrate.cumulative_trapezoid(_k3_gap_density(grid, beta), grid, initial=0.0)
    assert np.array_equal(_gap_marginal_cdf(3, beta)(grid), cum / cum[-1])


@pytest.mark.parametrize("n", [2000, 10_000, 20_000])
@pytest.mark.parametrize("cdf", [
    _gap_marginal_cdf(2, 1),
    _gap_marginal_cdf(2, 2),
    _gap_marginal_cdf(3, 1),
    lambda g: dyson_gap_cdf(1.0, 0.5, g),
], ids=["k2-beta1", "k2-beta2", "k3-beta1", "dyson"])
def test_ks_statistic_is_the_kstest_statistic(cdf, n):
    # scipy.stats stays out of the package and serves here as the reference
    x = np.abs(np.random.default_rng(n).normal(1.5, 1.0, n))
    assert _ks_statistic(x, cdf) == float(stats.kstest(x, cdf).statistic)


@pytest.mark.parametrize("cdf", [
    _gap_marginal_cdf(2, 1),
    lambda g: dyson_gap_cdf(1.0, 0.5, g),
], ids=["k2-beta1", "dyson"])
def test_ks_statistic_on_repeated_values_is_the_kstest_statistic(cdf):
    # rescaled lattice samples repeat: ties must count as kstest counts them
    x = np.random.default_rng(7).binomial(64, 0.4, 10_000) / 8.0
    assert _ks_statistic(x, cdf) == float(stats.kstest(x, cdf).statistic)


def test_ks_statistic_calls_the_cdf_once_on_the_distinct_values():
    x = np.random.default_rng(7).binomial(64, 0.4, 10_000) / 8.0
    calls = []

    def cdf(g):
        calls.append(np.array(g))
        return _gap_marginal_cdf(2, 1)(g)

    _ks_statistic(x, cdf)
    assert len(calls) == 1 and np.array_equal(calls[0], np.unique(x))


def _binned_tv_reference(y, k, beta):
    """Row-by-row binning in (center, gaps) and a cell-by-cell TV loop."""
    width, nbins = 0.25, 32
    model = _binned_model(k, beta)
    counts = Counter()
    for row in y.tolist():
        coords = [sum(row) / k] + [b - a for a, b in zip(row, row[1:])]
        cell = tuple(int(math.floor((c - lo) / width))
                     for c, lo in zip(coords, [-4.0] + [0.0] * (k - 1)))
        if all(0 <= j < nbins for j in cell):
            counts[cell] += 1
    n = len(y)
    tv = 0.5 * abs(1.0 - sum(counts.values()) / n - model[-1])
    for flat, mass in enumerate(model[:-1].tolist()):
        cell = np.unravel_index(flat, (nbins,) * k)
        tv += 0.5 * abs(counts.get(tuple(int(j) for j in cell), 0) / n - mass)
    return tv


@pytest.mark.parametrize("k, beta", [(2, 1), (2, 2), (3, 1)])
def test_binned_tv_matches_loop_reference(k, beta):
    y = np.sort(np.random.default_rng(3).normal(0.0, 1.5, (3000, k)), axis=1)
    assert _binned_tv(y, k, beta)[0] == pytest.approx(
        _binned_tv_reference(y, k, beta), abs=1e-12)


def test_binned_tv_bins_are_half_open():
    # a center on the bottom edge of the box falls in the first bin; a center
    # on its top edge, a gap on its top edge and a center below it overflow
    def tv(row):
        return _binned_tv(np.array([row]), 2, 1)[0]

    below = tv([-4.6, -3.6])
    assert tv([3.5, 4.5]) == below and tv([-4.0, 4.0]) == below
    assert tv([-4.5, -3.5]) == tv([-4.4, -3.4]) != below


@pytest.mark.parametrize("k, m", [(2, 5000), (2, 20000), (3, 20000)])
def test_binned_tv_floor_is_the_tv_of_exact_draws(k, m):
    # the mean TV of multinomial draws from the binned law itself; the
    # normal approximation reads a little high where cells are sparse
    model = _binned_model(k, 1)
    rng = np.random.default_rng(11)
    draws = [0.5 * np.abs(rng.multinomial(m, model / model.sum()) / m - model).sum()
             for _ in range(20)]
    y = np.sort(rng.normal(0.0, 1.0, (m, k)), axis=1)
    floor = _binned_tv(y, k, 1)[1]
    assert np.mean(draws) <= floor <= 1.1 * np.mean(draws)


@pytest.mark.parametrize("k, m, flagged", [(2, 5000, False), (2, 20000, False),
                                           (3, 2000, True), (3, 20000, True)])
def test_tv_underpowered_follows_the_floor(k, m, flagged):
    # 32^3 cells for k = 3: even 20000 exact draws show a TV above 0.1
    y = np.sort(np.random.default_rng(12).normal(0.0, 1.0, (m, k)), axis=1)
    rep = endpoint_density_distance(y, k)
    assert rep["tv_floor"] == _binned_tv(y, k, 1)[1]
    assert rep["tv_underpowered"] is flagged
    assert (rep["tv_floor"] > 0.1) is flagged


@pytest.mark.parametrize("beta", [1, 2])
def test_binned_model_k2_is_center_times_gap_cells(beta):
    edges = np.arange(33) * 0.25
    center = np.diff(special.ndtr(math.sqrt(2.0) * (edges - 4.0)))
    gap = np.diff(_gap_marginal_cdf(2, beta)(edges))
    model = _binned_model(2, beta)
    assert np.abs(model[:-1] - np.outer(center, gap).ravel()).max() <= 1e-12
    assert model[-1] == pytest.approx(1.0 - center.sum() * gap.sum(), abs=1e-12)


@pytest.mark.parametrize("beta", [1, 2])
def test_binned_model_k3_gap_cells_sum_to_the_marginal(beta):
    # summed over the center and one gap, the k=3 cells are the bins of the
    # one-gap marginal; the center's mass in the box is read off and divided out
    edges = np.arange(33) * 0.25
    cells = _binned_model(3, beta)[:-1].reshape(32, 32, 32).sum(axis=0)
    cells /= np.diff(special.ndtr(math.sqrt(3.0) * (edges - 4.0))).sum()
    bins = np.diff(_gap_marginal_cdf(3, beta)(edges))
    assert np.abs(cells.sum(axis=1) - bins).max() <= 1e-5
    assert np.abs(cells.sum(axis=0) - bins).max() <= 1e-5


def _assert_walk_pmf_is_the_exact_law(dist, n):
    """The float walk_pmf against lattice_exact's exact single-walk law."""
    exact = {v: Fraction(c, dist.denominator ** n)
             for (v,), c in _single_walk_counts(dist, n)[n].items()}
    sites, masses = walk_pmf(dist, n)
    assert set(sites[masses > 0].tolist()) == set(exact)
    for site, mass in zip(sites.tolist(), masses.tolist()):
        assert abs(mass - float(exact.get(site, 0))) <= 1e-15


def test_walk_pmf_exact_small():
    _assert_walk_pmf_is_the_exact_law(RAD, 2)
    sites, masses = walk_pmf(RAD, 2)
    assert dict(zip(sites.tolist(), masses.tolist())) == {-2: 0.25, 0: 0.5, 2: 0.25}


def test_walk_pmf_float_matches_exact():
    _assert_walk_pmf_is_the_exact_law(LAZY, 9)


def test_walk_pmf_convolves_the_span_lattice_alone():
    # a span-2 law: the sum of 4 steps lives on -8, -6, ..., 8, with the
    # masses of convolving the unit-spaced array and its zeros
    dist = make_distribution("custom_lattice",
                             masses={-2: Fraction(1, 8), 0: Fraction(3, 4), 2: Fraction(1, 8)})
    sites, masses = walk_pmf(dist, 4)
    assert sites.tolist() == list(range(-8, 9, 2))
    unit = np.array([1 / 8, 0.0, 3 / 4, 0.0, 1 / 8])
    square = np.convolve(unit, unit)
    assert masses.tolist() == np.convolve(square, square)[::2].tolist()
    _assert_walk_pmf_is_the_exact_law(dist, 4)


def test_walk_pmf_rejects_continuous():
    with pytest.raises(UnsupportedOperationError):
        walk_pmf(make_distribution("gaussian"), 4)


def test_local_clt_decays():
    d256 = local_clt_deviation(LAZY, 256)
    d1024 = local_clt_deviation(LAZY, 1024)
    assert d256["sup_deviation"] < 1e-3
    assert d1024["sup_deviation"] < d256["sup_deviation"]
    assert d256["total_mass"] == pytest.approx(1.0, abs=1e-12)


def test_local_clt_offset_lattice_unsupported():
    with pytest.raises(UnsupportedOperationError, match="sublattice"):
        local_clt_deviation(RAD, 256)
