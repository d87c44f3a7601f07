"""Conditioned-walk transform: closed-form V, limit ensembles, BM marginals."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import integrate, stats

import ordwalk.transform as tr
from ordwalk import engine, lattice_exact
from ordwalk.distributions import make_distribution
from ordwalk.engine import PartialResultError, WalkConfig
from ordwalk.geometry import in_weyl, vandermonde
from ordwalk.lattice_exact import (
    TruncationError,
    exact_survival_kernel,
    exact_vn,
    gap_chain_alive_distribution,
    gap_chain_survival,
    star_survival,
)

RAD = make_distribution("rademacher")


def test_closed_form_table_values():
    v = tr._rademacher_v
    assert v((0, 1)) == 2
    assert v((0, 2)) == 2
    assert v((0, 3)) == 4
    assert v((5, 9)) == 4
    assert v((1, 1)) == 0 and v((2, 1)) == 0  # the exits of one step
    assert v((0, 1, 2)) == 16 and v((0, 1, 2, 3)) == 768
    assert v((0, 3, 4, 7)) == vandermonde((0, 4, 6, 10))
    rows = np.array([(0, 1, 2), (0, 2, 5), (3, 4, 5)])
    assert v(rows).tolist() == [v(tuple(row)) for row in rows.tolist()]


def test_closed_form_is_harmonic_for_killed_gap_chain():
    # the gap moves -2/0/+2 with masses 1/4, 1/2, 1/4 and is killed at <= 0;
    # the closed form must reproduce itself exactly under one step
    def v(gap):
        return int(tr._rademacher_v((0, gap))) if gap > 0 else 0

    for g in range(1, 12):
        one_step = (Fraction(1, 4) * v(g + 2) + Fraction(1, 2) * v(g)
                    + Fraction(1, 4) * v(g - 2))
        assert one_step == v(g)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rademacher_v_is_harmonic_and_vanishes_at_exits(k):
    # on every gap vector in {1..5}^(k-1), one killed step of Delta(x + c)
    # returns it exactly, and it reads 0 wherever the step leaves the chamber
    steps = list(product((-1, 1), repeat=k))
    for gaps in product(range(1, 6), repeat=k - 1):
        x = np.concatenate([[0], np.cumsum(gaps)])
        one_step = Fraction(0)
        for s in steps:
            y = x + s
            v = int(tr._rademacher_v(y))
            if in_weyl(tuple(y.tolist())):
                one_step += Fraction(v, 2 ** k)
            else:
                assert v == 0
        assert one_step == int(tr._rademacher_v(x))


def test_closed_form_dominates_exact_truncations():
    # V_n increases to V; at n = 20 the truncation sits just below the limit
    for gap in (1, 2, 3):
        exact = float(exact_vn(WalkConfig(2, (0, gap), RAD), 20)[-1])
        limit = float(tr._rademacher_v((0, gap)))
        assert exact <= limit
        assert limit - exact < 0.5


def _transform_step_law(x):
    """Exact one-step law p(x -> y) V(y) / V(x) of the k=2 Rademacher transform."""
    vx = int(tr._rademacher_v(x))
    law = {}
    steps = [RAD.lattice.lo + RAD.lattice.span * j for j in range(len(RAD.lattice.weights))]
    for a, b in product(steps, repeat=2):
        y = (x[0] + a, x[1] + b)
        if in_weyl(y):
            law[y] = RAD.masses[a] * RAD.masses[b] * int(tr._rademacher_v(y)) / vx
    return law


def test_transform_step_exact_normalizes_and_moves():
    for x in [(0, g) for g in range(1, 8)] + [(-3, 4), (5, 6)]:
        assert sum(_transform_step_law(x).values()) == 1
    # one step of the pair sampler from gap 3 makes all four ordered moves,
    # with the exact transformed masses 1/4, 1/4, 3/8 and 1/8
    paths = 40_000
    pts = tr.transformed_pair_paths((0, 3), 1, paths, master_seed=5)
    law = _transform_step_law((0, 3))
    assert len(law) == 4
    for y, p in law.items():
        freq = float((pts == y).all(axis=1).mean())
        assert abs(freq - float(p)) < 5 * math.sqrt(float(p * (1 - p)) / paths)


def test_transformed_gap_distribution_moments():
    gaps, probs = tr.transformed_gap_distribution(1, 1024)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (gaps % 2 == 1).all()  # parity preserved from an odd start
    m2 = float((probs * (gaps / math.sqrt(1024)) ** 2).sum())
    assert m2 == pytest.approx(5.864, abs=0.01)  # limit value 6 from below


def _exact_h_transformed_gap_law(start_gap, n):
    """Rational P(tau > n, gap(n) = g) V(g) / V(g0) from the exact k=2 kernel."""
    cfg = WalkConfig(k=2, start=(0, start_gap), dist=RAD)
    v0 = int(tr._rademacher_v((0, start_gap)))
    law = {}
    for (a, b), mass in exact_survival_kernel(cfg, n).masses.items():
        law[b - a] = law.get(b - a, Fraction(0)) + mass * int(tr._rademacher_v((a, b))) / v0
    return law


@pytest.mark.parametrize("start_gap", [1, 2])
def test_transformed_gap_distribution_is_the_h_transform(start_gap):
    for n in range(0, 11):
        law = _exact_h_transformed_gap_law(start_gap, n)
        assert sum(law.values(), Fraction(0)) == 1  # V is harmonic, exactly
        gaps, probs = tr.transformed_gap_distribution(start_gap, n)
        assert set(gaps.tolist()) == set(law)
        for g, p in zip(gaps.tolist(), probs.tolist()):
            assert abs(p - float(law[g])) <= 1e-15


def test_transformed_gap_distribution_total_mass_at_4096():
    _, probs = tr.transformed_gap_distribution(1, 4096)
    assert abs(probs.sum() - 1.0) <= 1e-13


def test_transformed_gap_paths_match_exact_law():
    n, paths = 64, 40_000
    draws = tr.transformed_gap_paths(1, n, paths, master_seed=1)
    gaps, probs = tr.transformed_gap_distribution(1, n)
    table = dict(zip(gaps.tolist(), probs.tolist()))
    for g in (1, 3, 5, 9):
        p = table[g]
        freq = float((draws == g).mean())
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / paths)


def test_transformed_gap_paths_match_exact_law_from_an_even_gap():
    n, paths = 256, 40_000
    draws = tr.transformed_gap_paths(16, n, paths, master_seed=1)
    assert (draws % 2 == 0).all()
    gaps, probs = tr.transformed_gap_distribution(16, n)
    table = dict(zip(gaps.tolist(), probs.tolist()))
    for g in (4, 16, 34, 60):
        p = table[g]
        freq = float((draws == g).mean())
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / paths)


def _bessel_chain_laws(w0, moves):
    """Rational laws of w after 0..moves moves of the chain that steps
    w -> w + 1 with chance (w + 1) / (2 w) and w -> w - 1 otherwise."""
    law = {w0: Fraction(1)}
    laws = [law]
    for _ in range(moves):
        nxt = {}
        for w, p in law.items():
            up = p * Fraction(w + 1, 2 * w)
            nxt[w + 1] = nxt.get(w + 1, Fraction(0)) + up
            if w > 1:
                nxt[w - 1] = nxt.get(w - 1, Fraction(0)) + p - up
        law = nxt
        laws.append(law)
    return laws


@pytest.mark.parametrize("seed", [2 ** 64 + 1, -3])
def test_transformed_samplers_refuse_a_seed_the_philox_key_would_alias(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        tr.transformed_gap_paths(1, 8, 10, master_seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        tr.transformed_pair_paths((0, 1), 8, 10, master_seed=seed)


def _move_laws_by_m(w0, ms):
    """`tr._move_laws` row by row: m -> (w, probs) on the cells with mass."""
    ms = np.asarray(ms)
    laws = {}
    for rows, w, probs in tr._move_laws(w0, ms):
        for m, w_row, p_row in zip(ms[rows].tolist(), w, probs):
            laws[m] = w_row[p_row > 0], p_row[p_row > 0]
    return laws


@pytest.mark.parametrize("w0", [1, 2, 8])
def test_move_law_is_the_bessel_chain_iterated(w0):
    # the reflection formula after m moves against the move-by-move chain
    chain = _bessel_chain_laws(w0, 30)
    table = _move_laws_by_m(w0, range(len(chain)))
    for m, law in enumerate(chain):
        w, probs = table[m]
        assert w.tolist() == sorted(law)
        assert max(abs(p - float(law[x])) for x, p in zip(w.tolist(), probs.tolist())) <= 1e-15


@pytest.mark.parametrize("start_gap", [1, 3, 8, 16])
def test_move_law_mixture_is_the_transformed_gap_law(start_gap):
    # the Bin(n, 1/2) mixture of the laws the sampler inverts against the
    # killed gap DP times V: two independent computations of one law
    v0 = int(tr._rademacher_v((0, start_gap)))
    for n in (64, 100, 256, 1000):
        gaps, exact = tr.transformed_gap_distribution(start_gap, n)
        mixture = np.zeros(start_gap + 2 * n + 1)  # every gap n steps reach
        table = _move_laws_by_m(v0 // 2, range(n + 1))
        for m in range(n + 1):
            w, probs = table[m]
            g = 2 * w - (v0 - start_gap)
            mixture[g] += probs / probs.sum() * (math.comb(n, m) / 2 ** n)
        mixture[gaps] -= exact
        assert np.abs(mixture).max() <= 1e-15, (start_gap, n)


def test_move_law_fails_loudly_on_a_narrow_window(monkeypatch):
    monkeypatch.setattr(tr, "_WINDOW_SIGMAS", 2.0)
    list(tr._move_laws(1, np.array([0])))
    with pytest.raises(TruncationError, match="after 400 moves"):
        list(tr._move_laws(1, np.array([0, 400])))


def _one_move_law(w0, m):
    # one move count's law on its own, the reference for the batched table
    half = math.ceil(lattice_exact._WINDOW_SIGMAS / 2 * math.sqrt(m)) + 1
    x = np.arange(max(m // 2 - half, 0), min(m // 2 + half, m) + 1)
    pmf = np.ones(x.size)
    pmf[1:] = (m - x[:-1]) / (x[:-1] + 1)
    np.cumprod(pmf, out=pmf)
    pmf /= pmf.sum()
    pmf[:max(x.size - w0, 0)] -= pmf[w0:]
    w = w0 - m + 2 * x
    keep = w >= 1
    return w[keep], pmf[keep] * w[keep] / w0


def _gaps_one_move_count_at_a_time(start_gap, moves, rng):
    # one law and one searchsorted per distinct move count
    v0 = int(tr._rademacher_v((0, start_gap)))
    target = 1.0 - rng.random(moves.size)
    out = np.empty(moves.size, dtype=np.int64)
    for m in np.unique(moves).tolist():
        paths = np.flatnonzero(moves == m)
        w, probs = _one_move_law(v0 // 2, m)
        cdf = np.cumsum(probs)
        out[paths] = w[np.searchsorted(cdf, target[paths] * cdf[-1], side="left")]
    return 2 * out - (v0 - start_gap)


@pytest.mark.parametrize("n", [0, 1, 7, 64, 256, 1024, 4096])
@pytest.mark.parametrize("start_gap", [1, 3, 16, 32])
def test_transformed_gaps_are_the_per_move_count_inversion(start_gap, n):
    # the sliced table and its binary search pick the very cells that each
    # move count's own law and CDF pick, path by path
    for seed in (0, 1, 2):
        moves = np.random.default_rng(seed).binomial(n, 0.5, 2000)
        got = tr._transformed_gaps(start_gap, moves, np.random.default_rng([seed, 1]))
        want = _gaps_one_move_count_at_a_time(start_gap, moves,
                                              np.random.default_rng([seed, 1]))
        assert np.array_equal(got, want), (start_gap, n, seed)


def test_transformed_gap_paths_of_no_paths_is_empty():
    assert tr.transformed_gap_paths(3, 64, 0).shape == (0,)
    assert list(tr._move_laws(1, np.array([], dtype=np.int64))) == []


@pytest.mark.parametrize("ms", [np.arange(1001), np.arange(60_000, 70_000, 7), np.array([0]),
                                np.unique(np.random.default_rng(3).binomial(4096, 0.5, 4000))])
def test_move_law_slices_stay_within_their_cells(ms):
    # the table is never built whole: every slice holds at most 2**14 cells,
    # and the slices cover the move counts in order
    assert tr._LAW_SLICE_CELLS == 2 ** 14
    spans = []
    for rows, w, probs in tr._move_laws(2, ms):
        assert w.shape == probs.shape and len(probs) == rows.stop - rows.start
        assert probs.size <= 2 ** 14
        spans.append((rows.start, rows.stop))
    assert spans[0][0] == 0 and spans[-1][1] == ms.size
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def test_transformed_pair_paths_consistent_with_gap_chain():
    pts = tr.transformed_pair_paths((0, 1), 32, 5_000, master_seed=2)
    assert pts.shape == (5_000, 2)
    assert (np.diff(pts, axis=1) > 0).all()
    gaps = np.diff(pts, axis=1)[:, 0].astype(int)
    # both samplers draw the moves and the gaps first from one stream
    assert np.array_equal(gaps, tr.transformed_gap_paths(1, 32, 5_000, master_seed=2))
    exact_gaps, probs = tr.transformed_gap_distribution(1, 32)
    table = dict(zip(exact_gaps.tolist(), probs.tolist()))
    for g in (1, 3, 7):
        p = table[g]
        freq = float((gaps == g).mean())
        assert abs(freq - p) < 5 * math.sqrt(p * (1 - p) / 5_000)
    # sum increments are symmetric: the center stays near the start
    centers = pts.mean(axis=1)
    assert abs(centers.mean() - 0.5) < 5 * centers.std() / math.sqrt(5_000)


def test_hermite_gap_tv_exact_decreases():
    vals = [tr.hermite_gap_tv_exact(1, n) for n in (64, 256, 1024)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.03


def _sample_hermite_limit(size, rng):
    """Exact samples from the k=2 squared-Vandermonde ensemble.

    Center v ~ N(0, 1/2); gap density proportional to g^2 exp(-g^2/4) is a
    chi distribution with 3 degrees of freedom scaled by sqrt(2).
    """
    g = np.sqrt(2.0) * stats.chi.rvs(3, size=size, random_state=rng)
    v = rng.normal(0.0, math.sqrt(0.5), size)
    return np.stack([v - g / 2.0, v + g / 2.0], axis=1)


def test_hermite_distance_self_test():
    rng = np.random.default_rng(11)
    samples = _sample_hermite_limit(20_000, rng)
    rep = tr.hermite_distance(samples, 2)
    assert rep["ks_per_gap"][0] < 0.02
    assert abs(rep["gap_sq_mean"][0] - 6.0) < 4 * rep["gap_sq_stderr"][0]
    assert rep["tv"] < 0.08


def test_hermite_distance_rejects_disordered():
    with pytest.raises(ValueError):
        tr.hermite_distance(np.array([[1.0, 0.0]]), 2)


def test_rejection_transform_small_case():
    cfg = WalkConfig(2, (0, 1), RAD, master_seed=3)
    out = tr.transform_paths_rejection(cfg, t_steps=4, paths=2_000)
    assert out["samples"].shape == (2_000, 2)
    assert 0 < out["acceptance_rate"] <= 1
    assert out["guard_m"] == 32
    assert out["bias_proxy_tv"] < 0.2


def test_rejection_transform_at_step_zero_returns_the_start():
    cfg = WalkConfig(3, (0, 2, 5), RAD, master_seed=1)
    out = tr.transform_paths_rejection(cfg, t_steps=0, paths=300)
    assert out["samples"].dtype == np.int64
    assert (out["samples"] == (0, 2, 5)).all() and out["samples"].shape == (300, 3)
    assert out["guard_m"] == 8 and out["bias_proxy_tv"] == 0.0


def test_rejection_transform_continuous_law_gives_float_rows():
    cfg = WalkConfig(2, (0.0, 1.5), make_distribution("gaussian"), master_seed=2)
    out = tr.transform_paths_rejection(cfg, t_steps=3, paths=500)
    assert out["samples"].dtype == np.float64 and out["samples"].shape == (500, 2)
    assert (np.diff(out["samples"], axis=1) > 0).all()
    assert len(np.unique(out["samples"][:, 0])) == 500


def test_rejection_transform_rerun_is_identical():
    cfg = WalkConfig(3, (0, 1, 2), RAD, master_seed=6)
    first = tr.transform_paths_rejection(cfg, t_steps=2, paths=400)
    again = tr.transform_paths_rejection(cfg, t_steps=2, paths=400)
    assert first["samples"].tobytes() == again["samples"].tobytes()
    assert {a: b for a, b in first.items() if a != "samples"} == \
        {a: b for a, b in again.items() if a != "samples"}


def test_rejection_transform_keeps_the_engine_blocks_rows():
    # the kept rows are, in block order, the step-t positions of the engine
    # blocks' paths with tau > m; the bias proxy's rows are those with tau > 2m
    cfg = WalkConfig(3, (0, 1, 2), RAD, master_seed=9)
    t, m, paths = 3, 12, 6000
    out = tr.transform_paths_rejection(cfg, t, paths, guard_m=m)
    rows_m, rows_2m, attempts, b = [], [], 0, 0
    while sum(map(len, rows_m)) < paths:
        tau, _, _, at_t = engine._simulate_block(cfg, 2 * m, b, engine.BLOCK_SIZE, t)
        rows_m.append(at_t[tau > m])
        rows_2m.append(at_t[tau > 2 * m])
        attempts += engine.BLOCK_SIZE
        b += 1
    assert b > 1  # the check spans more than one block
    kept = np.concatenate(rows_m)
    assert np.array_equal(out["samples"], kept[:paths])
    assert out["acceptance_rate"] == len(kept) / attempts
    assert out["n_at_2m"] == sum(map(len, rows_2m))


def test_rejection_transform_refuses_an_empty_target():
    # the block loop stops at the target, so no target must not draw a block
    cfg = WalkConfig(2, (0, 1), RAD, master_seed=3)
    with pytest.raises(ValueError, match="paths must be >= 1"):
        tr.transform_paths_rejection(cfg, 4, 0)


def test_rejection_transform_feasibility_guard():
    # K V(0,1,2) 1000^(-3/2) = 7.14e-5 with V = 16, below the 1e-4 floor
    cfg = WalkConfig(3, (0, 1, 2), RAD, master_seed=3)
    with pytest.raises(tr.FeasibilityError, match="predicted acceptance 7.14e-05"):
        tr.transform_paths_rejection(cfg, 4, 100, guard_m=1000)


def test_rejection_transform_runs_where_survival_is_feasible():
    # P(tau > 104) = 2.08e-3 from (0,1,2); the prediction from Delta = 2 in
    # place of V = 16, and 2m in place of m, read 9.4e-5 and refused the run
    cfg = WalkConfig(3, (0, 1, 2), RAD, master_seed=5)
    work = engine.WorkCounts()
    out = tr.transform_paths_rejection(cfg, 13, 200, guard_m=104, work=work)
    (_, p), = star_survival(3, [104])
    assert out["samples"].shape == (200, 3)
    assert abs(out["acceptance_rate"] - p) <= 4 * math.sqrt(p * (1 - p) / work.paths)


def test_rejection_transform_partial_result(monkeypatch):
    # three walkers survive guard horizon 32 well under 1% of the time; a
    # constant that predicts certain survival caps the attempt budget far
    # below what the target needs
    monkeypatch.setattr(tr.asymptotics, "constant_K", lambda k: 1e6)
    cfg = WalkConfig(3, (0, 1, 2), RAD, master_seed=3)
    with pytest.raises(PartialResultError) as exc:
        tr.transform_paths_rejection(cfg, 4, 2_000, guard_m=32)
    assert exc.value.acceptance_rate < 0.1


@pytest.mark.parametrize("start_gap, t, m", [(1, 3, 8), (2, 4, 6), (3, 0, 5), (1, 5, 5)])
def test_rejection_gap_law_is_the_exact_conditioned_law(start_gap, t, m):
    # P(g_t = g | tau > m) from the rational kernels: sum over the alive
    # configurations at t of their mass times their survival to m
    law = {}
    for (a, b), mass in exact_survival_kernel(WalkConfig(2, (0, start_gap), RAD), t).masses.items():
        ahead = exact_survival_kernel(WalkConfig(2, (a, b), RAD), m - t).total_mass()
        law[b - a] = law.get(b - a, Fraction(0)) + mass * ahead
    total = sum(law.values())
    gaps, probs = tr._rejection_gap_law(RAD, start_gap, t, m)
    assert set(gaps.tolist()) == {g for g, p in law.items() if p > 0}
    for g, p in zip(gaps.tolist(), probs.tolist()):
        assert abs(p - float(law[g] / total)) <= 1e-14


@pytest.mark.parametrize("dist", [RAD, make_distribution("lazy_lattice"),
                                  make_distribution("custom_lattice",
                                                    masses={-2: Fraction(1, 3), 1: Fraction(2, 3)})],
                         ids=lambda d: d.kind)
@pytest.mark.parametrize("start_gap, t, m", [(1, 16, 128), (2, 5, 40), (3, 0, 30), (1, 5, 5)])
def test_survival_of_every_alive_gap_in_one_pass_matches_the_per_gap_dps(dist, start_gap, t, m):
    gaps, _ = gap_chain_alive_distribution(dist, start_gap, t)
    one_pass = lattice_exact._survival_by_gap(dist, gaps, m - t)
    per_gap = np.array([gap_chain_survival(dist, int(g), [m - t])[0][1] for g in gaps])
    assert np.all(np.abs(one_pass - per_gap) <= 1e-15 * per_gap)


def _dyson_density(x, t, y):
    """Transition density of k ordered Brownian motions from x to y in time t:
    det[phi_t(y_j - x_i)] * Delta(y) / Delta(x), phi_t the N(0, t) density."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    diff = ys[None, :] - xs[:, None]
    kern = np.exp(-diff ** 2 / (2.0 * t)) / math.sqrt(2.0 * math.pi * t)
    return float(np.linalg.det(kern)) * vandermonde(ys) / vandermonde(xs)


def test_dyson_density_matches_gap_marginal():
    # integrate the 2-d density over the center: matches the gap marginal
    g0, t, g = 1.0, 0.3, 1.7
    centers = np.linspace(-8, 8, 2001)
    vals = [_dyson_density((-g0 / 2, g0 / 2), t, (c - g / 2, c + g / 2))
            for c in centers]
    integral = np.trapezoid(vals, centers)
    expected = float(tr.dyson_gap_marginal(g0, t, np.array([g]))[0])
    assert integral == pytest.approx(expected, rel=1e-6)


def test_dyson_gap_marginal_normalized():
    g = np.linspace(0, 40, 40001)
    dens = tr.dyson_gap_marginal(1.0, 0.5, g)
    assert np.trapezoid(dens, g) == pytest.approx(1.0, abs=1e-8)
    assert (dens >= 0).all()


@pytest.mark.parametrize("g", [0.0, 0.1, 0.5, 1.3, 2.0, 4.0, 7.5, 12.0])
def test_gap_cdfs_match_quadrature(g):
    def quad(f):
        return integrate.quad(f, 0.0, g, epsabs=1e-13, epsrel=1e-13)[0]

    for g0, t in ((1.0, 1.0), (0.25, 0.5), (2.0, 0.05)):
        dyson = quad(lambda x: float(tr.dyson_gap_marginal(g0, t, x)))
        assert abs(float(tr.dyson_gap_cdf(g0, t, g)) - dyson) <= 1e-10


def test_gap_cdfs_have_unit_mass():
    assert float(tr.dyson_gap_cdf(0.5, 1.0, 60.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(tr.dyson_gap_cdf(0.5, 1.0, -1.0)) == 0.0


@pytest.mark.parametrize("g0, t", [(1.0, 0.5), (0.0625, 1.0), (2.5, 0.1)])
def test_dyson_gap_cdf_is_the_scipy_norm_expression(g0, t):
    g = np.concatenate([np.linspace(0.0, 12.0, 20_001), [np.inf]])
    s, norm = math.sqrt(2.0 * t), stats.norm
    expected = (norm.cdf((g - g0) / s) - norm.cdf(-g0 / s)
                + norm.cdf((g + g0) / s) - norm.cdf(g0 / s)
                + s * s * (norm.pdf(g + g0, scale=s) - norm.pdf(g - g0, scale=s)) / g0)
    # Phi is a numpy erfc now, not scipy's, so the last digit may move
    assert np.abs(tr.dyson_gap_cdf(g0, t, g) - expected).max() <= 1e-15


def test_dyson_compare_small():
    rep = tr.dyson_compare((0.0, 1.0), t=0.5, n=256, paths=20_000,
                           master_seed=0)
    assert rep["steps"] == 128 and rep["start_gap"] == 16
    assert rep["tv"] < 0.08
    assert rep["ks"] < 0.05
