"""Exact rational kernels and identity checks on small lattice walks."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordwalk import lattice_exact
from ordwalk.distributions import UnsupportedOperationError, make_distribution
from ordwalk.engine import WalkConfig
from ordwalk.geometry import vandermonde
from ordwalk.lattice_exact import (
    CapacityError,
    IdentityViolationError,
    TruncationError,
    exact_d_matrix,
    exact_free_kernel,
    exact_harmonicity_check,
    exact_km_check,
    exact_martingale_check,
    exact_reflection_check,
    exact_stopped_measure,
    exact_survival_kernel,
    exact_vn,
    gap_chain_alive_distribution,
    gap_chain_survival,
    star_survival,
)
from ordwalk.transform import _rejection_gap_law, transformed_gap_distribution

RAD = make_distribution("rademacher")
LAZY = make_distribution("lazy_lattice")
THIRDS = make_distribution("custom_lattice", masses={-2: Fraction(1, 3), 1: Fraction(2, 3)})
# d = 4099: 2 * 2! * d^(2 n) passes 2^63 from n = 3 on, so the counts are Python ints
WIDE = make_distribution("custom_lattice", masses={
    -1: Fraction(1000, 4099), 0: Fraction(2099, 4099), 1: Fraction(1000, 4099)})
CFG2 = WalkConfig(k=2, start=(0, 1), dist=RAD)
CFG3 = WalkConfig(k=3, start=(0, 1, 2), dist=RAD)


def test_one_step_survival_kernel():
    kern = exact_survival_kernel(CFG2, 1)
    expected = {(1, 2): Fraction(1, 4), (-1, 0): Fraction(1, 4),
                (-1, 2): Fraction(1, 4)}
    assert kern.masses == expected
    assert kern.total_mass() == Fraction(3, 4)
    assert kern.mass((7, 9)) == 0


def test_one_step_stopped_measure():
    stopped = exact_stopped_measure(CFG2, 1)
    assert stopped == {(1, (1, 0)): Fraction(1, 4)}


def test_three_walker_one_step_survival():
    kern = exact_survival_kernel(CFG3, 1)
    assert kern.total_mass() == Fraction(1, 2)


def test_free_kernel_mass_conserved():
    for n in (1, 3, 5):
        assert exact_free_kernel(CFG2, n).total_mass() == 1
    assert exact_free_kernel(CFG3, 3).total_mass() == 1


def test_survival_below_free_pointwise():
    n = 4
    surv = exact_survival_kernel(CFG2, n)
    free = exact_free_kernel(CFG2, n)
    for y, mass in surv.masses.items():
        assert mass <= free.masses[y]


def test_exact_vn_first_value():
    assert exact_vn(CFG2, 3)[0] == Fraction(5, 4)


def test_exact_vn_monotone_bounded():
    vals = exact_vn(CFG2, 8)
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert all(v >= 1 for v in vals)  # Delta(x) = 1 and the exit Delta <= 0


def test_d_matrix_values():
    assert exact_d_matrix((0, 1), (1, 2), 1, RAD) == Fraction(1, 4)
    assert exact_d_matrix((0, 1), (0, 1), 0, RAD) == 1
    assert exact_d_matrix((0, 1), (2, 2), 1, RAD) == 0


def test_d_matrix_antisymmetry_in_source():
    assert exact_d_matrix((1, 0), (1, 2), 3, RAD) == \
        -exact_d_matrix((0, 1), (1, 2), 3, RAD)


def test_km_identity_small():
    rep = exact_km_check(CFG2, 4)
    assert rep.passed and rep.max_abs_discrepancy == 0
    assert rep.sites_checked > 0
    rep3 = exact_km_check(CFG3, 3)
    assert rep3.passed


def test_km_identity_lazy_law():
    cfg = WalkConfig(k=2, start=(0, 2), dist=LAZY)
    assert exact_km_check(cfg, 4).passed


def test_reflection_identity_small():
    reps = exact_reflection_check(CFG2, 3, [1, 2, 3])
    assert [(rep.passed, rep.extra["l"]) for rep in reps] == [(True, 1), (True, 2), (True, 3)]
    (rep3,) = exact_reflection_check(CFG3, 3, [1])
    assert rep3.passed


def test_reflection_check_runs_one_forward_pass_for_every_l(monkeypatch):
    # the reports for all l at once equal those of each l checked alone
    alone = [exact_reflection_check(CFG3, 5, [l])[0].to_dict() for l in range(1, 6)]
    calls = []
    real = lattice_exact._forward_tables

    def counting(cfg, n):
        calls.append(n)
        return real(cfg, n)

    monkeypatch.setattr(lattice_exact, "_forward_tables", counting)
    together = exact_reflection_check(CFG3, 5, range(1, 6))
    assert calls == [5]
    assert [rep.to_dict() for rep in together] == alone


def test_reflection_identity_with_boundary_ties():
    cfg = WalkConfig(k=2, start=(0, 1), dist=LAZY)
    (rep,) = exact_reflection_check(cfg, 2, [1])
    assert rep.passed and rep.extra["boundary_tie_exits"] >= 1


def test_reflection_rejects_bad_l():
    with pytest.raises(ValueError):
        exact_reflection_check(CFG2, 3, [0])
    with pytest.raises(ValueError):
        exact_reflection_check(CFG2, 3, [1, 4])


def test_martingale_example():
    # one step from (0, 1): Delta values 1, 1, 3, -1 each with mass 1/4
    assert exact_martingale_check(CFG2, 3).passed
    assert exact_martingale_check(CFG3, 2).passed


def test_harmonicity_check():
    for n in (0, 1, 2, 3):
        assert exact_harmonicity_check(CFG2, n).passed
    assert exact_harmonicity_check(CFG3, 1).passed


def test_harmonicity_check_takes_v_from_the_start_pass():
    vs = exact_vn(CFG3, 3)  # V_1..V_3 of (0, 1, 2)
    assert exact_harmonicity_check(CFG3, 2, vs).passed
    with pytest.raises(IdentityViolationError):
        exact_harmonicity_check(CFG3, 2, vs[:2] + [vs[2] + Fraction(1, 64)])
    with pytest.raises(IdentityViolationError):  # V_2 of the start's translates
        exact_harmonicity_check(CFG3, 2, [vs[0], vs[1] + Fraction(1, 64), vs[2]])


def test_capacity_guard():
    with pytest.raises(CapacityError):
        exact_survival_kernel(CFG2, 10_000)


def test_continuous_law_rejected():
    cfg = WalkConfig(k=2, start=(0.0, 1.0), dist=make_distribution("gaussian"))
    with pytest.raises(UnsupportedOperationError):
        exact_survival_kernel(cfg, 2)


def test_report_serialization():
    rep = exact_km_check(CFG2, 2)
    d = rep.to_dict()
    assert d["identity"] == "karlin-mcgregor" and d["pass"] is True


def test_gap_chain_matches_exact_kernel():
    horizons = [1, 2, 4, 6]
    gap = dict(gap_chain_survival(RAD, 1, horizons))
    for h in horizons:
        exact = float(exact_survival_kernel(CFG2, h).total_mass())
        assert gap[h] == pytest.approx(exact, abs=1e-12)


def test_gap_chain_stopped_delta_matches_exact():
    for n in (1, 3, 5):
        exact = exact_vn(CFG2, n)[-1]
        p = lattice_exact._gap_chain_dp(RAD, 1, [n])[n]
        assert p.stopped == pytest.approx(1.0 - float(exact), abs=1e-12)
        # from gap 1 every exit lands on gap -1
        assert p.stopped_sq == pytest.approx(-p.stopped, abs=1e-15)


def test_gap_chain_alive_distribution():
    gaps, probs = gap_chain_alive_distribution(RAD, 1, 4)
    assert probs.sum() == pytest.approx(1.0)
    assert (gaps > 0).all()
    kern = exact_survival_kernel(CFG2, 4)
    total = kern.total_mass()
    by_gap = {}
    for (a, b), mass in kern.masses.items():
        by_gap[b - a] = by_gap.get(b - a, Fraction(0)) + mass
    for g, p in zip(gaps, probs):
        assert p == pytest.approx(float(by_gap[int(g)] / total), abs=1e-12)


def _reflection_survival(start_gap, n):
    """Exact Rademacher P(tau > n) from odd gap 2x - 1, by reflection.

    In half-units the gap walk is x plus a lazy walk with steps -1, 0, 1 of
    masses 1/4, 1/2, 1/4, the law of half of a 2n-step simple walk. It is
    skip-free and killed at 0, so P(tau > n) = P(1 - x <= W_n <= x).
    """
    x = (start_gap + 1) // 2
    count = sum(math.comb(2 * n, n + j) for j in range(max(1 - x, -n), x + 1))
    return Fraction(count, 4 ** n)


def test_gap_chain_matches_reflection_oracle_at_large_n():
    n = 1 << 14
    for start_gap in (1, 3, 5):
        p = lattice_exact._gap_chain_dp(RAD, start_gap, [n])[n]
        exact = float(_reflection_survival(start_gap, n))
        assert abs(p.alive - exact) <= 1e-13 * exact
        assert dict(gap_chain_survival(RAD, start_gap, [n]))[n] == p.alive
        if start_gap == 1:
            (_, star), = star_survival(2, [n])
            assert abs(star - p.alive) <= 1e-12 * p.alive
        # optional stopping of the gap martingale: a truncated path ends at a
        # gap of at most start_gap + 2n
        bound = p.truncated * (start_gap + 2 * n)
        assert abs(float(p.gaps @ p.mass) + p.stopped - start_gap) <= 1e-12 + bound


@pytest.mark.parametrize("k", [2, 3])
def test_star_survival_is_the_exact_survival(k):
    # the star count in rationals and its float evaluation against the DP
    # from the packed start (0, ..., k-1)
    horizons = range(1, 7)
    got = dict(star_survival(k, horizons))
    for n in horizons:
        exact = exact_survival_kernel(WalkConfig(k, tuple(range(k)), RAD), n).total_mass()
        star = math.prod(Fraction(k + i + j - 1, i + j - 1)
                         for j in range(1, n + 1) for i in range(1, j + 1))
        assert star / 2 ** (k * n) == exact
        assert abs(got[n] - float(exact)) <= 1e-15 * float(exact)
    assert star_survival(k, [0]) == [(0, 1.0)]


@pytest.mark.parametrize("dist, start_gap", [
    (LAZY, 1), (LAZY, 2), (THIRDS, 1), (THIRDS, 2), (THIRDS, 3), (THIRDS, 6),
    (RAD, 2), (RAD, 3),
])
def test_decimated_gap_chain_matches_exact_kernels(dist, start_gap):
    cfg = WalkConfig(k=2, start=(0, start_gap), dist=dist)
    horizons = [1, 2, 3, 5]
    survival = dict(gap_chain_survival(dist, start_gap, horizons))
    vs = exact_vn(cfg, horizons[-1])
    for h in horizons:
        kern = exact_survival_kernel(cfg, h)
        assert survival[h] == pytest.approx(float(kern.total_mass()), abs=1e-12)
        # Delta(x) = start_gap, so E[Delta(X(tau)); tau <= h] = start_gap - V_h
        stopped = lattice_exact._gap_chain_dp(dist, start_gap, [h])[h].stopped
        assert stopped == pytest.approx(start_gap - float(vs[h - 1]), abs=1e-12)
        by_gap = {}
        for (a, b), mass in kern.masses.items():
            by_gap[b - a] = by_gap.get(b - a, Fraction(0)) + mass
        gaps, probs = gap_chain_alive_distribution(dist, start_gap, h)
        # the sites of the exact law, which the undecimated DP also returned
        assert gaps.tolist() == sorted(by_gap)
        total = kern.total_mass()
        assert probs == pytest.approx([float(by_gap[g] / total) for g in sorted(by_gap)],
                                      abs=1e-12)


def test_gap_chain_window_is_capped_and_counts_the_truncated_mass(monkeypatch):
    horizons = [4, 16, 64, 256]
    monkeypatch.setattr(lattice_exact, "_WINDOW_SIGMAS", 1e9)
    uncapped = lattice_exact._gap_chain_dp(RAD, 1, horizons)
    assert all(p.truncated == 0.0 for p in uncapped.values())
    # the capped pass, with the truncation checks that would reject it off
    monkeypatch.setattr(lattice_exact, "_WINDOW_SIGMAS", 1.0)
    monkeypatch.setattr(lattice_exact, "_TRUNCATION_RTOL", math.inf)
    capped = lattice_exact._gap_chain_dp(RAD, 1, horizons)
    assert capped[256].gaps[-1] <= 1 + math.sqrt(2 * 256) + 2  # 1 sigma sqrt(n) above gap 1
    assert capped[256].truncated > 1e-3
    for h in horizons:
        p = capped[h]
        assert abs(p.alive - uncapped[h].alive) <= p.truncated
        # every exit from an odd gap lands on gap -1: no mass goes missing
        assert p.alive - p.stopped + p.truncated == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("call", [
    lambda: gap_chain_survival(RAD, 1, [64, 256]),
    lambda: lattice_exact._gap_chain_dp(RAD, 1, [256]),
    lambda: gap_chain_alive_distribution(RAD, 1, 256),
    lambda: _rejection_gap_law(RAD, 1, 256, 512),
    lambda: transformed_gap_distribution(1, 256),
])
def test_gap_chain_wrappers_raise_on_truncation(monkeypatch, call):
    monkeypatch.setattr(lattice_exact, "_WINDOW_SIGMAS", 1.0)
    with pytest.raises(TruncationError, match="truncated mass bounding its error by"):
        call()


# horizons off the block grid of both Rademacher (26 steps) and lazy (13)
OFF_GRID = [1, 7, 16, 26, 27, 53, 100, 1000, 1 << 14]


def test_gap_dp_of_a_wide_law_is_the_scaled_rademacher_one():
    # steps of +-2**32 are Rademacher steps times 2**32, a power of two, so
    # every moment scales exactly; the square of an exit gap passes int64,
    # which wrapped E[gap(tau)^2; tau <= n] to 0
    s = 2 ** 32
    wide = make_distribution("custom_lattice", masses={-s: Fraction(1, 2), s: Fraction(1, 2)})
    rad = lattice_exact._gap_chain_dp(RAD, 1, [16, 64])
    for h, p in lattice_exact._gap_chain_dp(wide, s, [16, 64]).items():
        assert (p.alive, p.stopped, p.stopped_sq) == (
            rad[h].alive, rad[h].stopped * s, rad[h].stopped_sq * s * s)


def test_blocked_gap_chain_matches_reflection_at_horizons_off_the_block_grid():
    for start_gap in (1, 3, 5, 9):
        table = lattice_exact._gap_chain_dp(RAD, start_gap, OFF_GRID)
        for h in OFF_GRID:
            exact = float(_reflection_survival(start_gap, h))
            assert abs(table[h].alive - exact) <= 1e-14 * exact, (start_gap, h)


def test_gap_blocks_are_exact_and_as_long_as_the_float_bound_allows():
    # den^L < 2^53: 4^26 for Rademacher, 16^13 for lazy steps
    assert len(lattice_exact._gap_blocks(RAD, 1, 1 << 14)[-1]) == 26
    assert len(lattice_exact._gap_blocks(LAZY, 1, 1 << 14)[-1]) == 13
    assert len(lattice_exact._gap_blocks(RAD, 1, 5)[-1]) == 5  # no block past the horizon
    kernel, band, exits = lattice_exact._gap_blocks(RAD, 1, 1 << 14)[-1][-1]
    assert kernel.tolist() == [math.comb(52, j) / 2 ** 52 for j in range(53)]
    # from cell 0 (gap 1) every exit lands on gap -1
    assert exits[0].tolist() == [-(1 - band[0].sum()), 1 - band[0].sum()]


def test_gap_blocks_are_built_once_per_law_residue_and_length():
    # the tables read only the gap law, the least positive gap of the start's
    # residue and the block length: another gap of the same residue, another
    # horizon past L and another instance of the law share one read-only set
    tables = lattice_exact._gap_blocks(RAD, 1, 1 << 14)
    assert lattice_exact._gap_blocks(make_distribution("rademacher"), 5, 1 << 12) is tables
    assert lattice_exact._gap_blocks(RAD, 2, 1 << 14)[1] == 2
    assert lattice_exact._gap_blocks(RAD, 1, 5) is not tables  # L = 5 keys its own
    for block in tables[-1]:
        for table in block:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0


@pytest.mark.parametrize("law, gap, digest", [
    ("RAD", 1, "b34b5fd335e6b5c0c410cdc20bff6b39104ed7affbc0eb032367e20aaa8ec364"),
    ("RAD", 2, "378029282cd74c353ebb51a90d79c3edba5c86f4f3c2ed35c08799248d6b32f3"),
    ("LAZY", 1, "92563895c04ea59ac164f42cac6d70ac374dff3ed1eb524295a0dbd5dfc53ff3"),
    ("JUMPS", 1, "a74e50d96860bc5cba11645de175eac7b55da68abfde1324999757f30863045b"),
])
def test_gap_block_tables_are_frozen(law, gap, digest):
    # the block tables share the exact DP's one-axis convolution; every shape
    # and float64 of every block is what the gap DP's own loop gave
    dist = {"RAD": RAD, "LAZY": LAZY, "JUMPS": JUMPS}[law]
    lattice_exact._gap_block_tables.cache_clear()
    *_, blocks = lattice_exact._gap_blocks(dist, gap, 1 << 14)
    h = hashlib.sha256()
    for table in itertools.chain.from_iterable(blocks):
        h.update(repr(table.shape).encode())
        h.update(table.tobytes())
    assert h.hexdigest() == digest


def _exact_gap_chain(dist, start_gap, horizons):
    """{h: (P(tau > h), E[gap(tau); tau <= h], E[gap(tau)^2; tau <= h])} as
    Fractions, by an uncapped integer count DP of the gap chain, one step at
    a time."""
    law = lattice_exact._gap_law(dist)
    span = math.gcd(*law)
    lo, hi = min(law) // span, max(law) // span
    den = math.lcm(*(p.denominator for p in law.values()))
    first = (start_gap - 1) % span + 1
    counts = np.zeros((start_gap - first) // span + 1, dtype=object)
    counts[-1] = 1
    stopped, stopped_sq, table = 0, 0, {}
    for m in range(1, max(horizons) + 1):
        out = np.zeros(counts.size + hi - lo, dtype=object)
        for j in range(hi - lo + 1):
            out[j:j + counts.size] += int(law.get(span * (lo + j), 0) * den) * counts
        stopped = stopped * den + sum(int(c) * (first + span * cell)
                                      for c, cell in zip(out[:-lo], range(lo, 0)))
        stopped_sq = stopped_sq * den + sum(int(c) * (first + span * cell) ** 2
                                            for c, cell in zip(out[:-lo], range(lo, 0)))
        counts = out[-lo:]
        if m in horizons:
            table[m] = (Fraction(int(counts.sum()), den ** m), Fraction(stopped, den ** m),
                        Fraction(stopped_sq, den ** m))
    return table


@pytest.mark.parametrize("dist, start_gap", [(LAZY, 1), (LAZY, 2), (THIRDS, 1), (THIRDS, 3)],
                         ids=["lazy-1", "lazy-2", "thirds-1", "thirds-3"])
def test_blocked_gap_chain_matches_an_exact_integer_dp(dist, start_gap):
    # blocks of 13 (lazy) and 16 (THIRDS, den 9) steps; horizons around both
    horizons = [1, 12, 13, 14, 16, 17, 26, 27, 100, 300]
    exact = _exact_gap_chain(dist, start_gap, horizons)
    table = lattice_exact._gap_chain_dp(dist, start_gap, horizons)
    for h in horizons:
        alive, stopped, stopped_sq = map(float, exact[h])
        assert abs(table[h].alive - alive) <= 1e-14 * alive, h
        assert abs(table[h].stopped - stopped) <= 1e-14 * max(1.0, abs(stopped)), h
        assert abs(table[h].stopped_sq - stopped_sq) <= 1e-14 * max(1.0, stopped_sq), h


def test_blocked_gap_chain_of_a_law_past_the_float_bound(monkeypatch):
    # d = 2^33, so the gap law's denominator is 2^66: one-step blocks whose
    # counts are Python ints
    d = 2 ** 33
    fine = make_distribution("custom_lattice", masses={
        -1: Fraction(3, d), 0: 1 - Fraction(6, d), 1: Fraction(3, d)})
    assert len(lattice_exact._gap_blocks(fine, 1, 5)[-1]) == 1
    # d^(2n) is far past the rational DP's capacity guard at n = 5
    monkeypatch.setattr(lattice_exact, "CAPACITY_BITS", 1000)
    table = lattice_exact._gap_chain_dp(fine, 1, range(1, 6))
    for n in range(1, 6):
        exact = float(exact_survival_kernel(WalkConfig(2, (0, 1), fine), n).total_mass())
        assert abs(table[n].alive - exact) <= 1e-15 * exact


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5))
def test_km_total_mass_equals_survival(n):
    kern = exact_survival_kernel(CFG2, n)
    stopped = exact_stopped_measure(CFG2, n)
    assert kern.total_mass() + sum(stopped.values(), Fraction(0)) == 1


def _batched_km_rhs(cfg, n):
    """The batched right-hand side of the KM identity, as Fractions per site."""
    _, exits = lattice_exact._forward_tables(cfg, n)
    walks = lattice_exact._single_walk_counts(cfg.dist, n)
    sites = lattice_exact._candidate_sites(cfg, n, walks)
    rows = [(np.array([cfg.start]), 0, np.ones(1, dtype=np.int64))]
    rows += [(z, m, -counts) for m, (z, counts) in enumerate(exits)]
    scale, (rhs,) = lattice_exact._scaled_det_sums(cfg.dist, walks, n, sites, [rows])
    return sites, walks, [Fraction(int(r), scale) for r in rhs]


@pytest.mark.parametrize("check, start, n, kept, reachable", [
    ("km", (0, 1, 2), 7, 288, 680),
    ("km", (0, 1), 10, 121, 231),
    ("reflect", (0, 1, 2), 5, 126, 286),
    ("reflect", (0, 1), 6, 49, 91),
])
def test_pruned_sites_are_zero_on_both_sides(monkeypatch, check, start, n, kept, reachable):
    # _candidate_sites keeps the ordered sites of reachable values whose
    # parities permute those of the Rademacher walkers; at every site it
    # drops, the survival side and the full determinantal side are both 0
    cfg = WalkConfig(k=len(start), start=start, dist=RAD)
    walks = lattice_exact._single_walk_counts(RAD, n)
    sites = lattice_exact._candidate_sites(cfg, n, walks)
    reach = walks[n].sparse()[0][:, 0].tolist()
    values = sorted({x + v for x in start for v in reach})
    dropped = sorted(set(itertools.combinations(values, len(start))) - set(sites))
    assert (len(sites), len(sites) + len(dropped)) == (kept, reachable)
    sides = []
    monkeypatch.setattr(lattice_exact, "_candidate_sites", lambda *_: dropped)
    monkeypatch.setattr(lattice_exact, "_require_equal",
                        lambda _, __, lhs, rhs, ___: sides.append(list(lhs) + list(rhs)))
    if check == "km":
        exact_km_check(cfg, n)
    else:
        exact_reflection_check(cfg, n, range(1, n + 1))
    assert len(sides) == (1 if check == "km" else n)
    assert all(v == 0 for side in sides for v in side)


@pytest.mark.parametrize("dist", [RAD, LAZY, THIRDS, WIDE], ids=lambda d: d.kind
                         + str(d.denominator))
@pytest.mark.parametrize("start,n", [((0, 1), 4), ((0, 2), 4), ((0, 1, 2), 3),
                                     ((0, 2, 5), 3)])
def test_batched_rhs_matches_scalar_determinants(dist, start, n):
    if dist is WIDE and len(start) == 3:
        n = 1  # d^(k n) stays inside the capacity guard
    cfg = WalkConfig(k=len(start), start=start, dist=dist)
    sites, walks, batched = _batched_km_rhs(cfg, n)
    stopped = exact_stopped_measure(cfg, n)
    assert sites
    for y, got in zip(sites, batched):
        want = exact_d_matrix(start, y, n, dist, walks)
        for (m, z), mass in stopped.items():
            want -= mass * exact_d_matrix(z, y, n - m, dist, walks)
        assert got == want, y


def test_wide_law_takes_the_object_path(monkeypatch):
    seen = _record_dtypes(monkeypatch)
    cfg = WalkConfig(k=2, start=(0, 1), dist=WIDE)
    assert exact_km_check(cfg, 3).passed
    assert all(rep.passed for rep in exact_reflection_check(cfg, 3, [1, 2, 3]))
    assert seen == [object] * 4


def test_count_dtype_threshold():
    # int64 exactly while 2 k! scale < 2^63
    for k in (2, 3, 4):
        top = (2 ** 63 - 1) // (2 * math.factorial(k))
        assert lattice_exact._count_dtype(k, top) is np.int64
        assert lattice_exact._count_dtype(k, top + 1) is object


def _record_dtypes(monkeypatch):
    seen = []
    real = lattice_exact._count_dtype

    def recording(k, scale):
        seen.append(real(k, scale))
        return seen[-1]

    monkeypatch.setattr(lattice_exact, "_count_dtype", recording)
    return seen


def test_count_dtype_switches_at_the_bound(monkeypatch):
    # lazy steps have d = 4: 2 * 2! * 4^(2 n) < 2^63 up to n = 15
    seen = _record_dtypes(monkeypatch)
    for n in (15, 16):
        assert exact_km_check(WalkConfig(k=2, start=(0, 1), dist=LAZY), n).passed
    assert seen == [np.int64, object]


def _with_fault(monkeypatch, perturb):
    real = lattice_exact._forward_tables

    def faulty(cfg, n):
        survival, stopped = real(cfg, n)
        perturb(survival, stopped)
        return survival, stopped

    monkeypatch.setattr(lattice_exact, "_forward_tables", faulty)


# Each fault adds one count, mass * d^(k m) + 1: the least change the
# integer tables can hold, a mass change of d^(-k m).


@pytest.mark.parametrize("cfg,n,path", [
    (CFG2, 4, np.int64), (CFG3, 4, np.int64),
    (WalkConfig(k=2, start=(0, 1), dist=WIDE), 3, object)])
def test_km_check_catches_a_perturbed_survival_mass(monkeypatch, cfg, n, path):
    target = sorted(exact_survival_kernel(cfg, n).masses)[1]

    def perturb(survival, stopped):
        box = survival[n]
        box.counts[tuple((np.array(target) - box.origin) // box.span)] += 1

    _with_fault(monkeypatch, perturb)
    seen = _record_dtypes(monkeypatch)
    with pytest.raises(IdentityViolationError) as err:
        exact_km_check(cfg, n)
    assert seen == [path]
    assert err.value.site == target
    assert err.value.lhs - err.value.rhs == Fraction(1, cfg.dist.denominator ** (cfg.k * n))
    assert "karlin-mcgregor violated at y=" in str(err.value)


@pytest.mark.parametrize("cfg,n,l,path", [
    (CFG2, 4, 1, np.int64), (CFG3, 4, 2, np.int64),
    (WalkConfig(k=2, start=(0, 1), dist=WIDE), 3, 2, object)])
def test_reflection_check_catches_a_perturbed_stopped_mass(monkeypatch, cfg, n, l, path):
    stopped = exact_stopped_measure(cfg, n)
    walks = lattice_exact._single_walk_counts(cfg.dist, n)
    # an exit off the boundary, whose determinant row is not identically zero
    z0 = next(z for (m, z), _ in sorted(stopped.items()) if m == l and len(set(z)) == cfg.k)
    hit = next(y for y in lattice_exact._candidate_sites(cfg, n, walks)
               if exact_d_matrix(z0, y, n - l, cfg.dist, walks))

    def perturb(survival, stopped):
        exits, counts = stopped[l]
        counts[exits.tolist().index(list(z0))] += 1

    _with_fault(monkeypatch, perturb)
    seen = _record_dtypes(monkeypatch)
    with pytest.raises(IdentityViolationError) as err:
        exact_reflection_check(cfg, n, [l])
    assert seen == [path]
    assert err.value.site == hit
    one = Fraction(1, cfg.dist.denominator ** (cfg.k * l))
    assert err.value.lhs - err.value.rhs == -one * exact_d_matrix(z0, hit, n - l, cfg.dist, walks)


def test_identities_for_walks_that_jump_over_each_other():
    # steps -2 and +1 let two walkers swap places without meeting
    cfg2 = WalkConfig(k=2, start=(0, 1), dist=THIRDS)
    assert exact_km_check(cfg2, 6).passed
    assert exact_km_check(WalkConfig(k=3, start=(0, 1, 2), dist=THIRDS), 3).passed
    assert all(rep.passed for rep in exact_reflection_check(cfg2, 4, range(1, 5)))


# d = 1021 with steps -2, 0, +1: walkers jump over each other, and
# d^(k n) >= 2^63 already at k n = 7, so the DP runs on Python ints
JUMPS = make_distribution("custom_lattice", masses={
    -2: Fraction(100, 1021), 0: Fraction(721, 1021), 1: Fraction(200, 1021)})


def _path_enumeration(cfg, n):
    """Brute-force oracle: every step sequence to time tau ^ n, each with the
    Fraction product of its step masses. Returns the survival kernel at n, the
    stopped measure and [V_1, ..., V_n]."""
    joint = [(tuple(s for s, _ in combo), math.prod(p for _, p in combo))
             for combo in itertools.product(sorted(cfg.dist.masses.items()), repeat=cfg.k)]
    alive, stopped = {}, {}

    def extend(m, y, mass):
        if m == n:
            alive[y] = alive.get(y, 0) + mass
            return
        for vec, p in joint:
            z = tuple(a + s for a, s in zip(y, vec))
            if all(a < b for a, b in zip(z, z[1:])):
                extend(m + 1, z, mass * p)
            else:
                stopped[(m + 1, z)] = stopped.get((m + 1, z), 0) + mass * p

    extend(0, tuple(cfg.start), Fraction(1))
    vs = [vandermonde(cfg.start) - sum(mass * vandermonde(z)
                                       for (t, z), mass in stopped.items() if t <= m)
          for m in range(1, n + 1)]
    return alive, stopped, vs


@pytest.mark.parametrize("dist,start,n,path", [
    (RAD, (0, 1), 4, np.int64), (RAD, (0, 1, 2), 4, np.int64),
    (RAD, (0, 1, 3, 4), 4, np.int64), (LAZY, (0, 2), 4, np.int64),
    (LAZY, (0, 1, 2), 3, np.int64), (JUMPS, (0, 1), 4, object),
    (JUMPS, (0, 1, 3), 3, object),
], ids=["rademacher-k2", "rademacher-k3", "rademacher-k4", "lazy-k2", "lazy-k3",
        "jumps-k2-object", "jumps-k3-object"])
def test_count_dp_equals_path_enumeration(dist, start, n, path):
    cfg = WalkConfig(k=len(start), start=start, dist=dist)
    alive, stopped, vs = _path_enumeration(cfg, n)
    assert lattice_exact._forward_tables(cfg, n)[0][n].counts.dtype == path
    assert exact_survival_kernel(cfg, n).masses == alive
    assert exact_stopped_measure(cfg, n) == stopped
    assert exact_vn(cfg, n) == vs
