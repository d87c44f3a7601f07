"""Exact rational dynamic programming for lattice walks.

Builds the constrained kernel P_x(tau > n, X(n) = y), the stopped measure
P_x(tau = m, X(m) = z) for z outside the chamber, and the signed determinantal
kernel D_n(x, y), then verifies the determinantal transition identity, the
reflection identity, the martingale property of the Vandermonde determinant
and the one-step iteration of V_n -- all as exact rational equalities.

All masses are Fractions whose denominators divide d^(k*n) with d the common
denominator of the single-step masses. The Karlin-McGregor and reflection
checks multiply both sides by d^(k*n) and compare integers, with the
determinants of all sites taken at once from integer path-count tables.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import StepDistribution, UnsupportedOperationError
from .engine import WalkConfig
from .geometry import exact_det, in_weyl, reflection_shift, vandermonde

__all__ = [
    "ExactKernel",
    "VerificationReport",
    "CapacityError",
    "IdentityViolationError",
    "TruncationError",
    "exact_survival_kernel",
    "exact_free_kernel",
    "exact_stopped_measure",
    "exact_d_matrix",
    "exact_km_check",
    "exact_reflection_check",
    "exact_vn",
    "exact_martingale_check",
    "exact_harmonicity_check",
    "killed_gap_chain",
    "gap_chain_survival",
    "gap_chain_stopped_delta",
    "gap_chain_alive_distribution",
    "star_survival",
]

CAPACITY_BITS = 120


class CapacityError(ValueError):
    """d^(k*n) would overflow the exact-integer width guard."""


class IdentityViolationError(AssertionError):
    """An exact identity failed; names the offending site and both sides."""

    def __init__(self, identity, site, lhs, rhs):
        super().__init__(f"{identity} violated at y={site}: lhs={lhs} rhs={rhs}")
        self.site = site
        self.lhs = lhs
        self.rhs = rhs


@dataclass(frozen=True)
class ExactKernel:
    k: int
    n: int
    denominator_base: int
    masses: dict = field(repr=False)  # config tuple -> Fraction

    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def mass(self, y) -> Fraction:
        return self.masses.get(tuple(int(c) for c in y), Fraction(0))


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    k: int
    n: int
    sites_checked: int
    max_abs_discrepancy: Fraction
    passed: bool
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "k": self.k,
            "n": self.n,
            "sites_checked": self.sites_checked,
            "max_abs_discrepancy": str(self.max_abs_discrepancy),
            "pass": self.passed,
            **self.extra,
        }


def _require_lattice(dist: StepDistribution):
    if not dist.is_lattice:
        raise UnsupportedOperationError(
            f"exact kernels need a lattice law, got {dist.kind!r}"
        )


def _check_capacity(dist: StepDistribution, k: int, n: int):
    d = dist.denominator
    if k * n * d.bit_length() > CAPACITY_BITS:
        raise CapacityError(
            f"d^(k*n) = {d}^{k * n} exceeds the 2^{CAPACITY_BITS} capacity guard"
        )


def _step_vectors(dist: StepDistribution, k: int):
    """All k-fold step combinations with their exact joint masses."""
    items = sorted(dist.masses.items())
    combos = []
    for combo in itertools.product(items, repeat=k):
        vec = tuple(site for site, _ in combo)
        mass = Fraction(1)
        for _, m in combo:
            mass *= m
        combos.append((vec, mass))
    return combos


def _push(table: dict, steps) -> dict:
    """One unconstrained step of an exact table: config -> mass one step later."""
    nxt = {}
    for y, mass in table.items():
        for vec, smass in steps:
            z = tuple(a + b for a, b in zip(y, vec))
            nxt[z] = nxt.get(z, Fraction(0)) + mass * smass
    return nxt


def _start_table(cfg: WalkConfig) -> dict:
    return {tuple(int(c) for c in cfg.start): Fraction(1)}


def _forward_tables(cfg: WalkConfig, n: int):
    """One forward pass: per-time survival tables and the stopped measure.

    Returns (survival, stopped) where survival[m] maps ordered configs to
    P_x(tau > m, X(m) = y) and stopped maps (m, z) with z outside the chamber
    to P_x(tau = m, X(m) = z).
    """
    _require_lattice(cfg.dist)
    _check_capacity(cfg.dist, cfg.k, n)
    steps = _step_vectors(cfg.dist, cfg.k)
    survival = [_start_table(cfg)]
    stopped = {}
    for m in range(1, n + 1):
        alive = {}
        for z, mass in _push(survival[-1], steps).items():
            if all(a < b for a, b in zip(z, z[1:])):
                alive[z] = mass
            else:
                stopped[(m, z)] = mass
        survival.append(alive)
    return survival, stopped


def exact_survival_kernel(cfg: WalkConfig, n: int) -> ExactKernel:
    """Exact table of P_x(tau > n, X(n) = y) over ordered configurations."""
    survival, _ = _forward_tables(cfg, n)
    return ExactKernel(cfg.k, n, cfg.dist.denominator, survival[n])


def exact_stopped_measure(cfg: WalkConfig, n: int) -> dict:
    """Exact table of P_x(tau = m, X(m) = z), m <= n, z outside the chamber."""
    _, stopped = _forward_tables(cfg, n)
    return stopped


def exact_free_kernel(cfg: WalkConfig, n: int) -> ExactKernel:
    """Unconstrained n-step kernel (product of k single-walk convolutions)."""
    _require_lattice(cfg.dist)
    _check_capacity(cfg.dist, cfg.k, n)
    steps = _step_vectors(cfg.dist, cfg.k)
    table = _start_table(cfg)
    for _ in range(n):
        table = _push(table, steps)
    return ExactKernel(cfg.k, n, cfg.dist.denominator, table)


def _single_walk_pmfs(dist: StepDistribution, n: int):
    """pmfs[l] maps displacement -> exact mass of an l-step single walk."""
    steps = _step_vectors(dist, 1)
    tables = [{(0,): Fraction(1)}]
    for _ in range(n):
        tables.append(_push(tables[-1], steps))
    return [{disp: mass for (disp,), mass in table.items()} for table in tables]


def exact_d_matrix(x, y, n: int, dist: StepDistribution, pmfs=None) -> Fraction:
    """Exact determinant det[(P_{x_i}(X_1(n) = y_j))_{i,j}].

    The scalar reference for the batched integer determinants below.
    """
    _require_lattice(dist)
    if pmfs is None:
        pmfs = _single_walk_pmfs(dist, n)
    pmf = pmfs[n]
    k = len(x)
    rows = [[pmf.get(int(y[j]) - int(x[i]), 0) for j in range(k)] for i in range(k)]
    return exact_det(rows)


def _candidate_sites(cfg: WalkConfig, n: int, pmfs):
    """Ordered configurations on which either side could carry mass."""
    reach = set()
    for xi in cfg.start:
        for disp in pmfs[n]:
            reach.add(int(xi) + disp)
    values = sorted(reach)
    return [y for y in itertools.combinations(values, cfg.k)]


# Batched integer determinants. With d the common denominator of the step
# masses, C_l = d^l p_l is the integer count table of the l-step single walk,
# so D_l(z, y) = d^(-k l) det[C_l(y_j - z_i)]: an identity between sums of
# masses times D's, multiplied through by d^(k n), is one between integers.

# rows per chunk: as many as keep each gathered matrix entry within this many
# (row, site) cells (at least one row), so the gathers' memory stays small
_CHUNK_CELLS = 1 << 12


def _count_dtype(k: int, scale: int):
    """np.int64 when 2 k! scale < 2^63, else object (Python int) arrays.

    A row of weight scale * mass contributes k! Leibniz terms of at most
    scale * |mass| each, and the rows of one sum carry total mass at most 2
    (D_n's 1 plus the stopped mass, or one exit law), so no partial sum
    reaches 2 k! scale.
    """
    return np.int64 if 2 * math.factorial(k) * scale < 2 ** 63 else object


def _signed_permutations(k: int):
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        yield perm, -1 if inversions % 2 else 1


def _weighted_dets(table, ys, zs, steps, weights):
    """sum_s weights[s] * det[C_{steps[s]}(y_j - zs[s, i])] for every site y.

    table[l, v + span] = C_l(v) covers every displacement; each determinant is
    the Leibniz sum over the k! permutations, taken on (row chunk, site) arrays.
    """
    width = table.shape[1]
    span = width // 2
    flat = table.ravel()
    k = ys.shape[1]
    total = np.zeros(len(ys), dtype=table.dtype)
    chunk = max(1, _CHUNK_CELLS // len(ys))
    for a in range(0, len(zs), chunk):
        z = zs[a:a + chunk]
        base = steps[a:a + chunk, None] * width + span
        entry = [[flat.take(base + (ys[:, j] - z[:, i, None])) for j in range(k)]
                 for i in range(k)]
        det = 0
        for perm, sign in _signed_permutations(k):
            term = entry[0][perm[0]]
            for i in range(1, k):
                term = term * entry[i][perm[i]]
            det = det + term if sign > 0 else det - term
        total += weights[a:a + chunk] @ det
    return total


def _scaled_det_sums(dist: StepDistribution, pmfs, n: int, sites, groups):
    """(scale, sums): per group of (z, m, mass) rows, the integers
    scale * sum of mass * D_{n-m}(z, y) at every site y.

    scale = g d^(k n), with g the least positive integer that makes every
    weight g d^(k m) mass an integer. The DP's masses at time m are multiples
    of d^(-k m), so g = 1 on its tables; a mass off that grid raises g
    instead of being rounded.
    """
    d = dist.denominator
    k = len(sites[0])
    weights = [[mass * d ** (k * m) for _, m, mass in rows] for rows in groups]
    g = math.lcm(*(w.denominator for ws in weights for w in ws))
    scale = g * d ** (k * n)
    dtype = _count_dtype(k, scale)
    ys = np.array(sites, dtype=np.int64)
    zs = [np.array([z for z, _, _ in rows], dtype=np.int64).reshape(-1, k)
          for rows in groups]
    span = int(np.ptp(np.concatenate([ys.ravel(), *(z.ravel() for z in zs)])))
    table = np.zeros((n + 1, 2 * span + 1), dtype=dtype)
    for l, pmf in enumerate(pmfs[:n + 1]):
        for v, mass in pmf.items():
            if abs(v) <= span:
                table[l, v + span] = mass.numerator * (d ** l // mass.denominator)
    sums = []
    for rows, ws, z in zip(groups, weights, zs):
        steps = np.array([n - m for _, m, _ in rows], dtype=np.int64)
        w = np.array([int(v * g) for v in ws], dtype=dtype)
        sums.append(_weighted_dets(table, ys, z, steps, w))
    return scale, sums


def _require_equal(identity: str, sites, lhs, rhs, scale: int):
    """Raise at the first site where lhs != rhs, both scale * the sides."""
    for y, left, right in zip(sites, lhs, rhs):
        if left != right:
            raise IdentityViolationError(identity, y, Fraction(left) / scale,
                                         Fraction(int(right), scale))


def _held(identity: str, cfg: WalkConfig, n: int, sites_checked: int, **extra):
    """The report of an identity that held exactly; a violation raises instead."""
    return VerificationReport(identity=identity, k=cfg.k, n=n, sites_checked=sites_checked,
                              max_abs_discrepancy=Fraction(0), passed=True, extra=extra)


def exact_km_check(cfg: WalkConfig, n: int) -> VerificationReport:
    """Verify the determinantal transition identity exactly at every site.

    P_x(tau > n, X(n) = y) == D_n(x, y) - sum over stopped (m, z) of
    P_x(tau = m, X(m) = z) * D_{n-m}(z, y), for all ordered y.

    Both sides are compared as integers, times d^(k n); the right side comes
    from the single-walk pmfs through batched integer determinants.
    """
    survival, stopped = _forward_tables(cfg, n)
    pmfs = _single_walk_pmfs(cfg.dist, n)
    sites = _candidate_sites(cfg, n, pmfs)
    x = tuple(int(c) for c in cfg.start)
    rows = [(x, 0, Fraction(1))] + [(z, m, -mass) for (m, z), mass in stopped.items()]
    scale, (rhs,) = _scaled_det_sums(cfg.dist, pmfs, n, sites, [rows])
    lhs = [survival[n].get(y, 0) * scale for y in sites]
    _require_equal("karlin-mcgregor", sites, lhs, rhs.tolist(), scale)
    return _held("karlin-mcgregor", cfg, n, len(sites))


def exact_reflection_check(cfg: WalkConfig, n: int, ls) -> list:
    """Verify the reflection identity at each exit time l in ls exactly at
    every site; returns one report per l, in the order of ls.

    The path reflection interchanges the step sequences of the minimal
    disordered pair of the exit configuration z = X(l); the reflected exit
    configuration is z - psi(z) (that pair swapped back). The identity reads

        -E_x[1{tau = l} D_{n-l}(X(l), y)]
            == E_x[1{tau = l} D_{n-l}(X(l) - psi(X(l)), y)]

    for every ordered y. (The literal pointwise "shift y by psi" form fails
    for walks that can jump over each other; the shift belongs on the exit
    configuration.) Exits that land exactly on the boundary contribute zero
    to both sides (psi = 0 there and the determinant has equal rows).

    Swapping two rows negates a determinant, so for one exit law the two
    sides agree whatever its masses. The left side therefore takes the exit
    law from the stopped measure, and the right side takes it afresh, by one
    step from the survivors at time l - 1 (the Markov property at l - 1), so
    a wrong stopped mass breaks the identity. Both sides are compared as
    integers, times d^(k n). One forward pass to n, one set of single-walk
    pmfs and one site list serve every l.
    """
    ls = list(ls)
    if not all(1 <= l <= n for l in ls):
        raise ValueError(f"need 1 <= l <= n for every l, got ls={ls}, n={n}")
    survival, stopped = _forward_tables(cfg, n)
    pmfs = _single_walk_pmfs(cfg.dist, n)
    sites = _candidate_sites(cfg, n, pmfs)
    steps = _step_vectors(cfg.dist, cfg.k)
    reports = []
    for l in ls:
        at_l = {z: mass for (m, z), mass in stopped.items() if m == l}
        boundary_ties = sum(1 for z in at_l if not any(reflection_shift(z)))
        exits = _push(survival[l - 1], steps)
        reflected = [(tuple(a - b for a, b in zip(z, reflection_shift(z))), l, mass)
                     for z, mass in exits.items() if not in_weyl(z)]
        scale, (lhs, rhs) = _scaled_det_sums(
            cfg.dist, pmfs, n, sites,
            [[(z, l, -mass) for z, mass in at_l.items()], reflected])
        _require_equal("reflection", sites, lhs.tolist(), rhs.tolist(), scale)
        reports.append(_held("reflection", cfg, n, len(sites),
                             l=l, boundary_tie_exits=boundary_ties))
    return reports


def exact_vn(cfg: WalkConfig, n: int):
    """Exact V_m(x) = Delta(x) - E_x[Delta(X(tau)) 1{tau <= m}] for m = 1..n.

    Returns the list [V_1, ..., V_n] of Fractions.
    """
    _, stopped = _forward_tables(cfg, n)
    delta_x = Fraction(vandermonde(tuple(int(c) for c in cfg.start)))
    per_time = [Fraction(0)] * (n + 1)
    for (m, z), mass in stopped.items():
        per_time[m] += mass * vandermonde(z)
    out = []
    acc = Fraction(0)
    for m in range(1, n + 1):
        acc += per_time[m]
        out.append(delta_x - acc)
    return out


def exact_martingale_check(cfg: WalkConfig, n: int) -> VerificationReport:
    """Assert E_x[Delta(X(m))] == Delta(x) exactly for every m <= n."""
    _require_lattice(cfg.dist)
    delta_x = Fraction(vandermonde(tuple(int(c) for c in cfg.start)))
    steps = _step_vectors(cfg.dist, cfg.k)
    table = _start_table(cfg)
    for m in range(1, n + 1):
        table = _push(table, steps)
        expect = sum((mass * vandermonde(y) for y, mass in table.items()), Fraction(0))
        if expect != delta_x:
            raise IdentityViolationError("martingale", m, expect, delta_x)
    return _held("martingale", cfg, n, n)


def exact_harmonicity_check(cfg: WalkConfig, n: int, v_start=None) -> VerificationReport:
    """Assert the one-step iteration E_x[1{tau > 1} V_n(X(1))] == V_{n+1}(x).

    v_start is [V_1(x), ..., V_{n+1}(x)] when the caller already has it from
    exact_vn(cfg, n + 1); otherwise that pass runs here. The step law, Delta
    and the chamber are invariant under translating every walker alike, so
    each in-chamber neighbour takes V_n from one forward DP per translation
    class: the start's own class reads V_n(x) from the same pass as
    V_{n+1}(x), and every other class runs its own.
    """
    from dataclasses import replace

    steps = _step_vectors(cfg.dist, cfg.k)
    x = tuple(int(c) for c in cfg.start)
    if v_start is None:
        v_start = exact_vn(cfg, n + 1)

    def shape(y):  # the class of y under translation
        return tuple(c - y[0] for c in y)

    v_n_by_shape = {shape(x): v_start[n - 1]} if n else {}
    acc = Fraction(0)
    sites = 0
    for vec, smass in steps:
        y = tuple(a + b for a, b in zip(x, vec))
        if not in_weyl(y):
            continue
        sites += 1
        if n == 0:
            v_n_y = Fraction(vandermonde(y))  # V_0 = Delta
        else:
            if shape(y) not in v_n_by_shape:
                v_n_by_shape[shape(y)] = exact_vn(replace(cfg, start=y), n)[n - 1]
            v_n_y = v_n_by_shape[shape(y)]
        acc += smass * v_n_y
    if acc != v_start[n]:
        raise IdentityViolationError("harmonicity", x, acc, v_start[n])
    return _held("harmonicity", cfg, n, sites)


# ---------------------------------------------------------------------------
# k = 2 gap chain: float64 DP for horizons far beyond the exact-capacity guard
# ---------------------------------------------------------------------------


def _gap_step_law(dist: StepDistribution):
    """Law of the difference of two independent steps, as (offsets, probs)."""
    _require_lattice(dist)
    law = {}
    for s1, m1 in dist.masses.items():
        for s2, m2 in dist.masses.items():
            d = s2 - s1
            law[d] = law.get(d, Fraction(0)) + m1 * m2
    offsets = np.array(sorted(law), dtype=np.int64)
    probs = np.array([float(law[o]) for o in sorted(law)])
    return offsets, probs


# The gap DP's window reaches this many gap standard deviations, sigma sqrt(n)
# at the last horizon n, above the start gap; a Gaussian tail of 12 sigma is
# about 1e-33, and whatever mass crosses the cap is counted, not kept.
_WINDOW_SIGMAS = 12.0
# a gap-chain result fails when the truncated mass could move it by more
# than this fraction of its value
_TRUNCATION_RTOL = 1e-15


class TruncationError(ArithmeticError):
    """The capped gap DP truncated more mass than a result may lose."""


def _require_truncation_within(what: str, value: float, bound: float):
    if bound > _TRUNCATION_RTOL * abs(value):
        raise TruncationError(
            f"{what} = {value:.6g}: the gap DP window of {_WINDOW_SIGMAS:g} sigma "
            f"sqrt(n) truncated mass bounding its error by {bound:.3g}, more than "
            f"{_TRUNCATION_RTOL:g} of the value")


def killed_gap_chain(dist: StepDistribution, start_gap: int, horizons):
    """Float64 DP of the killed two-walker gap chain.

    The gap of two independent walks is itself a random walk; the ordering
    survives while the gap stays strictly positive. The gap only visits
    start_gap + span * j, with span the gcd of the gap step offsets (2 for
    Rademacher), so the DP stores those gaps alone and advances them by one
    convolution with the step law per step. Its window grows with the reach
    and stops at _WINDOW_SIGMAS sigma sqrt(n) above the start gap (sigma^2
    the gap step variance, n the last horizon); mass that would cross it is
    summed as `truncated`, a hard bound on what the survival law lost.

    Returns (gaps, mass, table): mass[i] = P(tau > n, gap(n) = gaps[i]) on
    the positive gaps of the window at the last horizon n, and table maps
    each horizon h to (P(tau > h), E[gap(tau) 1{tau <= h}], truncated mass
    to h). The gap at absorption equals Delta of the two-walker configuration
    at tau. Float64 is used because the target horizons (up to 2^14) are far
    beyond exact-rational capacity. For Rademacher from gap 1 to 2^14 the
    survival agrees with the uncapped undecimated DP within 1.4e-15 relative
    at every horizon, and the truncated mass is 6e-34.
    """
    if start_gap <= 0:
        raise ValueError("start gap must be positive")
    offsets, probs = _gap_step_law(dist)
    span = int(np.gcd.reduce(offsets)) or 1
    lo, hi = int(offsets[0]) // span, int(offsets[-1]) // span
    kernel = np.zeros(hi - lo + 1)
    kernel[offsets // span - lo] = probs
    horizons = sorted(int(h) for h in horizons)
    n = horizons[-1]
    first = (start_gap - 1) % span + 1  # least positive gap on the start's lattice
    start = (start_gap - first) // span  # cell i holds gap first + span * i
    sigma = math.sqrt(float(probs @ offsets.astype(float) ** 2))
    cap = start + math.ceil(_WINDOW_SIGMAS * sigma * math.sqrt(n) / span) + 1
    exit_gaps = first + span * np.arange(lo, 0.0)  # cells lo..-1
    mass = np.zeros(start + 1)
    mass[start] = 1.0
    stopped = truncated = 0.0
    wanted = set(horizons)
    table = {0: (1.0, 0.0, 0.0)}
    for m in range(1, n + 1):
        arrive = np.convolve(mass, kernel)  # arrive[j] is the mass at cell j + lo
        stopped += float(arrive[:-lo] @ exit_gaps)
        if arrive.size + lo > cap:
            truncated += float(arrive[cap - lo:].sum())
        mass = arrive[-lo:cap - lo]
        if m in wanted:
            table[m] = (float(mass.sum()), stopped, truncated)
    gaps = first + span * np.arange(mass.size)
    return gaps, mass, {h: table[h] for h in horizons}


def _gap_chain_dp(dist: StepDistribution, start_gap: int, horizons):
    """Per horizon, (P(tau > h), E[gap(tau) 1{tau <= h}], truncated mass) of
    the gap chain; raises TruncationError where the truncated mass exceeds
    _TRUNCATION_RTOL of P(tau > h)."""
    table = killed_gap_chain(dist, start_gap, horizons)[2]
    for h, (alive, _, truncated) in table.items():
        _require_truncation_within(f"P(tau > {h})", alive, truncated)
    return table


def _gap_dp_extent(truncated: float, window_cells: int) -> dict:
    """What a report records of the capped gap DP behind a result."""
    return {"truncated_mass": truncated, "window_cells": window_cells}


def _alive_law(dist: StepDistribution, start_gap: int, n: int):
    """`gap_chain_alive_distribution`'s (gaps, probs), and the DP's extent:
    its truncated mass to n and the cells of its window at n."""
    gaps, mass, table = killed_gap_chain(dist, start_gap, [n])
    alive, _, truncated = table[n]
    _require_truncation_within(f"P(tau > {n})", alive, truncated)
    keep = mass > 0
    return gaps[keep], mass[keep] / alive, _gap_dp_extent(truncated, mass.size)


def gap_chain_alive_distribution(dist: StepDistribution, start_gap: int, n: int):
    """Law of the gap at time n conditioned on survival, by float64 DP.

    Returns (gaps, probs) with probs summing to one; useful as a noise-free
    reference for the conditioned endpoint distribution of two walkers.
    """
    return _alive_law(dist, start_gap, n)[:2]


def gap_chain_survival(dist: StepDistribution, start_gap: int, horizons):
    """P(tau > n) for the two-walker chain at each horizon, by float64 DP."""
    table = _gap_chain_dp(dist, start_gap, horizons)
    return [(h, table[h][0]) for h in sorted(table)]


def gap_chain_stopped_delta(dist: StepDistribution, start_gap: int, n: int):
    """E[Delta(X(tau)) 1{tau <= n}] for the two-walker chain, by float64 DP."""
    gaps, _, table = killed_gap_chain(dist, start_gap, [n])
    _, stopped, truncated = table[n]
    # a truncated path may still exit, at a gap no lower than the least
    # positive gap of the lattice plus the least step
    deepest = -(int(gaps[0]) + int(_gap_step_law(dist)[0][0]))
    _require_truncation_within(f"E[Delta(X(tau)); tau <= {n}]", stopped,
                               deepest * truncated)
    return stopped


# ---------------------------------------------------------------------------
# k Rademacher walkers from the packed start: a closed form at any horizon
# ---------------------------------------------------------------------------


def star_survival(k: int, horizons):
    """P(tau > n) of k Rademacher walkers from (0, 1, ..., k-1), per horizon.

    Moving walker i up by i makes every gap even, so the walkers become
    non-colliding ("vicious") walkers from (0, 2, ..., 2k-2), whose star
    count (Guttmann, Owczarek & Viennot, J. Phys. A 31, 1998) is
    2^{kn} P(tau > n) = prod_{1<=i<=j<=n} (k+i+j-1)/(i+j-1). The factors of
    one j multiply to 2^k prod_{m<k} (2j+m)/(2j+2m), so
    P(tau > n) = prod_{j<=n} prod_{m=1}^{k-1} (1 - m/(2(j+m))). Each horizon
    is one math.fsum of these log1p terms, with no 2^{kn} to cancel.
    Returns [(n, P(tau > n))] in increasing n.
    """
    horizons = sorted(int(h) for h in horizons)
    if k < 1 or horizons[0] < 0:
        raise ValueError("need k >= 1 and horizons >= 0")
    j = np.arange(1, horizons[-1] + 1)[:, None]
    m = np.arange(1, k)
    terms = np.log1p(-m / (2.0 * (j + m)))  # row j - 1 holds step j's factors
    return [(h, math.exp(math.fsum(terms[:h].ravel()))) for h in horizons]
