"""Exact integer dynamic programming for lattice walks.

Builds the constrained kernel P_x(tau > n, X(n) = y), the stopped measure
P_x(tau = m, X(m) = z) for z outside the chamber, and the signed determinantal
kernel D_n(x, y), then verifies the determinantal transition identity, the
reflection identity, the martingale property of the Vandermonde determinant
and the one-step iteration of V_n -- all as exact equalities.

With d the common denominator of the single-step masses, every mass at time
m is a multiple of d^(-k m). The forward DP therefore carries the integer
counts mass * d^(k m) in one dense box per time, an array with one axis per
walker: cell j of axis i is the position x_i + m lo + span j, with lo the
least step and span the gcd of the step differences. A step is k one-axis
convolutions with the single-walk counts d p(s); the walkers are killed after
the k-th. The counts are np.int64 while d^(k n) < 2^63 and Python ints in
object arrays above that bound, so no count is ever rounded, and no float
enters; Fractions appear only in what the API returns. The Karlin-McGregor
and reflection checks compare integers, times d^(k n), with the determinants
of all sites taken at once from the single-walk count tables.

For k = 2 the gap of the two walkers is itself a killed random walk, which
a float64 DP follows to horizons far past that capacity (2^14 and beyond).
`_gap_chain_dp` is its one checked entry: one pass gives, per horizon, the
survival, the first two moments of the gap at absorption (so V_n) and the
alive gap law, and fails with TruncationError where its capped window lost
enough mass to move a result. Survival, V_n, the conditioned gap law and the
transformed gap law are read from it; `_survival_by_gap` runs the same blocks
from every gap at once and truncates nothing it returns. `star_survival`
gives P(tau > n) of k Rademacher walkers from the packed start in closed
form, at any horizon.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .distributions import Lattice, StepDistribution, UnsupportedOperationError
from .engine import WalkConfig
from .geometry import exact_det, reflection_shift, signed_permutations, vandermonde

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
    "gap_chain_survival",
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


def _int_dtype(bound: int):
    """np.int64 for integers that stay below bound < 2^63, else object
    (Python int) arrays."""
    return np.int64 if bound < 2 ** 63 else object


# ---------------------------------------------------------------------------
# the forward DP on integer counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Counts:
    """One dense box of integer counts: counts[j] belongs to the
    configuration (origin_i + span j_i)_i. len() is the number of
    configurations that carry mass."""

    origin: tuple
    span: int
    counts: np.ndarray

    def __len__(self):
        return int(np.count_nonzero(self.counts))

    def positions(self, axis: int) -> np.ndarray:
        """The positions along one axis, shaped to broadcast over the box."""
        shape = [1] * self.counts.ndim
        shape[axis] = -1
        cells = np.arange(self.counts.shape[axis])
        return (self.origin[axis] + self.span * cells).reshape(shape)

    def chamber(self) -> np.ndarray:
        """Boolean mask of the strictly ordered configurations."""
        inside = np.ones(self.counts.shape, dtype=bool)
        for i in range(self.counts.ndim - 1):
            inside &= self.positions(i) < self.positions(i + 1)
        return inside

    def sparse(self, where=None):
        """(configs, counts) of the cells with mass, within the mask `where`
        if given: an (N, k) int64 array in lexicographic order, N counts."""
        mask = self.counts != 0
        if where is not None:
            mask &= where
        cells = np.nonzero(mask)
        configs = np.stack([o + self.span * c for o, c in zip(self.origin, cells)], axis=-1)
        return configs, self.counts[cells]

    def items(self):
        """(config tuple, int count) of each cell with mass."""
        return _pairs(*self.sparse())


def _pairs(configs, counts):
    """(config tuple, int count) of each row."""
    return zip(map(tuple, configs.tolist()), counts.tolist())


def _start(x, lattice: Lattice, dtype) -> _Counts:
    return _Counts(tuple(int(c) for c in x), lattice.span, np.ones((1,) * len(x), dtype=dtype))


def _convolve(counts: np.ndarray, weights, axis: int) -> np.ndarray:
    """Integer counts convolved with integer weights along one axis, in their dtype."""
    size = counts.shape[axis]
    shape = list(counts.shape)
    shape[axis] += len(weights) - 1
    out = np.zeros(shape, dtype=counts.dtype)
    src, dst = counts.swapaxes(0, axis), out.swapaxes(0, axis)
    for j, w in enumerate(weights):
        if w:
            dst[j:j + size] += src if w == 1 else w * src
    return out


def _push(box: _Counts, lattice: Lattice) -> _Counts:
    """One free step of every walker: the counts at time m + 1 from those at
    m, by one convolution with the step weights along each axis in turn."""
    counts = box.counts
    for axis in range(counts.ndim):
        counts = _convolve(counts, lattice.weights, axis)
    return _Counts(tuple(o + lattice.lo for o in box.origin), lattice.span, counts)


def _free_boxes(x, lattice: Lattice, n: int, dtype):
    """The free counts from x at times 0, 1, ..., n."""
    box = _start(x, lattice, dtype)
    yield box
    for _ in range(n):
        box = _push(box, lattice)
        yield box


def _forward_tables(cfg: WalkConfig, n: int):
    """One forward pass of the killed walk: per-time survival counts and exits.

    Returns (survival, stopped). survival[m] is the box of the counts
    d^(k m) P_x(tau > m, X(m) = y), zero off the chamber, so len(survival[m])
    is the number of configurations alive at time m. stopped[m] is
    (configs, counts): the exits z at time m, an (N, k) array, with their
    counts d^(k m) P_x(tau = m, X(m) = z); stopped[0] is empty.
    """
    _require_lattice(cfg.dist)
    _check_capacity(cfg.dist, cfg.k, n)
    lattice = cfg.dist.lattice
    box = _start(cfg.start, lattice, _int_dtype(cfg.dist.denominator ** (cfg.k * n)))
    survival = [box]
    stopped = [box.sparse(~box.chamber())]  # empty: the start is ordered
    for _ in range(n):
        box = _push(box, lattice)
        dead = ~box.chamber()
        stopped.append(box.sparse(dead))
        box.counts[dead] = 0
        survival.append(box)
    return survival, stopped


def _masses(box: _Counts, scale: int) -> dict:
    return {y: Fraction(c, scale) for y, c in box.items()}


def exact_survival_kernel(cfg: WalkConfig, n: int) -> ExactKernel:
    """Exact table of P_x(tau > n, X(n) = y) over ordered configurations."""
    survival, _ = _forward_tables(cfg, n)
    d = cfg.dist.denominator
    return ExactKernel(cfg.k, n, _masses(survival[n], d ** (cfg.k * n)))


def exact_stopped_measure(cfg: WalkConfig, n: int) -> dict:
    """Exact table of P_x(tau = m, X(m) = z), m <= n, z outside the chamber."""
    _, stopped = _forward_tables(cfg, n)
    d = cfg.dist.denominator
    return {(m, z): Fraction(c, d ** (cfg.k * m))
            for m, exits in enumerate(stopped) for z, c in _pairs(*exits)}


def exact_free_kernel(cfg: WalkConfig, n: int) -> ExactKernel:
    """Unconstrained n-step kernel (product of k single-walk convolutions)."""
    _require_lattice(cfg.dist)
    _check_capacity(cfg.dist, cfg.k, n)
    scale = cfg.dist.denominator ** (cfg.k * n)
    *_, box = _free_boxes(cfg.start, cfg.dist.lattice, n, _int_dtype(scale))
    return ExactKernel(cfg.k, n, _masses(box, scale))


def _single_walk_counts(dist: StepDistribution, n: int):
    """[C_0, ..., C_n]: C_l the one-axis box of the counts d^l P_0(X(l) = v)
    of a single walk, the k = 1 case of the forward DP."""
    return list(_free_boxes((0,), dist.lattice, n, _int_dtype(dist.denominator ** n)))


def exact_d_matrix(x, y, n: int, dist: StepDistribution, walks=None) -> Fraction:
    """Exact determinant det[(P_{x_i}(X_1(n) = y_j))_{i,j}].

    The scalar reference for the batched integer determinants below; walks
    is _single_walk_counts(dist, n') for some n' >= n, if already at hand.
    """
    _require_lattice(dist)
    if walks is None:
        walks = _single_walk_counts(dist, n)
    count = {v: c for (v,), c in walks[n].items()}
    k = len(x)
    rows = [[count.get(int(y[j]) - int(x[i]), 0) for j in range(k)] for i in range(k)]
    return Fraction(exact_det(rows), dist.denominator ** (k * n))


def _candidate_sites(cfg: WalkConfig, n: int, walks):
    """Ordered configurations on which either side could carry mass.

    A step lies in lo + span Z, so walker i sits in x_i + m lo + span Z at
    time m. A site y carries survival mass only if y_i = x_i + n lo mod span,
    and a term det[p_{n-m}(y_j - z_i)] of either identity, with z_i =
    x_i + m lo mod span, has a nonzero Leibniz product only if some
    permutation s has y_s(i) = z_i + (n - m) lo = x_i + n lo mod span. So
    both sides are zero unless the residues of y mod span are a permutation
    of those of x + n lo.
    """
    reach = walks[n].sparse()[0][:, 0].tolist()
    values = sorted({int(xi) + v for xi in cfg.start for v in reach})
    span = walks[n].span
    residues = sorted((int(xi) + reach[0]) % span for xi in cfg.start)
    return [y for y in itertools.combinations(values, cfg.k)
            if sorted(c % span for c in y) == residues]


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
    return _int_dtype(2 * math.factorial(k) * scale)


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
        for perm, sign in signed_permutations(k):
            term = entry[0][perm[0]]
            for i in range(1, k):
                term = term * entry[i][perm[i]]
            det = det + term if sign > 0 else det - term
        total += weights[a:a + chunk] @ det
    return total


def _scaled_det_sums(dist: StepDistribution, walks, n: int, sites, groups):
    """(scale, sums): per group of parts (configs, m, counts), with counts
    mass * d^(k m) of the configurations z at time m <= n, the integers
    scale * sum of mass * D_{n-m}(z, y) = sum of count * det[C_{n-m}(y_j - z_i)]
    at every site y, where scale = d^(k n).
    """
    k = len(sites[0])
    scale = dist.denominator ** (k * n)
    dtype = _count_dtype(k, scale)
    ys = np.array(sites, dtype=np.int64)
    reach = int(np.ptp(np.concatenate(
        [ys.ravel()] + [z.ravel() for parts in groups for z, _, _ in parts])))
    # the table holds every displacement of the walk and between configurations
    half = max(reach, int(np.abs(walks[n].positions(0)).max()))
    table = np.zeros((n + 1, 2 * half + 1), dtype=dtype)
    for l, walk in enumerate(walks[:n + 1]):
        first = walk.origin[0] + half
        table[l, first:first + walk.span * walk.counts.size:walk.span] = walk.counts
    sums = []
    for parts in groups:
        zs = np.concatenate([z for z, _, _ in parts])
        steps = np.concatenate([np.full(len(z), n - m, dtype=np.int64) for z, m, _ in parts])
        weights = np.concatenate([c.astype(dtype) for _, _, c in parts])
        sums.append(_weighted_dets(table, ys, zs, steps, weights))
    return scale, sums


def _require_equal(identity: str, sites, lhs, rhs, scale: int):
    """Raise at the first site where lhs != rhs, both scale * the sides."""
    for y, left, right in zip(sites, lhs, rhs):
        if left != right:
            raise IdentityViolationError(identity, y, Fraction(int(left), scale),
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
    from the single-walk counts through batched integer determinants.
    """
    survival, stopped = _forward_tables(cfg, n)
    walks = _single_walk_counts(cfg.dist, n)
    sites = _candidate_sites(cfg, n, walks)
    x = np.array([[int(c) for c in cfg.start]], dtype=np.int64)
    rows = [(x, 0, np.ones(1, dtype=np.int64))]
    rows += [(z, m, -counts) for m, (z, counts) in enumerate(stopped)]
    scale, (rhs,) = _scaled_det_sums(cfg.dist, walks, n, sites, [rows])
    alive = dict(survival[n].items())
    lhs = [alive.get(y, 0) for y in sites]
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
    counts and one site list serve every l.
    """
    ls = list(ls)
    if not all(1 <= l <= n for l in ls):
        raise ValueError(f"need 1 <= l <= n for every l, got ls={ls}, n={n}")
    survival, stopped = _forward_tables(cfg, n)
    walks = _single_walk_counts(cfg.dist, n)
    sites = _candidate_sites(cfg, n, walks)
    reports = []
    for l in ls:
        exits, counts = stopped[l]
        boundary_ties = sum(1 for z in exits.tolist() if not any(reflection_shift(z)))
        fresh = _push(survival[l - 1], cfg.dist.lattice)
        fresh_exits, fresh_counts = fresh.sparse(~fresh.chamber())
        reflected = np.array([[a - b for a, b in zip(z, reflection_shift(z))]
                              for z in fresh_exits.tolist()], dtype=np.int64)
        scale, (lhs, rhs) = _scaled_det_sums(
            cfg.dist, walks, n, sites,
            [[(exits, l, -counts)], [(reflected.reshape(-1, cfg.k), l, fresh_counts)]])
        _require_equal("reflection", sites, lhs.tolist(), rhs.tolist(), scale)
        reports.append(_held("reflection", cfg, n, len(sites),
                             l=l, boundary_tie_exits=boundary_ties))
    return reports


def _delta_sum(configs, counts) -> int:
    """sum of count * Delta(z) over the rows z of configs, in Python ints."""
    delta = vandermonde(configs.astype(object))
    return sum(map(operator.mul, counts.tolist(), delta.tolist()))


def exact_vn(cfg: WalkConfig, n: int):
    """Exact V_m(x) = Delta(x) - E_x[Delta(X(tau)) 1{tau <= m}] for m = 1..n.

    Returns the list [V_1, ..., V_n] of Fractions.
    """
    _, stopped = _forward_tables(cfg, n)
    d = cfg.dist.denominator
    delta_x = vandermonde(tuple(int(c) for c in cfg.start))
    out = []
    acc = Fraction(0)
    for m in range(1, n + 1):
        acc += Fraction(_delta_sum(*stopped[m]), d ** (cfg.k * m))
        out.append(delta_x - acc)
    return out


def exact_martingale_check(cfg: WalkConfig, n: int) -> VerificationReport:
    """Assert E_x[Delta(X(m))] == Delta(x) exactly for every m <= n: the
    Delta-weighted free counts at time m sum to d^(k m) Delta(x)."""
    _require_lattice(cfg.dist)
    d = cfg.dist.denominator
    x = tuple(int(c) for c in cfg.start)
    delta_x = vandermonde(x)
    boxes = _free_boxes(x, cfg.dist.lattice, n, _int_dtype(d ** (cfg.k * n)))
    next(boxes)  # time 0
    for m, box in enumerate(boxes, 1):
        total = _delta_sum(*box.sparse())
        if total != d ** (cfg.k * m) * delta_x:
            raise IdentityViolationError("martingale", m, Fraction(total, d ** (cfg.k * m)),
                                         Fraction(delta_x))
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

    x = tuple(int(c) for c in cfg.start)
    if v_start is None:
        v_start = exact_vn(cfg, n + 1)
    d = cfg.dist.denominator
    lattice = cfg.dist.lattice
    one = _push(_start(x, lattice, _int_dtype(d ** cfg.k)), lattice)
    neighbours = list(_pairs(*one.sparse(one.chamber())))  # (y, d^k P_x(X(1) = y))

    def shape(y):  # the class of y under translation
        return tuple(c - y[0] for c in y)

    v_n_by_shape = {shape(x): v_start[n - 1]} if n else {}
    acc = 0
    for y, count in neighbours:
        if n == 0:
            v_n_y = vandermonde(y)  # V_0 = Delta
        else:
            if shape(y) not in v_n_by_shape:
                v_n_by_shape[shape(y)] = exact_vn(replace(cfg, start=y), n)[n - 1]
            v_n_y = v_n_by_shape[shape(y)]
        acc += count * v_n_y
    acc = Fraction(acc) / d ** cfg.k
    if acc != v_start[n]:
        raise IdentityViolationError("harmonicity", x, acc, v_start[n])
    return _held("harmonicity", cfg, n, len(neighbours))


# ---------------------------------------------------------------------------
# k = 2 gap chain: float64 DP for horizons far beyond the exact-capacity guard
# ---------------------------------------------------------------------------


def _gap_law(dist: StepDistribution) -> dict:
    """Law of the difference of two independent steps: {offset: Fraction}."""
    _require_lattice(dist)
    law = {}
    for s1, m1 in dist.masses.items():
        for s2, m2 in dist.masses.items():
            d = s2 - s1
            law[d] = law.get(d, Fraction(0)) + m1 * m2
    return law


# read only by the benchmark's tracer, to count the gap DP's cells
def _gap_step_law(dist: StepDistribution):
    """Law of the difference of two independent steps, as (offsets, probs)."""
    law = _gap_law(dist)
    offsets = np.array(sorted(law), dtype=np.int64)
    probs = np.array([float(law[o]) for o in sorted(law)])
    return offsets, probs


# A block's counts stay below this bound, so each count / den^r of a block
# table is one float64 rounding, and none for a dyadic den.
_EXACT_FLOAT_BOUND = 2 ** 53


def _gap_blocks(dist: StepDistribution, gap: int, n: int):
    """The killed gap chain's r-step blocks, r = 1..L, on the lattice of the
    gap `gap`: the gaps first + span i, first the least positive one, span
    the gcd of the gap step offsets. Cell i is alive while i >= 0.

    Returns (span, first, hi, blocks): one step moves a cell by lo..hi, and
    blocks[r - 1] = (kernel, band, exits). kernel is the r-fold step law on
    displacements r lo..r hi. No path from a cell i >= r |lo| can exit within
    r steps; below that lie the band cells, with band[i, j] =
    P_i(tau > r, cell(r) = j) and exits[i] = (E_i[gap(tau); tau <= r],
    E_i[gap(tau)^2; tau <= r]).

    With den the common denominator of the gap law, L <= n is the largest r
    with den^r < 2^53 (at least 1). All tables come from one integer count DP
    of L steps, started from a point mass on each of the band cells of the
    L-step block and on the first cell above them: after r sub-steps its
    first r |lo| rows are the r-step band and row r |lo| is the r-fold kernel.
    They read (gap law, first, L) alone: built once per key, shared read-only.
    """
    law = Lattice.of(_gap_law(dist))
    size = 1
    while size < n and law.denominator ** (size + 1) < _EXACT_FLOAT_BOUND:
        size += 1
    return _gap_block_tables(law, (gap - 1) % law.span + 1, size)


@functools.lru_cache(maxsize=32)
def _gap_block_tables(law: Lattice, first: int, size: int):
    """`_gap_blocks` of the gap law `law` on the gaps first + span i, L = size."""
    span, den, step = law.span, law.denominator, law.weights
    lo = law.lo // span  # the gap law is symmetric, so span divides lo
    hi = lo + len(step) - 1
    rows = size * -lo + 1
    # bounds the counts and both exit moments
    dtype = _int_dtype(den ** size * (span * (1 - lo)) ** 2)
    state = np.eye(rows, dtype=dtype)  # state[i, j]: from cell i to cell j
    # in Python ints: the square of a wide law's exit gap passes int64
    exit_moments = np.array([[g, g * g] for g in range(first + span * lo, first, span)],
                            dtype=dtype)
    exits = np.zeros((rows, 2), dtype=dtype)
    blocks = []
    for r in range(1, size + 1):
        out = _convolve(state, step, 1)  # cells lo..
        exits = den * exits + out[:, :-lo] @ exit_moments
        state = out[:, -lo:]
        b, scale = r * -lo, den ** r
        blocks.append(tuple(np.asarray(a / scale, dtype=float) for a in (
            state[b, :b + r * hi + 1], state[:b, :b + r * hi], exits[:b])))
    for table in itertools.chain.from_iterable(blocks):
        table.flags.writeable = False
    return span, first, hi, tuple(blocks)


def _run_blocks(gap_blocks, mass: np.ndarray, cap: int, horizons):
    """Advance the killed chain from the mass on cells 0.. to each horizon.

    Each horizon ends a block, and blocks are L steps long but for the one
    before a horizon. The cells above the band move by one convolution with
    the kernel, the band by one product with its transfer matrix. At the end
    of a block the mass on cells >= cap is summed into `truncated` and
    dropped; the capped chain is a sub-process of the uncapped one, so this
    bounds what it lost. Yields (h, mass, stopped, stopped_sq, truncated) per
    horizon, with stopped = E[gap(tau); tau <= h] and stopped_sq =
    E[gap(tau)^2; tau <= h] of the kept mass.
    """
    *_, hi, blocks = gap_blocks
    m, moments, truncated = 0, np.zeros(2), 0.0
    for h in horizons:
        while m < h:
            r = min(len(blocks), h - m)
            kernel, band, exits = blocks[r - 1]
            b = min(len(band), mass.size)
            if mass.size > b:
                arrive = np.convolve(mass[b:], kernel)
            else:
                arrive = np.zeros(mass.size + r * hi)
            arrive[:b + r * hi] += mass[:b] @ band[:b, :b + r * hi]
            moments += mass[:b] @ exits[:b]
            if arrive.size > cap:
                truncated += float(arrive[cap:].sum())
                arrive = arrive[:cap]
            mass, m = arrive, m + r
        stopped, stopped_sq = map(float, moments)
        yield h, mass, stopped, stopped_sq, truncated


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
            f"{what} = {value:.6g}: the gap window of {_WINDOW_SIGMAS:g} sigma "
            f"sqrt(n) truncated mass bounding its error by {bound:.3g}, more than "
            f"{_TRUNCATION_RTOL:g} of the value")


class _GapPass(NamedTuple):
    """The killed gap chain at one horizon h: alive = P(tau > h), stopped =
    E[gap(tau); tau <= h], stopped_sq = E[gap(tau)^2; tau <= h], the mass
    the window truncated by h, and mass[i] = P(tau > h, gap(h) = gaps[i]) on
    the positive gaps of the window at h."""

    alive: float
    stopped: float
    stopped_sq: float
    truncated: float
    gaps: np.ndarray
    mass: np.ndarray

    def law(self):
        """The gap at h conditioned on survival: (gaps, probs), probs summing
        to one, on the gaps it can hold."""
        keep = self.mass > 0
        return self.gaps[keep], self.mass[keep] / self.alive

    def extent(self) -> dict:
        """What a report records of the capped DP behind a result."""
        return {"truncated_mass": self.truncated, "window_cells": self.mass.size}


def _gap_chain_dp(dist: StepDistribution, start_gap: int, horizons):
    """Float64 DP of the killed two-walker gap chain: {h: _GapPass}.

    The gap of two independent walks is itself a random walk; the ordering
    survives while the gap stays strictly positive. The gap only visits
    start_gap + span * j, with span the gcd of the gap step offsets (2 for
    Rademacher), so the DP stores those gaps alone. It advances them in
    blocks of up to L steps (`_gap_blocks`: 26 for Rademacher, 13 for lazy
    steps), each one convolution with the exact r-fold step law for the
    cells that cannot exit within the block and one small matrix product for
    the band below them. Its window grows with the reach and stops at
    _WINDOW_SIGMAS sigma sqrt(n) above the start gap (sigma^2 the gap step
    variance, n the last horizon); mass past it at the end of a block is
    summed as `truncated`, a hard bound on what the survival law lost.

    Raises TruncationError where the truncated mass could move P(tau > h) or
    V_h = start_gap - E[gap(tau); tau <= h] by more than _TRUNCATION_RTOL of
    its value; V_h >= P(tau > h) > 0. The gap at absorption equals Delta of
    the two-walker configuration at tau. Float64 is used because the target
    horizons (up to 2^14) are far beyond exact-rational capacity. For
    Rademacher from gaps 1, 3, 5 and 9 the survival agrees with the exact
    reflection formula within 2.5e-15 relative at horizons up to 2^14, and
    from gap 1 the truncated mass to 2^14 is 5.2e-34. For lazy steps and for
    the masses 1/3, 2/3 on -2, 1 it agrees with an exact integer DP within
    2.7e-15 relative to n = 2000.
    """
    if start_gap <= 0:
        raise ValueError("start gap must be positive")
    horizons = sorted(int(h) for h in horizons)
    n = horizons[-1]
    chain = _gap_blocks(dist, start_gap, n)
    span, first, hi, _ = chain
    start = (start_gap - first) // span  # cell i holds gap first + span * i
    sigma = math.sqrt(2.0 * dist.variance)  # of the gap step
    cap = start + math.ceil(_WINDOW_SIGMAS * sigma * math.sqrt(n) / span) + 1
    # a truncated path may still exit, at a gap no lower than the least
    # positive gap of the lattice plus the least step, -span hi
    deepest = span * hi - first
    mass = np.zeros(start + 1)
    mass[start] = 1.0
    passes = {}
    for h, mass, stopped, stopped_sq, truncated in _run_blocks(chain, mass, cap, horizons):
        alive = float(mass.sum())
        _require_truncation_within(f"P(tau > {h})", alive, truncated)
        _require_truncation_within(f"V_{h}", start_gap - stopped, deepest * truncated)
        passes[h] = _GapPass(alive, stopped, stopped_sq, truncated,
                             first + span * np.arange(mass.size), mass)
    return passes


def gap_chain_alive_distribution(dist: StepDistribution, start_gap: int, n: int):
    """Law of the gap at time n conditioned on survival, by float64 DP.

    Returns (gaps, probs) with probs summing to one; useful as a noise-free
    reference for the conditioned endpoint distribution of two walkers.
    """
    return _gap_chain_dp(dist, start_gap, [n])[n].law()


def gap_chain_survival(dist: StepDistribution, start_gap: int, horizons):
    """P(tau > n) for the two-walker chain at each horizon, by float64 DP."""
    return [(h, p.alive) for h, p in _gap_chain_dp(dist, start_gap, horizons).items()]


def _survival_by_gap(dist: StepDistribution, gaps, n: int) -> np.ndarray:
    """P_g(tau > n) for every gap g of `gaps`, all on one lattice, in one DP.

    The gap law is symmetric, so the killed transition between the cells of
    the lattice is a symmetric matrix Q, and P_g(tau > n) = (Q^n 1)[g] =
    (1 Q^n)[g]: the mass at g after n steps of the chain started from mass 1
    on every cell. Only cells up to G + n hi can reach the top cell G in n
    steps, so the start stops there, and the mass the window drops above it
    could not have come back to G: the pass truncates nothing it returns.
    """
    gaps = np.asarray(gaps, dtype=np.int64)
    chain = _gap_blocks(dist, int(gaps[0]), n)
    span, first, hi, _ = chain
    cells = (gaps - first) // span
    top = int(cells.max()) + n * hi
    (_, mass, *_), = _run_blocks(chain, np.ones(top + 1), top + 1, [n])
    return mass[cells]


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
