"""Centered step distributions and deterministic keyed random streams.

Lattice kinds carry exact rational masses on integer sites, the `Lattice`
built from them once (the steps lo + span*j with their integer counts
d*p(lo + span*j), d the masses' common denominator), which every exact layer
reads, and a step sampler compiled once from that lattice: uniform integers
on [0, d), cut from the stream's raw 64-bit words (in byte lanes or wider,
or one bit per draw when d = 2) and mapped to slots j by integer comparisons
with the slot ranges' ends, so every draw has exactly the law's masses.
Continuous kinds only promise determinism per stream and the stored moments.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "StepDistribution",
    "Lattice",
    "LatticeSampler",
    "RandomStream",
    "make_distribution",
    "seed_error",
]

_CONTINUOUS_KINDS = ("gaussian", "uniform", "laplace")
# the keys each kind reads; make_distribution rejects any other
_KIND_PARAMS = {"rademacher": (), "lazy_lattice": (), "custom_lattice": ("masses",),
                **dict.fromkeys(_CONTINUOUS_KINDS, ("variance",))}

# Stream registry. Every generator is keyed (master_seed, salt); the
# salt ranges below are disjoint, so consumers of different ranges never share
# a key. Within one range the key is shared on purpose: every plain-walk run
# (tail, estimate-v, endpoint, transform) draws block b of its paths from the
# same engine stream, so runs of one walk at one master seed share paths.
BLOCK_SALT = 0  # block b of an engine batch uses salt BLOCK_SALT + b (b < 2**60)
# block b of a Gaussian engine batch draws the centres of mass of its rows,
# which its gap-frame steps leave out, from salt CENTRE_SALT + b (b < 2**60)
CENTRE_SALT = 2 ** 61
TRANSFORMED_CHAIN_SALT = 3 * 2 ** 61  # k=2 transformed chain, gap and pair samplers

# the exact sampler refuses laws whose denominator reaches this
_MAX_DENOMINATOR = 2 ** 63


class UnsupportedOperationError(TypeError):
    """Raised when a lattice-only operation is called on a continuous law."""


@dataclass(frozen=True)
class Lattice:
    """A law on lo + span*Z: the step lo + span*j has mass weights[j] / d,
    with d = `denominator` the masses' common denominator and span the gcd of
    the differences of the steps with mass. The first and last weights are
    positive; sites of mass zero are dropped."""

    lo: int
    span: int
    weights: tuple  # ints, d * p(lo + span*j)
    denominator: int

    @classmethod
    def of(cls, masses):
        """The lattice of a {site: Fraction} law with at least two sites of
        positive mass."""
        sites = [s for s, p in sorted(masses.items()) if p > 0]
        lo = sites[0]
        span = math.gcd(*(s - lo for s in sites))
        d = math.lcm(*(p.denominator for p in masses.values()))
        weights = [0] * ((sites[-1] - lo) // span + 1)
        for s in sites:
            weights[(s - lo) // span] = int(masses[s] * d)
        return cls(lo=lo, span=span, weights=tuple(weights), denominator=d)


@dataclass(frozen=True)
class LatticeSampler:
    """Exact step sampler in slot units: a uniform integer u on [0, d) picks
    the slot j of the step lo + span * j whose range holds it; slot j owns
    d * p(lo + span * j) consecutive values of u.

    The uniforms come from the generator's raw 64-bit words, each cut into
    lanes of `draw_dtype` (little-endian: the low byte first). A lane is
    masked to the bit length of d - 1 and kept if it is below d; lanes at or
    above d are rejected, and more words are drawn until the shape is full.
    So the kept lanes are exactly uniform on [0, d), and a power-of-two d
    rejects nothing. For d = 2 a lane is one bit instead (the low bit of the
    low byte first), so a word gives 64 draws rather than 8. A draw of N
    steps is the first N kept lanes of the word stream, so a smaller draw
    from the same state is a prefix of a larger one.

    The slot of u is sum_i jumps[i] * [u >= ends[i]], one compare-add per
    slot of positive mass but the first, in the dtype the caller asks for;
    for d = 2 it is u itself.
    """

    denominator: int
    draw_dtype: type  # smallest unsigned dtype holding every draw, d - 1
    ends: np.ndarray  # first draw past each slot's range but the last's, in draw_dtype
    jumps: np.ndarray  # slot differences of consecutive slots of positive mass, int64

    @classmethod
    def compile(cls, lattice: Lattice):
        d = lattice.denominator
        if d >= _MAX_DENOMINATOR:
            raise ValueError(
                f"common denominator {d} of the step masses is not below 2**63, "
                "the bound of the exact integer step sampler")
        hi = lattice.lo + lattice.span * (len(lattice.weights) - 1)
        if not -2 ** 63 <= lattice.lo <= hi < 2 ** 63 or hi - lattice.lo >= 2 ** 63:
            raise ValueError(f"step sites {lattice.lo}..{hi} do not fit in int64 "
                             f"with a spread below 2**63")
        slots, counts = zip(*((j, w) for j, w in enumerate(lattice.weights) if w))
        draw_dtype = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                          if d - 1 <= np.iinfo(t).max)
        return cls(denominator=d, draw_dtype=draw_dtype,
                   ends=np.cumsum(counts[:-1], dtype=np.uint64).astype(draw_dtype),
                   jumps=np.diff(slots))

    def slots_of(self, u, dtype):
        """Slot of each draw in u (entries in [0, d)), in `dtype`, which must
        hold the last slot."""
        if self.denominator == 2:
            return u.astype(dtype)
        first, jumps = u >= self.ends[0], self.jumps
        out = first.astype(dtype) if jumps[0] == 1 else np.multiply(first, jumps[0], dtype=dtype)
        for end, jump in zip(self.ends[1:], jumps[1:]):
            out += (u >= end) if jump == 1 else np.multiply(u >= end, jump, dtype=dtype)
        return out

    def uniforms(self, bit_generator, size: int) -> np.ndarray:
        """`size` exact uniform integers on [0, d) from raw words, in stream order."""
        d = self.denominator
        if d == 2:
            # one-bit lanes: the words' bits, low bit of the low byte first
            words = bit_generator.random_raw(-(-size // 64))
            return np.unpackbits(words.view(np.uint8), count=size, bitorder="little")
        mask = (1 << (d - 1).bit_length()) - 1
        lanes = 8 // np.dtype(self.draw_dtype).itemsize  # lanes per 64-bit word
        kept = []
        need = size
        while True:
            # enough words for `need` kept lanes at the mean acceptance d / (mask + 1)
            words = bit_generator.random_raw(-(-need * (mask + 1) // (d * lanes)))
            u = words.view(self.draw_dtype)
            u &= mask
            if mask + 1 != d:
                u = u.take(np.flatnonzero(u < d))  # faster than a boolean mask
            kept.append(u)
            need -= u.size
            if need <= 0:
                break
        u = kept[0] if len(kept) == 1 else np.concatenate(kept)
        return u[:size]

    def draw(self, rng: np.random.Generator, shape, dtype):
        """Slots of the given int or tuple shape, in C order, in `dtype`."""
        size = math.prod(shape) if isinstance(shape, tuple) else int(shape)
        return self.slots_of(self.uniforms(rng.bit_generator, size), dtype).reshape(shape)


@dataclass(frozen=True)
class StepDistribution:
    kind: str
    variance: float
    # exact site -> mass table, lattice kinds only
    masses: dict | None = field(default=None, repr=False)
    # built from masses once, at construction; lattice kinds only
    lattice: Lattice | None = field(default=None, init=False)
    sampler: LatticeSampler | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        if self.masses is not None:
            lattice = Lattice.of(self.masses)
            object.__setattr__(self, "lattice", lattice)
            object.__setattr__(self, "sampler", LatticeSampler.compile(lattice))

    @property
    def is_lattice(self) -> bool:
        return self.masses is not None

    @property
    def denominator(self) -> int:
        """Common denominator of the single-step masses (lattice kinds)."""
        if not self.is_lattice:
            raise UnsupportedOperationError(f"{self.kind} has no exact mass table")
        return self.lattice.denominator

    def sample_array(self, rng: np.random.Generator, shape, dtype=np.int64):
        """Draw an array of i.i.d. steps, of an int or tuple shape, from `rng`.

        Lattice kinds return each step's slot (s - lo) / span from the
        compiled sampler, in `dtype` (an integer dtype that holds the last
        slot). Continuous kinds ignore `dtype` and return float64 steps.
        Either way the steps fill the shape in C order from the stream, so a
        draw of fewer leading rows from the same state is a prefix.
        """
        if self.sampler is not None:
            return self.sampler.draw(rng, shape, dtype)
        if self.kind == "gaussian":
            steps = rng.standard_normal(shape)
            steps *= math.sqrt(self.variance)
            return steps
        if self.kind == "uniform":
            half = math.sqrt(3.0 * self.variance)
            return rng.uniform(-half, half, shape)
        return rng.laplace(0.0, math.sqrt(self.variance / 2.0), shape)


def _exact_moments(masses):
    mean = sum(Fraction(s) * m for s, m in masses.items())
    var = sum(Fraction(s) ** 2 * m for s, m in masses.items()) - mean ** 2
    return mean, var


def make_distribution(kind: str, **params) -> StepDistribution:
    """Build a StepDistribution for one of the supported kinds.

    custom_lattice takes masses={site: Fraction-like}, which must be
    nonnegative, sum to one and have mean zero.
    """
    if not isinstance(kind, str) or kind not in _KIND_PARAMS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    for key in params:
        if key not in _KIND_PARAMS[kind]:
            raise ValueError(f"dist.{key} is not read by kind {kind}, which reads "
                             f"{', '.join(_KIND_PARAMS[kind]) or 'nothing'}")
    if kind in _CONTINUOUS_KINDS:
        variance = float(params.get("variance", 1.0))
        if not 0 < variance < math.inf:
            raise ValueError(f"variance must be positive and finite, got {variance}")
        return StepDistribution(kind=kind, variance=variance)
    if kind == "rademacher":
        masses = {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    elif kind == "lazy_lattice":
        masses = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    else:
        raw = params.get("masses")
        if not isinstance(raw, dict) or not raw:
            raise ValueError(f"custom_lattice requires a masses mapping, got {raw!r}")
        masses = {int(site): Fraction(mass) for site, mass in raw.items()}
        if any(m < 0 for m in masses.values()):
            raise ValueError("custom_lattice masses must be nonnegative")
        total = sum(masses.values())
        if total != 1:
            raise ValueError(f"custom_lattice masses sum to {total}, expected 1")
    mean, var = _exact_moments(masses)
    if mean != 0:
        raise ValueError(f"custom_lattice mean is {mean}, expected 0")
    if var <= 0:
        raise ValueError(f"variance must be positive, got {var}")
    return StepDistribution(kind=kind, variance=float(var), masses=masses)


def seed_error(seed):
    """Why `seed` cannot be a master seed, or None: a seed is one 64-bit word
    in specs, manifests and the stream's SeedSequence entropy."""
    if (not isinstance(seed, (int, np.integer)) or isinstance(seed, bool)
            or not 0 <= seed < 2 ** 64):
        return f"seed must be an integer in [0, 2**64), got {seed!r}"
    return None


@dataclass
class RandomStream:
    """Keyed stream: an SFC64 generator seeded by the SeedSequence of
    master_seed with path_index, the salt, as its spawn key.

    Replaying a stream with the same key reproduces the identical sequence;
    distinct keys give statistically independent streams. (An entropy list
    [seed, salt] would give (2**32, 5) and (0, 1 + 5 * 2**32) one stream.)
    """

    master_seed: int
    path_index: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if error := seed_error(self.master_seed):
            raise ValueError(error)

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            bitgen = np.random.SFC64(
                np.random.SeedSequence(self.master_seed, spawn_key=(self.path_index,)))
            self._gen = np.random.Generator(bitgen)
        return self._gen
