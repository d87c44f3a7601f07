"""Centered step distributions and deterministic counter-based random streams.

Lattice kinds carry exact rational masses on integer sites together with the
span/offset of the per-step lattice (support is a subset of offset + span*Z).
Continuous kinds only promise determinism per stream and the stored moments.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "StepDistribution",
    "RandomStream",
    "make_distribution",
    "sample_step",
    "step_pmf",
    "moments",
]

_CONTINUOUS_KINDS = ("gaussian", "uniform", "laplace")
_LATTICE_KINDS = ("rademacher", "lazy_lattice", "custom_lattice")


class UnsupportedOperationError(TypeError):
    """Raised when a lattice-only operation is called on a continuous law."""


@dataclass(frozen=True)
class LatticeInfo:
    span: int
    offset: int  # representative of support modulo span


@dataclass(frozen=True)
class StepDistribution:
    kind: str
    mean: float
    variance: float
    moment_order: float
    lattice: LatticeInfo | None = None
    # exact site -> mass table, lattice kinds only
    masses: dict | None = field(default=None, repr=False)

    @property
    def is_lattice(self) -> bool:
        return self.masses is not None

    @property
    def denominator(self) -> int:
        """Common denominator of the single-step masses (lattice kinds)."""
        if not self.is_lattice:
            raise UnsupportedOperationError(f"{self.kind} has no exact mass table")
        return math.lcm(*(m.denominator for m in self.masses.values()))

    def support(self):
        if not self.is_lattice:
            raise UnsupportedOperationError(f"{self.kind} has no finite support")
        return tuple(sorted(self.masses))

    def sample_array(self, rng: np.random.Generator, shape):
        """Draw an array of i.i.d. steps using the supplied generator."""
        if self.kind == "gaussian":
            return rng.standard_normal(shape) * math.sqrt(self.variance)
        if self.kind == "uniform":
            half = math.sqrt(3.0 * self.variance)
            return rng.uniform(-half, half, shape)
        if self.kind == "laplace":
            return rng.laplace(0.0, math.sqrt(self.variance / 2.0), shape)
        sites = np.array(self.support(), dtype=np.int64)
        probs = np.array([float(self.masses[s]) for s in self.support()])
        probs = probs / probs.sum()
        idx = rng.choice(len(sites), size=shape, p=probs)
        return sites[idx]


def _lattice_metadata(masses):
    sites = sorted(masses)
    nonzero = [s for s in sites if masses[s] > 0]
    if len(nonzero) == 1:
        raise ValueError("degenerate single-site law has zero variance")
    span = 0
    for s in nonzero[1:]:
        span = math.gcd(span, s - nonzero[0])
    offset = nonzero[0] % span
    return LatticeInfo(span=span, offset=offset)


def _exact_moments(masses):
    mean = sum(Fraction(s) * m for s, m in masses.items())
    var = sum(Fraction(s) ** 2 * m for s, m in masses.items()) - mean ** 2
    return mean, var


def make_distribution(kind: str, **params) -> StepDistribution:
    """Build a StepDistribution for one of the supported kinds.

    custom_lattice takes masses={site: Fraction-like}, which must be
    nonnegative, sum to one and have mean zero.
    """
    if kind == "rademacher":
        masses = {-1: Fraction(1, 2), 1: Fraction(1, 2)}
    elif kind == "lazy_lattice":
        masses = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    elif kind == "custom_lattice":
        raw = params.get("masses")
        if not raw:
            raise ValueError("custom_lattice requires a masses mapping")
        masses = {int(site): Fraction(mass) for site, mass in raw.items()}
        if any(m < 0 for m in masses.values()):
            raise ValueError("custom_lattice masses must be nonnegative")
        total = sum(masses.values())
        if total != 1:
            raise ValueError(f"custom_lattice masses sum to {total}, expected 1")
        mean, _ = _exact_moments(masses)
        if mean != 0:
            raise ValueError(f"custom_lattice mean is {mean}, expected 0")
    elif kind in _CONTINUOUS_KINDS:
        variance = float(params.get("variance", 1.0))
        if variance <= 0:
            raise ValueError(f"variance must be positive, got {variance}")
        return StepDistribution(
            kind=kind, mean=0.0, variance=variance, moment_order=math.inf
        )
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")

    mean, var = _exact_moments(masses)
    if var <= 0:
        raise ValueError(f"variance must be positive, got {var}")
    return StepDistribution(
        kind=kind,
        mean=float(mean),
        variance=float(var),
        moment_order=math.inf,  # finite support: all moments finite
        lattice=_lattice_metadata(masses),
        masses=masses,
    )


@dataclass
class RandomStream:
    """Counter-based stream: (master_seed, path_index) keys a Philox generator.

    Replaying a stream with the same key reproduces the identical sequence;
    distinct keys give statistically independent streams.
    """

    master_seed: int
    path_index: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def generator(self) -> np.random.Generator:
        if self._gen is None:
            bitgen = np.random.Philox(
                key=np.array(
                    [self.master_seed & 0xFFFFFFFFFFFFFFFF,
                     self.path_index & 0xFFFFFFFFFFFFFFFF],
                    dtype=np.uint64,
                )
            )
            self._gen = np.random.Generator(bitgen)
        return self._gen


def sample_step(dist: StepDistribution, stream: RandomStream) -> float:
    """One step from the law, drawn from the stream's generator."""
    return float(dist.sample_array(stream.generator(), ()))


def step_pmf(dist: StepDistribution, site) -> Fraction:
    """Exact single-step mass at an integer site (lattice kinds only)."""
    if not dist.is_lattice:
        raise UnsupportedOperationError(
            f"step_pmf is undefined for continuous kind {dist.kind!r}"
        )
    if site != int(site):
        return Fraction(0)
    return dist.masses.get(int(site), Fraction(0))


def moments(dist: StepDistribution):
    """(mean, variance, moment_order); recomputed exactly for lattice kinds."""
    if dist.is_lattice:
        mean, var = _exact_moments(dist.masses)
        assert float(mean) == dist.mean and float(var) == dist.variance
        return float(mean), float(var), dist.moment_order
    return dist.mean, dist.variance, dist.moment_order
