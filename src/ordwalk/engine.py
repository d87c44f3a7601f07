"""Path simulation for k ordered walks, in blocks of paths.

Paths are grouped into fixed-size blocks; each block owns a private
counter-based stream keyed by (master_seed, block_index). Results are merged
in block order, so a rerun reproduces every estimate bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distributions import BLOCK_SALT, RandomStream, StepDistribution
from .geometry import in_weyl

__all__ = [
    "WalkConfig",
    "EstimateCI",
    "PartialResultError",
    "batch_survival",
    "conditioned_endpoints",
]

BLOCK_SIZE = 1 << 14


class PartialResultError(RuntimeError):
    """Rejection sampling fell short; carries the partial sample set."""

    def __init__(self, message, endpoints=None, acceptance_rate=None):
        super().__init__(message)
        self.endpoints = endpoints
        self.acceptance_rate = acceptance_rate


@dataclass(frozen=True)
class WalkConfig:
    k: int
    start: tuple
    dist: StepDistribution
    master_seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if len(self.start) != self.k:
            raise ValueError("start must have k coordinates")
        if not in_weyl(self.start):
            raise ValueError("start must lie strictly ordered in the Weyl chamber")
        if self.dist.is_lattice:
            if not all(float(c) == int(c) for c in self.start):
                raise ValueError("lattice walks need integer start coordinates")


@dataclass(frozen=True)
class EstimateCI:
    mean: float
    stderr: float
    n_samples: int
    confidence: float = 0.95

    def halfwidth(self):
        from scipy.stats import norm

        return norm.ppf(0.5 + self.confidence / 2.0) * self.stderr

    def covers(self, value, n_sigma=None):
        width = self.halfwidth() if n_sigma is None else n_sigma * self.stderr
        return abs(self.mean - value) <= width


def _block_stream(cfg: WalkConfig, block_index: int) -> np.random.Generator:
    return RandomStream(cfg.master_seed, BLOCK_SALT + block_index).generator()


def _vandermonde_rows(pos: np.ndarray) -> np.ndarray:
    """Vandermonde product per row of a (m, k) position array."""
    k = pos.shape[1]
    out = np.ones(pos.shape[0])
    for i in range(k):
        for j in range(i + 1, k):
            out *= pos[:, j] - pos[:, i]
    return out


def _simulate_block(cfg: WalkConfig, horizon: int, block_index: int, block_size: int,
                    snap_step: int | None = None):
    """Simulate one block of paths up to min(tau, horizon).

    Returns (tau, delta_at_stop, terminal, snap) arrays; tau == horizon + 1
    encodes survival past the horizon. With snap_step in 0..horizon, snap
    holds every row's positions at that step (rows with tau <= snap_step keep
    the start); otherwise snap is None. Lattice positions are int64,
    continuous ones float64.
    """
    rng = _block_stream(cfg, block_index)
    k = cfg.k
    dtype = np.int64 if cfg.dist.is_lattice else np.float64
    pos = np.tile(np.asarray(cfg.start, dtype=dtype), (block_size, 1))
    tau = np.full(block_size, horizon + 1, dtype=np.int64)
    delta = np.empty(block_size)
    terminal = np.empty((block_size, k), dtype=dtype)
    alive_idx = np.arange(block_size)
    snap = pos.copy() if snap_step is not None else None
    for n in range(1, horizon + 1):
        if alive_idx.size == 0:
            break
        pos += cfg.dist.sample_array(rng, pos.shape)
        # flat indices of the out-of-order adjacent pairs, k - 1 per row
        broken = np.flatnonzero(pos[:, 1:] <= pos[:, :-1])
        if broken.size:
            rows = broken if k == 2 else np.unique(broken // (k - 1))
            dead = alive_idx[rows]
            tau[dead] = n
            terminal[dead] = pos[rows]
            delta[dead] = _vandermonde_rows(pos[rows])
            keep = np.ones(alive_idx.size, dtype=bool)
            keep[rows] = False
            alive_idx = alive_idx.compress(keep)
            pos = pos.compress(keep, axis=0)
        if n == snap_step:
            snap[alive_idx] = pos
    if alive_idx.size:
        terminal[alive_idx] = pos
        delta[alive_idx] = _vandermonde_rows(pos)
    return tau, delta, terminal, snap


def _block_sizes(paths):
    """Sizes of the BLOCK_SIZE blocks that hold `paths` paths, in block order."""
    sizes = [BLOCK_SIZE] * (paths // BLOCK_SIZE)
    if paths % BLOCK_SIZE:
        sizes.append(paths % BLOCK_SIZE)
    return sizes


def batch_survival(cfg: WalkConfig, horizons, paths: int):
    """Estimate P_x(tau > n) at every listed horizon from a single batch."""
    if paths < 1:
        raise ValueError("paths must be >= 1")
    horizons = sorted(int(h) for h in horizons)
    max_h = horizons[-1]
    counts = np.zeros(len(horizons), dtype=np.int64)
    for b, size in enumerate(_block_sizes(paths)):
        tau = _simulate_block(cfg, max_h, b, size)[0]
        counts += [(tau > h).sum() for h in horizons]
    out = []
    for h, c in zip(horizons, counts):
        p = c / paths
        se = math.sqrt(p * (1.0 - p) / paths)
        out.append((h, EstimateCI(mean=p, stderr=se, n_samples=paths)))
    return out


def conditioned_endpoints(cfg: WalkConfig, n: int, target_samples: int,
                          max_attempts: int):
    """Rejection-sample survivor endpoints rescaled by 1/sqrt(n).

    Returns (endpoints, acceptance_rate) where endpoints is a
    (target_samples, k) array of X(n)/sqrt(n) rows with tau > n.
    """
    if target_samples < 1:
        raise ValueError("target_samples must be >= 1")
    collected = []
    got = 0
    attempted = 0
    block = 0
    while got < target_samples and attempted < max_attempts:
        size = min(BLOCK_SIZE, max_attempts - attempted)
        tau, _, terminal, _ = _simulate_block(cfg, n, block, size)
        keep = terminal[tau > n] / math.sqrt(n)
        collected.append(keep)
        got += keep.shape[0]
        attempted += size
        block += 1
    endpoints = np.concatenate(collected) if collected else np.empty((0, cfg.k))
    rate = got / attempted if attempted else 0.0
    if got < target_samples:
        raise PartialResultError(
            f"collected {got}/{target_samples} survivors in {attempted} attempts "
            f"(acceptance rate {rate:.3g})",
            endpoints=endpoints,
            acceptance_rate=rate,
        )
    return endpoints[:target_samples], rate
