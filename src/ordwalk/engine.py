"""Path simulation for k ordered walks, in blocks of paths.

Paths are grouped into fixed-size blocks; each block owns a private
stream keyed by (master_seed, block_index). Every consumer
draws the blocks through `_blocks`, in block order, and merges results in
that order, so a rerun reproduces every estimate bit for bit.

A block advances in time-major chunks. With m paths alive after n steps, one
`StepDistribution.sample_array` call draws the steps of the next t = max(1,
CHUNK_CELLS // m, min(4 CHUNK_CELLS // m, n)) times (fewer at the horizon),
as an array of shape (t, w, m), walker-major: cell (i, j, l) is the step of
walker (or gap) j on alive path l at the chunk's step i, so each walker's m
paths lie side by side. The walk's state, a (w, m) array, is its cumulative
sum along time. Compares of whole walker rows flag, as a (t, m) array, each
path's steps out of order in the chunk, and a path's exit time is its first
flagged step: argmax down the column of each exiting path where few exit,
and where many do, t minus the max down every column of the flags times the
countdown (t, t - 1, ..., 1), one multiply and one reduction over contiguous
time rows (`_exit_steps`). The chunk length depends on (n, m)
alone, never on the horizon or the snapshot step, so a block is a pure
function of (seed, block index) and a shorter horizon replays the same
paths. A path that exits inside a chunk still has its steps drawn to the end
of that chunk; the traced count `distributions.draws` includes these steps
past the exit, so it exceeds w times the path-steps.

The state of most laws is the k positions (w = k). A Gaussian walk runs in
the gap frame instead (w = k - 1): the exit time and Delta read only the
k - 1 gaps, and for Gaussian steps the centre of mass is independent of
them. Its chunk draws k - 1 sigma-normals per path-step and turns them into
gap increments with L, the lower-bidiagonal Cholesky factor of
tridiag(-1, 2, -1) (L[j, j] = sqrt((j + 2)/(j + 1)), L[j + 1, j] =
-sqrt((j + 1)/(j + 2))), and a path exits at its first gap <= 0. Positions
are built only where the block reports them, at min(tau, horizon) and at
the snapshot: the start's mean, plus the gaps' running sum less its row
mean, plus a centre C(s) = sqrt(s/k) times a sigma-normal. The centres come
from a stream of their own keyed by (seed, block index), one normal per row
at the row's first reported time and, with a snapshot, one more per row for
the independent increment to the second. So tau and the gaps replay at
every horizon and snapshot, while positions, and the Delta taken from them,
replay where a row's first reported time is the same: at every horizon
without a snapshot, and from a snapshot step to a run whose horizon is that
step.

A lattice walk runs in slot units: the sampler hands over only each step's
slot j = (s - lo) / span, never its site, and walker w starts from a_w, with
a_0 = 0 and a_w = a_{w-1} + ceil((x_w - x_{w-1}) / span). All walkers drift
by lo per step, so with Y_w = a_w plus the sum of w's slots, X_w <= X_{w-1}
exactly when Y_w <= Y_{w-1}. Chunks take the smallest of int16, int32 and
int64 that holds a_{k-1} + horizon * (S - 1) for a law of S slots, and the
positions x + lo i + span (Y - a) after i steps are rebuilt in int64, in
place, only for the rows a block reports; a walk whose slot counts or
positions could reach 2**63 is refused before its first chunk. A block has
two paths, which draw the same stream and give the same exit times. The
stopped path, which only V by Monte Carlo asks for, keeps every row's
position at min(tau, horizon) as int64 and takes the stopped Vandermonde of
every row once per block. The lean path, which the tail, the endpoint and
the transform take, keeps only the survivors' positions, in row order: an
exit row is never gathered, and no Vandermonde is taken.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (BLOCK_SALT, CENTRE_SALT, RandomStream, StepDistribution,
                            seed_error)
from .geometry import in_weyl, vandermonde

__all__ = [
    "WalkConfig",
    "EstimateCI",
    "WorkCounts",
    "PartialResultError",
    "int64_error",
    "batch_survival",
    "conditioned_endpoints",
]

BLOCK_SIZE = 1 << 14
# path-steps per chunk of a block: one draw call covers this many (path, step)
# pairs, so a chunk's arrays stay near k * CHUNK_CELLS position cells
CHUNK_CELLS = 1 << 14
# a chunk's running sum adds whole time rows from this many cells per row (m
# paths times the state's width) up; below it np.cumsum is faster (timed
# crossover for int16 positions in (t, w, m) chunks: between 448 and 480
# cells at k = 2 and 3; float64 gaps between 352 and 384 at k = 2 and 3)
_WIDE_ROW_CELLS = 448
# a chunk takes its exit steps by one max over its (t, m) cells, not by argmax
# down each exit's column, when it has more than one exit per this many cells
# (timed crossover in 2^14-cell chunks: between 1/96 and 1/48 of the cells at
# t = 2 to 32, near 1/128 at t = 128 and 1/32 at t = 1)
_MAX_EXIT_CELLS = 64


class PartialResultError(RuntimeError):
    """Rejection sampling fell short; carries the partial sample set."""

    def __init__(self, message, endpoints=None, acceptance_rate=None):
        super().__init__(message)
        self.endpoints = endpoints
        self.acceptance_rate = acceptance_rate


def is_integral(c):
    """Whether the number c is an integer: exact for ints and np.integer,
    which float(c) would round above 2**53."""
    return isinstance(c, (int, np.integer)) or float(c).is_integer()


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
        if self.dist.is_lattice and not all(map(is_integral, self.start)):
            raise ValueError("lattice walks need integer start coordinates")
        if error := seed_error(self.master_seed):
            raise ValueError(error)


@dataclass(frozen=True)
class EstimateCI:
    mean: float
    stderr: float

    def covers(self, value, n_sigma):
        return abs(self.mean - value) <= n_sigma * self.stderr


@dataclass
class WorkCounts:
    """Monte Carlo work of a run, summed over its blocks; exact for a seed."""

    paths: int = 0
    path_steps: int = 0  # sum over paths of min(tau, horizon)
    exits: int = 0  # paths with tau <= horizon

    def add(self, tau: np.ndarray, horizon: int):
        """Count one block from its exit times, run to `horizon`."""
        self.paths += tau.size
        self.path_steps += int(np.minimum(tau, horizon).sum())
        self.exits += int((tau <= horizon).sum())


def _block_stream(cfg: WalkConfig, block_index: int, salt: int = BLOCK_SALT):
    return RandomStream(cfg.master_seed, salt + block_index).generator()


def _slot_origin(cfg: WalkConfig):
    """The lattice walkers' start a in slot units (module docstring), in Python ints."""
    x, span = [int(c) for c in cfg.start], cfg.dist.lattice.span
    return [0, *itertools.accumulate(-(-(b - a) // span) for a, b in zip(x, x[1:]))]


def int64_error(cfg: WalkConfig, horizon: int):
    """Why a walk cannot run `horizon` steps in int64, or None: a lattice walk
    whose slot counts, up to a_{k-1} + horizon * (S - 1), or positions, up to
    max |x_i| + horizon * max(|lo|, |hi|), may reach 2**63."""
    lattice = cfg.dist.lattice
    if lattice is None:
        return None
    top = len(lattice.weights) - 1
    far = (max(abs(int(c)) for c in cfg.start)
           + horizon * max(-lattice.lo, lattice.lo + lattice.span * top))
    if max(_slot_origin(cfg)[-1] + horizon * top, far) >= 2 ** 63:
        return (f"a lattice walk from {cfg.start} may reach 2**63 within "
                f"{horizon} steps, past its int64 positions and slot counts")
    return None


def _chunk_dtype(cfg: WalkConfig, horizon: int):
    """Smallest of int16, int32 and int64 that holds a lattice chunk's slot
    counts up to the horizon, else float64; raises what `int64_error` finds."""
    lattice = cfg.dist.lattice
    if lattice is None:
        return np.float64
    if error := int64_error(cfg, horizon):
        raise ValueError(error)
    reach = _slot_origin(cfg)[-1] + horizon * (len(lattice.weights) - 1)
    return next(t for t in (np.int16, np.int32, np.int64) if reach <= np.iinfo(t).max)


def _slot_positions(cfg: WalkConfig, rows, steps):
    """Turn int64 rows of slot counts Y, each after `steps` steps (one count
    or one per row), into positions x + lo * steps + span * (Y - a), in place."""
    lattice = cfg.dist.lattice
    rows *= lattice.span
    rows += np.asarray(cfg.start, dtype=np.int64) - lattice.span * np.array(_slot_origin(cfg))
    rows += lattice.lo * np.reshape(steps, (-1, 1))
    return rows


def _gap_steps(steps):
    """Turn the i.i.d. sigma-normals of steps[:, j], j < k - 1, into the
    increments of the k - 1 gaps of k Gaussian walkers, in place: each
    path-step's column times L^T, L the Cholesky factor of the gap covariance
    tridiag(-1, 2, -1)."""
    for j in range(steps.shape[1] - 1, 0, -1):
        steps[:, j] *= math.sqrt((j + 2) / (j + 1))
        steps[:, j] -= math.sqrt(j / (j + 1)) * steps[:, j - 1]
    steps[:, 0] *= math.sqrt(2.0)


def _gap_positions(cfg: WalkConfig, gaps, centre):
    """Rows of k positions with the given k - 1 gaps and centre offsets C:
    the start's mean plus C, plus the gaps' running sum less its row mean."""
    k = cfg.k
    base = centre + math.fsum(map(float, cfg.start)) / k
    for j in range(k - 1):
        base -= (k - 1 - j) / k * gaps[:, j]
    out = np.empty((len(gaps), k))
    out[:, 0] = base
    for j in range(k - 1):
        np.add(out[:, j], gaps[:, j], out=out[:, j + 1])
    return out


def _exit_steps(broken, rows):
    """The first True step of each listed column of the (t, m) chunk `broken`,
    equal to broken[:, rows].argmax(axis=0).

    argmax down the gathered columns costs about 10 ns per exit; with more
    than one exit per _MAX_EXIT_CELLS cells, one multiply by the countdown
    (t, t - 1, ..., 1) and one max over the contiguous time rows is cheaper:
    a column's first True step i scores the largest value, t - i. A chunk of
    one step has every exit at step 0.
    """
    t, m = broken.shape
    if t == 1:
        return np.zeros(rows.size, dtype=np.intp)
    if rows.size * _MAX_EXIT_CELLS <= t * m:
        return broken[:, rows].argmax(axis=0)
    countdown = np.arange(t, 0, -1, dtype=np.min_scalar_type(t))
    score = (broken * countdown[:, None]).max(axis=0)
    return t - score[rows].astype(np.intp)


def _simulate_block(cfg: WalkConfig, horizon: int, block_index: int, block_size: int,
                    snap_step: int | None = None, stopped: bool = True):
    """Simulate one block of paths up to min(tau, horizon).

    Returns (tau, delta_at_stop, terminal, snap) arrays; tau == horizon + 1
    encodes survival past the horizon. With snap_step in 0..horizon, snap
    holds every row's positions at that step (rows with tau <= snap_step keep
    the start); otherwise snap is None. Lattice terminals and snapshots are
    int64 and continuous ones float64; inside the chunks a lattice walk's
    slot counts take `_chunk_dtype`, which refuses a walk that could
    overflow them. The steps are drawn in chunks, a lattice walk's in slot
    units and a Gaussian walk's in the gap frame (module docstring).

    With stopped=False the block takes the lean path and returns
    (tau, survivors, snap): survivors holds the rows with tau > horizon, in
    row order, equal to terminal[tau > horizon], C-ordered in memory of its
    own; tau and snap are the same arrays as on the stopped path.
    """
    rng = _block_stream(cfg, block_index)
    k = cfg.k
    gap_frame = cfg.dist.kind == "gaussian"
    lattice = cfg.dist.is_lattice
    out_dtype = np.int64 if lattice else np.float64
    dtype, width = _chunk_dtype(cfg, horizon), k - gap_frame
    if gap_frame:
        origin = np.diff(np.asarray(cfg.start, dtype=np.float64))
    else:
        origin = np.asarray(_slot_origin(cfg) if lattice else cfg.start, dtype=dtype)
    pos = np.repeat(origin[:, None], block_size, axis=1)  # (width, alive paths)
    tau = np.full(block_size, horizon + 1, dtype=np.int64)
    if stopped:
        terminal = np.empty((block_size, width), dtype=out_dtype)
    alive_idx = np.arange(block_size)
    snap = None if snap_step is None else np.tile(origin.astype(out_dtype), (block_size, 1))
    n = 0  # steps taken so far
    while n < horizon and alive_idx.size:
        m = alive_idx.size
        # up to 4x longer once the block is old: a chunk costs about 25 numpy
        # calls, and at k = 2 a path alive at step n seldom exits in its next n
        t = min(max(1, CHUNK_CELLS // m, min(4 * CHUNK_CELLS // m, n)), horizon - n)
        path = cfg.dist.sample_array(rng, (t, width, m), dtype)
        if gap_frame:
            _gap_steps(path)
        path[0] += pos
        # path[i] = the state after step n + i + 1, by the same sequential adds
        # either way: numpy's cumsum along axis 0 runs column by column, which
        # is slower than adding whole rows once rows are wide
        if m * width < _WIDE_ROW_CELLS:
            np.cumsum(path, axis=0, dtype=dtype, out=path)
        else:
            for i in range(1, t):
                path[i] += path[i - 1]
        if gap_frame:
            broken = path[:, 0] <= 0
            for j in range(1, width):
                broken |= path[:, j] <= 0
        else:
            broken = path[:, 1] <= path[:, 0]
            for j in range(2, k):
                broken |= path[:, j] <= path[:, j - 1]
        exits = broken.any(axis=0)
        rows = np.flatnonzero(exits)  # the paths that exit in this chunk
        exit_at = _exit_steps(broken, rows)  # and the chunk step where they do
        if snap_step is not None and n < snap_step <= n + t:
            live = np.ones(m, dtype=bool)
            live[rows[exit_at < snap_step - n]] = False
            snap[alive_idx[live]] = path[snap_step - n - 1][:, live].T
        pos = path[-1]
        if rows.size:
            dead = alive_idx[rows]
            tau[dead] = n + 1 + exit_at
            if stopped:
                terminal[dead] = path[exit_at, :, rows]
            # one index of the survivors for both takes (a boolean compress
            # finds it anew on every call)
            keep = np.flatnonzero(~exits)
            alive_idx = alive_idx.take(keep)
            pos = pos.take(keep, axis=1)
        n += t
    pos = pos.T  # the survivors' rows, a view of the last chunk
    if stopped:
        terminal[alive_idx] = pos
    if lattice:
        # snapshot rows that exit by the snapshot step kept the slot origin
        if snap is not None:
            _slot_positions(cfg, snap, snap_step * (tau > snap_step))
        if stopped:
            _slot_positions(cfg, terminal, np.minimum(tau, horizon))
        else:
            pos = _slot_positions(cfg, pos.astype(out_dtype, order="C"), horizon)
    elif gap_frame:
        # a row's centre is drawn at its first reported time: the snapshot
        # step if the row is alive then, else min(tau, horizon); with a
        # snapshot, an independent increment takes it on to min(tau, horizon)
        last = np.minimum(tau, horizon)
        at_snap = tau > snap_step if snap_step else np.zeros(block_size, dtype=bool)
        first = np.where(at_snap, snap_step or 0, last)
        centres = _block_stream(cfg, block_index, CENTRE_SALT)
        centre = np.sqrt(first / k) * cfg.dist.sample_array(centres, block_size)
        if snap is not None:
            # rows that exit by the snapshot step, and every row at step 0,
            # keep the start
            snap_gaps = snap
            snap = np.tile(np.asarray(cfg.start, dtype=np.float64), (block_size, 1))
            snap[at_snap] = _gap_positions(cfg, snap_gaps[at_snap], centre[at_snap])
        if snap_step:
            centre += np.sqrt((last - first) / k) * cfg.dist.sample_array(centres, block_size)
        if stopped:
            terminal = _gap_positions(cfg, terminal, centre)
        else:
            pos = _gap_positions(cfg, pos, centre[alive_idx])
    if not stopped:
        # uniform and Laplace survivors still view the last chunk: copy them out
        return tau, pos if lattice or gap_frame else pos.copy(), snap
    # Delta in float64, which int64 products would overflow at large k
    delta = vandermonde(terminal.astype(np.float64, copy=False))
    return tau, delta, terminal, snap


def _block_sizes(paths):
    """Sizes of the BLOCK_SIZE blocks that hold `paths` paths, in block order,
    made one at a time: a rejection loop often stops long before its last."""
    return (min(BLOCK_SIZE, paths - first) for first in range(0, paths, BLOCK_SIZE))


def _blocks(cfg: WalkConfig, horizon: int, paths: int, work: WorkCounts | None = None,
            snap_step: int | None = None, stopped: bool = False):
    """Yield `_simulate_block` of each block of `paths` paths, in block order.

    Blocks take the lean path unless `stopped` asks for the stopped positions
    and Delta. Each block's work to `horizon` is added to `work`, if one is
    given, as the block is drawn; a consumer that stops early draws no
    further block.
    """
    for b, size in enumerate(_block_sizes(paths)):
        block = _simulate_block(cfg, horizon, b, size, snap_step, stopped)
        if work is not None:
            work.add(block[0], horizon)
        yield block
        del block  # hold no block's arrays while the next block is simulated


def batch_survival(cfg: WalkConfig, horizons, paths: int, work: WorkCounts | None = None):
    """Estimate P_x(tau > n) at every listed horizon from a single batch.

    The batch's work to the last horizon is added to `work` if one is given.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    horizons = sorted(int(h) for h in horizons)
    max_h = horizons[-1]
    counts = np.zeros(len(horizons), dtype=np.int64)
    for tau, _, _ in _blocks(cfg, max_h, paths, work):
        # every horizon's count of tau > h from one sort
        counts += tau.size - np.searchsorted(np.sort(tau), horizons, side="right")
    out = []
    for h, c in zip(horizons, counts):
        p = c / paths
        se = math.sqrt(p * (1.0 - p) / paths)
        out.append((h, EstimateCI(mean=p, stderr=se)))
    return out


def conditioned_endpoints(cfg: WalkConfig, n: int, target_samples: int,
                          max_attempts: int, work: WorkCounts | None = None):
    """Rejection-sample survivor endpoints rescaled by 1/sqrt(n).

    Returns (endpoints, acceptance_rate) where endpoints is a
    (target_samples, k) array of X(n)/sqrt(n) rows with tau > n. The work of
    every attempted block is added to `work` if one is given.
    """
    if target_samples < 1:
        raise ValueError("target_samples must be >= 1")
    collected = []
    got = attempted = 0
    for tau, survivors, _ in _blocks(cfg, n, max_attempts, work):
        keep = survivors / math.sqrt(n)
        collected.append(keep)
        got += keep.shape[0]
        attempted += tau.size
        if got >= target_samples:
            break
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
