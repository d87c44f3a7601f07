"""Path engine: exit detection, batch estimates, and block replay."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordwalk import engine
from ordwalk.distributions import make_distribution
from ordwalk.engine import (
    BLOCK_SIZE,
    EstimateCI,
    PartialResultError,
    WalkConfig,
    _simulate_block,
    batch_survival,
    conditioned_endpoints,
)
from ordwalk.geometry import vandermonde
from ordwalk.lattice_exact import exact_survival_kernel

RAD = make_distribution("rademacher")
# chunk sizes the block tests run at: one step per chunk, the default, and
# chunks that span every horizon the tests use
CHUNK_SIZES = (1, engine.CHUNK_CELLS, 1 << 20)


def cfg2(seed=0):
    return WalkConfig(k=2, start=(0, 1), dist=RAD, master_seed=seed)


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(k=1, start=(0,), dist=RAD)
    with pytest.raises(ValueError):
        WalkConfig(k=2, start=(0,), dist=RAD)
    with pytest.raises(ValueError):
        WalkConfig(k=2, start=(1, 0), dist=RAD)
    with pytest.raises(ValueError):
        WalkConfig(k=2, start=(0.5, 1.5), dist=RAD)
    WalkConfig(k=2, start=(0.5, 1.5), dist=make_distribution("gaussian"))


@pytest.mark.parametrize("seed", [2 ** 64 + 1, -3])
def test_config_refuses_a_seed_the_philox_key_would_alias(seed):
    # a seed is one 64-bit word (the name recalls the Philox key that held it)
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        WalkConfig(k=2, start=(0, 1), dist=RAD, master_seed=seed)
    assert WalkConfig(k=2, start=(0, 1), dist=RAD, master_seed=2 ** 64 - 1).master_seed


def test_one_step_survival_three_quarters():
    [(h, est)] = batch_survival(cfg2(), [1], paths=200_000)
    assert h == 1
    assert est.covers(0.75, n_sigma=4)


def test_zero_horizon_survival_is_one():
    [(h, est)] = batch_survival(cfg2(), [0], paths=100)
    assert h == 0 and est.mean == 1.0 and est.stderr == 0.0


def _stopped_vandermonde(cfg, n, blocks):
    """Per-path Delta(X(tau)) 1{tau <= n} over the first `blocks` full blocks."""
    out = []
    for b in range(blocks):
        tau, delta, _, _ = _simulate_block(cfg, n, b, BLOCK_SIZE)
        out.append(np.where(tau <= n, delta, 0.0))
    return np.concatenate(out)


def test_one_step_stopped_vandermonde():
    # the pair exits at step one only by swapping to gap -1, with mass 1/4
    contrib = _stopped_vandermonde(cfg2(), 1, blocks=12)
    est = EstimateCI(mean=contrib.mean(), stderr=contrib.std() / np.sqrt(contrib.size))
    assert set(np.unique(contrib).tolist()) == {-1.0, 0.0}
    assert est.covers(-0.25, n_sigma=4)


def test_zero_step_stopped_vandermonde_exact_zero():
    assert not _stopped_vandermonde(cfg2(), 0, blocks=1).any()


def test_survival_monotone_in_horizon():
    out = batch_survival(cfg2(), [1, 2, 4, 8, 16], paths=50_000)
    probs = [est.mean for _, est in out]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_rerun_reproduces_results():
    # 60000 paths span four blocks, the last one partial
    first = batch_survival(cfg2(), [4, 16], paths=60_000)
    again = batch_survival(cfg2(), [4, 16], paths=60_000)
    assert [(h, e.mean, e.stderr) for h, e in first] == \
        [(h, e.mean, e.stderr) for h, e in again]
    for b in (0, 3):
        first = _simulate_block(cfg2(), 8, b, 1000, 4)
        again = _simulate_block(cfg2(), 8, b, 1000, 4)
        assert all(np.array_equal(x, y) for x, y in zip(first, again))


def test_conditioned_endpoints_shape_and_order():
    pts, rate = conditioned_endpoints(cfg2(), 16, target_samples=500,
                                      max_attempts=50_000)
    assert pts.shape == (500, 2)
    assert 0 < rate <= 1
    assert (np.diff(pts, axis=1) > 0).all()


def test_conditioned_endpoints_partial_result():
    cfg = WalkConfig(k=3, start=(0, 1, 2), dist=RAD, master_seed=5)
    with pytest.raises(PartialResultError) as exc:
        conditioned_endpoints(cfg, 64, target_samples=10_000, max_attempts=2_000)
    err = exc.value
    assert err.endpoints is not None and err.endpoints.shape[1] == 3
    assert err.endpoints.shape[0] < 10_000
    assert 0 <= err.acceptance_rate < 1


def test_estimate_ci_covers():
    est = EstimateCI(mean=1.0, stderr=0.1)
    assert est.covers(1.15, n_sigma=2)
    assert not est.covers(1.25, n_sigma=2)
    assert est.covers(1.25, n_sigma=3)
    assert not est.covers(1.35, n_sigma=3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000), st.integers(0, 40), st.integers(0, 5))
def test_simulate_block_replay_property(seed, horizon, block):
    # a block is a pure function of (seed, block index): a replay is identical,
    # and a shorter horizon replays the same paths up to its end; at every
    # chunk size (a loop rather than a parametrize mark keeps the test's name)
    for chunk in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "CHUNK_CELLS", chunk)
            first = _simulate_block(cfg2(seed), horizon, block, 64, horizon // 2)
            again = _simulate_block(cfg2(seed), horizon, block, 64, horizon // 2)
            assert all(np.array_equal(x, y) for x, y in zip(first, again))
            tau_short, _, terminal_short, _ = _simulate_block(cfg2(seed), horizon // 2,
                                                              block, 64)
            assert np.array_equal(np.minimum(first[0], horizon // 2 + 1), tau_short)
            survived = first[0] > horizon // 2
            assert np.array_equal(first[3][survived], terminal_short[survived])


@pytest.mark.parametrize("kind, start, horizon, snap_step", [
    ("rademacher", (0, 1), 300, 150),
    ("lazy_lattice", (0, 1, 2), 64, None),
    ("gaussian", (0.0, 1.0), 200, 10),
    ("gaussian", (0.0, 1.0, 2.0), 64, 10),
])
def test_chunks_grow_with_the_blocks_age(kind, start, horizon, snap_step, monkeypatch):
    # with m paths alive after n steps, a chunk runs max(1, CHUNK_CELLS // m,
    # min(4 CHUNK_CELLS // m, n)) steps, cut at the horizon: read off the
    # (t, w, m) draws of a block against its own exit times
    dist = make_distribution(kind)
    cfg = WalkConfig(k=len(start), start=start, dist=dist, master_seed=5)
    shapes = []
    draw = type(dist).sample_array

    def spy(self, rng, shape, dtype=np.int64):
        if isinstance(shape, tuple) and len(shape) == 3:
            shapes.append(shape)
        return draw(self, rng, shape, dtype)
    monkeypatch.setattr(type(dist), "sample_array", spy)
    grown = {}
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(engine, "CHUNK_CELLS", chunk)
        shapes.clear()
        tau = _simulate_block(cfg, horizon, 1, 3000, snap_step)[0]
        n = grown[chunk] = 0
        for t, w, m in shapes:
            assert w == len(start) - (kind == "gaussian")
            assert m == (tau > n).sum()
            assert t == min(max(1, chunk // m, min(4 * chunk // m, n)), horizon - n)
            grown[chunk] += max(1, chunk // m) < t < horizon - n
            n += t
        assert n == horizon or not (tau > n).any()
    # a k=2 block's paths live long: at the default size, some chunk is
    # longer than CHUNK_CELLS // m and shorter than the horizon left
    assert grown[CHUNK_SIZES[1]] or len(start) > 2


@pytest.mark.parametrize("kind, start, dtype", [
    ("rademacher", (0, 1, 2), np.int64),
    ("lazy_lattice", (0, 1), np.int64),
    ("gaussian", (0.0, 1.0, 2.0), np.float64),
])
def test_simulate_block_terminal_dtype(kind, start, dtype):
    cfg = WalkConfig(k=len(start), start=start, dist=make_distribution(kind),
                     master_seed=3)
    tau, delta, terminal, snap = _simulate_block(cfg, 64, 0, 2000)
    assert snap is None
    assert terminal.dtype == dtype and terminal.shape == (2000, len(start))
    assert ((1 <= tau) & (tau <= 65)).all()
    # exit rows are out of order at tau, survivors stay ordered
    gaps = np.diff(terminal, axis=1)
    exited = tau <= 64
    assert exited.any() and not exited.all()
    assert (gaps[exited] <= 0).any(axis=1).all()
    assert (gaps[~exited] > 0).all()
    # lattice rows go through the float64 array Delta; each must equal the
    # scalar Delta of its row (exact for lattice rows, then rounded)
    assert delta.tolist() == [float(vandermonde(tuple(row))) for row in terminal.tolist()]


@pytest.mark.parametrize("kind, start", [
    ("rademacher", (0, 1, 2)),
    ("gaussian", (0.0, 1.0)),
])
def test_simulate_block_snapshot_is_the_position_at_that_step(kind, start, monkeypatch):
    # same block, stopped at the snapshot step: its survivors' terminals are
    # the snapshot rows, and every other row keeps the start; at every chunk
    # size (a loop rather than a parametrize mark keeps the test's names)
    cfg = WalkConfig(k=len(start), start=start, dist=make_distribution(kind),
                     master_seed=4)
    for chunk in CHUNK_SIZES:
        monkeypatch.setattr(engine, "CHUNK_CELLS", chunk)
        tau, _, _, snap = _simulate_block(cfg, 40, 2, 3000, 10)
        tau_10, _, terminal_10, _ = _simulate_block(cfg, 10, 2, 3000)
        alive = tau > 10
        assert np.array_equal(alive, tau_10 > 10)
        assert snap.dtype == terminal_10.dtype
        assert np.array_equal(snap[alive], terminal_10[alive])
        assert (snap[~alive] == np.asarray(start)).all()
        _, _, _, snap0 = _simulate_block(cfg, 40, 2, 3000, 0)
        assert (snap0 == np.asarray(start)).all()


@pytest.mark.parametrize("kind, start", [
    ("rademacher", (0, 1)),
    ("gaussian", (0.0, 1.0, 2.0)),
])
def test_running_sum_paths_give_the_same_block(kind, start, monkeypatch):
    # row adds and np.cumsum make the same sequential adds, so a block is the
    # same bit for bit whichever the width threshold picks, floats included
    cfg = WalkConfig(k=len(start), start=start, dist=make_distribution(kind),
                     master_seed=5)
    blocks = []
    for wide in (0, 1 << 62):
        monkeypatch.setattr(engine, "_WIDE_ROW_CELLS", wide)
        blocks.append(_simulate_block(cfg, 300, 1, 3000, 150))
    assert all(np.array_equal(x, y) for x, y in zip(*blocks))


@pytest.mark.parametrize("kind, start", [
    ("rademacher", (0, 1, 2)),
    ("lazy_lattice", (-3, 0, 2, 3)),
])
def test_a_chunk_is_walker_major(kind, start):
    # step 1 of a block rebuilt from its raw words: the chunk's cell (0, i, j),
    # lane i * m + j of the stream, is the step of walker i on path j. For
    # Rademacher a lane is one bit (low bit first), for the lazy law (d = 4)
    # the low two bits of a byte, slot u at site (u >= 1) + (u >= 3) - 1
    dist = make_distribution(kind)
    cfg = WalkConfig(k=len(start), start=start, dist=dist, master_seed=13)
    m, b = 3000, 1
    raw = engine._block_stream(cfg, b).bit_generator.random_raw(cfg.k * m)
    if kind == "rademacher":
        bits = (raw[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        steps = 2 * bits.ravel()[:cfg.k * m].astype(np.int64) - 1
    else:
        u = raw.view(np.uint8)[:cfg.k * m] & 3
        steps = (u >= 1).astype(np.int64) + (u >= 3) - 1
    pos = np.asarray(start)[:, None] + steps.reshape(cfg.k, m)
    alive = (np.diff(pos, axis=0) > 0).all(axis=0)
    assert 0 < alive.sum() < m
    tau, _, _, snap = _simulate_block(cfg, 8, b, m, snap_step=1)
    assert np.array_equal(tau == 1, ~alive)
    assert np.array_equal(snap, np.where(alive[:, None], pos.T, np.asarray(start)))


# d = 4099 is prime, so the sampler rejects about half of its lanes
D4099 = {-1: Fraction(1000, 4099), 0: Fraction(2099, 4099), 1: Fraction(1000, 4099)}
WIDE = {-300: Fraction(1, 2), 300: Fraction(1, 2)}


FROZEN_STREAMS = [
    pytest.param("rademacher", None, (0, 1), 300, 150, np.int16, None,
                 "4d8bce6277d8921795b8a0fa1ed548e0fa3e7e0a96a88754819fd80a4ab4401f",
                 id="rademacher-k2"),
    pytest.param("rademacher", None, (0, 1, 2), 64, 10, np.int16, None,
                 "8fff9fa6d7be0c9b7d81a946981c3e2d9a266f49c7c9151f3f90323e335edac4",
                 id="rademacher-k3"),
    pytest.param("lazy_lattice", None, (0, 1, 2), 64, 20, np.int16, None,
                 "36388ba68283d8df572c7f7940f6dbdba74155e28551b32800ccb13710bdd69a",
                 id="lazy-k3"),
    pytest.param("custom_lattice", D4099, (0, 1), 200, 50, np.int16, None,
                 "456e0805d8e80e0657eddaa6bd3996d26b133c423ddb8992c15f819b207f03da",
                 id="d4099-k2"),
    pytest.param("gaussian", None, (0.0, 1.0, 2.0), 64, 10, np.float64, None,
                 "267ae4533a9fb5dca9112325bbcdfa7cebc937597818321fc8112d917ecd427b",
                 id="gaussian-k3"),
    # positions that pass 2**15 - 1, from int16 chunks of slot counts
    pytest.param("rademacher", None, (2 ** 15 - 24, 2 ** 15 - 22), 300, 150, np.int16,
                 np.int16,
                 "59131209cb85096bda8dcc0b71a8d6281f4189d87ed9bc28384a49ae6aade7ed",
                 id="rademacher-int32"),
    # positions that pass 2**31 - 1, from int16 chunks of slot counts
    pytest.param("custom_lattice", WIDE, (2 ** 31 - 1500, 2 ** 31 - 900), 40, 3, np.int16,
                 np.int32,
                 "64097211df52dc2f0a611bbcdd89ec6ad1be890afdf13ce3da3f26c7a90b2870",
                 id="wide-int64"),
]


@pytest.mark.parametrize("kind, masses, start, horizon, snap_step, chunks, passes, digest",
                         FROZEN_STREAMS)
def test_simulate_block_stream_is_frozen(kind, masses, start, horizon, snap_step,
                                         chunks, passes, digest):
    # sha256 of the (tau, delta, terminal, snap) bytes, written down from the
    # walker-major (t, w, m) chunks of test_a_chunk_is_walker_major, with
    # one-bit Rademacher lanes, a Gaussian walk in the gap frame, SFC64
    # streams and chunks that grow with the block's age: the stream, the
    # chunk schedule and every result stay the same bit for bit, in chunks
    # of slot counts, whose dtype does not read the start
    dist = make_distribution(kind, **({"masses": masses} if masses else {}))
    cfg = WalkConfig(k=len(start), start=start, dist=dist, master_seed=8)
    assert engine._chunk_dtype(cfg, horizon) is chunks
    out = _simulate_block(cfg, horizon, 2, 3000, snap_step)
    h = hashlib.sha256()
    for a in out:
        h.update(a.tobytes())
    assert h.hexdigest() == digest
    if passes is not None:
        assert out[2].dtype == np.int64 and out[2].max() > np.iinfo(passes).max


def test_the_frozen_streams_take_both_exit_step_branches(monkeypatch):
    # the digests above pin the exit steps taken by argmax and by one max
    taken = set()
    exit_steps = engine._exit_steps

    def spy(broken, rows):
        if len(broken) > 1:
            taken.add("max" if rows.size * engine._MAX_EXIT_CELLS > broken.size else "argmax")
        return exit_steps(broken, rows)
    monkeypatch.setattr(engine, "_exit_steps", spy)
    for case in FROZEN_STREAMS:
        kind, masses, start, horizon, snap_step = case.values[:5]
        dist = make_distribution(kind, **({"masses": masses} if masses else {}))
        cfg = WalkConfig(k=len(start), start=start, dist=dist, master_seed=8)
        _simulate_block(cfg, horizon, 2, 3000, snap_step)
    assert taken == {"argmax", "max"}


@settings(max_examples=300, deadline=None)
@given(t=st.integers(1, 64), m=st.integers(1, 400), share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_exit_steps_are_the_first_broken_steps(t, m, share, seed):
    # a chunk's broken flags: a column that exits is broken at its first
    # step and at random after it; both ways of taking the exit steps give
    # argmax down each exiting column, as intp for the time arithmetic
    rng = np.random.default_rng(seed)
    first = rng.integers(0, t, m)
    broken = (rng.random((t, m)) < 0.5) & (np.arange(t)[:, None] > first)
    broken[first, np.arange(m)] = True
    broken &= rng.random(m) < share
    rows = np.flatnonzero(broken.any(axis=0))
    want = broken[:, rows].argmax(axis=0)
    for cells in (0, 1 << 40):  # every chunk below, every chunk above the crossover
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_MAX_EXIT_CELLS", cells)
            got = engine._exit_steps(broken, rows)
        assert got.dtype == np.intp and np.array_equal(got, want)


@pytest.mark.parametrize("kind, masses, start, horizon, snap_step", [
    pytest.param("rademacher", None, (0, 1), 300, 150, id="rademacher-k2"),
    pytest.param("rademacher", None, (0, 1, 2), 64, 10, id="rademacher-k3"),
    pytest.param("lazy_lattice", None, (0, 1, 2), 64, 20, id="lazy-k3"),
    pytest.param("custom_lattice", D4099, (0, 1), 200, 50, id="d4099-k2"),
    pytest.param("gaussian", None, (0.0, 1.0, 2.0), 64, 10, id="gaussian-k3"),
    pytest.param("rademacher", None, (2 ** 15 - 24, 2 ** 15 - 22), 300, 150,
                 id="rademacher-int32"),
    pytest.param("custom_lattice", WIDE, (2 ** 31 - 1500, 2 ** 31 - 900), 40, 3,
                 id="wide-int64"),
])
def test_lean_block_keeps_the_stopped_blocks_tau_snap_and_survivors(kind, masses, start,
                                                                      horizon, snap_step):
    # the frozen stream cases on the lean path: the same tau and snapshot, and
    # the survivors' rows of the stopped path's terminal, in row order
    dist = make_distribution(kind, **({"masses": masses} if masses else {}))
    cfg = WalkConfig(k=len(start), start=start, dist=dist, master_seed=8)
    for snap in (snap_step, None):
        tau, _, terminal, snapped = _simulate_block(cfg, horizon, 2, 3000, snap)
        lean_tau, survivors, lean_snap = _simulate_block(cfg, horizon, 2, 3000, snap,
                                                         stopped=False)
        assert np.array_equal(lean_tau, tau)
        if snap is None:
            assert snapped is None and lean_snap is None
        else:
            assert lean_snap.dtype == snapped.dtype and np.array_equal(lean_snap, snapped)
        alive = tau > horizon
        assert 0 < alive.sum() < tau.size
        assert survivors.dtype == terminal.dtype
        assert np.array_equal(survivors, terminal[alive])


def test_blocks_take_the_lean_path_unless_asked_for_stopped_positions():
    cfg = WalkConfig(k=3, start=(0, 1, 2), dist=RAD, master_seed=2)
    lean = list(engine._blocks(cfg, 32, BLOCK_SIZE + 5))
    full = list(engine._blocks(cfg, 32, BLOCK_SIZE + 5, stopped=True))
    assert [len(b) for b in lean] == [3, 3] and [len(b) for b in full] == [4, 4]
    for (tau, survivors, _), (full_tau, delta, terminal, _) in zip(lean, full):
        assert np.array_equal(tau, full_tau)
        assert np.array_equal(survivors, terminal[tau > 32])
        assert delta.shape == tau.shape


@pytest.mark.parametrize("kind", ["rademacher", "gaussian", "uniform", "laplace"])
def test_lean_survivors_are_c_ordered_and_own_their_memory(kind):
    # lattice survivors are rebuilt from slot counts and Gaussian ones from
    # gaps; uniform and Laplace ones are copied off the last chunk: none is a
    # view that keeps a chunk's path array alive
    cfg = WalkConfig(k=3, start=(0, 2, 4), dist=make_distribution(kind), master_seed=4)
    tau, survivors, _ = _simulate_block(cfg, 16, 1, 300, stopped=False)
    assert survivors.shape == ((tau > 16).sum(), 3) and len(survivors) > 0
    assert survivors.flags.c_contiguous and survivors.base is None


def test_lattice_walks_that_could_pass_int64_are_refused():
    # positions up to max |x_i| + horizon * max(|lo|, |hi|) and slot counts
    # up to a_{k-1} + horizon * (S - 1) are int64; a walk that could take
    # either to 2**63 is refused, and one a step short of it walks exactly
    half = Fraction(1, 2)
    law = make_distribution("custom_lattice", masses={-1024: half, 1024: half})
    cfg = WalkConfig(k=2, start=(2 ** 63 - 1 - 4 * 1024 - 3000, 2 ** 63 - 1 - 4 * 1024),
                     dist=law, master_seed=3)
    assert engine._chunk_dtype(cfg, 4) is np.int16 and engine.int64_error(cfg, 4) is None
    got = _simulate_block(cfg, 4, 1, 300, 2)
    want = _site_frame_block(cfg, 4, 1, 300, 2)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    with pytest.raises(ValueError, match=r"2\*\*63") as exc:
        _simulate_block(cfg, 5, 1, 300)
    assert str(exc.value) == engine.int64_error(cfg, 5)
    # positions far from 2**63, slot counts past it
    far = WalkConfig(k=2, start=(-5 * 10 ** 18, 5 * 10 ** 18),
                     dist=make_distribution("lazy_lattice"))
    with pytest.raises(ValueError, match=r"2\*\*63"):
        engine._chunk_dtype(far, 1)
    assert "2**63" in engine.int64_error(far, 1)
    # a continuous walk has no int64 bound
    gauss = WalkConfig(k=2, start=(-5e18, 5e18), dist=make_distribution("gaussian"))
    assert engine.int64_error(gauss, 10 ** 6) is None


@pytest.mark.parametrize("start", [(2 ** 53 + 1, 2 ** 53 + 2),
                                   (np.int64(2 ** 53 + 1), np.int64(2 ** 53 + 2))])
def test_integer_starts_past_2_53_are_integers(start):
    # float(c) rounds 2**53 + 1 to 2**53; integrality is read exactly
    cfg = WalkConfig(k=2, start=start, dist=RAD)
    tau, survivors, _ = _simulate_block(cfg, 4, 0, 64, stopped=False)
    assert survivors.min() >= 2 ** 53 - 3 and survivors.max() <= 2 ** 53 + 6
    with pytest.raises(ValueError, match="integer start"):
        WalkConfig(k=2, start=(0.5, 2.0), dist=RAD)


@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("start", [(0, 1), (0, 1, 2)])
def test_survival_matches_exact_rational_at_every_chunk_size(start, chunk, monkeypatch):
    # one 2^16-path batch against P(tau > n) from the exact rational DP, n = 1..8
    monkeypatch.setattr(engine, "CHUNK_CELLS", chunk)
    cfg = WalkConfig(k=len(start), start=start, dist=RAD, master_seed=6)
    paths = 1 << 16
    for n, est in batch_survival(cfg, range(1, 9), paths):
        p = float(exact_survival_kernel(cfg, n).total_mass())
        assert abs(est.mean - p) <= 4 * np.sqrt(p * (1 - p) / paths), (n, est.mean, p)


def test_position_dtype_reads_the_lattice_not_keys_of_mass_zero():
    # a key of mass zero is no step: the slot counts fit int16 with or without it
    half = Fraction(1, 2)
    with_key = make_distribution("custom_lattice", masses={-1: half, 1: half, 40000: 0})
    cfgs = [WalkConfig(k=3, start=(0, 1, 2), dist=dist, master_seed=8)
            for dist in (with_key, RAD)]
    assert [engine._chunk_dtype(cfg, 64) for cfg in cfgs] == [np.int16, np.int16]
    first, again = (_simulate_block(cfg, 64, 1, 3000, 10) for cfg in cfgs)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))


def _site_frame_block(cfg, horizon, block_index, block_size, snap_step):
    """_simulate_block walked in sites: the same stream and chunk schedule,
    every drawn uniform turned into its site by a table built from the law's
    masses (site s owns d * p(s) consecutive draws, in ascending order), and
    the positions summed in int64."""
    dist, k = cfg.dist, cfg.k
    sampler = dist.sampler
    sites = sorted(s for s, p in dist.masses.items() if p > 0)
    table = np.repeat(sites, [int(dist.masses[s] * dist.denominator) for s in sites])
    rng = engine._block_stream(cfg, block_index)
    pos = np.tile(np.asarray(cfg.start, dtype=np.int64), (block_size, 1))
    snap = None if snap_step is None else pos.copy()
    tau = np.full(block_size, horizon + 1)
    alive = np.arange(block_size)
    n = 0
    while n < horizon and alive.size:
        m = alive.size
        cells = engine.CHUNK_CELLS
        t = min(max(1, cells // m, min(4 * cells // m, n)), horizon - n)
        u = sampler.uniforms(rng.bit_generator, t * k * m).reshape(t, k, m)
        walk = pos[alive].T + np.cumsum(table[u], axis=0)
        broken = (np.diff(walk, axis=1) <= 0).any(axis=1)  # (t, m)
        exits = broken.any(axis=0)
        first = np.where(exits, broken.argmax(axis=0), t)
        if snap is not None and n < snap_step <= n + t:
            live = first >= snap_step - n
            snap[alive[live]] = walk[snap_step - n - 1][:, live].T
        tau[alive[exits]] = n + 1 + first[exits]
        pos[alive] = walk[np.minimum(first, t - 1), :, np.arange(m)]
        alive = alive[~exits]
        n += t
    return tau, vandermonde(pos.astype(np.float64)), pos, snap


# laws with span > 1 (d = 2 among them), an interior slot of mass zero, and d = 4099
SLOT_LAWS = [RAD, make_distribution("lazy_lattice"),
             make_distribution("custom_lattice", masses={-3: Fraction(1, 2), 3: Fraction(1, 2)}),
             make_distribution("custom_lattice", masses={-3: Fraction(2, 3), 6: Fraction(1, 3)}),
             make_distribution("custom_lattice",
                               masses={-4: Fraction(1, 4), -2: 0, 0: Fraction(1, 4),
                                       2: Fraction(1, 2)}),
             make_distribution("custom_lattice", masses=D4099)]


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(SLOT_LAWS), lo=st.integers(-40, 40),
       gaps=st.lists(st.integers(1, 13), min_size=1, max_size=3),
       horizon=st.integers(1, 80), snap=st.one_of(st.none(), st.integers(0, 80)),
       chunk=st.sampled_from(CHUNK_SIZES), seed=st.integers(0, 2 ** 32 - 1))
def test_slot_chunks_walk_the_sites_they_stand_for(law, lo, gaps, horizon, snap, chunk,
                                                   seed):
    # a lattice block sums slot counts from the slot origin; what it reports
    # is what walking the drawn sites from the start gives, on both paths
    start = tuple(lo + sum(gaps[:i]) for i in range(len(gaps) + 1))
    cfg = WalkConfig(k=len(start), start=start, dist=law, master_seed=seed)
    snap_step = None if snap is None else min(snap, horizon)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "CHUNK_CELLS", chunk)
        want = _site_frame_block(cfg, horizon, 1, 300, snap_step)
        got = _simulate_block(cfg, horizon, 1, 300, snap_step)
        lean_tau, survivors, lean_snap = _simulate_block(cfg, horizon, 1, 300, snap_step,
                                                         stopped=False)
    for a, b in zip(got, want):
        assert (a is None and b is None) or (a.dtype == b.dtype and np.array_equal(a, b))
    assert np.array_equal(lean_tau, want[0])
    assert np.array_equal(survivors, want[2][want[0] > horizon])
    assert (lean_snap is None and snap is None) or np.array_equal(lean_snap, want[3])


def _phi(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@pytest.mark.parametrize("gap, variance", [(0.5, 1.0), (1.0, 1.0), (2.0, 2.5)])
def test_gaussian_pair_survives_one_step_with_the_normal_chance(gap, variance):
    # one step moves the gap by a N(0, 2 sigma^2) increment, so
    # P(tau > 1) = Phi(g / (sigma sqrt 2))
    cfg = WalkConfig(k=2, start=(0.0, gap),
                     dist=make_distribution("gaussian", variance=variance), master_seed=7)
    [(_, est)] = batch_survival(cfg, [1], paths=1 << 16)
    assert est.covers(_phi(gap / math.sqrt(2.0 * variance)), n_sigma=4)


def _per_walker_reference(start, variance, horizons, paths, seed):
    """P(tau > n) and E[Delta(X(tau)); tau <= n], each with its standard error,
    from k walkers that each take the running sum of their own normals."""
    rng = np.random.default_rng(seed)
    n = max(horizons)
    steps = rng.standard_normal((n, paths, len(start))) * math.sqrt(variance)
    walk = np.asarray(start) + np.cumsum(steps, axis=0)
    out_of_order = (np.diff(walk, axis=2) <= 0).any(axis=2)
    exited = out_of_order.any(axis=0)
    tau = np.where(exited, out_of_order.argmax(axis=0) + 1, n + 1)
    delta = vandermonde(walk[np.minimum(tau, n) - 1, np.arange(paths)])
    return _survival_and_stopped_delta(tau, delta, horizons)


def _survival_and_stopped_delta(tau, delta, horizons):
    out = []
    for h in horizons:
        alive = tau > h
        stopped = np.where(alive, 0.0, delta)
        p = alive.mean()
        out.append((p, math.sqrt(p * (1 - p) / tau.size),
                    stopped.mean(), stopped.std() / math.sqrt(tau.size)))
    return out


@pytest.mark.parametrize("start", [(0.0, 1.0), (0.0, 1.0, 2.5)])
def test_gaussian_blocks_match_independent_walkers(start):
    # the gap-frame blocks against k walkers that each sum their own normals:
    # P(tau > n) and E[Delta(X(tau)); tau <= n] agree within 4 combined se
    horizons, variance = (2, 8, 24), 1.5
    cfg = WalkConfig(k=len(start), start=start,
                     dist=make_distribution("gaussian", variance=variance), master_seed=9)
    blocks = list(engine._blocks(cfg, max(horizons), 1 << 16, stopped=True))
    tau = np.concatenate([b[0] for b in blocks])
    delta = np.concatenate([b[1] for b in blocks])
    got = _survival_and_stopped_delta(tau, delta, horizons)
    ref = _per_walker_reference(start, variance, horizons, 1 << 15, seed=10)
    for h, (p, p_se, d, d_se), (q, q_se, e, e_se) in zip(horizons, got, ref):
        assert abs(p - q) <= 4 * math.hypot(p_se, q_se), (h, p, q)
        assert abs(d - e) <= 4 * math.hypot(d_se, e_se), (h, d, e)


@pytest.mark.parametrize("start", [(0.0, 2.0), (0.0, 2.5, 5.0)])
def test_gaussian_centre_of_survivors_is_a_free_brownian_centre(start):
    # the centre of mass moves independently of the gaps, so given survival
    # its displacement at s is still N(0, sigma^2 s / k): the survivors' row
    # means have variance sigma^2 h / k, and the displacements at the
    # snapshot and at the horizon have covariance sigma^2 snap / k
    k, variance, horizon, snap_step = len(start), 2.0, 16, 6
    cfg = WalkConfig(k=k, start=start, dist=make_distribution("gaussian", variance=variance),
                     master_seed=12)
    blocks = list(engine._blocks(cfg, horizon, 4 * BLOCK_SIZE, snap_step=snap_step))
    alive = np.concatenate([tau > horizon for tau, _, _ in blocks])
    end = np.concatenate([survivors.mean(axis=1) for _, survivors, _ in blocks])
    snap = np.concatenate([s.mean(axis=1) for _, _, s in blocks])[alive]
    end -= np.mean(start)
    snap -= np.mean(start)
    n = end.size
    assert n > 2000
    var_h = variance * horizon / k
    assert abs(end.var() - var_h) <= 4 * var_h * math.sqrt(2.0 / (n - 1))
    product = snap * end
    cov = variance * snap_step / k
    assert abs(product.mean() - cov) <= 4 * product.std() / math.sqrt(n)
