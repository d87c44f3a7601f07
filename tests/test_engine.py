"""Path engine: exit detection, batch estimates, and thread invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordwalk.distributions import RandomStream, make_distribution
from ordwalk.engine import (
    EstimateCI,
    PartialResultError,
    WalkConfig,
    _simulate_block,
    batch_stopped_vandermonde,
    batch_survival,
    conditioned_endpoints,
    run_path,
)

RAD = make_distribution("rademacher")


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


def test_run_path_deterministic():
    a = run_path(cfg2(), 50, RandomStream(3, 9))
    b = run_path(cfg2(), 50, RandomStream(3, 9))
    assert a == b
    assert a.stop_time >= 1
    if a.exited:
        assert a.delta_at_stop <= 0
        assert a.stop_time <= 50


def test_run_path_rejects_zero_horizon():
    with pytest.raises(ValueError):
        run_path(cfg2(), 0, RandomStream(0, 0))


def test_run_path_exit_state_disordered():
    for i in range(30):
        out = run_path(cfg2(), 20, RandomStream(1, i))
        diffs = np.diff(out.terminal)
        if out.exited:
            assert (diffs <= 0).any()
        else:
            assert (diffs > 0).all() and out.stop_time == 20


def test_one_step_survival_three_quarters():
    [(h, est)] = batch_survival(cfg2(), [1], paths=200_000)
    assert h == 1
    assert est.covers(0.75, n_sigma=4)


def test_zero_horizon_survival_is_one():
    [(h, est)] = batch_survival(cfg2(), [0], paths=100)
    assert h == 0 and est.mean == 1.0 and est.stderr == 0.0


def test_one_step_stopped_vandermonde():
    est = batch_stopped_vandermonde(cfg2(), 1, paths=200_000)
    assert est.covers(-0.25, n_sigma=4)


def test_zero_step_stopped_vandermonde_exact_zero():
    est = batch_stopped_vandermonde(cfg2(), 0, paths=10)
    assert est.mean == 0.0 and est.stderr == 0.0


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
    b1 = batch_stopped_vandermonde(cfg2(), 8, paths=60_000)
    b2 = batch_stopped_vandermonde(cfg2(), 8, paths=60_000)
    assert b1 == b2


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
    est = EstimateCI(mean=1.0, stderr=0.1, n_samples=100)
    assert est.covers(1.15)
    assert not est.covers(1.5)
    assert est.covers(1.25, n_sigma=3)
    assert not est.covers(1.35, n_sigma=3)
    assert est.halfwidth() == pytest.approx(0.195996, rel=1e-4)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 40))
def test_run_path_replay_property(seed, horizon):
    s1 = RandomStream(seed, 0)
    s2 = RandomStream(seed, 0)
    assert run_path(cfg2(seed), horizon, s1) == run_path(cfg2(seed), horizon, s2)


@pytest.mark.parametrize("kind, start, dtype", [
    ("rademacher", (0, 1, 2), np.int64),
    ("lazy_lattice", (0, 1), np.int64),
    ("gaussian", (0.0, 1.0, 2.0), np.float64),
])
def test_simulate_block_terminal_dtype(kind, start, dtype):
    cfg = WalkConfig(k=len(start), start=start, dist=make_distribution(kind),
                     master_seed=3)
    tau, delta, terminal = _simulate_block(cfg, 64, 0, 2000)
    assert terminal.dtype == dtype and terminal.shape == (2000, len(start))
    # exit rows are out of order at tau, survivors stay ordered
    gaps = np.diff(terminal, axis=1)
    exited = tau <= 64
    assert (gaps[exited] <= 0).any(axis=1).all()
    assert (gaps[~exited] > 0).all()
    prod = np.prod([terminal[:, j] - terminal[:, i] for i in range(len(start))
                    for j in range(i + 1, len(start))], axis=0)
    assert np.array_equal(delta, prod.astype(float))
