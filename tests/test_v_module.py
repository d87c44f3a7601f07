"""Monte Carlo V estimation checked against exact rational truncations."""

import math
from fractions import Fraction

import pytest

from ordwalk.distributions import make_distribution
from ordwalk.engine import WalkConfig
from ordwalk.lattice_exact import exact_vn
from ordwalk.v_module import (
    estimate_v,
    scaling_check,
    snap_to_lattice,
)

RAD = make_distribution("rademacher")
CFG2 = WalkConfig(k=2, start=(0, 1), dist=RAD, master_seed=0)


def test_vn_matches_exact_truncation():
    exact = exact_vn(CFG2, 6)
    for n in (1, 3, 6):
        est = estimate_v(CFG2, [n], paths=100_000)
        assert est.value.covers(float(exact[n - 1]), n_sigma=4)


def test_vn_one_step_example():
    # Delta(0,1) - E[Delta(X(tau)) 1{tau <= 1}] = 1 - (-1/4) = 5/4
    est = estimate_v(CFG2, [1], paths=200_000)
    assert est.value.covers(1.25, n_sigma=4)


def test_vn_rejects_bad_args():
    with pytest.raises(ValueError, match="paths must be >= 1"):
        estimate_v(CFG2, [2], paths=0)


def test_estimate_v_schedule():
    est = estimate_v(CFG2, [4, 8, 16, 32], paths=100_000)
    assert est.n_used == 32
    assert not math.isnan(est.tail_diagnostic)
    # limit V for gap 1 is 2; the n=32 truncation sits close below it
    # (exact rationals hit the capacity guard at n=32, so use the gap DP)
    from ordwalk.lattice_exact import _gap_chain_dp
    exact32 = 1.0 - _gap_chain_dp(RAD, 1, [32])[32].stopped
    assert est.value.covers(exact32, n_sigma=4)
    assert est.value.mean < 2.1


def test_estimate_v_rejects_duplicate_schedule():
    with pytest.raises(ValueError):
        estimate_v(CFG2, [4, 4, 8], paths=100)
    with pytest.raises(ValueError):
        estimate_v(CFG2, [], paths=100)


def test_estimate_v_single_horizon_tail_nan():
    est = estimate_v(CFG2, [8], paths=10_000)
    assert math.isnan(est.tail_diagnostic) and est.converged


def test_snap_to_lattice():
    assert snap_to_lattice((0.2, 0.4), 2) == (0, 1)
    assert snap_to_lattice((1.6, 3.2), 2) == (2, 3)
    assert snap_to_lattice((0.0, 1.0, 2.0), 3) == (0, 1, 2)


def test_scaling_check_trend():
    report = scaling_check(CFG2, (0.0, 1.0), [16, 64, 256], paths=40_000)
    assert report["delta_unit"] == 1.0
    assert len(report["rows"]) == 3
    for row in report["rows"]:
        assert row["scaled_value"] > 0
    assert report["trend_ok"]
    # the scaled estimate approaches Delta(x_unit) = 1 from above
    assert abs(report["rows"][-1]["ratio"] - 1.0) < 0.2


def test_scaling_check_single_horizon_warns():
    report = scaling_check(CFG2, (0.0, 1.0), [16], paths=5_000)
    assert report["warning"] is not None and report["trend_ok"]


def test_scaling_check_rejects_bad_unit():
    with pytest.raises(ValueError):
        scaling_check(CFG2, (1.0, 0.0), [16], paths=100)
