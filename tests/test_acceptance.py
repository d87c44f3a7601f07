"""Acceptance gate: one test and one printed pass/fail line per criterion.

Every tolerance and seed here is frozen; the Monte Carlo criteria are
anchored to exact DP or closed-form oracles wherever one exists, and KS
thresholds are calibrated on draws from the exact law.
"""

import math
import time

import numpy as np
import pytest

import ordwalk.transform as tr
from ordwalk import asymptotics, cli, v_module
from ordwalk.distributions import make_distribution
from ordwalk.engine import WalkConfig, batch_survival, conditioned_endpoints
from ordwalk.lattice_exact import (
    exact_harmonicity_check,
    exact_km_check,
    exact_martingale_check,
    exact_reflection_check,
    exact_vn,
    gap_chain_alive_distribution,
    gap_chain_survival,
    star_survival,
)

RAD = make_distribution("rademacher")
CFG2 = WalkConfig(k=2, start=(0, 1), dist=RAD)
LAZY2 = WalkConfig(k=2, start=(0, 1), dist=make_distribution("lazy_lattice"))
CFG3 = WalkConfig(k=3, start=(0, 1, 2), dist=RAD)


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_01_exact_transition_identity():
    t0 = time.monotonic()
    reps = [exact_km_check(CFG2, n) for n in range(1, 11)]
    reps += [exact_km_check(CFG3, n) for n in range(1, 9)]
    reps += [exact_km_check(LAZY2, n) for n in range(1, 9)]
    elapsed = time.monotonic() - t0
    ok = all(r.passed and r.max_abs_discrepancy == 0 for r in reps)
    ok = ok and elapsed < 60.0
    _verdict(1, "exact transition identity k=2 n<=10, k=3 n<=8, lazy k=2 n<=8", ok,
             f"{sum(r.sites_checked for r in reps)} sites, {elapsed:.1f}s")


def test_criterion_02_exact_reflection_identity():
    t0 = time.monotonic()
    reps = exact_reflection_check(CFG2, 6, range(1, 7))
    reps += exact_reflection_check(CFG3, 4, range(1, 5))
    reps += exact_reflection_check(CFG3, 5, range(1, 6))
    elapsed = time.monotonic() - t0
    ok = all(r.passed and r.max_abs_discrepancy == 0 for r in reps)
    ok = ok and elapsed < 60.0
    _verdict(2, "exact reflection identity k=2 n=6 all l, k=3 n=4 and n=5 all l", ok,
             f"{elapsed:.1f}s")


def test_criterion_03_martingale_and_regularity():
    mart = (exact_martingale_check(CFG2, 6).passed
            and exact_martingale_check(CFG3, 4).passed)
    harm = all(exact_harmonicity_check(CFG2, n).passed for n in range(0, 5))
    harm = harm and exact_harmonicity_check(CFG3, 2).passed
    positive = True
    for start in [(0, 1), (0, 2), (0, 5), (0, 1, 2), (0, 2, 4)]:
        cfg = WalkConfig(k=len(start), start=start, dist=RAD)
        positive = positive and all(v > 0 for v in exact_vn(cfg, 8))
    _verdict(3, "exact martingale, one-step iteration, positivity",
             mart and harm and positive)


def _local_slope(curve, lo, hi):
    p = dict(curve)
    return math.log(p[hi] / p[lo]) / math.log(hi / lo)


def test_criterion_04_survival_exponent():
    t0 = time.monotonic()
    # k=2: exact gap-chain DP to n = 2^14
    horizons2 = [2 ** i for i in range(6, 15)]
    fit2 = asymptotics.tail_fit(gap_chain_survival(RAD, 1, horizons2))
    target_pref = 2.0 / math.sqrt(math.pi)
    ok2 = (abs(fit2.exponent + 0.5) <= 0.03
           and abs(fit2.prefactor - target_pref) <= 0.05 * target_pref)
    # k=3: Monte Carlo, 16e6 paths (>= the 1e6 floor), seed 0
    cfg = WalkConfig(k=3, start=(0, 1, 2), dist=RAD, master_seed=0)
    horizons3 = [64, 128, 256, 512, 1024, 2048, 4096]
    curve = batch_survival(cfg, horizons3, paths=16_000_000)
    fit3 = asymptotics.tail_fit(curve)
    ok3 = abs(fit3.exponent + 1.5) <= 0.15
    # every Monte Carlo horizon against the exact star count
    exact3 = dict(star_survival(3, horizons3))
    z3 = max(abs(est.mean - exact3[h]) / est.stderr for h, est in curve)
    ok_mc = all(est.covers(exact3[h], n_sigma=4) for h, est in curve)
    # exact local slopes over 2048 -> 4096; k=4 is out of Monte Carlo reach
    slope3 = _local_slope(star_survival(3, [2048, 4096]), 2048, 4096)
    slope4 = _local_slope(star_survival(4, [2048, 4096]), 2048, 4096)
    ok_exact = abs(slope3 + 1.5) <= 0.005 and abs(slope4 + 3.0) <= 0.005
    elapsed = time.monotonic() - t0
    ok = ok2 and ok3 and ok_mc and ok_exact and elapsed < 600.0
    _verdict(4, "survival exponents -1/2 (exact DP), -3/2 (MC and exact), -3 (exact)", ok,
             f"k2 {fit2.exponent:.4f}/{fit2.prefactor:.4f}, "
             f"k3 {fit3.exponent:.3f}, max |z| vs exact {z3:.2f}, "
             f"exact slopes {slope3:.4f} {slope4:.4f}, {elapsed:.0f}s")


def test_criterion_05_constant_K():
    k2 = asymptotics.constant_K(2)
    ok2 = abs(k2 - 1.0 / math.sqrt(math.pi)) < 1e-6
    # the paper's constant on the exact curves from the packed start:
    # n^{k(k-1)/4} P(tau > n) / (K V(0, ..., k-1)) -> 1
    dev, ok_ratio = {}, True
    for k, tol in ((3, 1e-3), (4, 2e-3)):
        v = float(tr._rademacher_v(tuple(range(k))))
        kv = asymptotics.constant_K(k) * v
        dev[k] = [abs(1.0 - n ** (k * (k - 1) / 4) * p / kv)
                  for n, p in star_survival(k, [256, 1024, 4096])]
        ok_ratio = ok_ratio and dev[k][0] > dev[k][1] > dev[k][2] and dev[k][2] < tol
    ok_v = tr._rademacher_v((0, 1, 2)) == 16 and tr._rademacher_v((0, 1, 2, 3)) == 768
    _verdict(5, "constant K: closed form k=2, exact survival ratio k=3 and k=4",
             ok2 and ok_ratio and ok_v, f"K(2) err {abs(k2 - 1 / math.sqrt(math.pi)):.2e}, "
             f"|1 - ratio| k=3 {dev[3][0]:.2e}>{dev[3][1]:.2e}>{dev[3][2]:.2e}, "
             f"k=4 {dev[4][0]:.2e}>{dev[4][1]:.2e}>{dev[4][2]:.2e}")


def _lattice_ks(sample, sites, cdf):
    """Sup over lattice sites of |empirical CDF - exact CDF|.

    Both CDFs are step functions that jump only at the sites, so this is
    the KS distance between the sample and the exact lattice law.
    """
    emp = np.searchsorted(np.sort(sample), sites, side="right") / len(sample)
    return float(np.abs(emp - cdf).max())


def _exact_law_ks_threshold(sites, cdf, m, seed):
    """Max lattice KS over 100 size-m draws from the exact law (sites, cdf)."""
    cal_rng = np.random.default_rng(seed)
    threshold = 0.0
    for _ in range(100):
        idx = np.searchsorted(cdf, cal_rng.random(m), side="right")
        draw = sites[np.minimum(idx, len(sites) - 1)]
        threshold = max(threshold, _lattice_ks(draw, sites, cdf))
    return threshold


def test_criterion_06_endpoint_limit_law():
    n = 4096
    m = 20_000
    scale = math.sqrt(n)
    # the exact n=4096 law of the conditioned gap (odd integers, start gap 1)
    sites, probs = gap_chain_alive_distribution(RAD, 1, n)
    cdf = np.cumsum(probs)
    # the KS threshold is the max over 100 same-size draws from the exact law
    threshold = _exact_law_ks_threshold(sites, cdf, m, seed=20260823)

    cfg = WalkConfig(k=2, start=(0, 1), dist=RAD, master_seed=2)
    endpoints, _ = conditioned_endpoints(cfg, n, m, max_attempts=4_000_000)
    gaps = np.diff(endpoints, axis=1)[:, 0]
    ks = _lattice_ks(np.rint(gaps * scale), sites, cdf)
    mean = gaps.mean()
    se = gaps.std(ddof=1) / math.sqrt(m)
    # the exact finite-n mean of the conditioned gap, not its limit sqrt(pi)
    exact_mean = float(sites @ probs) / scale
    ok_ks = ks <= threshold
    ok_mean = abs(mean - exact_mean) <= 3 * se

    # noise-free limit check: the exact law approaches 1 - exp(-g^2/4)
    limit_dist = []
    for nn in (256, 1024, 4096):
        s, p = gap_chain_alive_distribution(RAD, 1, nn)
        limit = 1.0 - np.exp(-(s / math.sqrt(nn)) ** 2 / 4.0)
        limit_dist.append(float(np.abs(np.cumsum(p) - limit).max()))
    ok_limit = limit_dist[0] > limit_dist[1] > limit_dist[2]
    _verdict(6, "endpoint gap law: exact-law KS, mean, limit trend",
             ok_ks and ok_mean and ok_limit,
             f"KS {ks:.4f} <= {threshold:.4f}, mean dev "
             f"{abs(mean - exact_mean):.4f} vs {3 * se:.4f}, limit sup "
             f"{limit_dist[0]:.4f} > {limit_dist[1]:.4f} > {limit_dist[2]:.4f}")


def test_criterion_07_v_scaling():
    # exact branch: n = m^2 with m odd snaps sqrt(n)*(0,1) to gap m, where
    # the closed form gives V = m + 1, i.e. n^{-1/2} V = 1 + n^{-1/2} exactly
    exact_ok = True
    for root in (3, 5, 9, 15, 31):
        n = root * root
        start = v_module.snap_to_lattice((0.0, math.sqrt(n)), 2)
        lhs = float(tr._rademacher_v(start)) / math.sqrt(n)
        exact_ok = exact_ok and lhs == 1.0 + 1.0 / math.sqrt(n)
    # Gaussian branch: estimated scaled V against Delta of the unit config
    gauss = make_distribution("gaussian")
    cfg = WalkConfig(k=2, start=(0.0, 1.0), dist=gauss, master_seed=0)
    report = v_module.scaling_check(cfg, (0.0, 1.0), [16, 64, 256],
                                    paths=100_000)
    final_ratio = report["rows"][-1]["ratio"]
    gauss_ok = 0.8 <= final_ratio <= 1.2 and report["trend_ok"]
    _verdict(7, "V scaling: exact closed form and Gaussian ratio",
             exact_ok and gauss_ok, f"final ratio {final_ratio:.3f}")


def test_criterion_08_hermite_ensemble():
    n = 4096
    m = 20_000
    gaps = tr.transformed_gap_paths(1, n, m, master_seed=0)
    sq = (gaps / math.sqrt(n)) ** 2
    m2 = float(sq.mean())
    se = float(sq.std(ddof=1)) / math.sqrt(len(sq))
    # the exact finite-n E[g^2]/n of the transformed chain, not its limit 6
    dp_gaps, dp_probs = tr.transformed_gap_distribution(1, n)
    exact_m2 = float((dp_gaps / math.sqrt(n)) ** 2 @ dp_probs)
    ok_m2 = abs(m2 - exact_m2) <= 3 * se
    # lattice KS against the exact law, threshold calibrated on draws from it
    cdf = np.cumsum(dp_probs)
    ks = _lattice_ks(gaps, dp_gaps, cdf)
    threshold = _exact_law_ks_threshold(dp_gaps, cdf, m, seed=20260824)
    ok_ks = ks <= threshold
    tvs = [tr.hermite_gap_tv_exact(1, nn) for nn in (256, 1024, 4096)]
    ok_tv = tvs[0] > tvs[1] > tvs[2]
    _verdict(8, "Hermite ensemble: gap second moment, exact-law KS, TV trend",
             ok_m2 and ok_ks and ok_tv,
             f"m2 {m2:.3f}+-{se:.3f}, KS {ks:.4f} <= {threshold:.4f}, "
             f"TV {tvs[0]:.4f}>{tvs[1]:.4f}>{tvs[2]:.4f}")


def test_criterion_09_ordered_bm_marginals():
    reps = [tr.dyson_compare((0.0, 1.0), t=1.0, n=n, paths=50_000,
                             master_seed=0) for n in (256, 1024)]
    ok = reps[0]["tv"] > reps[1]["tv"] and reps[1]["tv"] < 0.05
    _verdict(9, "ordered-BM marginal TV decreasing, final < 0.05", ok,
             f"TV {reps[0]['tv']:.4f} -> {reps[1]['tv']:.4f}")


def test_criterion_10_local_clt():
    lazy = make_distribution("lazy_lattice")
    d256 = asymptotics.local_clt_deviation(lazy, 256)["sup_deviation"]
    d4096 = asymptotics.local_clt_deviation(lazy, 4096)["sup_deviation"]
    ok = d4096 < 1e-2 and d4096 < d256
    _verdict(10, "local CLT sup deviation below 1e-2 and shrinking", ok,
             f"{d256:.2e} -> {d4096:.2e}")


def test_criterion_11_reproducibility(tmp_path):
    doc = """
kind: tail
walk:
  k: 2
  start: [0, 1]
  dist: rademacher
seed: 7
params:
  horizons: [16, 32, 64, 128, 256]
  paths: 50000
  exponent_tol: 0.2
"""
    spec = cli.validate_spec(doc)
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        manifest, code = cli.run_experiment(spec, out_dir=str(out))
        assert code == 0
        outs.append((out, manifest))
    files1 = outs[0][1].files
    ok = files1 == outs[1][1].files
    for fname in files1:
        ok = ok and ((outs[0][0] / fname).read_bytes()
                     == (outs[1][0] / fname).read_bytes())
    _verdict(11, "byte-identical results across reruns", ok,
             f"{len(files1)} files compared")
