"""Exact oracles for the program's outputs, recomputed on every invocation.

Each check compares what a pass wrote (or returned) against an exact or
closed-form value that this module recomputes, never a cached one. A check
returns a list of `Check` rows; each row is one operation, failed if missed.
Monte Carlo results must lie within 5 standard deviations of the exact value,
where the deviation is taken from the exact law, not from the sample.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

from ordwalk import asymptotics, lattice_exact, transform
from ordwalk.distributions import make_distribution
from ordwalk.engine import WalkConfig
from workloads import GAP_SURVIVAL

N_SIGMA = 5.0
CONSTANT_RTOL = 1e-9
GAP_DP_RTOL = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _load_json(out_dir, kind):
    with open(os.path.join(out_dir, kind.replace("-", "_") + ".json")) as fh:
        return json.load(fh)


def _rademacher_cfg(start):
    return WalkConfig(k=len(start), start=tuple(start),
                      dist=make_distribution("rademacher"))


def _within(name, value, exact, sigma):
    z = (value - exact) / sigma if sigma > 0 else (0.0 if value == exact else math.inf)
    return Check(name, abs(z) <= N_SIGMA,
                 f"value={value:.7g} exact={exact:.7g} z={z:+.2f}")


def _binomial_check(name, p_hat, p, paths):
    return _within(name, p_hat, p, math.sqrt(p * (1.0 - p) / paths))


def _exact_survival(start, n):
    """P(tau > n) for Rademacher walkers, in exact rational arithmetic."""
    return lattice_exact.exact_survival_kernel(_rademacher_cfg(start), n).total_mass()


def check_tail(item, out_dir):
    rows = {}
    with open(os.path.join(out_dir, "survival.csv")) as fh:
        for row in csv.DictReader(fh):
            rows[int(row["n"])] = float(row["p_survive"])
    paths = item.params["paths"]
    k = item.walk["k"]
    if k == 2:
        gap = item.walk["start"][1] - item.walk["start"][0]
        exact = lattice_exact.gap_chain_survival(
            make_distribution("rademacher"), gap, sorted(rows))
        return [_binomial_check(f"{item.name}: P(tau>{n}) vs gap DP",
                                rows[n], p, paths) for n, p in exact]
    if k == 3:
        p = float(_exact_survival(item.walk["start"], 16))
        return [_binomial_check(f"{item.name}: P(tau>16) vs exact rational",
                                rows[16], p, paths)]
    return []


def check_endpoint(item, out_dir):
    """k=2 gap mean against the exact law of the gap conditioned on survival."""
    rep = _load_json(out_dir, item.kind)
    checks = []
    if item.walk["k"] == 2:
        n = rep["n"]
        gaps, probs = lattice_exact.gap_chain_alive_distribution(
            make_distribution("rademacher"), item.walk["start"][1] - item.walk["start"][0], n)
        scaled = gaps / math.sqrt(n)
        mean = float((scaled * probs).sum())
        sd = math.sqrt(float((scaled ** 2 * probs).sum()) - mean ** 2)
        checks.append(_within(f"{item.name}: gap mean vs exact DP at n={n}",
                              rep["gap_mean"][0], mean,
                              sd / math.sqrt(rep["n_samples"])))
    return checks


def _transformed_moments(start_gap, steps, power, scale):
    gaps, probs = transform.transformed_gap_distribution(start_gap, steps)
    x = (gaps / scale) ** power
    mean = float((x * probs).sum())
    return mean, math.sqrt(max(float((x ** 2 * probs).sum()) - mean ** 2, 0.0))


def check_hermite(item, out_dir):
    rep = _load_json(out_dir, item.kind)
    n = rep["n"]
    paths = rep["n_samples"]
    mean, sd = _transformed_moments(item.walk["start"][1] - item.walk["start"][0],
                                    n, 2, math.sqrt(n))
    return [_within(f"{item.name}: E[g^2]/n vs exact transformed DP at n={n}",
                    rep["gap_sq_mean"][0], mean, sd / math.sqrt(paths))]


def check_dyson(item, out_dir):
    rep = _load_json(out_dir, item.kind)
    checks = []
    for r in rep["reports"]:
        mean, sd = _transformed_moments(r["start_gap"], r["steps"], 1,
                                        math.sqrt(r["n"]))
        checks.append(_within(
            f"{item.name}: gap mean vs exact transformed DP at n={r['n']}",
            r["gap_mean"], mean, sd / math.sqrt(r["n_samples"])))
    return checks


def _identity_reports(doc):
    """Every VerificationReport dict nested in an exact-* result."""
    if isinstance(doc, dict):
        if "identity" in doc and "max_abs_discrepancy" in doc:
            yield doc
        else:
            for value in doc.values():
                yield from _identity_reports(value)


def check_identities(item, out_dir):
    checks = []
    for rep in _identity_reports(_load_json(out_dir, item.kind)):
        label = rep["identity"] + (f" l={rep['l']}" if "l" in rep else "")
        checks.append(Check(
            f"{item.name}: {label} exact",
            rep["pass"] is True and Fraction(rep["max_abs_discrepancy"]) == 0,
            f"sites={rep['sites_checked']} "
            f"max_abs_discrepancy={rep['max_abs_discrepancy']}"))
    if not checks:
        checks.append(Check(f"{item.name}: identity reports", False, "none found"))
    return checks


def check_gap_survival(item, result):
    """The float64 gap DP at n=16 against the exact rational survival."""
    start = (0, item.params["start_gap"])
    exact = float(_exact_survival(start, 16))
    got = dict(result)[16]
    rel = abs(got - exact) / exact
    return [Check(f"{item.name}: P(tau>16) vs exact rational", rel <= GAP_DP_RTOL,
                  f"value={got!r} exact={exact!r} rel={rel:.2e}")]


def mehta_constants(k):
    """(K, Z1) from Mehta's integral with beta = 1.

    The integral of |Delta(y)| exp(-|y|^2/2) over R^k equals
    (2 pi)^(k/2) prod_{j=1..k} Gamma(1 + j/2) / Gamma(3/2); Z1 is that over
    k!, and K = Z1 / ((2 pi)^(k/2) prod_{l<k} l!).
    """
    log_full = (k / 2.0) * math.log(2.0 * math.pi) + sum(
        math.lgamma(1.0 + j / 2.0) - math.lgamma(1.5) for j in range(1, k + 1))
    z1 = math.exp(log_full - math.lgamma(k + 1.0))
    fact = math.prod(math.factorial(l) for l in range(1, k))
    return z1 / ((2.0 * math.pi) ** (k / 2.0) * fact), z1


def check_constants(k, cache_dir):
    """K(k) and Z1(k) by the program's quadrature, recomputed in a fresh cache."""
    path = os.path.join(cache_dir, f"oracle_constants_k{k}.json")
    if os.path.exists(path):
        os.remove(path)
    got = {"K": asymptotics.constant_K(k, cache_path=path),
           "Z1": asymptotics.z1_constant(k, cache_path=path)}
    os.remove(path)
    want = dict(zip(("K", "Z1"), mehta_constants(k)))
    checks = []
    for name in ("K", "Z1"):
        rel = abs(got[name] - want[name]) / want[name]
        checks.append(Check(f"{name}({k}) vs Mehta closed form", rel <= CONSTANT_RTOL,
                            f"value={got[name]!r} exact={want[name]!r} rel={rel:.2e}"))
    return checks


_BY_KIND = {
    "tail": check_tail,
    "endpoint": check_endpoint,
    "hermite": check_hermite,
    "dyson-compare": check_dyson,
    "exact-km": check_identities,
    "exact-reflect": check_identities,
    "exact-v": check_identities,
}


def check_item(item, output):
    """Oracle rows for one item; `output` is its out_dir, or the returned value
    for direct calls. Kinds with no exact oracle give no rows."""
    if item.kind == GAP_SURVIVAL:
        return check_gap_survival(item, output)
    fn = _BY_KIND.get(item.kind)
    return fn(item, output) if fn else []
