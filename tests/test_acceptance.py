"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Every criterion is property- or oracle-based and runs on synthetic data, so
the whole suite is deterministic given the seeds fixed below.
"""

import math
import sys
import time

import numpy as np
import pytest

from conftest import followup, make_dataset, make_respondent
from rdsdiag.behavior import exact_odds_ratio_interval, nonresponse_rates
from rdsdiag.bottleneck import wsd_permutation_tests
from rdsdiag.convergence import convergence_flag
from rdsdiag.dataset import validate_dataset
from rdsdiag.degree import degree_trend
from rdsdiag.estimators import (
    IncludedSample,
    cumulative_estimates,
    included_sample,
    ss_estimate,
)
from rdsdiag.finitepop import participants_known_trend
from rdsdiag.report import PipelineConfig, diagnose, run_pipeline
from rdsdiag.sim import NetworkConfig, SimConfig, TraitRule, generate_network, simulate_rds


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"Criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# -- criterion 1: inverse-degree estimator under ideal sampling ---------------


def test_criterion_01_vh_under_stationary_sampling():
    t0 = time.perf_counter()
    net = generate_network(
        NetworkConfig(
            block_sizes=(300,),
            within_block_edge_prob=0.05,
            between_block_edge_prob=0.0,
            traits={"hub": TraitRule("top_degree", fraction=0.3)},
        ),
        rng_seed=0,
    )
    deg = net.degrees.astype(float)
    trait = net.node_traits["hub"].astype(float)
    assert trait.mean() == pytest.approx(0.30)

    rng = np.random.default_rng(1)
    p = deg / deg.sum()
    samples = rng.choice(net.node_count, size=(500, 200), p=p, replace=True)
    inv = 1.0 / deg[samples]
    vh = (inv * trait[samples]).sum(axis=1) / inv.sum(axis=1)
    raw = trait[samples].mean(axis=1)
    elapsed = time.perf_counter() - t0

    ok = (
        abs(vh.mean() - 0.30) <= 0.01
        and raw.mean() > 0.33  # degree-trait correlation inflates the raw mean
        and elapsed < 60.0
    )
    _report(
        1, ok,
        f"mean weighted estimate {vh.mean():.4f} (target 0.30 +/- 0.01), "
        f"mean raw proportion {raw.mean():.4f}, {elapsed:.1f}s",
    )


# -- criterion 2: hand fixtures exact -----------------------------------------


EQ1_FIXTURE = [(True, 1.0), (True, 4.0), (False, 2.0), (False, 4.0)]


def _vh(members):
    """The inverse-degree estimate of (has_trait, degree) pairs, as the last
    cumulative estimate of an included sample made of them."""
    n = len(members)
    sample = IncludedSample(
        trait="t", roots=("S",), orders=np.arange(2, n + 2),
        y=np.array([y for y, _ in members], dtype=float),
        degree=np.array([d for _, d in members], dtype=float), tree=np.zeros(n, dtype=int),
    )
    return cumulative_estimates(sample)[-1]


def test_criterion_02_estimator_hand_fixtures():
    checks = []
    checks.append(abs(_vh(EQ1_FIXTURE) - 0.625) <= 1e-12)
    for scale in (0.5, 3.0):
        scaled = [(y, d * scale) for y, d in EQ1_FIXTURE]
        checks.append(abs(_vh(scaled) - 0.625) <= 1e-12)
    checks.append(abs(_vh([(True, 7.0)]) - 1.0) <= 1e-12)
    checks.append(abs(_vh([(False, 1.0), (False, 9.0)]) - 0.0) <= 1e-12)
    ok = all(checks)
    _report(2, ok, f"{sum(checks)}/{len(checks)} hand fixtures exact to 1e-12")


# -- criterion 3: convergence fixtures and monotonicity ------------------------


def test_criterion_03_convergence_rule():
    checks = []
    checks.append(not convergence_flag([0.4] * 120)["flagged"])
    step = convergence_flag([0.40] * 81 + [0.47])
    checks.append(step["flagged"] and step["first_violation_offset"] == 1)
    drift = [0.5] * 60 + [0.53] + [0.51] * 20 + [0.5]
    checks.append(convergence_flag(drift, epsilon=0.02)["flagged"])
    checks.append(not convergence_flag(drift, epsilon=0.05)["flagged"])

    rng = np.random.default_rng(7)
    mono_ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 120))
        series = np.clip(np.cumsum(rng.normal(0, 0.03, size=m)) + 0.5, 0, 1)
        e1, e2 = sorted(rng.uniform(0.001, 0.2, size=2))
        t1, t2 = sorted(int(v) for v in rng.integers(2, 80, size=2))
        if convergence_flag(series, tau=50, epsilon=float(e2))["flagged"]:
            if not convergence_flag(series, tau=50, epsilon=float(e1))["flagged"]:
                mono_ok = False
        if convergence_flag(series, tau=t1, epsilon=0.02)["flagged"]:
            if not convergence_flag(series, tau=t2, epsilon=0.02)["flagged"]:
                mono_ok = False
    checks.append(mono_ok)
    ok = all(checks)
    _report(3, ok, "fixtures exact; monotone in epsilon and window on 1000 series")


# -- criterion 4: dispersion test null calibration -----------------------------


def _null_dataset(rng: np.random.Generator):
    rows = []
    order = 1
    recruits = []
    for s in range(4):
        coupons = [f"s{s}c{j}" for j in range(24)]
        rows.append(
            make_respondent(
                f"S{s}", order, coupons_out=coupons,
                degree=int(rng.integers(1, 11)),
                traits={"x": "yes" if rng.random() < 0.5 else "no"},
            )
        )
        order += 1
        recruits.extend(coupons)
    for j, cin in enumerate(recruits):
        rows.append(
            make_respondent(
                f"r{j}", order, coupon_in=cin,
                degree=int(rng.integers(1, 11)),
                traits={"x": "yes" if rng.random() < 0.5 else "no"},
            )
        )
        order += 1
    return make_dataset(rows, traits=[("x", "yes")], allotment=24)


def test_criterion_04_null_calibration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    flags = 0
    for i in range(500):
        ds = _null_dataset(rng)
        (result,) = wsd_permutation_tests([included_sample(ds, "x")], replicates=2000, rng_seed=i)
        flags += result["flagged"]
    rate = flags / 500
    elapsed = time.perf_counter() - t0
    ok = abs(rate - 0.10) <= 0.03 and elapsed < 300.0
    _report(4, ok, f"null flag rate {rate:.3f} (target 0.10 +/- 0.03), {elapsed:.0f}s")


# -- criterion 5: bottleneck power ---------------------------------------------


def test_criterion_05_bottleneck_power():
    net = generate_network(
        NetworkConfig(
            block_sizes=(150, 150),
            within_block_edge_prob=0.05,
            between_block_edge_prob=0.001,
            traits={"hiv": TraitRule("block", block=0)},
        ),
        rng_seed=5,
    )
    flags = 0
    runs = 100
    for seed in range(runs):
        result = simulate_rds(
            net, SimConfig(target_n=150, seed_count=6, followup_prob=0.0, rng_seed=seed)
        )
        ds = result.dataset
        (test,) = wsd_permutation_tests(
            [included_sample(ds, "hiv")], replicates=1000, rng_seed=seed
        )
        if "skipped" in test:
            continue
        flags += test["flagged"]
    rate = flags / runs
    ok = rate >= 0.80
    _report(5, ok, f"bottleneck flag rate {rate:.2f} on block-split trait (need >= 0.80)")


# -- criterion 6: finite-population estimator limits ---------------------------


def _ss_fixture_dataset():
    degrees = [1, 4, 2, 4] * 25
    values = ["yes", "yes", "no", "no"] * 25
    coupons = [f"c{j}" for j in range(100)]
    rows = [
        make_respondent("S", 1, coupons_out=coupons, degree=5, traits={"x": None})
    ]
    for j, (d, v) in enumerate(zip(degrees, values)):
        rows.append(
            make_respondent(f"r{j}", j + 2, coupon_in=coupons[j], degree=d,
                            traits={"x": v})
        )
    return make_dataset(rows, traits=[("x", "yes")], allotment=100)


def test_criterion_06_ss_vh_limits():
    ds = _ss_fixture_dataset()
    sample = included_sample(ds, "x")
    vh = 0.625

    ss_large = ss_estimate(sample, 100_000)
    limit_ok = abs(ss_large - vh) < 0.005

    # SS takes no seed, so one comparison stands for all 50 seeded repeats
    near = ss_estimate(sample, 120)
    far = ss_estimate(sample, 10_000)
    wins = 50 if abs(near - vh) > abs(far - vh) else 0
    ok = limit_ok and wins >= 45
    _report(
        6, ok,
        f"|ss(1000n) - vh| = {abs(ss_large - vh):.4f} (< 0.005); "
        f"finite-population gap larger near census: {wins}/50 (need >= 45)",
    )


# -- criterion 7: non-response identity ----------------------------------------


def test_criterion_07_nonresponse_identity():
    datasets = []
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2", "C3"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=3, n_refusals=2),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
    ]
    datasets.append(make_dataset(rows))

    net = generate_network(
        NetworkConfig(block_sizes=(200,), within_block_edge_prob=0.05,
                      between_block_edge_prob=0.0,
                      traits={"employed": TraitRule("bernoulli", p=0.6)}),
        rng_seed=2,
    )
    for seed in range(10):
        datasets.append(
            simulate_rds(
                net,
                SimConfig(target_n=120, seed_count=5, followup_prob=1.0,
                          refusal_prob=0.15, nonreturn_prob=0.2, rng_seed=seed),
            ).dataset
        )

    worst = 0.0
    for ds in datasets:
        rates = nonresponse_rates(ds)
        lhs = rates["total_non_response"]
        rhs = 1 - (1 - rates["coupon_refusal"]) * (1 - rates["non_return"])
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    _report(7, ok, f"identity residual <= {worst:.2e} over {len(datasets)} datasets")


# -- criterion 8: rank statistic oracles ---------------------------------------


def _oracle_rank_stats(y: np.ndarray):
    n = len(y)
    x = np.arange(1, n + 1, dtype=float)
    dy = y[None, :] - y[:, None]
    dx = x[None, :] - x[:, None]
    iu = np.triu_indices(n, k=1)

    slopes = dy[iu] / dx[iu]
    theil = float(np.median(slopes))

    conc = int((dy[iu] > 0).sum())
    disc = int((dy[iu] < 0).sum())
    ties_y = int((dy[iu] == 0).sum())
    n0 = n * (n - 1) / 2
    tau = (conc - disc) / math.sqrt(n0 * (n0 - ties_y))

    def avg_rank(v):
        order = np.argsort(v, kind="stable")
        ranks = np.empty(n)
        i = 0
        sv = v[order]
        while i < n:
            j = i
            while j + 1 < n and sv[j + 1] == sv[i]:
                j += 1
            ranks[order[i:j + 1]] = (i + j) / 2 + 1
            i = j + 1
        return ranks

    ry = avg_rank(y)
    rx = x  # already distinct ranks
    rho = float(np.corrcoef(rx, ry)[0, 1])
    return theil, tau, rho


def test_criterion_08_rank_statistic_oracles():
    rng = np.random.default_rng(21)
    worst = 0.0
    tested = 0
    while tested < 200:
        n = int(rng.integers(4, 201))
        y = rng.integers(0, max(3, n // 4), size=n).astype(float)
        if np.all(y == y[0]):
            continue
        tested += 1
        rows = [
            make_respondent(f"x{i}", i + 1, degree=int(v), traits={"hiv": "no"})
            for i, v in enumerate(y)
        ]
        # zero degrees are fine here: only the rank methods are exercised
        ds = make_dataset(rows)
        verdicts = {
            m: degree_trend(ds, m)["statistic"] for m in ("theil-sen", "kendall-tau", "spearman-rho")
        }
        theil, tau, rho = _oracle_rank_stats(y)
        worst = max(
            worst,
            abs(verdicts["theil-sen"] - theil),
            abs(verdicts["kendall-tau"] - tau),
            abs(verdicts["spearman-rho"] - rho),
        )
    ok = worst <= 1e-12
    _report(8, ok, f"max |statistic - oracle| = {worst:.2e} over 200 vectors (<= 1e-12)")


# -- criterion 9: exact interval vs enumeration oracle -------------------------


def _oracle_interval(a, r1, r2, c1, alpha=0.05):
    lo_s = max(0, c1 - r2)
    hi_s = min(r1, c1)
    ks = list(range(lo_s, hi_s + 1))
    log_coef = [
        math.log(math.comb(r1, k)) + math.log(math.comb(r2, c1 - k)) for k in ks
    ]

    def tail(log_psi, upper):
        lw = [lc + k * log_psi for lc, k in zip(log_coef, ks)]
        mx = max(lw)
        total = sum(math.exp(v - mx) for v in lw)
        part = sum(
            math.exp(v - mx)
            for v, k in zip(lw, ks)
            if (k >= a if upper else k <= a)
        )
        return part / total

    def solve(upper):
        target = alpha / 2
        lo, hi = -35.0, 35.0
        # upper tail increases in psi; lower tail decreases
        for _ in range(80):
            mid = (lo + hi) / 2
            value = tail(mid, upper)
            below = value < target
            if upper == below:
                lo = mid
            else:
                hi = mid
        return math.exp((lo + hi) / 2)

    lower = 0.0 if a == lo_s else solve(upper=True)
    upper = math.inf if a == hi_s else solve(upper=False)
    return lower, upper


def test_criterion_09_exact_interval_oracle():
    worst = 0.0
    n_tables = 0
    for r1 in range(1, 16):
        for r2 in range(1, 16):
            c1_lo = max(1, r1 + r2 - 15)
            c1_hi = min(15, r1 + r2 - 1)
            for c1 in range(c1_lo, c1_hi + 1):
                for a in range(max(0, c1 - r2), min(r1, c1) + 1):
                    b, c, d = r1 - a, c1 - a, r2 - (c1 - a)
                    ours = exact_odds_ratio_interval(a, b, c, d)
                    ref = _oracle_interval(a, r1, r2, c1)
                    n_tables += 1
                    for x, y in zip(ours, ref):
                        if math.isinf(x) or math.isinf(y):
                            assert math.isinf(x) and math.isinf(y)
                            continue
                        worst = max(worst, abs(x - y) / max(1.0, abs(y)))
    ok = worst <= 1e-6
    _report(
        9, ok,
        f"max relative endpoint error {worst:.2e} over {n_tables} tables (<= 1e-6)",
    )


# -- criterion 10: known-participants truncation -------------------------------


def test_criterion_10_truncation_rule():
    rows = [
        make_respondent(
            "S", 1, degree=4, traits={"hiv": "no"},
            followup=followup(n_known_participants=9),
        ),
        make_respondent(
            "T", 2, degree=6, traits={"hiv": "no"},
            followup=followup(n_known_participants=3),
        ),
    ]
    ds = make_dataset(rows)
    report = validate_dataset(ds)
    first_ok = report["truncations_applied"] == 1
    # the trend reads S's 9 as 3: proportions 3/4 and 3/6 (9/4 uncapped)
    capped = [r.known_participants for r in ds.respondents] == [3, 3] and math.isclose(
        participants_known_trend(ds)["slope"], 3 / 6 - 3 / 4
    )
    # validation only counts: the study keeps its answers and a second pass
    # counts the same
    unchanged = (
        ds.by_id("S").followup.n_known_participants == 9
        and validate_dataset(ds) == report
    )

    net = generate_network(
        NetworkConfig(block_sizes=(150,), within_block_edge_prob=0.06,
                      between_block_edge_prob=0.0),
        rng_seed=3,
    )
    sim_ds = simulate_rds(
        net, SimConfig(target_n=100, seed_count=5, followup_prob=1.0, rng_seed=3)
    ).dataset
    sim_capped = all(
        r.known_participants is None
        or r.known_participants <= max(r.degree.q_age - 1, 0)
        for r in sim_ds.respondents
    ) and validate_dataset(sim_ds)["truncations_applied"] == sum(
        r.known_participants != r.followup.n_known_participants
        for r in sim_ds.respondents
        if r.known_participants is not None
    )
    ok = first_ok and capped and unchanged and sim_capped
    _report(10, ok, "cap applied where read, each capped answer counted by validation")


# -- criterion 11: pipeline determinism ----------------------------------------


def test_criterion_11_pipeline_determinism(tmp_path):
    net = generate_network(
        NetworkConfig(
            block_sizes=(120, 120),
            within_block_edge_prob=0.06,
            between_block_edge_prob=0.004,
            traits={
                "hiv": TraitRule("block", block=0),
                "employed": TraitRule("bernoulli", p=0.6),
            },
        ),
        rng_seed=8,
    )
    ds = simulate_rds(
        net, SimConfig(target_n=100, seed_count=6, followup_prob=0.7, rng_seed=8)
    ).dataset
    for sub in ("a", "b"):
        run_pipeline(
            ds,
            PipelineConfig(replicates=500, rng_seed=4, population_sizes=(500,)),
            tmp_path / sub,
        )
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a
    )
    _report(11, identical, f"{len(names_a)} output files byte-identical across reruns")


# -- criterion 12: end-to-end depletion flags ----------------------------------


def _joint_flags(ds) -> bool:
    cfg = PipelineConfig(sections=("finitepop",))
    summary = diagnose(ds, cfg).sections["finitepop"]["summary"]
    return (
        summary["failed_attempts_flag"] is True
        and summary["participants_known_trend_flag"] is True
    )


def test_criterion_12_depletion_indicators():
    depleted_net = generate_network(
        NetworkConfig(block_sizes=(250,), within_block_edge_prob=0.05,
                      between_block_edge_prob=0.0,
                      traits={"employed": TraitRule("bernoulli", p=0.6)}),
        rng_seed=30,
    )
    plentiful_net = generate_network(
        NetworkConfig(block_sizes=(2000, 2000), within_block_edge_prob=0.004,
                      between_block_edge_prob=0.004,
                      traits={"employed": TraitRule("bernoulli", p=0.6)}),
        rng_seed=31,
    )
    depleted = plentiful = 0
    for seed in range(50):
        ds = simulate_rds(
            depleted_net,
            SimConfig(target_n=200, seed_count=6, followup_prob=1.0, rng_seed=seed),
        ).dataset
        depleted += _joint_flags(ds)
        ds = simulate_rds(
            plentiful_net,
            SimConfig(target_n=150, seed_count=6, followup_prob=1.0, rng_seed=seed),
        ).dataset
        plentiful += _joint_flags(ds)
    ok = depleted >= 40 and plentiful <= 10
    _report(
        12, ok,
        f"depletion scenario flags {depleted}/50 (need >= 40), "
        f"no-depletion flags {plentiful}/50 (need <= 10)",
    )
