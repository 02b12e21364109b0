import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats.contingency import odds_ratio

from conftest import followup, make_dataset, make_degree, make_respondent
from rdsdiag.behavior import (
    _srs_quantile_rank,
    _summed_positive_pmf,
    exact_odds_ratio_interval,
    motivation_outcome,
    network_reciprocity_stats,
    nonresponse_rates,
    reason_tables,
    reciprocation_rate,
    recruitment_bias_levels,
    recruitment_bias_tests,
    recruitment_effectiveness,
)
from rdsdiag.dataset import CouponOutcome
from rdsdiag.errors import DataRequirementError
from rdsdiag.report import PipelineConfig, diagnose


def coupon(cid, recip=None, employed=None, days=None):
    return CouponOutcome(cid, days_to_distribute=days,
                         reciprocation_answer=recip, recipient_employed=employed)


# -- reciprocation -----------------------------------------------------------


def test_reciprocation_all_yes():
    ds = make_dataset([
        make_respondent("S", 1, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=[coupon("C1", True), coupon("C2", True)])),
    ])
    assert reciprocation_rate(ds) == 100.0


def test_reciprocation_partial():
    coupons = [coupon(f"C{i}", True) for i in range(7)]
    coupons += [coupon("C7", False)]
    coupons += [coupon("C8", None), coupon("C9", None)]
    rows = [
        make_respondent("S", 1, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=coupons[:5])),
        make_respondent("T", 2, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=coupons[5:])),
    ]
    assert reciprocation_rate(make_dataset(rows)) == pytest.approx(87.5)


def test_reciprocation_none_answered():
    ds = make_dataset([
        make_respondent("S", 1, degree=2, traits={"hiv": "no"},
                        followup=followup(coupons=[coupon("C1")])),
    ])
    with pytest.raises(DataRequirementError, match="no answered reciprocation questions"):
        reciprocation_rate(ds)


# -- network reciprocity -----------------------------------------------------


def test_reciprocity_stats():
    rows = [
        make_respondent("a", 1, degree=make_degree(5, q_reach_week=5),
                        q_recv_week=5, traits={"hiv": "no"}),
        make_respondent("b", 2, degree=make_degree(8, q_reach_week=8),
                        q_recv_week=2, traits={"hiv": "no"}),
        make_respondent("c", 3, degree=make_degree(4, q_reach_week=0),
                        q_recv_week=0, traits={"hiv": "no"}),
        make_respondent("d", 4, degree=make_degree(4), traits={"hiv": "no"}),
    ]
    stats = network_reciprocity_stats(make_dataset(rows))
    # relative differences 0.0 and 0.75
    assert stats["n"] == 2
    assert stats["n_excluded"] == 1  # both-zero respondent; missing ones not counted
    assert stats["median_relative_difference"] == pytest.approx(0.375)
    assert stats["mean_relative_difference"] == pytest.approx(0.375)
    assert stats["q3_relative_difference"] == pytest.approx(0.5625)


def _no_usable_reciprocity():
    """Two respondents answering zero to both questions, one leaving the
    receive question blank."""
    return make_dataset([
        make_respondent("a", 1, degree=make_degree(4, q_reach_week=0), q_recv_week=0,
                        traits={"hiv": "no"}),
        make_respondent("b", 2, degree=make_degree(4, q_reach_week=0), q_recv_week=0,
                        traits={"hiv": "yes"}),
        make_respondent("c", 3, degree=make_degree(4, q_reach_week=3), traits={"hiv": "no"}),
    ])


NO_RECIPROCITY = "no usable reciprocity answers; 2 excluded with both answers zero"


def test_reciprocity_no_usable_respondent_raises():
    with pytest.raises(DataRequirementError, match=NO_RECIPROCITY) as info:
        network_reciprocity_stats(_no_usable_reciprocity())
    assert str(info.value) == NO_RECIPROCITY


def test_reciprocity_no_usable_respondent_skipped_in_bundle():
    diagnosis = diagnose(_no_usable_reciprocity(), PipelineConfig(sections=("behavior",)))
    assert diagnosis.sections["behavior"]["network_reciprocity"] == {"skipped": NO_RECIPROCITY}


# -- effectiveness -----------------------------------------------------------


def _effectiveness_fixture():
    rows = [
        make_respondent("p1", 1, coupons_out=[], degree=1, traits={"hiv": "yes"}),
        make_respondent("p2", 2, coupons_out=["C1"], degree=1, traits={"hiv": "yes"}),
        make_respondent("n1", 3, coupons_out=["C2", "C3"], degree=1,
                        traits={"hiv": "no"}),
        make_respondent("n2", 4, coupons_out=["C4", "C5"], degree=1,
                        traits={"hiv": "no"}),
        make_respondent("r1", 5, coupon_in="C1", degree=1, traits={"hiv": None}),
        make_respondent("r2", 6, coupon_in="C2", degree=1, traits={"hiv": None}),
        make_respondent("r3", 7, coupon_in="C3", degree=1, traits={"hiv": None}),
        make_respondent("r4", 8, coupon_in="C4", degree=1, traits={"hiv": None}),
        make_respondent("r5", 9, coupon_in="C5", degree=1, traits={"hiv": None}),
    ]
    return make_dataset(rows)


def test_effectiveness_hand_fixture():
    ds = _effectiveness_fixture()
    result = recruitment_effectiveness(ds, "hiv")
    assert result["mean_recruits_positive"] == pytest.approx(0.5)
    assert result["mean_recruits_negative"] == pytest.approx(2.0)
    assert result["ratio"] == pytest.approx(0.25)
    assert result["ratio_defined"]


def test_effectiveness_no_negatives_undefined():
    rows = [
        make_respondent("p1", 1, coupons_out=["C1"], degree=1, traits={"hiv": "yes"}),
        make_respondent("r1", 2, coupon_in="C1", degree=1, traits={"hiv": "yes"}),
    ]
    ds = make_dataset(rows)
    result = recruitment_effectiveness(ds, "hiv")
    assert not result["ratio_defined"]
    assert math.isnan(result["ratio"])


# -- recruitment bias --------------------------------------------------------


def _bias_recruiter(rid, order, q_age, n_employed, recipients, recruit_coupons,
                    employed=True):
    """recipients: list of recipient_employed answers for distributed coupons."""
    coupons = [
        coupon(f"{rid}-c{j}", employed=e) for j, e in enumerate(recipients)
    ]
    return make_respondent(
        rid, order,
        coupons_out=[c.coupon_id for c in coupons],
        degree=make_degree(q_age),
        traits={"hiv": "no"},
        employed=employed,
        followup=followup(coupons=coupons, n_contacts_employed=n_employed),
    )


def test_bias_levels_hand_fixture():
    rows = [
        _bias_recruiter("S", 1, q_age=4, n_employed=2, recipients=[True, True],
                        recruit_coupons=1),
        make_respondent("r1", 2, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows, allotment=2)
    levels = recruitment_bias_levels(ds)
    assert levels["contacts"] == pytest.approx(0.5)
    assert levels["recipients"] == pytest.approx(1.0)
    assert levels["recruits"] == pytest.approx(1.0)
    assert levels["n_recruiters"] == 1


def test_bias_levels_uniform_employment():
    rows = [
        _bias_recruiter("S", 1, q_age=3, n_employed=3, recipients=[True],
                        recruit_coupons=1),
        make_respondent("r1", 2, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    levels = recruitment_bias_levels(ds)
    assert (levels["contacts"], levels["recipients"], levels["recruits"]) == (
        1.0, 1.0, 1.0,
    )


def test_bias_levels_requires_all_three_levels():
    # recruiter missing the employed-contacts count is not eligible
    rows = [
        _bias_recruiter("S", 1, q_age=4, n_employed=None, recipients=[True],
                        recruit_coupons=1),
        make_respondent("r1", 2, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    with pytest.raises(DataRequirementError,
                       match="no recruiters with data on all three levels"):
        recruitment_bias_levels(ds)


def test_bias_tests_inconsistent_counted():
    rows = [
        # reports 3 employed recipients but only 2 employed contacts
        _bias_recruiter("S", 1, q_age=5, n_employed=2,
                        recipients=[True, True, True], recruit_coupons=1),
        _bias_recruiter("T", 2, q_age=5, n_employed=4,
                        recipients=[True, False], recruit_coupons=1),
        make_respondent("r0", 3, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
        make_respondent("r1", 4, coupon_in="T-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    results = recruitment_bias_tests(ds)
    assert results["coupon_passing"]["inconsistency"] == pytest.approx(0.5)
    assert results["coupon_passing"]["n_recruiters"] == 1


def test_bias_tests_too_many_negatives_inconsistent():
    rows = [
        # 5 contacts, 4 employed: two unemployed recipients cannot be drawn
        _bias_recruiter("S", 1, q_age=5, n_employed=4,
                        recipients=[False, False], recruit_coupons=1),
        _bias_recruiter("T", 2, q_age=5, n_employed=2,
                        recipients=[True, False], recruit_coupons=1),
        make_respondent("r0", 3, coupon_in="S-c0", degree=2, traits={"hiv": "no"},
                        employed=False),
        make_respondent("r1", 4, coupon_in="T-c0", degree=2, traits={"hiv": "no"},
                        employed=True),
    ]
    ds = make_dataset(rows)
    passing = recruitment_bias_tests(ds)["coupon_passing"]
    assert passing["inconsistency"] == pytest.approx(0.5)
    assert passing["n_recruiters"] == 1
    assert passing["observed"] == 1.0
    # T alone: P(0 of 2 employed) = 3/10, P(1) = 6/10, mid-rank 0.3 + 0.3;
    # with S kept, the observed sum would sit below the null support (rank 0)
    assert passing["quantile_rank"] == pytest.approx(0.6, abs=1e-12)


def test_bias_tests_symmetric_null_rank_moderate():
    rng = np.random.default_rng(8)
    rows = []
    order = 1
    recruit_rows = []
    for i in range(40):
        q_age = int(rng.integers(4, 9))
        n_emp = q_age // 2
        # recipients chosen "at random": half employed
        recipients = [True, False]
        rid = f"S{i}"
        rows.append(_bias_recruiter(rid, order, q_age=q_age, n_employed=n_emp,
                                    recipients=recipients, recruit_coupons=1))
        order += 1
        recruit_rows.append((f"{rid}-c0", bool(rng.random() < 0.5)))
    for j, (cin, emp) in enumerate(recruit_rows):
        rows.append(
            make_respondent(f"r{j}", order, coupon_in=cin, degree=2,
                            traits={"hiv": "no"}, employed=emp)
        )
        order += 1
    # renumber orders contiguously (they already are)
    ds = make_dataset(rows)
    results = recruitment_bias_tests(ds)
    assert 0.2 < results["coupon_passing"]["quantile_rank"] < 0.8


def _oracle_eligible(ds):
    """Each eligible recruiter's contact counts and answered recipient and
    recruit flags, as the per-level formulas read them."""
    eligible = []
    for r in ds.respondents:
        total = r.degree.q_age
        positive = r.followup.n_contacts_employed if r.followup else None
        if total is None or positive is None or total < 1 or positive > total:
            continue
        recips = [c.recipient_employed for c in r.followup.coupons
                  if c.recipient_employed is not None]
        recruits = [ds.by_id(cid).employed for cid in ds.forest.recruits(r.id)]
        recruits = [v for v in recruits if v is not None]
        if recips and recruits:
            eligible.append((total, positive, recips, recruits))
    if not eligible:
        raise DataRequirementError("no recruiters with data on all three levels")
    return eligible


def _oracle_levels(ds):
    eligible = _oracle_eligible(ds)
    return {
        "contacts": float(np.mean([p / t for t, p, _, _ in eligible])),
        "recipients": float(np.mean([np.mean(f) for _, _, f, _ in eligible])),
        "recruits": float(np.mean([np.mean(g) for _, _, _, g in eligible])),
        "n_recruiters": len(eligible),
    }


def _oracle_tests(ds):
    """The three tests from their pool lists written out."""
    eligible = _oracle_eligible(ds)

    def run(pools):
        consistent = [p for p in pools if p[3] <= p[1] and p[2] - p[3] <= p[0] - p[1]]
        if not consistent:
            raise DataRequirementError("no logically consistent recruiters")
        observed = sum(p[3] for p in consistent)
        rank = _srs_quantile_rank(consistent, observed)
        return {
            "observed": float(observed),
            "quantile_rank": rank,
            "flagged": rank > 0.90,
            "inconsistency": (len(pools) - len(consistent)) / len(pools),
            "n_recruiters": len(consistent),
        }

    return {
        "coupon_passing": run([(t, p, len(f), sum(f)) for t, p, f, _ in eligible]),
        "returning_coupons": run([(len(f), sum(f), len(g), sum(g)) for _, _, f, g in eligible]),
        "overall": run([(t, p, len(g), sum(g)) for t, p, _, g in eligible]),
    }


def _outcome(fn, ds):
    try:
        return fn(ds)
    except DataRequirementError as exc:
        return {"skipped": str(exc)}


_answer = st.sampled_from([True, False, None])
_recruiter = st.tuples(
    st.one_of(st.none(), st.integers(0, 6)),  # q_age
    st.one_of(st.none(), st.integers(0, 8)),  # employed contacts, may exceed q_age
    st.lists(_answer, max_size=4),  # recipient_employed per coupon
    st.lists(_answer, max_size=4),  # employed per recruit, one per coupon at most
)


@settings(max_examples=200, deadline=None)
@given(recruiters=st.lists(_recruiter, min_size=1, max_size=8))
def test_bias_levels_and_tests_match_per_level_formulas(recruiters):
    rows, recruits = [], []
    for i, (q_age, n_employed, recipients, recruited) in enumerate(recruiters):
        rows.append(_bias_recruiter(f"S{i}", len(rows) + 1, q_age=q_age,
                                    n_employed=n_employed, recipients=recipients,
                                    recruit_coupons=0))
        recruits += [(f"S{i}-c{j}", e) for j, e in enumerate(recruited[:len(recipients)])]
    for cid, employed in recruits:
        rows.append(make_respondent(f"r-{cid}", len(rows) + 1, coupon_in=cid, degree=2,
                                    traits={"hiv": "no"}, employed=employed))
    ds = make_dataset(rows, allotment=4)
    assert _outcome(recruitment_bias_levels, ds) == _outcome(_oracle_levels, ds)
    assert _outcome(recruitment_bias_tests, ds) == _outcome(_oracle_tests, ds)


def _brute_force_pmf(pools):
    """pmf of the summed positive count over every joint draw: each pool
    (total, positive, drawn, _) is a list of ``positive`` ones then zeros,
    and each recruiter's draw is one of its ``drawn``-element combinations."""
    per_pool = [
        list(itertools.combinations([1] * positive + [0] * (total - positive), drawn))
        for total, positive, drawn, _ in pools
    ]
    counts = [0] * (sum(p[2] for p in pools) + 1)
    for joint in itertools.product(*per_pool):
        counts[sum(map(sum, joint))] += 1
    n = sum(counts)
    return [Fraction(c, n) for c in counts]


@pytest.mark.parametrize("pools", [
    [(1, 0, 1, 0)],
    [(3, 3, 2, 0)],
    [(4, 2, 2, 0), (3, 1, 1, 0)],
    [(5, 2, 3, 0), (4, 4, 1, 0), (2, 1, 2, 0)],
    [(5, 3, 2, 0), (4, 1, 3, 0), (3, 2, 2, 0), (5, 0, 4, 0)],
    [(4, 2, 0, 0), (5, 1, 2, 0), (5, 4, 3, 0), (2, 1, 1, 0)],
])
def test_srs_reference_matches_brute_force_enumeration(pools):
    oracle = _brute_force_pmf(pools)
    pmf = _summed_positive_pmf(pools)
    assert pmf == pytest.approx([float(p) for p in oracle], abs=1e-12)
    for observed in range(-1, len(oracle) + 1):
        below = sum(oracle[:max(observed, 0)])
        tie = oracle[observed] if 0 <= observed < len(oracle) else 0
        rank = float(below + tie / 2)
        assert _srs_quantile_rank(pools, observed) == pytest.approx(rank, abs=1e-12)


_pool = st.integers(1, 40).flatmap(
    lambda total: st.tuples(
        st.just(total), st.integers(0, total), st.integers(0, total), st.just(0)
    )
)


@settings(max_examples=200, deadline=None)
@given(pools=st.lists(_pool, min_size=1, max_size=12), offset=st.integers(-3, 3))
@example(pools=[(10, 10, 4, 0)], offset=-1)  # below the support {4}
def test_srs_reference_mass_mean_and_rank_range(pools, offset):
    pmf = _summed_positive_pmf(pools)
    assert len(pmf) == sum(p[2] for p in pools) + 1
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    mean = sum(drawn * positive / total for total, positive, drawn, _ in pools)
    assert (np.arange(len(pmf)) * pmf).sum() == pytest.approx(mean, rel=1e-9, abs=1e-9)
    support = np.flatnonzero(pmf)
    for observed in (support[0] + offset, support[-1] + offset, len(pmf) // 2 + offset):
        assert 0.0 <= _srs_quantile_rank(pools, observed) <= 1.0
    assert _srs_quantile_rank(pools, support[0] - 1) == 0.0
    assert _srs_quantile_rank(pools, support[-1] + 1) == pytest.approx(1.0, abs=1e-12)


def _monte_carlo_rank(pools, observed, replicates, rng_seed):
    """The seeded Monte-Carlo estimate of the mid-rank that the exact
    reference replaced: ``replicates`` joint hypergeometric draws."""
    ntotal, ngood, nsample = (np.array([p[i] for p in pools]) for i in range(3))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(0,)))
    draws = rng.hypergeometric(
        ngood[None, :], (ntotal - ngood)[None, :], nsample[None, :],
        size=(replicates, len(pools)),
    )
    totals = draws.sum(axis=1)
    return ((totals < observed).sum() + 0.5 * (totals == observed).sum()) / replicates


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_srs_reference_agrees_with_monte_carlo(seed):
    rng = np.random.default_rng(seed)
    pools = []
    for _ in range(60):
        total = int(rng.integers(1, 25))
        positive = int(rng.integers(0, total + 1))
        pools.append((total, positive, int(rng.integers(0, min(total, 3) + 1)), 0))
    pmf = _summed_positive_pmf(pools)
    cdf = np.cumsum(pmf)
    replicates = 20_000
    for q in (0.1, 0.5, 0.9):
        observed = int(np.searchsorted(cdf, q))
        exact = _srs_quantile_rank(pools, observed)
        below, tie = cdf[observed] - pmf[observed], pmf[observed]
        se = math.sqrt((below + tie / 4 - exact**2) / replicates)
        assert abs(_monte_carlo_rank(pools, observed, replicates, seed) - exact) <= 4 * se


# -- non-response ------------------------------------------------------------


def test_nonresponse_hand_fixture():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2", "C3"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=3, n_refusals=2),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds)
    assert rates["coupon_refusal"] == pytest.approx(0.4)
    assert rates["non_return"] == pytest.approx(1 / 3)
    assert rates["total_non_response"] == pytest.approx(0.6)
    assert rates["n_recruiters"] == 1


def test_nonresponse_zero_rates():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=0),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds)
    assert (rates["coupon_refusal"], rates["non_return"], rates["total_non_response"]) == (
        0.0, 0.0, 0.0,
    )


def test_nonresponse_impossible_counts_excluded():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=0),
        ),
        make_respondent("r1", 2, coupon_in="C1", degree=2, traits={"hiv": "no"}),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
        make_respondent(
            "T", 4, coupons_out=["C4"], degree=3, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=1),
        ),
        make_respondent("r3", 5, coupon_in="C4", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds)
    assert rates["n_impossible_excluded"] == 1
    assert rates["n_recruiters"] == 1


def test_nonresponse_identity_exact():
    rows = [
        make_respondent(
            "S", 1, coupons_out=["C1", "C2", "C3"], degree=4, traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=3, n_refusals=2),
        ),
        make_respondent(
            "r1", 2, coupon_in="C1", coupons_out=["C4"], degree=2,
            traits={"hiv": "no"},
            followup=followup(n_coupons_distributed=1, n_refusals=1),
        ),
        make_respondent("r2", 3, coupon_in="C2", degree=2, traits={"hiv": "no"}),
    ]
    ds = make_dataset(rows)
    rates = nonresponse_rates(ds)
    lhs = rates["total_non_response"]
    rhs = 1 - (1 - rates["coupon_refusal"]) * (1 - rates["non_return"])
    assert abs(lhs - rhs) <= 1e-12


# -- reason tables -----------------------------------------------------------


def test_reason_tables():
    rows = [
        make_respondent(
            "S", 1, degree=2, traits={"hiv": "no"}, motivation="For HIV test",
            followup=followup(refusal_reasons=("Not interested", "Too busy")),
        ),
        make_respondent(
            "T", 2, degree=2, traits={"hiv": "no"}, motivation="Incentive",
            followup=followup(refusal_reasons=("Too busy",) * 6),
        ),
    ]
    tables = reason_tables(make_dataset(rows))
    refusal, motivation = tables["refusal"], tables["motivation"]
    assert refusal["total"] == 8
    assert refusal["percentages"]["Not interested"] == pytest.approx(12.5)
    assert sum(refusal["percentages"].values()) == pytest.approx(100.0)
    assert motivation["total"] == 2
    assert motivation["percentages"]["Incentive"] == pytest.approx(50.0)


def test_reason_tables_empty():
    ds = make_dataset([make_respondent("S", 1, degree=2, traits={"hiv": "no"})])
    tables = reason_tables(ds)
    assert tables["refusal"]["total"] == 0 and tables["refusal"]["percentages"] == {}
    assert tables["motivation"]["total"] == 0


# -- odds ratio and exact interval -------------------------------------------


def oracle_interval(a, b, c, d, alpha=0.05):
    """Independent inversion oracle using exact rational coefficients and
    plain bisection on the odds parameter."""
    r1, r2, c1 = a + b, c + d, a + c
    lo_s, hi_s = max(0, c1 - r2), min(r1, c1)
    ks = list(range(lo_s, hi_s + 1))
    coef = [Fraction(math.comb(r1, k) * math.comb(r2, c1 - k)) for k in ks]

    def tail(psi, upper):
        weights = [co * Fraction(psi) ** (k - lo_s) for co, k in zip(coef, ks)]
        total = sum(weights)
        part = sum(w for w, k in zip(weights, ks) if (k >= a if upper else k <= a))
        return part / total

    def solve(upper):
        target = Fraction(alpha) / 2
        lo, hi = 1e-12, 1e12
        f = lambda psi: tail(psi, upper) - target
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if (f(mid) < 0) == (f(lo) < 0):
                lo = mid
            else:
                hi = mid
        return math.sqrt(lo * hi)

    lower = 0.0 if a == lo_s else solve(upper=True)
    upper = math.inf if a == hi_s else solve(upper=False)
    return lower, upper


@pytest.mark.parametrize("table", [
    (10, 10, 10, 10),
    (8, 2, 5, 5),
    (3, 7, 6, 4),
    (1, 12, 9, 2),
])
def test_interval_matches_oracle(table):
    ours = exact_odds_ratio_interval(*table)
    ref = oracle_interval(*table)
    for x, y in zip(ours, ref):
        assert abs(x - y) <= 1e-6 * max(1.0, abs(y))


def test_undefined_trait_raises_unknown_trait():
    ds = _effectiveness_fixture()
    unknown = "trait 'nope' is not defined for this dataset"
    with pytest.raises(DataRequirementError, match=unknown):
        recruitment_effectiveness(ds, "nope")
    with pytest.raises(DataRequirementError, match=unknown):
        motivation_outcome(ds, "A", "nope")


def test_balanced_table():
    mo_rows = []
    for _ in range(10):
        mo_rows += ["A-yes", "A-no", "B-yes", "B-no"]
    rows = [
        make_respondent(
            f"x{i}", i + 1, degree=2, motivation=tag.split("-")[0],
            traits={"hiv": tag.split("-")[1]},
        )
        for i, tag in enumerate(mo_rows)
    ]
    ds = make_dataset(rows)
    mo = motivation_outcome(ds, "A", "hiv")
    assert mo["table"] == (10, 10, 10, 10)
    assert mo["odds_ratio"] == pytest.approx(1.0)
    assert mo["ci_low"] < 1.0 < mo["ci_high"]


def test_or_hand_value():
    assert exact_odds_ratio_interval(8, 2, 5, 5)[0] > 0
    # sample OR from the (8,2;5,5) table
    assert (8 * 5) / (2 * 5) == pytest.approx(4.0)


def test_zero_cell_one_sided():
    lower, upper = exact_odds_ratio_interval(0, 10, 5, 5)
    assert lower == 0.0
    assert math.isfinite(upper)
    lower, upper = exact_odds_ratio_interval(10, 0, 5, 5)
    assert math.isinf(upper)
    assert lower > 0.0


def test_degenerate_table():
    rows = [
        make_respondent(f"x{i}", i + 1, degree=2, motivation="A",
                        traits={"hiv": "yes"})
        for i in range(4)
    ]
    ds = make_dataset(rows)
    with pytest.raises(DataRequirementError, match=re.escape("zero margin in table (4, 0, 0, 0)")):
        motivation_outcome(ds, "A", "hiv")


@st.composite
def tables_2x2(draw, max_margin=1000):
    """(a, b, c, d) with every row and column margin in [1, max_margin]."""
    r1 = draw(st.integers(1, max_margin))
    r2 = draw(st.integers(1, max_margin))
    c1 = draw(st.integers(max(1, r1 + r2 - max_margin), min(max_margin, r1 + r2 - 1)))
    a = draw(st.integers(max(0, c1 - r2), min(r1, c1)))
    return a, r1 - a, c1 - a, r2 - (c1 - a)


@settings(max_examples=80, deadline=None)
@given(table=tables_2x2())
@example(table=(67, 637, 32, 264))  # a motivation table of the many-traits study
def test_interval_matches_scipy_at_report_sizes(table):
    a, b, c, d = table
    ours = exact_odds_ratio_interval(*table)
    ref = odds_ratio([[a, b], [c, d]], kind="conditional").confidence_interval(0.95)
    for x, y in zip(ours, (ref.low, ref.high)):
        if x in (0.0, math.inf) or y in (0.0, math.inf):
            assert x == y
        else:
            assert x == pytest.approx(y, rel=1e-8)
    if a * d > 0 and b * c > 0:
        assert ours[0] <= (a * d) / (b * c) <= ours[1]


def test_interval_contains_point_estimate():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b, c, d = (int(rng.integers(1, 12)) for _ in range(4))
        mo_or = (a * d) / (b * c)
        lower, upper = exact_odds_ratio_interval(a, b, c, d)
        assert lower <= mo_or <= upper
