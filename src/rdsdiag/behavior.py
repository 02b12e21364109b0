"""Respondent-behavior diagnostics.

Covers reciprocation rates, the network reciprocity summary, recruitment
effectiveness, the three-level recruitment-bias summary and its simulated
simple-random-sampling reference tests, non-response rates, refusal and
motivation tabulations, and the motivation-outcome odds ratio with an exact
conditional interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from .bottleneck import PermutationResult
from .dataset import Respondent, StudyDataset
from .errors import DegenerateTable, NoData, NoEligibleRecruiters, UnknownTrait
from .forest import RecruitmentForest


# ---------------------------------------------------------------------------
# reciprocation


def reciprocation_rate(ds: StudyDataset) -> float:
    """Percent of answered coupon-outcome reciprocation questions that were
    affirmative.  Unanswered outcomes are excluded."""
    yes = answered = 0
    for r in ds.respondents:
        if r.followup is None:
            continue
        for c in r.followup.coupons:
            if c.reciprocation_answer is None:
                continue
            answered += 1
            if c.reciprocation_answer:
                yes += 1
    if answered == 0:
        raise NoData("no answered reciprocation questions")
    return 100.0 * yes / answered


@dataclass(frozen=True)
class ReciprocityStats:
    values: tuple[float, ...]
    median: float
    mean: float
    q3: float
    n_excluded: int


def network_reciprocity_stats(ds: StudyDataset) -> ReciprocityStats:
    """Normalized difference |receive - give| / max(receive, give) between the
    coupon-receivable and coupon-giveable weekly counts.  Respondents with
    both answers zero (or either missing) are excluded and counted."""
    values = []
    excluded = 0
    for r in ds.respondents:
        recv = r.q_recv_week
        give = r.degree.q_reach_week
        if recv is None or give is None:
            continue
        m = max(recv, give)
        if m == 0:
            excluded += 1
            continue
        values.append(abs(recv - give) / m)
    if not values:
        return ReciprocityStats((), math.nan, math.nan, math.nan, excluded)
    arr = np.array(values)
    return ReciprocityStats(
        values=tuple(values),
        median=float(np.median(arr)),
        mean=float(arr.mean()),
        q3=float(np.quantile(arr, 0.75)),
        n_excluded=excluded,
    )


# ---------------------------------------------------------------------------
# recruitment effectiveness


@dataclass(frozen=True)
class EffectivenessResult:
    trait: str
    mean_recruits_positive: float
    mean_recruits_negative: float
    ratio: float
    ratio_defined: bool
    n_positive: int
    n_negative: int


def recruitment_effectiveness(
    ds: StudyDataset, forest: RecruitmentForest, trait: str
) -> EffectivenessResult:
    """Mean recruit counts among trait-positive vs trait-negative
    respondents, with their ratio."""
    pos: list[int] = []
    neg: list[int] = []
    for r in ds.respondents:
        flag = ds.indicator(r, trait)
        if flag is None:
            continue
        count = len(forest.recruits(r.id))
        (pos if flag else neg).append(count)
    mean_pos = float(np.mean(pos)) if pos else math.nan
    mean_neg = float(np.mean(neg)) if neg else math.nan
    defined = bool(neg) and mean_neg > 0 and bool(pos)
    ratio = mean_pos / mean_neg if defined else math.nan
    return EffectivenessResult(
        trait=trait,
        mean_recruits_positive=mean_pos,
        mean_recruits_negative=mean_neg,
        ratio=ratio,
        ratio_defined=defined,
        n_positive=len(pos),
        n_negative=len(neg),
    )


# ---------------------------------------------------------------------------
# recruitment bias (three levels)


@dataclass(frozen=True)
class BiasLevels:
    contacts_level: float
    recipients_level: float
    recruits_level: float
    n_recruiters: int
    n_inconsistent_excluded: int


@dataclass
class _RecruiterData:
    contact_total: int
    contact_positive: int
    recipient_flags: list[bool]
    recruit_flags: list[bool]


def _recipient_flags(r: Respondent) -> list[bool]:
    if r.followup is None:
        return []
    return [
        c.recipient_employed
        for c in r.followup.coupons
        if c.recipient_employed is not None
    ]


def _bias_eligible(
    ds: StudyDataset, forest: RecruitmentForest
) -> tuple[list[_RecruiterData], int]:
    """Recruiters with employment data on all three levels: employed
    age-eligible contacts, employed coupon recipients and employed recruits.
    Recruiters reporting more employed contacts than contacts are logically
    inconsistent and excluded."""
    eligible = []
    inconsistent = 0
    for r in ds.respondents:
        total = r.degree.q_age
        positive = r.followup.n_contacts_employed if r.followup else None
        if total is None or positive is None or total < 1:
            continue
        recips = _recipient_flags(r)
        if not recips:
            continue
        recruit_vals = [ds.by_id(cid).employed for cid in forest.recruits(r.id)]
        recruit_vals = [v for v in recruit_vals if v is not None]
        if not recruit_vals:
            continue
        if positive > total:
            inconsistent += 1
            continue
        eligible.append(_RecruiterData(total, positive, recips, recruit_vals))
    return eligible, inconsistent


def recruitment_bias_levels(ds: StudyDataset, forest: RecruitmentForest) -> BiasLevels:
    """Equal-recruiter-weight averages of the employed fraction among
    contacts, coupon recipients, and recruits."""
    eligible, inconsistent = _bias_eligible(ds, forest)
    if not eligible:
        raise NoEligibleRecruiters("no recruiters with data on all three levels")
    contacts = np.mean([e.contact_positive / e.contact_total for e in eligible])
    recipients = np.mean([np.mean(e.recipient_flags) for e in eligible])
    recruits = np.mean([np.mean(e.recruit_flags) for e in eligible])
    return BiasLevels(
        contacts_level=float(contacts),
        recipients_level=float(recipients),
        recruits_level=float(recruits),
        n_recruiters=len(eligible),
        n_inconsistent_excluded=inconsistent,
    )


@dataclass(frozen=True)
class BiasTestResults:
    coupon_passing: PermutationResult
    returning_coupons: PermutationResult
    overall: PermutationResult
    inconsistency: dict[str, float]
    n_recruiters: dict[str, int]


def _srs_reference(
    ngood: np.ndarray,
    ntotal: np.ndarray,
    nsample: np.ndarray,
    observed: int,
    replicates: int,
    threshold: float,
    rng_seed: int,
    stream: int,
) -> PermutationResult:
    """Null distribution of the summed positive count under per-recruiter
    simple random sampling.  The rank uses mid-ranking of ties so null ranks
    stay approximately uniform despite the discrete statistic."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(stream,)))
    draws = rng.hypergeometric(
        ngood[None, :], (ntotal - ngood)[None, :], nsample[None, :],
        size=(replicates, len(ngood)),
    )
    totals = draws.sum(axis=1)
    below = int((totals < observed).sum())
    ties = int((totals == observed).sum())
    quantile_rank = (below + 0.5 * ties) / replicates
    return PermutationResult(
        observed=float(observed),
        replicates=replicates,
        quantile_rank=float(quantile_rank),
        flagged=quantile_rank > threshold,
        rng_seed=rng_seed,
        threshold=threshold,
    )


def recruitment_bias_tests(
    ds: StudyDataset,
    forest: RecruitmentForest,
    replicates: int = 10_000,
    threshold: float = 0.90,
    rng_seed: int = 0,
) -> BiasTestResults:
    """SRS reference tests at three levels: coupon passing (recipients drawn
    from contacts), returning coupons (recruits drawn from recipients), and
    overall (recruits drawn from contacts).

    Recruiters whose reported positives exceed the pool they were drawn from
    are logically inconsistent for that level: they are excluded from the
    test and their proportion is reported alongside."""
    eligible, _ = _bias_eligible(ds, forest)
    if not eligible:
        raise NoEligibleRecruiters("no recruiters with data on all three levels")

    def run(
        pools: list[tuple[int, int, int, int]], stream: int
    ) -> tuple[PermutationResult, float, int]:
        # pools: (total, positive_available, n_drawn, positive_observed)
        consistent = [
            p for p in pools if p[3] <= p[1] and p[2] <= p[0] and p[1] <= p[0]
        ]
        n_inconsistent = len(pools) - len(consistent)
        prop = n_inconsistent / len(pools) if pools else 0.0
        if not consistent:
            raise NoEligibleRecruiters("no logically consistent recruiters")
        ntotal = np.array([p[0] for p in consistent])
        ngood = np.array([p[1] for p in consistent])
        nsample = np.array([p[2] for p in consistent])
        observed = sum(p[3] for p in consistent)
        result = _srs_reference(
            ngood, ntotal, nsample, observed, replicates, threshold, rng_seed, stream
        )
        return result, prop, len(consistent)

    passing_pools = [
        (e.contact_total, e.contact_positive, len(e.recipient_flags), sum(e.recipient_flags))
        for e in eligible
    ]
    returning_pools = [
        (len(e.recipient_flags), sum(e.recipient_flags), len(e.recruit_flags), sum(e.recruit_flags))
        for e in eligible
    ]
    overall_pools = [
        (e.contact_total, e.contact_positive, len(e.recruit_flags), sum(e.recruit_flags))
        for e in eligible
    ]

    passing, p_inc, p_n = run(passing_pools, 0)
    returning, r_inc, r_n = run(returning_pools, 1)
    overall, o_inc, o_n = run(overall_pools, 2)
    return BiasTestResults(
        coupon_passing=passing,
        returning_coupons=returning,
        overall=overall,
        inconsistency={
            "coupon_passing": p_inc,
            "returning_coupons": r_inc,
            "overall": o_inc,
        },
        n_recruiters={"coupon_passing": p_n, "returning_coupons": r_n, "overall": o_n},
    )


# ---------------------------------------------------------------------------
# non-response


@dataclass(frozen=True)
class NonResponseRates:
    coupon_refusal: float
    non_return: float
    total_non_response: float
    n_recruiters: int
    n_impossible_excluded: int


def nonresponse_rates(ds: StudyDataset, forest: RecruitmentForest) -> NonResponseRates:
    """Coupon-refusal, non-return, and total non-response rates over
    follow-up completers.  Recruits are counted from redeemed coupons, not
    self-report; recruiters whose redeemed count exceeds their reported
    distributed count are excluded and counted."""
    total_refused = total_distributed = total_recruits = 0
    n = impossible = 0
    for r in ds.respondents:
        fu = r.followup
        if fu is None or fu.n_coupons_distributed is None or fu.n_refusals is None:
            continue
        recruits = len(forest.recruits(r.id))
        if recruits > fu.n_coupons_distributed:
            impossible += 1
            continue
        total_refused += fu.n_refusals
        total_distributed += fu.n_coupons_distributed
        total_recruits += recruits
        n += 1
    if n == 0 or total_distributed + total_refused == 0 or total_distributed == 0:
        raise NoData("no usable follow-up coupon accounting")
    attempted = total_refused + total_distributed
    return NonResponseRates(
        coupon_refusal=total_refused / attempted,
        non_return=1.0 - total_recruits / total_distributed,
        total_non_response=1.0 - total_recruits / attempted,
        n_recruiters=n,
        n_impossible_excluded=impossible,
    )


# ---------------------------------------------------------------------------
# refusal / motivation tabulations


@dataclass(frozen=True)
class CategoryTable:
    percentages: dict[str, float]
    total: int


def reason_tables(ds: StudyDataset) -> tuple[CategoryTable, CategoryTable]:
    """(refusal-reason table, motivation table) as percentages with totals."""
    refusal_counts: dict[str, int] = {}
    for r in ds.respondents:
        if r.followup is None:
            continue
        for reason in r.followup.refusal_reasons:
            refusal_counts[reason] = refusal_counts.get(reason, 0) + 1
    motivation_counts: dict[str, int] = {}
    for r in ds.respondents:
        if r.motivation is not None:
            motivation_counts[r.motivation] = motivation_counts.get(r.motivation, 0) + 1

    def table(counts: Mapping[str, int]) -> CategoryTable:
        total = sum(counts.values())
        if total == 0:
            return CategoryTable(percentages={}, total=0)
        return CategoryTable(
            percentages={k: 100.0 * v / total for k, v in sorted(counts.items())},
            total=total,
        )

    return table(refusal_counts), table(motivation_counts)


# ---------------------------------------------------------------------------
# motivation-outcome odds ratio with exact conditional interval


def _log_pmf_terms(r1: int, r2: int, c1: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and log binomial-product coefficients for cell (1,1) of a 2x2
    table with fixed margins."""
    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    ks = np.arange(lo, hi + 1)
    log_coef = (
        gammaln(r1 + 1) - gammaln(ks + 1) - gammaln(r1 - ks + 1)
        + gammaln(r2 + 1) - gammaln(c1 - ks + 1) - gammaln(r2 - (c1 - ks) + 1)
    )
    return ks, log_coef


def exact_odds_ratio_interval(
    a: int, b: int, c: int, d: int, alpha: float = 0.05
) -> tuple[float, float]:
    """Exact conditional interval for the 2x2 odds ratio.

    Endpoints invert the one-sided tail probabilities of the conditional
    distribution of the (1,1) cell given all margins, each at alpha/2.  The
    upper tail P(X >= a) rises with the log odds and gives the lower
    endpoint; the lower tail P(X <= a) falls and gives the upper one.  Each
    is one root on the log scale inside an expanding bracket.  When the
    observed cell sits at an edge of its support the corresponding endpoint
    is 0 or infinity (one-sided interval)."""
    ks, log_coef = _log_pmf_terms(a + b, c + d, a + c)
    if a < ks[0] or a > ks[-1]:
        raise DegenerateTable("cell count outside the support implied by margins")

    def endpoint(tail: np.ndarray) -> float:
        def excess(log_psi: float) -> float:
            log_terms = log_coef + ks * log_psi
            terms = np.exp(log_terms - log_terms.max())
            return terms[tail].sum() / terms.sum() - alpha / 2

        lo, hi = -1.0, 1.0
        for _ in range(200):
            flo, fhi = excess(lo), excess(hi)
            if flo == 0.0 or fhi == 0.0 or (flo < 0) != (fhi < 0):
                break
            lo -= 4.0
            hi += 4.0
        return math.exp(brentq(excess, lo, hi, xtol=1e-13, rtol=1e-14))

    lower = 0.0 if a == ks[0] else endpoint(ks >= a)
    upper = math.inf if a == ks[-1] else endpoint(ks <= a)
    return lower, upper


@dataclass(frozen=True)
class MotivationOutcome:
    motivation_category: str
    outcome_trait: str
    table: tuple[int, int, int, int]  # a, b, c, d
    odds_ratio: float
    interval: tuple[float, float]
    alpha: float = 0.05


def motivation_outcome(
    ds: StudyDataset,
    motivation_category: str,
    outcome_trait: str,
    alpha: float = 0.05,
) -> MotivationOutcome:
    """Sample odds ratio of the outcome given the stated motivation, with the
    nominal exact-conditional interval.

    Zero cells give exact 0 or infinite odds ratios with one-sided
    intervals; a zero margin is a degenerate table."""
    ds.trait_spec(outcome_trait)
    a = b = c = d = 0
    for r in ds.respondents:
        flag = ds.indicator(r, outcome_trait)
        if flag is None or r.motivation is None:
            continue
        motivated = r.motivation == motivation_category
        if motivated and flag:
            a += 1
        elif motivated:
            b += 1
        elif flag:
            c += 1
        else:
            d += 1
    if min(a + b, c + d, a + c, b + d) < 1:
        raise DegenerateTable(f"zero margin in table {(a, b, c, d)}")
    if a * d == 0 and b * c == 0:
        odds = math.nan
    elif b * c == 0:
        odds = math.inf
    else:
        odds = (a * d) / (b * c)
    interval = exact_odds_ratio_interval(a, b, c, d, alpha)
    return MotivationOutcome(
        motivation_category=motivation_category,
        outcome_trait=outcome_trait,
        table=(a, b, c, d),
        odds_ratio=odds,
        interval=interval,
        alpha=alpha,
    )
