"""Shared fixture builders for the test suite."""

from __future__ import annotations

from datetime import date, timedelta
from typing import Optional, Sequence

import pytest

from rdsdiag.dataset import (
    CouponOutcome,
    DegreeReport,
    FollowUpRecord,
    Respondent,
    StudyDataset,
    TraitSpec,
)


def make_degree(d: Optional[int] = None, **kw) -> DegreeReport:
    """Degree report with the whole funnel set to ``d`` unless overridden."""
    if d is not None:
        base = dict(q_know=d, q_province=d, q_age=d, q_seen_week=d)
    else:
        base = {}
    base.update(kw)
    return DegreeReport(**base)


def make_respondent(
    rid: str,
    order: int,
    coupon_in: Optional[str] = None,
    coupons_out: Sequence[str] = (),
    degree: Optional[DegreeReport | int] = None,
    traits: Optional[dict] = None,
    interview_date: Optional[date] = None,
    **kw,
) -> Respondent:
    if isinstance(degree, int):
        degree = make_degree(degree)
    if degree is None:
        degree = DegreeReport()
    if interview_date is None:
        interview_date = date(2008, 3, 1) + timedelta(days=order - 1)
    return Respondent(
        id=rid,
        coupon_in=coupon_in,
        coupons_out=frozenset(coupons_out),
        interview_order=order,
        interview_date=interview_date,
        degree=degree,
        traits=traits or {},
        **kw,
    )


def make_dataset(
    respondents: Sequence[Respondent],
    traits: Sequence[tuple[str, str]] = (("hiv", "yes"),),
    allotment: int = 3,
    site: str = "test",
) -> StudyDataset:
    return StudyDataset(
        site_label=site,
        respondents=tuple(respondents),
        trait_specs=tuple(TraitSpec(*t) for t in traits),
        coupon_allotment=allotment,
    )


def chain_dataset() -> StudyDataset:
    """One seed recruiting two respondents, one of whom recruits a third."""
    return make_dataset(
        [
            make_respondent("S1", 1, coupons_out=["C1", "C2"], degree=4,
                            traits={"hiv": "no"}),
            make_respondent("R2", 2, coupon_in="C1", coupons_out=["C3"],
                            degree=2, traits={"hiv": "yes"}),
            make_respondent("R3", 3, coupon_in="C2", degree=3,
                            traits={"hiv": "no"}),
            make_respondent("R4", 4, coupon_in="C3", degree=1,
                            traits={"hiv": "yes"}),
        ]
    )


@pytest.fixture
def chain_ds() -> StudyDataset:
    return chain_dataset()


def unit_degree_two_trees() -> StudyDataset:
    """Two seeds, each with two unit-degree recruits; tree A all positive,
    tree B all negative."""
    rows = [
        make_respondent("A", 1, coupons_out=["A1", "A2"], degree=1,
                        traits={"hiv": "yes"}),
        make_respondent("B", 2, coupons_out=["B1", "B2"], degree=1,
                        traits={"hiv": "no"}),
        make_respondent("A-1", 3, coupon_in="A1", degree=1, traits={"hiv": "yes"}),
        make_respondent("B-1", 4, coupon_in="B1", degree=1, traits={"hiv": "no"}),
        make_respondent("A-2", 5, coupon_in="A2", degree=1, traits={"hiv": "yes"}),
        make_respondent("B-2", 6, coupon_in="B2", degree=1, traits={"hiv": "no"}),
    ]
    return make_dataset(rows)


def followup(
    retest: Optional[int] = None,
    coupons: Sequence[CouponOutcome] = (),
    **kw,
) -> FollowUpRecord:
    degree_retest = make_degree(retest) if retest is not None else DegreeReport()
    return FollowUpRecord(degree_retest=degree_retest, coupons=tuple(coupons), **kw)
