"""The one "has the trait" rule: ``StudyDataset.indicator``.  Every site that
reads a respondent's trait flag must agree with it, whatever the answers,
the missing answers, the reference level and the forest's shape."""

import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_respondent
from rdsdiag import report
from rdsdiag.behavior import motivation_outcome, recruitment_effectiveness
from rdsdiag.errors import DataRequirementError
from rdsdiag.estimators import included_sample

ANSWERS = st.sampled_from(["low", "mid", "high", None])
TRAITS = (("level", "mid"),)


@st.composite
def studies(draw):
    """A forest of random shape whose respondents give random answers, some
    missing."""
    n = draw(st.integers(1, 25))
    parents = [None] + [draw(st.sampled_from([None, *range(i)])) for i in range(1, n)]
    rows = [
        make_respondent(
            f"R{i}", i + 1,
            coupon_in=None if p is None else f"C{i}",
            coupons_out=[f"C{j}" for j, q in enumerate(parents) if q == i],
            degree=draw(st.sampled_from([None, 0, 1, 3])),
            traits={"level": draw(ANSWERS)},
            motivation=draw(st.sampled_from(["money", "help", None])),
        )
        for i, p in enumerate(parents)
    ]
    return make_dataset(rows, traits=TRAITS)


@settings(max_examples=60, deadline=None)
@given(ds=studies())
def test_every_site_agrees_with_indicator(ds):
    flag = {r.id: ds.indicator(r, "level") for r in ds.respondents}
    assert ds.indicators("level") == tuple(flag.values())

    sample = included_sample(ds, "level")
    included = sorted(
        (r.interview_order, r.id) for r in ds.respondents
        if not r.is_seed and flag[r.id] is not None and (r.degree.q_seen_week or 0) >= 1
    )
    members = [ds.respondents[order - 1].id for order in sample.orders]
    assert members == [rid for _, rid in included]
    assert sample.y.tolist() == [float(flag[rid]) for rid in members]

    effectiveness = recruitment_effectiveness(ds, "level")
    assert effectiveness["n_positive"] == sum(f is True for f in flag.values())
    assert effectiveness["n_negative"] == sum(f is False for f in flag.values())

    answered = [r for r in ds.respondents if flag[r.id] is not None and r.motivation]
    margins = (
        sum(r.motivation == "money" for r in answered),
        sum(r.motivation != "money" for r in answered),
        sum(flag[r.id] for r in answered),
        sum(not flag[r.id] for r in answered),
    )
    if min(margins) == 0:
        with pytest.raises(DataRequirementError, match="zero margin in table"):
            motivation_outcome(ds, "money", "level")
    else:
        a, b, c, d = motivation_outcome(ds, "money", "level")["table"]
        assert (a + b, c + d, a + c, b + d) == margins

    figure = report._chains_figure(ds, ["nope", "level"])
    circles = ET.fromstring(figure).iter("{http://www.w3.org/2000/svg}circle")
    colors = {True: "#c43c39", False: "#4472a8", None: "#bbbbbb"}
    # circles are drawn in id order
    assert [c.get("fill") for c in circles] == [colors[flag[rid]] for rid in sorted(flag)]


def test_indicators_built_once():
    ds = make_dataset([make_respondent("S", 1, traits={"hiv": "yes"}),
                       make_respondent("T", 2, traits={})])
    assert ds.indicators("hiv") == (True, None)
    assert ds.indicators("hiv") is ds.indicators("hiv")


def test_indicators_unknown_trait_without_respondents():
    ds = make_dataset([])
    assert ds.indicators("hiv") == ()
    with pytest.raises(DataRequirementError,
                       match="trait 'nope' is not defined for this dataset"):
        ds.indicators("nope")
