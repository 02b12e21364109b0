import dataclasses
import re
import tempfile
import warnings
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_dataset, followup, make_dataset, make_degree, make_respondent
from rdsdiag.dataset import (
    CouponOutcome,
    DegreeReport,
    FollowUpRecord,
    Respondent,
    StudyDataset,
    TraitSpec,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from rdsdiag.errors import (
    CycleDetected,
    DanglingCoupon,
    DataRequirementError,
    DuplicateId,
    IngestError,
    NonContiguousOrder,
    RdsError,
)

TRAITS_CSV = "name,reference_level\nhiv,yes\n"

RESPONDENTS_HEADER = (
    "id,coupon_in,coupon_out_1,coupon_out_2,coupon_out_3,interview_order,"
    "interview_date,deg_know,deg_province,deg_age,deg_week,reach_day,"
    "reach_week,motivation,employed,recv_week,trait:hiv\n"
)


def write_inputs(tmp_path, rows, traits=TRAITS_CSV, followup_rows=None):
    r = tmp_path / "respondents.csv"
    t = tmp_path / "traits.csv"
    r.write_text(RESPONDENTS_HEADER + "".join(rows))
    t.write_text(traits)
    f = None
    if followup_rows is not None:
        f = tmp_path / "followup.csv"
        f.write_text(followup_rows)
    return r, t, f


BASIC_ROWS = [
    "S1,,C1,C2,,1,2008-03-01,8,7,6,5,2,4,For HIV test,yes,4,no\n",
    "R2,C1,C3,,,2,2008-03-02,4,4,4,4,1,3,Incentive,no,3,yes\n",
    "R3,C2,,,,3,2008-03-03,3,3,3,3,1,2,,,2,no\n",
]


def test_three_row_fixture_loads(tmp_path):
    r, t, _ = write_inputs(tmp_path, BASIC_ROWS)
    ds = load_dataset(r, t)
    assert ds.n == 3
    assert [r.id for r in ds.respondents if r.is_seed] == ["S1"]
    assert ds.by_id("R2").coupon_in == "C1"
    assert ds.by_id("S1").coupons_out == frozenset({"C1", "C2"})
    assert ds.by_id("S1").degree.q_seen_week == 5
    assert ds.by_id("S1").interview_date == date(2008, 3, 1)
    assert ds.by_id("R2").traits["hiv"] == "yes"
    assert ds.by_id("R3").motivation is None


def test_traits_file_with_kind_column_loads(tmp_path):
    # traits.csv had a kind column ("binary" or "categorical") that nothing
    # read; a file that still has it loads the same, and it is not written
    old_format = "name,kind,reference_level\nhiv,foo,yes\n"
    r, t, _ = write_inputs(tmp_path, BASIC_ROWS, traits=old_format)
    ds = load_dataset(r, t)
    assert ds.trait_specs == (TraitSpec("hiv", "yes"),)
    save_dataset(ds, tmp_path / "r2.csv", tmp_path / "t2.csv")
    assert (tmp_path / "t2.csv").read_text() == TRAITS_CSV


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("second", ["trait:hiv", "trait: hiv "])
def test_two_columns_for_one_trait_rejected(tmp_path, strict, second):
    # a trait:<name> header is stripped like a traits.csv name, so both
    # columns name the trait hiv
    r, t, _ = write_inputs(tmp_path, [row.replace("\n", ",yes\n") for row in BASIC_ROWS])
    r.write_text(r.read_text().replace("trait:hiv\n", f"trait:hiv,{second}\n", 1))
    with pytest.raises(DuplicateId, match="'hiv'"):
        load_dataset(r, t, strict=strict)


def test_empty_respondents_file_is_missing_data(tmp_path):
    r, t, _ = write_inputs(tmp_path, [])
    with pytest.raises(IngestError, match="zero respondents"):
        load_dataset(r, t)


def test_missing_input_file_is_ingest_error(tmp_path):
    _, t, _ = write_inputs(tmp_path, BASIC_ROWS)
    with pytest.raises(IngestError, match="cannot read input file .*nope.csv"):
        load_dataset(tmp_path / "nope.csv", t)


def test_missing_column_detected(tmp_path):
    r = tmp_path / "r.csv"
    r.write_text("id,interview_order\nS1,1\n")
    t = tmp_path / "t.csv"
    t.write_text(TRAITS_CSV)
    missing = "missing columns ['coupon_in', 'interview_date']"
    with pytest.raises(IngestError, match=re.escape(missing)):
        load_dataset(r, t)


def test_dangling_coupon_strict(tmp_path):
    rows = BASIC_ROWS[:2] + ["R3,C9,,,,3,2008-03-03,3,3,3,3,,,,,,no\n"]
    r, t, _ = write_inputs(tmp_path, rows)
    with pytest.raises(DanglingCoupon):
        load_dataset(r, t)


def test_dangling_coupon_lenient_becomes_seed(tmp_path):
    rows = BASIC_ROWS[:2] + ["R3,C9,,,,3,2008-03-03,3,3,3,3,,,,,,no\n"]
    r, t, _ = write_inputs(tmp_path, rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = load_dataset(r, t, strict=False)
    assert ds.by_id("R3").is_seed
    assert any("C9" in str(w.message) for w in caught)
    assert len(ds.repairs) == 1 and "treating R3 as a seed" in ds.repairs[0]


def test_duplicate_id_rejected(tmp_path):
    rows = BASIC_ROWS[:2] + ["S1,C2,,,,3,2008-03-03,3,3,3,3,,,,,,no\n"]
    r, t, _ = write_inputs(tmp_path, rows)
    with pytest.raises(DuplicateId):
        load_dataset(r, t)


@pytest.mark.parametrize("strict", [True, False])
def test_duplicate_followup_id_rejected(tmp_path, strict):
    fu = "id,n_refusals\nS1,1\nR2,0\nS1,2\n"
    r, t, f = write_inputs(tmp_path, BASIC_ROWS, followup_rows=fu)
    with pytest.raises(DuplicateId, match="'S1'"):
        load_dataset(r, t, f, strict=strict)


def test_noncontiguous_order_rejected(tmp_path):
    rows = [BASIC_ROWS[0], BASIC_ROWS[1].replace(",2,", ",5,")]
    r, t, _ = write_inputs(tmp_path, rows)
    with pytest.raises(NonContiguousOrder):
        load_dataset(r, t)


def test_recruiter_after_recruit_rejected(tmp_path):
    rows = [
        "R2,C1,,,,1,2008-03-01,4,4,4,4,,,,,,yes\n",
        "S1,,C1,,,2,2008-03-02,8,7,6,5,,,,,,no\n",
    ]
    r, t, _ = write_inputs(tmp_path, rows)
    with pytest.raises(NonContiguousOrder):
        load_dataset(r, t)


def test_duplicate_coupon_issue_rejected(tmp_path):
    rows = [
        "S1,,C1,,,1,2008-03-01,8,7,6,5,,,,,,no\n",
        "S2,,C1,,,2,2008-03-02,4,4,4,4,,,,,,yes\n",
    ]
    r, t, _ = write_inputs(tmp_path, rows)
    with pytest.raises(DuplicateId):
        load_dataset(r, t)


# (id, coupon_in, coupons_out, interview_order) per respondent, in file order
STRUCTURE_CASES = {
    # the second S redeeming the first S's coupon made build_forest loop
    "duplicate id": ([("S", None, ["C1"], 1), ("S", "C1", [], 2)], DuplicateId),
    "gapped orders": ([("S", None, [], 1), ("T", None, [], 5)], NonContiguousOrder),
    "duplicate coupon": ([("S1", None, ["C1"], 1), ("S2", None, ["C1"], 2)], DuplicateId),
    "dangling coupon": ([("S", None, [], 1), ("R", "C9", [], 2)], DanglingCoupon),
    "self-recruit": ([("S", "C1", ["C1"], 1)], CycleDetected),
    "recruiter after recruit": ([("R", "C1", [], 1), ("S", None, ["C1"], 2)],
                                NonContiguousOrder),
    "coupon redeemed twice": ([("S", None, ["C1"], 1), ("A", "C1", [], 2), ("B", "C1", [], 3)],
                              DuplicateId),
}
# lenient ingest repairs a broken link, making its redeemer a seed (these are
# the seeds after the one repair); the other rules abort it too
REPAIRED_SEEDS = {
    "dangling coupon": ["S", "R"],
    "self-recruit": ["S"],
    "recruiter after recruit": ["R", "S"],
    "coupon redeemed twice": ["S", "B"],
}


def _structure_rows(records):
    return [
        f"{rid},{cin or ''},{','.join([*out, '', '', ''][:3])},{order},,1,1,1,1,,,,,,no\n"
        for rid, cin, out, order in records
    ]


@pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
def test_construction_raises_what_load_raises(tmp_path, case):
    records, error = STRUCTURE_CASES[case]
    with pytest.raises(error):
        make_dataset([make_respondent(rid, order, coupon_in=cin, coupons_out=out)
                      for rid, cin, out, order in records])
    r, t, _ = write_inputs(tmp_path, _structure_rows(records))
    with pytest.raises(error):
        load_dataset(r, t)
    if case not in REPAIRED_SEEDS:
        with pytest.raises(error):
            load_dataset(r, t, strict=False)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = load_dataset(r, t, strict=False)
    assert len(ds.repairs) == 1
    assert [x.id for x in ds.respondents if x.is_seed] == REPAIRED_SEEDS[case]


def test_construction_requires_interview_order(tmp_path):
    records = [("R", "C1", [], 2), ("S", None, ["C1"], 1)]
    with pytest.raises(NonContiguousOrder):
        make_dataset([make_respondent(rid, order, coupon_in=cin, coupons_out=out)
                      for rid, cin, out, order in records])
    # the file may list them in any order: ingest sorts by interview order
    r, t, _ = write_inputs(tmp_path, _structure_rows(records))
    assert [x.id for x in load_dataset(r, t).respondents] == ["S", "R"]


def test_followup_parsing(tmp_path):
    fu = (
        "id,fu_deg_know,fu_deg_province,fu_deg_age,fu_deg_week,"
        "n_failed_attempts,n_known_participants,n_coupons_distributed,"
        "n_refusals,refusal_reason_1,refusal_reason_2,refusal_reason_3,"
        "refusal_reason_4,refusal_reason_5,n_contacts_employed,"
        "coupon_id_1,days_1,recip_1,recipient_employed_1,"
        "coupon_id_2,days_2,recip_2,recipient_employed_2,"
        "coupon_id_3,days_3,recip_3,recipient_employed_3\n"
        "S1,7,7,6,4,2,1,2,1,Too busy,,,,,3,C1,0,yes,yes,C2,3,no,,,,,\n"
    )
    r, t, f = write_inputs(tmp_path, BASIC_ROWS, followup_rows=fu)
    ds = load_dataset(r, t, f)
    record = ds.by_id("S1").followup
    assert record is not None
    assert record.degree_retest.q_seen_week == 4
    assert record.n_failed_attempts == 2
    assert record.n_known_participants == 1
    assert record.refusal_reasons == ("Too busy",)
    assert record.n_contacts_employed == 3
    assert len(record.coupons) == 2
    assert record.coupons[0] == CouponOutcome("C1", 0, True, True)
    assert record.coupons[1].recipient_employed is None
    assert ds.by_id("R2").followup is None


def test_validate_truncates_known_participants():
    r = make_respondent(
        "S1", 1, degree=make_degree(q_age=5),
        followup=followup(n_known_participants=8),
    )
    ds = make_dataset([r])
    assert validate_dataset(ds)["truncations_applied"] == 1
    assert ds.by_id("S1").known_participants == 4
    assert ds.by_id("S1").followup.n_known_participants == 8


def test_validate_clean_fixture_no_violations(chain_ds):
    report = validate_dataset(chain_ds)
    assert report["funnel_violations"] == 0
    assert report["truncations_applied"] == 0
    assert report["inconsistent_reach"] == 0
    assert report["missing_traits"] == {"hiv": 0} or report["missing_traits"].get("hiv", 0) == 0


def test_validate_counts_funnel_and_reach_violations():
    bad_funnel = make_respondent("S1", 1, degree=make_degree(q_know=3, q_age=5))
    bad_reach = make_respondent(
        "S2", 2, degree=make_degree(q_age=6, q_reach_week=10)
    )
    report = validate_dataset(make_dataset([bad_funnel, bad_reach]))
    assert report["funnel_violations"] == 1
    assert report["inconsistent_reach"] == 1


def test_indicator_and_unknown_trait(chain_ds):
    r2 = chain_ds.by_id("R2")
    assert chain_ds.indicator(r2, "hiv") is True
    assert chain_ds.indicator(chain_ds.by_id("S1"), "hiv") is False
    missing = make_respondent("X", 1, traits={})
    assert make_dataset([missing]).indicator(missing, "hiv") is None
    with pytest.raises(DataRequirementError,
                       match="trait 'nope' is not defined for this dataset"):
        chain_ds.indicator(r2, "nope")


def test_round_trip(tmp_path):
    ds = chain_dataset()
    resp = []
    for r in ds.respondents:
        if r.id == "S1":
            r = dataclasses.replace(
                r,
                motivation="Incentive",
                employed=True,
                q_recv_week=3,
                followup=followup(
                    retest=4,
                    n_failed_attempts=1,
                    n_known_participants=2,
                    n_coupons_distributed=2,
                    n_refusals=1,
                    refusal_reasons=("Too busy",),
                    n_contacts_employed=2,
                    coupons=[CouponOutcome("C1", 1, True, False)],
                ),
            )
        resp.append(r)
    ds = dataclasses.replace(ds, respondents=tuple(resp))
    save_dataset(ds, tmp_path / "r.csv", tmp_path / "t.csv", tmp_path / "f.csv")
    loaded = load_dataset(tmp_path / "r.csv", tmp_path / "t.csv", tmp_path / "f.csv")
    assert loaded.trait_specs == ds.trait_specs
    assert loaded.respondents == ds.respondents


@pytest.mark.parametrize(
    "change",
    [
        {"coupons_out": frozenset({"C1", "C2", "C5", "C6"})},
        {"followup": followup(coupons=[CouponOutcome(f"C{j}") for j in range(4)])},
        {"followup": followup(refusal_reasons=tuple("abcdef"))},
    ],
    ids=["coupons_out", "followup_coupons", "refusal_reasons"],
)
def test_save_rejects_more_than_the_slots(tmp_path, change):
    ds = chain_dataset()  # coupon allotment 3
    s1 = dataclasses.replace(ds.respondents[0], **change)
    ds = dataclasses.replace(ds, respondents=(s1, *ds.respondents[1:]))
    with pytest.raises(RdsError, match="'S1'"):
        save_dataset(ds, tmp_path / "r.csv", tmp_path / "t.csv", tmp_path / "f.csv")
    assert list(tmp_path.iterdir()) == []


# cell text with CSV quoting, separators and non-ASCII characters; never blank
_TEXT = st.text("abXY09 ,;'\"-_é", min_size=1, max_size=6).map(str.strip).filter(bool)
_INT = st.none() | st.integers(0, 500)
_BOOL = st.none() | st.booleans()


@st.composite
def _datasets(draw):
    allotment = draw(st.integers(1, 4))
    specs = tuple(
        TraitSpec(name, draw(_TEXT))
        for name in draw(st.lists(_TEXT, max_size=3, unique=True))
    )
    ids = draw(st.lists(_TEXT, min_size=1, max_size=8, unique=True))
    unredeemed: list[str] = []
    respondents = []
    for order, rid in enumerate(ids, 1):
        coupon_in = None
        if unredeemed and draw(st.booleans()):
            coupon_in = unredeemed.pop(draw(st.integers(0, len(unredeemed) - 1)))
        coupons_out = [f"{rid}/{j}" for j in range(draw(st.integers(0, allotment)))]
        unredeemed += coupons_out
        fu = None
        if draw(st.booleans()):
            fu = FollowUpRecord(
                degree_retest=DegreeReport(*(draw(_INT) for _ in range(4))),
                n_failed_attempts=draw(_INT),
                n_known_participants=draw(_INT),
                coupons=tuple(
                    CouponOutcome(draw(_TEXT), draw(_INT), draw(_BOOL), draw(_BOOL))
                    for _ in range(draw(st.integers(0, allotment)))
                ),
                n_coupons_distributed=draw(_INT),
                n_refusals=draw(_INT),
                refusal_reasons=tuple(draw(st.lists(_TEXT, max_size=5))),
                n_contacts_employed=draw(_INT),
            )
        respondents.append(
            Respondent(
                id=rid,
                coupon_in=coupon_in,
                coupons_out=frozenset(coupons_out),
                interview_order=order,
                interview_date=draw(st.none() | st.dates()),
                degree=DegreeReport(*(draw(_INT) for _ in range(6))),
                traits={s.name: draw(st.none() | _TEXT) for s in specs},
                motivation=draw(st.none() | _TEXT),
                employed=draw(_BOOL),
                q_recv_week=draw(_INT),
                followup=fu,
            )
        )
    return StudyDataset("round-trip", tuple(respondents), specs, coupon_allotment=allotment)


def _saved(ds, out_dir):
    paths = [out_dir / name for name in ("respondents.csv", "traits.csv", "followup.csv")]
    save_dataset(ds, *paths)
    return paths


@settings(max_examples=50, deadline=None)
@given(_datasets())
def test_round_trip_property(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first = _saved(ds, Path(tmp))
        loaded = load_dataset(*first)
        assert loaded.respondents == ds.respondents
        assert loaded.trait_specs == ds.trait_specs
        assert loaded.coupon_allotment == ds.coupon_allotment
        (Path(tmp) / "again").mkdir()
        second = _saved(loaded, Path(tmp) / "again")
        assert [p.read_bytes() for p in second] == [p.read_bytes() for p in first]
