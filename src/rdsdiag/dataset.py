"""Study data model, CSV ingestion, and structural validation.

The dataset is immutable after construction.  Missing answers are stored as
``None`` and are never imputed; each diagnostic declares its own exclusion
rule.  Validation applies exactly one recorded repair: the number of known
participants is capped at one less than the reported number of age-eligible
contacts, and the number of caps is reported.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import warnings as _warnings
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    CycleDetected,
    DanglingCoupon,
    DuplicateId,
    MalformedCell,
    MissingColumn,
    MissingData,
    NonContiguousOrder,
    UnknownTrait,
)

DEGREE_QUESTIONS = ("q_know", "q_province", "q_age", "q_seen_week")


@dataclass(frozen=True)
class TraitSpec:
    """A trait of interest.  ``reference_level`` is the category counted as
    "has the trait" when the trait is estimated as a proportion."""

    name: str
    kind: str  # "binary" | "categorical"
    reference_level: str


@dataclass(frozen=True)
class DegreeReport:
    """The four-question degree funnel plus the optional reachability probes."""

    q_know: Optional[int] = None
    q_province: Optional[int] = None
    q_age: Optional[int] = None
    q_seen_week: Optional[int] = None
    q_reach_day: Optional[int] = None
    q_reach_week: Optional[int] = None

    def funnel_violated(self) -> bool:
        chain = [self.q_know, self.q_province, self.q_age, self.q_seen_week]
        present = [c for c in chain if c is not None]
        return any(a < b for a, b in zip(present, present[1:]))

    def get(self, question: str) -> Optional[int]:
        if question not in DEGREE_QUESTIONS:
            raise KeyError(question)
        return getattr(self, question)


@dataclass(frozen=True)
class CouponOutcome:
    coupon_id: str
    days_to_distribute: Optional[int] = None
    reciprocation_answer: Optional[bool] = None
    recipient_employed: Optional[bool] = None


@dataclass(frozen=True)
class FollowUpRecord:
    degree_retest: DegreeReport = field(default_factory=DegreeReport)
    n_failed_attempts: Optional[int] = None
    n_known_participants: Optional[int] = None
    coupons: tuple[CouponOutcome, ...] = ()
    n_coupons_distributed: Optional[int] = None
    n_refusals: Optional[int] = None
    refusal_reasons: tuple[str, ...] = ()
    n_contacts_employed: Optional[int] = None
    n_contacts_employed_valid: bool = True


@dataclass(frozen=True)
class Respondent:
    id: str
    coupon_in: Optional[str]
    coupons_out: frozenset[str]
    interview_order: int
    interview_date: Optional[date]
    degree: DegreeReport
    traits: Mapping[str, Optional[str]]
    motivation: Optional[str] = None
    employed: Optional[bool] = None
    # receive-side reciprocity probe ("how many could give *you* a coupon
    # within a week"); optional, used only by the network reciprocity summary
    q_recv_week: Optional[int] = None
    followup: Optional[FollowUpRecord] = None

    @property
    def is_seed(self) -> bool:
        return self.coupon_in is None


@dataclass(frozen=True)
class StudyDataset:
    site_label: str
    respondents: tuple[Respondent, ...]
    trait_specs: tuple[TraitSpec, ...]
    target_sample_size: Optional[int] = None
    coupon_allotment: int = 3

    @property
    def n(self) -> int:
        return len(self.respondents)

    def by_id(self, rid: str) -> Respondent:
        return self._index[rid]

    @functools.cached_property
    def _index(self) -> dict[str, Respondent]:
        return {r.id: r for r in self.respondents}

    @functools.cached_property
    def _specs(self) -> dict[str, TraitSpec]:
        return {s.name: s for s in self.trait_specs}

    def seeds(self) -> list[Respondent]:
        return [r for r in self.respondents if r.is_seed]

    def trait_spec(self, name: str) -> TraitSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise UnknownTrait(f"trait {name!r} is not defined for this dataset") from None

    def indicator(self, resp: Respondent, trait: str) -> Optional[bool]:
        """True/False for the trait's reference level; None when missing."""
        spec = self.trait_spec(trait)
        value = resp.traits.get(trait)
        if value is None:
            return None
        return value == spec.reference_level


@dataclass(frozen=True)
class IngestOptions:
    strict: bool = True
    site_label: str = "study"
    target_sample_size: Optional[int] = None


@dataclass
class ValidationReport:
    """Counts of structural issues, plus the repaired dataset."""

    dataset: StudyDataset
    funnel_violations: int = 0
    truncations_applied: int = 0
    inconsistent_reach: int = 0
    missing_traits: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# parsing helpers


def _opt_int(cell: str) -> Optional[int]:
    cell = cell.strip()
    if not cell:
        return None
    return int(cell)


def _opt_bool(cell: str) -> Optional[bool]:
    cell = cell.strip().lower()
    if not cell:
        return None
    if cell in ("yes", "y", "1", "true"):
        return True
    if cell in ("no", "n", "0", "false"):
        return False
    raise ValueError(f"cannot parse yes/no value {cell!r}")


def _opt_str(cell: str) -> Optional[str]:
    cell = cell.strip()
    return cell or None


def _opt_date(cell: str) -> Optional[date]:
    cell = cell.strip()
    if not cell:
        return None
    return date.fromisoformat(cell)


def _cell_reader(row: Mapping[str, str], path: Path, rid: str):
    """``cell(column, parse)`` parses one cell of ``row``; a value the column
    cannot hold raises ``MalformedCell`` naming the file, respondent and
    column.  A row with fewer cells than the header is rejected whole."""
    if None in row.values():
        raise MalformedCell(f"{path}: respondent {rid!r}: fewer cells than columns")

    def cell(column: str, parse):
        try:
            return parse(row.get(column, ""))
        except ValueError as exc:
            raise MalformedCell(
                f"{path}: respondent {rid!r}, column {column!r}: {exc}"
            ) from None

    return cell


def _require(header: Sequence[str], names: Iterable[str], path: Path) -> None:
    missing = [c for c in names if c not in header]
    if missing:
        raise MissingColumn(f"{path}: missing columns {missing}")


def _read_csv(path: Path, required: Sequence[str]) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of an input CSV.  A file that cannot be opened raises
    ``MissingData``, one that is not UTF-8 ``MalformedCell``, and a header
    without a ``required`` column ``MissingColumn``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = list(reader.fieldnames or [])
            _require(header, required, path)
            return header, list(reader)
    except OSError as exc:
        raise MissingData(f"cannot read input file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedCell(f"{path}: not UTF-8 text (byte {exc.start})") from None


def load_traits(path: Path) -> tuple[TraitSpec, ...]:
    _, rows = _read_csv(path, ["name", "kind", "reference_level"])
    specs = []
    seen = set()
    for row in rows:
        if None in row.values():
            raise MalformedCell(f"{path}: trait row {len(specs) + 1}: fewer cells than columns")
        name = row["name"].strip()
        if name in seen:
            raise DuplicateId(f"{path}: duplicate trait {name!r}")
        seen.add(name)
        specs.append(TraitSpec(name, row["kind"].strip(), row["reference_level"].strip()))
    return tuple(specs)


def _followup_from_row(
    row: Mapping[str, str], allotment: int, path: Path, rid: str
) -> FollowUpRecord:
    cell = _cell_reader(row, path, rid)
    retest = DegreeReport(
        q_know=cell("fu_deg_know", _opt_int),
        q_province=cell("fu_deg_province", _opt_int),
        q_age=cell("fu_deg_age", _opt_int),
        q_seen_week=cell("fu_deg_week", _opt_int),
    )
    coupons = []
    for j in range(1, allotment + 1):
        cid = _opt_str(row.get(f"coupon_id_{j}", ""))
        if cid is None:
            continue
        coupons.append(
            CouponOutcome(
                coupon_id=cid,
                days_to_distribute=cell(f"days_{j}", _opt_int),
                reciprocation_answer=cell(f"recip_{j}", _opt_bool),
                recipient_employed=cell(f"recipient_employed_{j}", _opt_bool),
            )
        )
    reasons = []
    for j in range(1, 6):
        reason = _opt_str(row.get(f"refusal_reason_{j}", ""))
        if reason is not None:
            reasons.append(reason)
    return FollowUpRecord(
        degree_retest=retest,
        n_failed_attempts=cell("n_failed_attempts", _opt_int),
        n_known_participants=cell("n_known_participants", _opt_int),
        coupons=tuple(coupons),
        n_coupons_distributed=cell("n_coupons_distributed", _opt_int),
        n_refusals=cell("n_refusals", _opt_int),
        refusal_reasons=tuple(reasons),
        n_contacts_employed=cell("n_contacts_employed", _opt_int),
    )


def load_dataset(
    respondents_file: Path | str,
    traits_file: Path | str,
    followup_file: Optional[Path | str] = None,
    options: IngestOptions = IngestOptions(),
) -> StudyDataset:
    """Read the respondents / follow-up / traits CSVs into a StudyDataset.

    In strict mode any structural invariant violation aborts with the
    corresponding error; in lenient mode violations are downgraded to
    warnings and the offending fields are set missing.
    """
    respondents_file = Path(respondents_file)
    traits_file = Path(traits_file)
    trait_specs = load_traits(traits_file)

    header, rows = _read_csv(
        respondents_file, ["id", "coupon_in", "interview_order", "interview_date"]
    )
    out_cols = [c for c in header if c.startswith("coupon_out_")]
    for c in out_cols:
        if not c.rsplit("_", 1)[1].isdecimal():
            raise MalformedCell(f"{respondents_file}: column {c!r} is not coupon_out_<number>")
    out_cols.sort(key=lambda c: int(c.rsplit("_", 1)[1]))
    allotment = max(len(out_cols), 1)
    trait_cols = [c for c in header if c.startswith("trait:")]

    if not rows:
        raise MissingData(f"{respondents_file}: zero respondents")

    followup_rows: dict[str, Mapping[str, str]] = {}
    if followup_file is not None:
        _, frows = _read_csv(Path(followup_file), ["id"])
        followup_rows = {row["id"].strip(): row for row in frows}

    respondents = []
    seen_ids: set[str] = set()
    warnings: list[str] = []
    for row in rows:
        rid = row["id"].strip()
        if rid in seen_ids:
            raise DuplicateId(f"duplicate respondent id {rid!r}")
        seen_ids.add(rid)
        cell = _cell_reader(row, respondents_file, rid)
        outs = frozenset(
            c for c in (_opt_str(row.get(col, "")) for col in out_cols) if c is not None
        )
        degree = DegreeReport(
            q_know=cell("deg_know", _opt_int),
            q_province=cell("deg_province", _opt_int),
            q_age=cell("deg_age", _opt_int),
            q_seen_week=cell("deg_week", _opt_int),
            q_reach_day=cell("reach_day", _opt_int),
            q_reach_week=cell("reach_week", _opt_int),
        )
        traits = {c[len("trait:"):]: _opt_str(row.get(c, "")) for c in trait_cols}
        fu = None
        if rid in followup_rows:
            fu = _followup_from_row(
                followup_rows[rid], allotment, Path(followup_file), rid
            )
        respondents.append(
            Respondent(
                id=rid,
                coupon_in=_opt_str(row.get("coupon_in", "")),
                coupons_out=outs,
                interview_order=cell("interview_order", int),
                interview_date=cell("interview_date", _opt_date),
                degree=degree,
                traits=traits,
                motivation=_opt_str(row.get("motivation", "")),
                employed=cell("employed", _opt_bool),
                q_recv_week=cell("recv_week", _opt_int),
                followup=fu,
            )
        )

    respondents.sort(key=lambda r: r.interview_order)
    respondents = _check_structure(respondents, options, warnings)
    for message in warnings:
        _warnings.warn(message, UserWarning, stacklevel=2)

    target = options.target_sample_size
    ds = StudyDataset(
        site_label=options.site_label,
        respondents=tuple(respondents),
        trait_specs=trait_specs,
        target_sample_size=target,
        coupon_allotment=allotment,
    )
    return ds


def _check_structure(
    respondents: list[Respondent], options: IngestOptions, warnings: list[str]
) -> list[Respondent]:
    orders = [r.interview_order for r in respondents]
    if orders != list(range(1, len(respondents) + 1)):
        raise NonContiguousOrder("interview_order must be contiguous 1..n")

    issuer_of: dict[str, str] = {}
    for r in respondents:
        for c in r.coupons_out:
            if c in issuer_of:
                raise DuplicateId(f"coupon {c!r} issued by two respondents")
            issuer_of[c] = r.id

    order_of = {r.id: r.interview_order for r in respondents}
    repaired = []
    for r in respondents:
        if r.coupon_in is None:
            repaired.append(r)
            continue
        issuer = issuer_of.get(r.coupon_in)
        problem = None
        if issuer is None:
            problem = DanglingCoupon(f"coupon {r.coupon_in!r} of {r.id} issued by nobody")
        elif issuer == r.id:
            problem = CycleDetected(f"{r.id} recruited by their own coupon")
        elif order_of[issuer] >= r.interview_order:
            problem = NonContiguousOrder(
                f"recruiter {issuer} interviewed after recruit {r.id}"
            )
        if problem is None:
            repaired.append(r)
        elif options.strict:
            raise problem
        else:
            warnings.append(f"lenient: {problem}; treating {r.id} as a seed")
            repaired.append(dataclasses.replace(r, coupon_in=None))
    return repaired


def validate_dataset(ds: StudyDataset) -> ValidationReport:
    """Report funnel violations, apply the known-participants cap, and flag
    logically inconsistent reachability answers.  Reporting only: nothing
    raises; the repaired dataset is attached to the report."""
    report = ValidationReport(dataset=ds)
    new_resp = []
    for r in ds.respondents:
        if r.degree.funnel_violated():
            report.funnel_violations += 1
        d = r.degree
        if reach_inconsistent(r):
            report.inconsistent_reach += 1
        fu = r.followup
        if (
            fu is not None
            and fu.n_known_participants is not None
            and d.q_age is not None
        ):
            cap = max(d.q_age - 1, 0)
            if fu.n_known_participants > cap:
                report.truncations_applied += 1
                fu = dataclasses.replace(fu, n_known_participants=cap)
                r = dataclasses.replace(r, followup=fu)
        for spec in ds.trait_specs:
            if r.traits.get(spec.name) is None:
                report.missing_traits[spec.name] = (
                    report.missing_traits.get(spec.name, 0) + 1
                )
        new_resp.append(r)
    report.dataset = dataclasses.replace(ds, respondents=tuple(new_resp))
    return report


def reach_inconsistent(r: Respondent) -> bool:
    """Logical inconsistency: claims to reach more contacts than known
    age-eligible contacts."""
    d = r.degree
    if d.q_age is None:
        return False
    return (d.q_reach_day is not None and d.q_reach_day > d.q_age) or (
        d.q_reach_week is not None and d.q_reach_week > d.q_age
    )


# ---------------------------------------------------------------------------
# serialization (round-trips through load_dataset)


def save_dataset(
    ds: StudyDataset,
    respondents_file: Path | str,
    traits_file: Path | str,
    followup_file: Optional[Path | str] = None,
) -> None:
    k = ds.coupon_allotment
    header = (
        ["id", "coupon_in"]
        + [f"coupon_out_{j}" for j in range(1, k + 1)]
        + [
            "interview_order",
            "interview_date",
            "deg_know",
            "deg_province",
            "deg_age",
            "deg_week",
            "reach_day",
            "reach_week",
            "motivation",
            "employed",
            "recv_week",
        ]
        + [f"trait:{s.name}" for s in ds.trait_specs]
    )

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, bool):
            return "yes" if v else "no"
        return str(v)

    with open(respondents_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in ds.respondents:
            outs = sorted(r.coupons_out)
            outs += [""] * (k - len(outs))
            d = r.degree
            writer.writerow(
                [r.id, cell(r.coupon_in)]
                + outs[:k]
                + [
                    r.interview_order,
                    cell(r.interview_date.isoformat() if r.interview_date else None),
                    cell(d.q_know),
                    cell(d.q_province),
                    cell(d.q_age),
                    cell(d.q_seen_week),
                    cell(d.q_reach_day),
                    cell(d.q_reach_week),
                    cell(r.motivation),
                    cell(r.employed),
                    cell(r.q_recv_week),
                ]
                + [cell(r.traits.get(s.name)) for s in ds.trait_specs]
            )

    with open(traits_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "kind", "reference_level"])
        for s in ds.trait_specs:
            writer.writerow([s.name, s.kind, s.reference_level])

    if followup_file is None:
        return
    fu_header = (
        ["id", "fu_deg_know", "fu_deg_province", "fu_deg_age", "fu_deg_week"]
        + [
            "n_failed_attempts",
            "n_known_participants",
            "n_coupons_distributed",
            "n_refusals",
        ]
        + [f"refusal_reason_{j}" for j in range(1, 6)]
        + ["n_contacts_employed"]
        + [
            col
            for j in range(1, k + 1)
            for col in (
                f"coupon_id_{j}",
                f"days_{j}",
                f"recip_{j}",
                f"recipient_employed_{j}",
            )
        ]
    )
    with open(followup_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fu_header)
        for r in ds.respondents:
            fu = r.followup
            if fu is None:
                continue
            rt = fu.degree_retest
            reasons = list(fu.refusal_reasons)[:5]
            reasons += [""] * (5 - len(reasons))
            coupon_cells = []
            for j in range(k):
                if j < len(fu.coupons):
                    c = fu.coupons[j]
                    coupon_cells += [
                        c.coupon_id,
                        cell(c.days_to_distribute),
                        cell(c.reciprocation_answer),
                        cell(c.recipient_employed),
                    ]
                else:
                    coupon_cells += ["", "", "", ""]
            writer.writerow(
                [
                    r.id,
                    cell(rt.q_know),
                    cell(rt.q_province),
                    cell(rt.q_age),
                    cell(rt.q_seen_week),
                    cell(fu.n_failed_attempts),
                    cell(fu.n_known_participants),
                    cell(fu.n_coupons_distributed),
                    cell(fu.n_refusals),
                ]
                + reasons
                + [cell(fu.n_contacts_employed)]
                + coupon_cells
            )
