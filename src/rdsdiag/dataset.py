"""Study data model, CSV ingestion, and structural validation.

The dataset is immutable, and building one checks its recruitment structure:
unique ids, respondents in interview order 1..n, each coupon issued once and
redeemed once, and each redeemed coupon issued by a respondent interviewed
earlier.  Missing answers are stored as ``None`` and are never imputed; each
diagnostic declares its own exclusion rule.  ``StudyDataset.indicator`` is
the one definition of "has the trait": the answer equals the trait's
reference level.  Diagnostics read it through ``indicators``, its column
over the respondents, built once per trait.  Validation only counts.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import sys
import warnings as _warnings
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional, Sequence

from . import forest as _forest
from .errors import (
    CycleDetected,
    DanglingCoupon,
    DataRequirementError,
    DuplicateId,
    IngestError,
    NonContiguousOrder,
    RdsError,
    UnrealizableConfig,
)

DEGREE_QUESTIONS = ("q_know", "q_province", "q_age", "q_seen_week")


@dataclass(frozen=True)
class TraitSpec:
    """A trait of interest.  ``reference_level`` is the category counted as
    "has the trait" when the trait is estimated as a proportion."""

    name: str
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
            raise UnrealizableConfig(f"unknown degree question {question!r}")
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

    @property
    def known_participants(self) -> Optional[int]:
        """The number of contacts already in the study, capped at one less
        than the age-eligible contacts (and at least 0); None when either
        answer is missing."""
        fu, q_age = self.followup, self.degree.q_age
        if fu is None or fu.n_known_participants is None or q_age is None:
            return None
        return min(fu.n_known_participants, max(q_age - 1, 0))


@dataclass(frozen=True)
class StudyDataset:
    """A study; one whose structure breaks a rule of the module docstring
    raises the ``IngestError`` ``load_dataset`` raises for the same rows."""

    site_label: str
    respondents: tuple[Respondent, ...]
    trait_specs: tuple[TraitSpec, ...]
    coupon_allotment: int = 3
    # what lenient ingest repaired, one message per repair
    repairs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_structure(self.respondents)

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

    @functools.cached_property
    def forest(self) -> _forest.RecruitmentForest:
        """The recruitment trees of the coupon links, built on first use."""
        return _forest.build_forest(self)

    def trait_spec(self, name: str) -> TraitSpec:
        try:
            return self._specs[name]
        except KeyError:
            message = f"trait {name!r} is not defined for this dataset"
            raise DataRequirementError(message) from None

    def indicator(self, resp: Respondent, trait: str) -> Optional[bool]:
        """True/False for the trait's reference level; None when missing."""
        spec = self.trait_spec(trait)
        value = resp.traits.get(trait)
        if value is None:
            return None
        return value == spec.reference_level

    def indicators(self, trait: str) -> tuple[Optional[bool], ...]:
        """``indicator`` of every respondent, in respondent order; built once
        per trait.  An unknown trait raises ``DataRequirementError`` even when
        there are no respondents."""
        columns = self._indicator_columns
        if trait not in columns:
            self.trait_spec(trait)
            columns[trait] = tuple(self.indicator(r, trait) for r in self.respondents)
        return columns[trait]

    @functools.cached_property
    def _indicator_columns(self) -> dict[str, tuple[Optional[bool], ...]]:
        return {}


# ---------------------------------------------------------------------------
# file layout
#
# Each table lists one record type's columns as (column, field, parser) in
# the order save_dataset writes them: load_dataset parses each column into
# its field, save_dataset writes each field back through _format.  A "{}" in
# a column is the number of a repeated slot.  The files, in header order:
#   respondents.csv  id, coupon_in, coupon_out_<1..allotment>,
#                    _INTERVIEW_COLUMNS, _DEGREE_COLUMNS, _ANSWER_COLUMNS,
#                    trait:<name> for each trait
#   followup.csv     id, _RETEST_COLUMNS, _COUNT_COLUMNS,
#                    refusal_reason_<1..5>, _EMPLOYMENT_COLUMNS,
#                    _COUPON_COLUMNS for each coupon slot 1..allotment
#   traits.csv       _TRAIT_COLUMNS


def _whole(cell: str) -> int:
    """A whole number >= 0 in ASCII digits that a float holds; ``int`` alone
    would also take a sign, underscores and other scripts' digits."""
    cell = cell.strip()
    if not (cell.isascii() and cell.isdigit()):
        raise ValueError(f"not a whole number: {cell!r}")
    value = int(cell)
    if value > sys.float_info.max:
        raise ValueError(f"whole number of {len(cell)} digits is too large for a float")
    return value


def _opt_int(cell: str) -> Optional[int]:
    """A count, degree or number of days: blank, or a whole number >= 0."""
    return _whole(cell) if cell.strip() else None


def _opt_bool(cell: str) -> Optional[bool]:
    cell = cell.strip().lower()
    if not cell:
        return None
    if cell in ("yes", "y", "1", "true"):
        return True
    if cell in ("no", "n", "0", "false"):
        return False
    raise ValueError(f"cannot parse yes/no value {cell!r}")


def _text(cell: str) -> str:
    """Text that may not be blank: a trait's name or reference level."""
    cell = cell.strip()
    if not cell:
        raise ValueError("blank")
    return cell


def _opt_str(cell: str) -> Optional[str]:
    cell = cell.strip()
    return cell or None


def _opt_date(cell: str) -> Optional[date]:
    """Blank, or YYYY-MM-DD: ``date.fromisoformat`` alone takes other ISO
    forms on some Python versions."""
    cell = cell.strip()
    if not cell:
        return None
    if not (len(cell) == 10 and cell.isascii() and cell[4] == cell[7] == "-"):
        raise ValueError(f"not a YYYY-MM-DD date: {cell!r}")
    return date.fromisoformat(cell)


_ID = "id"
_COUPON_IN = "coupon_in"
_COUPON_OUT = "coupon_out_{}"
_REFUSAL_REASON = "refusal_reason_{}"
_REFUSAL_SLOTS = 5
_TRAIT = "trait:{}"

_INTERVIEW_COLUMNS = (
    ("interview_order", "interview_order", _whole),
    ("interview_date", "interview_date", _opt_date),
)
_DEGREE_COLUMNS = (
    ("deg_know", "q_know", _opt_int),
    ("deg_province", "q_province", _opt_int),
    ("deg_age", "q_age", _opt_int),
    ("deg_week", "q_seen_week", _opt_int),
    ("reach_day", "q_reach_day", _opt_int),
    ("reach_week", "q_reach_week", _opt_int),
)
_ANSWER_COLUMNS = (
    ("motivation", "motivation", _opt_str),
    ("employed", "employed", _opt_bool),
    ("recv_week", "q_recv_week", _opt_int),
)
# the follow-up retest repeats the four degree-funnel questions
_RETEST_COLUMNS = tuple(("fu_" + column, *rest) for column, *rest in _DEGREE_COLUMNS[:4])
_COUNT_COLUMNS = (
    ("n_failed_attempts", "n_failed_attempts", _opt_int),
    ("n_known_participants", "n_known_participants", _opt_int),
    ("n_coupons_distributed", "n_coupons_distributed", _opt_int),
    ("n_refusals", "n_refusals", _opt_int),
)
_EMPLOYMENT_COLUMNS = (("n_contacts_employed", "n_contacts_employed", _opt_int),)
_COUPON_COLUMNS = (
    ("coupon_id_{}", "coupon_id", _opt_str),
    ("days_{}", "days_to_distribute", _opt_int),
    ("recip_{}", "reciprocation_answer", _opt_bool),
    ("recipient_employed_{}", "recipient_employed", _opt_bool),
)
_TRAIT_COLUMNS = (
    ("name", "name", _text),
    ("reference_level", "reference_level", _text),
)


def _columns(table) -> list[str]:
    return [column for column, _, _ in table]


def _slot(table, j: int):
    """``table`` with its columns numbered for slot ``j``."""
    return tuple((column.format(j), name, parse) for column, name, parse in table)


def _fields(table, cell) -> dict:
    """One record's fields, each parsed from its column by ``cell``."""
    return {name: cell(column, parse) for column, name, parse in table}


def _format(value) -> str:
    """A field's cell text: blank for None, yes/no for a bool."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _cells(record, table) -> list[str]:
    """The cells of ``table``'s fields of ``record``; blank when it is None."""
    if record is None:
        return [""] * len(table)
    return [_format(getattr(record, name)) for _, name, _ in table]


def _padded(values: Sequence, n: int) -> list:
    """``values`` filling n numbered slots; an empty slot is None."""
    return [*values, *[None] * (n - len(values))]


def _write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A failed write raises ``UnrealizableConfig`` naming ``path``."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise UnrealizableConfig(f"cannot write {path}: {exc.strerror}") from None


def _cell_reader(row: Mapping[str, str], path: Path, record: str):
    """``cell(column, parse)`` parses one cell of ``row``; a value the column
    cannot hold raises ``IngestError`` naming the file, the ``record`` (a
    respondent or a trait row) and the column.  A row with fewer cells than
    the header is rejected whole."""
    if None in row.values():
        raise IngestError(f"{path}: {record}: fewer cells than columns")

    def cell(column: str, parse):
        try:
            return parse(row.get(column, ""))
        except ValueError as exc:
            raise IngestError(f"{path}: {record}, column {column!r}: {exc}") from None

    return cell


def _require(header: Sequence[str], names: Iterable[str], path: Path) -> None:
    missing = [c for c in names if c not in header]
    if missing:
        raise IngestError(f"{path}: missing columns {missing}")


def _numbered(column: str, n: int) -> list[str]:
    return [column.format(j) for j in range(1, n + 1)]


def _present(cell, columns: Iterable[str]) -> list[str]:
    """The non-blank cells of ``columns``."""
    values = (cell(column, _opt_str) for column in columns)
    return [v for v in values if v is not None]


def _read_csv(path: Path, required: Sequence[str]) -> tuple[list[str], list[dict[str, str]]]:
    """Header and rows of an input CSV.  A file that cannot be opened, is not
    UTF-8 or lacks a ``required`` column raises ``IngestError``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = list(reader.fieldnames or [])
            _require(header, required, path)
            return header, list(reader)
    except OSError as exc:
        raise IngestError(f"cannot read input file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IngestError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _rows_by_id(rows: Iterable[dict[str, str]], path: Path) -> dict[str, dict[str, str]]:
    """Rows keyed by their stripped id, in file order; an id seen twice
    raises ``DuplicateId``."""
    by_id: dict[str, dict[str, str]] = {}
    for row in rows:
        rid = row[_ID].strip()
        if rid in by_id:
            raise DuplicateId(f"{path}: duplicate id {rid!r}")
        by_id[rid] = row
    return by_id


def load_traits(path: Path) -> tuple[TraitSpec, ...]:
    _, rows = _read_csv(path, _columns(_TRAIT_COLUMNS))
    specs: dict[str, TraitSpec] = {}
    for number, row in enumerate(rows, 1):
        spec = TraitSpec(**_fields(_TRAIT_COLUMNS, _cell_reader(row, path, f"trait row {number}")))
        if spec.name in specs:
            raise DuplicateId(f"{path}: duplicate trait {spec.name!r}")
        specs[spec.name] = spec
    return tuple(specs.values())


def _followup_from_row(
    row: Mapping[str, str], coupon_slots: Sequence, path: Path, rid: str
) -> FollowUpRecord:
    cell = _cell_reader(row, path, f"respondent {rid!r}")
    coupons = (CouponOutcome(**_fields(slot, cell)) for slot in coupon_slots)
    return FollowUpRecord(
        degree_retest=DegreeReport(**_fields(_RETEST_COLUMNS, cell)),
        coupons=tuple(c for c in coupons if c.coupon_id is not None),
        refusal_reasons=tuple(_present(cell, _numbered(_REFUSAL_REASON, _REFUSAL_SLOTS))),
        **_fields(_COUNT_COLUMNS + _EMPLOYMENT_COLUMNS, cell),
    )


def load_dataset(
    respondents_file: Path | str,
    traits_file: Path | str,
    followup_file: Optional[Path | str] = None,
    strict: bool = True,
) -> StudyDataset:
    """Read the respondents / follow-up / traits CSVs into a StudyDataset.

    In strict mode any structural invariant violation aborts with the
    corresponding error; in lenient mode a broken coupon link or a follow-up
    row whose id matches no respondent is repaired (the link is dropped, the
    row ignored) with a warning, kept as the dataset's ``repairs``.  A
    repeated id in either file, interview orders that are not 1..n, a coupon
    issued twice, a count, degree or number of days that is not a whole
    number >= 0, or a blank trait name or reference level aborts in both
    modes.
    """
    respondents_file = Path(respondents_file)
    trait_specs = load_traits(Path(traits_file))

    header, rows = _read_csv(
        respondents_file, [_ID, _COUPON_IN, *_columns(_INTERVIEW_COLUMNS)]
    )
    out_prefix, trait_prefix = _COUPON_OUT.format(""), _TRAIT.format("")
    out_cols = [c for c in header if c.startswith(out_prefix)]
    for c in out_cols:
        if not c[len(out_prefix):].isdecimal():
            raise IngestError(
                f"{respondents_file}: column {c!r} is not {_COUPON_OUT.format('<number>')}"
            )
    allotment = max(len(out_cols), 1)
    coupon_slots = [_slot(_COUPON_COLUMNS, j) for j in range(1, allotment + 1)]
    # each trait:<name> column and its name, stripped as load_traits strips it
    trait_of = [(c, c[len(trait_prefix):].strip()) for c in header if c.startswith(trait_prefix)]
    names = [name for _, name in trait_of]
    for name in names:
        if names.count(name) > 1:
            raise DuplicateId(f"{respondents_file}: duplicate column for trait {name!r}")

    if not rows:
        raise IngestError(f"{respondents_file}: zero respondents")

    followup_rows: dict[str, dict[str, str]] = {}
    if followup_file is not None:
        followup_file = Path(followup_file)
        _, frows = _read_csv(followup_file, [_ID])
        followup_rows = _rows_by_id(frows, followup_file)
    rows_by_id = _rows_by_id(rows, respondents_file)
    repairs: list[str] = []
    for rid in followup_rows:
        if rid not in rows_by_id:
            problem = f"{followup_file}: follow-up id {rid!r} matches no respondent"
            if strict:
                raise IngestError(problem)
            repairs.append(f"lenient: {problem}; row ignored")

    respondents = []
    for rid, row in rows_by_id.items():
        cell = _cell_reader(row, respondents_file, f"respondent {rid!r}")
        fu = None
        if rid in followup_rows:
            fu = _followup_from_row(followup_rows[rid], coupon_slots, followup_file, rid)
        respondents.append(
            Respondent(
                id=rid,
                coupon_in=cell(_COUPON_IN, _opt_str),
                coupons_out=frozenset(_present(cell, out_cols)),
                degree=DegreeReport(**_fields(_DEGREE_COLUMNS, cell)),
                traits={name: _opt_str(row[c]) for c, name in trait_of},
                followup=fu,
                **_fields(_INTERVIEW_COLUMNS + _ANSWER_COLUMNS, cell),
            )
        )

    respondents.sort(key=lambda r: r.interview_order)
    if not strict:  # repair what the StudyDataset constructor would reject
        respondents = _check_structure(respondents, repairs)
    for message in repairs:
        _warnings.warn(message, UserWarning, stacklevel=2)

    return StudyDataset(
        site_label="study",
        respondents=tuple(respondents),
        trait_specs=trait_specs,
        coupon_allotment=allotment,
        repairs=tuple(repairs),
    )


def _check_structure(
    respondents: Sequence[Respondent], repairs: Optional[list[str]] = None
) -> list[Respondent]:
    """Check the structure rules of the module docstring.  Without
    ``repairs`` a broken rule raises; with it (lenient ingest), a redeemed
    coupon its holder cannot hold (one an earlier respondent redeemed
    included) is dropped, making them a seed, and the repair is recorded
    there.  Returns the respondents, repaired."""
    order_of: dict[str, int] = {}
    for r in respondents:
        if r.id in order_of:
            raise DuplicateId(f"duplicate respondent id {r.id!r}")
        order_of[r.id] = r.interview_order
    if list(order_of.values()) != list(range(1, len(respondents) + 1)):
        raise NonContiguousOrder("interview_order must be contiguous 1..n")

    issuer_of: dict[str, str] = {}
    for r in respondents:
        for c in r.coupons_out:
            if c in issuer_of:
                raise DuplicateId(f"coupon {c!r} issued by two respondents")
            issuer_of[c] = r.id

    redeemer_of: dict[str, str] = {}
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
        elif r.coupon_in in redeemer_of:
            problem = DuplicateId(
                f"coupon {r.coupon_in!r} redeemed by {redeemer_of[r.coupon_in]} and {r.id}"
            )
        if problem is None:
            redeemer_of[r.coupon_in] = r.id
            repaired.append(r)
        elif repairs is None:
            raise problem
        else:
            repairs.append(f"lenient: {problem}; treating {r.id} as a seed")
            repaired.append(dataclasses.replace(r, coupon_in=None))
    return repaired


def validate_dataset(ds: StudyDataset) -> dict[str, Any]:
    """Count ``funnel_violations``, known-participants answers above the cap
    that ``Respondent.known_participants`` applies
    (``truncations_applied``), logically inconsistent reachability answers
    (``inconsistent_reach``) and ``missing_traits``, the missing answers of
    each trait that has any, by name in sorted order.  Reporting only:
    nothing raises and nothing is changed."""
    counts = {"funnel_violations": 0, "truncations_applied": 0, "inconsistent_reach": 0}
    missing: dict[str, int] = {}
    for r in ds.respondents:
        counts["funnel_violations"] += r.degree.funnel_violated()
        counts["inconsistent_reach"] += reach_inconsistent(r)
        known = r.known_participants
        if known is not None and known < r.followup.n_known_participants:
            counts["truncations_applied"] += 1
        for spec in ds.trait_specs:
            if r.traits.get(spec.name) is None:
                missing[spec.name] = missing.get(spec.name, 0) + 1
    return {**counts, "missing_traits": dict(sorted(missing.items()))}


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
    """Write the dataset as the CSVs ``load_dataset`` reads.  A respondent
    holding more coupons than the allotment, or more refusal reasons than
    their five slots, raises ``RdsError`` before any file is written; a file
    that cannot be written raises ``UnrealizableConfig`` naming it."""
    k = ds.coupon_allotment
    for r in ds.respondents:
        fu = r.followup or FollowUpRecord()
        if max(len(r.coupons_out), len(fu.coupons)) > k:
            raise RdsError(f"respondent {r.id!r} holds more coupons than the allotment of {k}")
        if len(fu.refusal_reasons) > _REFUSAL_SLOTS:
            raise RdsError(f"respondent {r.id!r} has more than {_REFUSAL_SLOTS} refusal reasons")

    traits = [s.name for s in ds.trait_specs]
    header = [_ID, _COUPON_IN, *_numbered(_COUPON_OUT, k), *_columns(_INTERVIEW_COLUMNS),
              *_columns(_DEGREE_COLUMNS), *_columns(_ANSWER_COLUMNS), *map(_TRAIT.format, traits)]
    rows = (
        [r.id, _format(r.coupon_in), *map(_format, _padded(sorted(r.coupons_out), k)),
         *_cells(r, _INTERVIEW_COLUMNS), *_cells(r.degree, _DEGREE_COLUMNS),
         *_cells(r, _ANSWER_COLUMNS), *(_format(r.traits.get(t)) for t in traits)]
        for r in ds.respondents
    )
    _write_csv(respondents_file, header, rows)
    _write_csv(
        traits_file, _columns(_TRAIT_COLUMNS), (_cells(s, _TRAIT_COLUMNS) for s in ds.trait_specs)
    )
    if followup_file is None:
        return
    header = [_ID, *_columns(_RETEST_COLUMNS), *_columns(_COUNT_COLUMNS),
              *_numbered(_REFUSAL_REASON, _REFUSAL_SLOTS), *_columns(_EMPLOYMENT_COLUMNS),
              *(c for j in range(1, k + 1) for c in _columns(_slot(_COUPON_COLUMNS, j)))]
    rows = (
        [r.id, *_cells(fu.degree_retest, _RETEST_COLUMNS), *_cells(fu, _COUNT_COLUMNS),
         *map(_format, _padded(fu.refusal_reasons, _REFUSAL_SLOTS)),
         *_cells(fu, _EMPLOYMENT_COLUMNS),
         *(c for coupon in _padded(fu.coupons, k) for c in _cells(coupon, _COUPON_COLUMNS))]
        for r in ds.respondents
        if (fu := r.followup) is not None
    )
    _write_csv(followup_file, header, rows)
