"""End-to-end diagnostic pipeline in two steps: ``diagnose`` runs every
enabled analysis and returns its results, writing nothing; ``write_report``
renders the SVG figures and CSV tables from them and a hashed JSON bundle.

All output is deterministic: sections return their raw results whole, the
figures and tables are drawn from them, and one pass (``_jsonable``) turns
them into the bundle form with every float rounded to 6 significant
digits; JSON keys are sorted, and every random step derives from the
configured seed.  Diagnostic flags are results, not errors — the pipeline
exits cleanly when a dataset simply lacks the data for a diagnostic,
recording the reason in the bundle instead.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import behavior, bottleneck, convergence, degree, estimators, finitepop, svg
from .dataset import DEGREE_QUESTIONS, StudyDataset, validate_dataset
from .errors import DataRequirementError, UnrealizableConfig
from .estimators import IncludedSample
from .forest import edge_rows

SCHEMA_VERSION = "2.0"

ALL_SECTIONS = (
    "estimate",
    "converge",
    "bottleneck",
    "behavior",
    "degree",
    "finitepop",
)

# an SS scenario is flagged when its estimate differs from VH by more than this
SS_FLAG_THRESHOLD = 0.01


@dataclass(frozen=True)
class PipelineConfig:
    traits: Optional[tuple[str, ...]] = None  # None = all defined traits
    degree_question: str = estimators.DEFAULT_DEGREE_QUESTION
    tau: int = 50
    epsilon: float = 0.02
    replicates: int = 10_000
    threshold: float = 0.90
    population_sizes: tuple[int, ...] = ()
    rng_seed: int = 0
    sections: tuple[str, ...] = ALL_SECTIONS

    def __post_init__(self) -> None:
        if self.degree_question not in DEGREE_QUESTIONS:
            raise UnrealizableConfig(f"unknown degree question {self.degree_question!r}")
        for name in self.sections:
            if name not in ALL_SECTIONS:
                raise UnrealizableConfig(f"unknown section {name!r}")
        if self.replicates < 1:
            raise UnrealizableConfig("replicates must be >= 1")
        if self.rng_seed < 0:
            raise UnrealizableConfig(f"seed must be >= 0, got {self.rng_seed}")
        if not 0 <= self.threshold <= 1:
            raise UnrealizableConfig(f"threshold must be in [0, 1], got {self.threshold}")
        for size in self.population_sizes:
            try:
                finite = math.isfinite(size)
            except OverflowError:  # an int beyond the largest float
                finite = False
            if not finite:
                raise UnrealizableConfig(f"population size {size} is too large for a float")
        convergence._check_window(self.tau, self.epsilon)


@dataclass
class ReportBundle:
    dataset_summary: dict[str, Any]
    sections: dict[str, Any]
    manifest: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "dataset": self.dataset_summary,
            "sections": self.sections,
            "manifest": self.manifest,
        }
        return _json_text(payload)


def _json_text(payload: Any) -> str:
    """The one JSON form of the bundle and of every command's stdout: sorted
    keys, two-space indent, no NaN or infinity, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _num(x: float) -> Any:
    """JSON-safe number: 6 significant digits, NaN -> None, inf -> string."""
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.6g}")


def _jsonable(x: Any) -> Any:
    """The bundle form of a section result: a tuple becomes a list, and
    every float goes through ``_num``."""
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return _num(x)
    return x


class _Writer:
    """Single point of file output; records content hashes for the manifest."""

    def __init__(self, out_dir: str | Path):
        _make_out_dir(out_dir)
        self.out_dir = Path(out_dir)
        self.manifest: dict[str, str] = {}

    def write_text(self, name: str, text: str) -> None:
        """Write one output file; a failed write raises ``UnrealizableConfig``
        naming it."""
        data = text.encode("utf-8")
        path = self.out_dir / name
        try:
            path.write_bytes(data)
        except OSError as exc:
            raise UnrealizableConfig(f"cannot write {path}: {exc.strerror}") from None
        self.manifest[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        text = io.StringIO()
        out = csv.writer(text, lineterminator="\n")
        out.writerow(header)
        out.writerows([_csv_cell(v) for v in row] for row in rows)
        self.write_text(name, text.getvalue())


def _make_out_dir(out_dir: str | Path) -> None:
    """Create ``out_dir`` and its parents as needed.  An empty path, which
    ``Path`` reads as the working directory, or a path that cannot be made a
    directory (a file is in the way, or no permission) raises
    ``UnrealizableConfig``."""
    if not str(out_dir):
        raise UnrealizableConfig("out_dir: empty path")
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # mkdir(exist_ok=True) raises FileExistsError for a file at out_dir
        reason = "Not a directory" if isinstance(exc, FileExistsError) else exc.strerror
        raise UnrealizableConfig(f"cannot create output directory {out_dir}: {reason}") from None


def _csv_cell(v: Any) -> str:
    v = _jsonable(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _attempt(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)``, or ``{"skipped": reason}`` when the data cannot support
    it.  Every sub-diagnostic and per-trait entry goes through here,
    so a shortfall costs only the entry that needed the missing data."""
    try:
        return fn(*args)
    except DataRequirementError as exc:
        return {"skipped": str(exc)}


def _ran(result: Any) -> bool:
    return not (isinstance(result, dict) and "skipped" in result)


# the sections that read the traits' included samples
_SAMPLE_SECTIONS = ("estimate", "converge", "bottleneck", "degree")


@dataclass(frozen=True)
class Diagnosis:
    """What ``diagnose`` found in one study, unrounded: the dataset summary,
    the requested traits, each one's included sample (or its
    ``{"skipped": reason}``; none when no enabled section reads a sample),
    and each enabled section's result, in the configured orders.  Every
    section result is plain data: dicts, lists, tuples, strings, numbers,
    booleans and None."""

    dataset_summary: dict[str, Any]
    traits: tuple[str, ...]
    samples: dict[str, Any]
    sections: dict[str, Any]


def diagnose(ds: StudyDataset, cfg: PipelineConfig) -> Diagnosis:
    """Run every enabled diagnostic on the loaded study ``ds``; writes nothing.

    Raises config errors; a data-requirement shortfall is recorded as
    ``{"skipped": reason}`` at the narrowest level it hits (trait or
    sub-diagnostic) instead of aborting the run."""
    names = cfg.traits if cfg.traits is not None else (s.name for s in ds.trait_specs)
    traits = tuple(dict.fromkeys(names))
    # each trait's included sample is built once, when a section reads it,
    # and shared by the sections
    samples = {}
    if any(name in _SAMPLE_SECTIONS for name in cfg.sections):
        samples = {
            trait: _attempt(estimators.included_sample, ds, trait, cfg.degree_question)
            for trait in traits
        }
    runners = {
        "estimate": lambda: _section_estimate(samples, cfg),
        "converge": lambda: _section_converge(samples, cfg),
        "bottleneck": lambda: _section_bottleneck(samples, cfg),
        "behavior": lambda: _section_behavior(ds, traits, cfg),
        "degree": lambda: _section_degree(ds, samples, cfg),
        "finitepop": lambda: _section_finitepop(ds),
    }
    return Diagnosis(
        dataset_summary=dataset_summary(ds),
        traits=traits,
        samples=samples,
        sections={name: runners[name]() for name in cfg.sections},
    )


def write_report(diagnosis: Diagnosis, ds: StudyDataset, out_dir: str | Path) -> ReportBundle:
    """Render every figure and table of ``diagnosis`` (of ``ds``) under
    ``out_dir``, then ``bundle.json`` with the sha256 of every other file;
    nothing is written when two traits would share a figure file name."""
    traits, samples, sections = diagnosis.traits, diagnosis.samples, diagnosis.sections
    # the flagging sections' per-trait entries; empty when a section did not run
    conv, bott = (sections.get(s, {}).get("per_trait", {}) for s in ("converge", "bottleneck"))
    flagging = "converge" in sections or "bottleneck" in sections
    if flagging:
        _check_figure_names(traits)
    writer = _Writer(out_dir)
    writer.write_csv("edges.csv", ["child_id", "parent_id", "wave", "tree_root"], edge_rows(ds))
    writer.write_text("chains.svg", _chains_figure(ds, traits))
    for trait, sample in samples.items():
        name = _safe_name(trait)
        if conv.get(trait, {}).get("evaluable"):
            figure = svg.convergence(title=f"Convergence: {trait}", orders=sample.orders,
                                     values=estimators.cumulative_estimates(sample),
                                     positive=sample.y == 1.0)
            writer.write_text(f"convergence_{name}.svg", figure)
        if trait in bott and _ran(bott[trait]):
            figure = svg.bottleneck(title=f"Bottleneck: {trait}",
                                    series=estimators.per_tree_series(sample))
            writer.write_text(f"bottleneck_{name}.svg", figure)
            figure = svg.all_points(title=f"All points: {trait}", roots=sample.roots,
                                    tree=sample.tree, positive=sample.y == 1.0)
            writer.write_text(f"allpoints_{name}.svg", figure)

    # each per-trait table projects the entries: one row per trait, and a
    # cell is None where the entry is skipped or lacks the field
    def table(*columns: tuple[dict[str, Any], str]) -> list[tuple[Any, ...]]:
        return [(trait, *(entries.get(trait, {}).get(key) for entries, key in columns))
                for trait in traits]

    if "estimate" in sections:
        # one row per SS scenario, or one VH-only row; a skipped trait has none
        writer.write_csv(
            "estimates.csv",
            ["trait", "population_size", "vh", "ss", "difference", "flagged"],
            [
                (trait, s.get("population_size"), e["vh"], s.get("ss"),
                 s.get("difference"), s.get("flagged"))
                for trait, e in sections["estimate"]["per_trait"].items()
                if _ran(e)
                for s in e.get("ss", [{}])
            ],
        )
    if "converge" in sections:
        columns = ("evaluable", "flagged", "first_violation_offset", "max_deviation")
        writer.write_csv("convergence_flags.csv", ["trait", *columns],
                         table(*((conv, key) for key in columns)))
    if "bottleneck" in sections:
        columns = ("observed_wsd", "quantile_rank", "flagged")
        writer.write_csv("bottleneck.csv", ["trait", *columns],
                         table(*((bott, key) for key in columns)))
    if traits and flagging:
        flag_rows = table((conv, "flagged"), (bott, "flagged"))
        writer.write_text("flag_grid.svg", svg.flag_grid(
            title=f"Flags: {ds.site_label}", row_labels=list(traits),
            col_labels=["convergence", "bottleneck"], cells=[list(row[1:]) for row in flag_rows],
        ))
        writer.write_csv("flag_grid.csv", ["trait", "convergence_flag", "bottleneck_flag"],
                         flag_rows)
    if "behavior" in sections:
        _write_behavior_figures(writer, sections["behavior"])
    # the sensitivity rows that ran; a skipped section is one skipped entry
    rows = sections.get("degree", {}).get("sensitivity", [])
    estimated = [r for r in rows if _ran(r)] if _ran(rows) else []
    if estimated:
        figure = svg.sensitivity_pairs(
            title="Estimate sensitivity to degree wave",
            rows=[(r["trait"], r["estimate_test"], r["estimate_retest"]) for r in estimated],
        )
        writer.write_text("sensitivity_pairs.svg", figure)

    bundle = ReportBundle(
        dataset_summary=diagnosis.dataset_summary,
        sections=_jsonable(sections),
        manifest=dict(sorted(writer.manifest.items())),
    )
    writer.write_text("bundle.json", bundle.to_json())
    return bundle


def run_pipeline(ds: StudyDataset, cfg: PipelineConfig, out_dir: str | Path) -> ReportBundle:
    """``diagnose`` the loaded study ``ds``, then ``write_report`` its output
    tree under ``out_dir``; an error ``diagnose`` raises leaves nothing written."""
    return write_report(diagnose(ds, cfg), ds, out_dir)


def _check_figure_names(traits: Sequence[str]) -> None:
    """Raise, before any output is written, when two traits would write their
    figures to one file name, or a trait's longest figure name,
    ``convergence_<name>.svg``, is too long for a file name."""
    owner: dict[str, str] = {}
    for trait in traits:
        size = len(f"convergence_{_safe_name(trait)}.svg".encode("utf-8"))
        if size > 255:  # the longest file name most file systems take
            raise UnrealizableConfig(
                f"trait {trait!r} is too long for a figure file name "
                f"({size} bytes in UTF-8, at most 255)"
            )
        first = owner.setdefault(_safe_name(trait), trait)
        if first != trait:
            raise UnrealizableConfig(
                f"traits {first!r} and {trait!r} share the figure file name "
                f"{_safe_name(trait)!r}"
            )


def dataset_summary(ds: StudyDataset) -> dict[str, Any]:
    """Size, shape and ``validate_dataset`` counts of the study, as the
    bundle and ``rdsdiag ingest`` report them."""
    waves = [ds.forest.wave[r.id] for r in ds.respondents]
    return {
        "site": ds.site_label,
        "n": ds.n,
        # every seed roots one tree
        "n_seeds": len(ds.forest.roots),
        "n_trees": len(ds.forest.roots),
        "max_wave": max(waves) if waves else 0,
        "coupon_allotment": ds.coupon_allotment,
        "traits": [s.name for s in ds.trait_specs],
        "validation": {**validate_dataset(ds), "n_warnings": len(ds.repairs)},
    }


def _safe_name(trait: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in trait)


def _chains_figure(ds: StudyDataset, traits: Sequence[str]) -> str:
    """Chains coloured by the first requested trait the dataset defines."""
    defined = {s.name for s in ds.trait_specs}
    trait = next((t for t in traits if t in defined), None)
    return svg.chains(
        title=f"Recruitment chains: {ds.site_label}",
        roots=ds.forest.roots,
        children=ds.forest.children,
        wave=ds.forest.wave,
        trait=dict(zip((r.id for r in ds.respondents), ds.indicators(trait))) if trait else {},
    )


def _write_behavior_figures(writer: _Writer, section: dict[str, Any]) -> None:
    ran = [(trait, e) for trait, e in section["effectiveness"].items() if _ran(e)]
    if ran:
        trait, e = ran[0]
        figure = svg.bars(
            title=f"Mean recruits by {trait}",
            labels=[f"{trait}+", f"{trait}-"],
            values=[0.0 if math.isnan(v) else v
                    for v in (e["mean_recruits_positive"], e["mean_recruits_negative"])],
        )
        writer.write_text("effectiveness.svg", figure)
    if _ran(section["recruitment_bias"]):
        levels = section["recruitment_bias"]["levels"]
        figure = svg.bars(
            title="Attribute share by level",
            labels=["contacts", "recipients", "recruits"],
            values=[100.0 * levels[level] for level in ("contacts", "recipients", "recruits")],
        )
        writer.write_text("bias.svg", figure)
    if section["motivation_outcome"]:
        figure = svg.motivation_outcome(
            title="Motivation vs outcome",
            rows=[
                (f"{mo['motivation']} / {mo['trait']}",
                 mo["odds_ratio"], mo["ci_low"], mo["ci_high"])
                for mo in section["motivation_outcome"]
            ],
        )
        writer.write_text("motivation_outcome.svg", figure)


# -- sections: each returns its raw result and writes nothing ----------------


def _per_trait(samples: dict[str, Any], fn: Callable[[IncludedSample], Any]) -> dict[str, Any]:
    """``fn(sample)`` for each trait whose included sample was built; the
    other traits keep the sample's skipped entry."""
    return {trait: _attempt(fn, s) if _ran(s) else s for trait, s in samples.items()}


def _section_estimate(samples, cfg: PipelineConfig) -> dict[str, Any]:
    def estimate(sample: IncludedSample) -> dict[str, Any]:
        vh = float(estimators.cumulative_estimates(sample)[-1])
        entry: dict[str, Any] = {"vh": vh, "n_included": len(sample)}
        if cfg.population_sizes:
            # a population below the sample size raises UnrealizableConfig
            ss = [estimators.ss_estimate(sample, size) for size in cfg.population_sizes]
            entry["ss"] = [
                {"population_size": size, "ss": s, "difference": s - vh,
                 "flagged": abs(s - vh) > SS_FLAG_THRESHOLD}
                for size, s in zip(cfg.population_sizes, ss)
            ]
        return entry

    return {"degree_question": cfg.degree_question, "per_trait": _per_trait(samples, estimate)}


def _section_converge(samples, cfg: PipelineConfig) -> dict[str, Any]:
    def converge(sample: IncludedSample) -> dict[str, Any]:
        if not len(sample):
            return {"evaluable": False}
        values = estimators.cumulative_estimates(sample)
        return {"evaluable": True, **convergence.convergence_flag(values, cfg.tau, cfg.epsilon)}

    return {"tau": cfg.tau, "epsilon": cfg.epsilon, "per_trait": _per_trait(samples, converge)}


def _section_bottleneck(samples, cfg: PipelineConfig) -> dict[str, Any]:
    built = [trait for trait, sample in samples.items() if _ran(sample)]
    # one call, so that traits of one included size share each drawn block
    tests = dict(zip(built, bottleneck.wsd_permutation_tests(
        [samples[trait] for trait in built],
        replicates=cfg.replicates, threshold=cfg.threshold, rng_seed=cfg.rng_seed,
    )))
    # a trait without a sample keeps its skipped entry
    per_trait = {trait: tests.get(trait, sample) for trait, sample in samples.items()}
    return {"threshold": cfg.threshold, "per_trait": per_trait}


def _section_behavior(ds, traits, cfg: PipelineConfig) -> dict[str, Any]:
    def bias() -> dict[str, Any]:
        return {
            "levels": behavior.recruitment_bias_levels(ds),
            "tests": behavior.recruitment_bias_tests(ds, threshold=cfg.threshold),
        }

    categories = sorted({r.motivation for r in ds.respondents if r.motivation is not None})
    outcomes = [_attempt(behavior.motivation_outcome, ds, category, trait)
                for trait in traits for category in categories]
    return {
        "reciprocation_rate": _attempt(behavior.reciprocation_rate, ds),
        "network_reciprocity": _attempt(behavior.network_reciprocity_stats, ds),
        "effectiveness": {
            trait: _attempt(behavior.recruitment_effectiveness, ds, trait) for trait in traits
        },
        "recruitment_bias": _attempt(bias),
        "nonresponse": _attempt(behavior.nonresponse_rates, ds),
        "reasons": _attempt(behavior.reason_tables, ds),
        "motivation_outcome": [mo for mo in outcomes if _ran(mo)],
    }


def _section_degree(ds, samples, cfg: PipelineConfig) -> dict[str, Any]:
    def sensitivity() -> list[Any] | dict[str, Any]:
        rows = _per_trait(
            samples, lambda sample: degree.estimate_sensitivity(ds, sample, cfg.degree_question)
        )
        if rows and not any(map(_ran, rows.values())):
            return next(iter(rows.values()))  # every trait skipped: the first one's reason
        return [r if _ran(r) else {"trait": trait, **r} for trait, r in rows.items()]

    return {
        "time_windows": _attempt(degree.time_window_stats, ds),
        "test_retest": _attempt(degree.test_retest_stats, ds, cfg.degree_question),
        "sensitivity": sensitivity(),
        "trend": _attempt(degree.degree_trend, ds, cfg.degree_question),
    }


def _section_finitepop(ds) -> dict[str, Any]:
    failed = _attempt(finitepop.failed_attempts_indicator, ds)
    known = _attempt(finitepop.participants_known_trend, ds)
    # the summary reads each flag off its entry: None when the entry is skipped
    return {
        "summary": {
            "failed_attempts_flag": failed.get("flagged"),
            "participants_known_trend_flag": known.get("flagged"),
        },
        "failed_attempts": failed,
        "participants_known": known,
    }
