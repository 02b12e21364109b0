"""End-to-end diagnostic pipeline: runs every enabled analysis, writes the
SVG figures and CSV tables, and assembles a hashed JSON bundle.

All output is deterministic: sections return their raw results, which one
pass (``_jsonable``) turns into the bundle form with every float rounded to
6 significant digits; JSON keys are sorted, and every random step derives
from the configured seed.  Diagnostic flags are results, not errors — the
pipeline exits cleanly when a dataset simply lacks the data for a section,
recording the reason in the bundle instead.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from . import behavior, bottleneck, convergence, degree, estimators, finitepop
from .dataset import (
    DEGREE_QUESTIONS,
    IngestOptions,
    StudyDataset,
    ValidationReport,
    load_dataset,
    validate_dataset,
)
from .errors import DataRequirementError, UnrealizableConfig
from .forest import RecruitmentForest, build_forest, export_edges
from .svg import render_plot

SCHEMA_VERSION = "1.0"

ALL_SECTIONS = (
    "estimate",
    "converge",
    "bottleneck",
    "behavior",
    "degree",
    "finitepop",
)


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path
    respondents_file: Optional[Path] = None
    traits_file: Optional[Path] = None
    followup_file: Optional[Path] = None
    dataset: Optional[StudyDataset] = None  # bypasses file loading
    traits: Optional[tuple[str, ...]] = None  # None = all defined traits
    degree_question: str = estimators.DEFAULT_DEGREE_QUESTION
    tau: int = 50
    epsilon: float = 0.02
    replicates: int = 10_000
    threshold: float = 0.90
    population_sizes: tuple[int, ...] = ()
    rng_seed: int = 0
    strict: bool = True
    sections: tuple[str, ...] = ALL_SECTIONS

    def __post_init__(self) -> None:
        if self.degree_question not in DEGREE_QUESTIONS:
            raise UnrealizableConfig(f"unknown degree question {self.degree_question!r}")
        if self.replicates < 1:
            raise UnrealizableConfig("replicates must be >= 1")


@dataclass
class ReportBundle:
    dataset_summary: dict[str, Any]
    sections: dict[str, Any]
    manifest: dict[str, str] = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "dataset": self.dataset_summary,
            "sections": self.sections,
            "manifest": self.manifest,
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _num(x: float) -> Any:
    """JSON-safe number: 6 significant digits, NaN -> None, inf -> string."""
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(f"{x:.6g}")


def _fields(result: Any, drop: Sequence[str] = ()) -> dict[str, Any]:
    """A result dataclass's fields as a dict, less the ``drop`` ones."""
    return {f.name: getattr(result, f.name) for f in fields(result) if f.name not in drop}


def _jsonable(x: Any) -> Any:
    """The bundle form of a section result: a dataclass becomes the dict of
    its fields, a tuple a list, and every float goes through ``_num``."""
    if is_dataclass(x):
        x = _fields(x)
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, float):
        return _num(x)
    return x


class _Writer:
    """Single point of file output; records content hashes for the manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.manifest: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> None:
        data = text.encode("utf-8")
        (self.out_dir / name).write_bytes(data)
        self.manifest[name] = hashlib.sha256(data).hexdigest()

    def write_csv(self, name: str, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
        text = io.StringIO()
        out = csv.writer(text, lineterminator="\n")
        out.writerow(header)
        out.writerows([_csv_cell(v) for v in row] for row in rows)
        self.write_text(name, text.getvalue())


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
    it.  Every section, sub-diagnostic and per-trait entry goes through here,
    so a shortfall costs only the entry that needed the missing data."""
    try:
        return fn(*args)
    except DataRequirementError as exc:
        return {"skipped": str(exc)}


def _ran(result: Any) -> bool:
    return not (isinstance(result, dict) and "skipped" in result)


def run_pipeline(cfg: PipelineConfig) -> ReportBundle:
    """Execute all enabled diagnostics and write the output tree.

    Raises ingest/config errors; a data-requirement shortfall is recorded
    as ``{"skipped": reason}`` at the narrowest level it hits (trait,
    sub-diagnostic or section) instead of aborting the run."""
    ds = cfg.dataset
    if ds is None:
        if cfg.respondents_file is None or cfg.traits_file is None:
            raise DataRequirementError("pipeline needs input files or a dataset")
        ds = load_dataset(
            cfg.respondents_file,
            cfg.traits_file,
            cfg.followup_file,
            IngestOptions(strict=cfg.strict),
        )
    report = validate_dataset(ds)
    ds = report.dataset
    forest = build_forest(ds)
    traits = (
        tuple(dict.fromkeys(cfg.traits))
        if cfg.traits is not None
        else tuple(s.name for s in ds.trait_specs)
    )

    # each trait's included sample is built once and shared by the sections;
    # an unknown trait raises on every lookup, so each entry records it
    sample_of = functools.cache(
        functools.partial(
            estimators.included_sample, ds, forest, degree_question=cfg.degree_question
        )
    )
    if "estimate" in cfg.sections:
        _check_population_sizes(traits, cfg.population_sizes, sample_of)

    writer = _Writer(Path(cfg.out_dir))
    bundle = ReportBundle(
        dataset_summary=dataset_summary(ds, forest, report), sections={}
    )

    export_edges(forest, writer.out_dir / "edges.csv")
    writer.manifest["edges.csv"] = hashlib.sha256(
        (writer.out_dir / "edges.csv").read_bytes()
    ).hexdigest()
    _render_chains_figure(writer, ds, forest, traits)

    runners = {
        "estimate": lambda: _section_estimate(writer, traits, cfg, sample_of),
        "converge": lambda: _section_converge(writer, traits, cfg, sample_of),
        "bottleneck": lambda: _section_bottleneck(writer, traits, cfg, sample_of),
        "behavior": lambda: _section_behavior(writer, ds, forest, traits, cfg),
        "degree": lambda: _section_degree(writer, ds, forest, traits, cfg),
        "finitepop": lambda: _section_finitepop(ds),
    }
    for name in cfg.sections:
        if name in runners:
            bundle.sections[name] = _jsonable(_attempt(runners[name]))

    # flag grid over per-trait verdicts from the convergence and bottleneck
    # sections (cells are None when a section was skipped for that trait)
    conv = bundle.sections.get("converge", {})
    bott = bundle.sections.get("bottleneck", {})
    flag_rows = [
        (trait, _lookup_flag(conv, trait), _lookup_flag(bott, trait)) for trait in traits
    ]
    if flag_rows and ("converge" in cfg.sections or "bottleneck" in cfg.sections):
        grid_svg = render_plot(
            "flag-grid",
            {
                "title": f"Flags: {ds.site_label}",
                "row_labels": [r[0] for r in flag_rows],
                "col_labels": ["convergence", "bottleneck"],
                "cells": [[r[1], r[2]] for r in flag_rows],
            },
        )
        writer.write_text("flag_grid.svg", grid_svg)
        writer.write_csv(
            "flag_grid.csv",
            ["trait", "convergence_flag", "bottleneck_flag"],
            flag_rows,
        )

    bundle.manifest = dict(sorted(writer.manifest.items()))
    writer.write_text("bundle.json", bundle.to_json())
    # the bundle's own hash is not part of its manifest; re-serialize is
    # unnecessary since manifest was frozen before writing bundle.json
    return bundle


def _check_population_sizes(
    traits: Sequence[str], population_sizes: Sequence[int], sample_of
) -> None:
    """Raise, before any output is written, the ``PopulationTooSmall`` that
    the estimate section would hit: the first SS scenario population below a
    trait's included sample size, in trait order."""
    for trait in traits:
        sample = _attempt(sample_of, trait)
        if not _ran(sample) or len(sample) == 0:
            continue  # the estimate section records this trait as skipped
        for population_size in population_sizes:
            estimators.check_population_size(population_size, len(sample))


def _lookup_flag(section: dict[str, Any], trait: str) -> Optional[bool]:
    return section.get("per_trait", {}).get(trait, {}).get("flagged")


def dataset_summary(
    ds: StudyDataset, forest: RecruitmentForest, report: ValidationReport
) -> dict[str, Any]:
    """Size, shape and validation counts of the study, as the bundle and
    ``rdsdiag ingest`` report them."""
    waves = [forest.wave[r.id] for r in ds.respondents]
    return {
        "site": ds.site_label,
        "n": ds.n,
        "n_seeds": len(ds.seeds()),
        "n_trees": len(forest.roots),
        "max_wave": max(waves) if waves else 0,
        "target_sample_size": ds.target_sample_size,
        "coupon_allotment": ds.coupon_allotment,
        "traits": [s.name for s in ds.trait_specs],
        "validation": {
            "funnel_violations": report.funnel_violations,
            "truncations_applied": report.truncations_applied,
            "inconsistent_reach": report.inconsistent_reach,
            "missing_traits": dict(sorted(report.missing_traits.items())),
            "n_warnings": len(report.warnings),
        },
    }


def _safe_name(trait: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in trait)


def _render_chains_figure(
    writer: _Writer, ds: StudyDataset, forest: RecruitmentForest, traits: Sequence[str]
) -> None:
    """Chains coloured by the first requested trait the dataset defines."""
    defined = {s.name for s in ds.trait_specs}
    trait = next((t for t in traits if t in defined), None)
    data = {
        "title": f"Recruitment chains: {ds.site_label}",
        "roots": list(forest.roots),
        "children": {k: list(v) for k, v in forest.children.items()},
        "wave": forest.wave,
        "trait": {
            r.id: (ds.indicator(r, trait) if trait else None) for r in ds.respondents
        },
    }
    writer.write_text("chains.svg", render_plot("chains", data))


def _section_estimate(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    def estimate(trait: str) -> dict[str, Any]:
        sample = sample_of(trait)
        series = estimators.cumulative_estimates(sample)
        entry: dict[str, Any] = {"vh": series.final, "n_included": len(series)}
        if cfg.population_sizes:
            entry["ss"] = [
                {"population_size": row.scenario_population, "ss": row.ss,
                 "difference": row.difference, "flagged": row.flagged}
                for row in estimators.ss_vh_table([sample], cfg.population_sizes)
            ]
        return entry

    per_trait = {trait: _attempt(estimate, trait) for trait in traits}
    # one row per SS scenario, or one VH-only row; a skipped trait has none
    writer.write_csv(
        "estimates.csv",
        ["trait", "population_size", "vh", "ss", "difference", "flagged"],
        [
            (trait, s.get("population_size"), e["vh"], s.get("ss"),
             s.get("difference"), s.get("flagged"))
            for trait, e in per_trait.items()
            if _ran(e)
            for s in e.get("ss", [{}])
        ],
    )
    return {"degree_question": cfg.degree_question, "per_trait": per_trait}


def _section_converge(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    ccfg = convergence.ConvergenceConfig(tau=cfg.tau, epsilon=cfg.epsilon)

    def converge(trait: str) -> dict[str, Any]:
        sample = sample_of(trait)
        if not len(sample):
            return {"evaluable": False}
        series = estimators.cumulative_estimates(sample)
        verdict = convergence.convergence_flag(series, ccfg)
        svg = render_plot(
            "convergence",
            {
                "title": f"Convergence: {trait}",
                "orders": list(series.orders),
                "values": list(series.values),
                "indicators": list(zip(series.orders, (sample.y == 1.0).tolist())),
            },
        )
        writer.write_text(f"convergence_{_safe_name(trait)}.svg", svg)
        return {"evaluable": True, **_fields(verdict)}

    per_trait = {trait: _attempt(converge, trait) for trait in traits}
    writer.write_csv(
        "convergence_flags.csv",
        ["trait", "evaluable", "flagged", "first_violation_offset", "max_deviation"],
        [
            (trait, e.get("evaluable"), e.get("flagged"),
             e.get("first_violation_offset"), e.get("max_deviation"))
            for trait, e in per_trait.items()
        ],
    )
    return {"tau": cfg.tau, "epsilon": cfg.epsilon, "per_trait": per_trait}


def _section_bottleneck(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    def permutation_test(trait: str) -> dict[str, Any]:
        sample = sample_of(trait)
        result = bottleneck.wsd_permutation_test(
            sample,
            replicates=cfg.replicates,
            threshold=cfg.threshold,
            rng_seed=cfg.rng_seed,
        )
        series = estimators.per_tree_series(sample)
        svg = render_plot(
            "bottleneck",
            {
                "title": f"Bottleneck: {trait}",
                "series": {
                    root: (list(s.orders), list(s.values)) for root, s in series.items()
                },
                "composition": {root: len(s) for root, s in series.items()},
            },
        )
        writer.write_text(f"bottleneck_{_safe_name(trait)}.svg", svg)
        points = bottleneck.all_points_data(sample)
        svg = render_plot(
            "all-points",
            {
                "title": f"All points: {trait}",
                "rows": [(p.tree, p.included_index, p.has_trait) for p in points],
            },
        )
        writer.write_text(f"allpoints_{_safe_name(trait)}.svg", svg)
        return {"observed_wsd": result.observed, **_fields(result, drop=("observed",))}

    per_trait = {trait: _attempt(permutation_test, trait) for trait in traits}
    writer.write_csv(
        "bottleneck.csv",
        ["trait", "observed_wsd", "quantile_rank", "flagged"],
        [
            (trait, e.get("observed_wsd"), e.get("quantile_rank"), e.get("flagged"))
            for trait, e in per_trait.items()
        ],
    )
    return {"threshold": cfg.threshold, "per_trait": per_trait}


def _section_behavior(writer, ds, forest, traits, cfg: PipelineConfig) -> dict[str, Any]:
    def reciprocity() -> dict[str, Any]:
        s = behavior.network_reciprocity_stats(ds)
        return {
            "median_relative_difference": s.median,
            "mean_relative_difference": s.mean,
            "q3_relative_difference": s.q3,
            "n": len(s.values),
            "n_excluded": s.n_excluded,
        }

    def effectiveness() -> dict[str, Any]:
        results = {
            trait: _attempt(behavior.recruitment_effectiveness, ds, forest, trait)
            for trait in traits
        }
        ran = [e for e in results.values() if _ran(e)]
        if ran:
            e = ran[0]
            svg = render_plot(
                "effectiveness",
                {
                    "title": f"Mean recruits by {e.trait}",
                    "labels": [f"{e.trait}+", f"{e.trait}-"],
                    "values": [
                        0.0 if math.isnan(e.mean_recruits_positive) else e.mean_recruits_positive,
                        0.0 if math.isnan(e.mean_recruits_negative) else e.mean_recruits_negative,
                    ],
                },
            )
            writer.write_text("effectiveness.svg", svg)
        return {
            trait: _fields(e, drop=("trait",)) if _ran(e) else e
            for trait, e in results.items()
        }

    def bias() -> dict[str, Any]:
        levels = behavior.recruitment_bias_levels(ds, forest)
        tests = behavior.recruitment_bias_tests(
            ds, forest, replicates=cfg.replicates, threshold=cfg.threshold,
            rng_seed=cfg.rng_seed,
        )
        svg = render_plot(
            "bias",
            {
                "title": "Attribute share by level",
                "labels": ["contacts", "recipients", "recruits"],
                "values": [
                    100.0 * levels.contacts_level,
                    100.0 * levels.recipients_level,
                    100.0 * levels.recruits_level,
                ],
            },
        )
        writer.write_text("bias.svg", svg)
        return {
            "levels": {
                "contacts": levels.contacts_level,
                "recipients": levels.recipients_level,
                "recruits": levels.recruits_level,
                "n_recruiters": levels.n_recruiters,
            },
            "tests": {
                name: {
                    "observed": t.observed,
                    "quantile_rank": t.quantile_rank,
                    "flagged": t.flagged,
                    "inconsistency": tests.inconsistency[name],
                    "n_recruiters": tests.n_recruiters[name],
                }
                for name, t in _fields(tests, drop=("inconsistency", "n_recruiters")).items()
            },
        }

    def motivation_outcomes() -> list[dict[str, Any]]:
        categories = sorted(
            {r.motivation for r in ds.respondents if r.motivation is not None}
        )
        outcomes = [
            _attempt(behavior.motivation_outcome, ds, category, trait)
            for trait in traits
            for category in categories
        ]
        outcomes = [mo for mo in outcomes if _ran(mo)]
        if outcomes:
            svg = render_plot(
                "motivation-outcome",
                {
                    "title": "Motivation vs outcome",
                    "rows": [
                        (f"{mo.motivation_category} / {mo.outcome_trait}",
                         mo.odds_ratio, *mo.interval)
                        for mo in outcomes
                    ],
                },
            )
            writer.write_text("motivation_outcome.svg", svg)
        return [
            {
                "motivation": mo.motivation_category,
                "trait": mo.outcome_trait,
                "table": mo.table,
                "odds_ratio": mo.odds_ratio,
                "ci_low": mo.interval[0],
                "ci_high": mo.interval[1],
            }
            for mo in outcomes
        ]

    return {
        "reciprocation_rate": _attempt(behavior.reciprocation_rate, ds),
        "network_reciprocity": _attempt(reciprocity),
        "effectiveness": effectiveness(),
        "recruitment_bias": _attempt(bias),
        "nonresponse": _attempt(behavior.nonresponse_rates, ds, forest),
        "reasons": _attempt(
            lambda: dict(zip(("refusal", "motivation"), behavior.reason_tables(ds)))
        ),
        "motivation_outcome": _attempt(motivation_outcomes),
    }


def _section_degree(writer, ds, forest, traits, cfg: PipelineConfig) -> dict[str, Any]:
    def windows() -> dict[str, Any]:
        tw = degree.time_window_stats(ds, forest)
        return _fields(tw, drop=("days_to_distribute", "interview_gaps"))

    def sensitivity() -> list[Any] | dict[str, Any]:
        rows = {
            trait: _attempt(degree.estimate_sensitivity, ds, trait, cfg.degree_question)
            for trait in traits
        }
        estimated = [r for r in rows.values() if _ran(r)]
        if traits and not estimated:
            return rows[traits[0]]  # every trait skipped: the first one's reason
        svg = render_plot(
            "sensitivity-pairs",
            {
                "title": "Estimate sensitivity to degree wave",
                "rows": [(r.trait, r.estimate_test, r.estimate_retest) for r in estimated],
            },
        )
        writer.write_text("sensitivity_pairs.svg", svg)
        return [r if _ran(r) else {"trait": trait, **r} for trait, r in rows.items()]

    return {
        "time_windows": _attempt(windows),
        "test_retest": _attempt(degree.test_retest_stats, ds, cfg.degree_question),
        "sensitivity": _attempt(sensitivity),
        "trend": _attempt(
            lambda: degree.degree_trend(ds, degree_question=cfg.degree_question)
        ),
    }


def _section_finitepop(ds) -> dict[str, Any]:
    def failed_attempts() -> dict[str, Any]:
        fa = finitepop.failed_attempts_indicator(ds)
        return {
            **_fields(fa, drop=("band_0", "band_1_3", "band_4_plus")),
            "bands": {"0": fa.band_0, "1-3": fa.band_1_3, "4+": fa.band_4_plus},
        }

    def participants_known() -> dict[str, Any]:
        tr = finitepop.participants_known_trend(ds)
        return {
            "slope": tr.slope,
            "flagged": tr.flagged,
            "n": len(tr.orders),
            "n_excluded_zero_degree": tr.n_excluded_zero_degree,
        }

    # the summary reads each flag off its entry: None when the entry is skipped
    failed = _attempt(failed_attempts)
    known = _attempt(participants_known)
    target = ds.target_sample_size
    return {
        "summary": {
            "attainment_failed": None if target is None else ds.n < target,
            "failed_attempts_flag": failed.get("flagged"),
            "participants_known_trend_flag": known.get("flagged"),
        },
        "failed_attempts": failed,
        "participants_known": known,
    }
