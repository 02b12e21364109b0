"""End-to-end diagnostic pipeline: runs every enabled analysis, writes the
SVG figures and CSV tables, and assembles a hashed JSON bundle.

All output is deterministic: sections return their raw results whole, and
one pass (``_jsonable``) turns them into the bundle form with every float
rounded to 6 significant digits; JSON keys are sorted, and every random step
derives from the configured seed.  Diagnostic flags are results, not errors — the
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

from . import behavior, bottleneck, convergence, degree, estimators, finitepop, svg
from .dataset import DEGREE_QUESTIONS, StudyDataset, validate_dataset
from .errors import DataRequirementError, TooFewTrees, UnrealizableConfig
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
    out_dir: Path
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
        if not str(self.out_dir):  # Path("") would be the working directory
            raise UnrealizableConfig("out_dir: empty path")
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


def _fields(result: Any) -> dict[str, Any]:
    """A result dataclass's fields as a dict."""
    return {f.name: getattr(result, f.name) for f in fields(result)}


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
        _make_out_dir(out_dir)

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


def _make_out_dir(out_dir: Path) -> None:
    """Create ``out_dir`` and its parents as needed; a path that cannot be
    made a directory (a file is in the way, or no permission) raises
    ``UnrealizableConfig`` naming it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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
    it.  Every section, sub-diagnostic and per-trait entry goes through here,
    so a shortfall costs only the entry that needed the missing data."""
    try:
        return fn(*args)
    except DataRequirementError as exc:
        return {"skipped": str(exc)}


def _ran(result: Any) -> bool:
    return not (isinstance(result, dict) and "skipped" in result)


def run_pipeline(ds: StudyDataset, cfg: PipelineConfig) -> ReportBundle:
    """Execute all enabled diagnostics on the loaded study ``ds`` and write
    the output tree.

    Raises config errors; a data-requirement shortfall is recorded as
    ``{"skipped": reason}`` at the narrowest level it hits (trait,
    sub-diagnostic or section) instead of aborting the run."""
    traits = (
        tuple(dict.fromkeys(cfg.traits))
        if cfg.traits is not None
        else tuple(s.name for s in ds.trait_specs)
    )
    if "converge" in cfg.sections or "bottleneck" in cfg.sections:
        _check_figure_names(traits)

    # each trait's included sample is built once and shared by the sections;
    # an unknown trait raises on every lookup, so each entry records it
    sample_of = functools.cache(
        functools.partial(estimators.included_sample, ds, degree_question=cfg.degree_question)
    )
    if "estimate" in cfg.sections:
        _check_population_sizes(traits, cfg.population_sizes, sample_of)

    writer = _Writer(Path(cfg.out_dir))
    bundle = ReportBundle(dataset_summary=dataset_summary(ds), sections={})

    writer.write_csv(
        "edges.csv", ["child_id", "parent_id", "wave", "tree_root"], edge_rows(ds)
    )
    _render_chains_figure(writer, ds, traits)

    runners = {
        "estimate": lambda: _section_estimate(writer, traits, cfg, sample_of),
        "converge": lambda: _section_converge(writer, traits, cfg, sample_of),
        "bottleneck": lambda: _section_bottleneck(writer, traits, cfg, sample_of),
        "behavior": lambda: _section_behavior(writer, ds, traits, cfg),
        "degree": lambda: _section_degree(writer, ds, traits, cfg, sample_of),
        "finitepop": lambda: _section_finitepop(ds),
    }
    for name in cfg.sections:
        bundle.sections[name] = _jsonable(_attempt(runners[name]))

    # flag grid over per-trait verdicts from the convergence and bottleneck
    # sections (cells are None when a section was skipped for that trait)
    conv = bundle.sections.get("converge", {})
    bott = bundle.sections.get("bottleneck", {})
    flag_rows = [
        (trait, _lookup_flag(conv, trait), _lookup_flag(bott, trait)) for trait in traits
    ]
    if flag_rows and ("converge" in cfg.sections or "bottleneck" in cfg.sections):
        grid_svg = svg.flag_grid(
            title=f"Flags: {ds.site_label}",
            row_labels=[r[0] for r in flag_rows],
            col_labels=["convergence", "bottleneck"],
            cells=[[r[1], r[2]] for r in flag_rows],
        )
        writer.write_text("flag_grid.svg", grid_svg)
        writer.write_csv(
            "flag_grid.csv",
            ["trait", "convergence_flag", "bottleneck_flag"],
            flag_rows,
        )

    bundle.manifest = dict(sorted(writer.manifest.items()))
    writer.write_text("bundle.json", bundle.to_json())
    return bundle


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


def dataset_summary(ds: StudyDataset) -> dict[str, Any]:
    """Size, shape and ``validate_dataset`` counts of the study, as the
    bundle and ``rdsdiag ingest`` report them."""
    report = validate_dataset(ds)
    waves = [ds.forest.wave[r.id] for r in ds.respondents]
    return {
        "site": ds.site_label,
        "n": ds.n,
        "n_seeds": len(ds.seeds()),
        "n_trees": len(ds.forest.roots),
        "max_wave": max(waves) if waves else 0,
        "coupon_allotment": ds.coupon_allotment,
        "traits": [s.name for s in ds.trait_specs],
        "validation": {
            "funnel_violations": report.funnel_violations,
            "truncations_applied": report.truncations_applied,
            "inconsistent_reach": report.inconsistent_reach,
            "missing_traits": dict(sorted(report.missing_traits.items())),
            "n_warnings": len(ds.repairs),
        },
    }


def _safe_name(trait: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in trait)


def _render_chains_figure(writer: _Writer, ds: StudyDataset, traits: Sequence[str]) -> None:
    """Chains coloured by the first requested trait the dataset defines."""
    defined = {s.name for s in ds.trait_specs}
    trait = next((t for t in traits if t in defined), None)
    figure = svg.chains(
        title=f"Recruitment chains: {ds.site_label}",
        roots=ds.forest.roots,
        children=ds.forest.children,
        wave=ds.forest.wave,
        trait=dict(zip((r.id for r in ds.respondents), ds.indicators(trait))) if trait else {},
    )
    writer.write_text("chains.svg", figure)


def _section_estimate(writer, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    def estimate(trait: str) -> dict[str, Any]:
        sample = sample_of(trait)
        vh = float(estimators.cumulative_estimates(sample)[-1])
        entry: dict[str, Any] = {"vh": vh, "n_included": len(sample)}
        if cfg.population_sizes:
            ss = [estimators.ss_estimate(sample, size) for size in cfg.population_sizes]
            entry["ss"] = [
                {"population_size": size, "ss": s, "difference": s - vh,
                 "flagged": abs(s - vh) > SS_FLAG_THRESHOLD}
                for size, s in zip(cfg.population_sizes, ss)
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
    def converge(trait: str) -> dict[str, Any]:
        sample = sample_of(trait)
        if not len(sample):
            return {"evaluable": False}
        values = estimators.cumulative_estimates(sample)
        verdict = convergence.convergence_flag(values, cfg.tau, cfg.epsilon)
        figure = svg.convergence(title=f"Convergence: {trait}", orders=sample.orders,
                                 values=values, positive=sample.y == 1.0)
        writer.write_text(f"convergence_{_safe_name(trait)}.svg", figure)
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
    samples = {trait: _attempt(sample_of, trait) for trait in traits}
    built = [trait for trait in traits if _ran(samples[trait])]
    # one call, so that traits of one included size share each drawn block
    tests = dict(zip(built, bottleneck.wsd_permutation_tests(
        [samples[trait] for trait in built],
        replicates=cfg.replicates,
        threshold=cfg.threshold,
        rng_seed=cfg.rng_seed,
    )))

    def figures(trait: str) -> bottleneck.PermutationResult:
        sample, result = samples[trait], tests[trait]
        if isinstance(result, TooFewTrees):
            raise result
        series = estimators.per_tree_series(sample)
        figure = svg.bottleneck(title=f"Bottleneck: {trait}", series=series)
        writer.write_text(f"bottleneck_{_safe_name(trait)}.svg", figure)
        figure = svg.all_points(title=f"All points: {trait}", roots=sample.roots,
                                tree=sample.tree, positive=sample.y == 1.0)
        writer.write_text(f"allpoints_{_safe_name(trait)}.svg", figure)
        return result

    per_trait = {
        trait: _attempt(figures, trait) if trait in tests else samples[trait] for trait in traits
    }
    columns = ("observed_wsd", "quantile_rank", "flagged")
    writer.write_csv(
        "bottleneck.csv",
        ["trait", *columns],
        [(trait, *(getattr(e, c, None) for c in columns)) for trait, e in per_trait.items()],
    )
    return {"threshold": cfg.threshold, "per_trait": per_trait}


def _section_behavior(writer, ds, traits, cfg: PipelineConfig) -> dict[str, Any]:
    def effectiveness() -> dict[str, Any]:
        results = {
            trait: _attempt(behavior.recruitment_effectiveness, ds, trait) for trait in traits
        }
        ran = [(trait, e) for trait, e in results.items() if _ran(e)]
        if ran:
            trait, e = ran[0]
            figure = svg.bars(
                title=f"Mean recruits by {trait}",
                labels=[f"{trait}+", f"{trait}-"],
                values=[
                    0.0 if math.isnan(e.mean_recruits_positive) else e.mean_recruits_positive,
                    0.0 if math.isnan(e.mean_recruits_negative) else e.mean_recruits_negative,
                ],
            )
            writer.write_text("effectiveness.svg", figure)
        return results

    def bias() -> dict[str, Any]:
        levels = behavior.recruitment_bias_levels(ds)
        tests = behavior.recruitment_bias_tests(ds, threshold=cfg.threshold)
        figure = svg.bars(
            title="Attribute share by level",
            labels=["contacts", "recipients", "recruits"],
            values=[100.0 * levels.contacts, 100.0 * levels.recipients, 100.0 * levels.recruits],
        )
        writer.write_text("bias.svg", figure)
        return {"levels": levels, "tests": tests}

    def motivation_outcomes() -> list[behavior.MotivationOutcome]:
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
            figure = svg.motivation_outcome(
                title="Motivation vs outcome",
                rows=[
                    (f"{mo.motivation} / {mo.trait}", mo.odds_ratio, mo.ci_low, mo.ci_high)
                    for mo in outcomes
                ],
            )
            writer.write_text("motivation_outcome.svg", figure)
        return outcomes

    return {
        "reciprocation_rate": _attempt(behavior.reciprocation_rate, ds),
        "network_reciprocity": _attempt(behavior.network_reciprocity_stats, ds),
        "effectiveness": effectiveness(),
        "recruitment_bias": _attempt(bias),
        "nonresponse": _attempt(behavior.nonresponse_rates, ds),
        "reasons": _attempt(behavior.reason_tables, ds),
        "motivation_outcome": _attempt(motivation_outcomes),
    }


def _section_degree(writer, ds, traits, cfg: PipelineConfig, sample_of) -> dict[str, Any]:
    def estimate_sensitivity(trait: str) -> degree.SensitivityRow:
        return degree.estimate_sensitivity(ds, sample_of(trait), cfg.degree_question)

    def sensitivity() -> list[Any] | dict[str, Any]:
        rows = {trait: _attempt(estimate_sensitivity, trait) for trait in traits}
        estimated = [r for r in rows.values() if _ran(r)]
        if traits and not estimated:
            return rows[traits[0]]  # every trait skipped: the first one's reason
        figure = svg.sensitivity_pairs(
            title="Estimate sensitivity to degree wave",
            rows=[(r.trait, r.estimate_test, r.estimate_retest) for r in estimated],
        )
        writer.write_text("sensitivity_pairs.svg", figure)
        return [r if _ran(r) else {"trait": trait, **r} for trait, r in rows.items()]

    def trend() -> list[Any] | dict[str, Any]:
        # one fit per method, so that a shortfall (the log-linear fit's
        # positive degrees) skips only the method that needed the data
        fits = {
            m: _attempt(degree.degree_trend, ds, m, cfg.degree_question)
            for m in degree.TREND_METHODS
        }
        if not any(map(_ran, fits.values())):
            return fits[degree.TREND_METHODS[0]]  # every method skipped: the first reason
        return [fit if _ran(fit) else {"method": m, **fit} for m, fit in fits.items()]

    return {
        "time_windows": _attempt(degree.time_window_stats, ds),
        "test_retest": _attempt(degree.test_retest_stats, ds, cfg.degree_question),
        "sensitivity": _attempt(sensitivity),
        "trend": trend(),
    }


def _section_finitepop(ds) -> dict[str, Any]:
    failed = _attempt(finitepop.failed_attempts_indicator, ds)
    known = _attempt(finitepop.participants_known_trend, ds)
    # the summary reads each flag off its entry: None when the entry is skipped
    return {
        "summary": {
            "failed_attempts_flag": getattr(failed, "flagged", None),
            "participants_known_trend_flag": getattr(known, "flagged", None),
        },
        "failed_attempts": failed,
        "participants_known": known,
    }
