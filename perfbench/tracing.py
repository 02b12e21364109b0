"""Span tracing around the public functions of each ``rdsdiag`` module.

``instrument`` wraps every public function of the analysis modules, plus the
report writer, so that each call records a span (name, start, end, parent)
and bumps a call counter.  ``StudyDataset.indicator`` is called hundreds of
thousands of times per report, so it is counted but records no span.  Spans
stay in memory and are written once, when the traced run ends.

``layer_times`` turns the spans into per-layer self time: a span's duration
minus the time its direct child spans cover.  Each span belongs to exactly
one layer, so the layers plus the unattributed remainder add up to the
traced wall time.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from types import ModuleType
from typing import Any, Callable

# Spans that only structure the run; their self time is glue, not a layer.
STRUCTURAL = ("cli.main", "report.run_pipeline")

# Span name -> layer, for spans that do not take their module's default.
_LAYER_OF = {
    "dataset.load_traits": "dataset.load",
    "dataset.load_dataset": "dataset.load",
    "dataset.validate_dataset": "dataset.validate",
    "dataset.reach_inconsistent": "degree.section",
    "forest.build_forest": "forest.build",
    "forest.included_in_tree": "forest.included_in_tree",
    "forest.interview_gap_days": "degree.section",
    "forest.export_edges": "report.self",
    "estimators.ss_inclusion_weights": "estimators.ss",
    "bottleneck.all_points_data": "bottleneck.all_points",
    "behavior.recruitment_bias_tests": "behavior.bias_tests",
    "behavior.exact_odds_ratio_interval": "behavior.exact_ci",
    "report._Writer.write_text": "report.self",
    "report._Writer.write_csv": "report.self",
    "report.ReportBundle.to_json": "report.self",
}

# Modules whose public functions are layer boundaries, with their default
# layer.  ``sim`` and ``cli`` are left out: the first only generates inputs,
# the second is the root span.
_MODULE_LAYER = {
    "dataset": "dataset.validate",
    "forest": "forest.build",
    "estimators": "estimators.vh",
    "convergence": "convergence.batch",
    "bottleneck": "bottleneck.permutation",
    "behavior": "behavior.other",
    "degree": "degree.section",
    "finitepop": "finitepop.section",
    "svg": "svg.render",
    "report": "report.self",
}

LAYERS = tuple(dict.fromkeys(list(_LAYER_OF.values()) + list(_MODULE_LAYER.values())))


def layer_of(span_name: str) -> str:
    return _LAYER_OF.get(span_name) or _MODULE_LAYER[span_name.split(".", 1)[0]]


class Tracer:
    """Records nested spans and call counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self.counts: Counter[str] = Counter()
        self.ss_converged = 0
        self.replicates = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            counts[name] += 1
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result: Any) -> None:
        if name == "estimators.ss_inclusion_weights" and result[1] is True:
            self.ss_converged += 1
        elif name == "bottleneck.wsd_permutation_test":
            self.replicates += result.replicates

    def to_json(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
            "ss_converged": self.ss_converged,
            "replicates": self.replicates,
        }


def _public_functions(module: ModuleType) -> list[str]:
    return sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    )


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the already imported ``rdsdiag``."""
    from rdsdiag import dataset, report

    replaced: dict[int, Callable[..., Any]] = {}
    for short in _MODULE_LAYER:
        module = sys.modules[f"rdsdiag.{short}"]
        for name in _public_functions(module):
            fn = getattr(module, name)
            replaced[id(fn)] = tracer.wrap(f"{short}.{name}", fn)
    # names imported with ``from .x import f`` are bound in other modules too
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "rdsdiag" or mod_name.startswith("rdsdiag."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    for cls, method in (
        (report._Writer, "write_text"),
        (report._Writer, "write_csv"),
        (report.ReportBundle, "to_json"),
    ):
        setattr(cls, method, tracer.wrap(f"report.{cls.__name__}.{method}", getattr(cls, method)))

    indicator = dataset.StudyDataset.indicator
    counts = tracer.counts

    def counted_indicator(self: Any, resp: Any, trait: str) -> Any:
        counts["dataset.indicator"] += 1
        return indicator(self, resp, trait)

    dataset.StudyDataset.indicator = counted_indicator  # type: ignore[method-assign]


def self_times(spans: list[list[Any]]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_times(spans: list[list[Any]]) -> tuple[dict[str, float], float]:
    """Self time per layer, and the wall time of the root span."""
    totals = {layer: 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        if span[0] not in STRUCTURAL:
            totals[layer_of(span[0])] += own
    roots = [end - start for _, start, end, parent in spans if parent < 0]
    return totals, sum(roots)
