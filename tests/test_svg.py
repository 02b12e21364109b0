import math
import xml.etree.ElementTree as ET
from collections import Counter
from typing import Mapping, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdsdiag import svg
from rdsdiag.errors import DataRequirementError

# one figure per family, keyed by the figure it draws in a report
FIGURES = {
    "chains": (svg.chains, {
        "title": "Chains",
        "roots": ["S"],
        "children": {"S": ["a", "b"], "a": ["c"]},
        "wave": {"S": 0, "a": 1, "b": 1, "c": 2},
        "trait": {"S": True, "a": False, "b": None, "c": True},
    }),
    "convergence": (svg.convergence, {
        "title": "Convergence",
        "orders": [1, 2, 3, 4],
        "values": [1.0, 0.5, 0.4, 0.45],
        "positive": [True, False, False, True],
    }),
    "bottleneck": (svg.bottleneck, {
        "title": "Bottleneck",
        "series": {"S1": ([1, 3], [1.0, 0.5]), "S2": ([2, 4], [0.0, 0.25])},
    }),
    "all-points": (svg.all_points, {
        "title": "All points",
        "roots": ["S1", "S2"],
        "tree": [0, 1, 0],
        "positive": [True, False, False],
    }),
    "flag-grid": (svg.flag_grid, {
        "title": "Flags",
        "row_labels": ["hiv", "employed"],
        "col_labels": ["convergence", "bottleneck"],
        "cells": [[True, False], [None, False]],
    }),
    "effectiveness": (svg.bars, {
        "title": "Effectiveness", "labels": ["positive", "negative"], "values": [0.5, 2.0],
    }),
    "bias": (svg.bars, {
        "title": "Bias", "labels": ["contacts", "recipients", "recruits"],
        "values": [0.4, 0.6, 0.7],
    }),
    "motivation-outcome": (svg.motivation_outcome, {
        "title": "Odds ratios",
        "rows": [("Incentive", 2.0, 0.8, 5.0), ("Other", math.inf, 1.2, math.inf)],
    }),
    "sensitivity-pairs": (svg.sensitivity_pairs, {
        "title": "Sensitivity", "rows": [("hiv", 0.4, 0.45), ("employed", 0.7, 0.6)],
    }),
}


# what each figure raises with nothing to draw
EMPTY_MESSAGES = {
    "chains": "chains plot needs at least one root",
    "convergence": "convergence plot needs a nonempty series",
    "bottleneck": "bottleneck plot needs at least one tree series",
    "all-points": "all-points plot needs rows",
    "flag-grid": "flag-grid needs row and column labels",
    "effectiveness": "bar chart needs labels and values",
    "bias": "bar chart needs labels and values",
    "motivation-outcome": "motivation-outcome plot needs rows",
    "sensitivity-pairs": "sensitivity-pairs plot needs rows",
}


def _draw(kind):
    figure, kwargs = FIGURES[kind]
    return figure(**kwargs)


@pytest.mark.parametrize("kind", FIGURES)
def test_empty_data(kind):
    figure, kwargs = FIGURES[kind]
    empty = {k: v if k == "title" else type(v)() for k, v in kwargs.items()}
    with pytest.raises(DataRequirementError, match=EMPTY_MESSAGES[kind]):
        figure(**empty)


@pytest.mark.parametrize("kind", FIGURES)
def test_all_kinds_well_formed_xml(kind):
    root = ET.fromstring(_draw(kind))
    assert root.tag.endswith("svg")
    assert len(root) > 1


@pytest.mark.parametrize("kind", FIGURES)
def test_byte_determinism(kind):
    assert _draw(kind).encode() == _draw(kind).encode()


def test_chains_element_counts():
    root = ET.fromstring(_draw("chains"))
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    lines = root.findall(f"{ns}line")
    assert len(circles) == 4  # one marker per respondent
    assert len(lines) == 3  # one edge per recruitment
    # seed drawn larger than recruits
    radii = sorted(float(c.get("r")) for c in circles)
    assert radii[-1] > radii[0]


def test_chains_trait_colors():
    root = ET.fromstring(_draw("chains"))
    ns = "{http://www.w3.org/2000/svg}"
    fills = [c.get("fill") for c in root.findall(f"{ns}circle")]
    assert "#c43c39" in fills  # positive
    assert "#4472a8" in fills  # negative
    assert "#bbbbbb" in fills  # missing


def test_convergence_reference_line_at_final():
    root = ET.fromstring(
        svg.convergence(title="c", orders=[1, 2, 3], values=[0.7, 0.7, 0.7],
                        positive=[False, True, False])
    )
    ns = "{http://www.w3.org/2000/svg}"
    white = [l for l in root.findall(f"{ns}line") if l.get("stroke") == "#ffffff"]
    assert len(white) == 1
    series = root.findall(f"{ns}polyline")[0]
    ys = {p.split(",")[1] for p in series.get("points").split()}
    assert ys == {white[0].get("y1")}  # constant series sits on the reference


def test_flag_grid_cell_colors():
    root = ET.fromstring(_draw("flag-grid"))
    ns = "{http://www.w3.org/2000/svg}"
    fills = [r.get("fill") for r in root.findall(f"{ns}rect")]
    assert fills.count("#c43c39") == 1  # one flagged cell
    assert fills.count("#f2f2f2") == 2  # two clear cells
    assert fills.count("#bbbbbb") == 1  # one not-evaluable cell


def test_motivation_outcome_unbounded_dashed():
    root = ET.fromstring(_draw("motivation-outcome"))
    ns = "{http://www.w3.org/2000/svg}"
    interval_lines = [
        l for l in root.findall(f"{ns}line") if l.get("stroke") == "#1f6fb2"
    ]
    assert len(interval_lines) == 2
    dashes = [l.get("stroke-dasharray") for l in interval_lines]
    assert dashes.count("3 3") == 1  # only the unbounded interval is dashed


def test_six_significant_digit_floats():
    figure = svg.convergence(title="c", orders=[1, 2], values=[1 / 3, 2 / 3],
                             positive=[True, False])
    for token in figure.split():
        frag = token.split("=")[-1].strip('"')
        for piece in frag.replace(",", " ").split():
            if piece.replace(".", "").replace("-", "").isdigit() and "." in piece:
                assert len(piece.replace("-", "").replace(".", "").lstrip("0")) <= 6


def _chain(depth):
    """One seed heading a single chain of ``depth`` waves below it."""
    ids = [f"n{i}" for i in range(depth + 1)]
    return {
        "roots": ids[:1],
        "children": {parent: (child,) for parent, child in zip(ids, ids[1:])},
        "wave": {rid: i for i, rid in enumerate(ids)},
    }


def test_chains_deep_chain():
    root = ET.fromstring(svg.chains(title="deep", trait={}, **_chain(3000)))
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    assert len(circles) == 3001
    assert len(root.findall(f"{ns}line")) == 3000
    # one leaf: every node sits over its only slot
    assert {c.get("cx") for c in circles} == {circles[0].get("cx")}


def test_chains_leaves_left_to_right_parents_centered():
    root = ET.fromstring(svg.chains(
        title="t", roots=["S", "T"],
        children={"S": ("a", "b"), "a": ("c", "d", "e")},
        wave={"S": 0, "T": 0, "a": 1, "b": 1, "c": 2, "d": 2, "e": 2}, trait={},
    ))
    ns = "{http://www.w3.org/2000/svg}"
    # circles are drawn in id order: S T a b c d e
    x = dict(zip("STabcde", (float(c.get("cx")) for c in root.findall(f"{ns}circle"))))
    assert x["c"] < x["d"] < x["e"] < x["b"] < x["T"]
    assert x["a"] == pytest.approx(x["d"])
    assert x["S"] == pytest.approx((x["a"] + x["b"]) / 2)


# -- the per-mark renderer, kept as the oracle --------------------------------
#
# Each figure family must return exactly the string this renderer returns. It
# maps and formats one number at a time through ``_Scale`` and ``_f``; svg.py
# maps each mark family's coordinates as one array and formats them with one
# template.

_STYLE, _TREE_PALETTE = svg._STYLE, svg._TREE_PALETTE


def _f(x: float) -> str:
    """Fixed numeric formatting: 6 significant digits, no negative zero."""
    if x == 0:
        x = 0.0
    return f"{float(x):.6g}"


class _Canvas:
    """Accumulates SVG elements in insertion order."""

    def __init__(self):
        width, height = _STYLE["width"], _STYLE["height"]
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(width)}" '
            f'height="{_f(height)}" viewBox="0 0 {_f(width)} {_f(height)}">',
            f'<rect x="0" y="0" width="{_f(width)}" height="{_f(height)}" '
            f'fill="{_STYLE["background"]}"/>',
        ]

    def line(self, x1, y1, x2, y2, color, width=1.0, dash: Optional[str] = None):
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{color}" stroke-width="{_f(width)}"{dash_attr}/>'
        )

    def rect(self, x, y, w, h, fill, stroke: Optional[str] = None):
        stroke_attr = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" '
            f'fill="{fill}"{stroke_attr}/>'
        )

    def circle(self, cx, cy, r, fill, stroke: Optional[str] = None):
        stroke_attr = f' stroke="{stroke}"' if stroke else ""
        self.parts.append(
            f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" '
            f'fill="{fill}"{stroke_attr}/>'
        )

    def polyline(self, points: Sequence[tuple[float, float]], color, width=1.5):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{_f(width)}"/>'
        )

    def text(self, x, y, s, anchor="start", size=None):
        size = size if size is not None else _STYLE["font_size"]
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" font-family="{_STYLE["font"]}" '
            f'font-size="{_f(size)}" fill="{_STYLE["axis_color"]}" '
            f'text-anchor="{anchor}">{_escape(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Scale:
    """Affine data-to-pixel map; degenerate spans get a centered band."""

    def __init__(self, lo: float, hi: float, px_lo: float, px_hi: float):
        if hi <= lo:
            lo, hi = lo - 0.5, hi + 0.5
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi

    def __call__(self, v: float) -> float:
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


# -- chains ------------------------------------------------------------------


def oracle_chains(
    title: str,
    roots: Sequence[str],
    children: Mapping[str, Sequence[str]],
    wave: Mapping[str, int],
    trait: Mapping[str, Optional[bool]],
) -> str:
    """Recruitment forest: roots on top, one column slot per leaf, parents
    centered over their children.  Colored by trait value (None: missing)."""
    if not roots:
        raise DataRequirementError("chains plot needs at least one root")

    # an explicit stack places a chain of any depth: leaves take their slots
    # left to right, and a parent is placed once its children are
    xs: dict[str, float] = {}
    slot = 0.0
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, kids_placed = stack.pop()
            kids = children.get(node, ())
            if kids and not kids_placed:
                stack += [(node, True), *((k, False) for k in reversed(kids))]
            elif kids:
                xs[node] = sum(xs[k] for k in kids) / len(kids)
            else:
                xs[node], slot = slot, slot + 1.0
        slot += 0.8  # gap between trees

    max_wave = max(wave.values()) if wave else 0
    m = _STYLE["margin"]
    canvas = _Canvas()
    sx = _Scale(-0.5, max(slot - 0.8, 0.5), m, _STYLE["width"] - m)
    sy = _Scale(-0.5, max_wave + 0.5, m, _STYLE["height"] - m)

    for node, kids in sorted(children.items()):
        for kid in kids:
            canvas.line(
                sx(xs[node]), sy(wave.get(node, 0)),
                sx(xs[kid]), sy(wave.get(kid, 0)),
                _STYLE["axis_color"], 0.8,
            )
    for node in sorted(xs):
        val = trait.get(node)
        if val is None:
            fill = _STYLE["na_color"]
        else:
            fill = _STYLE["positive_color"] if val else _STYLE["negative_color"]
        r = 5.0 if node in roots else 3.0
        canvas.circle(sx(xs[node]), sy(wave.get(node, 0)), r, fill, _STYLE["axis_color"])
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- convergence -------------------------------------------------------------


def oracle_convergence(
    title: str,
    orders: Sequence[int],
    values: Sequence[float],
    indicators: Sequence[tuple[int, bool]],
) -> str:
    """Cumulative estimate with final-estimate reference line and trait rugs
    along the header (positives) and footer (negatives)."""
    if not orders or not values:
        raise DataRequirementError("convergence plot needs a nonempty series")
    final = float(values[-1])

    m = _STYLE["margin"]
    rug = 14.0
    canvas = _Canvas()
    sx = _Scale(min(orders), max(orders), m, _STYLE["width"] - m)
    sy = _Scale(0.0, 1.0, _STYLE["height"] - m - rug, m + rug)

    # plot frame and the shaded band the white reference line sits on
    canvas.rect(m, m + rug, _STYLE["width"] - 2 * m, _STYLE["height"] - 2 * (m + rug),
                "#d9e4ee", _STYLE["axis_color"])
    canvas.line(m, sy(final), _STYLE["width"] - m, sy(final), _STYLE["reference_color"], 2.0)
    canvas.polyline([(sx(o), sy(v)) for o, v in zip(orders, values)],
                    _STYLE["series_color"])

    for order, flag in indicators:
        if flag:
            canvas.line(sx(order), m, sx(order), m + rug - 2, _STYLE["positive_color"], 1.0)
        else:
            canvas.line(sx(order), _STYLE["height"] - m - rug + 2, sx(order),
                        _STYLE["height"] - m, _STYLE["negative_color"], 1.0)

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.text(m - 6, sy(tick) + 4, _f(tick), anchor="end")
    canvas.text(m, m / 2, title)
    canvas.text(_STYLE["width"] - m, m / 2, f"final={_f(final)}", anchor="end")
    return canvas.render()


# -- bottleneck --------------------------------------------------------------


def oracle_bottleneck(
    title: str,
    series: Mapping[str, tuple[Sequence[int], Sequence[float]]],
) -> str:
    """Per-tree cumulative estimates (orders, values), with a composition
    panel on the left (each tree's count and share of the plotted values)
    and per-tree final estimates ticked on the right axis."""
    if not series:
        raise DataRequirementError("bottleneck plot needs at least one tree series")

    m = _STYLE["margin"]
    panel_w = 70.0
    x0 = m + panel_w + 12.0
    canvas = _Canvas()

    all_orders = [o for orders, _ in series.values() for o in orders]
    sx = _Scale(min(all_orders), max(all_orders), x0, _STYLE["width"] - m)
    sy = _Scale(0.0, 1.0, _STYLE["height"] - m, m)
    canvas.rect(x0, m, _STYLE["width"] - m - x0, _STYLE["height"] - 2 * m, "none",
                _STYLE["axis_color"])

    roots = sorted(series)
    composition = {root: len(values) for root, (_, values) in series.items()}
    total = sum(composition.values())
    y_cursor = m
    panel_h = _STYLE["height"] - 2 * m
    for i, root in enumerate(roots):
        color = _TREE_PALETTE[i % len(_TREE_PALETTE)]
        share = composition[root] / total
        h = share * panel_h
        canvas.rect(m, y_cursor, panel_w, h, color, _STYLE["axis_color"])
        if h >= _STYLE["font_size"] + 2:
            canvas.text(m + 4, y_cursor + h / 2 + 4, f"{root}:{composition[root]}", size=9)
        y_cursor += h
        orders, values = series[root]
        canvas.polyline([(sx(o), sy(v)) for o, v in zip(orders, values)], color)
        if values:
            final = float(values[-1])
            canvas.line(_STYLE["width"] - m, sy(final), _STYLE["width"] - m + 8, sy(final),
                        color, 2.0)
            canvas.text(_STYLE["width"] - m + 10, sy(final) + 4, _f(final), size=9)
    for tick in (0.0, 0.5, 1.0):
        canvas.text(x0 - 6, sy(tick) + 4, _f(tick), anchor="end")
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- all points --------------------------------------------------------------


def oracle_all_points(title: str, rows: Sequence[tuple[str, bool]]) -> str:
    """Trait values by tree row and within-tree sample order, one (tree,
    has_trait) row per respondent: filled markers for trait-positive
    respondents, open markers otherwise."""
    if not rows:
        raise DataRequirementError("all-points plot needs rows")
    counts = Counter(tree for tree, _ in rows)
    trees = sorted(counts)
    tree_index = {t: i for i, t in enumerate(trees)}
    per_tree_pos: dict[str, int] = {t: 0 for t in trees}

    m = _STYLE["margin"]
    canvas = _Canvas()
    max_len = max(counts.values())
    sx = _Scale(0.5, max(max_len, 2) + 0.5, m + 40, _STYLE["width"] - m)
    sy = _Scale(-0.5, len(trees) - 0.5, m, _STYLE["height"] - m)

    for t in trees:
        y = sy(tree_index[t])
        canvas.text(m, y + 4, t, size=9)
        canvas.line(m + 36, y, _STYLE["width"] - m, y, "#dddddd", 0.5)
    for tree, has_trait in rows:
        per_tree_pos[tree] += 1
        x = sx(per_tree_pos[tree])
        y = sy(tree_index[tree])
        if has_trait:
            canvas.circle(x, y, 3.0, _STYLE["positive_color"])
        else:
            canvas.circle(x, y, 3.0, _STYLE["background"], _STYLE["negative_color"])
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- flag grid ---------------------------------------------------------------


def oracle_flag_grid(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    cells: Sequence[Sequence[Optional[bool]]],
) -> str:
    """Matrix of verdicts: red = flagged, light = clear, grey = not
    evaluable."""
    if not row_labels or not col_labels:
        raise DataRequirementError("flag-grid needs row and column labels")

    m = _STYLE["margin"]
    label_w = 110.0
    grid_x0, grid_y0 = m + label_w, m + 24.0
    cell_w = (_STYLE["width"] - grid_x0 - m) / len(col_labels)
    cell_h = (_STYLE["height"] - grid_y0 - m) / len(row_labels)
    canvas = _Canvas()

    for j, col in enumerate(col_labels):
        canvas.text(grid_x0 + (j + 0.5) * cell_w, grid_y0 - 8, col,
                    anchor="middle", size=9)
    for i, row in enumerate(row_labels):
        canvas.text(m, grid_y0 + (i + 0.5) * cell_h + 4, row, size=9)
        for j in range(len(col_labels)):
            value = cells[i][j]
            if value is None:
                fill = _STYLE["na_color"]
            elif value:
                fill = _STYLE["flag_color"]
            else:
                fill = _STYLE["ok_color"]
            canvas.rect(grid_x0 + j * cell_w, grid_y0 + i * cell_h,
                        cell_w, cell_h, fill, _STYLE["axis_color"])
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- bar charts (effectiveness, bias) ----------------------------------------


def oracle_bars(title: str, labels: Sequence[str], values: Sequence[float]) -> str:
    """One labelled bar per value, on a zero-based axis."""
    if not labels or not values:
        raise DataRequirementError("bar chart needs labels and values")
    vmax = max(max(values), 1e-9)

    m = _STYLE["margin"]
    canvas = _Canvas()
    sy = _Scale(0.0, vmax * 1.1, _STYLE["height"] - m, m + 20)
    slot = (_STYLE["width"] - 2 * m) / len(labels)
    for i, (label, value) in enumerate(zip(labels, values)):
        x = m + i * slot + 0.15 * slot
        y = sy(value)
        canvas.rect(x, y, 0.7 * slot, (_STYLE["height"] - m) - y,
                    _STYLE["series_color"], _STYLE["axis_color"])
        canvas.text(x + 0.35 * slot, y - 5, _f(value), anchor="middle", size=9)
        canvas.text(m + (i + 0.5) * slot, _STYLE["height"] - m + 14, label,
                    anchor="middle", size=9)
    canvas.line(m, _STYLE["height"] - m, _STYLE["width"] - m, _STYLE["height"] - m,
                _STYLE["axis_color"])
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- motivation-outcome ------------------------------------------------------


def oracle_motivation_outcome(title: str, rows: Sequence[tuple[str, float, float, float]]) -> str:
    """Odds ratios with exact intervals, one (label, odds ratio, low, high)
    row each, on a log axis; unbounded endpoints are clipped to the axis and
    drawn dashed."""
    if not rows:
        raise DataRequirementError("motivation-outcome plot needs rows")

    lo_bound, hi_bound = 1e-2, 1e2

    def clip_log(v: float) -> float:
        if v <= 0 or math.isnan(v):
            return math.log10(lo_bound)
        if math.isinf(v):
            return math.log10(hi_bound)
        return math.log10(min(max(v, lo_bound), hi_bound))

    m = _STYLE["margin"]
    label_w = 130.0
    canvas = _Canvas()
    sx = _Scale(math.log10(lo_bound), math.log10(hi_bound),
                m + label_w, _STYLE["width"] - m)
    sy = _Scale(-0.5, len(rows) - 0.5, m + 16, _STYLE["height"] - m)

    canvas.line(sx(0.0), m + 10, sx(0.0), _STYLE["height"] - m, _STYLE["axis_color"],
                1.0, dash="4 3")
    for tick in (-2.0, -1.0, 0.0, 1.0, 2.0):
        canvas.text(sx(tick), _STYLE["height"] - m + 14, _f(10 ** tick),
                    anchor="middle", size=9)
    for i, (label, or_value, lo, hi) in enumerate(rows):
        y = sy(i)
        canvas.text(m, y + 4, label, size=9)
        unbounded = math.isinf(hi) or lo <= 0
        canvas.line(sx(clip_log(lo)), y, sx(clip_log(hi)), y,
                    _STYLE["series_color"], 1.5, dash="3 3" if unbounded else None)
        if not math.isnan(or_value):
            canvas.circle(sx(clip_log(or_value)), y, 3.5, _STYLE["series_color"])
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- sensitivity pairs -------------------------------------------------------


def oracle_sensitivity_pairs(title: str, rows: Sequence[tuple[str, float, float]]) -> str:
    """Dumbbells linking the initial-degree and retest-degree estimates, one
    (trait, test estimate, retest estimate) row each."""
    if not rows:
        raise DataRequirementError("sensitivity-pairs plot needs rows")

    m = _STYLE["margin"]
    label_w = 110.0
    canvas = _Canvas()
    sx = _Scale(0.0, 1.0, m + label_w, _STYLE["width"] - m)
    sy = _Scale(-0.5, len(rows) - 0.5, m + 16, _STYLE["height"] - m)

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.line(sx(tick), m + 10, sx(tick), _STYLE["height"] - m, "#eeeeee", 0.5)
        canvas.text(sx(tick), _STYLE["height"] - m + 14, _f(tick),
                    anchor="middle", size=9)
    for i, (trait, est_test, est_retest) in enumerate(rows):
        y = sy(i)
        canvas.text(m, y + 4, trait, size=9)
        canvas.line(sx(est_test), y, sx(est_retest), y, _STYLE["axis_color"], 1.0)
        canvas.circle(sx(est_test), y, 3.5, _STYLE["series_color"])
        canvas.circle(sx(est_retest), y, 3.5, _STYLE["positive_color"])
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- every family equals the oracle on random inputs --------------------------

# exact zeros of both signs, and magnitudes that '%.6g' writes in exponent form
_numbers = st.one_of(
    st.floats(-1.5, 1.5),
    st.floats(-1e21, 1e21),
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 1e21, -1e21, 5e-324, -5e-324]),
)
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# small orders repeat, so a series often has one point or equal min and max
_orders = st.integers(0, 3) | st.integers(-10**15, 10**15)
_labels = st.text(max_size=6)
_flags = st.none() | st.booleans()


@st.composite
def _forests(draw):
    n = draw(st.integers(1, 25))
    ids = [f"r{i}" for i in range(n)]
    roots, children, wave = [], {}, {}
    for i, rid in enumerate(ids):
        parent = draw(st.none() | st.integers(0, i - 1)) if i else None
        if parent is None:
            roots.append(rid)
            wave[rid] = 0
        else:
            children.setdefault(ids[parent], []).append(rid)
            wave[rid] = wave[ids[parent]] + 1
    trait = draw(st.dictionaries(st.sampled_from(ids), _flags))
    return {"roots": roots, "children": children, "wave": wave, "trait": trait}


@st.composite
def _series(draw):
    n = draw(st.integers(1, 12))
    return (draw(st.lists(_orders, min_size=n, max_size=n)),
            draw(st.lists(_numbers, min_size=n, max_size=n)))


# The figures of one trait's trees take the included sample's arrays: roots
# sorted by id, each with at least one row.  Each strategy below draws those
# arguments as the report passes them, with the oracle's arguments for the
# same figure.


def _roots(draw):
    return sorted(draw(st.lists(st.sampled_from(["S1", "S2", "S10", "T"]), min_size=1,
                                unique=True)))


@st.composite
def _convergence(draw):
    orders, values = draw(_series())
    positive = draw(st.lists(st.booleans(), min_size=len(orders), max_size=len(orders)))
    return (
        {"orders": np.array(orders), "values": np.array(values), "positive": np.array(positive)},
        {"orders": orders, "values": values, "indicators": list(zip(orders, positive))},
    )


@st.composite
def _bottleneck(draw):
    series = {root: draw(_series()) for root in _roots(draw)}
    return (
        {"series": {root: (np.array(o), np.array(v)) for root, (o, v) in series.items()}},
        {"series": series},
    )


@st.composite
def _all_points(draw):
    roots = _roots(draw)
    tree = draw(st.permutations(
        [*range(len(roots)), *draw(st.lists(st.integers(0, len(roots) - 1), max_size=40))]
    ))
    positive = draw(st.lists(st.booleans(), min_size=len(tree), max_size=len(tree)))
    return (
        {"roots": tuple(roots), "tree": np.array(tree), "positive": np.array(positive)},
        {"rows": [(roots[t], flag) for t, flag in zip(tree, positive)]},
    )


@st.composite
def _flag_grid(draw):
    rows = draw(st.lists(_labels, min_size=1, max_size=5))
    cols = draw(st.lists(_labels, min_size=1, max_size=3))
    cells = draw(st.lists(st.lists(_flags, min_size=len(cols), max_size=len(cols)),
                          min_size=len(rows), max_size=len(rows)))
    return {"row_labels": rows, "col_labels": cols, "cells": cells}


@st.composite
def _bars(draw):
    values = draw(st.lists(_numbers, min_size=1, max_size=6))
    labels = draw(st.lists(_labels, min_size=len(values), max_size=len(values)))
    return {"labels": labels, "values": values}


_interval_end = _numbers | _non_finite

ORACLE_CASES = {
    "chains": (svg.chains, oracle_chains, _forests()),
    "convergence": (svg.convergence, oracle_convergence, _convergence()),
    "bottleneck": (svg.bottleneck, oracle_bottleneck, _bottleneck()),
    "all_points": (svg.all_points, oracle_all_points, _all_points()),
    "flag_grid": (svg.flag_grid, oracle_flag_grid, _flag_grid()),
    "bars": (svg.bars, oracle_bars, _bars()),
    "motivation_outcome": (svg.motivation_outcome, oracle_motivation_outcome,
                           st.fixed_dictionaries({"rows": st.lists(
                               st.tuples(_labels, _interval_end, _interval_end, _interval_end),
                               min_size=1, max_size=5)})),
    "sensitivity_pairs": (svg.sensitivity_pairs, oracle_sensitivity_pairs,
                          st.fixed_dictionaries({"rows": st.lists(
                              st.tuples(_labels, _numbers, _numbers), min_size=1, max_size=5)})),
}


@settings(max_examples=300, deadline=None)
@given(
    axis=st.one_of(
        # an order axis from its min to its max, and a proportion axis, as
        # the figures scale them
        st.tuples(st.lists(_orders, min_size=2, max_size=2).map(sorted),
                  st.lists(_orders, max_size=20)),
        st.tuples(st.just((0.0, 1.0)), st.lists(_numbers, max_size=20)),
    ),
    pixels=st.tuples(st.floats(0, 640), st.floats(0, 640)),
)
def test_scale_maps_an_array_as_each_number(axis, pixels):
    (lo, hi), values = axis
    one_at_a_time = [_Scale(lo, hi, *pixels)(v) for v in values]
    as_array = svg._Scale(lo, hi, *pixels)(np.array(values, dtype=float)).tolist()
    assert [x.hex() for x in as_array] == [float(x).hex() for x in one_at_a_time]


@pytest.mark.parametrize("family", ORACLE_CASES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_family_matches_per_mark_oracle(family, data):
    figure, oracle, arguments = ORACLE_CASES[family]
    kwargs = data.draw(arguments)
    # a family drawn in its own shape comes with the oracle's arguments
    kwargs, oracle_kwargs = kwargs if isinstance(kwargs, tuple) else (kwargs, kwargs)
    title = data.draw(_labels)
    assert figure(title=title, **kwargs) == oracle(title=title, **oracle_kwargs)
