"""Deterministic SVG rendering for the diagnostic figure families.

One public function per family (``chains``, ``convergence``, ``bottleneck``,
``all_points``, ``flag_grid``, ``bars``, ``motivation_outcome`` and
``sensitivity_pairs``) takes the figure's title and data as named parameters
and returns a standalone SVG string; a figure with nothing to draw raises
``DataRequirementError``.  Each is a pure function of its arguments and the
fixed style, and emits byte-identical markup across runs: element order is
fixed and every number is written with 6 significant digits, never as
negative zero.  No plotting library is involved, so golden-file tests can
diff output directly.

Marks are written one family at a time: a polyline's points, the convergence
rugs, the all-points markers, and the chains edges and nodes.  The family's
coordinates go through the figure's ``_Scale`` as one float array, and one
``'%.6g'`` template, whose constant attributes are formatted once, formats
them all in one pass.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DataRequirementError

_STYLE = {
    "width": 640,
    "height": 420,
    "margin": 48.0,
    "background": "#ffffff",
    "axis_color": "#333333",
    "series_color": "#1f6fb2",
    "reference_color": "#ffffff",
    "flag_color": "#c43c39",
    "ok_color": "#f2f2f2",
    "na_color": "#bbbbbb",
    "positive_color": "#c43c39",
    "negative_color": "#4472a8",
    "font": "monospace",
    "font_size": 11,
}

_TREE_PALETTE = (
    "#1f6fb2",
    "#c43c39",
    "#3f8f4f",
    "#8a5fa8",
    "#c08a2d",
    "#4db3b3",
    "#8c564b",
    "#6b6b6b",
)


def _f(x: float) -> str:
    """Fixed numeric formatting: 6 significant digits, no negative zero."""
    return "%.6g" % (x + 0.0)


# Element templates: each coordinate is a ``%.6g`` field, and the constant
# attributes are formatted once, when the template is built.


def _line(
    color: str,
    width: float = 1.0,
    dash: Optional[str] = None,
    y1: Optional[float] = None,
    y2: Optional[float] = None,
) -> str:
    """Fields x1, y1, x2, y2, less a y given here, which the template fixes."""
    y1_text, y2_text = ("%.6g" if y is None else _f(y) for y in (y1, y2))
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="%.6g" y1="{y1_text}" x2="%.6g" y2="{y2_text}" '
        f'stroke="{color}" stroke-width="{_f(width)}"{dash_attr}/>'
    )


def _rect(fill: str, stroke: Optional[str] = None) -> str:
    """Fields x, y, width, height."""
    stroke_attr = f' stroke="{stroke}"' if stroke else ""
    return f'<rect x="%.6g" y="%.6g" width="%.6g" height="%.6g" fill="{fill}"{stroke_attr}/>'


def _circle(r: float, fill: str, stroke: Optional[str] = None) -> str:
    """Fields cx, cy."""
    stroke_attr = f' stroke="{stroke}"' if stroke else ""
    return f'<circle cx="%.6g" cy="%.6g" r="{_f(r)}" fill="{fill}"{stroke_attr}/>'


def _polyline(n_points: int, color: str, width: float = 1.5) -> str:
    """Fields x, y of each point in turn."""
    points = " ".join(["%.6g,%.6g"] * n_points)
    return (
        f'<polyline points="{points}" fill="none" stroke="{color}" '
        f'stroke-width="{_f(width)}"/>'
    )


_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>',
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(_STYLE["width"])}" '
    f'height="{_f(_STYLE["height"])}" '
    f'viewBox="0 0 {_f(_STYLE["width"])} {_f(_STYLE["height"])}">',
    _rect(_STYLE["background"]) % (0, 0, _STYLE["width"], _STYLE["height"]),
)


class _Canvas:
    """Accumulates SVG elements in insertion order."""

    def __init__(self):
        self.parts: list[str] = list(_HEADER)

    def marks(self, templates: Sequence[str], coords) -> None:
        """One element per template.  ``coords`` holds all their fields in
        order; they are cleared of negative zero and formatted in one pass."""
        if templates:
            fields = (np.asarray(coords, dtype=float).ravel() + 0.0).tolist()
            self.parts.append("\n".join(templates) % tuple(fields))

    def line(self, x1, y1, x2, y2, color, width=1.0, dash: Optional[str] = None):
        self.marks([_line(color, width, dash)], (x1, y1, x2, y2))

    def rect(self, x, y, w, h, fill, stroke: Optional[str] = None):
        self.marks([_rect(fill, stroke)], (x, y, w, h))

    def circle(self, cx, cy, r, fill, stroke: Optional[str] = None):
        self.marks([_circle(r, fill, stroke)], (cx, cy))

    def polyline(self, xs: np.ndarray, ys: np.ndarray, color, width=1.5):
        self.marks([_polyline(len(xs), color, width)], np.column_stack([xs, ys]))

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

    def __call__(self, v):
        """The pixel position of ``v``, a number or a float array mapped
        element by element with the same operations."""
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px_lo + frac * (self.px_hi - self.px_lo)


# -- chains ------------------------------------------------------------------


def chains(
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

    nodes = sorted(xs)
    index = {node: i for i, node in enumerate(nodes)}
    px = sx(np.array([xs[node] for node in nodes]))
    py = sy(np.array([wave.get(node, 0) for node in nodes], dtype=float))

    edges = np.array(
        [(index[node], index[kid]) for node, kids in sorted(children.items()) for kid in kids],
        dtype=np.intp,
    ).reshape(-1, 2)
    parent, kid = edges[:, 0], edges[:, 1]
    canvas.marks(
        [_line(_STYLE["axis_color"], 0.8)] * len(edges),
        np.column_stack([px[parent], py[parent], px[kid], py[kid]]),
    )

    fills = {None: _STYLE["na_color"], True: _STYLE["positive_color"],
             False: _STYLE["negative_color"]}
    marker = {
        (is_root, value): _circle(5.0 if is_root else 3.0, fill, _STYLE["axis_color"])
        for is_root in (True, False) for value, fill in fills.items()
    }
    root_set = set(roots)
    canvas.marks(
        [marker[node in root_set, trait.get(node)] for node in nodes],
        np.column_stack([px, py]),
    )
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- convergence -------------------------------------------------------------


def convergence(
    title: str,
    orders: Sequence[int],
    values: Sequence[float],
    positive: Sequence[bool],
) -> str:
    """Cumulative estimate with final-estimate reference line and a trait rug
    at each order, along the header where ``positive``, else the footer."""
    if not len(orders) or not len(values):
        raise DataRequirementError("convergence plot needs a nonempty series")
    orders = np.asarray(orders, dtype=float)
    final = float(values[-1])

    m = _STYLE["margin"]
    rug = 14.0
    canvas = _Canvas()
    sx = _Scale(orders.min(), orders.max(), m, _STYLE["width"] - m)
    sy = _Scale(0.0, 1.0, _STYLE["height"] - m - rug, m + rug)

    # plot frame and the shaded band the white reference line sits on
    canvas.rect(m, m + rug, _STYLE["width"] - 2 * m, _STYLE["height"] - 2 * (m + rug),
                "#d9e4ee", _STYLE["axis_color"])
    canvas.line(m, sy(final), _STYLE["width"] - m, sy(final), _STYLE["reference_color"], 2.0)
    x = sx(orders)
    canvas.polyline(x, sy(np.asarray(values, dtype=float)), _STYLE["series_color"])

    header = _line(_STYLE["positive_color"], y1=m, y2=m + rug - 2)
    footer = _line(_STYLE["negative_color"], y1=_STYLE["height"] - m - rug + 2,
                   y2=_STYLE["height"] - m)
    canvas.marks([header if flag else footer for flag in positive], np.column_stack([x, x]))

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        canvas.text(m - 6, sy(tick) + 4, _f(tick), anchor="end")
    canvas.text(m, m / 2, title)
    canvas.text(_STYLE["width"] - m, m / 2, f"final={_f(final)}", anchor="end")
    return canvas.render()


# -- bottleneck --------------------------------------------------------------


def bottleneck(
    title: str,
    series: Mapping[str, tuple[Sequence[int], Sequence[float]]],
) -> str:
    """Per-tree cumulative estimates (orders, values), none empty, in the given
    order, with a composition panel on the left (each tree's count and share
    of the plotted values) and per-tree final estimates ticked on the right."""
    if not series:
        raise DataRequirementError("bottleneck plot needs at least one tree series")

    m = _STYLE["margin"]
    panel_w = 70.0
    x0 = m + panel_w + 12.0
    canvas = _Canvas()

    all_orders = np.concatenate([np.asarray(orders, dtype=float) for orders, _ in series.values()])
    sx = _Scale(all_orders.min(), all_orders.max(), x0, _STYLE["width"] - m)
    sy = _Scale(0.0, 1.0, _STYLE["height"] - m, m)
    canvas.rect(x0, m, _STYLE["width"] - m - x0, _STYLE["height"] - 2 * m, "none",
                _STYLE["axis_color"])

    total = sum(len(values) for _, values in series.values())
    y_cursor = m
    panel_h = _STYLE["height"] - 2 * m
    for i, (root, (orders, values)) in enumerate(series.items()):
        color = _TREE_PALETTE[i % len(_TREE_PALETTE)]
        h = len(values) / total * panel_h
        canvas.rect(m, y_cursor, panel_w, h, color, _STYLE["axis_color"])
        if h >= _STYLE["font_size"] + 2:
            canvas.text(m + 4, y_cursor + h / 2 + 4, f"{root}:{len(values)}", size=9)
        y_cursor += h
        canvas.polyline(sx(np.asarray(orders, dtype=float)), sy(np.asarray(values, dtype=float)),
                        color)
        final = float(values[-1])
        canvas.line(_STYLE["width"] - m, sy(final), _STYLE["width"] - m + 8, sy(final),
                    color, 2.0)
        canvas.text(_STYLE["width"] - m + 10, sy(final) + 4, _f(final), size=9)
    for tick in (0.0, 0.5, 1.0):
        canvas.text(x0 - 6, sy(tick) + 4, _f(tick), anchor="end")
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- all points --------------------------------------------------------------


def all_points(
    title: str, roots: Sequence[str], tree: Sequence[int], positive: Sequence[bool]
) -> str:
    """Trait values by tree row and within-tree sample order, one respondent
    per entry of ``tree``, which indexes ``roots`` (none without one): filled
    markers where ``positive``, open markers otherwise."""
    if not len(tree):
        raise DataRequirementError("all-points plot needs rows")
    tree = np.asarray(tree, dtype=np.intp)
    counts = np.bincount(tree, minlength=len(roots))

    m = _STYLE["margin"]
    canvas = _Canvas()
    sx = _Scale(0.5, max(counts.max(), 2) + 0.5, m + 40, _STYLE["width"] - m)
    sy = _Scale(-0.5, len(roots) - 0.5, m, _STYLE["height"] - m)
    tree_y = sy(np.arange(len(roots), dtype=float))

    for root, y in zip(roots, tree_y.tolist()):
        canvas.text(m, y + 4, root, size=9)
        canvas.line(m + 36, y, _STYLE["width"] - m, y, "#dddddd", 0.5)
    # each respondent's 1-based position within its tree, in row order
    by_tree = np.argsort(tree, kind="stable")
    position = np.empty(len(tree))
    position[by_tree] = np.arange(1, len(tree) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    filled = _circle(3.0, _STYLE["positive_color"])
    hollow = _circle(3.0, _STYLE["background"], _STYLE["negative_color"])
    canvas.marks(
        [filled if flag else hollow for flag in positive],
        np.column_stack([sx(position), tree_y[tree]]),
    )
    canvas.text(m, m / 2, title)
    return canvas.render()


# -- flag grid ---------------------------------------------------------------


def flag_grid(
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


def bars(title: str, labels: Sequence[str], values: Sequence[float]) -> str:
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


def motivation_outcome(title: str, rows: Sequence[tuple[str, float, float, float]]) -> str:
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


def sensitivity_pairs(title: str, rows: Sequence[tuple[str, float, float]]) -> str:
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
