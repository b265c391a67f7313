"""Self-contained SVG line charts, no plotting dependencies.

Good enough for the two report figures: average rank versus sparsity for one
or more runs, and rank/accuracy versus the rank-loss weight.
"""

from __future__ import annotations

__all__ = ["line_chart", "dual_axis_chart"]

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 70, 50, 60
# the plot box: x runs from _X0 to _X1, y from _Y0 (bottom) up to _Y1
_X0, _X1, _Y0, _Y1 = _ML, _W - _MR, _H - _MB, _MT


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _scale(lo: float, hi: float, a: float, b: float):
    span = hi - lo if hi > lo else 1.0

    def f(v: float) -> float:
        return a + (v - lo) / span * (b - a)

    return f


def _yscale(ys):
    """(ticks, scale) of a y axis spanning ys."""
    yt = _ticks(min(ys), max(ys))
    return yt, _scale(yt[0], yt[-1], _Y0, _Y1)


def _escape(text: str) -> str:
    """text as SVG character data. (xml.sax.saxutils.escape does the same, but
    importing it loads urllib.request, which costs every command ~7 MB of RSS.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _frame(title: str, xticks, right_axis: bool) -> list[str]:
    """Opening parts of a chart: background, title, axes and the x ticks,
    given as (px, label) pairs; right_axis adds a y axis line on the right."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" font-family="sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="15" font-weight="600">{_escape(title)}</text>',
        f'<line x1="{_X0}" y1="{_Y0}" x2="{_X1}" y2="{_Y0}" stroke="#333"/>',
        f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0}" y2="{_Y1}" stroke="#333"/>',
    ]
    if right_axis:
        parts.append(f'<line x1="{_X1}" y1="{_Y0}" x2="{_X1}" y2="{_Y1}" stroke="#333"/>')
    for px, label in xticks:
        parts.append(f'<line x1="{px}" y1="{_Y0}" x2="{px}" y2="{_Y0 + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px}" y="{_Y0 + 20}" text-anchor="middle" font-size="11">{_escape(label)}</text>')
    return parts


def _xlabel(xlabel: str) -> str:
    return f'<text x="{(_X0 + _X1) / 2}" y="{_H - 15}" text-anchor="middle" font-size="12">{_escape(xlabel)}</text>'


def _polyline(sx, sy, xs, ys, color):
    pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    line = f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
    dots = "".join(
        f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
        for x, y in zip(xs, ys)
    )
    return line + dots


def _close(parts: list[str], labels_colors) -> str:
    """The chart's SVG text: parts, then a legend entry per (label, color)."""
    x, y = _X0 + 12, _Y1 + 16
    for i, (label, color) in enumerate(labels_colors):
        ly = y + 18 * i
        parts.append(f'<rect x="{x}" y="{ly - 9}" width="14" height="4" fill="{color}"/>')
        parts.append(f'<text x="{x + 20}" y="{ly - 4}" font-size="11">{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """series: list of (label, xs, ys) tuples, one polyline each."""
    if not series or any(len(xs) == 0 for _, xs, _ in series):
        raise ValueError("nothing to plot")
    all_x = [x for _, xs, _ in series for x in xs]
    xt = _ticks(min(all_x), max(all_x))
    yt, sy = _yscale([y for _, _, ys in series for y in ys])
    sx = _scale(xt[0], xt[-1], _X0, _X1)
    parts = _frame(title, [(sx(t), _fmt(t)) for t in xt], right_axis=False)
    for t in yt:
        py = sy(t)
        parts.append(f'<line x1="{_X0 - 5}" y1="{py}" x2="{_X0}" y2="{py}" stroke="#333"/>')
        parts.append(f'<text x="{_X0 - 8}" y="{py + 4}" text-anchor="end" font-size="11">{_fmt(t)}</text>')
    mid = (_Y0 + _Y1) / 2
    parts.append(_xlabel(xlabel))
    parts.append(f'<text x="18" y="{mid}" text-anchor="middle" font-size="12" transform="rotate(-90 18 {mid})">{_escape(ylabel)}</text>')
    colors = [(label, PALETTE[i % len(PALETTE)]) for i, (label, _, _) in enumerate(series)]
    for (_, xs, ys), (_, color) in zip(series, colors):
        parts.append(_polyline(sx, sy, xs, ys, color))
    return _close(parts, colors)


def dual_axis_chart(xs, left_label, left_ys, right_label, right_ys, title, xlabel) -> str:
    """Two series over shared x, each with its own y-axis (left and right)."""
    if len(xs) == 0:
        raise ValueError("nothing to plot")
    positions = list(range(len(xs)))  # categorical x, even spacing
    sx = _scale(0, max(len(xs) - 1, 1), _X0, _X1)
    parts = _frame(title, [(sx(p), label) for p, label in zip(positions, xs)], right_axis=True)
    lines = []
    for ys, color, x, anchor in ((left_ys, PALETTE[0], _X0 - 8, "end"), (right_ys, PALETTE[1], _X1 + 8, "start")):
        yt, sy = _yscale(ys)
        for t in yt:
            parts.append(f'<text x="{x}" y="{sy(t) + 4}" text-anchor="{anchor}" font-size="11" fill="{color}">{_fmt(t)}</text>')
        lines.append(_polyline(sx, sy, positions, ys, color))
    parts.append(_xlabel(xlabel))
    parts += lines
    return _close(parts, [(left_label, PALETTE[0]), (right_label, PALETTE[1])])
