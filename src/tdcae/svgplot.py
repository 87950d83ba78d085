"""Small dependency-free SVG line plots. Output is a pure function of the
inputs, so plots are byte-stable and diff-able in tests."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

from .errors import NumericError

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 960
_HEIGHT = 320
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 40


def _fmt(v: float) -> str:
    return f"{v:.2f}"


# Characters XML 1.0 allows in no document: the C0 controls but tab, LF
# and CR, and U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _text(s: str) -> str:
    """s as XML character data. Only & and < must be escaped there; > is
    left as it is, so labels such as "L_T1 -> z1" keep their bytes. A
    character XML forbids becomes U+FFFD, the replacement character."""
    return _NOT_XML.sub("\ufffd", s.replace("&", "&amp;").replace("<", "&lt;"))


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + k * ((hi - lo) / 4) for k in range(5)]


def line_plot(
    path,
    series: list[tuple[str, np.ndarray]],
    title: str = "",
    threshold: float | None = None,
    shaded: list[tuple[int, int]] | None = None,
    y_label: str = "",
    x_label: str = "time step",
) -> None:
    """Write one SVG panel with the given named series.

    threshold draws a dashed horizontal line; shaded draws grey vertical
    bands over the inclusive index intervals (used for attack windows).
    Non-finite values, or values more than the largest float apart, raise
    NumericError and write nothing. Every label is escaped by _text.
    """
    text = _render(path, series, title, threshold, shaded, y_label, x_label)
    Path(path).write_text(text, encoding="utf-8")


def _render(path, series, title="", threshold=None, shaded=None, y_label="",
            x_label="time step") -> str:
    """The text line_plot writes to path, which only its NumericError names.
    A caller that must refuse a plot before it creates path's directory
    renders first."""
    series = [(name, np.asarray(y, dtype=np.float64)) for name, y in series]
    n = max((len(y) for _, y in series), default=0)
    ys = np.concatenate([y for _, y in series]) if series else np.array([0.0])
    y_lo = float(ys.min())
    y_hi = float(ys.max())
    if threshold is not None:
        y_lo = min(y_lo, threshold)
        y_hi = max(y_hi, threshold)
    if y_hi == y_lo:
        # Widen a constant by 1, or by one ulp where 1 would be absorbed
        # (|y| >= 2**53); at the largest float, widen downwards.
        step = max(1.0, math.ulp(y_lo))
        if y_lo + step < math.inf:
            y_hi = y_lo + step
        else:
            y_lo -= step
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    # A NaN or an infinity, or a range wider than the largest float, has no
    # pixel position; every coordinate drawn below is finite otherwise.
    if not math.isfinite(y_hi - y_lo) or threshold is not None and not math.isfinite(threshold):
        raise NumericError(f"{path}: no finite y range to plot")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(i):
        return _MARGIN_L + (i / max(n - 1, 1)) * plot_w

    def sy(v):
        return _MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_text(title)}</text>'
        )

    for a, b in shaded or []:
        x0, x1 = sx(a), sx(min(b, n - 1))
        out.append(
            f'<rect x="{_fmt(x0)}" y="{_MARGIN_T}" width="{_fmt(max(x1 - x0, 1.0))}" '
            f'height="{plot_h}" fill="#bbbbbb" fill-opacity="0.45"/>'
        )

    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        out.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(y)}" x2="{_MARGIN_L}" y2="{_fmt(y)}" '
            f'stroke="#333333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(0, max(n - 1, 1)):
        x = sx(tick)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(x)}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.0f}</text>'
        )
    if x_label:
        out.append(
            f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_text(x_label)}</text>'
        )
    if y_label:
        out.append(
            f'<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.0f})">{_text(y_label)}</text>'
        )

    if threshold is not None:
        y = sy(threshold)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_MARGIN_L + plot_w}" '
            f'y2="{_fmt(y)}" stroke="#000000" stroke-dasharray="6 4"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L + plot_w - 4}" y="{_fmt(y - 5)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">threshold</text>'
        )

    for k, (name, y) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        # sx and sy over the whole series, formatted by one % call with a
        # "%.2f,%.2f" per point.
        xy = np.column_stack((sx(np.arange(y.size)), sy(y)))
        pts = " ".join(["%.2f,%.2f"] * y.size) % tuple(xy.ravel().tolist())
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 16 + 14 * k}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{_text(name)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
