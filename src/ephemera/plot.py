"""Line charts as self-contained SVG text, written directly so identical
inputs always produce identical bytes."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .metrics import _write_lines

_W, _H = 800, 500
_X0, _Y0, _X1, _Y1 = 70.0, 45.0, 775.0, 445.0

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
    "#bcbd22", "#e377c2", "#393b79",
)


@dataclass(frozen=True, slots=True)
class PlotSeries:
    name: str
    xs: Sequence[float]
    ys: Sequence[float]


# What XML 1.0 cannot carry even escaped: C0 controls but tab, LF and CR,
# lone surrogates, and U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _escape(text: str) -> str:
    """``text`` as XML character data. (``xml.sax.saxutils`` would import
    ``urllib.request`` and ``ssl``, megabytes for every process.)"""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_plot(
    series: Sequence[PlotSeries],
    title: str,
    path,
    x_label: str = "iteration",
    y_label: str = "value",
) -> None:
    """One polyline per series on linear axes covering the data range, with
    five gridlines per axis, a legend of series names, and a title. Names,
    title and labels are written as XML-escaped text. A non-finite value, or
    text that XML 1.0 cannot carry, raises ValueError before any write."""
    series = list(series)
    if not series:
        raise ValueError("render_plot needs at least one series")
    for s in series:
        if not s.xs or len(s.xs) != len(s.ys):
            raise ValueError(f"series {s.name!r} is empty or ragged")
        if not all(map(math.isfinite, [*s.xs, *s.ys])):
            raise ValueError(f"series {s.name!r} holds a NaN or infinite value")
    for field, text in [("title", title), ("x_label", x_label), ("y_label", y_label),
                        *(("series name", s.name) for s in series)]:
        if bad := _NOT_XML.search(text):
            raise ValueError(f"{field} {text!r} holds U+{ord(bad[0]):04X}, "
                             "which XML 1.0 cannot carry")

    xmin = min(min(s.xs) for s in series)
    xmax = max(max(s.xs) for s in series)
    ymin = min(0.0, min(min(s.ys) for s in series))
    ymax = max(max(s.ys) for s in series)
    if xmax == xmin:
        xmax = xmin + 1
    if ymax == ymin:
        ymax = ymin + 1

    def sx(v: float) -> float:
        return _X0 + (v - xmin) * (_X1 - _X0) / (xmax - xmin)

    def sy(v: float) -> float:
        return _Y1 - (v - ymin) * (_Y1 - _Y0) / (ymax - ymin)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="16">{_escape(title)}</text>',
    ]
    for i in range(5):
        frac = i / 4
        yv = ymin + frac * (ymax - ymin)
        y = _fmt(sy(yv))
        out.append(
            f'<line x1="{_fmt(_X0)}" y1="{y}" x2="{_fmt(_X1)}" y2="{y}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_X0 - 8)}" y="{y}" text-anchor="end" '
            f'dominant-baseline="middle">{yv:g}</text>'
        )
        xv = xmin + frac * (xmax - xmin)
        x = _fmt(sx(xv))
        out.append(
            f'<line x1="{x}" y1="{_fmt(_Y0)}" x2="{x}" y2="{_fmt(_Y1)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x}" y="{_fmt(_Y1 + 18)}" text-anchor="middle">{xv:g}</text>'
        )
    out.append(
        f'<rect x="{_fmt(_X0)}" y="{_fmt(_Y0)}" width="{_fmt(_X1 - _X0)}" '
        f'height="{_fmt(_Y1 - _Y0)}" fill="none" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_fmt((_X0 + _X1) / 2)}" y="{_H - 10}" text-anchor="middle">{_escape(x_label)}</text>'
    )
    out.append(
        f'<text x="18" y="{_fmt((_Y0 + _Y1) / 2)}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt((_Y0 + _Y1) / 2)})">{_escape(y_label)}</text>'
    )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.xs, s.ys))
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ly = _Y0 + 14 + 18 * i
        out.append(
            f'<line x1="{_fmt(_X1 - 150)}" y1="{_fmt(ly)}" x2="{_fmt(_X1 - 122)}" '
            f'y2="{_fmt(ly)}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{_fmt(_X1 - 114)}" y="{_fmt(ly)}" '
            f'dominant-baseline="middle">{_escape(s.name)}</text>'
        )
    out.append("</svg>")
    _write_lines(path, out, encoding="utf-8")
