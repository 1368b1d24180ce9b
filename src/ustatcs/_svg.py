"""Minimal deterministic SVG line charts for experiment outputs."""

from __future__ import annotations

import math

import numpy as np

# ten distinct colours, so that a chart of up to ten series repeats none
_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#17becf", "#e377c2", "#7f7f7f", "#bcbd22",
)
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, k: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (k - 1)
    mag = 10.0 ** math.floor(math.log10(step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= step:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def line_chart(
    path: str,
    x,
    series: dict[str, "np.ndarray"],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    hline: float | None = None,
) -> None:
    """Write a single line chart with one polyline per series entry."""
    x = np.asarray(x, dtype=float)
    ys = {k: np.asarray(v, dtype=float) for k, v in series.items()}
    finite = np.concatenate([v[np.isfinite(v)] for v in ys.values()] or [np.zeros(1)])
    ylo = float(min(finite.min(), hline if hline is not None else finite.min(), 0.0))
    yhi = float(max(finite.max(), hline if hline is not None else finite.max()))
    if yhi <= ylo:
        yhi = ylo + 1.0
    yhi += 0.05 * (yhi - ylo)
    xlo, xhi = float(x.min()), float(x.max())
    if xhi <= xlo:
        xhi = xlo + 1.0

    def px(v: float) -> float:
        return _ML + (v - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    axis = f'stroke="#333" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')
    for t in _ticks(xlo, xhi):
        parts.append(
            f'<text x="{px(t):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(ylo, yhi):
        parts.append(
            f'<text x="{_ML - 6}" y="{py(t) + 4:.1f}" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">{ylabel}</text>'
    )
    if hline is not None:
        parts.append(
            f'<line x1="{_ML}" y1="{py(hline):.1f}" x2="{_W - _MR}" y2="{py(hline):.1f}" '
            f'stroke="#999" stroke-dasharray="5,4"/>'
        )
    for i, (name, y) in enumerate(ys.items()):
        color = _PALETTE[i % len(_PALETTE)]
        ok = np.isfinite(y)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x[ok], y[ok]))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ty = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - 170}" y1="{ty - 4}" x2="{_W - 148}" y2="{ty - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - 142}" y="{ty}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(parts) + "\n")
