"""Static SVG rendering of executions: one panel per configuration showing
towers with multiplicity labels, the smallest enclosing circle, the computed
target, and the phase annotation. Pure string templating, no dependencies."""
from __future__ import annotations

import math

from . import gather2d, verify
from .model import Trace
from .scalars import Backend

_PANEL = 240
_MARGIN = 26
_COLS = 4


def _bounds(summaries: list[gather2d.RoundSummary]) -> tuple[float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    radii: list[float] = []
    for summary in summaries:
        for p in summary.spectrum.towers:
            xs.append(float(p.x))
            ys.append(float(p.y))
        radii.append(math.sqrt(max(0.0, float(summary.sec_analysis.circle.radius_sq))))
    cx = (min(xs) + max(xs)) / 2
    cy = (min(ys) + max(ys)) / 2
    half = max(max(xs) - cx, cx - min(xs), max(ys) - cy, cy - min(ys), max(radii), 1e-6)
    return cx, cy, half * 1.15


def _panel(
    summary: gather2d.RoundSummary,
    label: str,
    ox: float,
    oy: float,
    cx: float,
    cy: float,
    half: float,
) -> str:
    scale = (_PANEL - 2 * _MARGIN) / (2 * half)

    def sx(x: float) -> float:
        return ox + _MARGIN + (x - (cx - half)) * scale

    def sy(y: float) -> float:
        # SVG y grows downward
        return oy + _PANEL - _MARGIN - (y - (cy - half)) * scale

    s = summary.spectrum
    circle = summary.sec_analysis.circle
    r = math.sqrt(max(0.0, float(circle.radius_sq))) * scale

    parts = [
        f'<rect x="{ox}" y="{oy}" width="{_PANEL}" height="{_PANEL}" '
        'fill="white" stroke="#999"/>'
    ]
    if r > 0.5:
        parts.append(
            f'<circle cx="{sx(float(circle.center.x)):.2f}" cy="{sy(float(circle.center.y)):.2f}" '
            f'r="{r:.2f}" fill="none" stroke="#7aa" stroke-dasharray="4 3"/>'
        )
    if summary.phase is not gather2d.Phase.GATHERED:
        # robots in a majority configuration go to the highest tower
        tgt = s.towers[gather2d.highest_tower(s)] if summary.analysis is None else summary.analysis.tgt
        tx, ty = sx(float(tgt.x)), sy(float(tgt.y))
        parts.append(
            f'<path d="M {tx - 5:.2f} {ty:.2f} H {tx + 5:.2f} M {tx:.2f} {ty - 5:.2f} '
            f'V {ty + 5:.2f}" stroke="#c33" stroke-width="1.5"/>'
        )
    for p, mult in zip(s.towers, s.mults):
        px, py = sx(float(p.x)), sy(float(p.y))
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.4" fill="#226"/>')
        parts.append(
            f'<text x="{px + 5:.2f}" y="{py - 5:.2f}" font-size="10" '
            f'fill="#226">{mult}</text>'
        )
    parts.append(
        f'<text x="{ox + 6}" y="{oy + 14}" font-size="11" fill="#333">{label}: '
        f"{summary.phase.value} ({summary.measure.weight},{summary.measure.residual})</text>"
    )
    return "\n".join(parts)


def render_trace(trace: Trace, backend: Backend, path: str, max_panels: int) -> None:
    """Write one multi-panel SVG: the initial configuration plus the result
    of every round, truncated to the first ``max_panels`` panels. The scale
    fits every configuration of the trace, each distinct one summarized once
    (``verify.summaries_of``), with the SEC its summary keeps
    (``RoundSummary.sec_analysis``)."""
    summaries = list(verify.summaries_of(trace, backend))
    labels = ["initial"] + [f"round {st.index}" for st in trace.steps]
    cx, cy, half = _bounds(summaries)
    summaries = summaries[:max_panels]
    n = len(summaries)
    cols = min(_COLS, n)
    rows = (n + cols - 1) // cols
    width = cols * _PANEL
    height = rows * _PANEL
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">'
    ]
    for i, (summary, label) in enumerate(zip(summaries, labels)):
        ox = (i % cols) * _PANEL
        oy = (i // cols) * _PANEL
        body.append(_panel(summary, label, ox, oy, cx, cy, half))
    body.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(body) + "\n")
