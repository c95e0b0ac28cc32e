"""Static top-view SVG rendering of solved trajectories.

Each object gets a deterministic color; contained segments are dashed,
occluded segments dotted, visible segments solid.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple
from xml.sax.saxutils import escape

from .core import Trajectory, VisibilityState

PALETTE = (
    "#e41a1c", "#377eb8", "#4daf4a", "#984ea3", "#ff7f00",
    "#a65628", "#f781bf", "#17becf", "#666666", "#bcbd22",
)

WIDTH, HEIGHT = 640, 480  # pixel size of the rendered document

DASH_OF_STATE = {
    VisibilityState.VISIBLE: None,
    VisibilityState.OCCLUDED: "2,3",
    VisibilityState.CONTAINED: "8,4",
}


def _segments(trajectory: Trajectory):
    """Split a trajectory into maximal runs of equal state."""
    runs = []
    run = [trajectory.points[0]]
    for point in trajectory.points[1:]:
        if point.state is run[-1].state:
            run.append(point)
        else:
            run.append(point)  # include the boundary point so lines connect
            runs.append(run)
            run = [point]
    runs.append(run)
    return [r for r in runs if len(r) >= 1]


def render_svg(trajectories: Sequence[Trajectory]) -> str:
    """Render a top-view SVG document string."""
    points = [p for t in trajectories for p in t.points]
    if points:
        xs = [float(p.location[0]) for p in points]
        ys = [float(p.location[1]) for p in points]
        x0, x1 = min(xs) - 2.0, max(xs) + 2.0
        y0, y1 = min(ys) - 2.0, max(ys) + 2.0
    else:
        x0, y0, x1, y1 = 0.0, 0.0, 10.0, 10.0

    def to_px(loc) -> Tuple[float, float]:
        x = (float(loc[0]) - x0) / (x1 - x0) * WIDTH
        y = HEIGHT - (float(loc[1]) - y0) / (y1 - y0) * HEIGHT
        return round(x, 2), round(y, 2)

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    for traj in sorted(trajectories, key=lambda t: t.object_id):
        color = PALETTE[traj.object_id % len(PALETTE)]
        parts.append(f'<g id="object-{traj.object_id}" stroke="{color}" fill="none">')
        for run in _segments(traj):
            coords = " ".join(f"{x},{y}" for x, y in (to_px(p.location) for p in run))
            dash = DASH_OF_STATE[run[0].state]
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            state_attr = f' data-state="{escape(run[0].state.value)}"'
            parts.append(f'<polyline points="{coords}" stroke-width="2"{dash_attr}{state_attr}/>')
        start = to_px(traj.points[0].location)
        parts.append(
            f'<circle cx="{start[0]}" cy="{start[1]}" r="3" fill="{color}" stroke="none"/>'
        )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, trajectories: Sequence[Trajectory]) -> None:
    Path(path).write_text(render_svg(trajectories), encoding="utf-8")
