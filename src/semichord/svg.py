"""Deterministic SVG diagrams of inscribed polygons.

Fixed 800x450 canvas with 40-unit margins; the semicircle always spans
the full drawing width, so byte output depends only on the polygon.
Drawn diagonals are the ones the identity's cross terms consume (chords
from the first vertex and chords to the last, skipping plain sides);
a quadrilateral contributes its own crossing diagonal pair instead,
since there the cross term is built from sides alone.
"""

from __future__ import annotations

import math

from .geometry import InscribedPolygon, diagonal, side_lengths

CANVAS_WIDTH = 800
CANVAS_HEIGHT = 450
MARGIN = 40

_STYLE_EDGE = 'stroke="black" stroke-width="1.5" fill="none"'
_STYLE_DIAGONAL = 'stroke="#555555" stroke-width="1" stroke-dasharray="6,4"'
_STYLE_ARC = 'stroke="#1f77b4" stroke-width="1" fill="none"'


def _diagonal_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex index pairs of the diagonals entering the cross terms."""
    if n == 4:
        return [(0, 2), (1, 3)]
    inner = range(2, n - 2)
    return [(0, k) for k in inner] + [(k, n - 1) for k in inner]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def polygon_svg(poly: InscribedPolygon) -> str:
    """Render the semicircle, the polygon, its cross-term diagonals and
    length labels as an SVG 1.1 document."""
    R = poly.radius
    scale = (CANVAS_WIDTH - 2 * MARGIN) / (2.0 * R)
    base_y = CANVAS_HEIGHT - MARGIN
    center_x = CANVAS_WIDTH / 2.0

    def to_px(point: tuple[float, float]) -> tuple[float, float]:
        x, y = point
        return (center_x + x * scale, base_y - y * scale)

    arc_radius = R * scale
    left = center_x - arc_radius
    right = center_x + arc_radius

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_WIDTH}" height="{CANVAS_HEIGHT}" '
        f'viewBox="0 0 {CANVAS_WIDTH} {CANVAS_HEIGHT}">',
        f'<path d="M {_fmt(left)} {_fmt(base_y)} '
        f'A {_fmt(arc_radius)} {_fmt(arc_radius)} 0 0 1 '
        f'{_fmt(right)} {_fmt(base_y)}" {_STYLE_ARC}/>',
    ]

    pixel = [to_px(p) for p in poly.vertices]
    points_attr = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pixel)
    lines.append(f'<polygon points="{points_attr}" {_STYLE_EDGE}/>')

    n = poly.n
    for i, j in _diagonal_pairs(n):
        (x1, y1), (x2, y2) = pixel[i], pixel[j]
        lines.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" {_STYLE_DIAGONAL}/>'
        )
        lines.append(
            _label(0.5 * (x1 + x2), 0.5 * (y1 + y2), diagonal(poly, i, j), "#555555")
        )

    sides = side_lengths(poly)
    for i, length in enumerate(sides):
        (x1, y1), (x2, y2) = pixel[i], pixel[i + 1]
        mx, my = 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        # Push short-side labels radially outward, past the arc.
        dx, dy = mx - center_x, my - base_y
        norm = math.hypot(dx, dy)
        if norm > 0.0:
            mx += 14.0 * dx / norm
            my += 14.0 * dy / norm
        lines.append(_label(mx, my, length, "black"))
    lines.append(
        _label(center_x, base_y + 18.0, diagonal(poly, 0, n - 1), "black")
    )

    for idx, (x, y) in enumerate(pixel):
        lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="2.5" fill="black"/>')
        lines.append(
            f'<text x="{_fmt(x - 8)}" y="{_fmt(y - 8)}" font-size="13" '
            f'font-family="sans-serif">A{idx + 1}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _label(x: float, y: float, value: float, color: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12" '
        f'font-family="sans-serif" fill="{color}" '
        f'text-anchor="middle">{value:.6g}</text>'
    )
