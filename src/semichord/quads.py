"""Quadrilateral construction from three chord lengths.

Multiplying the 4-vertex identity d^2 = a^2 + b^2 + c^2 + 2abc/d through
by d gives a depressed cubic in the diameter,

    d^3 - (a^2 + b^2 + c^2) d - 2abc = 0,

whose single sign change guarantees exactly one positive root.  That
root is the circumdiameter shared by every ordering of the three
chords, so a quadrilateral with those sides always inscribes in a
semicircle even though an arbitrary planar quadrilateral satisfying
the same relation need not (see :func:`counterexample_report`).
Solved for c instead, the same relation gives the closing side of two
chords on a known diameter (:func:`closing_side`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .errors import DomainError, PlacementError
from .geometry import InscribedPolygon, _diameter, _floats, _radius, vertices_from_angles
from .geometry import CentralAngles  # noqa: F401  (rebound here by bench/spans.py)
from .geometry import diagonal  # noqa: F401  (rebound here by bench/spans.py)
from .identity import rhs_quadrilateral
from .solver import _arcs, _finite, _newton_descent, _partition, _scaled
from .solver import arcs_from_sides  # noqa: F401  (rebound here by bench/spans.py)


@dataclass(frozen=True, slots=True)
class QuadArrangement:
    """One circular ordering of three chords between diameter endpoints."""

    ordered_sides: tuple[float, float, float]
    d: float
    polygon: InscribedPolygon
    middle_side: float


@dataclass(frozen=True, slots=True)
class CounterexampleReport:
    """Outcome of the built-in non-inscribable quadrilateral check."""

    relation_holds: bool
    relation_residual: float
    off_circle_distance: float
    inscribable_variant_d: float


def diameter_cubic(a: float, b: float, c: float) -> float:
    """Unique positive root of d^3 - (a^2+b^2+c^2) d - 2abc.

    Scale-free: with m = max(a, b, c) and u = d / m, the cubic
    u^3 - s u - p, with s the sum of squared ratios and p twice their
    product, is increasing and convex for u >= sqrt(s), where the root
    lies.  The root satisfies u*^2 = s + p / u* and u* >= sqrt(s), so
    u0 = sqrt(s + p / sqrt(s)) lies right of it, and the monotone Newton
    descent shared with :func:`~semichord.solver.solve_diameter` falls
    onto the root from there (a u0 that rounding puts just left of the
    root is returned at once).  The slope 3u^2 - s is convex, so the
    secant of the last two slopes bounds the second derivative 6u, and
    the descent returns an iterate unevaluated once that certifies the
    step after it below half an ulp.  Closed-form resolution is avoided
    on purpose: the three-real-root case needs trigonometric branches.
    Raises :class:`DomainError` for a side that is not a real number or
    not positive and finite, and when d is not a finite float, as when
    it overflows.
    """
    sides, m, (ca, cb, cc), _ = _scaled((a, b, c))
    s = ca * ca + cb * cb + cc * cc
    p = 2.0 * ca * cb * cc

    u0 = math.sqrt(s + p / math.sqrt(s))
    u, _, _ = _newton_descent(
        lambda u: (u * u - s) * u - p, lambda u: 3.0 * u * u - s, u0, 1.0
    )
    return _finite(sides, m * u)


def closing_side(a: float, b: float, d: float) -> float:
    """Fourth side of the inscribed quadrilateral with sides a, b on d.

    Solves the relation of :func:`diameter_cubic` for its third chord c:
    with x = a/d and y = b/d, c^2 + 2xy d c - g d^2 = 0 for
    g = 1 - x^2 - y^2, whose root c >= 0 is d g / (h + sqrt(h^2 + g))
    with h = xy.  g and h are formed exactly and rounded once, so the
    form has no cancellation, and g < 0, the chords overshooting the
    semicircle, is decided exactly on the float inputs.  Raises
    :class:`DomainError` for a length that is not a real number or out
    of range, or when d/2 is not a normal float, and
    :class:`PlacementError` when the chords overshoot the semicircle.
    """
    d = _diameter(d)
    a, b = _floats((a, b))
    if not 0.0 < a < d or not 0.0 < b < d:
        raise DomainError("chords must be positive and shorter than the diameter")
    x, y = Fraction(a) / Fraction(d), Fraction(b) / Fraction(d)
    g = 1 - x * x - y * y
    if g < 0:
        raise PlacementError(
            f"chords {a!r} and {b!r} overshoot the semicircle of diameter {d!r}"
        )
    # A subnormal d/2 is a domain error, as for every other radius.
    _radius(0.5 * d)
    g, h = float(g), float(x * y)
    return d * (g / (h + math.sqrt(h * h + g)))


def enumerate_incongruent_quads(a: float, b: float, c: float) -> list[QuadArrangement]:
    """All incongruent inscribed quadrilaterals with short sides a, b, c.

    Every ordering shares the diameter from :func:`diameter_cubic`.  Each
    short side subtends an arc below pi, so it is shorter than d, and an
    isometry between two such figures maps the diameter onto itself: it
    is the identity or the mirror that reverses the short sides.  The
    incongruent arrangements are therefore exactly the orderings up to
    reversal, each kept as the lesser of itself and its reverse, and
    their count is the number of distinct sides: 3, 2 or 1.  Each
    arrangement's arc partition is checked where it is built, by
    ``solver._partition``.
    """
    d = diameter_cubic(a, b, c)
    radius = 0.5 * d
    arrangements: list[QuadArrangement] = []
    for order in sorted({p for p in permutations(_floats((a, b, c))) if p <= p[::-1]}):
        poly = vertices_from_angles(_partition(*_arcs(order, d)), radius)
        arrangements.append(
            QuadArrangement(
                ordered_sides=order, d=d, polygon=poly, middle_side=order[1]
            )
        )
    return arrangements


def counterexample_report() -> CounterexampleReport:
    """Check the built-in quadrilateral that defeats the naive converse.

    Sides (sqrt(2), 3+sqrt(5), 3-sqrt(5)) against the long side
    4*sqrt(2) satisfy the diameter relation exactly, yet the planar
    quadrilateral with a right angle between the first short side and
    the long side places its second vertex well off the semicircle on
    the long side: the relation alone does not force inscribability.
    The same three sides in a different shape do inscribe, on exactly
    that diameter.
    """
    a = math.sqrt(2.0)
    b = 3.0 + math.sqrt(5.0)
    c = 3.0 - math.sqrt(5.0)
    d = 4.0 * math.sqrt(2.0)

    corner = (0.0, a)  # right angle at the first vertex, (0, 0)

    relation_residual = abs(d * d - rhs_quadrilateral(a, b, c, d))
    center = (0.5 * d, 0.0)
    radius = 0.5 * d
    off_circle = abs(math.dist(corner, center) - radius)
    return CounterexampleReport(
        relation_holds=relation_residual <= 1e-12 * d * d,
        relation_residual=relation_residual,
        off_circle_distance=off_circle,
        inscribable_variant_d=diameter_cubic(a, b, c),
    )
