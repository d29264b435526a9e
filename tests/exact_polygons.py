"""Semicircle polygons with exactly rational sides, as an oracle for the solvers.

Put vertex k of a polygon on the semicircle of diameter d at half-angle
phi_k from the first diameter endpoint, so phi runs from 0 to pi/2 and
the chord between vertices i and j is d * sin(phi_j - phi_i).  With
q = tan(phi / 2) rational, sin phi = 2q / (1 + q^2) and
cos phi = (1 - q^2) / (1 + q^2) are rational, and so is every chord
when d is.  Each polygon is drawn as increasing q_k in [0, 1], the ends
q = 0 and q = 1 being the diameter endpoints, and its sides and d are
exact :class:`fractions.Fraction` values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def sin_cos(q: Fraction) -> tuple[Fraction, Fraction]:
    """Exact sin phi and cos phi at tan(phi/2) = q."""
    return 2 * q / (1 + q * q), (1 - q * q) / (1 + q * q)


def chord(q_i: Fraction, q_j: Fraction, d: Fraction) -> Fraction:
    """Exact chord between the vertices at tan(phi/2) = q_i and q_j."""
    sin_i, cos_i = sin_cos(q_i)
    sin_j, cos_j = sin_cos(q_j)
    return d * abs(sin_j * cos_i - cos_j * sin_i)


def vertex(q: Fraction, radius: Fraction) -> tuple[Fraction, Fraction]:
    """Exact vertex at tan(phi/2) = q on the circle of this radius.

    Its polar angle is pi - 2 phi, so q = 0 gives (-radius, 0) and q = 1
    gives (radius, 0): the vertex order of :class:`semichord.InscribedPolygon`.
    """
    s, c = sin_cos(q)
    return -radius * (c * c - s * s), 2 * radius * s * c


def random_qs(rng: random.Random, n: int) -> list[Fraction]:
    """n + 1 increasing values of tan(phi/2) from 0 to 1: an n-sided polygon.

    Half of the draws raise the inner values to the 8th power, crowding
    those vertices near the first endpoint, so that the last side is
    close to the diameter: the regime that sets the solvers' conditioning.
    """
    power = rng.choice((1, 8))
    inner: set[Fraction] = set()
    while len(inner) < n - 1:
        inner.add(Fraction(rng.randrange(1, 2**30), 2**30) ** power)
    return [Fraction(0), *sorted(inner), Fraction(1)]


def random_polygon(rng: random.Random, n: int) -> tuple[list[Fraction], Fraction]:
    """Exact sides of a random n-sided semicircle polygon and its diameter."""
    d = Fraction(rng.randrange(1, 2**30), rng.randrange(1, 2**30))
    qs = random_qs(rng, n)
    return [chord(qs[k], qs[k + 1], d) for k in range(n)], d


def ulp_error(computed: float, exact: Fraction) -> float:
    """|computed - exact| in units of the last place of the float nearest exact."""
    return float(abs(Fraction(computed) - exact) / Fraction(math.ulp(float(exact))))
