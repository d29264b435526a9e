"""Diameter recovery from side lengths alone.

A chord of length a on a circle of diameter d subtends the central
angle 2*asin(a/d).  The sides fit consecutively on a semicircle exactly
when those angles fill the half turn, so the diameter is the unique
root of

    arc_sum(d) = sum_i 2*asin(a_i / d) = pi,

which is strictly decreasing in d.  The solver works scale-free: with m
the largest side and c_i = a_i / m it solves

    g(t) = sum_i 2*asin(c_i t) - pi = 0    for t = m / d,

where g is increasing and convex on [0, 1].  Two bounds put the root
t* at or left of

    t0 = min(1 / sqrt(sum c_i^2), pi / (2 sum c_i)):

the squared-diameter identity gives d^2 = sum a_i^2 + (positive cross
terms), so t* <= 1 / sqrt(sum c_i^2); and asin x >= x on [0, 1], so
g(t) >= 2 t sum c_i - pi and t* <= pi / (2 sum c_i).  The first bound
is the tighter one for few uneven sides, the second for many sides.
Newton's method from t0 falls monotonically onto the root without a
bracketing phase, taking g's slope only at the iterates it steps from.
Where a bound is exact, as for two sides, rounding may put t0 just left
of the root; it is then returned at once, as accurate as that rounding.
:func:`solve_diameter` then certifies a bracket around d with
:func:`arc_sum` itself, trying d and then stepping outward from it
until the arc sum crosses pi.  It is the only function here that
returns one; :func:`inscribe_from_sides` and the fuzz round trip take
the same d from ``_solve`` without the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import asin, fsum, inf, isfinite, pi, sqrt, ulp
from operator import mul

from .errors import ConvergenceError, DomainError
from .geometry import (
    CentralAngles,
    InscribedPolygon,
    _checked_angles,
    _diameter,
    _floats,
    _radius,
    vertices_from_angles,
)

#: Cap on Newton steps; monotone descent settles in well under ten.
MAX_ITERATIONS = 200

#: Ratios may exceed 1 by this much before counting as a domain error.
_CLAMP_SLACK = 1e-15

_SIDES_NOT_FINITE = "all sides must be positive and finite"


@dataclass(frozen=True, slots=True)
class DiameterSolution:
    """Solved diameter with its bracket certificate.

    ``arc_sum(bracket_low) >= pi >= arc_sum(bracket_high)`` holds as
    :func:`arc_sum` computes it.  ``iterations`` counts Newton steps, and
    ``arc_sum_residual`` is the arc-sum error at the final iterate, taken
    on the sides divided by the largest one, so it does not depend on
    the sides' scale.
    """

    d: float
    bracket_low: float
    bracket_high: float
    iterations: int
    arc_sum_residual: float


def _ratio(a: float, d: float) -> float:
    """a/d for a positive finite side, with noise above 1 clamped to 1.

    Only ratios the callers cannot pass inline come here: a side above
    d, or one that ``_arcs`` has yet to check.
    """
    if not 0.0 < a < inf:
        raise DomainError(_SIDES_NOT_FINITE)
    ratio = a / d
    if ratio > 1.0 + _CLAMP_SLACK:
        raise DomainError(f"side {a!r} exceeds diameter {d!r}")
    return min(ratio, 1.0)


def _sides_and_diameter(sides, d) -> tuple[tuple[float, ...], float]:
    """A non-empty float tuple of ``sides`` and a checked diameter ``d``."""
    sides = _floats(sides)
    if not sides:
        raise DomainError("need at least one side")
    return sides, _diameter(d)


def arc_sum(d: float, sides) -> float:
    """Total central angle subtended by ``sides`` on diameter ``d``.

    Strictly decreasing and continuous in d on [max(sides), inf).
    Ratios a/d infinitesimally above 1 (floating-point noise) are
    clamped.  A ratio beyond the slack, or a side that is negative or
    not finite, is a domain error, raised for the first such side.
    """
    sides, d = _sides_and_diameter(sides, d)
    total = 0.0
    for a in sides:
        if not 0.0 <= a < inf:
            raise DomainError("sides must be non-negative and finite")
        total += asin(a / d if a <= d else _ratio(a, d))
    return 2.0 * total


def _newton_descent(value, slope, x: float, floor: float) -> tuple[float, float, int]:
    """Root of an increasing convex function by Newton's method from ``x``.

    ``x`` must lie right of the root and ``floor`` left of it; ``value``
    and ``slope`` return the function and its derivative.  On an
    increasing convex function a Newton step from the right never
    crosses the root, so the iterates fall monotonically onto it
    (safeguarded Newton as in Press et al., Numerical Recipes, section
    9.4, with convexity as the safeguard).  Stops at the first iterate
    whose value is no longer positive, or when a step no longer moves x
    down: rounding at the root, or an infinite slope.  ``slope`` is
    called only at an iterate of positive value, where a step is taken.
    Returns the iterate, its value and the step count.
    """
    fx = value(x)
    steps = 0
    while fx > 0.0:
        nxt = x - fx / slope(x)
        if not nxt < x:
            break
        if steps == MAX_ITERATIONS:
            raise ConvergenceError(
                f"Newton descent did not settle in {MAX_ITERATIONS} steps "
                f"(bracket in the normalised variable)",
                floor,
                x,
            )
        steps += 1
        x = nxt
        fx = value(x)
    return x, fx, steps


def _bracket_end(sides: tuple[float, ...], d: float, sign: float) -> float:
    """Bracket end at or beyond d in direction ``sign``, as arc_sum computes it.

    Below d the end has an arc sum of at least pi, above d at most pi.
    d itself is tried first, then steps doubling from one ulp.  Downward
    steps stop at the largest side, where the arc sum is at least pi.
    """
    floor = max(sides)
    end, step = d, ulp(d)
    while sign * (arc_sum(end, sides) - pi) > 0.0:
        end = max(d + sign * step, floor)
        step *= 2.0
    return end


def _scaled(sides) -> tuple[tuple[float, ...], float, list[float], float]:
    """The only front end of both root finders: ``sides`` read and scaled.

    Reads the sides with ``_floats`` and returns them as a float tuple,
    with the largest side m, the ratios a/m and their sum.  Raises
    :class:`DomainError` for a side that is not a real number, for fewer
    than two sides, and unless every side is positive and finite, in
    that order.
    """
    sides = _floats(sides)
    if len(sides) < 2:
        raise DomainError("need at least 2 sides to form a polygon on the semicircle")
    if not 0.0 < min(sides):
        raise DomainError(_SIDES_NOT_FINITE)
    m = max(sides)
    ratios = [a / m for a in sides]
    ratio_sum = fsum(ratios)
    if ratio_sum != ratio_sum:  # inf / inf, or a nan side that min passed over
        raise DomainError(_SIDES_NOT_FINITE)
    return sides, m, ratios, ratio_sum


def _finite(sides: tuple[float, ...], d: float) -> float:
    """A root finder's ``d``, checked finite: the only overflow rule for both."""
    if not isfinite(d):
        raise DomainError(f"sides {sides!r} have no finite diameter")
    return d


def _solve(sides) -> tuple[tuple[float, ...], float, float, int]:
    """Diameter of the sides by monotone Newton, without a certificate.

    Returns the sides as the float tuple it checked, d, the final
    normalised arc-sum residual and the Newton step count.  Raises as
    :func:`solve_diameter` does.
    """
    sides, m, ratios, ratio_sum = _scaled(sides)

    def g(t: float) -> float:
        total = 0.0
        for c in ratios:
            total += asin(c * t)
        return 2.0 * total - pi

    def g_slope(t: float) -> float:
        # c <= 1 and t <= t0 <= 1, so c*t never exceeds 1 and the product
        # below is never negative.  It is 0 only where c*t == 1 exactly: a
        # side equal to d, whose infinite slope ends the descent.
        slope = 0.0
        try:
            for c in ratios:
                x = c * t
                slope += c / sqrt((1.0 - x) * (1.0 + x))
        except ZeroDivisionError:
            return inf
        return 2.0 * slope

    t0 = min(1.0 / sqrt(fsum(map(mul, ratios, ratios))), 0.5 * pi / ratio_sum)
    t, residual, steps = _newton_descent(g, g_slope, t0, 1.0 / ratio_sum)
    return sides, _finite(sides, m / t), residual, steps


def solve_diameter(sides) -> DiameterSolution:
    """Find the unique diameter on which the sides fill a semicircle.

    Monotone Newton on t = max(sides) / d from the smaller of two upper
    bounds on the root, max(sides) / sqrt(sum(a^2)) and
    pi * max(sides) / (2 sum(a)) (see the module docstring), then the
    bracket is certified around d.  Raises :class:`DomainError` for a
    side that is not positive and finite, and when the diameter is not a
    finite float, as when it overflows.
    """
    sides, d, residual, steps = _solve(sides)
    return DiameterSolution(
        d=d,
        bracket_low=_bracket_end(sides, d, -1.0),
        bracket_high=_bracket_end(sides, d, 1.0),
        iterations=steps,
        arc_sum_residual=abs(residual),
    )


def _arcs(sides: tuple[float, ...], d: float) -> tuple[list[float], int]:
    """:func:`arcs_from_sides` on read sides and diameter, with the widest's index.

    Every arc but the widest side's complement lies in [0, pi], so a
    non-negative complement closes the half turn to within about one
    ulp of pi.
    """
    # A valid side has 0 < a <= d but for clamp noise; _ratio checks the rest.
    arcs = [2.0 * asin(a / d if 0.0 < a <= d else _ratio(a, d)) for a in sides]
    widest = sides.index(max(sides))
    # fsum is correctly rounded, so the zeroed entry leaves the sum exact.
    arcs[widest] = 0.0
    arcs[widest] = pi - fsum(arcs)
    return arcs, widest


def arcs_from_sides(sides, d: float) -> list[float]:
    """Central angles of the sides on diameter ``d``, summing to pi.

    The largest side's angle is taken as the half-turn complement of
    the others: its ratio to d can sit so close to 1 that asin loses
    several digits, while the complement inherits only the others'
    well-conditioned rounding.  Raises :class:`DomainError` for a side
    that is not positive and finite, or longer than d beyond the clamp.
    """
    return _arcs(*_sides_and_diameter(sides, d))[0]


def _partition(sides: tuple[float, ...], d: float) -> CentralAngles:
    """``CentralAngles(arcs_from_sides(sides, d))`` for read sides and diameter.

    The arcs are built once, by ``_arcs``, and checked where they are
    built, by ``geometry._checked_angles``, with the floats and errors
    of the checked construction for any d.
    """
    return _checked_angles(*_arcs(sides, d))


def inscribe_from_sides(sides) -> InscribedPolygon:
    """Solve the diameter, then realize the polygon on its semicircle.

    Only :func:`solve_diameter` returns the certified bracket; this
    takes the same d without building it.  The arc partition is checked
    where it is built, by ``_partition``.
    """
    # _solve returns the sides as a tuple, so a one-shot iterable is read once.
    sides, d, _, _ = _solve(sides)
    # A subnormal d/2 is a domain error, checked before the arcs it can degenerate.
    radius = _radius(0.5 * d)
    return vertices_from_angles(_partition(sides, d), radius)
