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
g' is convex too, every derivative of asin being positive, so from the
second step on the secant of the last two slopes bounds g'' over the
next step; once that bounds the step after it below half an ulp, the
next iterate is returned without another asin pass.  Where a bound is
exact, as for two sides, rounding may put t0 just left of the root; it
is then returned at once, as accurate as that rounding.  Where sum c_i^2
rounds to 1, t0 = 1 lies on the long side's vertical tangent, where g'
is infinite; there the relation itself gives d in closed form.  The long
side's arc fills what the others leave of the half turn, asin(m/d) =
pi/2 - theta with theta = sum asin(a_i/d) over the other sides, so m/d =
cos theta and

    d = m + m * 2 sin^2(theta/2) / cos theta,

the excess over m written without cancellation.  theta is taken on m
rather than d, sum asin(c_i) over the ratios c_i < 1; that leaves a
relative error of about theta^4 / 2 in d, below 2^-62 for any list
under a million sides, since their squared ratios sum to a few ulps.
Every descent thus starts at t0 < 1, where c_i t < 1 and g' is finite.
:func:`solve_diameter` then certifies a bracket around d with g itself,
evaluated once at m/d: d is an end on each side its value allows, and
any other end steps outward from d until g(m / end) changes sign.  It
is the only function here that returns one; :func:`inscribe_from_sides`
and the fuzz round trip take the same d from ``_solve`` without the
certificate.  :func:`arc_sum` states the equation in d for callers; no
solver path evaluates it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import asin, cos, fsum, inf, isfinite, pi, sin, sqrt, ulp
from operator import mul
from sys import float_info

from .errors import ConvergenceError, DomainError
from .geometry import (
    CentralAngles,
    InscribedPolygon,
    _built_angles,
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

    ``g(m / bracket_low) >= 0 >= g(m / bracket_high)`` holds as the solver
    computes g (see the module docstring), m the largest side; g depends
    only on the ratios a/m and m/d, so the ends scale with the sides
    exactly.  ``iterations`` counts Newton steps.
    ``arc_sum_residual`` is the arc-sum error at the final iterate, taken
    on the sides divided by the largest one, so it does not depend on
    the sides' scale: its computed magnitude where the descent evaluated
    that iterate, or, where it stopped on a certified step, the bound
    M * step^2 / 2 on the exact error the last step leaves (see
    ``_newton_descent``), far below the rounding of an evaluation.  Where
    d comes from the closed form at the vertical tangent (see the module
    docstring), ``iterations`` is 0 and the residual is the computed one
    at m / d, the bracket's own first evaluation.
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
    and ``slope`` return the function and its derivative, and the
    derivative must be convex too.  On an increasing convex function a
    Newton step from the right never crosses the root, so the iterates
    fall monotonically onto it (safeguarded Newton as in Press et al.,
    Numerical Recipes, section 9.4, with convexity as the safeguard).

    From the second step on, the secant M of the last two slopes bounds
    the second derivative over the next step Delta, since the slope is
    convex.  So the exact value at the next iterate exceeds the tangent
    line's, 0 but for the step's rounding, by at most M Delta^2 / 2, and
    the slope there is at least s - M Delta, s the current slope.  When
    the step after it, at most M Delta^2 / (2 (s - M Delta)), is below
    half an ulp, the next iterate is returned without evaluating the
    function there.  Otherwise the descent stops at the first iterate
    whose value is no longer positive, or when a step no longer moves x
    down: at the root's rounding, or at an infinite slope.

    ``slope`` is called only at an iterate of positive value, where a
    step is taken.  Returns the iterate, its value (the bound
    M Delta^2 / 2 when it stops on the certified step) and the step
    count.
    """
    fx = value(x)
    steps = 0
    while fx > 0.0:
        s = slope(x)
        nxt = x - fx / s
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
        if steps > 1:
            step = x - nxt
            curve = (s_before - s) / (x_before - x)
            bound = 0.5 * curve * step * step
            reach = s - curve * step
            if curve >= 0.0 and reach > 0.0 and bound < 0.5 * ulp(nxt) * reach:
                return nxt, bound, steps
        # Two floats, not a tuple: the descent allocates no container.
        x_before, s_before = x, s
        x, fx = nxt, value(nxt)
    return x, fx, steps


def _bracket_end(g, m: float, d: float, sign: float) -> float:
    """Bracket end beyond d in direction ``sign``, as the solver's g computes it.

    Below d the end has g(m / end) >= 0, above d at most 0.  The caller
    has found that d itself is not an end; the steps double from one ulp.
    Downward steps stop at the largest side m, where g(1) >= 0: that
    side's own term asin(1) rounds to half of pi's float, and no other
    term is negative.  Upward steps stop at the largest finite float; if
    g there is still positive, the sides have no finite diameter, and the
    end returned is inf, for ``_finite`` to raise on.
    """
    step = ulp(d)
    while True:
        end = min(max(d + sign * step, m), float_info.max)
        if sign * g(m / end) <= 0.0:
            return end
        if end == float_info.max:
            return inf
        step *= 2.0


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


def _solve(sides) -> tuple[tuple[float, ...], float, float | None, int, Callable, float]:
    """Diameter of the sides by monotone Newton, without a certificate.

    At the vertical tangent, t0 = 1, d comes from the closed form of the
    module docstring instead, after 0 steps, and no residual is taken:
    only :func:`solve_diameter` needs g(m / d), and it evaluates that
    itself.

    Returns the sides as the float tuple it checked, d, the final
    normalised arc-sum residual (None at the tangent), the Newton step
    count, g and the largest side m.  Raises as :func:`solve_diameter`
    does.
    """
    sides, m, ratios, ratio_sum = _scaled(sides)

    def g(t: float) -> float:
        total = 0.0
        for c in ratios:
            total += asin(c * t)
        return 2.0 * total - pi

    def g_slope(t: float) -> float:
        # c <= 1 and t <= t0 < 1, so c*t < 1 and the product below is positive.
        slope = 0.0
        for c in ratios:
            x = c * t
            slope += c / sqrt((1.0 - x) * (1.0 + x))
        return 2.0 * slope

    t0 = min(1.0 / sqrt(fsum(map(mul, ratios, ratios))), 0.5 * pi / ratio_sum)
    if t0 == 1.0:
        # The vertical tangent: d in closed form (see the module docstring).
        theta = fsum(asin(c) for c in ratios if c < 1.0)
        d = _finite(sides, m + m * (2.0 * sin(0.5 * theta) ** 2 / cos(theta)))
        return sides, d, None, 0, g, m
    t, residual, steps = _newton_descent(g, g_slope, t0, 1.0 / ratio_sum)
    return sides, _finite(sides, m / t), residual, steps, g, m


def solve_diameter(sides) -> DiameterSolution:
    """Find the unique diameter on which the sides fill a semicircle.

    Monotone Newton on t = max(sides) / d from the smaller of two upper
    bounds on the root, max(sides) / sqrt(sum(a^2)) and
    pi * max(sides) / (2 sum(a)) (see the module docstring), or in closed
    form where that start is t = 1, then the bracket is certified around
    d by the same g.  Raises :class:`DomainError` for a side that is not
    positive and finite, and when the diameter or a bracket end is not a
    finite float, as when it overflows.
    """
    sides, d, residual, steps, g, m = _solve(sides)
    # The bracket's first evaluation, and the residual at the tangent.
    excess = g(m / d)
    return DiameterSolution(
        d=d,
        bracket_low=d if excess >= 0.0 else _bracket_end(g, m, d, -1.0),
        bracket_high=d if excess <= 0.0 else _finite(sides, _bracket_end(g, m, d, 1.0)),
        iterations=steps,
        arc_sum_residual=abs(excess if residual is None else residual),
    )


def _arcs(sides: tuple[float, ...], d: float) -> tuple[list[float], int]:
    """:func:`arcs_from_sides` on read sides and diameter, with the widest's index.

    The widest side's arc is the complement of the others; ``_partition``
    checks the list by the rule this build leaves open.
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


def _partition(arcs: list[float], widest: int) -> CentralAngles:
    """``CentralAngles(arcs)`` for arcs built from sides by ``_arcs``.

    Every arc but ``arcs[widest]`` lies in [0, pi], and ``arcs[widest]``
    is pi less the others' correctly rounded sum.  That leaves two of
    ``CentralAngles``' rules: ``arcs[widest]`` is non-negative, and at
    least two arcs are positive.  A non-negative complement closes the
    half turn to within about one ulp of pi, far inside
    ``ARC_SUM_TOL``, so the sum needs no check.  A list that breaks a
    rule gets ``CentralAngles``' error.
    """
    # A side whose ratio to d underflows gives a zero arc.
    return _built_angles(arcs, 0.0 <= arcs[widest] and len(arcs) - arcs.count(0.0) >= 2)


def inscribe_from_sides(sides) -> InscribedPolygon:
    """Solve the diameter, then realize the polygon on its semicircle.

    Only :func:`solve_diameter` returns the certified bracket; this
    takes the same d without building it.  The arc partition is checked
    where it is built, by ``_partition``.
    """
    # _solve returns the sides as a tuple, so a one-shot iterable is read once.
    sides, d, _, _, _, _ = _solve(sides)
    # A subnormal d/2 is a domain error, checked before the arcs it can degenerate.
    radius = _radius(0.5 * d)
    return vertices_from_angles(_partition(*_arcs(sides, d)), radius)
