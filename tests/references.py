"""Written-out references for the solver's and the placement's loops.

One copy each of the steps ``semichord.solver`` and ``vertices_from_angles``
take, in plain loops over ``math.`` functions that share no code with the
package, so a test that pins the package to them bit for bit sees a change
in either.  :func:`assert_certificate` checks a solution's bracket in the g
that :func:`passes` writes out.  pytest does not collect this module (it
has no ``test_`` prefix); tests import it by name, as ``exact_polygons``.
"""

from __future__ import annotations

import math
import sys

from semichord import DiameterSolution, solver


def passes(sides):
    """``_solve``'s value pass, slope pass, start t0 and floor, written out.

    The ratios are the sides over the largest, and sum(c^2) is summed
    over a list.
    """
    m = max(sides)
    ratios = [a / m for a in sides]
    ratio_sum = math.fsum(ratios)

    def value(t):
        total = 0.0
        for c in ratios:
            total += math.asin(c * t)
        return 2.0 * total - math.pi

    def slope(t):
        total = 0.0
        for c in ratios:
            x = c * t
            total += c / math.sqrt((1.0 - x) * (1.0 + x))
        return 2.0 * total

    t0 = min(
        1.0 / math.sqrt(math.fsum([c * c for c in ratios])), 0.5 * math.pi / ratio_sum
    )
    return value, slope, t0, 1.0 / ratio_sum


def assert_certificate(solution, sides):
    """The bracket holds d, and g(m / low) >= 0 >= g(m / high) in ``passes``' g."""
    g, m = passes(sides)[0], max(sides)
    assert solution.bracket_low <= solution.d <= solution.bracket_high
    assert g(m / solution.bracket_low) >= 0.0 >= g(m / solution.bracket_high)


def descent(value, slope, t):
    """``_newton_descent``'s iterate, value and step count, without its step cap.

    From the second step on, the secant of the last two slopes bounds the
    step after the next; below half an ulp, the next iterate is returned
    unevaluated with that bound as its value.  t falls at every step, so
    the loop ends.
    """
    fx = value(t)
    steps = 0
    previous = None
    while fx > 0.0:
        s = slope(t)
        nxt = t - fx / s
        if not nxt < t:
            break
        steps += 1
        delta = t - nxt
        if previous is not None:
            t_before, s_before = previous
            secant = (s_before - s) / (t_before - t)
            bound = 0.5 * secant * delta * delta
            reach = s - secant * delta
            if secant >= 0.0 and reach > 0.0 and bound < 0.5 * math.ulp(nxt) * reach:
                return nxt, bound, steps
        previous = t, s
        t, fx = nxt, value(nxt)
    return t, fx, steps


def tangent_closed_form(m, ratios):
    """d = m / cos(theta) at t0 = 1, theta the other sides' arcs on m."""
    theta = math.fsum([math.asin(c) for c in ratios if c < 1.0])
    return m + m * (2.0 * math.sin(0.5 * theta) ** 2 / math.cos(theta))


def solve(sides):
    """``solver._solve``'s sides, d, residual and steps; no residual at t0 = 1."""
    sides = tuple(map(float, sides))
    m = max(sides)
    value, slope, t0, _ = passes(sides)
    if t0 == 1.0:
        return sides, tangent_closed_form(m, [a / m for a in sides]), None, 0
    t, residual, steps = descent(value, slope, t0)
    return sides, m / t, residual, steps


def solution(sides):
    """``solve_diameter(sides)``: :func:`solve`'s d, bracketed in ``passes``' g.

    g is taken once at m/d, and d is an end on each side that value
    allows.  Any other end steps outward from d by 1, 2, 4, ... ulps of
    d, held to [m, the largest float], until g at m/end has that end's
    sign; where none does, the end is inf.
    """
    sides, d, residual, steps = solve(sides)
    m = max(sides)
    value = passes(sides)[0]
    excess = value(m / d)

    def end(sign):
        if sign * excess <= 0.0:
            return d
        step = math.ulp(d)
        while True:
            at = min(max(d + sign * step, m), sys.float_info.max)
            if sign * value(m / at) <= 0.0:
                return at
            if at == sys.float_info.max:
                return math.inf
            step *= 2.0

    return DiameterSolution(
        d=d,
        bracket_low=end(-1.0),
        bracket_high=end(1.0),
        iterations=steps,
        arc_sum_residual=abs(excess if residual is None else residual),
    )


def arc_sum(d, sides):
    """``semichord.arc_sum`` with every ratio clamped by ``_ratio``."""
    total = 0.0
    for a in sides:
        total += math.asin(solver._ratio(a, d))
    return 2.0 * total


def arcs_from_sides(sides, d):
    """``semichord.arcs_from_sides`` with every ratio clamped by ``_ratio``."""
    arcs = [2.0 * math.asin(solver._ratio(a, d)) for a in sides]
    widest = max(range(len(sides)), key=lambda i: sides[i])
    arcs[widest] = math.pi - math.fsum(a for i, a in enumerate(arcs) if i != widest)
    return arcs


def vertices(arcs, radius):
    """The vertices ``vertices_from_angles`` places, without its checks.

    Vertex k sits at polar angle pi less the first k arcs, and the
    diameter's ends at (-radius, 0) and (radius, 0).
    """
    pts = [(-radius, 0.0)]
    theta = math.pi
    for arc in arcs[:-1]:
        theta -= arc
        pts.append((radius * math.cos(theta), radius * math.sin(theta)))
    pts.append((radius, 0.0))
    return tuple(pts)
