"""Both Newton solvers against diameters known exactly, in ulps.

The polygons come from :mod:`exact_polygons`: rational sides on a
rational diameter.  The solvers see each side rounded to the nearest
float.  d is homogeneous of degree 1 and increasing in every side, so
its relative change is a weighted mean of the sides' relative changes;
that input rounding alone moves d by about one ulp.  The rest is the
solver's own error.

``closing_side`` is judged on its float inputs instead: its c is the
root of a quadratic whose coefficients are exact in those floats, so
the test brackets c exactly with no rounded reference.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_polygons import chord, random_polygon, random_qs, ulp_error, vertex
from semichord import (
    DomainError,
    InscribedPolygon,
    PlacementError,
    closing_side,
    diameter_cubic,
    evaluate_general,
    inscribe_from_sides,
    rhs_hexagon,
    rhs_pentagon,
    rhs_quadrilateral,
    solve_diameter,
)
from semichord import quads
from semichord.solver import _newton_descent

# Worst errors over seeds 0-9 of each test's draws below (200 polygons
# with n in 3..64, 500 quadrilaterals, or 800 closing-side triples, per
# seed): 5.40 ulp for solve_diameter (1.18 on the near-diameter polygons
# with many tiny sides), 2.46 ulp for diameter_cubic, 2.68 ulp for
# closing_side (seed 3) and 5.0 ulp of d^2 for evaluate_general's
# residual (seeds 1, 5 and 9).  Each bound is about 1.2 to 1.4 times
# that worst case.
SOLVE_DIAMETER_ULPS = 7.5
DIAMETER_CUBIC_ULPS = 3.0
EVALUATE_GENERAL_ULPS = 7.0
CLOSING_SIDE_ULPS = 3.7


@pytest.mark.parametrize("n", [3, 4, 5, 8, 33, 64])
def test_oracle_satisfies_the_identity_exactly(n):
    # d^2 = sum(s^2) + 2 sum_k D1_k s_k D2_k / d, in exact arithmetic.
    rng = random.Random(n)
    d = Fraction(rng.randrange(1, 2**30), rng.randrange(1, 2**30))
    qs = random_qs(rng, n)
    sides = [chord(qs[k], qs[k + 1], d) for k in range(n)]
    cross = sum(
        chord(qs[0], qs[k], d) * sides[k] * chord(qs[k + 1], qs[n], d)
        for k in range(1, n - 1)
    )
    assert d * d == sum(s * s for s in sides) + 2 * cross / d
    assert chord(qs[0], qs[n], d) == d


@pytest.mark.parametrize("seed", range(5))
def test_fixed_size_right_sides_are_exact_on_rational_chords(seed):
    # v(i, j) is the exact chord between vertices i and j, numbered from 0.
    rng = random.Random(seed)
    for n in (3, 4, 5):
        d = Fraction(rng.randrange(1, 2**30), rng.randrange(1, 2**30))
        qs = random_qs(rng, n)

        def v(i, j):
            return chord(qs[i], qs[j], d)

        sides = [v(k, k + 1) for k in range(n)]
        if n == 3:
            rhs = rhs_quadrilateral(*sides, d)
        elif n == 4:
            rhs = rhs_pentagon(*sides, d / 2, v(0, 2), v(2, 4))
        else:
            rhs = rhs_hexagon(*sides, d / 2, v(3, 5), v(0, 2), v(2, 5), v(0, 3))
        assert rhs == d * d


def test_oracle_quadrilateral_is_a_root_of_the_cubic():
    rng = random.Random(0)
    for _ in range(20):
        (a, b, c), d = random_polygon(rng, 3)
        assert d**3 - (a * a + b * b + c * c) * d - 2 * a * b * c == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_solve_diameter_ulp_error(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(200):
        sides, d = random_polygon(rng, rng.randint(3, 64))
        floats = [float(s) for s in sides]
        solved = solve_diameter(floats).d
        # The polygon is built on the same d, without the certificate.
        assert 2 * inscribe_from_sides(floats).radius == solved
        worst = max(worst, ulp_error(solved, d))
    assert worst <= SOLVE_DIAMETER_ULPS


def _tiny_sides_polygon(rng):
    """Exact sides and d: one side near d and 56 to 63 tiny ones.

    Each tiny side's ratio to the long one is 0.9 to 1 times
    sqrt(0.9e-16 / k) for k tiny sides, so the squared ratios sum to
    under half an ulp of 1 and the solver starts at t0 = 1, on the long
    side's vertical tangent.  Yet d exceeds the long side by about
    (sum of ratios)^2 / 2, over 9 ulps.  The long side goes anywhere.
    """
    k = rng.randint(56, 63)
    gap = Fraction(math.sqrt(0.9e-16 / k) / 2)
    qs = [Fraction(0)]
    for _ in range(k):
        qs.append(qs[-1] + gap * Fraction(rng.randrange(900, 1000), 1000))
    qs.append(Fraction(1))
    d = Fraction(rng.randrange(1, 2**30), rng.randrange(1, 2**30))
    sides = [chord(qs[i], qs[i + 1], d) for i in range(k + 1)]
    sides.insert(rng.randrange(k + 1), sides.pop())
    return sides, d


@pytest.mark.parametrize("seed", [0, 1])
def test_solve_diameter_ulp_error_from_the_vertical_tangent(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(50):
        sides, d = _tiny_sides_polygon(rng)
        floats = [float(s) for s in sides]
        longest = max(floats)
        assert math.fsum([(a / longest) ** 2 for a in floats]) == 1.0
        worst = max(worst, ulp_error(solve_diameter(floats).d, d))
    assert worst <= SOLVE_DIAMETER_ULPS


@pytest.mark.parametrize("seed", [0, 1])
def test_diameter_cubic_ulp_error(seed):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(500):
        sides, d = random_polygon(rng, 3)
        worst = max(worst, ulp_error(diameter_cubic(*map(float, sides)), d))
    assert worst <= DIAMETER_CUBIC_ULPS


cubic_sides = st.one_of(
    st.tuples(*[st.floats(min_value=2.0**-30, max_value=2.0**30)] * 3),
    st.tuples(st.just(1.0), *[st.floats(min_value=2.0**-60, max_value=1.0)] * 2),
)


@given(cubic_sides)
@example((3.0, 4.0, 5.0))
@settings(max_examples=300, deadline=None)
def test_diameter_cubic_certified_stop_holds_exactly(abc):
    # Where the descent returns an iterate u it never evaluated, take x,
    # the iterate it stepped from, and y = x - f(x)/f'(x), the exact
    # Newton iterate.  The secant M of the exact slopes at the last two
    # iterates bounds f'' on [y, x], so 0 <= f(y) <= M (x - y)^2 / 2; the
    # certificate is that the exact step from y is below half an ulp of
    # u.  u itself is y rounded through the float value and step, as at
    # any iterate, so f(u) can fall either side of 0 by that rounding.
    found = {}

    def descent(value, slope, x, floor):
        values, slopes = [], []
        u, fu, steps = _newton_descent(
            lambda t: values.append(t) or value(t),
            lambda t: slopes.append(t) or slope(t),
            x,
            floor,
        )
        # At 0 the passes are exactly -p and -s.
        found.update(u=u, fu=fu, unevaluated=len(values) == steps, slopes=slopes,
                     s=-slope(0.0), p=-value(0.0))
        return u, fu, steps

    with mock.patch.object(quads, "_newton_descent", descent):
        diameter_cubic(*abc)
    if abc == (3.0, 4.0, 5.0):
        assert found["unevaluated"]
    if not found["unevaluated"]:
        return
    s, p = Fraction(found["s"]), Fraction(found["p"])

    def f(t):
        return (t * t - s) * t - p

    def f_slope(t):
        return 3 * t * t - s

    x_before, x = map(Fraction, found["slopes"][-2:])
    secant = (f_slope(x_before) - f_slope(x)) / (x_before - x)
    y = x - f(x) / f_slope(x)
    assert 0 <= f(y) <= secant * (x - y) ** 2 / 2
    u, ulp = Fraction(found["u"]), Fraction(math.ulp(found["u"]))
    assert f(y) / f_slope(y) < ulp / 2
    assert abs(u - y) <= ulp
    assert found["fu"] >= 0.0


def _normal_scaling(rng, values):
    """``values`` times 2^k, |k| <= 1000, with each and half of each normal."""
    exponents = [math.frexp(v)[1] for v in values]
    low, high = -1020 - min(exponents), 1023 - max(exponents)
    k = rng.randint(max(-1000, low), min(1000, high))
    return [math.ldexp(v, k) for v in values]


def _near_diameter_quad(rng):
    """Exact sides and d of a quadrilateral with one arc within 1e-6 of pi.

    The two short gaps in tan(phi/2) are below 2^-23, so the two small
    arcs, at most 4 gaps each, sum to under 1e-6; the long one is
    chord a, b or c at random.
    """
    gaps = [Fraction(rng.randrange(1, 2**30), 2**53) for _ in range(2)]
    gaps.insert(rng.randrange(3), 1 - sum(gaps))
    qs = [Fraction(0), gaps[0], gaps[0] + gaps[1], Fraction(1)]
    d = Fraction(rng.randrange(1, 2**30), rng.randrange(1, 2**30))
    return [chord(qs[k], qs[k + 1], d) for k in range(3)], d


def _closing_side_draws(rng, count):
    """``count`` float (a, b, d): oracle and near-diameter quadrilaterals in turn.

    Each is rounded to floats, and a quarter are scaled by a power of two.
    """
    draws = []
    for i in range(count):
        sides, d = random_polygon(rng, 3) if i % 2 else _near_diameter_quad(rng)
        floats = [float(sides[0]), float(sides[1]), float(d)]
        draws.append(_normal_scaling(rng, floats) if rng.random() < 0.25 else floats)
    return draws


def _overshoots(a, b, d):
    return Fraction(d) ** 2 < Fraction(a) ** 2 + Fraction(b) ** 2


@pytest.mark.parametrize("seed", [0, 1])
def test_closing_side_ulp_error(seed):
    # c solves q(c) = c^2 + 2(ab/d) c - (d^2 - a^2 - b^2) = 0, increasing
    # for c >= 0, so K ulps either side of the root have opposite signs.
    # Rounding the exact sides can put a near-diameter chord at d, or
    # overshoot when c is tiny; the float inputs then have no closing side.
    rng = random.Random(seed)
    for a, b, d in _closing_side_draws(rng, 800):
        if _overshoots(a, b, d):
            error = PlacementError if a < d and b < d else DomainError
            with pytest.raises(error):
                closing_side(a, b, d)
            continue
        c = closing_side(a, b, d)
        fa, fb, fd = Fraction(a), Fraction(b), Fraction(d)

        def q(x):
            return x * x + 2 * fa * fb / fd * x - (fd * fd - fa * fa - fb * fb)

        width = Fraction(CLOSING_SIDE_ULPS) * Fraction(math.ulp(c))
        assert q(Fraction(c) - width) <= 0 <= q(Fraction(c) + width)


lengths = st.floats(min_value=2.0**-20, max_value=2.0**20)


@st.composite
def chords_and_diameters(draw):
    """(a, b, d), with d within 3 ulps of sqrt(a^2 + b^2) half the time."""
    a, b = draw(lengths), draw(lengths)
    if not draw(st.booleans()):
        return a, b, draw(st.floats(min_value=max(a, b), max_value=2.0**21))
    d = math.hypot(a, b)
    steps = draw(st.integers(min_value=-3, max_value=3))
    for _ in range(abs(steps)):
        d = math.nextafter(d, math.copysign(math.inf, steps))
    return a, b, d


@given(chords_and_diameters())
@example((0.6, 0.8, 1.0))
@example((3.0, 4.0, 5.0))
@example((2.0118988374651848e-07, 1.129042465856196, 1.129042465856214))
@settings(max_examples=300, deadline=None)
def test_closing_side_overshoot_is_decided_exactly(abd):
    a, b, d = abd
    if not (a < d and b < d):
        return  # a domain error, tested in test_quads.py
    try:
        c = closing_side(a, b, d)
    except PlacementError:
        assert _overshoots(a, b, d)
    else:
        assert not _overshoots(a, b, d)
        assert 0.0 <= c <= d


@pytest.mark.parametrize("seed", [0, 1])
def test_evaluate_general_residual_in_ulps_of_d_squared(seed):
    # The identity holds exactly on the exact vertices, so the residual
    # is the rounding of the coordinates plus the evaluation's own error.
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(200):
        n = rng.randint(3, 64)
        radius = Fraction(rng.randrange(1, 2**30), rng.randrange(1, 2**30))
        points = [vertex(q, radius) for q in random_qs(rng, n)]
        poly = InscribedPolygon(float(radius), [(float(x), float(y)) for x, y in points])
        report = evaluate_general(poly)
        worst = max(worst, report.residual_abs / math.ulp(report.lhs))
    assert worst <= EVALUATE_GENERAL_ULPS


def test_exact_vertices_lie_on_the_circle_at_the_exact_chords():
    rng = random.Random(0)
    radius = Fraction(7, 3)
    qs = random_qs(rng, 6)
    points = [vertex(q, radius) for q in qs]
    assert points[0] == (-radius, 0) and points[-1] == (radius, 0)
    for i, (x_i, y_i) in enumerate(points):
        assert x_i * x_i + y_i * y_i == radius * radius
        for j in range(i + 1, len(points)):
            x_j, y_j = points[j]
            squared = (x_j - x_i) ** 2 + (y_j - y_i) ** 2
            assert squared == chord(qs[i], qs[j], 2 * radius) ** 2


def test_ulp_error_counts_units_in_the_last_place():
    exact = Fraction(1)
    assert ulp_error(1.0, exact) == 0.0
    assert ulp_error(math.nextafter(1.0, 2.0), exact) == 1.0
    assert ulp_error(math.nextafter(1.0, 0.0), exact) == 0.5
