"""Tests for diameter recovery from side lengths."""

import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semichord import (
    CentralAngles,
    ConvergenceError,
    DiameterSolution,
    DomainError,
    InvalidAnglesError,
    SemichordError,
    arc_sum,
    arcs_from_sides,
    diagonal,
    diameter_cubic,
    evaluate_general,
    inscribe_from_sides,
    side_lengths,
    solve_diameter,
    vertices_from_angles,
)
from semichord import solver
from semichord.solver import _bracket_end, _newton_descent, _ratio

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
COUNTEREXAMPLE_SIDES = (SQRT2, 3.0 + SQRT5, 3.0 - SQRT5)

# Positive root of d^3 - 50 d - 120, frozen from the bisection oracle
# (recomputed independently in test_quads).
ROOT_3_4_5 = 8.055810359525175


side_lists = st.lists(
    st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=12
)


class TestArcSum:
    def test_thales_triangle(self):
        assert arc_sum(5.0, [3.0, 4.0]) == pytest.approx(math.pi, abs=1e-15)

    def test_half_regular_hexagon(self):
        assert arc_sum(2.0, [1.0, 1.0, 1.0]) == pytest.approx(math.pi, abs=1e-15)

    def test_counterexample_sides_on_their_root(self):
        # 4*sqrt(2) is the positive root of d^3 - 30 d - 8*sqrt(2).
        assert arc_sum(4.0 * SQRT2, COUNTEREXAMPLE_SIDES) == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_exact_ratio_one_is_half_turn(self):
        assert arc_sum(2.0, [2.0]) == pytest.approx(math.pi, abs=1e-15)

    def test_rejects_diameter_below_longest_side(self):
        with pytest.raises(DomainError):
            arc_sum(3.9, [3.0, 4.0])

    def test_rejects_non_positive_diameter(self):
        with pytest.raises(DomainError):
            arc_sum(0.0, [1.0])

    def test_rejects_negative_side(self):
        with pytest.raises(DomainError):
            arc_sum(5.0, [3.0, -4.0])

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            arc_sum(5.0, [])

    @given(sides=side_lists)
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing(self, sides):
        start = max(sides)
        samples = [start * (1.0 + 0.4 * k) for k in range(6)]
        values = [arc_sum(d, sides) for d in samples]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestSolveDiameter:
    def test_thales(self):
        solution = solve_diameter([3.0, 4.0])
        assert solution.d == pytest.approx(5.0, abs=1e-12)

    def test_half_regular_hexagon(self):
        solution = solve_diameter([1.0, 1.0, 1.0])
        assert solution.d == pytest.approx(2.0, abs=1e-12)

    def test_counterexample_sides(self):
        solution = solve_diameter(COUNTEREXAMPLE_SIDES)
        assert solution.d == pytest.approx(4.0 * SQRT2, rel=1e-11)

    def test_3_4_5(self):
        solution = solve_diameter([3.0, 4.0, 5.0])
        assert solution.d == pytest.approx(ROOT_3_4_5, rel=1e-12)

    def test_solution_certificate(self):
        solution = solve_diameter([2.0, 3.0, 4.0, 5.0])
        assert solution.bracket_low <= solution.d <= solution.bracket_high
        assert solution.d >= 5.0
        assert solution.arc_sum_residual <= 1e-12
        sides = [2.0, 3.0, 4.0, 5.0]
        assert arc_sum(solution.bracket_low, sides) >= math.pi
        assert arc_sum(solution.bracket_high, sides) <= math.pi

    @pytest.mark.parametrize(
        "sides, pinned",
        [
            # The low end steps: the arc sum at d is just below pi.
            (
                [2, 2, 2],
                ("0x1.0000000000001p+2", "0x1.0000000000000p+2",
                 "0x1.0000000000001p+2", 5, "0x0.0p+0"),
            ),
            (
                [1, 1, 1, 1, 1, 1],
                ("0x1.ee8dd4748bf16p+1", "0x1.ee8dd4748bf14p+1",
                 "0x1.ee8dd4748bf16p+1", 3, "0x1.0000000000000p-51"),
            ),
            # The high end steps, one subnormal ulp.
            (
                [1e-310, 1e-310],
                ("0x0.01a088b6bf34fp-1022", "0x0.01a088b6bf34fp-1022",
                 "0x0.01a088b6bf350p-1022", 0, "0x1.0000000000000p-51"),
            ),
            (
                [7, 1],
                ("0x1.c48c6001f0ac0p+2", "0x1.c48c6001f0abfp+2",
                 "0x1.c48c6001f0ac0p+2", 0, "0x1.0000000000000p-50"),
            ),
        ],
    )
    def test_stepped_brackets_are_pinned(self, sides, pinned):
        solution = solve_diameter(sides)
        d, low, high, iterations, residual = pinned
        assert solution == DiameterSolution(
            d=float.fromhex(d),
            bracket_low=float.fromhex(low),
            bracket_high=float.fromhex(high),
            iterations=iterations,
            arc_sum_residual=float.fromhex(residual),
        )

    # Unclamped, the downward steps from just above the largest side 1.0
    # overshoot it: from 3 ulps above to one ulp below 1.0, and from 10
    # ulps above to a d that the side exceeds.
    @pytest.mark.parametrize("ulps", [3, 10])
    def test_low_end_stops_at_the_largest_side(self, ulps):
        d = 1.0 + ulps * math.ulp(1.0)
        assert _bracket_end((1.0, 1e-300), d, -1.0) == 1.0

    def test_rejects_single_side(self):
        with pytest.raises(DomainError):
            solve_diameter([3.0])

    def test_rejects_zero_side(self):
        with pytest.raises(DomainError):
            solve_diameter([3.0, 0.0])

    def test_rejects_negative_side(self):
        with pytest.raises(DomainError):
            solve_diameter([3.0, -1.0])

    @pytest.mark.parametrize(
        "order",
        [
            (3.0, 4.0, 5.0),
            (5.0, 4.0, 3.0),
            (4.0, 5.0, 3.0),
        ],
    )
    def test_permutation_invariance(self, order):
        reference = solve_diameter([3.0, 4.0, 5.0]).d
        assert solve_diameter(order).d == pytest.approx(reference, rel=1e-13)

    @given(sides=side_lists)
    @settings(max_examples=150, deadline=None)
    def test_existence_and_bracket(self, sides):
        solution = solve_diameter(sides)
        assert solution.bracket_low <= solution.d <= solution.bracket_high
        assert solution.d >= max(sides)
        assert arc_sum(solution.bracket_low, sides) >= math.pi
        assert arc_sum(solution.bracket_high, sides) <= math.pi

    @given(
        weights=st.lists(
            st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=12
        ),
        radius=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_recovers_diameter(self, weights, radius):
        total = math.fsum(weights)
        angles = CentralAngles(math.pi * w / total for w in weights)
        poly = vertices_from_angles(angles, radius)
        solution = solve_diameter(side_lengths(poly))
        assert abs(solution.d - 2.0 * radius) <= 1e-10 * 2.0 * radius

    @given(
        triple=st.tuples(
            st.floats(min_value=1e-2, max_value=1e2),
            st.floats(min_value=1e-2, max_value=1e2),
            st.floats(min_value=1e-2, max_value=1e2),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_cubic_for_three_sides(self, triple):
        transcendental = solve_diameter(triple).d
        algebraic = diameter_cubic(*triple)
        assert abs(transcendental - algebraic) <= 1e-10 * algebraic


class TestNewtonStart:
    @pytest.mark.parametrize(
        "sides, expected", [((1.0, 1.0), SQRT2), ((8.0, 15.0), 17.0)]
    )
    def test_start_at_the_root_returns_at_once(self, sides, expected):
        # The start 1/sqrt(sum c^2) is the root itself, and rounding puts it
        # at or just left of the root, so the descent takes no step.
        solution = solve_diameter(sides)
        assert solution.iterations == 0
        assert abs(solution.d - expected) <= math.ulp(expected)
        assert arc_sum(solution.bracket_low, sides) >= math.pi
        assert arc_sum(solution.bracket_high, sides) <= math.pi

    def test_descent_that_never_settles_raises_with_its_bracket(self):
        # A constant positive value with a huge slope moves x down by 1e-10
        # a step, so the descent runs into the step cap.
        with pytest.raises(ConvergenceError) as info:
            _newton_descent(lambda x: 1.0, lambda x: 1e10, 1.0, 0.0)
        assert info.value.code == "no_convergence"
        assert info.value.bracket_low == 0.0
        assert info.value.bracket_high < 1.0

    @pytest.mark.parametrize(
        "value, slope_at, x0, expected, slope_calls",
        [
            # One exact step onto the root, where the value is 0: no slope there.
            (lambda x: x - 1.0, 1.0, 3.0, (1.0, 0.0, 1), 1),
            # The value stays positive at 1, where the step is below an ulp.
            (lambda x: max(x - 1.0, 1e-300), 1.0, 3.0, (1.0, 1e-300, 1), 2),
            # An infinite slope gives a zero step, so no step is taken.
            (lambda x: 1.0, math.inf, 2.0, (2.0, 1.0, 0), 1),
        ],
    )
    def test_slope_is_taken_only_where_a_step_is_tried(
        self, value, slope_at, x0, expected, slope_calls
    ):
        calls = []

        def slope(x):
            calls.append(x)
            return slope_at

        x, fx, steps = _newton_descent(value, slope, x0, 0.0)
        assert (x, fx, steps) == expected
        # steps when it stops on a value <= 0, steps + 1 when x stops moving.
        assert len(calls) == (steps if fx <= 0.0 else steps + 1) == slope_calls
        assert all(value(at) > 0.0 for at in calls)

    @given(
        ratios=st.lists(
            st.floats(min_value=2.0**-10, max_value=1.0), min_size=2, max_size=64
        ),
        k=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fused_descent_bit_for_bit(self, ratios, k):
        sides = [math.ldexp(c, k) for c in ratios]
        assert solve_diameter(sides) == _fused_solve(sides)


def _fused_solve(sides):
    """solve_diameter with value and slope in one closure, stepping as before.

    Evaluates the slope at every iterate, the last one included; the
    solver must agree with it bit for bit.
    """
    sides = tuple(sides)
    m = max(sides)
    ratios = [a / m for a in sides]

    def g(t):
        total = slope = 0.0
        for c in ratios:
            x = c * t
            total += math.asin(x)
            gap = (1.0 - x) * (1.0 + x)
            slope += c / math.sqrt(gap) if gap > 0.0 else math.inf
        return 2.0 * total - math.pi, 2.0 * slope

    ratio_sum = math.fsum(ratios)
    t = min(
        1.0 / math.sqrt(math.fsum(c * c for c in ratios)), 0.5 * math.pi / ratio_sum
    )
    value, slope = g(t)
    steps = 0
    while value > 0.0:
        nxt = t - value / slope
        if not nxt < t:
            break
        steps += 1
        t = nxt
        value, slope = g(t)
    d = m / t
    excess = arc_sum(d, sides) - math.pi
    return DiameterSolution(
        d=d,
        bracket_low=d if excess >= 0.0 else _bracket_end(sides, d, -1.0),
        bracket_high=d if excess <= 0.0 else _bracket_end(sides, d, 1.0),
        iterations=steps,
        arc_sum_residual=abs(value),
    )


def _bumped_sides(d, ratios, bumps):
    """Sides ratio * d, each nudged up by 0-2 ulps so a/d can exceed 1."""
    sides = []
    for ratio, bump in zip(ratios, bumps):
        a = ratio * d
        for _ in range(bump):
            a = math.nextafter(a, math.inf)
        sides.append(a)
    return sides


ratio_sides = st.tuples(
    st.floats(min_value=1e-3, max_value=1e3),
    st.lists(
        st.one_of(st.floats(min_value=1e-6, max_value=1.0), st.just(1.0)),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.integers(min_value=0, max_value=2), min_size=12, max_size=12),
)


class TestRatioKernel:
    """The inline ratio is bit-identical to clamping every ratio with _ratio."""

    @given(case=ratio_sides)
    @settings(max_examples=300, deadline=None)
    def test_arc_total_matches_clamped_reference(self, case):
        d, ratios, bumps = case
        sides = _bumped_sides(d, ratios, bumps)
        reference = 0.0
        for a in sides:
            reference += math.asin(_ratio(a, d))
        assert arc_sum(d, sides) == 2.0 * reference

    @given(case=ratio_sides)
    @settings(max_examples=300, deadline=None)
    def test_arcs_match_enumerated_complement(self, case):
        d, ratios, bumps = case
        sides = _bumped_sides(d, ratios, bumps)
        reference = [2.0 * math.asin(_ratio(a, d)) for a in sides]
        widest = max(range(len(sides)), key=lambda i: sides[i])
        reference[widest] = math.pi - math.fsum(
            arc for i, arc in enumerate(reference) if i != widest
        )
        assert arcs_from_sides(sides, d) == reference

    def test_clamp_path_is_exercised(self):
        d = 3.0
        a = math.nextafter(d, math.inf)
        assert a / d > 1.0
        assert arcs_from_sides([a], d) == [math.pi]
        assert arc_sum(d, [a]) == math.pi


class TestArcsFromSides:
    def test_arcs_sum_to_half_turn(self):
        arcs = arcs_from_sides([3.0, 4.0, 5.0], ROOT_3_4_5)
        assert math.fsum(arcs) == pytest.approx(math.pi, abs=1e-14)

    def test_rejects_side_beyond_diameter(self):
        with pytest.raises(DomainError):
            arcs_from_sides([3.0, 4.0], 3.5)


class TestInscribeFromSides:
    def test_right_triangle_on_diameter_five(self):
        poly = inscribe_from_sides([3.0, 4.0])
        assert poly.radius == pytest.approx(2.5, abs=1e-12)
        (ax, ay), (bx, by), (cx, cy) = poly.vertices
        dot = (ax - bx) * (cx - bx) + (ay - by) * (cy - by)
        assert dot == pytest.approx(0.0, abs=1e-10)  # right angle off the diameter

    def test_half_regular_hexagon_vertices(self):
        poly = inscribe_from_sides([1.0, 1.0, 1.0])
        expected_angles = [math.pi, 2.0 * math.pi / 3.0, math.pi / 3.0, 0.0]
        for (x, y), theta in zip(poly.vertices, expected_angles):
            assert x == pytest.approx(math.cos(theta), abs=1e-12)
            assert y == pytest.approx(math.sin(theta), abs=1e-12)

    def test_one_shot_iterable_gives_the_list_result(self):
        sides = [3.0, 4.0, 2.5]
        assert inscribe_from_sides(x for x in sides) == inscribe_from_sides(sides)

    def test_counterexample_sides_do_inscribe(self):
        poly = inscribe_from_sides(COUNTEREXAMPLE_SIDES)
        assert diagonal(poly, 0, 3) == pytest.approx(4.0 * SQRT2, rel=1e-11)
        assert evaluate_general(poly).residual_rel <= 1e-12

    @given(sides=side_lists)
    @settings(max_examples=100, deadline=None)
    def test_sides_are_reproduced(self, sides):
        poly = inscribe_from_sides(sides)
        d = 2.0 * poly.radius
        for given_side, measured in zip(sides, side_lengths(poly)):
            assert abs(measured - given_side) <= 1e-10 * d
        assert evaluate_general(poly).residual_rel <= 1e-10


@st.composite
def semicircle_sides(draw):
    """Chords of a random arc partition: n in 2..64, radius 2^k with |k| <= 1000.

    Half of the draws put one arc within 1e-6 of pi, so that one side is
    close to the diameter.
    """
    n = draw(st.integers(min_value=2, max_value=64))
    mantissa = draw(st.floats(min_value=1.0, max_value=2.0, exclude_max=True))
    radius = math.ldexp(mantissa, draw(st.integers(min_value=-1000, max_value=1000)))
    weights = draw(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        gap = draw(st.floats(min_value=1e-9, max_value=1e-6))
        total = math.fsum(weights[1:])
        arcs = [gap * w / total for w in weights[1:]]
        arcs.insert(draw(st.integers(min_value=0, max_value=n - 1)), math.pi - gap)
    else:
        total = math.fsum(weights)
        arcs = [math.pi * w / total for w in weights]
    return [2.0 * radius * math.sin(0.5 * arc) for arc in arcs]


class TestInscribeSkipsTheCertificate:
    """inscribe_from_sides takes solve_diameter's d without its bracket."""

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_polygon_composed_from_public_steps(self, sides):
        d = solve_diameter(sides).d
        composed = vertices_from_angles(CentralAngles(arcs_from_sides(sides, d)), d / 2)
        assert inscribe_from_sides(sides) == composed

    @pytest.mark.parametrize(
        "sides, message",
        [
            ([1.0, math.nan], "all sides must be positive and finite"),
            ([math.nan, 1.0], "all sides must be positive and finite"),
            ([1.0, math.inf], "all sides must be positive and finite"),
            ([1.0, 0.0], "all sides must be positive and finite"),
            ([1.0, -1.0], "all sides must be positive and finite"),
            (
                [5e-324, 5e-324],
                "radius must be a positive normal float with a finite diameter",
            ),
            (
                [1e-310, 1e-310],
                "radius must be a positive normal float with a finite diameter",
            ),
        ],
    )
    def test_errors_keep_their_class_code_and_message(self, sides, message):
        with pytest.raises(DomainError) as info:
            inscribe_from_sides(sides)
        assert type(info.value) is DomainError
        assert info.value.code == "domain"
        assert str(info.value) == message

    def test_only_solve_diameter_evaluates_the_arc_sum(self, monkeypatch):
        calls = []

        arc_total = solver.arc_sum

        def counted(d, sides):
            calls.append(d)
            return arc_total(d, sides)

        monkeypatch.setattr(solver, "arc_sum", counted)
        sides = [3.0, 4.0, 5.0, 6.0]
        inscribe_from_sides(sides)
        assert calls == []
        solve_diameter(sides)
        assert len(calls) >= 1


def _reference_passes(sides):
    """``_solve``'s value pass, slope pass, t0 and floor, written out.

    The loops call ``math.`` functions, the slope branches on ``gap`` and
    Σc² is summed over a list; the solver must match them bit for bit.
    """
    m = max(sides)
    ratios = [a / m for a in sides]
    ratio_sum = math.fsum(ratios)

    def g(t):
        total = 0.0
        for c in ratios:
            total += math.asin(c * t)
        return 2.0 * total - math.pi

    def g_slope(t):
        slope = 0.0
        for c in ratios:
            x = c * t
            gap = (1.0 - x) * (1.0 + x)
            slope += c / math.sqrt(gap) if gap > 0.0 else math.inf
        return 2.0 * slope

    t0 = min(
        1.0 / math.sqrt(math.fsum([c * c for c in ratios])), 0.5 * math.pi / ratio_sum
    )
    return g, g_slope, t0, 1.0 / ratio_sum


def _reference_solve(sides):
    sides = tuple(map(float, sides))
    t, residual, steps = _newton_descent(*_reference_passes(sides))
    return sides, max(sides) / t, residual, steps


def _reference_arc_sum(d, sides):
    total = 0.0
    for a in sides:
        total += math.asin(a / d if a <= d else _ratio(a, d))
    return 2.0 * total


def _reference_vertices(sides):
    """inscribe_from_sides' vertices, placed with ``math.cos``/``math.sin``."""
    sides, d, _, _ = _reference_solve(sides)
    arcs = [2.0 * math.asin(a / d if a <= d else _ratio(a, d)) for a in sides]
    widest = sides.index(max(sides))
    arcs[widest] = 0.0
    arcs[widest] = math.pi - math.fsum(arcs)
    R = 0.5 * d
    pts = [(-R, 0.0)]
    theta = math.pi
    for arc in arcs[:-1]:
        theta -= arc
        pts.append((R * math.cos(theta), R * math.sin(theta)))
    pts.append((R, 0.0))
    return arcs, pts


def _bits(*values):
    """The floats' bytes, so -0.0 and 0.0 differ and nan equals itself."""
    return struct.pack(f"<{len(values)}d", *values)


class TestLoopsMatchTheirReference:
    """The solver's per-side loops give the written-out form's floats."""

    @staticmethod
    def _check(sides):
        passes = []

        def descent(value, slope, x, floor):
            passes.append((value, slope, x, floor))
            return _newton_descent(value, slope, x, floor)

        with mock.patch.object(solver, "_newton_descent", descent):
            got_sides, d, residual, steps = solver._solve(sides)
        ref_sides, ref_d, ref_residual, ref_steps = _reference_solve(sides)
        assert _bits(*got_sides, d, residual) == _bits(*ref_sides, ref_d, ref_residual)
        assert steps == ref_steps
        # Each pass on its own, at the start, the root and between them.
        (value, slope, t0, floor), = passes
        ref_value, ref_slope, ref_t0, ref_floor = _reference_passes(ref_sides)
        assert _bits(t0, floor) == _bits(ref_t0, ref_floor)
        root = max(sides) / d
        for t in (t0, root, 0.5 * (t0 + root)):
            assert _bits(value(t), slope(t)) == _bits(ref_value(t), ref_slope(t))
        ref_arcs, ref_pts = _reference_vertices(sides)
        assert _bits(*arcs_from_sides(sides, d)) == _bits(*ref_arcs)
        for at in (d, max(sides)):
            assert _bits(arc_sum(at, sides)) == _bits(_reference_arc_sum(at, sides))
        vertices = inscribe_from_sides(sides).vertices
        assert _bits(*(v for p in vertices for v in p)) == _bits(
            *(v for p in ref_pts for v in p)
        )

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_semicircle_chords(self, sides):
        self._check(sides)

    def test_thales_triangle(self):
        assert solver._solve([3.0, 4.0])[1:] == (5.0, 0.0, 1)
        self._check([3.0, 4.0])

    def test_vertical_tangent_ends_the_descent(self):
        # t0 is 1, where c*t == 1 for the long side: the slope there is
        # infinite, so the descent stops at once, its residual the short
        # side's excess of 2e-9.
        _, d, residual, steps = solver._solve([1.0, 1e-9])
        assert (d, steps) == (1.0, 0)
        assert residual == pytest.approx(2e-9, rel=1e-6)
        self._check([1.0, 1e-9])


def _outcome(build, *args):
    """The arcs ``build`` gives, or the class and message it raises."""
    try:
        return build(*args).arcs
    except SemichordError as error:
        return type(error), str(error)


def _checked_partition(sides, d):
    return CentralAngles(arcs_from_sides(sides, d))


class TestPartitionMatchesTheCheckedConstruction:
    """inscribe_from_sides checks its arc partition where it builds it.

    For any d, solved or not, ``_partition`` gives the arcs of
    ``CentralAngles(arcs_from_sides(sides, d))``, or its exception class
    and message.
    """

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_solved_diameter_is_at_least_the_largest_side(self, sides):
        # So no side of a solved polygon takes _ratio's branch.
        sides, d, _, _ = solver._solve(sides)
        assert d >= max(sides)

    @staticmethod
    def _check(sides, d):
        got = _outcome(solver._partition, sides, d)
        assert got == _outcome(_checked_partition, sides, d)
        return got

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_checked_partition(self, sides):
        sides, d, _, _ = solver._solve(sides)
        self._check(sides, d)
        for exponent in range(-15, -8):
            for sign in (1.0, -1.0):
                self._check(sides, d * (1.0 + sign * 10.0**exponent))
        self._check(sides, max(sides) * (1.0 - 1e-9))

    @pytest.mark.parametrize("sides", [(5e-324, 4.0), (4.0, 5e-324)])
    def test_underflowed_arc_keeps_the_zero_arc_rule(self, sides):
        d = solver._solve(sides)[1]
        assert self._check(sides, d) == (
            InvalidAnglesError,
            "at least two arcs must be strictly positive",
        )
        with pytest.raises(InvalidAnglesError) as info:
            inscribe_from_sides(list(sides))
        assert info.value.code == "invalid_angles"

    def test_failed_rule_builds_the_arcs_once(self):
        sides = (5e-324, 4.0)
        d = solver._solve(sides)[1]
        with mock.patch.object(solver, "asin", wraps=math.asin) as asin:
            with pytest.raises(InvalidAnglesError):
                solver._partition(sides, d)
        assert asin.call_count == len(sides)

    @pytest.mark.parametrize(
        "sides, d, error",
        [
            ((1.0, 2.0), 1.5, (DomainError, "side 2.0 exceeds diameter 1.5")),
            # Every side equals d: the others' arcs pass the half turn.
            ((1.0, 1.0, 1.0), 1.0, (InvalidAnglesError, "arcs must be non-negative")),
        ],
    )
    def test_off_root_diameter_keeps_its_error(self, sides, d, error):
        assert self._check(sides, d) == error

    def test_built_without_revalidation_but_equal(self):
        sides, d, _, _ = solver._solve([3.0, 4.0, 5.0, 6.0])
        angles = solver._partition(sides, d)
        assert type(angles) is CentralAngles
        assert angles == _checked_partition(sides, d)
