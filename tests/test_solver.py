"""Tests for diameter recovery from side lengths."""

import importlib.util
import math
import struct
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import references
from semichord import (
    CentralAngles,
    ConvergenceError,
    DiameterSolution,
    DomainError,
    FuzzConfig,
    InvalidAnglesError,
    SemichordError,
    arc_sum,
    arcs_from_sides,
    diagonal,
    diameter_cubic,
    enumerate_incongruent_quads,
    evaluate_general,
    inscribe_from_sides,
    run_fuzz,
    side_lengths,
    solve_diameter,
    vertices_from_angles,
)
from semichord import cli, solver
from semichord.geometry import ARC_SUM_TOL
from semichord.solver import _bracket_end, _newton_descent

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)
COUNTEREXAMPLE_SIDES = (SQRT2, 3.0 + SQRT5, 3.0 - SQRT5)

# Positive root of d^3 - 50 d - 120, frozen from the bisection oracle
# (recomputed independently in test_quads).
ROOT_3_4_5 = 8.055810359525175


side_lists = st.lists(
    st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=12
)


def _assert_certificate(solution, sides):
    """The bracket holds d, and g(m / low) >= 0 >= g(m / high) in the solver's g."""
    g, m = references.passes(sides)[0], max(sides)
    assert solution.bracket_low <= solution.d <= solution.bracket_high
    assert g(m / solution.bracket_low) >= 0.0 >= g(m / solution.bracket_high)


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
        sides = [2.0, 3.0, 4.0, 5.0]
        solution = solve_diameter(sides)
        assert solution.d >= 5.0
        assert solution.arc_sum_residual <= 1e-12
        _assert_certificate(solution, sides)

    @pytest.mark.parametrize(
        "sides, pinned",
        [
            # The descent stops on its prediction, so the residual is the
            # bound on the exact value there.  The high end steps: g at
            # m/d is just above 0.
            (
                [2, 2, 2],
                ("0x1.ffffffffffffep+1", "0x1.ffffffffffffep+1",
                 "0x1.0000000000001p+2", 3, "0x1.a8d62267b8888p-52"),
            ),
            # The low end steps: g at m/d is just below 0.
            (
                [1, 1, 1, 1, 1, 1],
                ("0x1.ee8dd4748bf16p+1", "0x1.ee8dd4748bf14p+1",
                 "0x1.ee8dd4748bf16p+1", 3, "0x1.8724e26654855p-84"),
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
        g = references.passes((1.0, 1e-300))[0]
        assert _bracket_end(g, 1.0, d, -1.0) == 1.0

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
        assert solution.d >= max(sides)
        _assert_certificate(solution, sides)

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
        _assert_certificate(solution, sides)

    def test_descent_that_never_settles_raises_with_its_bracket(self):
        # A constant positive value with a huge slope moves x down by 1e-10
        # a step, so the descent runs into the step cap.  The slope rises
        # as x falls, so its secant is negative and certifies no stop.
        with pytest.raises(ConvergenceError) as info:
            _newton_descent(lambda x: 1.0, lambda x: 1e10 * (2.0 - x), 1.0, 0.0)
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

    def test_certified_step_is_returned_unevaluated(self):
        # x^2 - 2 from 2: the fifth step is certified below half an ulp, so
        # its iterate, sqrt(2) to the last bit, is never evaluated, and the
        # value returned is the bound M * step^2 / 2 with M = 2.
        calls = []

        def value(x):
            calls.append(x)
            return x * x - 2.0

        x, fx, steps = _newton_descent(value, lambda x: 2.0 * x, 2.0, 1.0)
        assert x == math.sqrt(2.0) and steps == 5
        assert len(calls) == steps and x not in calls
        assert fx == (calls[-1] - x) ** 2

    @given(
        ratios=st.lists(
            st.floats(min_value=2.0**-10, max_value=1.0), min_size=2, max_size=64
        ),
        k=st.integers(min_value=-1000, max_value=1000),
    )
    # Starts on the long side's vertical tangent, t0 = 1.
    @example(ratios=[1.0, 1e-9], k=0)
    @example(ratios=[1.0, 1e-8], k=0)
    @example(ratios=[1.0] + [1.3e-9] * 60, k=0)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_written_out_solution_bit_for_bit(self, ratios, k):
        sides = [math.ldexp(c, k) for c in ratios]
        assert solve_diameter(sides) == references.solution(sides)


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
        assert arc_sum(d, sides) == references.arc_sum(d, sides)

    @given(case=ratio_sides)
    @settings(max_examples=300, deadline=None)
    def test_arcs_match_enumerated_complement(self, case):
        d, ratios, bumps = case
        sides = _bumped_sides(d, ratios, bumps)
        assert arcs_from_sides(sides, d) == references.arcs_from_sides(sides, d)

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

    def test_no_path_evaluates_the_arc_sum(self):
        # The bracket is certified in the solver's g, so arc_sum is public
        # only: no solve, placement, enumeration or fuzz trial reaches it.
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is arc_sum.__code__:
                calls.append(frame.f_locals["d"])

        sides = [3.0, 4.0, 5.0, 6.0]
        sys.setprofile(profile)
        try:
            solve_diameter(sides)
            inscribe_from_sides(sides)
            enumerate_incongruent_quads(3.0, 4.0, 5.0)
            run_fuzz(FuzzConfig(trials=200, n_max=64))
        finally:
            sys.setprofile(None)
        assert calls == []

    @pytest.mark.parametrize("sides", [[3.0, 4.0, 5.0, 6.0], [2, 2, 2], [1.0, 1e-9]])
    def test_solve_diameter_evaluates_g_at_d_once(self, sides, monkeypatch):
        # The descent's last value is at its iterate t, not at m/d, and at
        # the vertical tangent _solve takes no residual: solve_diameter
        # evaluates g at m/d once, and beyond that only in the bracket's
        # outward steps, stubbed here.
        at = []
        solve = solver._solve

        def counted(given):
            *head, g, m = solve(given)

            def value(t):
                at.append(t)
                return g(t)

            return (*head, value, m)

        monkeypatch.setattr(solver, "_solve", counted)
        monkeypatch.setattr(solver, "_bracket_end", lambda g, m, d, sign: d)
        solution = solve_diameter(sides)
        assert at == [max(sides) / solution.d]


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
            got_sides, d, residual, steps, _, _ = solver._solve(sides)
        ref_sides, ref_d, ref_residual, ref_steps = references.solve(sides)
        assert _bits(*got_sides, d) == _bits(*ref_sides, ref_d)
        assert (steps, residual is None) == (ref_steps, ref_residual is None)
        if residual is not None:
            assert _bits(residual) == _bits(ref_residual)
        assert solve_diameter(sides) == references.solution(sides)
        # Each pass on its own, at the start, the root and between them.  At
        # t0 = 1 d comes in closed form, with no descent to check.
        ref_value, ref_slope, ref_t0, ref_floor = references.passes(ref_sides)
        assert len(passes) == (0 if ref_t0 == 1.0 else 1)
        for value, slope, t0, floor in passes:
            assert _bits(t0, floor) == _bits(ref_t0, ref_floor)
            root = max(sides) / d
            for t in (t0, root, 0.5 * (t0 + root)):
                assert _bits(value(t), slope(t)) == _bits(ref_value(t), ref_slope(t))
        ref_arcs = references.arcs_from_sides(ref_sides, ref_d)
        assert _bits(*arcs_from_sides(sides, d)) == _bits(*ref_arcs)
        for at in (d, max(sides)):
            assert _bits(arc_sum(at, sides)) == _bits(references.arc_sum(at, sides))
        vertices = inscribe_from_sides(sides).vertices
        ref_pts = references.vertices(ref_arcs, 0.5 * ref_d)
        assert _bits(*(v for p in vertices for v in p)) == _bits(
            *(v for p in ref_pts for v in p)
        )

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_semicircle_chords(self, sides):
        self._check(sides)

    def test_thales_triangle(self):
        assert solver._solve([3.0, 4.0])[1:4] == (5.0, 0.0, 1)
        self._check([3.0, 4.0])

    def test_vertical_tangent_is_solved_without_a_descent(self):
        # t0 is 1, where c*t == 1 for the long side and the slope is
        # infinite.  The closed form gives d = 1 + 5e-19, which rounds to
        # 1, after 0 steps and with no residual pass; solve_diameter's
        # residual is the short side's excess there.
        _, d, residual, steps, _, _ = solver._solve([1.0, 1e-9])
        assert (d, residual, steps) == (1.0, None, 0)
        solution = solve_diameter([1.0, 1e-9])
        assert solution.arc_sum_residual == pytest.approx(2e-9, rel=1e-6)
        self._check([1.0, 1e-9])
        # The root 1 + 5e-17 rounds to 1, not to 1 + 2.2e-16.
        assert solve_diameter([1.0, 1e-8]).d == 1.0

    @pytest.mark.parametrize("short, count", [(1.3e-9, 60), (1e-9, 50), (3e-9, 10)])
    def test_vertical_tangent_closed_form_matches_the_float_reference(
        self, short, count
    ):
        # sum(c^2) rounds to 1, so t0 = 1 on the long side's vertical
        # tangent, yet d exceeds 1 by several ulps.  The float reference
        # d = 1 / cos(count * asin(short / d)) is iterated from d = 1.
        sides = [1.0] + [short] * count
        reference = 1.0
        for _ in range(5):
            reference = 1.0 / math.cos(count * math.asin(short / reference))
        assert reference > 1.0
        _, d, _, steps, _, _ = solver._solve(sides)
        assert steps == 0
        assert abs(d - reference) <= math.ulp(reference)
        self._check(sides)


def _within_half_an_ulp_of_the_hypotenuse(d, m, s):
    """|d - sqrt(m^2 + s^2)| <= 0.501 of the gap to d's neighbour on its side.

    Decided exactly, by squaring both ends of the interval in ``Fraction``s.
    """
    exact, at = Fraction(m) ** 2 + Fraction(s) ** 2, Fraction(d)
    low = at - Fraction(501, 1000) * (at - Fraction(math.nextafter(d, 0.0)))
    high = at + Fraction(501, 1000) * (Fraction(math.nextafter(d, math.inf)) - at)
    return low * low <= exact <= high * high


class TestVerticalTangent:
    @given(
        mantissa=st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        k=st.integers(min_value=-1000, max_value=999),
        ratio=st.floats(min_value=2.0**-60, max_value=2e-8),
        flip=st.booleans(),
    )
    @example(mantissa=1.0, k=0, ratio=1e-8, flip=False)
    @settings(max_examples=300, deadline=None)
    def test_two_sides_give_the_thales_hypotenuse(self, mantissa, k, ratio, flip):
        # Two sides [m, s] span a right triangle on the diameter, so
        # d^2 = m^2 + s^2 exactly.  At t0 = 1 the closed form must round
        # that root correctly, with a thousandth of an ulp to spare.
        m = math.ldexp(mantissa, k)
        s = m * ratio
        sides = [s, m] if flip else [m, s]
        assume(s > 0.0 and references.passes(sides)[2] == 1.0)
        solution = solve_diameter(sides)
        assert solution.iterations == 0
        assert _within_half_an_ulp_of_the_hypotenuse(solution.d, m, s)

    @given(
        j=st.integers(min_value=1, max_value=8),
        weights=st.lists(
            st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=63
        ),
        k=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_starts_just_below_the_tangent_keep_the_slope_finite(self, j, weights, k):
        # The squared ratios sum to about 1 + j * 2^-52, so t0 lies a few
        # ulps below 1, or at 1 where the closed form takes over.  The
        # descent then has c*t < 1 for every ratio, so no slope divides
        # by 0, and d is at least the longest side.
        total = math.fsum(weights)
        ratios = [1.0] + [math.sqrt(j * 2.0**-52 * w / total) for w in weights]
        sides = [math.ldexp(c, k) for c in ratios]
        d = solver._solve(sides)[1]
        assert d >= max(sides)


def _solve_wide_pools():
    """The 1600 inputs of a one-second seed-1 ``solve_wide`` run, rounds 0-7."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [x[2] for r in range(8) for x in workloads.SolveWide().make_pool(1, r)]


def test_passes_per_solve_on_the_solve_wide_inputs():
    # Step counts are deterministic for fixed inputs.  asin calls are
    # counted around _solve only, so the closed form's theta pass on the
    # inputs that start at t0 = 1 counts; it takes no residual pass, and
    # the bracket's are not counted.  Only the closed form calls cos, once
    # a solve.
    calls = [0]
    tangents = [0]

    def counted(x):
        calls[0] += 1
        return math.asin(x)

    def tangent(x):
        tangents[0] += 1
        return math.cos(x)

    inputs = _solve_wide_pools()
    steps = 0
    passes = []
    with mock.patch.object(solver, "asin", counted), mock.patch.object(solver, "cos", tangent):
        for sides in inputs:
            before = calls[0]
            steps += solver._solve(sides)[3]
            passes.append((calls[0] - before) / len(sides))
    mean_steps = steps / len(inputs)
    mean_passes = math.fsum(passes) / len(passes)
    assert mean_steps <= 2.4, (
        f"solve_diameter iterations mean {mean_steps}, "
        f"asin calls per side per solve {mean_passes}, over {len(inputs)} inputs"
    )
    assert len(inputs) == 1600
    assert (calls[0], steps, tangents[0]) == (116748, 3736, 43)
    assert mean_passes == pytest.approx(2.3889, abs=1e-4)


def _outcome(build, *args):
    """What ``build`` returns, or the class and message it raises."""
    try:
        return build(*args)
    except SemichordError as error:
        return type(error), str(error)


@st.composite
def built_arcs(draw):
    """Arcs as ``solver._arcs`` builds them, with the widest's index.

    n - 1 arcs in [0, pi], half the time rescaled to sum to about pi so
    that the complement sits near 0, and at any index the half-turn
    complement of their correctly rounded sum.
    """
    n = draw(st.integers(min_value=2, max_value=64))
    arcs = draw(
        st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=n - 1, max_size=n - 1)
    )
    total = math.fsum(arcs)
    if total > 0.0 and draw(st.booleans()):
        arcs = [min(a * (math.pi / total), math.pi) for a in arcs]
    widest = draw(st.integers(min_value=0, max_value=n - 1))
    arcs.insert(widest, 0.0)
    arcs[widest] = math.pi - math.fsum(arcs)
    return arcs, widest


class TestCheckedAngles:
    """``_partition`` keeps ``CentralAngles``' rules for built arcs.

    Every arc but ``arcs[widest]`` lies in [0, pi], and ``arcs[widest]``
    is the complement of their sum, as where ``solver._arcs`` builds
    them.  That leaves two rules to check; each row breaks one, and must
    get ``CentralAngles(arcs)``'s error.
    """

    @pytest.mark.parametrize(
        "arcs, widest",
        [
            ([2.0, 1.5, math.pi - 3.5], 2),
            ([0.0, math.pi], 1),
            ([0.0, math.pi, 0.0], 1),
            ([1.0, math.nan, 1.0], 1),
        ],
        ids=["negative-widest", "one-positive", "one-of-three", "nan"],
    )
    def test_failed_rule_gets_the_central_angles_error(self, arcs, widest):
        got = _outcome(solver._partition, arcs, widest)
        assert got == _outcome(CentralAngles, arcs)
        assert got[0] is InvalidAnglesError

    @given(built=built_arcs())
    @example(built=([math.pi / 2, math.pi / 2], 0))
    @example(built=([math.pi, 0.0, 0.0], 0))
    @settings(max_examples=500, deadline=None)
    def test_non_negative_complement_closes_the_half_turn(self, built):
        # So the sum rule CentralAngles checks holds with no check of its own.
        arcs, widest = built
        if arcs[widest] >= 0.0:
            assert abs(math.fsum(arcs) - math.pi) <= 2 * math.ulp(math.pi)
        got = _outcome(solver._partition, arcs, widest)
        assert got == _outcome(CentralAngles, arcs)

    @pytest.mark.parametrize(
        "arcs, widest",
        [
            ([1.0, 1.0, math.pi - 2.0], 2),
            ([0.0, 1.0, math.pi - 1.0], 2),
            ([1.0, math.pi - 1.0 + 0.5 * ARC_SUM_TOL], 1),
        ],
    )
    def test_passing_list_is_the_central_angles(self, arcs, widest):
        angles = solver._partition(arcs, widest)
        assert type(angles) is CentralAngles
        assert angles == CentralAngles(arcs)


def _checked_partition(sides, d):
    return CentralAngles(arcs_from_sides(sides, d))


class TestPartitionMatchesTheCheckedConstruction:
    """inscribe_from_sides checks its arc partition where it builds it.

    For any d, solved or not, ``_partition(*_arcs(sides, d))`` gives the
    arcs of ``CentralAngles(arcs_from_sides(sides, d))``, or its
    exception class and message.
    """

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_solved_diameter_is_at_least_the_largest_side(self, sides):
        # So no side of a solved polygon takes _ratio's branch.
        sides, d, *_ = solver._solve(sides)
        assert d >= max(sides)

    @staticmethod
    def _check(sides, d):
        got = _outcome(lambda s, d: solver._partition(*solver._arcs(s, d)), sides, d)
        assert got == _outcome(_checked_partition, sides, d)
        return got

    @given(sides=semicircle_sides())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_checked_partition(self, sides):
        sides, d, *_ = solver._solve(sides)
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
                solver._partition(*solver._arcs(sides, d))
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
        sides, d, *_ = solver._solve([3.0, 4.0, 5.0, 6.0])
        angles = solver._partition(*solver._arcs(sides, d))
        assert type(angles) is CentralAngles
        assert angles == _checked_partition(sides, d)


class TestBuildersSkipTheClassCheck:
    """The solver and quads builders never run ``CentralAngles.__post_init__``.

    Their partitions are checked by ``_partition`` where they are built;
    only a user's arcs, as ``verify --radius`` takes them, reach the
    class check.
    """

    @pytest.fixture
    def validated(self, monkeypatch):
        validated = []
        post_init = CentralAngles.__post_init__

        def counted(self):
            validated.append(self)
            post_init(self)

        monkeypatch.setattr(CentralAngles, "__post_init__", counted)
        return validated

    def test_inscribe_from_sides(self, validated):
        for sides in _solve_wide_pools():
            inscribe_from_sides(sides)
        assert validated == []

    @pytest.mark.parametrize("sides", [(3.0, 4.0, 5.0), (2.0, 2.0, 3.0), (2.0, 2.0, 2.0)])
    def test_enumerate_incongruent_quads(self, validated, sides):
        assert enumerate_incongruent_quads(*sides)
        assert validated == []

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["construct", "3,4,5"], 0),
            (["verify", "3,4,5,6"], 0),
            (["render", "3,4,5", "--out", "sides.svg"], 0),
            # The class must check a user's arcs.
            (["verify", "30,60,90", "--radius", "2"], 1),
        ],
    )
    def test_cli(self, validated, argv, count, tmp_path, capsys):
        argv = [str(tmp_path / arg) if arg.endswith(".svg") else arg for arg in argv]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out
        assert len(validated) == count
