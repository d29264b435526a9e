"""Tests for the squared-diameter identity evaluators."""

import math
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import arc_partitions, radii
from semichord import (
    CentralAngles,
    SplitMix64,
    corner_identity_residual,
    diagonal,
    evaluate_general,
    nested_quadrilateral_check,
    random_angles,
    rhs_hexagon,
    rhs_pentagon,
    rhs_quadrilateral,
    side_lengths,
    vertices_from_angles,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def _poly(arc_degrees, radius):
    return vertices_from_angles(
        CentralAngles(math.radians(t) for t in arc_degrees), radius
    )


class TestRhsQuadrilateral:
    def test_counterexample_sides_satisfy_relation(self):
        got = rhs_quadrilateral(SQRT2, 3.0 + SQRT5, 3.0 - SQRT5, 4.0 * SQRT2)
        assert got == pytest.approx(32.0, rel=1e-12)

    def test_zero_side_reduces_to_right_triangle(self):
        assert rhs_quadrilateral(0.0, 3.0, 4.0, 5.0) == 25.0

    def test_half_regular_hexagon(self):
        assert rhs_quadrilateral(1.0, 1.0, 1.0, 2.0) == 4.0

    @pytest.mark.parametrize(
        "triple", [(1.0, 2.0, 3.0), (0.3, 0.3, 5.0), (SQRT2, 3.0 + SQRT5, 3.0 - SQRT5)]
    )
    def test_symmetric_in_short_sides(self, triple):
        d = 2.0 * sum(triple)
        reference = rhs_quadrilateral(*triple, d)
        for perm in permutations(triple):
            assert rhs_quadrilateral(*perm, d) == pytest.approx(reference, rel=1e-15)


class TestRhsPentagon:
    def test_zero_first_side_reduces_to_quadrilateral(self):
        b, c, d, radius = 1.3, 2.1, 0.7, 4.0
        collapsed = rhs_pentagon(0.0, b, c, d, radius, b, 123.0)
        assert collapsed == pytest.approx(
            rhs_quadrilateral(b, c, d, 2.0 * radius), rel=1e-15
        )

    def test_figure_pentagon(self):
        poly = _poly((55.0, 55.0, 25.0, 45.0), 4.0)
        a, b, c, d = side_lengths(poly)
        got = rhs_pentagon(a, b, c, d, 4.0, diagonal(poly, 0, 2), diagonal(poly, 2, 4))
        assert got == pytest.approx(64.0, rel=1e-10)

    def test_equal_arcs_unit_radius(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 4] * 4), 1.0)
        a, b, c, d = side_lengths(poly)
        got = rhs_pentagon(a, b, c, d, 1.0, diagonal(poly, 0, 2), diagonal(poly, 2, 4))
        assert got == pytest.approx(4.0, abs=1e-12)


class TestRhsHexagon:
    def test_equal_arcs_unit_radius(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 5] * 5), 1.0)
        a, b, c, d, e = side_lengths(poly)
        got = rhs_hexagon(
            a, b, c, d, e, 1.0,
            diagonal(poly, 3, 5), diagonal(poly, 0, 2),
            diagonal(poly, 2, 5), diagonal(poly, 0, 3),
        )
        assert got == pytest.approx(4.0, abs=1e-12)

    def test_figure_hexagon(self):
        poly = _poly((55.0, 23.0, 32.0, 25.0, 45.0), 4.0)
        a, b, c, d, e = side_lengths(poly)
        got = rhs_hexagon(
            a, b, c, d, e, 4.0,
            diagonal(poly, 3, 5), diagonal(poly, 0, 2),
            diagonal(poly, 2, 5), diagonal(poly, 0, 3),
        )
        assert got == pytest.approx(64.0, rel=1e-10)

    def test_zero_last_side_reduces_to_pentagon(self):
        # Fifth vertex merged with the last: the hexagon's chords
        # collapse onto the surviving pentagon's.
        poly = _poly((40.0, 35.0, 45.0, 60.0), 3.0)
        a, b, c, d = side_lengths(poly)
        x_p = diagonal(poly, 0, 2)
        y_p = diagonal(poly, 2, 4)
        collapsed = rhs_hexagon(a, b, c, d, 0.0, 3.0, d, x_p, y_p, 999.0)
        assert collapsed == pytest.approx(
            rhs_pentagon(a, b, c, d, 3.0, x_p, y_p), rel=1e-15
        )


class TestEvaluateGeneral:
    def test_right_triangle(self):
        report = evaluate_general(
            vertices_from_angles(CentralAngles([math.pi / 2, math.pi / 2]), 1.0)
        )
        assert report.n == 3
        assert report.cross_terms == ()
        assert report.lhs == pytest.approx(4.0, abs=1e-12)
        assert report.rhs == pytest.approx(4.0, abs=1e-12)
        assert report.residual_abs <= 1e-12

    def test_figure_quadrilateral(self):
        report = evaluate_general(_poly((55.0, 55.0, 70.0), 4.0))
        assert len(report.cross_terms) == 1
        assert report.residual_rel <= 1e-12

    def test_twelve_gon_random_arcs(self):
        report = evaluate_general(
            vertices_from_angles(random_angles(12, SplitMix64(2024)), 7.0)
        )
        assert report.residual_rel <= 1e-10

    def test_report_is_recomputable(self):
        report = evaluate_general(_poly((55.0, 23.0, 32.0, 25.0, 45.0), 4.0))
        d = math.sqrt(report.lhs)
        rebuilt = report.sum_of_squares + 2.0 * math.fsum(
            t.term_value for t in report.cross_terms
        ) / d
        assert rebuilt == pytest.approx(report.rhs, rel=1e-15)
        assert len(report.cross_terms) == report.n - 3
        assert all(t.term_value >= 0.0 for t in report.cross_terms)


class TestNestedQuadrilateral:
    def test_equal_arc_pentagon_all_k(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 4] * 4), 1.0)
        for k in (1, 2):
            assert nested_quadrilateral_check(poly, k).residual_rel <= 1e-12

    def test_quadrilateral_matches_general(self):
        poly = _poly((55.0, 55.0, 70.0), 4.0)
        nested = nested_quadrilateral_check(poly, 1)
        general = evaluate_general(poly)
        assert nested.lhs == general.lhs
        assert nested.rhs == general.rhs
        assert nested.sum_of_squares == general.sum_of_squares


class TestCornerIdentity:
    def test_figure_hexagon(self):
        assert corner_identity_residual(
            _poly((55.0, 23.0, 32.0, 25.0, 45.0), 4.0)
        ) <= 1e-12


@given(angles=arc_partitions(max_n=32, min_weight=1e-4), radius=radii)
@settings(max_examples=200, deadline=None)
def test_identity_holds_up_to_32_vertices(angles, radius):
    report = evaluate_general(vertices_from_angles(angles, radius))
    assert report.residual_rel <= 1e-10


@given(angles=arc_partitions(max_n=10, min_weight=1e-4), radius=radii)
@settings(max_examples=100, deadline=None)
def test_all_nested_quadrilaterals_hold(angles, radius):
    poly = vertices_from_angles(angles, radius)
    for k in range(1, poly.n - 2):
        assert nested_quadrilateral_check(poly, k).residual_rel <= 1e-10


@given(angles=arc_partitions(max_n=32, min_weight=1e-4, min_n=4), radius=radii)
@settings(max_examples=150, deadline=None)
def test_corner_identity_holds(angles, radius):
    assert corner_identity_residual(vertices_from_angles(angles, radius)) <= 1e-10


@given(angles=arc_partitions(max_n=32, min_weight=1e-4), radius=radii)
@settings(max_examples=100, deadline=None)
def test_appending_zero_arc_keeps_rhs(angles, radius):
    base = evaluate_general(vertices_from_angles(angles, radius)).rhs
    extended = evaluate_general(
        vertices_from_angles(CentralAngles(angles.arcs + (0.0,)), radius)
    ).rhs
    assert abs(extended - base) <= 1e-13 * base


@given(
    angles=arc_partitions(max_n=10, min_weight=1e-4),
    radius=radii,
    power=st.integers(-20, 20),
)
@settings(max_examples=100, deadline=None)
def test_scale_covariance_exact_for_binary_factors(angles, radius, power):
    # Powers of two rescale every coordinate exactly, so both sides and
    # the residual scale exactly by the squared factor; generic factors
    # would only bound lhs/rhs to ~1e-12 because residual_abs sits at
    # the rounding floor.
    factor = 2.0 ** power
    base = evaluate_general(vertices_from_angles(angles, radius))
    scaled = evaluate_general(vertices_from_angles(angles, radius * factor))
    assert scaled.lhs == base.lhs * factor * factor
    assert scaled.rhs == base.rhs * factor * factor
    assert scaled.residual_abs == base.residual_abs * factor * factor
    assert scaled.residual_rel == base.residual_rel


@given(
    angles=arc_partitions(max_n=10, min_weight=1e-4),
    radius=radii,
    factor=st.floats(0.3, 3.0),
)
@settings(max_examples=100, deadline=None)
def test_scale_covariance_generic_factor(angles, radius, factor):
    base = evaluate_general(vertices_from_angles(angles, radius))
    scaled = evaluate_general(vertices_from_angles(angles, radius * factor))
    assert scaled.lhs == pytest.approx(base.lhs * factor * factor, rel=1e-12)
    assert scaled.rhs == pytest.approx(base.rhs * factor * factor, rel=1e-12)
    assert scaled.residual_rel <= 1e-10


@given(angles=arc_partitions(max_n=6, min_weight=1e-4, min_n=4), radius=radii)
@settings(max_examples=200, deadline=None)
def test_closed_forms_specialize_the_general_evaluator(angles, radius):
    poly = vertices_from_angles(angles, radius)
    n = poly.n
    sides = side_lengths(poly)
    d = diagonal(poly, 0, n - 1)
    if n == 4:
        closed = rhs_quadrilateral(sides[0], sides[1], sides[2], d)
    elif n == 5:
        closed = rhs_pentagon(
            *sides, d / 2.0, diagonal(poly, 0, 2), diagonal(poly, 2, 4)
        )
    else:
        closed = rhs_hexagon(
            *sides, d / 2.0,
            diagonal(poly, 3, 5), diagonal(poly, 0, 2),
            diagonal(poly, 2, 5), diagonal(poly, 0, 3),
        )
    general = evaluate_general(poly).rhs
    assert abs(closed - general) <= 1e-13 * general
