"""The general identity's kernel carries every check's chords.

``identity._check_residuals`` reads the general identity, every nested
quadrilateral and the last-corner residual from one call of
``identity._general_identity``, the kernel ``evaluate_general`` wraps, and
``run_fuzz`` takes them and the solver's sides from it.  That is only
sound if the kernel agrees with the public report, the cross-term chords
and residuals agree with the nested check bit for bit, and the corner
residual agrees with the corner relation on chords measured by
``diagonal``, the coordinate oracle.  These tests check that on random
polygons, some with one arc forced tiny (two vertices nearly coincide).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from semichord import (
    CentralAngles,
    corner_identity_residual,
    diagonal,
    evaluate_general,
    nested_quadrilateral_check,
    rhs_quadrilateral,
    side_lengths,
    vertices_from_angles,
)
from semichord.identity import _check_residuals, _general_identity


@st.composite
def polygons(draw, min_n=4, max_n=64):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    weights = draw(
        st.lists(
            st.floats(min_value=1e-4, max_value=1.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    total = math.fsum(weights)
    arcs = [math.pi * w / total for w in weights]
    if draw(st.booleans()):
        target = draw(st.integers(min_value=0, max_value=n - 2))
        tiny = draw(st.floats(min_value=1e-15, max_value=1e-6))
        others = math.fsum(a for i, a in enumerate(arcs) if i != target)
        factor = (math.pi - tiny) / others
        arcs = [tiny if i == target else a * factor for i, a in enumerate(arcs)]
    radius = draw(st.floats(min_value=1e-3, max_value=1e3))
    return vertices_from_angles(CentralAngles(arcs), radius)


STRESSED_PENTAGON = vertices_from_angles(
    CentralAngles([1e-9, 1.0, 1.0, math.pi - 2.0 - 1e-9]), 3.0
)

STRESSED_QUADRILATERAL = vertices_from_angles(
    CentralAngles([1.0, 1e-9, math.pi - 1.0 - 1e-9]), 2.0
)

#: The last three vertices coincide, so the corner's |PE| is zero.
COLLAPSED_CORNER = vertices_from_angles(
    CentralAngles([math.pi / 2, math.pi / 2, 0.0, 0.0]), 1.0
)


@settings(max_examples=150, deadline=None)
@given(polygons())
@example(STRESSED_PENTAGON)
def test_cross_term_chords_are_the_nested_quadrilateral_sides(poly):
    n = poly.n
    terms = evaluate_general(poly).cross_terms
    assert [t.k for t in terms] == list(range(1, n - 2))
    for t in terms:
        assert t.first_diagonal == diagonal(poly, 0, t.k)
        assert t.side == diagonal(poly, t.k, t.k + 1)
        assert t.second_diagonal == diagonal(poly, t.k + 1, n - 1)


@settings(max_examples=150, deadline=None)
@given(polygons())
@example(STRESSED_PENTAGON)
def test_cross_term_residual_equals_nested_check(poly):
    d = diagonal(poly, 0, poly.n - 1)
    for t in evaluate_general(poly).cross_terms:
        # The arithmetic _check_residuals applies to each cross term.
        rhs = rhs_quadrilateral(t.first_diagonal, t.side, t.second_diagonal, d)
        residual_abs = abs(d * d - rhs)
        residual_rel = residual_abs / (d * d)
        report = nested_quadrilateral_check(poly, t.k)
        assert rhs == report.rhs
        assert residual_abs == report.residual_abs
        assert residual_rel == report.residual_rel


@settings(max_examples=150, deadline=None)
@given(polygons(min_n=3))
@example(STRESSED_PENTAGON)
def test_kernel_equals_the_report_fields(poly):
    sides, d, sum_sq, rhs, chords = _general_identity(poly)
    report = evaluate_general(poly)
    assert sides == side_lengths(poly)
    assert d == diagonal(poly, 0, poly.n - 1)
    assert d * d == report.lhs
    assert sum_sq == report.sum_of_squares
    assert rhs == report.rhs
    assert chords == [
        (t.first_diagonal, t.side, t.second_diagonal, t.term_value)
        for t in report.cross_terms
    ]


def _corner_on_measured_chords(poly):
    """The corner relation on its five chords, each measured by ``diagonal``."""
    p, q, e = poly.n - 3, poly.n - 2, poly.n - 1
    pq, qe, pe = diagonal(poly, p, q), diagonal(poly, q, e), diagonal(poly, p, e)
    ap, ae = diagonal(poly, 0, p), diagonal(poly, 0, e)
    lhs = pe * pe
    if lhs == 0.0:
        return 0.0
    rhs = pq * pq + qe * qe + 2.0 * pq * qe * ap / ae
    return abs(lhs - rhs) / lhs


@settings(max_examples=150, deadline=None)
@given(polygons())
@example(STRESSED_QUADRILATERAL)
@example(STRESSED_PENTAGON)
@example(COLLAPSED_CORNER)
def test_check_residuals_are_the_public_checks(poly):
    corner = corner_identity_residual(poly)
    assert corner == _corner_on_measured_chords(poly)
    sides, residuals = _check_residuals(poly)
    assert sides == side_lengths(poly)
    expected = [evaluate_general(poly).residual_rel]
    expected += [
        nested_quadrilateral_check(poly, k).residual_rel for k in range(1, poly.n - 2)
    ]
    assert residuals == [*expected, corner]
