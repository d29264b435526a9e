"""Scale covariance and the edges of the float range.

The diameter equations are homogeneous in the sides, so scaling every
side by 2^k must scale the diameter by exactly 2^k, and inputs near the
ends of the float range must either give a finite, accurate result or
raise a DomainError.
"""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import references
from semichord import (
    CentralAngles,
    DomainError,
    FuzzConfig,
    InscribedPolygon,
    InvalidAnglesError,
    closing_side,
    corner_identity_residual,
    diagonal,
    diameter_cubic,
    evaluate_general,
    inscribe_from_sides,
    nested_quadrilateral_check,
    rhs_hexagon,
    rhs_pentagon,
    rhs_quadrilateral,
    run_fuzz,
    side_lengths,
    solve_diameter,
    vertices_from_angles,
)
from semichord.cli import main

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)

SIDE_SETS = [
    (3.0, 4.0),
    (1.0, 1.0, 1.0),
    (3.0, 4.0, 5.0),
    (2.0, 3.0, 4.0, 5.0),
    (SQRT2, 3.0 + SQRT5, 3.0 - SQRT5),
    (0.01, 0.02, 0.03, 0.04, 0.05, 10.0),
]

EXPONENTS = [-1000, -750, -511, -1, 1, 511, 750, 1000]


def _assert_certificate(solution, sides):
    # In the solver's own g over the ratios a/m, m the largest side.
    g, m = references.passes(sides)[0], max(sides)
    assert solution.bracket_low <= solution.d <= solution.bracket_high
    assert g(m / solution.bracket_low) >= 0.0 >= g(m / solution.bracket_high)


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("sides", SIDE_SETS)
def test_solve_diameter_scales_exactly(sides, k):
    scaled = [math.ldexp(a, k) for a in sides]
    solution = solve_diameter(scaled)
    unscaled = solve_diameter(sides)
    assert solution.d == math.ldexp(unscaled.d, k)
    assert (solution.bracket_low, solution.bracket_high) == (
        math.ldexp(unscaled.bracket_low, k),
        math.ldexp(unscaled.bracket_high, k),
    )
    _assert_certificate(solution, scaled)


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("sides", [s for s in SIDE_SETS if len(s) == 3])
def test_diameter_cubic_scales_exactly(sides, k):
    scaled = [math.ldexp(a, k) for a in sides]
    assert diameter_cubic(*scaled) == math.ldexp(diameter_cubic(*sides), k)


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("sides", [s for s in SIDE_SETS if len(s) == 3])
def test_closing_side_scales_exactly(sides, k):
    a, b, _ = sides
    d = diameter_cubic(*sides)
    scaled = closing_side(math.ldexp(a, k), math.ldexp(b, k), math.ldexp(d, k))
    assert scaled == math.ldexp(closing_side(a, b, d), k)


def test_solve_large_equal_sides():
    d = solve_diameter([1e300, 1e300]).d
    assert d == pytest.approx(SQRT2 * 1e300, rel=1e-15)


def test_cubic_large_equal_sides():
    assert diameter_cubic(1e200, 1e200, 1e200) == pytest.approx(2e200, rel=1e-15)


def test_construct_large_equal_sides(capsys):
    assert main(["construct", "1e200,1e200,1e200"]) == 0
    assert '"status": "ok"' in capsys.readouterr().out


@pytest.mark.parametrize("sides", [(5e-324, 5e-324), (1.0, 1e-200)])
def test_extreme_ratios_solve_finitely(sides):
    solution = solve_diameter(sides)
    assert math.isfinite(solution.d)
    assert solution.arc_sum_residual <= 1e-12
    _assert_certificate(solution, sides)


# The diameter solves at this scale, but its radius is subnormal, and no
# chord or vertex is placed on a subnormal radius.
def test_subnormal_radius_is_a_domain_error():
    with pytest.raises(DomainError):
        inscribe_from_sides([1e-310, 1e-310])
    with pytest.raises(DomainError):
        closing_side(1e-310, 1e-310, 3e-310)


# Both root finders read, count and check their sides in solver._scaled,
# and check their d in solver._finite, the only overflow rule; a later
# check, such as a diameter check on d, would raise a different message.
def test_overflowing_diameter_is_a_domain_error():
    for solve, sides in [
        (solve_diameter, [1.7e308, 1.7e308]),
        (inscribe_from_sides, [1.7e308, 1.7e308]),
        (lambda sides: diameter_cubic(*sides), [1e308, 1e308, 1e308]),
    ]:
        with pytest.raises(DomainError) as info:
            solve(sides)
        assert str(info.value) == f"sides {tuple(sides)!r} have no finite diameter"


def test_overflowing_bracket_end_is_a_domain_error():
    # d rounds to the largest float, where g at m/d is still positive, so
    # no finite float is a high end.  The upward steps stop there, and the
    # end they return, inf, raises through solver._finite.
    sides = [1.7976931348623157e308, 1e300]
    with pytest.raises(DomainError) as info:
        solve_diameter(sides)
    assert str(info.value) == f"sides {tuple(sides)!r} have no finite diameter"


@given(
    sides=st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=2, max_size=64)
)
@settings(max_examples=150, deadline=None)
def test_newton_steps_stay_few(sides):
    # The most seen over 60 000 hypothesis draws and 1.1 million random
    # solves of this input class was 8.
    assert solve_diameter(sides).iterations <= 8


def test_stressed_near_half_turn_triangle_fuzzes_clean():
    # n = 3 with the stressed arc within ~1e-4 of pi: trial 9 of this seed.
    report = run_fuzz(FuzzConfig(trials=10, seed=4946754433733305843))
    assert report.failures == ()


def test_tiny_radius_polygon_is_on_its_circle():
    radius = math.ldexp(1.1, -518)
    poly = vertices_from_angles(CentralAngles([0.7, 1.1, math.pi - 1.8]), radius)
    assert poly.n == 4


def test_huge_radius_off_circle_vertex_is_rejected():
    radius = 2.0**600
    with pytest.raises(InvalidAnglesError):
        InscribedPolygon(radius, ((-radius, 0.0), (0.0, 1.0), (radius, 0.0)))


IDENTITY_ARCS = [
    (0.7, 1.1, math.pi - 1.8),
    tuple(math.pi * w / 55.0 for w in range(1, 11)),
    (1e-6, 1.0, math.pi - 1.0 - 1e-6),
    (0.5, 0.9, 1.0, math.pi - 2.4),
    (0.3, 0.6, 1e-6, 0.8, math.pi - 1.7 - 1e-6),
]

NONFINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _closed_form_residual(poly):
    """Relative residual of the 4-, 5- or 6-vertex closed form on ``poly``."""

    def chord(i, j):
        return diagonal(poly, i, j)

    d = chord(0, poly.n - 1)
    sides = side_lengths(poly)
    R = poly.radius
    if poly.n == 4:
        rhs = rhs_quadrilateral(*sides, d)
    elif poly.n == 5:
        rhs = rhs_pentagon(*sides, R, chord(0, 2), chord(2, 4))
    else:
        rhs = rhs_hexagon(*sides, R, chord(3, 5), chord(0, 2), chord(2, 5), chord(0, 3))
    return abs(d * d - rhs) / (d * d)


@pytest.mark.parametrize("k", [-1000, -400, -340, -300, 300, 340, 400, 1000])
@pytest.mark.parametrize("arcs", IDENTITY_ARCS)
def test_identity_residuals_hold_or_raise_at_extreme_scales(arcs, k):
    # Outside its window an evaluator raises; it never returns a wrong
    # residual, and R = 2^-300 and 2^300 lie inside it.
    poly = vertices_from_angles(CentralAngles(arcs), 2.0**k)
    checks = [lambda: evaluate_general(poly).residual_rel]
    checks += [
        lambda j=j: nested_quadrilateral_check(poly, j).residual_rel
        for j in range(1, poly.n - 2)
    ]
    checks.append(lambda: corner_identity_residual(poly))
    if poly.n <= 6:
        checks.append(lambda: _closed_form_residual(poly))
    for check in checks:
        try:
            residual = check()
        except DomainError as exc:
            assert abs(k) > 300
            assert not NONFINITE_TOKEN.search(str(exc))
        else:
            assert residual <= 1e-13


@pytest.mark.parametrize(
    "closed_form, args",
    [
        (rhs_quadrilateral, (1e200, 1e200, 1e200, 2e200)),
        (rhs_pentagon, (1e200,) * 7),
        (rhs_hexagon, (1e200,) * 10),
    ],
)
def test_closed_forms_outside_the_identity_window_raise(closed_form, args):
    # Inside the float range but outside the window: the cross terms,
    # products of three chords, would overflow to inf.
    with pytest.raises(DomainError) as info:
        closed_form(*args)
    assert not NONFINITE_TOKEN.search(str(info.value))


@pytest.mark.parametrize(
    "closed_form, args, message",
    [
        (rhs_quadrilateral, (1e200, 1e200, 1e200, 1.0), "a must be at most 2^10 d"),
        (rhs_pentagon, (1e200, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), "a must be at most 2^11 R"),
        (rhs_hexagon, (1e160,) * 5 + (1.0,) + (1e160,) * 4, "a must be at most 2^11 R"),
    ],
)
def test_closed_forms_reject_lengths_far_beyond_the_diameter(closed_form, args, message):
    # Inside the window, but the products of these lengths would
    # overflow to inf.
    with pytest.raises(DomainError) as info:
        closed_form(*args)
    assert str(info.value) == message


def _closed_form_on_lengths(closed_form, length, d):
    """``closed_form`` on diameter d with every length set to ``length``."""
    if closed_form is rhs_quadrilateral:
        return rhs_quadrilateral(length, length, length, d)
    sides, diagonals = (4, 2) if closed_form is rhs_pentagon else (5, 4)
    return closed_form(*[length] * sides, 0.5 * d, *[length] * diagonals)


@pytest.mark.parametrize("closed_form", [rhs_quadrilateral, rhs_pentagon, rhs_hexagon])
@pytest.mark.parametrize("d", [2.0**-330, 1.0, 2.0**330])
@pytest.mark.parametrize("multiple", [1.0, 2.0, 2.0**10])
def test_closed_forms_accept_lengths_up_to_the_headroom(closed_form, d, multiple):
    # A chord is at most d; up to 2^10 d is accepted, and even at the top
    # of the window no product of three such lengths overflows.
    assert 0.0 < _closed_form_on_lengths(closed_form, multiple * d, d) < math.inf


@pytest.mark.parametrize("closed_form", [rhs_quadrilateral, rhs_pentagon, rhs_hexagon])
def test_closed_forms_reject_the_next_length_past_the_headroom(closed_form):
    d = 2.0**330
    with pytest.raises(DomainError):
        _closed_form_on_lengths(closed_form, math.nextafter(2.0**10 * d, math.inf), d)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "30,60,90", "--radius", "1e-120"],
        ["verify", "1e-320,1e-320"],
        ["verify", "90,90", "--radius", "1e-320"],
    ],
)
def test_verify_outside_the_identity_window_is_a_domain_error(argv, capsys):
    assert main(argv) == 1
    out = capsys.readouterr().out
    doc = json.loads(out, parse_constant=pytest.fail)
    assert doc["payload"]["code"] == "domain"
    assert not NONFINITE_TOKEN.search(out)


@pytest.mark.parametrize(
    "radius_min, radius_max",
    [(2.0**-331, 2.0**-331), (2.0**329, 2.0**329), (2.0**-331, 2.0**329)],
)
def test_fuzz_at_the_identity_window_edges_runs_clean(radius_min, radius_max):
    config = FuzzConfig(
        trials=300,
        n_max=64,
        radius_min=radius_min,
        radius_max=radius_max,
        seed=7,
        tolerance_rel=1e-13,
    )
    report = run_fuzz(config)
    assert report.trials_run == 300
    assert report.failures == ()
