"""nan, inf and non-real inputs are rejected with a coded error, never carried along.

Range guards are negated comparisons that bound a value on both sides
(``0 < s < inf``), so nan and inf fail them; a radius is bounded through
its diameter 2R, which must be finite, and from below by the smallest
normal float, and the closed forms and the fuzz radius range through the
identity's diameter window.  An input that is not a real number (a str,
None, a complex) is rejected with the same codes.  The command line's
side of this, an exit status 1 with a code and no ``nan`` or ``inf``
token, is checked by ``test_cli.test_contract``.
"""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from support import NONFINITE_TOKEN
from semichord import (
    CentralAngles,
    ChordSet,
    DomainError,
    FuzzConfig,
    InscribedPolygon,
    InvalidAnglesError,
    SemichordError,
    SplitMix64,
    arc_sum,
    arcs_from_sides,
    chord_from_angle,
    closing_side,
    diagonal,
    diameter_cubic,
    enumerate_incongruent_quads,
    inscribe_from_sides,
    nested_quadrilateral_check,
    random_angles,
    rhs_hexagon,
    rhs_pentagon,
    rhs_quadrilateral,
    run_fuzz,
    solve_diameter,
    vertices_from_angles,
)

NAN = math.nan
INF = math.inf
HALF = math.pi / 2
TRIANGLE = ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
# Radii float() rejects, and reals no float holds, which read as nan.
NON_REAL = ["x", None, 1j, Decimal("sNaN"), pytest.param(10**400, id="10**400")]


class TestCentralAngles:
    @pytest.mark.parametrize(
        "arcs",
        [
            [NAN, HALF, HALF],
            [HALF, HALF, NAN],
            [INF, HALF],
            [INF, NAN],
            [1e308, 1e308],
            ["x", HALF, HALF],
            [None, HALF, HALF],
            [1j, HALF, HALF],
            [10**400, HALF],
        ],
    )
    def test_non_finite_partition_rejected(self, arcs):
        with pytest.raises(InvalidAnglesError):
            CentralAngles(arcs)

    def test_message_names_no_non_finite_value(self):
        with pytest.raises(InvalidAnglesError) as info:
            CentralAngles([NAN, HALF, HALF])
        assert not NONFINITE_TOKEN.search(str(info.value))


class TestInscribedPolygon:
    # 1e308 is finite, but its diameter 2R overflows.
    @pytest.mark.parametrize("radius", [NAN, INF, -INF, 1e308, *NON_REAL])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(DomainError):
            InscribedPolygon(radius, TRIANGLE)

    @pytest.mark.parametrize(
        "vertex",
        [
            (NAN, 1.0),
            (0.0, NAN),
            (INF, 1.0),
            (0.0, INF),
            ("x", 1.0),
            (0.0, None),
            (1j, 1.0),
            (0.0, 10**400),
            (0.0,),
            (0.0, 1.0, 0.0),
            None,
        ],
    )
    def test_non_finite_vertex_rejected(self, vertex):
        with pytest.raises(InvalidAnglesError) as info:
            InscribedPolygon(1.0, ((-1.0, 0.0), vertex, (1.0, 0.0)))
        assert not NONFINITE_TOKEN.search(str(info.value))

    @pytest.mark.parametrize("end", [(NAN, 0.0), (1.0, NAN), (INF, 0.0)])
    def test_non_finite_endpoint_rejected(self, end):
        with pytest.raises(InvalidAnglesError) as info:
            InscribedPolygon(1.0, ((-1.0, 0.0), (0.0, 1.0), end))
        assert not NONFINITE_TOKEN.search(str(info.value))


class TestRadiusArguments:
    @pytest.mark.parametrize("radius", [NAN, INF, 1e308, *NON_REAL])
    def test_vertices_from_angles_rejects_non_finite_radius(self, radius):
        with pytest.raises(DomainError):
            vertices_from_angles(CentralAngles([HALF, HALF]), radius)

    @pytest.mark.parametrize("radius", [NAN, INF, 1e308, *NON_REAL])
    def test_chord_from_angle_rejects_non_finite_radius(self, radius):
        with pytest.raises(DomainError):
            chord_from_angle(HALF, radius)

    # Below the smallest normal float R*cos and R*sin lose the precision
    # the on-circle check needs, so no radius entry point takes one.
    @pytest.mark.parametrize("radius", [2.0**-1023, 2.0**-1030, 5e-324])
    def test_subnormal_radius_rejected(self, radius):
        triangle = tuple((radius * x, radius * y) for x, y in TRIANGLE)
        with pytest.raises(DomainError):
            vertices_from_angles(CentralAngles([HALF, HALF]), radius)
        with pytest.raises(DomainError):
            InscribedPolygon(radius, triangle)
        with pytest.raises(DomainError):
            chord_from_angle(HALF, radius)

    # float() reads both, so they are radii like any other real number.
    @pytest.mark.parametrize("radius", ["1.0", Decimal("1")])
    def test_numeric_str_and_decimal_radius_read_as_the_float(self, radius):
        angles = CentralAngles([HALF, HALF])
        assert vertices_from_angles(angles, radius) == vertices_from_angles(angles, 1.0)
        assert InscribedPolygon(radius, TRIANGLE) == InscribedPolygon(1.0, TRIANGLE)
        assert chord_from_angle(HALF, radius) == chord_from_angle(HALF, 1.0)

    def test_smallest_normal_radius_accepted(self):
        radius = 2.0**-1022
        poly = vertices_from_angles(CentralAngles([HALF, HALF]), radius)
        assert InscribedPolygon(radius, poly.vertices) == poly
        assert chord_from_angle(math.pi, radius) == 2.0 * radius

    def test_largest_radius_with_a_finite_diameter_accepted(self):
        radius = math.nextafter(2.0**1023, 0.0)
        poly = vertices_from_angles(CentralAngles([HALF, HALF]), radius)
        assert chord_from_angle(math.pi, radius) == 2.0 * radius
        assert poly.radius == radius

    @pytest.mark.parametrize("arc", [NAN, INF])
    def test_chord_from_angle_rejects_non_finite_arc(self, arc):
        with pytest.raises(DomainError) as info:
            chord_from_angle(arc, 1.0)
        assert not NONFINITE_TOKEN.search(str(info.value))


class TestChordSet:
    @pytest.mark.parametrize(
        "sides, diameter",
        [((NAN, 1.0), 2.0), ((1.0, 1.0), NAN), ((1.0, 1.0), INF)],
    )
    def test_non_finite_chords_rejected(self, sides, diameter):
        with pytest.raises(DomainError):
            ChordSet(sides, diameter)


class TestClosedForms:
    @pytest.mark.parametrize(
        "args", [(NAN, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, NAN)]
    )
    def test_quadrilateral_rejects_nan(self, args):
        with pytest.raises(DomainError):
            rhs_quadrilateral(*args)

    @pytest.mark.parametrize("position", range(7))
    def test_pentagon_rejects_nan(self, position):
        args = [1.0] * 7
        args[position] = NAN
        with pytest.raises(DomainError):
            rhs_pentagon(*args)

    @pytest.mark.parametrize("position", range(10))
    def test_hexagon_rejects_nan(self, position):
        args = [1.0] * 10
        args[position] = NAN
        with pytest.raises(DomainError):
            rhs_hexagon(*args)

    @pytest.mark.parametrize(
        "args", [(INF, 1.0, 1.0, 2.0), (1.0, 1.0, -INF, 2.0), (1.0, 1.0, 1.0, INF)]
    )
    def test_quadrilateral_rejects_inf(self, args):
        with pytest.raises(DomainError) as info:
            rhs_quadrilateral(*args)
        assert not NONFINITE_TOKEN.search(str(info.value))

    @pytest.mark.parametrize("position", range(7))
    def test_pentagon_rejects_inf(self, position):
        args = [1.0] * 7
        args[position] = INF
        with pytest.raises(DomainError) as info:
            rhs_pentagon(*args)
        assert not NONFINITE_TOKEN.search(str(info.value))

    @pytest.mark.parametrize("position", range(10))
    def test_hexagon_rejects_inf(self, position):
        args = [1.0] * 10
        args[position] = INF
        with pytest.raises(DomainError) as info:
            rhs_hexagon(*args)
        assert not NONFINITE_TOKEN.search(str(info.value))

    @pytest.mark.parametrize(
        "function, names",
        [
            (rhs_quadrilateral, "abc_"),
            (rhs_pentagon, "abcd_xy"),
            (rhs_hexagon, "abcde_xyzu"),
        ],
    )
    @pytest.mark.parametrize("bad", [NAN, INF, -1.0, Decimal("NaN")])
    def test_message_names_the_first_bad_length(self, function, names, bad):
        # "_" marks the diameter or radius, which has its own check.  The
        # bad value goes at one length alone, then at it and every later one.
        for first, name in enumerate(names):
            if name == "_":
                continue
            for last in (first, len(names) - 1):
                args = [
                    bad if first <= k <= last and n != "_" else 1.0
                    for k, n in enumerate(names)
                ]
                with pytest.raises(DomainError) as info:
                    function(*args)
                assert str(info.value) == f"{name} must be non-negative and finite"

    def test_message_names_no_nan(self):
        with pytest.raises(DomainError) as info:
            rhs_quadrilateral(NAN, 1.0, 1.0, 2.0)
        assert not NONFINITE_TOKEN.search(str(info.value))


class TestSolverSides:
    @pytest.mark.parametrize(
        "sides", [[NAN, 1.0], [INF, 1.0], [1.0, -INF], [1.0, 1.0, NAN], [NAN, NAN]]
    )
    def test_solve_diameter_rejects_non_finite_side(self, sides):
        with pytest.raises(DomainError) as info:
            solve_diameter(sides)
        assert not NONFINITE_TOKEN.search(str(info.value))

    # One bad side at every position of 3- and 5-side lists, the good
    # sides ascending and descending: min and max pass over a nan that is
    # not first, as in [1.0, nan, 2.0].
    @pytest.mark.parametrize(
        "good, position",
        [
            (good, position)
            for good in (
                [1.0, 2.0], [2.0, 1.0], [1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]
            )
            for position in range(len(good) + 1)
        ],
    )
    @pytest.mark.parametrize("bad", [NAN, INF, -INF, 0.0, -1.0])
    @pytest.mark.parametrize("solve", [solve_diameter, inscribe_from_sides])
    def test_bad_side_at_any_position_is_rejected(self, solve, bad, good, position):
        sides = good[:position] + [bad] + good[position:]
        with pytest.raises(DomainError) as info:
            solve(sides)
        assert str(info.value) == "all sides must be positive and finite"
        assert info.value.code == "domain"

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("bad", [NAN, INF, -INF, 0.0, -0.0, -1.0])
    def test_diameter_cubic_rejects_non_finite_side(self, position, bad):
        sides = [1.0, 2.0, 3.0]
        sides[position] = bad
        with pytest.raises(DomainError) as info:
            diameter_cubic(*sides)
        assert str(info.value) == "all sides must be positive and finite"


class TestSolverHelpers:
    @pytest.mark.parametrize(
        "d, sides",
        [
            (NAN, [1.0]),
            (INF, [1.0]),
            (-INF, [1.0]),
            (1.0, [NAN]),
            (1.0, [0.5, INF]),
            (2.0, []),
        ],
    )
    def test_arc_sum_rejects(self, d, sides):
        with pytest.raises(DomainError) as info:
            arc_sum(d, sides)
        assert not NONFINITE_TOKEN.search(str(info.value))

    @pytest.mark.parametrize(
        "sides, d",
        [
            ([1.0, 1.0], NAN),
            ([1.0, 1.0], INF),
            ([1.0, 1.0], 0.0),
            ([], 2.0),
            ([NAN, 1.0], 2.0),
            ([1.0, NAN], 2.0),
            ([INF, 1.0], 2.0),
            ([1.0, -INF], 2.0),
            ([-1.0, 1.0], 2.0),
            ([1.0, 0.0], 2.0),
        ],
    )
    def test_arcs_from_sides_rejects(self, sides, d):
        with pytest.raises(DomainError) as info:
            arcs_from_sides(sides, d)
        assert not NONFINITE_TOKEN.search(str(info.value))

    @pytest.mark.parametrize("sides", [[NAN, 1.0], [1.0, INF], [-1.0, 1.0]])
    def test_arcs_from_sides_side_message_names_no_value(self, sides):
        with pytest.raises(DomainError) as info:
            arcs_from_sides(sides, 2.0)
        assert str(info.value) == SIDES_NOT_FINITE

    @pytest.mark.parametrize("d", [NAN, INF, -INF])
    def test_closing_side_rejects_non_finite_diameter(self, d):
        with pytest.raises(DomainError) as info:
            closing_side(1.0, 1.0, d)
        assert not NONFINITE_TOKEN.search(str(info.value))


SIDES_NOT_REAL = "sides must be real numbers"
SIDES_NOT_FINITE = "all sides must be positive and finite"
D_NOT_REAL = "diameter must be a real number"
D_NOT_FINITE = "diameter must be positive and finite"
VERTICES_NOT_REAL = "vertices must be pairs of real numbers"
NEED_TWO_SIDES = "need at least 2 sides to form a polygon on the semicircle"


class TestSolverNonReal:
    """A side or diameter that is not a real number is a coded domain error."""

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (solve_diameter, (["a", 1],), SIDES_NOT_REAL),
            (solve_diameter, ([None, 1],), SIDES_NOT_REAL),
            # Real, but no float holds it: read as nan, so the range message.
            pytest.param(
                solve_diameter, ([10**400, 1],), SIDES_NOT_FINITE, id="solve_diameter-10**400"
            ),
            (inscribe_from_sides, ([None, 1],), SIDES_NOT_REAL),
            (arc_sum, (None, [1.0]), D_NOT_REAL),
            (arc_sum, (2.0, ["a"]), SIDES_NOT_REAL),
            pytest.param(arc_sum, (10**400, [1.0]), D_NOT_FINITE, id="arc_sum-10**400"),
            (arc_sum, (Decimal("NaN"), [1.0]), D_NOT_FINITE),
            (arc_sum, (Decimal("sNaN"), [1.0]), D_NOT_FINITE),
            (arcs_from_sides, ([1.0, 1.0], "x"), D_NOT_REAL),
            (arcs_from_sides, ([1.0, 1.0], Decimal("NaN")), D_NOT_FINITE),
            (arcs_from_sides, ([None, 1.0], 2.0), SIDES_NOT_REAL),
            # Past the range test, but inf or 0 once converted to a float.
            (arcs_from_sides, ([1.0, 1.0], Decimal("1e400")), D_NOT_FINITE),
            (arc_sum, (Decimal("1e400"), [1.0]), D_NOT_FINITE),
            (arc_sum, (Decimal("1e-400"), [1.0]), D_NOT_FINITE),
            pytest.param(
                arc_sum, (Fraction(1, 10**400), [1.0]), D_NOT_FINITE, id="arc_sum-1/10**400"
            ),
            # The root finders' reader checks in order: real numbers, at
            # least two sides, then each side positive and finite.  The
            # inner list is rebuilt per call, so each gets its own iterator.
            *[
                (call, (sides,), message)
                for call in (solve_diameter, inscribe_from_sides)
                for sides, message in [
                    ([], NEED_TWO_SIDES),
                    ([0.0], NEED_TWO_SIDES),
                    ([NAN], NEED_TWO_SIDES),
                    (iter([3.0]), NEED_TWO_SIDES),
                    (["x"], SIDES_NOT_REAL),
                    ([1.0, 0.0, "x"], SIDES_NOT_REAL),
                    ("ab", SIDES_NOT_REAL),
                ]
            ],
        ],
    )
    def test_raises_domain_error(self, call, args, message):
        with pytest.raises(DomainError) as info:
            call(*args)
        assert type(info.value) is DomainError
        assert info.value.code == "domain"
        assert str(info.value) == message

    def test_real_numbers_of_other_types_stay_accepted(self):
        assert solve_diameter(["3", 4]) == solve_diameter([3.0, 4.0])
        assert inscribe_from_sides([Fraction(3), 4]) == inscribe_from_sides([3.0, 4.0])
        assert arc_sum(5, ["3", 4]) == arc_sum(5.0, [3.0, 4.0])
        assert arcs_from_sides([3, Decimal(4)], Fraction(5)) == arcs_from_sides([3.0, 4.0], 5.0)
        assert arcs_from_sides([1.0, 1.0], "2") == arcs_from_sides([1.0, 1.0], 2.0)


class TestQuadsAndClosedFormsNonReal:
    """Each input here raised a bare TypeError, ValueError or OverflowError."""

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (diameter_cubic, ("a", 1, 1), SIDES_NOT_REAL),
            (diameter_cubic, (None, 1, 1), SIDES_NOT_REAL),
            pytest.param(
                diameter_cubic,
                (10**400, 1, 1),
                SIDES_NOT_FINITE,
                id="diameter_cubic-10**400",
            ),
            (closing_side, (1.0, 1.0, "x"), D_NOT_REAL),
            (closing_side, (1.0, None, 2.0), SIDES_NOT_REAL),
            (enumerate_incongruent_quads, (None, 1, 1), SIDES_NOT_REAL),
            (ChordSet, (("a",), 1.0), SIDES_NOT_REAL),
            (ChordSet, ((1.0,), "x"), D_NOT_REAL),
            (chord_from_angle, ("a", 1.0), "arc must be a real number"),
            (rhs_quadrilateral, ("a", 1, 1, 2), "lengths must be real numbers"),
            (rhs_quadrilateral, (1, 1, 1, None), "lengths must be real numbers"),
            (rhs_pentagon, (None, 1, 1, 1, 1, 1, 1), "lengths must be real numbers"),
            # A Decimal compares with floats but cannot be added to one.
            (rhs_quadrilateral, (Decimal(1), 1.0, 1.0, 2.0), "lengths must be real numbers"),
            (rhs_quadrilateral, (1.0, 1.0, 1.0, Decimal(2)), "lengths must be real numbers"),
            (rhs_pentagon, (Decimal(1),) + (1.0,) * 6, "lengths must be real numbers"),
            (rhs_hexagon, (1.0,) * 9 + (Decimal(1),), "lengths must be real numbers"),
            (
                lambda value: FuzzConfig(radius_min=value),
                ("a",),
                "radius_min and radius_max must be real numbers",
            ),
            (
                lambda value: FuzzConfig(radius_min=value),
                (None,),
                "radius_min and radius_max must be real numbers",
            ),
            (
                lambda value: FuzzConfig(tolerance_rel=value),
                (None,),
                "tolerance_rel must be a real number",
            ),
            # Every side is read before any is range-checked.
            (diameter_cubic, (0.0, "x", 1.0), SIDES_NOT_REAL),
            (diameter_cubic, (NAN, -1, 2), SIDES_NOT_FINITE),
        ],
    )
    def test_raises_domain_error(self, call, args, message):
        with pytest.raises(DomainError) as info:
            call(*args)
        assert type(info.value) is DomainError
        assert info.value.code == "domain"
        assert str(info.value) == message

    def test_real_numbers_of_other_types_stay_accepted(self):
        assert diameter_cubic(Decimal(3), "4", Fraction(5)) == diameter_cubic(3.0, 4.0, 5.0)
        assert closing_side(Decimal(1), "1", Fraction(2)) == closing_side(1.0, 1.0, 2.0)
        assert enumerate_incongruent_quads("3", 4, Decimal(5)) == (
            enumerate_incongruent_quads(3.0, 4.0, 5.0)
        )
        assert ChordSet(("1", Decimal(1)), Fraction(2)) == ChordSet((1.0, 1.0), 2.0)
        assert ChordSet((1.0,), "2") == ChordSet((1.0,), 2.0)
        assert closing_side(1.0, 1.0, "2") == closing_side(1.0, 1.0, 2.0)
        assert chord_from_angle(Fraction(1), 1.0) == chord_from_angle(1.0, 1.0)
        tolerance = FuzzConfig(tolerance_rel=Decimal("1e-9")).tolerance_rel
        assert tolerance == 1e-9 and type(tolerance) is float

    @pytest.mark.parametrize(
        "call, args, expected",
        [
            (rhs_pentagon, (Decimal(1), 1, 1, 1, 1, 1, 1), Decimal(6)),
            (rhs_quadrilateral, (Decimal(1),) * 3 + (Decimal(2),), Decimal(4)),
            (rhs_hexagon, (Decimal(1),) * 10, Decimal(8)),
            (rhs_pentagon, (Fraction(1),) * 7, Fraction(6)),
            (rhs_quadrilateral, (Fraction(1, 3), 1, 1, 1), Fraction(25, 9)),
            (rhs_hexagon, (1,) * 10, 8.0),
        ],
    )
    def test_closed_forms_keep_exact_arithmetic(self, call, args, expected):
        result = call(*args)
        assert result == expected
        assert type(result) is type(expected)


class TestOneReadingRule:
    """Every input is read as ``float()`` reads it, whatever its role."""

    # A real that no float holds reads as nan, so it gets a quiet NaN's message.
    @pytest.mark.parametrize(
        "call, args, position",
        [
            (lambda a, b: solve_diameter([a, b]), (1.0, 1.0), 0),
            (lambda a, b: solve_diameter([a, b]), (1.0, 1.0), 1),
            (diameter_cubic, (1.0, 1.0, 1.0), 0),
            (diameter_cubic, (1.0, 1.0, 1.0), 1),
            (diameter_cubic, (1.0, 1.0, 1.0), 2),
            (lambda a, b, d: ChordSet((a, b), d), (1.0, 1.0, 2.0), 0),
            (lambda a, b, d: ChordSet((a, b), d), (1.0, 1.0, 2.0), 1),
            (lambda a, b, d: ChordSet((a, b), d), (1.0, 1.0, 2.0), 2),
        ],
    )
    def test_signaling_nan_gets_the_quiet_nan_message(self, call, args, position):
        messages = []
        for nan in (Decimal("NaN"), Decimal("sNaN")):
            bad = list(args)
            bad[position] = nan
            with pytest.raises(DomainError) as info:
                call(*bad)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    # A str or bytes is one value, not a sequence of digits to read one by
    # one; None and an int are no sequence at all.
    @pytest.mark.parametrize(
        "call, args, error, message",
        [
            (solve_diameter, ("34",), DomainError, SIDES_NOT_REAL),
            (solve_diameter, (b"34",), DomainError, SIDES_NOT_REAL),
            (inscribe_from_sides, (bytearray(b"34"),), DomainError, SIDES_NOT_REAL),
            (arc_sum, (2.0, "11"), DomainError, SIDES_NOT_REAL),
            (arcs_from_sides, ("11", 2.0), DomainError, SIDES_NOT_REAL),
            (ChordSet, ("11", 2.0), DomainError, SIDES_NOT_REAL),
            (CentralAngles, ("12",), InvalidAnglesError, "arcs must be real numbers"),
            (
                InscribedPolygon,
                (1.0, ((-1.0, 0.0), (0.0, 1.0), "10")),
                InvalidAnglesError,
                VERTICES_NOT_REAL,
            ),
            (InscribedPolygon, (1.0, None), InvalidAnglesError, VERTICES_NOT_REAL),
            (InscribedPolygon, (1.0, 5), InvalidAnglesError, VERTICES_NOT_REAL),
        ],
    )
    def test_str_sequence_is_not_real(self, call, args, error, message):
        with pytest.raises(error) as info:
            call(*args)
        assert type(info.value) is error
        assert str(info.value) == message


QUADRILATERAL = vertices_from_angles(CentralAngles([1.0, 1.0, math.pi - 2.0]), 1.0)


class TestIntegerInputs:
    """An integer input is an int that is not a bool, by ``FuzzConfig``'s rule.

    Each of these read a bool as 1, raised a bare TypeError or
    ZeroDivisionError, or returned a negative draw.  An out-of-range
    integer index still raises IndexError.
    """

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (random_angles, (True, SplitMix64(0)), "n must be an integer"),
            (diagonal, (QUADRILATERAL, 0.0, 2), "vertex indices must be integers"),
            (nested_quadrilateral_check, (QUADRILATERAL, 1.5), "k must be an integer"),
            (nested_quadrilateral_check, (QUADRILATERAL, "1"), "k must be an integer"),
            (SplitMix64(1).next_below, (-3,), "n must be at least 1"),
            (SplitMix64(1).next_below, (0,), "n must be at least 1"),
            (SplitMix64, (1.5,), "state must be an integer"),
            (SplitMix64, (True,), "state must be an integer"),
            (SplitMix64.for_trial, (1.5, 0), "seed must be an integer"),
            (SplitMix64.for_trial, (False, 0), "seed must be an integer"),
            (SplitMix64.for_trial, (1, 2.0), "trial must be an integer"),
            (SplitMix64.for_trial, (1, True), "trial must be an integer"),
        ],
        ids=[
            "random_angles-bool",
            "diagonal-float",
            "k-float",
            "k-str",
            "below-3",
            "below0",
            "state-float",
            "state-bool",
            "seed-float",
            "seed-bool",
            "trial-float",
            "trial-bool",
        ],
    )
    def test_raises_domain_error(self, call, args, message):
        with pytest.raises(DomainError) as info:
            call(*args)
        assert type(info.value) is DomainError
        assert str(info.value) == message


def _finite(value) -> bool:
    """Every float in ``value``, through lists, tuples and dataclasses, is finite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    return True


# Each public function named with its arguments; every position is numeric.
CONTRACT_CALLS = {
    "diameter_cubic": (diameter_cubic, (3.0, 4.0, 5.0)),
    "closing_side": (closing_side, (1.0, 1.0, 2.0)),
    "enumerate_incongruent_quads": (enumerate_incongruent_quads, (3.0, 4.0, 5.0)),
    "ChordSet": (lambda a, b, d: ChordSet((a, b), d), (1.0, 1.0, 2.0)),
    "chord_from_angle": (chord_from_angle, (1.0, 1.0)),
    "arc_sum": (lambda d, a, b: arc_sum(d, [a, b]), (2.0, 1.0, 1.0)),
    "arcs_from_sides": (lambda a, b, d: arcs_from_sides([a, b], d), (1.0, 1.0, 2.0)),
    "rhs_quadrilateral": (rhs_quadrilateral, (1.0, 1.0, 1.0, 2.0)),
    "rhs_pentagon": (rhs_pentagon, (1.0,) * 7),
    "rhs_hexagon": (rhs_hexagon, (1.0,) * 10),
    "FuzzConfig": (FuzzConfig, (100, 3, 12, 0.5, 50.0, 42, 1e-9)),
    "vertices_from_angles": (
        lambda radius: vertices_from_angles(CentralAngles([HALF, HALF]), radius),
        (1.0,),
    ),
    "InscribedPolygon": (lambda radius: InscribedPolygon(radius, TRIANGLE), (1.0,)),
}
CONTRACT_VALUES = {
    "None": None,
    "str": "x",
    "complex": 1j,
    "10**400": 10**400,
    "Decimal-1e400": Decimal("1e400"),
    "Decimal-NaN": Decimal("NaN"),
    "Decimal-sNaN": Decimal("sNaN"),
}


@pytest.mark.parametrize("value_id", CONTRACT_VALUES)
@pytest.mark.parametrize(
    "name, position",
    [(name, i) for name, (_, args) in CONTRACT_CALLS.items() for i in range(len(args))],
)
def test_public_functions_return_finite_or_raise_a_coded_error(name, position, value_id):
    call, args = CONTRACT_CALLS[name]
    args = list(args)
    args[position] = CONTRACT_VALUES[value_id]
    try:
        result = call(*args)
    except SemichordError as exc:
        assert exc.code != SemichordError.code
        assert not NONFINITE_TOKEN.search(str(exc))
    else:
        assert _finite(result)


# Every real-valued position above but the closed forms' (which keep exact
# arithmetic) and FuzzConfig's integer fields.
FLOAT_POSITIONS = [
    (name, i)
    for name, (_, args) in CONTRACT_CALLS.items()
    if not name.startswith("rhs_")
    for i, value in enumerate(args)
    if type(value) is float
]


@pytest.mark.parametrize("kind", [Decimal, Fraction, repr])
@pytest.mark.parametrize("name, position", FLOAT_POSITIONS)
def test_other_reals_read_as_the_float(name, position, kind):
    call, args = CONTRACT_CALLS[name]
    other = list(args)
    other[position] = kind(args[position])
    # repr also tells a float field from a Decimal or Fraction one.
    assert repr(call(*other)) == repr(call(*args))


class TestFuzzConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance_rel": NAN},
            {"tolerance_rel": INF},
            {"radius_max": INF},
            {"radius_min": NAN},
        ],
    )
    def test_non_finite_config_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FuzzConfig(**kwargs)

    def test_decimal_radius_gives_the_float_report(self):
        config = FuzzConfig(radius_min=Decimal("0.5"), trials=3)
        assert config == FuzzConfig(radius_min=0.5, trials=3)
        assert run_fuzz(config) == run_fuzz(FuzzConfig(radius_min=0.5, trials=3))
