"""nan, inf and non-real inputs are rejected with a coded error, never carried along.

Range guards are negated comparisons that bound a value on both sides
(``0 < s < inf``), so nan and inf fail them; a radius is bounded through
its diameter 2R, which must be finite, and from below by the smallest
normal float, and the closed forms and the fuzz radius range through the
identity's diameter window.  An input that is not a real number (a str,
None, a complex) is rejected with the same codes.  On the command
line such input exits 1 with an error code and prints no ``nan`` or
``inf`` token; so does a payload that would carry one.
"""

import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from semichord import (
    CentralAngles,
    ChordSet,
    CounterexampleReport,
    DomainError,
    FuzzConfig,
    InscribedPolygon,
    InvalidAnglesError,
    arc_sum,
    arcs_from_sides,
    chord_from_angle,
    closing_side,
    diameter_cubic,
    inscribe_from_sides,
    rhs_hexagon,
    rhs_pentagon,
    rhs_quadrilateral,
    solve_diameter,
    vertices_from_angles,
)
from semichord import cli
from semichord.cli import main

NAN = math.nan
INF = math.inf
HALF = math.pi / 2
TRIANGLE = ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0))
# Radii float arithmetic cannot take: not real, a Decimal, past the float range.
NON_REAL = ["1.0", None, 1j, Decimal("1"), pytest.param(10**400, id="10**400")]

NONFINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


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
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((-1.0, 0.0), vertex, (1.0, 0.0)))

    @pytest.mark.parametrize("end", [(NAN, 0.0), (1.0, NAN)])
    def test_non_finite_endpoint_rejected(self, end):
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((-1.0, 0.0), (0.0, 1.0), end))


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
    @pytest.mark.parametrize("bad", [NAN, INF, -1.0])
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
    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_diameter_cubic_rejects_non_finite_side(self, position, bad):
        sides = [1.0, 2.0, 3.0]
        sides[position] = bad
        with pytest.raises(DomainError) as info:
            diameter_cubic(*sides)
        assert not NONFINITE_TOKEN.search(str(info.value))


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
        assert str(info.value) == "sides must be positive and finite"

    @pytest.mark.parametrize("d", [NAN, INF, -INF])
    def test_closing_side_rejects_non_finite_diameter(self, d):
        with pytest.raises(DomainError) as info:
            closing_side(1.0, 1.0, d)
        assert not NONFINITE_TOKEN.search(str(info.value))


SIDES_NOT_REAL = "sides must be real numbers"
D_NOT_REAL = "diameter must be a real number"
D_NOT_FINITE = "diameter must be positive and finite"


class TestSolverNonReal:
    """A side or diameter that is not a real number is a coded domain error."""

    @pytest.mark.parametrize(
        "call, args, message",
        [
            (solve_diameter, (["a", 1],), SIDES_NOT_REAL),
            (solve_diameter, ([None, 1],), SIDES_NOT_REAL),
            pytest.param(
                solve_diameter, ([10**400, 1],), SIDES_NOT_REAL, id="solve_diameter-10**400"
            ),
            (inscribe_from_sides, ([None, 1],), SIDES_NOT_REAL),
            (arc_sum, (None, [1.0]), D_NOT_REAL),
            (arc_sum, (2.0, ["a"]), SIDES_NOT_REAL),
            pytest.param(arc_sum, (10**400, [1.0]), D_NOT_FINITE, id="arc_sum-10**400"),
            (arc_sum, (Decimal("NaN"), [1.0]), D_NOT_FINITE),
            (arc_sum, (Decimal("sNaN"), [1.0]), D_NOT_FINITE),
            (arcs_from_sides, ([1.0, 1.0], "2"), D_NOT_REAL),
            (arcs_from_sides, ([1.0, 1.0], Decimal("NaN")), D_NOT_FINITE),
            (arcs_from_sides, ([None, 1.0], 2.0), SIDES_NOT_REAL),
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


class TestCli:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "90,90", "--radius", "nan"], "domain"),
            (["verify", "90,90", "--radius", "inf"], "domain"),
            (["verify", "nan,90,90", "--radius", "1"], "invalid_angles"),
            (["verify", "inf,90", "--radius", "1"], "invalid_angles"),
            (["render", "90,90", "--radius", "nan", "--out", "d.svg"], "domain"),
            (["fuzz", "--trials", "2", "--tolerance", "nan"], "domain"),
            (["fuzz", "--trials", "2", "--tolerance", "inf"], "domain"),
            (["fuzz", "--trials", "2", "--radius-max", "inf"], "domain"),
            (["solve", "nan,1"], "domain"),
            (["solve", "inf,1"], "domain"),
            (["verify", "nan,1"], "domain"),
            (["construct", "inf,1,1"], "domain"),
            (["construct", "1,nan,1"], "domain"),
            (["render", "90,90", "--radius", "1e308", "--out", "d.svg"], "domain"),
            (["verify", "30,60,90", "--radius", "1e-312"], "domain"),
            (["render", "30,60,90", "--radius", "1e-312", "--out", "d.svg"], "domain"),
            (["fuzz", "--trials", "50", "--radius-max", "1e120"], "domain"),
            (["verify", "5e-324,5e-324"], "domain"),
            (["render", "5e-324,5e-324", "--out", "d.svg"], "domain"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_exits_with_code_and_no_non_finite_token(
        self, argv, code, fmt, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        status = main(argv + ["--format", fmt])
        out = capsys.readouterr().out
        assert status == 1
        assert not NONFINITE_TOKEN.search(out), out
        if fmt == "json":
            doc = json.loads(out)
            assert doc["status"] == "error"
            assert doc["payload"]["code"] == code
        else:
            assert f"payload.code = {code}" in out.splitlines()
        assert not (tmp_path / "d.svg").exists()


class TestFinitePayload:
    """A handler's payload holding nan or inf never prints as ``status: ok``.

    ``counterexample`` is fed a report whose residual field holds each
    shape; ``asdict`` carries it into the payload unchanged.
    """

    @pytest.mark.parametrize(
        "payload",
        [
            {"d": NAN},
            {"d": 1.0, "nested": {"values": [2.0, INF]}},
            {"pairs": [(1.0, -INF)]},
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_non_finite_payload_is_a_domain_error(
        self, payload, fmt, capsys, monkeypatch
    ):
        report = CounterexampleReport(True, payload, 0.0, 1.0)
        monkeypatch.setattr(cli, "counterexample_report", lambda: report)
        status = main(["counterexample", "--format", fmt])
        out = capsys.readouterr().out
        assert status == 1
        assert not NONFINITE_TOKEN.search(out), out
        if fmt == "json":
            doc = json.loads(out)
            assert doc["status"] == "error"
            assert doc["payload"]["code"] == "domain"
        else:
            assert "payload.code = domain" in out.splitlines()
