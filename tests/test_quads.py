"""Tests for quadrilateral construction and the built-in counterexample."""

import argparse
import json
import math
import struct
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import outcome
from semichord import (
    CentralAngles,
    DomainError,
    InvalidAnglesError,
    arcs_from_sides,
    closing_side,
    counterexample_report,
    diagonal,
    diameter_cubic,
    enumerate_incongruent_quads,
    evaluate_general,
    rhs_quadrilateral,
    side_lengths,
    solve_diameter,
    vertices_from_angles,
)
from semichord import cli, quads
from semichord.cli import main
from semichord.quads import QuadArrangement

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


def _cubic_root_oracle(a, b, c):
    """Brute-force bisection on d^3 - (a^2+b^2+c^2) d - 2abc, independent
    of the implementation under test."""
    s = a * a + b * b + c * c
    p = 2.0 * a * b * c
    lo, hi = max(a, b, c), a + b + c
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid * mid * mid - s * mid - p <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


positive_sides = st.floats(min_value=1e-2, max_value=1e2)

#: Distinct from 1.0, but within any float tolerance on a diagonal.
NEAR_ONE = 1.0 + 1e-9


class TestDiameterCubic:
    def test_unit_sides(self):
        # d^3 - 3d - 2 factors as (d - 2)(d + 1)^2.
        assert diameter_cubic(1.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-13)

    def test_counterexample_sides(self):
        root = diameter_cubic(SQRT2, 3.0 + SQRT5, 3.0 - SQRT5)
        assert root == pytest.approx(4.0 * SQRT2, rel=1e-12)
        # Substitution check: 128*sqrt(2) - 120*sqrt(2) - 8*sqrt(2) = 0.
        s = 2.0 + (3.0 + SQRT5) ** 2 + (3.0 - SQRT5) ** 2
        p = 2.0 * SQRT2 * (3.0 + SQRT5) * (3.0 - SQRT5)
        assert abs(root**3 - s * root - p) <= 1e-11

    def test_3_4_5_against_oracle(self):
        oracle = _cubic_root_oracle(3.0, 4.0, 5.0)
        assert oracle == pytest.approx(8.055810359525175, rel=1e-14)
        assert diameter_cubic(3.0, 4.0, 5.0) == pytest.approx(oracle, rel=1e-13)

    def test_1_2_3_against_oracle(self):
        oracle = _cubic_root_oracle(1.0, 2.0, 3.0)
        assert oracle == pytest.approx(4.113090584324951, rel=1e-14)
        assert diameter_cubic(1.0, 2.0, 3.0) == pytest.approx(oracle, rel=1e-13)

    @given(a=positive_sides, b=positive_sides, c=positive_sides)
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_everywhere(self, a, b, c):
        root = diameter_cubic(a, b, c)
        assert abs(root - _cubic_root_oracle(a, b, c)) <= 1e-12 * root

    @given(
        a=st.floats(min_value=1e-6, max_value=1e2),
        b=st.floats(min_value=1e-6, max_value=1e2),
        c=st.floats(min_value=1e-6, max_value=1e2),
    )
    @settings(max_examples=300, deadline=None)
    def test_root_error_within_two_ulps_exactly(self, a, b, c):
        # One Newton correction |h(d)| / h'(d), in exact arithmetic, gives
        # the root's relative error to first order; the worst seen over
        # 100 000 random triples was about 1.5 * 2^-52.
        d = Fraction(diameter_cubic(a, b, c))
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        s = a * a + b * b + c * c
        h = (d * d - s) * d - 2 * a * b * c
        assert abs(h) / (d * (3 * d * d - s)) <= Fraction(1, 2**51)


class TestClosingSide:
    def test_counterexample_fourth_side(self):
        got = closing_side(SQRT2, 3.0 + SQRT5, 4.0 * SQRT2)
        assert got == pytest.approx(3.0 - SQRT5, abs=1e-10 * 4.0 * SQRT2)

    def test_half_regular_hexagon(self):
        assert closing_side(1.0, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_chords_exhausting_the_semicircle(self):
        # Arcs of 3 and 4 on diameter 5 meet exactly at the far endpoint.
        assert closing_side(3.0, 4.0, 5.0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_fill_gives_exactly_zero(self):
        # 3^2 + 4^2 == 5^2 exactly in binary, so nothing is left over.
        assert closing_side(3.0, 4.0, 5.0) == 0.0

    def test_near_diameter_chord_leaves_a_small_closing_side(self):
        # d^2 - a^2 - b^2 is positive exactly, though the asin arcs of a
        # and b overshoot pi by more than 1e-12.
        a, b, d = 2.0118988374651848e-07, 1.129042465856196, 1.129042465856214
        assert Fraction(d) ** 2 > Fraction(a) ** 2 + Fraction(b) ** 2
        assert closing_side(a, b, d) == 3.368928874790194e-10

    @given(a=positive_sides, b=positive_sides, c=positive_sides)
    @settings(max_examples=200, deadline=None)
    def test_reconstructs_the_third_side(self, a, b, c):
        # Any positive triple inscribes on its cubic-root diameter, so
        # walking a then b must land the fourth side on c; the error
        # budget scales with the figure size d.
        d = diameter_cubic(a, b, c)
        assert abs(closing_side(a, b, d) - c) <= 1e-10 * d

    @given(
        a=st.floats(min_value=0.1, max_value=10.0),
        b=st.floats(min_value=0.1, max_value=10.0),
        c=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_self_consistency_relation(self, a, b, c):
        # The rebuilt value divides by 2ab, so extreme side ratios
        # amplify the d^2 rounding beyond any fixed multiple of d;
        # moderate ranges keep the check meaningful.
        d = diameter_cubic(a, b, c)
        cd = closing_side(a, b, d)
        rebuilt = -d * (a * a + b * b + cd * cd - d * d) / (2.0 * a * b)
        assert abs(cd - rebuilt) <= 1e-10 * d


class TestEnumerateIncongruentQuads:
    def test_three_distinct_sides(self):
        arrangements = enumerate_incongruent_quads(1.0, 2.0, 3.0)
        assert len(arrangements) == 3
        assert sorted(arr.middle_side for arr in arrangements) == [1.0, 2.0, 3.0]
        shared = {arr.d for arr in arrangements}
        assert len(shared) == 1
        assert arrangements[0].d == pytest.approx(4.113090584324951, rel=1e-12)

    def test_all_equal_sides(self):
        arrangements = enumerate_incongruent_quads(1.0, 1.0, 1.0)
        assert len(arrangements) == 1
        assert arrangements[0].d == pytest.approx(2.0, abs=1e-13)

    def test_two_equal_sides(self):
        arrangements = enumerate_incongruent_quads(1.0, 1.0, 2.0)
        assert len(arrangements) == 2
        assert sorted(arr.middle_side for arr in arrangements) == [1.0, 2.0]

    def test_side_multiset_preserved(self):
        for arr in enumerate_incongruent_quads(0.5, 2.0, 1.0):
            assert sorted(arr.ordered_sides) == [0.5, 1.0, 2.0]

    def test_identity_holds_on_every_arrangement(self):
        for arr in enumerate_incongruent_quads(1.0, 2.0, 3.0):
            assert evaluate_general(arr.polygon).residual_rel <= 1e-10

    def test_arrangements_are_incongruent(self):
        arrangements = enumerate_incongruent_quads(1.0, 2.0, 3.0)
        d = arrangements[0].d
        pairs = [
            tuple(sorted((diagonal(a.polygon, 0, 2), diagonal(a.polygon, 1, 3))))
            for a in arrangements
        ]
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                gap = max(
                    abs(pairs[i][0] - pairs[j][0]), abs(pairs[i][1] - pairs[j][1])
                )
                assert gap > 1e-6 * d

    def test_near_tie_keeps_every_arrangement(self):
        arrangements = enumerate_incongruent_quads(1.0, NEAR_ONE, 2.0)
        assert len(arrangements) == 3
        assert {arr.middle_side for arr in arrangements} == {1.0, NEAR_ONE, 2.0}

    @given(
        st.lists(
            st.sampled_from([0.5, 1.0, math.nextafter(1.0, 2.0), NEAR_ONE, 2.0]),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_orderings_up_to_reversal(self, triple):
        arrangements = enumerate_incongruent_quads(*triple)
        assert len(arrangements) == len(set(triple))
        kept = {arr.ordered_sides for arr in arrangements}
        assert kept | {order[::-1] for order in kept} == set(permutations(triple))

    @given(a=positive_sides, b=positive_sides, c=positive_sides)
    @settings(max_examples=100, deadline=None)
    def test_shared_diameter_and_valid_polygons(self, a, b, c):
        arrangements = enumerate_incongruent_quads(a, b, c)
        assert 1 <= len(arrangements) <= 3
        reference = arrangements[0].d
        for arr in arrangements:
            assert arr.d == reference
            assert arr.polygon.n == 4
            measured = side_lengths(arr.polygon)
            for want, got in zip(arr.ordered_sides, measured):
                assert abs(want - got) <= 1e-10 * reference


def _checked_quads(a, b, c):
    """The arrangements built through the public checked steps.

    Each partition goes through ``CentralAngles(arcs_from_sides(...))``,
    which ``enumerate_incongruent_quads`` replaces with the partition it
    checks where it builds it.
    """
    d = diameter_cubic(a, b, c)
    arrangements = []
    for order in sorted(set(permutations((float(a), float(b), float(c))))):
        if order > order[::-1]:
            continue
        poly = vertices_from_angles(CentralAngles(arcs_from_sides(order, d)), 0.5 * d)
        arrangements.append(QuadArrangement(order, d, poly, order[1]))
    return arrangements


def _quads_outcome(build, a, b, c):
    """Every arrangement's floats as bytes, or the error's class, code and message."""
    arrangements = outcome(build, a, b, c)
    if type(arrangements) is tuple:  # the error's
        return arrangements
    return [
        (
            type(arr),
            struct.pack(
                "<14d",
                *arr.ordered_sides,
                arr.d,
                arr.middle_side,
                arr.polygon.radius,
                *(x for point in arr.polygon.vertices for x in point),
            ),
        )
        for arr in arrangements
    ]


#: Subnormal and smallest-normal sides, whose arcs on a unit-sized d underflow.
TINY_SIDES = (5e-324, 1e-323, 2.5e-320, 2.2250738585072014e-308)


@st.composite
def cubic_sides(draw):
    """Three sides, often with repeats, scaled by 2^k with |k| <= 1000.

    Ratios lie in [1e-3, 1] or among ``TINY_SIDES``; a tiny side is left
    unscaled, so it stays near 5e-324, and the others stay far from
    overflow.
    """
    k = draw(st.integers(min_value=-1000, max_value=1000))
    pool = [
        draw(st.sampled_from(TINY_SIDES))
        if draw(st.integers(min_value=0, max_value=4)) == 0
        else math.ldexp(draw(st.floats(min_value=1e-3, max_value=1.0)), k)
        for _ in range(3)
    ]
    pattern = draw(st.sampled_from([(0, 1, 2), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)]))
    return tuple(pool[i] for i in pattern)


class TestArrangementsMatchTheCheckedConstruction:
    """enumerate_incongruent_quads checks its partitions where it builds them.

    Every arrangement, or the error, is that of the checked construction
    ``CentralAngles(arcs_from_sides(...))``.
    """

    @given(sides=cubic_sides())
    @example(sides=(1.0, 1.0, 1.0))
    @example(sides=(3.0, 4.0, 5.0))
    @example(sides=(2.0**-1000, 1.0, 2.0**1000))
    # One arc underflows to 0.0 and two stay positive: both arrangements place.
    @example(sides=(5e-324, 2.0, 2.0))
    @settings(max_examples=400, deadline=None)
    def test_matches_bit_for_bit(self, sides):
        assert _quads_outcome(enumerate_incongruent_quads, *sides) == _quads_outcome(
            _checked_quads, *sides
        )

    @given(sides=cubic_sides())
    @settings(max_examples=400, deadline=None)
    def test_cubic_diameter_is_at_least_the_largest_side(self, sides):
        try:
            d = diameter_cubic(*sides)
        except DomainError:  # a side scaled to 0.0 or past the float range
            return
        assert d >= max(sides)

    def test_two_underflowed_arcs_keep_the_zero_arc_rule(self):
        error = (
            InvalidAnglesError,
            "invalid_angles",
            "at least two arcs must be strictly positive",
        )
        assert _quads_outcome(_checked_quads, 5e-324, 5e-324, 4.0) == error
        assert _quads_outcome(enumerate_incongruent_quads, 5e-324, 5e-324, 4.0) == error


class TestConstructCommand:
    def test_near_tie_counts_three(self, capsys):
        assert main(["construct", "1,1.000000001,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["payload"]["count"] == 3
        middles = {arr["middle_side"] for arr in doc["payload"]["arrangements"]}
        assert middles == {1.0, NEAR_ONE, 2.0}

    def test_solves_the_cubic_once(self, monkeypatch):
        calls = []

        def counting(*sides):
            calls.append(sides)
            return diameter_cubic(*sides)

        monkeypatch.setattr(quads, "diameter_cubic", counting)
        monkeypatch.setattr(cli, "diameter_cubic", counting, raising=False)
        assert main(["construct", "3,4,5"]) == 0
        assert calls == [(3.0, 4.0, 5.0)]

    @pytest.mark.parametrize(
        "values", ["3,4,5", "1,1,2", "1,1,1", "5e-324,2,2", "1e-300,1,1e300"]
    )
    def test_diagonals_are_the_public_diagonals(self, values):
        payload, _ = cli._cmd_construct(argparse.Namespace(values=values))
        sides = [float(v) for v in values.split(",")]
        arrangements = enumerate_incongruent_quads(*sides)
        assert len(payload["arrangements"]) == len(arrangements)
        for placed, arr in zip(payload["arrangements"], arrangements):
            assert placed["vertices"] == arr.polygon.vertices
            got = placed["diagonals"]
            assert struct.pack("<2d", got["first"], got["second"]) == struct.pack(
                "<2d", diagonal(arr.polygon, 0, 2), diagonal(arr.polygon, 1, 3)
            )


class TestCounterexampleReport:
    def test_relation_holds(self):
        report = counterexample_report()
        assert report.relation_holds is True
        assert report.relation_residual <= 1e-12 * 32.0

    def test_off_circle_distance(self):
        # Coordinate oracle: the corner vertex sits at (0, sqrt(2)),
        # the semicircle center at (2*sqrt(2), 0) with radius 2*sqrt(2).
        expected = math.hypot(2.0 * SQRT2, SQRT2) - 2.0 * SQRT2
        report = counterexample_report()
        assert report.off_circle_distance == pytest.approx(expected, rel=1e-12)
        assert 0.33 <= report.off_circle_distance <= 0.34

    def test_planar_quadrilateral_closes(self):
        # From the corner (0, sqrt(2)) to the far end (4 sqrt(2), 0) is
        # sqrt(34), and sides b and c can span it: |b - c| < sqrt(34) < b + c.
        b, c = 3.0 + SQRT5, 3.0 - SQRT5
        gap = math.hypot(4.0 * SQRT2 - 0.0, 0.0 - SQRT2)
        assert gap == pytest.approx(math.sqrt(34.0), rel=1e-15)
        assert abs(b - c) < gap < b + c  # 4.47 < 5.83 < 6

    def test_inscribable_variant(self):
        report = counterexample_report()
        assert report.inscribable_variant_d == pytest.approx(4.0 * SQRT2, rel=1e-12)

    def test_relation_residual_matches_direct_evaluation(self):
        report = counterexample_report()
        d = 4.0 * SQRT2
        direct = abs(
            d * d - rhs_quadrilateral(SQRT2, 3.0 + SQRT5, 3.0 - SQRT5, d)
        )
        assert report.relation_residual == direct


@given(a=positive_sides, b=positive_sides, c=positive_sides)
@settings(max_examples=150, deadline=None)
def test_cubic_and_transcendental_routes_agree(a, b, c):
    algebraic = diameter_cubic(a, b, c)
    transcendental = solve_diameter([a, b, c]).d
    assert abs(algebraic - transcendental) <= 1e-10 * algebraic
