"""Tests for the semicircle coordinate layer."""

import ast
import math
import struct
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import references
from semichord import (
    CentralAngles,
    ChordSet,
    DomainError,
    FuzzConfig,
    InscribedPolygon,
    InvalidAnglesError,
    SemichordError,
    SplitMix64,
    chord_from_angle,
    diagonal,
    mirror,
    random_angles,
    run_fuzz,
    side_lengths,
    vertices_from_angles,
)
from semichord import corner_identity_residual, fuzz, geometry, identity
from semichord.geometry import ARC_SUM_TOL
from semichord.identity import _D_MAX, _D_MIN, _general_identity


@st.composite
def arc_partitions(st_draw, min_n=3, max_n=12, min_weight=1e-3):
    n = st_draw(st.integers(min_value=min_n, max_value=max_n))
    weights = st_draw(
        st.lists(
            st.floats(min_value=min_weight, max_value=1.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    total = math.fsum(weights)
    return CentralAngles(math.pi * w / total for w in weights)


radii = st.floats(min_value=1e-3, max_value=1e3)


class TestChordFromAngle:
    def test_half_turn_is_diameter(self):
        assert chord_from_angle(math.pi, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_right_angle_arc(self):
        assert chord_from_angle(math.pi / 2, 1.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_sixty_degree_arc_radius_two(self):
        assert chord_from_angle(math.pi / 3, 2.0) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("arc", [-0.1, math.pi + 0.1, 10.0])
    def test_arc_out_of_range(self, arc):
        with pytest.raises(DomainError):
            chord_from_angle(arc, 1.0)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_bad_radius(self, radius):
        with pytest.raises(DomainError):
            chord_from_angle(math.pi / 2, radius)

    def test_monotone_in_arc(self):
        samples = [chord_from_angle(t, 3.0) for t in
                   [k * math.pi / 40 for k in range(41)]]
        assert all(a < b for a, b in zip(samples, samples[1:]))


class TestCentralAngles:
    def test_rejects_negative_arc(self):
        with pytest.raises(InvalidAnglesError):
            CentralAngles([-0.1, math.pi + 0.1])

    def test_rejects_wrong_sum(self):
        with pytest.raises(InvalidAnglesError):
            CentralAngles([1.0, 1.0])

    def test_rejects_single_positive_arc(self):
        with pytest.raises(InvalidAnglesError):
            CentralAngles([math.pi, 0.0])

    def test_rejects_too_few(self):
        with pytest.raises(InvalidAnglesError):
            CentralAngles([math.pi])

    def test_zero_arcs_allowed(self):
        angles = CentralAngles([0.0, math.pi / 2, math.pi / 2])
        assert angles.n_vertices == 4

    def test_numeric_string_arcs_convert(self):
        angles = CentralAngles(["1.0", repr(math.pi - 1.0)])
        assert angles.arcs == (1.0, math.pi - 1.0)
        assert len(angles) == 2

    # Which message wins must not depend on where a nan sits among the
    # arcs: a negative arc is reported before a non-finite sum.
    @pytest.mark.parametrize(
        "arcs, message",
        [
            ([math.nan, -1.0, math.pi], "arcs must be non-negative"),
            ([-1.0, math.nan, math.pi], "arcs must be non-negative"),
            ([math.inf, -math.inf, 1.0], "arcs must be non-negative"),
            ([-math.inf, math.inf, 1.0], "arcs must be non-negative"),
            ([1e308, 1e308, -1e308], "arcs must be non-negative"),
            ([math.nan, 1.0, math.pi], "arcs must be finite and sum to pi"),
            ([1.0, math.inf], "arcs must be finite and sum to pi"),
            ([1e308, 1e308], "arcs must be finite and sum to pi"),
            ([-0.0, math.pi, 0.0], "at least two arcs must be strictly positive"),
        ],
    )
    def test_message_for_mixed_bad_arcs(self, arcs, message):
        with pytest.raises(InvalidAnglesError) as info:
            CentralAngles(arcs)
        assert str(info.value) == message


class TestVerticesFromAngles:
    def test_isoceles_right_triangle(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 2, math.pi / 2]), 1.0)
        assert poly.vertices[0] == (-1.0, 0.0)
        assert poly.vertices[2] == (1.0, 0.0)
        assert poly.vertices[1][0] == pytest.approx(0.0, abs=1e-15)
        assert poly.vertices[1][1] == pytest.approx(1.0, rel=1e-15)

    def test_figure_quadrilateral_side_reproduction(self):
        # Coordinate oracle: each consecutive distance must equal the
        # chord of its arc, 2 R sin(arc/2).
        arcs = [math.radians(t) for t in (55.0, 55.0, 70.0)]
        poly = vertices_from_angles(CentralAngles(arcs), 4.0)
        measured = side_lengths(poly)
        for arc, got in zip(arcs, measured):
            assert got == pytest.approx(8.0 * math.sin(arc / 2), abs=1e-12 * 4.0)

    def test_zero_leading_arc_gives_coincident_vertices(self):
        # A zero arc parks the second vertex on top of the first; the
        # all-degenerate partition [0, pi] itself is rejected because a
        # single positive arc collapses the figure to a segment.
        poly = vertices_from_angles(
            CentralAngles([0.0, math.pi / 2, math.pi / 2]), 1.0
        )
        x, y = poly.vertices[1]
        assert math.hypot(x + 1.0, y) <= 1e-12
        with pytest.raises(InvalidAnglesError):
            CentralAngles([0.0, math.pi])

    def test_bad_radius(self):
        with pytest.raises(DomainError):
            vertices_from_angles(CentralAngles([math.pi / 2, math.pi / 2]), 0.0)

    # Both construction paths store the radius as a float, so they give
    # equal polygons whatever real number type the radius came in as.
    @pytest.mark.parametrize("radius", [2, True, Fraction(3, 2)])
    def test_radius_stored_as_float(self, radius):
        poly = vertices_from_angles(CentralAngles([1.0, math.pi - 1.0]), radius)
        direct = InscribedPolygon(radius, poly.vertices)
        assert type(poly.radius) is float and type(direct.radius) is float
        assert poly.radius == direct.radius == float(radius)
        assert poly == direct

    def test_unvalidated_arcs_are_checked_by_the_validator(self):
        arcs = SimpleNamespace(arcs=(2.0, -0.5, math.pi - 1.5))
        with pytest.raises(InvalidAnglesError, match="descend in polar angle"):
            vertices_from_angles(arcs, 1.0)


class TestInscribedPolygonValidation:
    def test_rejects_two_vertices(self):
        with pytest.raises(InvalidAnglesError, match="at least 3 vertices"):
            InscribedPolygon(1.0, ((-1.0, 0.0), (1.0, 0.0)))

    def test_rejects_off_circle_vertex(self):
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((-1.0, 0.0), (0.5, 0.5), (1.0, 0.0)))

    def test_rejects_lower_half_vertex(self):
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((-1.0, 0.0), (0.0, -1.0), (1.0, 0.0)))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((0.0, 1.0), (-1.0, 0.0), (1.0, 0.0)))

    def test_rejects_unsorted_vertices(self):
        a = (math.cos(2.0), math.sin(2.0))
        b = (math.cos(2.5), math.sin(2.5))
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((-1.0, 0.0), a, b, (1.0, 0.0)))

    # A vertex up to the tolerance below the diameter is accepted; at
    # x < 0 its polar angle must still read near pi, not near -pi.
    def test_accepts_vertex_just_below_left_end(self):
        poly = InscribedPolygon(1.0, ((-1.0, -1e-13), (0.0, 1.0), (1.0, 0.0)))
        assert poly.n == 3

    def test_mirror_keeps_vertex_just_below_diameter(self):
        poly = vertices_from_angles(
            CentralAngles([1.0, math.pi - 1.0 + 0.9e-12, 0.0]), 1.0
        )
        assert -1e-12 < poly.vertices[2][1] < 0.0
        flipped = mirror(poly)
        assert flipped.vertices == tuple((-x, y) for x, y in poly.vertices[::-1])

    # Polar angles that ascend by 1e-6 next to either end of the diameter.
    @pytest.mark.parametrize(
        "first, second", [(math.pi - 2e-6, math.pi - 1e-6), (1e-6, 2e-6)]
    )
    def test_rejects_reversed_pair_near_an_end(self, first, second):
        a = (math.cos(first), math.sin(first))
        b = (math.cos(second), math.sin(second))
        with pytest.raises(InvalidAnglesError):
            InscribedPolygon(1.0, ((-1.0, 0.0), a, b, (1.0, 0.0)))


class TestSideLengths:
    def test_right_triangle(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 2, math.pi / 2]), 1.0)
        assert side_lengths(poly) == pytest.approx(
            [math.sqrt(2.0), math.sqrt(2.0)], rel=1e-14
        )

    def test_half_regular_hexagon(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 3] * 3), 1.0)
        assert side_lengths(poly) == pytest.approx([1.0, 1.0, 1.0], rel=1e-14)

    def test_figure_pentagon(self):
        arcs = [math.radians(t) for t in (55.0, 55.0, 25.0, 45.0)]
        poly = vertices_from_angles(CentralAngles(arcs), 4.0)
        expected = [8.0 * math.sin(a / 2) for a in arcs]
        assert side_lengths(poly) == pytest.approx(expected, abs=1e-12 * 4.0)


class TestDiagonal:
    def test_triangle_diameter(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 2, math.pi / 2]), 1.0)
        assert diagonal(poly, 0, 2) == pytest.approx(2.0, abs=1e-15)

    def test_half_hexagon_short_diagonal(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 3] * 3), 1.0)
        assert diagonal(poly, 0, 2) == pytest.approx(math.sqrt(3.0), rel=1e-14)

    def test_figure_pentagon_first_diagonal(self):
        arcs = [math.radians(t) for t in (55.0, 55.0, 25.0, 45.0)]
        poly = vertices_from_angles(CentralAngles(arcs), 4.0)
        assert diagonal(poly, 0, 2) == pytest.approx(
            chord_from_angle(math.radians(110.0), 4.0), abs=1e-12 * 4.0
        )

    @pytest.mark.parametrize("i,j", [(2, 2), (2, 1), (-1, 2), (0, 3)])
    def test_index_errors(self, i, j):
        poly = vertices_from_angles(CentralAngles([math.pi / 2, math.pi / 2]), 1.0)
        with pytest.raises(IndexError) as info:
            diagonal(poly, i, j)
        assert info.value.code == "domain"
        assert isinstance(info.value, SemichordError)


class TestChordSet:
    def test_from_polygon(self):
        poly = vertices_from_angles(CentralAngles([math.pi / 3] * 3), 1.0)
        chords = ChordSet.from_polygon(poly)
        assert chords.diameter == pytest.approx(2.0, abs=1e-14)
        assert chords.sides == pytest.approx((1.0, 1.0, 1.0), rel=1e-14)

    def test_rejects_chord_beyond_diameter(self):
        with pytest.raises(DomainError):
            ChordSet((3.0,), 2.0)

    def test_rejects_negative_side(self):
        with pytest.raises(DomainError):
            ChordSet((-1.0, 2.0), 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_side_range_has_one_message(self, bad):
        for sides in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DomainError) as info:
                ChordSet(sides, 2.0)
            assert str(info.value) == "sides must be non-negative and finite"

    def test_rejects_bad_diameter(self):
        with pytest.raises(DomainError):
            ChordSet((1.0,), 0.0)


@given(angles=arc_partitions(), radius=radii)
@settings(max_examples=150, deadline=None)
def test_round_trip_sides_match_chords(angles, radius):
    poly = vertices_from_angles(angles, radius)
    for arc, measured in zip(angles.arcs, side_lengths(poly)):
        assert abs(measured - chord_from_angle(arc, radius)) <= 1e-12 * radius


@given(
    t=st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
    radius=radii,
)
@settings(max_examples=150, deadline=None)
def test_thales_for_any_arc_split(t, radius):
    poly = vertices_from_angles(CentralAngles([t, math.pi - t]), radius)
    a, b = side_lengths(poly)
    assert abs(a * a + b * b - 4.0 * radius * radius) <= 1e-11 * radius * radius


@given(angles=arc_partitions(), radius=radii)
@settings(max_examples=150, deadline=None)
def test_reflection_symmetry(angles, radius):
    poly = vertices_from_angles(angles, radius)
    flipped = mirror(poly)
    # The mirror transform preserves the side multiset bit for bit.
    assert sorted(side_lengths(flipped)) == sorted(side_lengths(poly))
    # Reversing the arcs reproduces the mirrored polygon.
    reversed_poly = vertices_from_angles(angles.reversed(), radius)
    for (px, py), (qx, qy) in zip(reversed_poly.vertices, flipped.vertices):
        assert math.hypot(px - qx, py - qy) <= 1e-12 * radius


@given(angles=arc_partitions(), radius=radii)
@settings(max_examples=150, deadline=None)
def test_closing_side_is_diameter(angles, radius):
    poly = vertices_from_angles(angles, radius)
    assert abs(diagonal(poly, 0, poly.n - 1) - 2.0 * radius) <= 1e-12 * radius


@given(angles=arc_partitions(max_n=8), radius=radii)
@settings(max_examples=100, deadline=None)
def test_diagonals_match_summed_arcs(angles, radius):
    poly = vertices_from_angles(angles, radius)
    n = poly.n
    for i in range(n - 1):
        for j in range(i + 1, n):
            spanned = math.fsum(angles.arcs[i:j])
            expected = chord_from_angle(min(spanned, math.pi), radius)
            assert abs(diagonal(poly, i, j) - expected) <= 1e-12 * radius


def _outcome(build):
    try:
        return build()
    except Exception as exc:  # compared by class and message below
        return type(exc), str(exc)


@st.composite
def edge_partitions(st_draw):
    """Arc partitions with zero arcs and a last-arc-0 sum near pi + ARC_SUM_TOL."""
    n = st_draw(st.integers(min_value=3, max_value=64))
    weights = st_draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1.0)),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    total = math.fsum(weights)
    if total == 0.0:
        reject()
    arcs = [math.pi * w / total for w in weights]
    if st_draw(st.booleans()):
        arcs[-1] = 0.0
        k = st_draw(st.integers(min_value=0, max_value=n - 3))
        excess = st_draw(st.floats(min_value=-1.1, max_value=1.1)) * ARC_SUM_TOL
        arcs[k] += math.pi + excess - math.fsum(arcs)
    return arcs


edge_radii = st.one_of(
    st.floats(min_value=5e-324, max_value=sys.float_info.max / 2),
    st.sampled_from([2.0**-1022, 2.0**-1030, 2.0**-1035, 5e-324, 1e-312]),
)

_gen = SplitMix64(5)
_STRESSED = fuzz._stressed(random_angles(12, _gen), _gen).arcs
_LAST_ZERO_64 = [math.pi / 62] * 61


# vertices_from_angles skips the per-vertex validator where placement
# proves it; it must reject and accept exactly what the validator does.
@given(arcs=edge_partitions(), radius=edge_radii)
@settings(max_examples=300, deadline=None)
# Last arc 0, sum within ARC_SUM_TOL: the lowest vertex just above and
# just below -VERTEX_TOL * R.
@example(arcs=[*_LAST_ZERO_64, math.pi / 62 + 9.95e-13, 0.0], radius=1.0)
@example(arcs=[*_LAST_ZERO_64, math.pi / 62 + 9.96e-13, 0.0], radius=1.0)
@example(arcs=[1.0, math.pi - 1.0 + 0.9e-12, 0.0], radius=3.0)
@example(arcs=[math.pi / 3] * 3, radius=2.0**-1022)
@example(arcs=[math.pi / 9] * 9, radius=2.0**-1030)
@example(arcs=[math.pi / 9] * 9, radius=2.0**-1035)
@example(arcs=[math.pi / 9] * 9, radius=5e-324)
@example(arcs=[math.pi / 9] * 9, radius=2.0**1000)
@example(arcs=[math.pi / 9] * 9, radius=sys.float_info.max / 2)
@example(arcs=[0.5e-6, math.pi - 1e-6, 0.5e-6], radius=1.0)
@example(arcs=list(_STRESSED), radius=7.0)
@example(arcs=[math.pi / 63] * 63, radius=1.0)
def test_placement_validates_like_the_validator(arcs, radius):
    try:
        angles = CentralAngles(arcs)
    except InvalidAnglesError:
        reject()
    placed = _outcome(lambda: vertices_from_angles(angles, radius))
    pts = references.vertices(angles.arcs, radius)
    validated = _outcome(lambda: InscribedPolygon(radius, pts))
    assert placed == validated


def test_fuzz_polygons_pass_the_validator(monkeypatch):
    built = []

    def place(angles, radius):
        poly = vertices_from_angles(angles, radius)
        built.append(poly)
        return poly

    monkeypatch.setattr(fuzz, "vertices_from_angles", place)
    for seed in range(8):
        run_fuzz(FuzzConfig(trials=150, n_max=64, seed=seed))
    assert len(built) == 8 * 150
    for poly in built:
        assert InscribedPolygon(poly.radius, poly.vertices) == poly


# The package measures every two-point distance with math.dist.  These
# pin it, bit for bit, to the distance written out with math.hypot, on
# each Python the suite runs on.
def _hand(p, q):
    """The distance from p to q written out with math.hypot: the reference."""
    (xi, yi), (xj, yj) = p, q
    return math.hypot(xj - xi, yj - yi)


def _bits(values):
    """Each float's bytes, with every nan alike."""
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


_MAX = sys.float_info.max
_EDGE = (0.0, -0.0, 5e-324, -5e-324, 1.0, _MAX, -_MAX, math.inf, -math.inf, math.nan)


def test_edge_distances_match_the_hand_written_form():
    # max - -max overflows; every other pairing of the values is here too.
    for x0, y0, x1, y1 in product(_EDGE, repeat=4):
        p, q = (x0, y0), (x1, y1)
        pair = SimpleNamespace(vertices=(p, q), n=2)
        want = _bits([_hand(p, q)])
        assert _bits(side_lengths(pair)) == want, (p, q)
        assert _bits([diagonal(pair, 0, 1)]) == want, (p, q)


@given(
    angles=arc_partitions(max_n=24),
    k=st.integers(min_value=-1000, max_value=1000),
    stress=st.none() | st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=200, deadline=None)
@example(angles=CentralAngles(_STRESSED), k=0, stress=None)
@example(angles=CentralAngles([math.pi / 9] * 9), k=-1000, stress=3)
@example(angles=CentralAngles([math.pi / 9] * 9), k=1000, stress=3)
@example(angles=CentralAngles([math.pi / 9] * 9), k=-331, stress=None)
@example(angles=CentralAngles([math.pi / 9] * 9), k=329, stress=None)
def test_distances_match_the_hand_written_form(angles, k, stress):
    if stress is not None:
        angles = fuzz._stressed(angles, SplitMix64(stress))
    poly = vertices_from_angles(angles, 2.0**k)
    pts, n = poly.vertices, poly.n
    want = [_hand(p, q) for p, q in zip(pts, pts[1:])]
    assert _bits(side_lengths(poly)) == _bits(want)
    for i in range(n - 1):
        for j in range(i + 1, n):
            assert _bits([diagonal(poly, i, j)]) == _bits([_hand(pts[i], pts[j])])

    d = _hand(pts[0], pts[-1])
    if not _D_MIN <= d <= _D_MAX:
        with pytest.raises(DomainError):
            _general_identity(poly)
        return
    _, kernel_d, _, _, chords = _general_identity(poly)
    assert _bits([kernel_d]) == _bits([d])
    for m, (first, _, second, _) in enumerate(chords, start=1):
        assert _bits([first]) == _bits([_hand(pts[0], pts[m])])
        assert _bits([second]) == _bits([_hand(pts[m + 1], pts[-1])])
    if n >= 4:
        # The corner's residual from the hand-written |PE|, |PQ|, |QE| and |A1P|.
        p, q, e = pts[-3:]
        pe, pq, qe, a1p = _hand(p, e), _hand(p, q), _hand(q, e), _hand(pts[0], p)
        pe_sq = pe * pe
        rhs = pq * pq + qe * qe + 2.0 * pq * qe * a1p / d
        want = abs(pe_sq - rhs) / pe_sq if pe_sq else 0.0
        assert _bits([corner_identity_residual(poly)]) == _bits([want])


def _package_imports(module) -> set[str]:
    """The package modules ``module``'s source imports, anywhere in it.

    A relative import gives the module's name, an absolute one its full
    ``semichord`` name.
    """
    found = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif node.module.split(".")[0] == "semichord":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "semichord")
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [(geometry, {"errors"}), (identity, {"errors", "geometry"})],
    ids=["geometry", "identity"],
)
def test_coordinate_oracle_stays_independent(module, allowed):
    # geometry and identity are the references the solver, quads and fuzz
    # are tested against, so they must not reach into those modules.
    assert _package_imports(module) <= allowed
