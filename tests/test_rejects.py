"""The library's rejection contract: one table, ``REJECTS``.

Each row is a public call, its arguments, the ``SemichordError`` class
it must raise and the exact message, under a readable id: the call's
name and a label.  ``test_rejects`` checks four things on every row: the
exact class, a code that is the class's own and not the base
``"error"``, the message, and that the message carries no ``nan`` or
``inf`` token.  Range guards are negated comparisons that bound a value
on both sides (``0 < s < inf``), so nan and inf fail them; an input that
is not a real number (a str, None, a complex) gets the same codes.  The
command line's side of the contract is ``test_cli.CONTRACT``.

After the table come a check that ``IndexRangeError`` is also an
``IndexError``, tests that pin inputs which must stay accepted, and two
sweeps that try values of other types at every numeric position
of the public functions: each call returns a finite result or raises a
coded error, and a real number of another type reads as the float.
"""

import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from support import NONFINITE_TOKEN, Draws, outcome
from semichord import (
    CentralAngles,
    ChordSet,
    DomainError,
    FuzzConfig,
    IndexRangeError,
    InscribedPolygon,
    InvalidAnglesError,
    PlacementError,
    SemichordError,
    SplitMix64,
    arc_sum,
    arcs_from_sides,
    chord_from_angle,
    closing_side,
    corner_identity_residual,
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
RIGHT_TRIANGLE = vertices_from_angles(CentralAngles([HALF, HALF]), 1.0)
QUADRILATERAL = vertices_from_angles(CentralAngles([1.0, 1.0, math.pi - 2.0]), 1.0)
QUADRILATERAL_55 = vertices_from_angles(
    CentralAngles(math.radians(t) for t in (55.0, 55.0, 70.0)), 4.0
)
#: The top of the identity's window, and the next length past 2^10 times it.
TOP = 2.0**330
PAST = math.nextafter(2.0**10 * TOP, INF)

ARCS_NOT_REAL = "arcs must be real numbers"
ARCS_NOT_FINITE = "arcs must be finite and sum to pi"
ARCS_NEGATIVE = "arcs must be non-negative"
TWO_POSITIVE = "at least two arcs must be strictly positive"
ARC_RANGE = "arc must lie in [0, pi]"
RADIUS = "radius must be a positive normal float with a finite diameter"
RADIUS_NOT_REAL = "radius must be a real number"
VERTICES_NOT_REAL = "vertices must be pairs of real numbers"
VERTICES_NOT_FINITE = "vertex coordinates must be finite"
ENDPOINTS = "diameter endpoints must sit at (-R, 0) and (R, 0)"
DESCEND = "vertices must descend in polar angle"
SIDES_NOT_REAL = "sides must be real numbers"
SIDES_NOT_FINITE = "all sides must be positive and finite"
CHORDS_NOT_FINITE = "sides must be non-negative and finite"
D_NOT_REAL = "diameter must be a real number"
D_NOT_FINITE = "diameter must be positive and finite"
NEED_TWO_SIDES = "need at least 2 sides to form a polygon on the semicircle"
NEED_ONE_SIDE = "need at least one side"
NO_FINITE_DIAMETER = "sides (1.7e+308, 1.7e+308) have no finite diameter"
LENGTHS_NOT_REAL = "lengths must be real numbers"
WINDOW = "diameter is outside the range the identity is evaluated in"
HEADROOM_D = "a must be at most 2^10 d"
HEADROOM_R = "a must be at most 2^11 R"
SHORT_CHORDS = "chords must be positive and shorter than the diameter"
RADIUS_RANGE = "need radius_min <= radius_max, with diameters in the identity window"
RADII_NOT_REAL = "radius_min and radius_max must be real numbers"
N_RANGE = "need 3 <= n_min <= n_max <= 64"
TOLERANCE = "tolerance_rel must be positive and finite"
TOLERANCE_NOT_REAL = "tolerance_rel must be a real number"

#: Radii every radius entry point rejects: not finite, a diameter 2R that
#: overflows, not positive, or not a real number.  A real that no float
#: holds reads as nan.
BAD_RADII = [
    ("nan", NAN, RADIUS),
    ("inf", INF, RADIUS),
    ("-inf", -INF, RADIUS),
    ("1e308", 1e308, RADIUS),
    ("0", 0.0, RADIUS),
    ("-1", -1.0, RADIUS),
    ("str", "x", RADIUS_NOT_REAL),
    ("None", None, RADIUS_NOT_REAL),
    ("complex", 1j, RADIUS_NOT_REAL),
    ("Decimal-sNaN", Decimal("sNaN"), RADIUS),
    ("10**400", 10**400, RADIUS),
]
#: Below the smallest normal float R*cos and R*sin lose the precision the
#: on-circle check needs, so no radius entry point takes one.
SUBNORMAL_RADII = [
    ("2**-1023", 2.0**-1023, RADIUS),
    ("2**-1030", 2.0**-1030, RADIUS),
    ("5e-324", 5e-324, RADIUS),
]
#: Each closed form's lengths by name; "_" is its diameter d or radius R.
CLOSED_FORMS = [
    (rhs_quadrilateral, "abc_"),
    (rhs_pentagon, "abcd_xy"),
    (rhs_hexagon, "abcde_xyzu"),
]
BAD_LENGTHS = [("nan", NAN), ("inf", INF), ("-1", -1.0), ("Decimal-NaN", Decimal("NaN"))]
BAD_SIDES = [("nan", NAN), ("inf", INF), ("-inf", -INF), ("0", 0.0), ("-1", -1.0)]
GOOD_SIDES = [
    ("up2", [1.0, 2.0]),
    ("down2", [2.0, 1.0]),
    ("up4", [1.0, 2.0, 3.0, 4.0]),
    ("down4", [4.0, 3.0, 2.0, 1.0]),
]


def _put(values, position, value):
    """``values`` as a tuple with ``value`` at ``position``."""
    return (*values[:position], value, *values[position + 1 :])


def _on_circle(radius, *angles):
    """The points at these polar angles on the circle of ``radius``."""
    return tuple((radius * math.cos(t), radius * math.sin(t)) for t in angles)


def _rows(call, error, cases, name=None):
    """A row for each (label, args, message) case of ``call`` raising ``error``.

    The id is ``name``, by default the call's name or a partial's
    function's, then the label.
    """
    name = name or getattr(call, "func", call).__qualname__
    return [(f"{name}-{label}", call, args, error, message) for label, args, message in cases]


#: (id, call, args, error class, message): each call must raise exactly
#: that class, with its own code, and exactly that message.
REJECTS = [
    *_rows(chord_from_angle, DomainError, [
        ("arc-negative", (-0.1, 1.0), ARC_RANGE),
        ("arc-past-pi", (math.pi + 0.1, 1.0), ARC_RANGE),
        ("arc-10", (10.0, 1.0), ARC_RANGE),
        ("arc-nan", (NAN, 1.0), ARC_RANGE),
        ("arc-inf", (INF, 1.0), ARC_RANGE),
        ("arc-str", ("a", 1.0), "arc must be a real number"),
        *[
            (f"radius-{label}", (HALF, r), message)
            for label, r, message in BAD_RADII + SUBNORMAL_RADII
        ],
    ]),
    *_rows(vertices_from_angles, DomainError, [
        (f"radius-{label}", (CentralAngles([HALF, HALF]), r), message)
        for label, r, message in BAD_RADII + SUBNORMAL_RADII
    ]),
    # A subnormal radius's polygon sits on its own circle: only the radius is wrong.
    *_rows(InscribedPolygon, DomainError, [
        *[(f"radius-{label}", (r, TRIANGLE), message) for label, r, message in BAD_RADII],
        *[
            (f"radius-{label}", (r, _on_circle(r, math.pi, HALF, 0.0)), message)
            for label, r, message in SUBNORMAL_RADII
        ],
    ]),
    # Arcs it did not build itself go through the validator.
    *_rows(vertices_from_angles, InvalidAnglesError, [
        ("unvalidated-arcs", (SimpleNamespace(arcs=(2.0, -0.5, math.pi - 1.5)), 1.0), DESCEND),
    ]),
    # Which message wins must not depend on where a nan sits among the
    # arcs: a negative arc is reported before a non-finite sum.
    *_rows(CentralAngles, InvalidAnglesError, [
        ("nan-first", ([NAN, HALF, HALF],), ARCS_NOT_FINITE),
        ("nan-last", ([HALF, HALF, NAN],), ARCS_NOT_FINITE),
        ("nan-1-pi", ([NAN, 1.0, math.pi],), ARCS_NOT_FINITE),
        ("inf", ([INF, HALF],), ARCS_NOT_FINITE),
        ("1-inf", ([1.0, INF],), ARCS_NOT_FINITE),
        ("inf-nan", ([INF, NAN],), ARCS_NOT_FINITE),
        ("sum-overflows", ([1e308, 1e308],), ARCS_NOT_FINITE),
        ("10**400", ([10**400, HALF],), ARCS_NOT_FINITE),
        ("str", (["x", HALF, HALF],), ARCS_NOT_REAL),
        ("None", ([None, HALF, HALF],), ARCS_NOT_REAL),
        ("complex", ([1j, HALF, HALF],), ARCS_NOT_REAL),
        ("digits", ("12",), ARCS_NOT_REAL),
        ("negative", ([-0.1, math.pi + 0.1],), ARCS_NEGATIVE),
        ("nan-negative", ([NAN, -1.0, math.pi],), ARCS_NEGATIVE),
        ("negative-nan", ([-1.0, NAN, math.pi],), ARCS_NEGATIVE),
        ("inf--inf", ([INF, -INF, 1.0],), ARCS_NEGATIVE),
        ("-inf-inf", ([-INF, INF, 1.0],), ARCS_NEGATIVE),
        ("overflow-negative", ([1e308, 1e308, -1e308],), ARCS_NEGATIVE),
        ("sum-2", ([1.0, 1.0],), "arcs must sum to pi, got 2.0 (off by -1.142e+00)"),
        ("one-arc", ([math.pi],), "need at least 2 arcs (3 vertices)"),
        # A single positive arc collapses the figure to a segment.
        ("pi-0", ([math.pi, 0.0],), TWO_POSITIVE),
        ("0-pi", ([0.0, math.pi],), TWO_POSITIVE),
        ("-0-pi-0", ([-0.0, math.pi, 0.0],), TWO_POSITIVE),
    ]),
    *_rows(InscribedPolygon, InvalidAnglesError, [
        *[
            (f"vertex-{label}", (1.0, ((-1.0, 0.0), vertex, (1.0, 0.0))), message)
            for label, vertex, message in [
                ("nan-x", (NAN, 1.0), VERTICES_NOT_FINITE),
                ("nan-y", (0.0, NAN), VERTICES_NOT_FINITE),
                ("inf-x", (INF, 1.0), VERTICES_NOT_FINITE),
                ("inf-y", (0.0, INF), VERTICES_NOT_FINITE),
                ("10**400", (0.0, 10**400), VERTICES_NOT_FINITE),
                ("str", ("x", 1.0), VERTICES_NOT_REAL),
                ("None-y", (0.0, None), VERTICES_NOT_REAL),
                ("complex", (1j, 1.0), VERTICES_NOT_REAL),
                ("one-coordinate", (0.0,), VERTICES_NOT_REAL),
                ("three-coordinates", (0.0, 1.0, 0.0), VERTICES_NOT_REAL),
                ("None", None, VERTICES_NOT_REAL),
                ("off-circle", (0.5, 0.5), "vertex (0.5, 0.5) is off the circle"),
                ("below-diameter", (0.0, -1.0), "vertex (0.0, -1.0) is below the diameter"),
            ]
        ],
        *[
            (f"endpoint-{label}", (1.0, ((-1.0, 0.0), (0.0, 1.0), end)), ENDPOINTS)
            for label, end in [
                ("nan-x", (NAN, 0.0)),
                ("nan-y", (1.0, NAN)),
                ("inf-x", (INF, 0.0)),
            ]
        ],
        ("endpoints-swapped", (1.0, ((0.0, 1.0), (-1.0, 0.0), (1.0, 0.0))), ENDPOINTS),
        ("endpoint-digits", (1.0, ((-1.0, 0.0), (0.0, 1.0), "10")), VERTICES_NOT_REAL),
        ("vertices-None", (1.0, None), VERTICES_NOT_REAL),
        ("vertices-int", (1.0, 5), VERTICES_NOT_REAL),
        (
            "two-vertices",
            (1.0, ((-1.0, 0.0), (1.0, 0.0))),
            "polygon needs at least 3 vertices",
        ),
        # Polar angles that ascend: in the middle, and by 1e-6 next to
        # either end of the diameter.
        *[
            (f"ascending-{label}", (1.0, ((-1.0, 0.0), *pair, (1.0, 0.0))), DESCEND)
            for label, pair in [
                ("middle", _on_circle(1.0, 2.0, 2.5)),
                ("left-end", _on_circle(1.0, math.pi - 2e-6, math.pi - 1e-6)),
                ("right-end", _on_circle(1.0, 1e-6, 2e-6)),
            ]
        ],
        (
            "huge-radius-off-circle",
            (2.0**600, ((-(2.0**600), 0.0), (0.0, 1.0), (2.0**600, 0.0))),
            "vertex (0.0, 1.0) is off the circle",
        ),
    ]),
    *_rows(diagonal, IndexRangeError, [
        (f"{i},{j}", (RIGHT_TRIANGLE, i, j), f"need 0 <= i < j < 3, got i={i}, j={j}")
        for i, j in [(2, 2), (2, 1), (-1, 2), (0, 3)]
    ]),
    *_rows(diagonal, DomainError, [
        ("float", (QUADRILATERAL, 0.0, 2), "vertex indices must be integers"),
    ]),
    *_rows(ChordSet, DomainError, [
        ("beyond-diameter", ((3.0,), 2.0), "a chord cannot exceed the diameter"),
        ("negative", ((-1.0, 2.0), 2.0), CHORDS_NOT_FINITE),
        *[
            (f"{label}-at-{k}", (_put((1.0, 1.0), k, bad), 2.0), CHORDS_NOT_FINITE)
            for label, bad in [("nan", NAN), ("inf", INF), ("-1", -1.0)]
            for k in (0, 1)
        ],
        ("d-0", ((1.0,), 0.0), D_NOT_FINITE),
        ("d-nan", ((1.0, 1.0), NAN), D_NOT_FINITE),
        ("d-inf", ((1.0, 1.0), INF), D_NOT_FINITE),
        ("str", (("a",), 1.0), SIDES_NOT_REAL),
        ("digits", ("11", 2.0), SIDES_NOT_REAL),
        ("d-str", ((1.0,), "x"), D_NOT_REAL),
    ]),
    *_rows(nested_quadrilateral_check, IndexRangeError, [
        (f"k{k}", (QUADRILATERAL_55, k), f"need 1 <= k <= 1, got k={k}") for k in (0, 2, -1)
    ]),
    *_rows(nested_quadrilateral_check, DomainError, [
        ("k-float", (QUADRILATERAL, 1.5), "k must be an integer"),
        ("k-str", (QUADRILATERAL, "1"), "k must be an integer"),
    ]),
    *_rows(corner_identity_residual, IndexRangeError, [
        ("triangle", (RIGHT_TRIANGLE,), "corner identity needs at least 4 vertices"),
    ]),
    # The closed forms.  Inside the float range but outside the window,
    # their cross terms, products of three chords, would overflow to inf;
    # inside it, so would lengths far beyond d, or past the 2^10 d headroom.
    *_rows(rhs_quadrilateral, DomainError, [
        ("nan-a-d2", (NAN, 1.0, 1.0, 2.0), "a must be non-negative and finite"),
        ("inf-a-d2", (INF, 1.0, 1.0, 2.0), "a must be non-negative and finite"),
        ("-1-a-d2", (-1.0, 1.0, 1.0, 2.0), "a must be non-negative and finite"),
        ("-inf-c-d2", (1.0, 1.0, -INF, 2.0), "c must be non-negative and finite"),
        ("0-d", (1.0, 1.0, 1.0, 0.0), WINDOW),
        ("outside-window", (1e200, 1e200, 1e200, 2e200), WINDOW),
        ("far-beyond-d", (1e200, 1e200, 1e200, 1.0), HEADROOM_D),
        ("past-the-headroom", (PAST,) * 3 + (TOP,), HEADROOM_D),
        ("str", ("a", 1, 1, 2), LENGTHS_NOT_REAL),
        ("None-d", (1, 1, 1, None), LENGTHS_NOT_REAL),
        # A Decimal compares with floats but cannot be added to one.
        ("Decimal-a", (Decimal(1), 1.0, 1.0, 2.0), LENGTHS_NOT_REAL),
        ("Decimal-d", (1.0, 1.0, 1.0, Decimal(2)), LENGTHS_NOT_REAL),
    ]),
    *_rows(rhs_pentagon, DomainError, [
        ("0-R", (1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0), WINDOW),
        ("outside-window", (1e200,) * 7, WINDOW),
        ("far-beyond-R", (1e200, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0), HEADROOM_R),
        ("past-the-headroom", (PAST,) * 4 + (TOP / 2,) + (PAST,) * 2, HEADROOM_R),
        ("None", (None, 1, 1, 1, 1, 1, 1), LENGTHS_NOT_REAL),
        ("Decimal-a", (Decimal(1),) + (1.0,) * 6, LENGTHS_NOT_REAL),
    ]),
    *_rows(rhs_hexagon, DomainError, [
        ("-2-R", (1, 1, 1, 1, 1, -2.0, 1, 1, 1, 1), WINDOW),
        ("outside-window", (1e200,) * 10, WINDOW),
        ("far-beyond-R", (1e160,) * 5 + (1.0,) + (1e160,) * 4, HEADROOM_R),
        ("past-the-headroom", (PAST,) * 5 + (TOP / 2,) + (PAST,) * 4, HEADROOM_R),
        ("Decimal-u", (1.0,) * 9 + (Decimal(1),), LENGTHS_NOT_REAL),
    ]),
    # A bad value at one length alone, then at it and every later one
    # but "_": the message names the first bad length.  "_" has its own
    # check.
    *[
        row
        for form, names in CLOSED_FORMS
        for row in _rows(form, DomainError, [
            (
                f"{label}-{names[first : last + 1]}",
                tuple(
                    bad if first <= k <= last and (k == first or n != "_") else 1.0
                    for k, n in enumerate(names)
                ),
                WINDOW if name == "_" else f"{name} must be non-negative and finite",
            )
            for label, bad in BAD_LENGTHS
            for first, name in enumerate(names)
            for last in dict.fromkeys(
                [first, first if name == "_" else len(names.rstrip("_")) - 1]
            )
        ])
    ],
    # The root finders read, count and check their sides in order: real
    # numbers, at least two sides, then each side positive and finite.
    # A bad side goes at every position of 3- and 5-side lists, the good
    # sides ascending and descending: min and max pass over a nan that is
    # not first, as in [1.0, nan, 2.0].
    *[
        row
        for solve in (solve_diameter, inscribe_from_sides)
        for row in _rows(solve, DomainError, [
            ("reads-empty", ([],), NEED_TWO_SIDES),
            ("reads-0", ([0.0],), NEED_TWO_SIDES),
            ("reads-nan", ([NAN],), NEED_TWO_SIDES),
            ("reads-str", (["x"],), SIDES_NOT_REAL),
            ("reads-1-0-str", ([1.0, 0.0, "x"],), SIDES_NOT_REAL),
            ("reads-digits", ("ab",), SIDES_NOT_REAL),
            ("None", ([None, 1],), SIDES_NOT_REAL),
            *[
                (f"{label}-at-{k}-of-{order}", (sides,), SIDES_NOT_FINITE)
                for label, bad in BAD_SIDES
                for order, good in GOOD_SIDES
                for k in range(len(good) + 1)
                for sides in [good[:k] + [bad] + good[k:]]
            ],
            # The one overflow rule of both root finders: a later check,
            # such as a diameter check on d, would raise another message.
            ("no-finite-diameter", ([1.7e308, 1.7e308],), NO_FINITE_DIAMETER),
        ])
    ],
    # An iterator is read once, so each call makes its own.
    *[
        row
        for solve in (solve_diameter, inscribe_from_sides)
        for row in _rows(
            lambda sides, solve=solve: solve(iter(sides)),
            DomainError,
            [("reads-one-shot-3", ([3.0],), NEED_TWO_SIDES)],
            name=solve.__name__,
        )
    ],
    *_rows(solve_diameter, DomainError, [
        ("nan-1", ([NAN, 1.0],), SIDES_NOT_FINITE),
        ("inf-1", ([INF, 1.0],), SIDES_NOT_FINITE),
        ("1--inf", ([1.0, -INF],), SIDES_NOT_FINITE),
        ("1-1-nan", ([1.0, 1.0, NAN],), SIDES_NOT_FINITE),
        ("nan-nan", ([NAN, NAN],), SIDES_NOT_FINITE),
        ("3-0", ([3.0, 0.0],), SIDES_NOT_FINITE),
        ("3--1", ([3.0, -1.0],), SIDES_NOT_FINITE),
        ("one-side", ([3.0],), NEED_TWO_SIDES),
        ("str", (["a", 1],), SIDES_NOT_REAL),
        # Real, but no float holds it: read as nan, so the range message.
        ("10**400", ([10**400, 1],), SIDES_NOT_FINITE),
        # A str or bytes is one value, not a sequence of digits.
        ("digits", ("34",), SIDES_NOT_REAL),
        ("bytes", (b"34",), SIDES_NOT_REAL),
        # d rounds to the largest float, where g at m/d is still positive:
        # no finite float is a high end, and the steps return inf.
        (
            "no-finite-bracket-end",
            ([1.7976931348623157e308, 1e300],),
            "sides (1.7976931348623157e+308, 1e+300) have no finite diameter",
        ),
    ]),
    *_rows(inscribe_from_sides, DomainError, [
        ("1-nan", ([1.0, NAN],), SIDES_NOT_FINITE),
        ("nan-1", ([NAN, 1.0],), SIDES_NOT_FINITE),
        ("1-inf", ([1.0, INF],), SIDES_NOT_FINITE),
        ("1-0", ([1.0, 0.0],), SIDES_NOT_FINITE),
        ("1--1", ([1.0, -1.0],), SIDES_NOT_FINITE),
        ("bytearray", (bytearray(b"34"),), SIDES_NOT_REAL),
        # The diameter solves at these scales, but its radius is subnormal.
        ("5e-324", ([5e-324, 5e-324],), RADIUS),
        ("1e-310", ([1e-310, 1e-310],), RADIUS),
    ]),
    # An arc that underflows to 0 leaves one positive arc.
    *_rows(inscribe_from_sides, InvalidAnglesError, [
        ("underflowed-arc-first", ([5e-324, 4.0],), TWO_POSITIVE),
        ("underflowed-arc-last", ([4.0, 5e-324],), TWO_POSITIVE),
    ]),
    *_rows(arc_sum, DomainError, [
        ("d-nan", (NAN, [1.0]), D_NOT_FINITE),
        ("d-inf", (INF, [1.0]), D_NOT_FINITE),
        ("d--inf", (-INF, [1.0]), D_NOT_FINITE),
        ("d-0", (0.0, [1.0]), D_NOT_FINITE),
        ("side-nan", (1.0, [NAN]), CHORDS_NOT_FINITE),
        ("side-inf", (1.0, [0.5, INF]), CHORDS_NOT_FINITE),
        ("side-negative", (5.0, [3.0, -4.0]), CHORDS_NOT_FINITE),
        ("no-side-d2", (2.0, []), NEED_ONE_SIDE),
        ("no-side-d5", (5.0, []), NEED_ONE_SIDE),
        ("side-beyond-d", (3.9, [3.0, 4.0]), "side 4.0 exceeds diameter 3.9"),
        ("d-None", (None, [1.0]), D_NOT_REAL),
        ("side-str", (2.0, ["a"]), SIDES_NOT_REAL),
        ("digits", (2.0, "11"), SIDES_NOT_REAL),
        ("d-10**400", (10**400, [1.0]), D_NOT_FINITE),
        ("d-Decimal-NaN", (Decimal("NaN"), [1.0]), D_NOT_FINITE),
        ("d-Decimal-sNaN", (Decimal("sNaN"), [1.0]), D_NOT_FINITE),
        # Past the range test, but inf or 0 once converted to a float.
        ("d-Decimal-1e400", (Decimal("1e400"), [1.0]), D_NOT_FINITE),
        ("d-Decimal-1e-400", (Decimal("1e-400"), [1.0]), D_NOT_FINITE),
        ("d-1/10**400", (Fraction(1, 10**400), [1.0]), D_NOT_FINITE),
    ]),
    *_rows(arcs_from_sides, DomainError, [
        ("d-nan", ([1.0, 1.0], NAN), D_NOT_FINITE),
        ("d-inf", ([1.0, 1.0], INF), D_NOT_FINITE),
        ("d-0", ([1.0, 1.0], 0.0), D_NOT_FINITE),
        ("no-side", ([], 2.0), NEED_ONE_SIDE),
        ("nan-1", ([NAN, 1.0], 2.0), SIDES_NOT_FINITE),
        ("1-nan", ([1.0, NAN], 2.0), SIDES_NOT_FINITE),
        ("inf-1", ([INF, 1.0], 2.0), SIDES_NOT_FINITE),
        ("1-inf", ([1.0, INF], 2.0), SIDES_NOT_FINITE),
        ("1--inf", ([1.0, -INF], 2.0), SIDES_NOT_FINITE),
        ("-1-1", ([-1.0, 1.0], 2.0), SIDES_NOT_FINITE),
        ("1-0", ([1.0, 0.0], 2.0), SIDES_NOT_FINITE),
        ("side-beyond-d", ([3.0, 4.0], 3.5), "side 4.0 exceeds diameter 3.5"),
        ("d-str", ([1.0, 1.0], "x"), D_NOT_REAL),
        ("d-Decimal-NaN", ([1.0, 1.0], Decimal("NaN")), D_NOT_FINITE),
        ("d-Decimal-1e400", ([1.0, 1.0], Decimal("1e400")), D_NOT_FINITE),
        ("side-None", ([None, 1.0], 2.0), SIDES_NOT_REAL),
        ("digits", ("11", 2.0), SIDES_NOT_REAL),
    ]),
    *_rows(diameter_cubic, DomainError, [
        *[
            (f"{label}-at-{k}", _put((1.0, 2.0, 3.0), k, bad), SIDES_NOT_FINITE)
            for label, bad in BAD_SIDES + [("-0", -0.0)]
            for k in range(3)
        ],
        ("0-1-1", (0.0, 1.0, 1.0), SIDES_NOT_FINITE),
        ("1--2-1", (1.0, -2.0, 1.0), SIDES_NOT_FINITE),
        ("str", ("a", 1, 1), SIDES_NOT_REAL),
        ("None", (None, 1, 1), SIDES_NOT_REAL),
        ("10**400", (10**400, 1, 1), SIDES_NOT_FINITE),
        # Every side is read before any is range-checked.
        ("0-str-1", (0.0, "x", 1.0), SIDES_NOT_REAL),
        ("nan--1-2", (NAN, -1, 2), SIDES_NOT_FINITE),
        (
            "no-finite-diameter",
            (1e308,) * 3,
            "sides (1e+308, 1e+308, 1e+308) have no finite diameter",
        ),
    ]),
    # A real that no float holds reads as nan: a signaling NaN gets the
    # quiet NaN's message.
    *[
        row
        for kind in ("NaN", "sNaN")
        for row in [
            *_rows(solve_diameter, DomainError, [
                (f"Decimal-{kind}-first", ([Decimal(kind), 1.0],), SIDES_NOT_FINITE),
                (f"Decimal-{kind}-second", ([1.0, Decimal(kind)],), SIDES_NOT_FINITE),
            ]),
            *_rows(diameter_cubic, DomainError, [
                (f"Decimal-{kind}-at-{k}", _put((1.0,) * 3, k, Decimal(kind)), SIDES_NOT_FINITE)
                for k in range(3)
            ]),
            *_rows(ChordSet, DomainError, [
                (f"Decimal-{kind}-first", ((Decimal(kind), 1.0), 2.0), CHORDS_NOT_FINITE),
                (f"Decimal-{kind}-second", ((1.0, Decimal(kind)), 2.0), CHORDS_NOT_FINITE),
                (f"Decimal-{kind}-d", ((1.0, 1.0), Decimal(kind)), D_NOT_FINITE),
            ]),
        ]
    ],
    *_rows(closing_side, DomainError, [
        ("d-nan", (1.0, 1.0, NAN), D_NOT_FINITE),
        ("d-inf", (1.0, 1.0, INF), D_NOT_FINITE),
        ("d--inf", (1.0, 1.0, -INF), D_NOT_FINITE),
        ("d-0", (1.0, 1.0, 0.0), D_NOT_FINITE),
        ("a-is-d", (5.0, 1.0, 5.0), SHORT_CHORDS),
        ("b-is-d", (1.0, 5.0, 5.0), SHORT_CHORDS),
        ("a-0", (0.0, 1.0, 5.0), SHORT_CHORDS),
        ("d-str", (1.0, 1.0, "x"), D_NOT_REAL),
        ("b-None", (1.0, None, 2.0), SIDES_NOT_REAL),
        ("subnormal-radius", (1e-310, 1e-310, 3e-310), RADIUS),
    ]),
    # The binary 0.6 and 0.8 have squares summing to 1 + 4.4e-17: the
    # overshoot is decided exactly on the float inputs.
    *_rows(closing_side, PlacementError, [
        (
            "overshoot",
            (4.9, 4.9, 5.0),
            "chords 4.9 and 4.9 overshoot the semicircle of diameter 5.0",
        ),
        (
            "overshoot-0.6-0.8",
            (0.6, 0.8, 1.0),
            "chords 0.6 and 0.8 overshoot the semicircle of diameter 1.0",
        ),
    ]),
    *_rows(enumerate_incongruent_quads, DomainError, [
        ("0", (1.0, 0.0, 2.0), SIDES_NOT_FINITE),
        ("None", (None, 1, 1), SIDES_NOT_REAL),
    ]),
    # Radii whose diameters 2R leave the identity window 2^-330..2^330 are
    # out of range.  A bool is an int, but not a count or a seed.
    *[
        row
        for label, kwargs, message in [
            ("trials-0", {"trials": 0}, "trials must be at least 1"),
            ("trials-float", {"trials": 1e4}, "trials must be an integer"),
            ("trials-bool", {"trials": True}, "trials must be an integer"),
            ("n_min-2", {"n_min": 2}, N_RANGE),
            ("n_max-65", {"n_max": 65}, N_RANGE),
            ("n_min-above-n_max", {"n_min": 10, "n_max": 5}, N_RANGE),
            ("n_min-float", {"n_min": 3.0}, "n_min must be an integer"),
            ("n_max-float", {"n_max": 12.0}, "n_max must be an integer"),
            ("radius_min-0", {"radius_min": 0.0}, RADIUS_RANGE),
            ("radius_min-nan", {"radius_min": NAN}, RADIUS_RANGE),
            ("radius_min-2**-332", {"radius_min": 2.0**-332}, RADIUS_RANGE),
            ("radius_min-above-max", {"radius_min": 2.0, "radius_max": 1.0}, RADIUS_RANGE),
            ("radius_max-inf", {"radius_max": INF}, RADIUS_RANGE),
            ("radius_max-1e120", {"radius_max": 1e120}, RADIUS_RANGE),
            ("radius_max-2**330", {"radius_max": 2.0**330}, RADIUS_RANGE),
            ("radius_min-str", {"radius_min": "a"}, RADII_NOT_REAL),
            ("radius_min-None", {"radius_min": None}, RADII_NOT_REAL),
            ("seed-float", {"seed": 1.5}, "seed must be an integer"),
            ("seed-bool", {"seed": False}, "seed must be an integer"),
            ("tolerance_rel-0", {"tolerance_rel": 0.0}, TOLERANCE),
            ("tolerance_rel-nan", {"tolerance_rel": NAN}, TOLERANCE),
            ("tolerance_rel-inf", {"tolerance_rel": INF}, TOLERANCE),
            ("tolerance_rel-None", {"tolerance_rel": None}, TOLERANCE_NOT_REAL),
        ]
        for row in _rows(partial(FuzzConfig, **kwargs), DomainError, [(label, (), message)])
    ],
    *_rows(random_angles, DomainError, [
        ("n-float", (4.0, SplitMix64(0)), "n must be an integer"),
        ("n-bool", (True, SplitMix64(0)), "n must be an integer"),
    ]),
    # Draws without a finite positive total; subnormal draws rescale to
    # arcs that sum to 3.  Draws are used up, so each call makes its own.
    *_rows(lambda n, floats: random_angles(n, Draws(floats)), InvalidAnglesError, [
        *[
            (f"draws-{label}", (len(draws) + 1, draws), ARCS_NOT_FINITE)
            for label, draws in [
                ("zero", [0.0, 0.0]),
                ("zero-sum", [-1.0, 1.0]),
                ("overflow", [1e308, 1e308]),
                ("inf-inf", [-INF, INF]),
                ("inf", [INF, 1.0]),
            ]
        ],
        (
            "draws-subnormal",
            (3, [5e-324, 5e-324]),
            "arcs must sum to pi, got 3.0 (off by -1.416e-01)",
        ),
    ], name="random_angles"),
    *_rows(SplitMix64, DomainError, [
        ("state-float", (1.5,), "state must be an integer"),
        ("state-bool", (True,), "state must be an integer"),
    ]),
    *_rows(SplitMix64(1).next_below, DomainError, [
        ("-3", (-3,), "n must be at least 1"),
        ("0", (0,), "n must be at least 1"),
    ]),
    *_rows(SplitMix64.for_trial, DomainError, [
        ("seed-float", (1.5, 0), "seed must be an integer"),
        ("seed-bool", (False, 0), "seed must be an integer"),
        ("trial-float", (1, 2.0), "trial must be an integer"),
        ("trial-bool", (1, True), "trial must be an integer"),
    ]),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, args, error, message", [row[1:] for row in REJECTS], ids=[row[0] for row in REJECTS]
)
def test_rejects(call, args, error, message):
    """Exactly the row's class, with that class's own code and the row's message."""
    assert outcome(call, *args) == (error, error.code, message)
    assert error.code != SemichordError.code
    assert not NONFINITE_TOKEN.search(message)


def test_index_range_error_is_an_index_error():
    assert issubclass(IndexRangeError, IndexError)


# float() reads both, so they are radii like any other real number.
@pytest.mark.parametrize("radius", ["1.0", Decimal("1")])
def test_numeric_str_and_decimal_radius_read_as_the_float(radius):
    angles = CentralAngles([HALF, HALF])
    assert vertices_from_angles(angles, radius) == vertices_from_angles(angles, 1.0)
    assert InscribedPolygon(radius, TRIANGLE) == InscribedPolygon(1.0, TRIANGLE)
    assert chord_from_angle(HALF, radius) == chord_from_angle(HALF, 1.0)


def test_smallest_normal_radius_accepted():
    radius = 2.0**-1022
    poly = vertices_from_angles(CentralAngles([HALF, HALF]), radius)
    assert InscribedPolygon(radius, poly.vertices) == poly
    assert chord_from_angle(math.pi, radius) == 2.0 * radius


def test_largest_radius_with_a_finite_diameter_accepted():
    radius = math.nextafter(2.0**1023, 0.0)
    poly = vertices_from_angles(CentralAngles([HALF, HALF]), radius)
    assert chord_from_angle(math.pi, radius) == 2.0 * radius
    assert poly.radius == radius


def test_real_numbers_of_other_types_stay_accepted():
    assert solve_diameter(["3", 4]) == solve_diameter([3.0, 4.0])
    assert inscribe_from_sides([Fraction(3), 4]) == inscribe_from_sides([3.0, 4.0])
    assert arc_sum(5, ["3", 4]) == arc_sum(5.0, [3.0, 4.0])
    assert arcs_from_sides([3, Decimal(4)], Fraction(5)) == arcs_from_sides([3.0, 4.0], 5.0)
    assert arcs_from_sides([1.0, 1.0], "2") == arcs_from_sides([1.0, 1.0], 2.0)
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


def test_decimal_radius_gives_the_float_report():
    config = FuzzConfig(radius_min=Decimal("0.5"), trials=3)
    assert config == FuzzConfig(radius_min=0.5, trials=3)
    assert run_fuzz(config) == run_fuzz(FuzzConfig(radius_min=0.5, trials=3))


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
def test_closed_forms_keep_exact_arithmetic(call, args, expected):
    result = call(*args)
    assert result == expected
    assert type(result) is type(expected)


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
