"""Squared-diameter identities for semicircle-inscribed polygons.

For a polygon whose longest side is the diameter d, the square of the
diameter equals the sum of the squared short sides plus a chain of
cross terms, each built from two fan diagonals and the side between
them:

    d^2 = sum(sides^2) + 2 * sum_k (D1_k * s_k * D2_k) / d

where, numbering vertices 1..n along the arc, D1_k is the chord from
vertex 1 to vertex k+1, s_k the side from k+1 to k+2, and D2_k the
chord from vertex k+2 to vertex n.  Closed forms for 4, 5, and 6
vertices are provided alongside the general evaluator; diagonals are
always measured from coordinates here, never solved from sides, so the
evaluators stay independent of the diameter solver.

Each relation of the proof has one home: ``_quadrilateral`` is the
4-vertex relation on every nested quadrilateral (``rhs_quadrilateral``
checks its inputs, then calls it), and ``_check_residuals`` forms the
law-of-cosines step at the last corner, which
``corner_identity_residual`` reads from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, IndexRangeError
from .geometry import InscribedPolygon, _integer, diagonal, side_lengths

#: Diameters the identities are evaluated at.  Each cross term is a
#: product of three chords no longer than d, so below 2^330 it stays
#: under the float maximum 2^1024, and above 2^-330 it keeps 2^32 of
#: headroom over the smallest normal float 2^-1022 for short chords.
_D_MIN, _D_MAX = 2.0**-330, 2.0**330
_OUT_OF_WINDOW = "diameter is outside the range the identity is evaluated in"

#: Longest length a closed form accepts, as a multiple of the diameter.
#: A chord is at most d; the rest is headroom, since a length multiplied
#: by a zero side may be anything.  At 2^10 d the sum of three products
#: of three lengths stays below 2^1024 at d = 2^330, so no closed form
#: overflows inside the window; at 2^11 d they would.
_LENGTH_HEADROOM = 2**10


@dataclass(frozen=True, slots=True)
class CrossTerm:
    """One summand of the cross-term chain (1-indexed by k)."""

    k: int
    first_diagonal: float
    side: float
    second_diagonal: float
    term_value: float


@dataclass(frozen=True, slots=True)
class IdentityReport:
    """Both sides of the identity plus residuals, fully recomputable."""

    n: int
    lhs: float
    sum_of_squares: float
    cross_terms: tuple[CrossTerm, ...]
    rhs: float
    residual_abs: float
    residual_rel: float


def _check_lengths(names: str, bound: str, scale: int, unit, *values) -> None:
    """Raise unless d = scale * unit is in the window and values lie in [0, 2^10 d].

    ``unit`` is the diameter (``scale`` 1) or the radius (``scale`` 2).
    A bad value is named by its letter; ``bound`` names 2^10 d in the
    message, e.g. "2^11 R".  A ``Decimal`` NaN gets a float nan's message.
    Ints, ``Fraction``s and ``Decimal``s keep their exact arithmetic, but a
    ``Decimal`` beside a float or ``Fraction`` is not a real number here,
    since the closed form could not add them.
    """
    name = None  # the length under test, once the window has passed
    try:
        # scale is a power of two, so this is the window on d without
        # forming d, which an int such as 10**400 would overflow.
        if not _D_MIN / scale <= unit <= _D_MAX / scale:
            raise DomainError(_OUT_OF_WINDOW)
        # Int factors keep the limit, and the sum, of unit's type.
        limit = total = _LENGTH_HEADROOM * scale * unit
        for name, value in zip(names, values):
            if not 0.0 <= value < math.inf:
                raise DomainError(f"{name} must be non-negative and finite")
            if not value <= limit:
                raise DomainError(f"{name} must be at most {bound}")
            total += value  # a Decimal beside a float or Fraction: TypeError
    except TypeError:  # None, "a", 1j, a Decimal beside a float
        raise DomainError("lengths must be real numbers") from None
    except ArithmeticError:  # a Decimal NaN has no order
        raise DomainError(
            _OUT_OF_WINDOW if name is None else f"{name} must be non-negative and finite"
        ) from None


def rhs_quadrilateral(a: float, b: float, c: float, d: float) -> float:
    """Right side of the 4-vertex identity: a^2 + b^2 + c^2 + 2abc/d.

    The exact value is symmetric in (a, b, c); the float is not, since
    the sum rounds in the order given, and can move by an ulp or two when
    the sides are permuted.  With any short side zero this collapses to
    the right-triangle sum of two squares.
    """
    _check_lengths("abc", "2^10 d", 1, d, a, b, c)
    return _quadrilateral(a, b, c, d)


def _quadrilateral(a: float, b: float, c: float, d: float) -> float:
    """``rhs_quadrilateral`` on lengths already known to be in range."""
    return a * a + b * b + c * c + 2 * a * b * c / d


def rhs_pentagon(
    a: float, b: float, c: float, d: float, R: float, x: float, y: float
) -> float:
    """Right side of the 5-vertex identity.

    ``x`` is the chord from the first vertex to the third, ``y`` the
    chord from the third to the last.  All four squared short sides
    appear in the sum; the cross terms are (a*b*y + x*c*d)/R.
    """
    _check_lengths("abcdxy", "2^11 R", 2, R, a, b, c, d, x, y)
    return a * a + b * b + c * c + d * d + (a * b * y + x * c * d) / R


def rhs_hexagon(
    a: float,
    b: float,
    c: float,
    d: float,
    e: float,
    R: float,
    x: float,
    y: float,
    z: float,
    u: float,
) -> float:
    """Right side of the 6-vertex identity.

    Diagonals: ``y`` joins vertices 1-3, ``u`` joins 1-4, ``z`` joins
    3-6, ``x`` joins 4-6.  Cross terms are (a*b*z + y*c*x + u*d*e)/R.
    """
    _check_lengths("abcdexyzu", "2^11 R", 2, R, a, b, c, d, e, x, y, z, u)
    return a * a + b * b + c * c + d * d + e * e + (a * b * z + y * c * x + u * d * e) / R


def _general_identity(
    poly: InscribedPolygon,
) -> tuple[list[float], float, float, float, list[tuple[float, float, float, float]]]:
    """The general identity's arithmetic, with no records built.

    Returns ``(sides, d, sum_sq, rhs, chords)``: the n-1 sides, the
    diameter, the sum of squared sides, the right side, and for each
    k = 1..n-3 the tuple ``(first, side, second, product)`` of cross
    term k.  ``first`` is the chord (1, k+1), ``side`` the chord
    (k+1, k+2) and ``second`` the chord (k+2, n); they are the short
    sides of nested quadrilateral k, measured with ``math.dist``
    straight from the vertices, the same arithmetic as ``diagonal``.
    ``evaluate_general`` wraps this; ``_check_residuals`` reads it
    directly.
    """
    pts = poly.vertices
    start, end = pts[0], pts[-1]
    sides = side_lengths(poly)
    d = math.dist(start, end)
    if not _D_MIN <= d <= _D_MAX:
        raise DomainError(_OUT_OF_WINDOW)
    # Both sums add left to right with plain +=, so every Python rounds
    # them alike: from 3.12 on, sum() of floats is compensated.
    sum_sq = 0.0
    for s in sides:
        sum_sq += s * s
    cross = 0.0
    chords = []
    for k in range(1, len(pts) - 2):
        first = math.dist(start, pts[k])
        side = sides[k]
        second = math.dist(pts[k + 1], end)
        product = first * side * second
        cross += product
        chords.append((first, side, second, product))
    rhs = sum_sq + 2.0 * cross / d
    return sides, d, sum_sq, rhs, chords


def _report(
    n: int, d: float, sum_sq: float, cross_terms: tuple[CrossTerm, ...], rhs: float
) -> IdentityReport:
    """The report on d^2 = rhs, its residual taken relative to d^2 > 0."""
    lhs = d * d
    residual_abs = abs(lhs - rhs)
    return IdentityReport(
        n=n,
        lhs=lhs,
        sum_of_squares=sum_sq,
        cross_terms=cross_terms,
        rhs=rhs,
        residual_abs=residual_abs,
        residual_rel=residual_abs / lhs,
    )


def evaluate_general(poly: InscribedPolygon) -> IdentityReport:
    """Measure every side and needed diagonal, evaluate the identity.

    The arithmetic is ``_general_identity``'s; this builds the records.
    Cross term k carries the three short sides of nested quadrilateral k,
    the one on vertices (1, k+1, k+2, n): ``first_diagonal`` is the chord
    (1, k+1), ``side`` the chord (k+1, k+2) and ``second_diagonal`` the
    chord (k+2, n).  Together with the diameter they give that
    quadrilateral's relation bit for bit as ``nested_quadrilateral_check``
    measures it.

    The residual is reported both absolutely and relative to the left
    side d^2, which is strictly positive for any valid polygon.
    """
    _, d, sum_sq, rhs, chords = _general_identity(poly)
    cross_terms = tuple(CrossTerm(k, *chord) for k, chord in enumerate(chords, start=1))
    return _report(poly.n, d, sum_sq, cross_terms, rhs)


def nested_quadrilateral_check(poly: InscribedPolygon, k: int) -> IdentityReport:
    """Apply the 4-vertex identity to vertices (1, k+1, k+2, n).

    Those four points lie on the same semicircle with the same diameter
    side, so the quadrilateral relation must hold for every k in
    [1, n-3].
    """
    n = poly.n
    if not 1 <= _integer(k, "k must be an integer") <= n - 3:
        raise IndexRangeError(f"need 1 <= k <= {n - 3}, got k={k}")
    a = diagonal(poly, 0, k)
    b = diagonal(poly, k, k + 1)
    c = diagonal(poly, k + 1, n - 1)
    d = diagonal(poly, 0, n - 1)
    cross_terms = (CrossTerm(1, a, b, c, a * b * c),)
    rhs = rhs_quadrilateral(a, b, c, d)
    return _report(4, d, a * a + b * b + c * c, cross_terms, rhs)


def corner_identity_residual(poly: InscribedPolygon) -> float:
    """Relative residual of the law-of-cosines step at the last corner.

    For the last three vertices P, Q, E (E the right diameter endpoint),
    Thales' theorem turns the cosine at Q into a ratio of chords from
    the first vertex:  |PE|^2 = |PQ|^2 + |QE|^2 + 2|PQ||QE|·|A1P|/|A1E|.
    Needs at least 4 vertices; this is the last residual of
    ``_check_residuals``, which forms the relation.
    """
    if poly.n < 4:
        raise IndexRangeError("corner identity needs at least 4 vertices")
    return _check_residuals(poly)[1][-1]


def _check_residuals(poly: InscribedPolygon) -> tuple[list[float], list[float]]:
    """The sides and each check's relative residual, from one kernel call.

    In order: the general identity, nested quadrilateral k = 1..n-3 and,
    for n >= 4, the corner, as ``_check_name`` names them.  Each nested
    right side is ``_quadrilateral``'s.  The corner's |A1P| is the last
    cross term's first chord and |PE| is measured here from the vertices.
    The kernel measured the chords from a validated polygon with d in the
    window, so no length is checked again.
    """
    sides, d, _, rhs, chords = _general_identity(poly)
    lhs = d * d
    residuals = [abs(lhs - rhs) / lhs]
    for first, side, second, _ in chords:
        residuals.append(abs(lhs - _quadrilateral(first, side, second, d)) / lhs)
    if chords:
        pe = math.dist(poly.vertices[-3], poly.vertices[-1])
        pq, qe = sides[-2], sides[-1]
        pe_sq = pe * pe
        corner_rhs = pq * pq + qe * qe + 2.0 * pq * qe * chords[-1][0] / d
        residuals.append(abs(pe_sq - corner_rhs) / pe_sq if pe_sq else 0.0)
    return sides, residuals


def _check_name(index: int, n: int) -> str:
    """Name of the residual at ``index`` of an n-gon's ``_check_residuals``."""
    if index == 0:
        return "general"
    if index <= n - 3:
        return f"nested k={index}"
    return "corner"
