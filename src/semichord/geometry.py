"""Coordinate geometry on the semicircle.

Polygons live on the upper half of a circle of radius R, with the first
vertex pinned at (-R, 0) and the last at (R, 0) so the diameter is always
a side.  The canonical parametrization is the list of central angles
(arcs) subtended by the short sides; arcs make the semicircle constraint
linear (they sum to a half turn) and every identity in this package is
testable by construction from them.

Every real input but the closed forms' lengths is read by ``_real``'s
rule: a value ``float()`` reads is a real number, a real no float holds
(``10**400``, a ``Decimal`` sNaN) reads as nan for the caller's range
check, and any other value, or a str given as a whole sequence, is not.
An integer input (a count, an index, a bound, a seed) is read by
``_integer``'s rule: an int that is not a bool.
A polygon placed from arcs is validated once, where it enters:
``CentralAngles`` checks the arc partition, and ``vertices_from_angles``
then checks only the radius and the lowest vertex, falling back to the
full per-vertex validator for a vertex below the diameter.  An
``InscribedPolygon`` built directly checks every vertex.
A partition built from sides by ``solver._arcs`` is checked where it
is built, by ``_checked_angles``: the way it is built leaves two of
``CentralAngles``' rules to check, and a list that fails one goes to
``CentralAngles`` for its error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import cos, fsum, pi, sin

from .errors import DomainError, IndexRangeError, InvalidAnglesError

#: Absolute tolerance on the arc partition summing to a half turn.
ARC_SUM_TOL = 1e-12

#: Relative tolerance (scaled by R, or on coordinates divided by R) for
#: on-circle vertex checks.
VERTEX_TOL = 1e-12


def _real(value, message: str, error=DomainError) -> float:
    """``value`` as a float by ``float()``'s rule; ``error(message)`` if not real."""
    try:
        return float(value)
    except TypeError:  # None, 1j
        pass
    except (ValueError, OverflowError):  # "x"; 10**400, a Decimal sNaN
        if not isinstance(value, (str, bytes, bytearray)):
            return math.nan  # real, but no float holds it
    raise error(message)


def _integer(value, message: str) -> int:
    """``value`` if it is an int that is not a bool; ``DomainError(message)`` if not."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DomainError(message)


def _floats(values, message="sides must be real numbers", error=DomainError):
    """``values`` as a float tuple, each read by ``_real``; a str is not a sequence here."""
    try:
        if not isinstance(values, (list, tuple)):
            if isinstance(values, (str, bytes, bytearray)):
                raise TypeError  # one value, not a sequence of them
            values = tuple(values)  # a one-shot iterable is read once
        return tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        if not isinstance(values, (list, tuple)):  # a str, or not iterable
            raise error(message) from None
    return tuple([_real(value, message, error) for value in values])


def _diameter(d) -> float:
    """``d`` as a float, checked positive and finite."""
    d = _real(d, "diameter must be a real number")
    if 0.0 < d < math.inf:
        return d
    raise DomainError("diameter must be positive and finite")


def _radius(radius) -> float:
    """``radius`` as a float; the one check every radius in the package meets."""
    R = _real(radius, "radius must be a real number")
    # Subnormal: R*cos and R*sin lose the precision the on-circle check needs.
    if sys.float_info.min <= R and 2.0 * R < math.inf:
        return R
    raise DomainError("radius must be a positive normal float with a finite diameter")


@dataclass(frozen=True, slots=True)
class CentralAngles:
    """Partition of the half turn into n-1 non-negative arcs (n >= 3)."""

    arcs: tuple[float, ...]

    def __post_init__(self) -> None:
        arcs = _floats(self.arcs, "arcs must be real numbers", InvalidAnglesError)
        object.__setattr__(self, "arcs", arcs)
        if len(arcs) < 2:
            raise InvalidAnglesError("need at least 2 arcs (3 vertices)")
        try:
            total = fsum(arcs)
        except (OverflowError, ValueError):  # finite overflow; inf + -inf
            total = math.inf
        # min() can pass over a negative arc behind a nan, so it stands in
        # for the scan only when the finite sum shows every arc is finite.
        if min(arcs) < 0.0 if math.isfinite(total) else any(a < 0.0 for a in arcs):
            raise InvalidAnglesError("arcs must be non-negative")
        # Negated so that a nan arc, which makes the sum nan, fails it.
        if not abs(total - pi) <= ARC_SUM_TOL:
            if not math.isfinite(total):
                raise InvalidAnglesError("arcs must be finite and sum to pi")
            raise InvalidAnglesError(
                f"arcs must sum to pi, got {total!r} (off by {total - pi:.3e})"
            )
        # Every arc is finite and non-negative here, so the rest are positive.
        if len(arcs) - arcs.count(0.0) < 2:
            raise InvalidAnglesError("at least two arcs must be strictly positive")

    def __len__(self) -> int:
        return len(self.arcs)

    @property
    def n_vertices(self) -> int:
        return len(self.arcs) + 1

    def reversed(self) -> CentralAngles:
        return CentralAngles(self.arcs[::-1])


def _checked_angles(arcs: list[float], widest: int) -> CentralAngles:
    """``CentralAngles(arcs)`` for arcs built from sides by ``solver._arcs``.

    Every arc but ``arcs[widest]`` lies in [0, pi], and ``arcs[widest]``
    is pi less the others' correctly rounded sum.  That leaves two of
    ``CentralAngles``' rules: ``arcs[widest]`` is non-negative, and at
    least two arcs are positive.  A non-negative complement closes the
    half turn to within about one ulp of pi, far inside
    ``ARC_SUM_TOL``, so the sum needs no check.  A list that meets both
    rules is wrapped without ``__post_init__``; any other goes to
    ``CentralAngles`` for its error.  It lives here so that it reaches
    the class even where a caller's own imported ``CentralAngles`` name
    is rebound, say to a tracing wrapper.
    """
    # A side whose ratio to d underflows gives a zero arc.
    if 0.0 <= arcs[widest] and len(arcs) - arcs.count(0.0) >= 2:
        angles = object.__new__(CentralAngles)
        object.__setattr__(angles, "arcs", tuple(arcs))
        return angles
    return CentralAngles(arcs)


@dataclass(frozen=True, slots=True)
class InscribedPolygon:
    """Vertices on the upper semicircle, diameter endpoints first and last."""

    radius: float
    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        R = _radius(self.radius)
        object.__setattr__(self, "radius", R)
        message = "vertices must be pairs of real numbers"
        try:
            pts = tuple(_floats(v, message, InvalidAnglesError) for v in self.vertices)
        except TypeError:  # vertices not iterable
            raise InvalidAnglesError(message) from None
        if any(len(pt) != 2 for pt in pts):
            raise InvalidAnglesError(message)
        object.__setattr__(self, "vertices", pts)
        if len(pts) < 3:
            raise InvalidAnglesError("polygon needs at least 3 vertices")
        tol = VERTEX_TOL * R
        if not (math.dist(pts[0], (-R, 0.0)) <= tol and math.dist(pts[-1], (R, 0.0)) <= tol):
            raise InvalidAnglesError("diameter endpoints must sit at (-R, 0) and (R, 0)")
        prev_angle = pi
        for x, y in pts:
            # Scale-free: x*x + y*y - R*R under- or overflows far from R = 1.
            xr, yr = x / R, y / R
            # Negated so that a nan coordinate fails it.
            if not abs(xr * xr + yr * yr - 1.0) <= VERTEX_TOL:
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise InvalidAnglesError("vertex coordinates must be finite")
                raise InvalidAnglesError(f"vertex ({x!r}, {y!r}) is off the circle")
            if y < -tol:
                raise InvalidAnglesError(f"vertex ({x!r}, {y!r}) is below the diameter")
            # |y|: a vertex the check above lets sit just below the diameter
            # at x < 0 reads near pi, not -pi.
            angle = math.atan2(abs(y), x)
            # Non-increasing sweep from pi down to 0; ties = coincident vertices.
            if angle > prev_angle + ARC_SUM_TOL:
                raise InvalidAnglesError("vertices must descend in polar angle")
            prev_angle = angle

    @property
    def n(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, slots=True)
class ChordSet:
    """Side lengths plus diameter; pure metric data with no embedding."""

    sides: tuple[float, ...]
    diameter: float

    def __post_init__(self) -> None:
        sides = _floats(self.sides)
        object.__setattr__(self, "sides", sides)
        if not all(0.0 <= s < math.inf for s in sides):
            raise DomainError("sides must be non-negative and finite")
        diameter = _diameter(self.diameter)
        object.__setattr__(self, "diameter", diameter)
        if sides and diameter < max(sides):
            raise DomainError("a chord cannot exceed the diameter")

    @classmethod
    def from_polygon(cls, poly: InscribedPolygon) -> ChordSet:
        return cls(tuple(side_lengths(poly)), diagonal(poly, 0, poly.n - 1))


def chord_from_angle(arc: float, radius: float) -> float:
    """Length of the chord subtending ``arc`` on a circle of ``radius``.

    Monotone increasing in ``arc`` on [0, pi]; the half-turn chord is the
    diameter.
    """
    R = _radius(radius)
    arc = _real(arc, "arc must be a real number")
    if 0.0 <= arc <= pi:
        return 2.0 * R * sin(0.5 * arc)
    raise DomainError("arc must lie in [0, pi]")


def vertices_from_angles(angles: CentralAngles, radius: float) -> InscribedPolygon:
    """Place vertices on the upper semicircle from an arc partition.

    Vertex k sits at polar angle pi minus the sum of the first k arcs.
    The diameter endpoints are snapped exactly onto (-R, 0) and (R, 0);
    the arc-sum invariant bounds the snap below the vertex tolerance.
    A radius that is not real, is below the smallest normal float or has
    no finite diameter 2R raises ``DomainError`` before any placement.

    ``CentralAngles`` has validated the arcs, so the placed vertices lie
    on the circle and descend in polar angle by construction, and the
    polygon is built without re-running ``InscribedPolygon``'s per-vertex
    checks.  Placement proves them only with no vertex below the
    diameter.  The polar angle only falls, so the last interior vertex is
    the lowest.  When it is below the diameter (a last arc within ~1e-12
    of 0), or when ``angles`` is not a ``CentralAngles``, the full
    validator runs, so every input is accepted or rejected exactly as by
    ``InscribedPolygon(R, vertices)``.
    """
    R = _radius(radius)
    pts = [(-R, 0.0)]
    theta = pi
    for arc in angles.arcs[:-1]:
        theta -= arc
        pts.append((R * cos(theta), R * sin(theta)))
    pts.append((R, 0.0))
    if pts[-2][1] < 0.0 or not isinstance(angles, CentralAngles):
        return InscribedPolygon(R, tuple(pts))
    poly = object.__new__(InscribedPolygon)
    object.__setattr__(poly, "radius", R)
    object.__setattr__(poly, "vertices", tuple(pts))
    return poly


def side_lengths(poly: InscribedPolygon) -> list[float]:
    """Euclidean distances between consecutive vertices (n-1 values)."""
    pts = poly.vertices
    return [math.dist(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def diagonal(poly: InscribedPolygon, i: int, j: int) -> float:
    """Euclidean distance between vertices ``i`` and ``j`` (i < j).

    An index that is not an int raises ``DomainError``, and one out of
    range ``IndexRangeError``, a ``DomainError`` that is also an
    ``IndexError``.
    """
    message = "vertex indices must be integers"
    i, j = _integer(i, message), _integer(j, message)
    if not 0 <= i < j < poly.n:
        raise IndexRangeError(f"need 0 <= i < j < {poly.n}, got i={i}, j={j}")
    return math.dist(poly.vertices[i], poly.vertices[j])


def mirror(poly: InscribedPolygon) -> InscribedPolygon:
    """Reflect across the vertical axis; reverses vertex order.

    Pure coordinate transform (x -> -x), so every pairwise distance is
    preserved bit for bit.
    """
    pts = tuple((-x, y) for x, y in reversed(poly.vertices))
    return InscribedPolygon(poly.radius, pts)
