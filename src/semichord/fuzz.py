"""Seeded randomized verification of the identities and the solver.

Every trial draws an arc partition and radius, builds the polygon, and
makes four kinds of check: the general identity; the quadrilateral
relation on each nested quadrilateral (1, k+1, k+2, n); the last-corner
law-of-cosines step; and the diameter-solver round trip.  The first
three come from ``identity._check_residuals``, which chooses each
check's chords from one kernel pass over the trial's polygon; the
solver runs on the positive sides it returns, and the round trip takes
:func:`~semichord.solver.solve_diameter`'s d without its certified
bracket, which no check reads.  This module only draws, solves and
tallies.  The stress regime covers one extreme only: with a fixed
probability one arc is forced tiny, so that two vertices nearly
coincide.  Near-diameter sides, extreme radii and the quads layer are
not drawn.
Each trial's partition, drawn or stressed, is checked once, where it is
built: a rule on the draws implies every rule of ``CentralAngles``, so
``geometry._built_angles`` wraps the arcs without re-checking them.
Failures are data, not exceptions, and the whole run is reproducible:
the generator is splitmix64 (a 64-bit Weyl counter hashed through two
xor-multiply rounds), implemented in pure integer arithmetic so streams
are identical on every platform, and each trial owns a disjoint
substream reached by jumping the counter, so results do not depend on
execution order.  A trial draws its n one at a time, then mixes all its
other draws up to the stress decision (the radius, the n-1 variates and
the decision) in one lane-parallel block: splitmix64 hashes each
counter value on its own, so one Python int holds them all in 128-bit
lanes.  A mask keeps each lane below 2**64 when it is multiplied by a
64-bit constant, so the product is below 2**128 and cannot carry into
the next lane, and the block gives the stream the single draws give.
Its lanes are read in an explicit little-endian order.  The checks sum
in a fixed order, so reports are identical on every platform and Python
version too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from math import floor, inf, log10
from struct import Struct

from .errors import DomainError
from .geometry import (
    CentralAngles,
    _built_angles,
    _integer,
    _real,
    side_lengths,  # noqa: F401  (rebound here by bench/spans.py)
    vertices_from_angles,
)
from .identity import (
    _D_MAX,
    _D_MIN,
    _check_name,
    _check_residuals,
    corner_identity_residual,  # noqa: F401  (rebound here by bench/spans.py)
    evaluate_general,  # noqa: F401  (rebound here by bench/spans.py)
    nested_quadrilateral_check,  # noqa: F401  (rebound here by bench/spans.py)
)
from .solver import _solve
from .solver import solve_diameter  # noqa: F401  (rebound here by bench/spans.py)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: Width of one lane of a block draw: room for the product of two
#: values below 2**64.
_LANE_BITS = 128

#: Generator draws reserved per trial; bounds the substream jump.
_TRIAL_STRIDE = 256
_TRIAL_JUMP = _TRIAL_STRIDE * _GAMMA

#: Per-trial probability of forcing one arc below the degeneracy
#: threshold, probing the coincident-vertex regime where cancellation
#: is worst.
_STRESS_PROBABILITY = 0.1
_STRESS_ARC = 1e-6

GENERATOR_NAME = "splitmix64"

#: Most vertices of a fuzzed polygon, for ``FuzzConfig`` and ``random_angles``.
_MAX_VERTICES = 64


@cache
def _lanes(k: int) -> tuple[int, int, int, Struct]:
    """Constants of a k-lane block draw, built on first use for each k.

    Ones in each lane, lane i's counter step (i+1)*gamma, the 64-bit
    lane mask, and the little-endian unpacking of each lane's low 64
    bits.  ``FuzzConfig`` caps a trial's block at 65 lanes.
    """
    ones = sum(1 << _LANE_BITS * i for i in range(k))
    steps = sum((i + 1) * _GAMMA << _LANE_BITS * i for i in range(k))
    lane = Struct("<" + "Q8x" * k)
    return ones, steps, ones * _MASK64, lane


class SplitMix64:
    """Portable 64-bit generator with O(1) substream jumps.

    ``next_u64`` is the single draw, and the reference for the block
    draw ``_next_block``, which mixes k successive draws at once.
    """

    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = _integer(state, "state must be an integer") & _MASK64

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> SplitMix64:
        """Substream for one trial: the counter jumped past all earlier ones."""
        seed = _integer(seed, "seed must be an integer")
        return cls(seed + _integer(trial, "trial must be an integer") * _TRIAL_JUMP)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def _next_block(self, k: int) -> tuple[int, ...]:
        """The next k draws ``next_u64() >> 11``, mixed at once.

        Lane i of one int holds the counter after i+1 steps, and each
        step of the mixing runs once over every lane.  A mask after each
        shift and multiply drops the bits a lane takes from its
        neighbour or from a product's high half, so each lane is below
        2**64 when it is multiplied and the product stays in its 128-bit
        lane.  The last shift needs no mask: after the final xor-shift,
        bits 64 to 96 of each lane are clear, since the neighbour's bits
        land from bit 97 up, so ``>> 11`` leaves each lane's low 64 bits
        below 2**53, and they are all the unpacking reads.  The state
        advances by k draws.
        """
        ones, steps, mask64, lane = _lanes(k)
        z = (self.state * ones + steps) & mask64
        self.state = (self.state + k * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & mask64) * 0xBF58476D1CE4E5B9 & mask64
        z = ((z ^ (z >> 27)) & mask64) * 0x94D049BB133111EB & mask64
        z = (z ^ (z >> 31)) >> 11
        return lane.unpack(z.to_bytes(_LANE_BITS // 8 * k, "little"))

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_positive_float(self) -> float:
        """Uniform in (0, 1]; never returns zero."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Draw in [0, n) for an integer n >= 1."""
        if _integer(n, "n must be an integer") < 1:
            raise DomainError("n must be at least 1")
        return self.next_u64() % n


@dataclass(frozen=True, slots=True)
class FuzzConfig:
    trials: int = 100
    n_min: int = 3
    n_max: int = 12
    radius_min: float = 0.5
    radius_max: float = 50.0
    seed: int = 42
    tolerance_rel: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("trials", "n_min", "n_max", "seed"):
            _integer(getattr(self, name), f"{name} must be an integer")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if not 3 <= self.n_min <= self.n_max <= _MAX_VERTICES:
            raise DomainError(f"need 3 <= n_min <= n_max <= {_MAX_VERTICES}")
        message = "radius_min and radius_max must be real numbers"
        low, high = _real(self.radius_min, message), _real(self.radius_max, message)
        # Every drawn diameter 2R must lie in the identity's window.
        if not _D_MIN <= 2.0 * low <= 2.0 * high <= _D_MAX:
            raise DomainError(
                "need radius_min <= radius_max, with diameters in the identity window"
            )
        tolerance = _real(self.tolerance_rel, "tolerance_rel must be a real number")
        if not 0.0 < tolerance < math.inf:
            raise DomainError("tolerance_rel must be positive and finite")
        object.__setattr__(self, "radius_min", low)
        object.__setattr__(self, "radius_max", high)
        object.__setattr__(self, "tolerance_rel", tolerance)


@dataclass(frozen=True, slots=True)
class FuzzFailure:
    description: str
    residual: float


@dataclass(frozen=True, slots=True)
class FuzzReport:
    generator: str
    seed: int
    trials_run: int
    worst_residual_rel: float
    worst_case_seed_state: int
    failures: tuple[FuzzFailure, ...]
    histogram: dict[str, int]


def random_angles(n: int, gen: SplitMix64) -> CentralAngles:
    """n-1 strictly positive arcs summing to the half turn, for 3 <= n <= 64.

    Draws n-1 positive uniform variates with ``next_positive_float`` and
    rescales them to total pi, as ``_rescaled`` does; deterministic for a
    given generator state.  An n out of range raises before any draw.
    """
    if not 3 <= _integer(n, "n must be an integer") <= _MAX_VERTICES:
        raise DomainError(f"need 3 <= n <= {_MAX_VERTICES} vertices")
    return _rescaled([gen.next_positive_float() for _ in range(n - 1)])


def _rescaled(variates: list[float]) -> CentralAngles:
    """The partition of the half turn in proportion to ``variates``.

    The one home of the rescale, for ``random_angles`` and for
    ``run_fuzz``'s block draws.  Draws in [2**-53, 1], as
    ``next_positive_float`` gives, rescale to positive arcs whose sum is
    within a few ulps of pi, so the partition is checked by that rule on
    the draws.  Any other draws get ``CentralAngles``' error for their
    rescale; draws whose sum is 0, or has no float, rescale to nan arcs.
    """
    try:
        total = math.fsum(variates) or math.nan  # a zero total has no rescale
    except (OverflowError, ValueError):  # finite overflow; inf + -inf
        total = math.nan
    arcs = [math.pi * u / total for u in variates]
    # min and max can pass over a nan draw, which makes the total nan.
    return _built_angles(
        arcs, 2.0**-53 <= min(variates) and max(variates) <= 1.0 and total == total
    )


def _stressed(angles: CentralAngles, gen: SplitMix64) -> CentralAngles:
    """Force one arc below the degeneracy threshold, keeping the sum.

    ``angles`` is a valid partition, so the arcs but any one have a
    positive sum.  With a target that names an arc and a finite factor,
    the rescaled others close the half turn with a tiny arc in
    (0, ``_STRESS_ARC``] to within a few ulps, so the partition is
    checked by that rule on the draws; any other draws get
    ``CentralAngles``' error.
    """
    arcs = angles.arcs
    target = gen.next_below(len(arcs))
    tiny = gen.next_positive_float() * _STRESS_ARC
    # Summing the other arcs, rather than taking pi minus the target,
    # keeps the rounding of pi - arc out of the factor: when the target
    # is within ~1e-4 of pi the factor is ~1e4 and would magnify it past
    # ARC_SUM_TOL.
    others = math.fsum(a for i, a in enumerate(arcs) if i != target)
    factor = (math.pi - tiny) / others
    rescaled = [tiny if i == target else a * factor for i, a in enumerate(arcs)]
    return _built_angles(
        rescaled,
        0.0 < tiny <= _STRESS_ARC and factor < inf and target in range(len(arcs)),
    )


def _histogram(counts: dict[int | str, int]) -> dict[str, int]:
    """Label and order the buckets: "0", each decade "1e<k>" up, "inf", "nan"."""
    decades = sorted(key for key in counts if isinstance(key, int))
    order = ["0", *decades, "inf", "nan"]
    return {
        key if isinstance(key, str) else f"1e{key}": counts[key]
        for key in order
        if key in counts
    }


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run every check over ``config.trials`` seeded random polygons.

    A residual that is not finite counts as a failure; the histogram
    keeps it in its own bucket.
    """
    tolerance = config.tolerance_rel
    worst = 0.0
    worst_state = SplitMix64.for_trial(config.seed, 0).state
    failures: list[FuzzFailure] = []
    # Residuals counted by decade floor(log10 r); "0", "inf" and "nan"
    # are the buckets outside (0, inf).
    counts: dict[int | str, int] = {}

    for trial in range(config.trials):
        gen = SplitMix64.for_trial(config.seed, trial)
        trial_state = gen.state
        n = config.n_min + gen.next_below(config.n_max - config.n_min + 1)
        # The radius, the n-1 variates and the stress decision, as
        # next_float, next_positive_float and next_float give them.
        draws = gen._next_block(n + 1)
        radius = config.radius_min + draws[0] * 2.0**-53 * (
            config.radius_max - config.radius_min
        )
        angles = _rescaled([(u + 1) * 2.0**-53 for u in draws[1:n]])
        if draws[n] * 2.0**-53 < _STRESS_PROBABILITY:
            angles = _stressed(angles, gen)
        poly = vertices_from_angles(angles, radius)

        sides, residuals = _check_residuals(poly)
        # An arc below a vertex's angular resolution puts two vertices on
        # one float point.  Their zero side subtends a zero arc, so the
        # positive sides have the same diameter; with fewer than two left
        # there is none to recover, and the round trip fails.
        if 0.0 in sides:
            sides = [a for a in sides if a > 0.0]
        target_d = 2.0 * radius
        residuals.append(
            abs(_solve(sides)[1] - target_d) / target_d if len(sides) > 1 else inf
        )

        for index, residual in enumerate(residuals):
            if 0.0 < residual < inf:
                key = floor(log10(residual))
            elif residual == 0.0:
                key = "0"
            else:
                key = "inf" if residual > 0.0 else "nan"
            counts[key] = counts.get(key, 0) + 1
            if residual > worst:
                worst = residual
                worst_state = trial_state
            # Negated so that a nan residual fails it.
            if not residual <= tolerance:
                name = (
                    "solver round trip"
                    if index == len(residuals) - 1
                    else _check_name(index, n)
                )
                failures.append(
                    FuzzFailure(
                        description=(
                            f"trial={trial} n={n} R={radius!r} "
                            f"check={name} state={trial_state}"
                        ),
                        residual=residual,
                    )
                )

    return FuzzReport(
        generator=GENERATOR_NAME,
        seed=config.seed,
        trials_run=config.trials,
        worst_residual_rel=worst,
        worst_case_seed_state=worst_state,
        failures=tuple(failures),
        histogram=_histogram(counts),
    )
