"""Seeded randomized verification of the identities and the solver.

Every trial draws an arc partition and radius, builds the polygon, and
makes four kinds of check: the general identity; the quadrilateral
relation on each nested quadrilateral (1, k+1, k+2, n); the last-corner
law-of-cosines step; and the diameter-solver round trip.  The first
three come from ``identity._check_residuals``, which chooses each
check's chords from one kernel pass over the trial's polygon; the
solver runs on the sides it returns, and the round trip takes
:func:`~semichord.solver.solve_diameter`'s d without its certified
bracket, which no check reads.  This module only draws, solves and
tallies.  The stress regime covers one extreme only: with a fixed
probability one arc is forced tiny, so that two vertices nearly
coincide.  Near-diameter sides, extreme radii and the quads layer are
not drawn.
Failures are data, not exceptions, and the whole run is reproducible:
the generator is splitmix64 (a 64-bit Weyl counter hashed through two
xor-multiply rounds), implemented in pure integer arithmetic so streams
are identical on every platform, and each trial owns a disjoint
substream reached by jumping the counter, so results do not depend on
execution order.  The checks sum in a fixed order, so reports are
identical on every platform and Python version too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .geometry import (
    CentralAngles,
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

#: Generator draws reserved per trial; bounds the substream jump.
_TRIAL_STRIDE = 256

#: Per-trial probability of forcing one arc below the degeneracy
#: threshold, probing the coincident-vertex regime where cancellation
#: is worst.
_STRESS_PROBABILITY = 0.1
_STRESS_ARC = 1e-6

GENERATOR_NAME = "splitmix64"


class SplitMix64:
    """Portable 64-bit generator with O(1) substream jumps."""

    __slots__ = ("state",)

    def __init__(self, state: int) -> None:
        self.state = state & _MASK64

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> SplitMix64:
        """Substream for one trial: the counter jumped past all earlier ones."""
        return cls(seed + trial * _TRIAL_STRIDE * _GAMMA)

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_positive_float(self) -> float:
        """Uniform in (0, 1]; never returns zero."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def next_below(self, n: int) -> int:
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an integer")
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if not 3 <= self.n_min <= self.n_max <= 64:
            raise DomainError("need 3 <= n_min <= n_max <= 64")
        # Every drawn diameter 2R must lie in the identity's window.
        if not _D_MIN <= 2.0 * self.radius_min <= 2.0 * self.radius_max <= _D_MAX:
            raise DomainError(
                "need radius_min <= radius_max, with diameters in the identity window"
            )
        if not 0.0 < self.tolerance_rel < math.inf:
            raise DomainError("tolerance_rel must be positive and finite")


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
    """n-1 strictly positive arcs summing to the half turn.

    Draws n-1 positive uniform variates and rescales them to total pi;
    deterministic for a given generator state.
    """
    if not isinstance(n, int):
        raise DomainError("n must be an integer")
    if n < 3:
        raise DomainError("need at least 3 vertices")
    variates = [gen.next_positive_float() for _ in range(n - 1)]
    total = math.fsum(variates)
    return CentralAngles(math.pi * u / total for u in variates)


def _stressed(angles: CentralAngles, gen: SplitMix64) -> CentralAngles:
    """Force one arc below the degeneracy threshold, keeping the sum."""
    arcs = list(angles.arcs)
    target = gen.next_below(len(arcs))
    tiny = gen.next_positive_float() * _STRESS_ARC
    # Summing the other arcs, rather than taking pi minus the target,
    # keeps the rounding of pi - arc out of the factor: when the target
    # is within ~1e-4 of pi the factor is ~1e4 and would magnify it past
    # ARC_SUM_TOL.
    others = math.fsum(a for i, a in enumerate(arcs) if i != target)
    factor = (math.pi - tiny) / others
    rescaled = [tiny if i == target else a * factor for i, a in enumerate(arcs)]
    return CentralAngles(rescaled)


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
        radius = config.radius_min + gen.next_float() * (
            config.radius_max - config.radius_min
        )
        angles = random_angles(n, gen)
        if gen.next_float() < _STRESS_PROBABILITY:
            angles = _stressed(angles, gen)
        poly = vertices_from_angles(angles, radius)

        sides, residuals = _check_residuals(poly)
        d = _solve(sides)[1]
        target_d = 2.0 * radius
        residuals.append(abs(d - target_d) / target_d)

        for index, residual in enumerate(residuals):
            if 0.0 < residual < math.inf:
                key = math.floor(math.log10(residual))
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
