"""Tests for the seeded randomized verification harness."""

import math
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from support import Draws, outcome, solver_returning
from semichord import (
    CentralAngles,
    DomainError,
    FuzzConfig,
    InvalidAnglesError,
    SplitMix64,
    corner_identity_residual,
    evaluate_general,
    nested_quadrilateral_check,
    random_angles,
    run_fuzz,
    side_lengths,
    solve_diameter,
    vertices_from_angles,
)
from semichord import fuzz, solver

# Reference stream for state 0, as published for the splitmix64
# algorithm; guards against any platform or refactoring drift.
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


class TestSplitMix64:
    def test_reference_vector(self):
        gen = SplitMix64(0)
        assert [gen.next_u64() for _ in range(5)] == SPLITMIX64_SEED0

    def test_floats_in_unit_interval(self):
        gen = SplitMix64(99)
        values = [gen.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_positive_floats_never_zero(self):
        gen = SplitMix64(99)
        values = [gen.next_positive_float() for _ in range(1000)]
        assert all(0.0 < v <= 1.0 for v in values)

    def test_substreams_are_reproducible(self):
        a = SplitMix64.for_trial(42, 7)
        b = SplitMix64.for_trial(42, 7)
        assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]

    def test_substreams_differ_between_trials(self):
        a = SplitMix64.for_trial(42, 0)
        b = SplitMix64.for_trial(42, 1)
        assert a.next_u64() != b.next_u64()


#: The 1..65 lanes a fuzz trial's block can have (n_max is at most 64).
_WIDTHS = range(1, 66)


class TestBlockDrawMatchesSingleDraws:
    """``_next_block(k)`` is k calls of ``next_u64() >> 11``, bit for bit."""

    @staticmethod
    def _assert_matches(state: int, k: int) -> None:
        block, single = SplitMix64(state), SplitMix64(state)
        assert list(block._next_block(k)) == [single.next_u64() >> 11 for _ in range(k)]
        assert block.state == single.state

    @pytest.mark.parametrize("k", _WIDTHS)
    @pytest.mark.parametrize("state", [0, 2**64 - 1])
    def test_edge_states(self, state, k):
        self._assert_matches(state, k)

    # Every block of two or more lanes wraps the counter past 2**64, since
    # gamma exceeds 2**63.  These put a lane's counter exactly on 0, and on
    # 2**64 - 1, in the first, middle and last lane.
    @pytest.mark.parametrize("k", _WIDTHS)
    @pytest.mark.parametrize("offset", [0, -1])
    def test_lanes_on_the_wrap(self, k, offset):
        for lane in sorted({1, (k + 1) // 2, k}):
            self._assert_matches((offset - lane * 0x9E3779B97F4A7C15) % 2**64, k)

    def test_reference_vector(self):
        assert SplitMix64(0)._next_block(5) == tuple(u >> 11 for u in SPLITMIX64_SEED0)

    @given(
        state=st.integers(min_value=0, max_value=2**64 - 1),
        k=st.integers(min_value=1, max_value=65),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_state(self, state, k):
        self._assert_matches(state, k)


class TestRandomAngles:
    def test_triangle_partition_sums_to_half_turn(self):
        angles = random_angles(3, SplitMix64(7))
        assert len(angles.arcs) == 2
        assert abs(math.fsum(angles.arcs) - math.pi) <= 1e-15

    def test_twelve_gon_partition(self):
        angles = random_angles(12, SplitMix64(7))
        assert len(angles.arcs) == 11
        assert all(a > 0.0 for a in angles.arcs)
        assert abs(math.fsum(angles.arcs) - math.pi) <= 1e-13

    def test_same_seed_same_arcs(self):
        first = random_angles(8, SplitMix64(123))
        second = random_angles(8, SplitMix64(123))
        assert first.arcs == second.arcs

    # n - 1 floats are drawn into a list, so n is checked before any draw.
    @pytest.mark.parametrize("n", [2, 65, 10**400], ids=["2", "65", "10**400"])
    def test_rejects_n_out_of_range_before_drawing(self, n):
        gen = SplitMix64(7)
        with pytest.raises(DomainError) as info:
            random_angles(n, gen)
        assert info.value.code == "domain"
        assert str(info.value) == "need 3 <= n <= 64 vertices"
        assert gen.state == 7


def _checked(build, *args):
    """``outcome`` with every built list handed to ``CentralAngles`` itself."""
    with mock.patch.object(fuzz, "_built_angles", lambda arcs, valid: CentralAngles(arcs)):
        return outcome(build, *args)


#: Draws as next_positive_float gives them, or any float at all.
draws = st.one_of(st.floats(min_value=2.0**-53, max_value=1.0), st.floats())


@st.composite
def valid_partitions(draw):
    """Any partition ``CentralAngles`` accepts, zero and subnormal arcs included."""
    weights = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=63))
    total = math.fsum(weights)
    try:
        return CentralAngles([math.pi * w / total for w in weights])
    except (ZeroDivisionError, InvalidAnglesError):
        reject()


class TestBuildersMatchTheCheckedConstruction:
    """The fuzz builders check their partitions where they build them.

    For any draws, ``random_angles`` and ``_stressed`` give the arcs of
    ``CentralAngles`` on the list they build, or its exception class and
    message.
    """

    @given(variates=st.lists(draws, min_size=2, max_size=63))
    # The rule is on the draws, not the arcs: these rescale to (1.5, 1.5),
    # which "0 < min(arcs), max(arcs) <= pi" would accept.
    @example(variates=[5e-324, 5e-324])
    # min and max skip a nan behind the first draw.
    @example(variates=[math.nan, 1.0])
    @example(variates=[1.0, math.nan])
    @example(variates=[1.0, 2.0**-53])
    @settings(max_examples=500, deadline=None)
    def test_random_angles(self, variates):
        n = len(variates) + 1
        got = outcome(random_angles, n, Draws(variates))
        assert got == _checked(random_angles, n, Draws(variates))

    @given(variates=st.lists(draws, min_size=2, max_size=63))
    @example(variates=[5e-324, 5e-324])
    @example(variates=[math.nan, 1.0])
    @example(variates=[0.0, 0.0])
    @example(variates=[1e308, 1e308])
    @settings(max_examples=300, deadline=None)
    def test_one_home_for_the_rescale(self, variates):
        # run_fuzz rescales its block draws with _rescaled; it must be
        # random_angles' rescale of the same draws, valid or failing.
        got = outcome(fuzz._rescaled, variates)
        assert got == outcome(random_angles, len(variates) + 1, Draws(variates))

    @given(
        angles=valid_partitions(),
        tiny=draws,
        target=st.one_of(st.integers(min_value=-1, max_value=64), st.just(0.5)),
    )
    # The other arcs sum to a subnormal, so the factor overflows to inf.
    @example(angles=CentralAngles([math.pi, 5e-324]), tiny=0.5, target=0)
    # An index no arc has leaves the tiny arc out and the sum short.
    @example(angles=CentralAngles([1.0, math.pi - 1.0]), tiny=0.5, target=2)
    @example(angles=CentralAngles([1.0, math.pi - 1.0]), tiny=0.5, target=0.5)
    # A tiny arc past pi turns the factor negative.
    @example(angles=CentralAngles([1.0, math.pi - 1.0]), tiny=1e7, target=0)
    @settings(max_examples=500, deadline=None)
    def test_stressed(self, angles, tiny, target):
        got = outcome(fuzz._stressed, angles, Draws([tiny], target))
        assert got == _checked(fuzz._stressed, angles, Draws([tiny], target))

    def test_overflowing_factor_fails_the_finite_rule(self):
        angles = CentralAngles([math.pi, 5e-324])
        got = outcome(fuzz._stressed, angles, Draws([0.5], 0))
        finite_rule = "arcs must be finite and sum to pi"
        assert got == (InvalidAnglesError, "invalid_angles", finite_rule)


class TestTrialPartitionsAreBuiltOnce:
    def test_same_report_with_the_fuzz_name_rebound(self, monkeypatch):
        # A tracer rebinds fuzz.CentralAngles to a plain function; the
        # builders' wrap must still reach the class.
        config = FuzzConfig(trials=200)
        report = run_fuzz(config)

        def plain(*args, **kwargs):
            return CentralAngles(*args, **kwargs)

        monkeypatch.setattr(fuzz, "CentralAngles", plain)
        assert run_fuzz(config) == report

    def test_default_run_never_runs_the_class_check(self, monkeypatch):
        validated, stressed = [], []
        post_init, stress = CentralAngles.__post_init__, fuzz._stressed

        def counted(self):
            validated.append(self)
            post_init(self)

        def counted_stress(angles, gen):
            stressed.append(angles)
            return stress(angles, gen)

        monkeypatch.setattr(CentralAngles, "__post_init__", counted)
        monkeypatch.setattr(fuzz, "_stressed", counted_stress)
        report = run_fuzz(FuzzConfig())
        assert report.failures == ()
        assert stressed
        assert validated == []


class TestRunFuzz:
    def test_single_triangle_trial(self):
        report = run_fuzz(FuzzConfig(trials=1, n_min=3, n_max=3))
        assert report.trials_run == 1
        assert report.worst_residual_rel <= 1e-12
        assert report.failures == ()

    def test_deterministic_for_fixed_seed(self):
        config = FuzzConfig(trials=300, seed=42)
        assert run_fuzz(config) == run_fuzz(config)

    def test_seed_changes_the_stream(self):
        a = run_fuzz(FuzzConfig(trials=50, seed=1))
        b = run_fuzz(FuzzConfig(trials=50, seed=2))
        assert a.worst_residual_rel != b.worst_residual_rel

    def test_failures_are_data_not_errors(self):
        # An absurdly tight tolerance turns ordinary rounding into
        # failures; the run must still complete and stay consistent.
        report = run_fuzz(FuzzConfig(trials=50, seed=42, tolerance_rel=1e-18))
        assert report.failures
        assert report.worst_residual_rel > 1e-18
        assert all(f.residual > 1e-18 for f in report.failures)

    def test_failures_empty_iff_worst_below_tolerance(self):
        for tolerance in (1e-18, 1e-9):
            report = run_fuzz(FuzzConfig(trials=50, seed=42, tolerance_rel=tolerance))
            assert bool(report.failures) == (
                report.worst_residual_rel > tolerance
            )

    def test_failure_entries_carry_replay_state(self):
        report = run_fuzz(FuzzConfig(trials=20, seed=42, tolerance_rel=1e-18))
        states = {SplitMix64.for_trial(42, t).state for t in range(20)}
        for failure in report.failures:
            assert "state=" in failure.description
            assert int(failure.description.split("state=")[1]) in states

    def test_worst_state_is_a_trial_state(self):
        report = run_fuzz(FuzzConfig(trials=30, seed=7))
        states = {SplitMix64.for_trial(7, t).state for t in range(30)}
        assert report.worst_case_seed_state in states

    def test_report_header_names_the_generator(self):
        report = run_fuzz(FuzzConfig(trials=1))
        assert report.generator == "splitmix64"
        assert report.seed == 42

    def test_histogram_counts_every_check(self):
        report = run_fuzz(FuzzConfig(trials=40, seed=5))
        assert sum(report.histogram.values()) > 0
        assert all(count > 0 for count in report.histogram.values())

    def test_round_trip_skips_the_bracket_certificate(self, monkeypatch):
        passes = []
        arc_total = solver.arc_sum

        def counted(d, sides):
            passes.append(d)
            return arc_total(d, sides)

        monkeypatch.setattr(solver, "arc_sum", counted)
        report = run_fuzz(FuzzConfig(trials=200, n_max=64))
        assert report.failures == ()
        assert passes == []

    def test_long_chain_regime(self):
        report = run_fuzz(
            FuzzConfig(trials=100, n_min=30, n_max=32, seed=42, tolerance_rel=1e-8)
        )
        assert report.failures == ()


def _capture_polygons(monkeypatch) -> list:
    """Record every polygon run_fuzz places, in trial order."""
    placed = []
    place = fuzz.vertices_from_angles

    def capture(angles, radius):
        placed.append(place(angles, radius))
        return placed[-1]

    monkeypatch.setattr(fuzz, "vertices_from_angles", capture)
    return placed


class TestTrialsMatchTheSingleDraws:
    """run_fuzz places the polygon the scalar draws of its trial give."""

    @pytest.mark.parametrize(
        "n_min, n_max, seed", [(3, 3, 1), (3, 12, 2), (3, 64, 3), (64, 64, 4)]
    )
    def test_placed_polygons(self, n_min, n_max, seed, monkeypatch):
        placed = _capture_polygons(monkeypatch)
        config = FuzzConfig(trials=150, n_min=n_min, n_max=n_max, seed=seed)
        run_fuzz(config)
        stressed = 0
        for trial, poly in enumerate(placed):
            gen = SplitMix64.for_trial(seed, trial)
            n = n_min + gen.next_below(n_max - n_min + 1)
            radius = config.radius_min + gen.next_float() * (
                config.radius_max - config.radius_min
            )
            angles = random_angles(n, gen)
            if gen.next_float() < fuzz._STRESS_PROBABILITY:
                angles = fuzz._stressed(angles, gen)
                stressed += 1
            assert poly == vertices_from_angles(angles, radius)
        assert len(placed) == config.trials
        assert stressed


class TestChecksMatchThePublicApi:
    """Each residual run_fuzz lists is the public API's, bit for bit."""

    @staticmethod
    def _assert_listed_equal_public(monkeypatch, **config):
        placed = _capture_polygons(monkeypatch)
        # The smallest positive tolerance lists every nonzero residual.
        tolerance = 5e-324
        report = run_fuzz(FuzzConfig(trials=1, tolerance_rel=tolerance, **config))
        (poly,) = placed

        expected = {"general": evaluate_general(poly).residual_rel}
        for k in range(1, poly.n - 2):
            expected[f"nested k={k}"] = nested_quadrilateral_check(poly, k).residual_rel
        if poly.n >= 4:
            expected["corner"] = corner_identity_residual(poly)
        target = 2.0 * poly.radius
        solved = solve_diameter(side_lengths(poly)).d
        expected["solver round trip"] = abs(solved - target) / target

        listed = {}
        for failure in report.failures:
            assert f" n={poly.n} R={poly.radius!r} " in failure.description
            name = failure.description.split(" check=")[1].split(" state=")[0]
            listed[name] = failure.residual
        assert listed == {
            name: residual
            for name, residual in expected.items()
            if residual > tolerance
        }
        return poly

    @pytest.mark.parametrize("seed", range(30))
    def test_listed_residuals_equal_the_public_calls(self, seed, monkeypatch):
        self._assert_listed_equal_public(monkeypatch, seed=seed, n_max=64)

    # n = 4 is the fewest vertices with a corner check, whose |A1P| is
    # then the kernel's only cross-term chord; pin it and n = 5.
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("seed", range(10))
    def test_corner_branches_equal_the_public_call(self, n, seed, monkeypatch):
        poly = self._assert_listed_equal_public(
            monkeypatch, seed=seed, n_min=n, n_max=n
        )
        assert poly.n == n


class TestHistogram:
    @staticmethod
    def _decade(residual: float) -> str:
        """The bucket label of one residual, by the log10 formula."""
        if residual <= 0.0:
            return "0"
        return f"1e{math.floor(math.log10(residual))}"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_histogram_is_a_recount_of_every_residual(self, seed, monkeypatch):
        placed = _capture_polygons(monkeypatch)
        report = run_fuzz(
            FuzzConfig(trials=40, seed=seed, n_max=64, tolerance_rel=5e-324)
        )
        # Every nonzero residual is listed; the rest are exactly zero.  An
        # n-gon trial makes n checks (general, n-3 nested, corner, solver),
        # a triangle's two.
        total = sum(poly.n if poly.n >= 4 else 2 for poly in placed)
        recount = {"0": total - len(report.failures)}
        for failure in report.failures:
            bucket = self._decade(failure.residual)
            recount[bucket] = recount.get(bucket, 0) + 1
        ordered = sorted(
            ((k, v) for k, v in recount.items() if v), key=lambda kv: float(kv[0])
        )
        assert list(report.histogram.items()) == ordered


class TestCoincidentVertices:
    """An arc below a vertex's angular resolution puts two vertices on one
    float point; the run reports the round trip instead of raising."""

    @staticmethod
    def _round_trips(monkeypatch, **config):
        """Each zero-sided trial's sides and its listed round-trip residual."""
        monkeypatch.setattr(fuzz, "_STRESS_ARC", 1e-30)
        placed = _capture_polygons(monkeypatch)
        report = run_fuzz(FuzzConfig(trials=30, tolerance_rel=5e-324, **config))
        listed = {
            int(failure.description.split()[0].removeprefix("trial=")): failure.residual
            for failure in report.failures
            if " check=solver round trip " in failure.description
        }
        trips = [
            (poly, side_lengths(poly), listed.get(trial, 0.0))
            for trial, poly in enumerate(placed)
        ]
        zero_sided = [trip for trip in trips if 0.0 in trip[1]]
        assert zero_sided, "no trial put two vertices on one point"
        return zero_sided

    def test_round_trip_solves_the_positive_sides(self, monkeypatch):
        for poly, sides, residual in self._round_trips(monkeypatch, seed=3):
            assert poly.n > 3
            target = 2.0 * poly.radius
            solved = solve_diameter([a for a in sides if a > 0.0]).d
            assert residual == abs(solved - target) / target
            assert residual <= 1e-12

    def test_triangle_with_one_positive_side_fails_the_round_trip(self, monkeypatch):
        trips = self._round_trips(monkeypatch, seed=0, n_min=3, n_max=3)
        for _, sides, residual in trips:
            assert len(sides) == 2 and sides.count(0.0) == 1
            assert residual == math.inf


class TestNonFiniteResidual:
    """A nan or inf from any check is a failure, never a crash or a zero."""

    @pytest.mark.parametrize("d, bucket", [(math.nan, "nan"), (math.inf, "inf")])
    def test_failure_in_its_own_bucket(self, d, bucket, monkeypatch):
        solver_returning(d, monkeypatch)
        report = run_fuzz(FuzzConfig(trials=5, seed=3))
        assert len(report.failures) == 5
        for failure in report.failures:
            assert " check=solver round trip " in failure.description
            assert not math.isfinite(failure.residual)
        assert list(report.histogram)[-1] == bucket
        assert report.histogram[bucket] == 5
