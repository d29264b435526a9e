"""Tests for the seeded randomized verification harness."""

import json
import math

import pytest

from semichord import (
    DomainError,
    FuzzConfig,
    SplitMix64,
    corner_identity_residual,
    evaluate_general,
    nested_quadrilateral_check,
    random_angles,
    run_fuzz,
    side_lengths,
    solve_diameter,
)
from semichord import fuzz, solver
from semichord.cli import main

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

    def test_rejects_tiny_n(self):
        with pytest.raises(DomainError):
            random_angles(2, SplitMix64(0))

    def test_rejects_float_n(self):
        with pytest.raises(DomainError):
            random_angles(4.0, SplitMix64(0))


class TestFuzzConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"n_min": 2},
            {"n_max": 65},
            {"n_min": 10, "n_max": 5},
            {"radius_min": 0.0},
            {"radius_min": 2.0, "radius_max": 1.0},
            {"tolerance_rel": 0.0},
            # Radii whose diameters 2R leave the identity window 2^-330..2^330.
            {"radius_max": 1e120},
            {"radius_max": 2.0**330},
            {"radius_min": 2.0**-332},
            # Integer fields given a float.
            {"trials": 1e4},
            {"n_min": 3.0},
            {"n_max": 12.0},
            {"seed": 1.5},
            # bool is a subclass of int, but not an integer count or seed.
            {"trials": True},
            {"seed": False},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FuzzConfig(**kwargs)


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
        arc_total = solver._arc_total

        def counted(d, sides):
            passes.append(d)
            return arc_total(d, sides)

        monkeypatch.setattr(solver, "_arc_total", counted)
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


class TestNonFiniteResidual:
    """A nan or inf from any check is a failure, never a crash or a zero."""

    @staticmethod
    def _solver_returning(d, monkeypatch):
        # run_fuzz reads only d from the solver's (sides, d, residual, steps).
        monkeypatch.setattr(fuzz, "_solve", lambda sides: (sides, d, 0.0, 0))

    @pytest.mark.parametrize("d, bucket", [(math.nan, "nan"), (math.inf, "inf")])
    def test_failure_in_its_own_bucket(self, d, bucket, monkeypatch):
        self._solver_returning(d, monkeypatch)
        report = run_fuzz(FuzzConfig(trials=5, seed=3))
        assert len(report.failures) == 5
        for failure in report.failures:
            assert " check=solver round trip " in failure.description
            assert not math.isfinite(failure.residual)
        assert list(report.histogram)[-1] == bucket
        assert report.histogram[bucket] == 5

    def test_cli_reports_a_domain_error(self, monkeypatch, capsys):
        self._solver_returning(math.nan, monkeypatch)
        assert main(["fuzz", "--trials", "5"]) == 1
        out = capsys.readouterr().out
        assert "Traceback" not in out
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "domain"
