"""Tests for the command-line surface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace

import pytest

from support import NONFINITE_TOKEN, SRC, run, solver_returning
from semichord import (
    CentralAngles,
    CounterexampleReport,
    FuzzConfig,
    cli,
    counterexample_report,
    evaluate_general,
    run_fuzz,
    solve_diameter,
    vertices_from_angles,
)
from semichord.cli import _record, _to_json, main

SQRT2 = math.sqrt(2.0)

#: Non-finite leaves in each shape a record can hold them.
NONFINITE_RESIDUALS = [
    math.nan,
    {"d": math.nan},
    {"d": 1.0, "nested": {"values": [2.0, math.inf]}},
    {"pairs": [(1.0, -math.inf)]},
]

#: Each FuzzConfig field's public flag, a valid non-default value as typed
#: on the command line, and the value it must become in the config.
FUZZ_FLAGS = {
    "trials": ("--trials", "2", 2),
    "n_min": ("--n-min", "4", 4),
    "n_max": ("--n-max", "5", 5),
    "radius_min": ("--radius-min", "1.5", 1.5),
    "radius_max": ("--radius-max", "2.5", 2.5),
    "seed": ("--seed", "7", 7),
    "tolerance_rel": ("--tolerance", "1e-8", 1e-8),
}


def run_json(*argv):
    code, out, _ = run(argv)
    return code, json.loads(out)


#: The command line's contract: each argv's exit status and, on an error
#: document, its payload code.  Status 2 is argparse rejecting the line.
#: Output paths are relative, so they land in the test's working directory.
CONTRACT = [
    ("construct 3,4,5", 0, None),
    ("counterexample", 0, None),
    ("verify 3,4,5,6", 0, None),
    ("solve 2,2,2", 0, None),
    ("solve 1e-310,1e-310", 0, None),
    ("render 3,4,5 --out sides.svg", 0, None),
    ("solve 1,x", 1, "parse"),
    ("solve ,", 1, "parse"),
    ("verify 3,four", 1, "parse"),
    # A parse error names the item by its position, not by the text,
    # which may hold a nan or inf.
    ("solve nan,x", 1, "parse"),
    ("verify inf,q --radius 1", 1, "parse"),
    ("construct 1,2", 1, "parse"),
    ("solve 3", 1, "domain"),
    ("verify 1,2 --radius 2", 1, "invalid_angles"),
    ("verify 10,20 --radius 1", 1, "invalid_angles"),
    ("render 3,4 --out missing/x.svg", 1, "write"),
    # nan and inf as a side, an arc, a radius or a fuzz setting.
    ("construct 1,1,nan", 1, "domain"),
    ("construct inf,1,1", 1, "domain"),
    ("construct 1,nan,1", 1, "domain"),
    ("solve nan,1", 1, "domain"),
    ("solve inf,1", 1, "domain"),
    ("solve 1,nan,2", 1, "domain"),
    ("verify nan,1", 1, "domain"),
    ("verify nan,90,90 --radius 1", 1, "invalid_angles"),
    ("verify inf,90 --radius 1", 1, "invalid_angles"),
    ("verify 90,90 --radius nan", 1, "domain"),
    ("verify 90,90 --radius inf", 1, "domain"),
    ("render 90,90 --radius nan --out d.svg", 1, "domain"),
    ("fuzz --trials 5 --tolerance nan", 1, "domain"),
    ("fuzz --trials 2 --tolerance inf", 1, "domain"),
    ("fuzz --trials 2 --radius-max inf", 1, "domain"),
    # Sides whose diameter overflows, in both root finders.
    ("solve 1e308,1e308,1e308", 1, "domain"),
    ("construct 1e308,1e308,1e308", 1, "domain"),
    # d rounds to the largest float, but the arc sum there exceeds pi:
    # no finite bracket end, so the same overflow rule.
    ("solve 1.7976931348623157e308,1e300", 1, "domain"),
    # A side equal to d: t0 = 1 on the vertical tangent, where d comes
    # in closed form after 0 steps.
    ("solve 1,1e-9", 0, None),
    # An arc that underflows to 0: the zero-arc rule where
    # inscribe_from_sides builds its partition.
    ("verify 5e-324,4", 1, "invalid_angles"),
    # The same rule where enumerate_incongruent_quads builds its
    # partitions: two underflowed arcs fail it, one leaves two positive.
    ("construct 5e-324,5e-324,4", 1, "invalid_angles"),
    ("construct 5e-324,2,2", 0, None),
    # Near-degenerate partitions the complement-sign and two-positive-arc
    # rules must still accept, in both callers, with the widest side
    # last, in the middle and first.
    ("construct 1,1e-300,1e-300", 0, None),
    ("verify 1e-300,1", 0, None),
    ("verify 1,1e-300", 0, None),
    # Radii and diameters at and past the edges of the identity's window.
    ("verify 30,60,90 --radius 1e-120", 1, "domain"),
    ("verify 30,60,90 --radius 1e-312", 1, "domain"),
    ("verify 90,90 --radius 1e-320", 1, "domain"),
    ("verify 1e-320,1e-320", 1, "domain"),
    ("verify 5e-324,5e-324", 1, "domain"),
    ("render 90,90 --radius 1e308 --out inf.svg", 1, "domain"),
    ("render 30,60,90 --radius 1e-300 --out tiny.svg", 0, None),
    ("render 30,60,90 --radius 1e-312 --out sub.svg", 1, "domain"),
    ("render 5e-324,5e-324 --out sub2.svg", 1, "domain"),
    ("fuzz --trials 50 --radius-max 1e120", 1, "domain"),
    ("fuzz --trials 200 --n-max 64", 0, None),
    # n = 64 only: every trial draws the widest block, 65 lanes.
    ("fuzz --trials 200 --n-min 64 --n-max 64", 0, None),
    ("fuzz --trials 200 --n-min 4 --n-max 4", 0, None),
    ("fuzz --trials 2000 --n-min 3 --n-max 3 --seed 1", 0, None),
    # argparse reads a leading minus as an option until -- ends them.
    ("solve -1,2", 2, None),
    ("solve -- -1,2", 1, "domain"),
    ("verify 1,2 --radius abc", 2, None),
    ("solve", 2, None),
]


def _check_row(argv, status, code):
    """A strict, finite document whose status agrees with the exit status.

    On status 2, an empty stdout and argparse's usage message on stderr.
    An error document also holds in the text format, and neither format
    writes a file into the working directory.
    """
    got, out, err = run(argv)
    assert got == status, out + err
    if status == 2:
        assert out == ""
        assert "usage:" in err and "Traceback" not in err
        return
    assert err == ""
    doc = json.loads(out, parse_constant=pytest.fail)
    assert not NONFINITE_TOKEN.search(out), out
    assert doc["status"] == ("ok" if status == 0 else "error")
    assert doc["payload"].get("code") == code
    if status == 1:
        got, out, _ = run([argv[0], "--format", "text", *argv[1:]])
        assert got == 1 and not NONFINITE_TOKEN.search(out), out
        assert {"status = error", f"payload.code = {code}"} <= set(out.splitlines())
        assert os.listdir() == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("line, status, code", CONTRACT)
def test_contract(line, status, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check_row(line.split(), status, code)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("residual", NONFINITE_RESIDUALS)
def test_non_finite_payload_is_a_domain_error(residual, tmp_path, monkeypatch):
    """A payload holding nan or inf is the ``counterexample 1 domain`` row.

    No command line reaches one, so ``counterexample`` is fed a report
    whose residual field holds each shape; ``cli._record`` reads it into
    the payload with every leaf unchanged.
    """
    report = CounterexampleReport(True, residual, 0.0, 1.0)
    monkeypatch.setattr(cli, "counterexample_report", lambda: report)
    monkeypatch.chdir(tmp_path)
    _check_row(["counterexample"], 1, "domain")


@pytest.mark.filterwarnings("error")
def test_non_finite_round_trip_is_a_domain_error(tmp_path, monkeypatch):
    """A fuzz round trip that solves to nan is the ``fuzz --trials 5`` ``1:domain`` row.

    No real solve gives nan, so the solver is faked; the report then
    holds a nan residual, which the payload must not carry.
    """
    solver_returning(math.nan, monkeypatch)
    monkeypatch.chdir(tmp_path)
    _check_row(["fuzz", "--trials", "5"], 1, "domain")


@pytest.mark.parametrize("line", ["construct 3,4,5", "solve 1,x", "verify 1,2 --radius abc"])
def test_entry_point_prints_what_main_prints(line, monkeypatch):
    # argparse wraps its usage message to COLUMNS in both processes.
    monkeypatch.setenv("COLUMNS", "80")
    argv = line.split()
    child = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "semichord.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert (child.returncode, child.stdout, child.stderr) == run(argv)


class TestRecordReader:
    """``cli._record`` gives ``dataclasses.asdict``'s tree without its copies.

    Compared by ``repr``, which also tells key order, tuple from list,
    -0.0 from 0.0 and nan from any number apart.
    """

    @staticmethod
    def _check(record):
        assert repr(_record(record)) == repr(asdict(record))

    def test_identity_reports(self):
        for n in range(3, 65):
            angles = CentralAngles([math.pi / (n - 1)] * (n - 1))
            report = evaluate_general(vertices_from_angles(angles, 1.5))
            assert len(report.cross_terms) == n - 3
            self._check(report)

    def test_diameter_solution(self):
        self._check(solve_diameter([3.0, 4.0, 5.0, 6.0]))

    @pytest.mark.parametrize("residual", NONFINITE_RESIDUALS)
    def test_counterexample_reports(self, residual):
        self._check(counterexample_report())
        self._check(CounterexampleReport(True, residual, -0.0, 1.0))

    def test_fuzz_report_with_failures(self):
        report = run_fuzz(FuzzConfig(trials=20, tolerance_rel=1e-17))
        assert report.failures
        self._check(report)


class TestVerify:
    def test_sides_thales(self):
        code, doc = run_json("verify", "3,4")
        assert code == 0
        assert doc["status"] == "ok"
        identity = doc["payload"]["identity"]
        assert identity["lhs"] == pytest.approx(25.0, rel=1e-12)
        assert identity["rhs"] == pytest.approx(25.0, rel=1e-12)
        assert identity["residual_rel"] <= 1e-12

    def test_counterexample_sides_inscribable_variant(self):
        code, doc = run_json("verify", "1.4142135624,5.2360679775,0.7639320225")
        assert code == 0
        assert doc["payload"]["diameter"] == pytest.approx(5.6568542495, abs=1e-8)
        assert doc["payload"]["identity"]["residual_rel"] <= 1e-11

    def test_arcs_in_degrees(self):
        code, doc = run_json("verify", "90,90", "--radius", "1")
        assert code == 0
        assert doc["payload"]["identity"]["lhs"] == pytest.approx(4.0, rel=1e-12)
        assert doc["payload"]["identity"]["residual_rel"] <= 1e-12


class TestSolve:
    def test_thales(self):
        code, doc = run_json("solve", "3,4")
        assert code == 0
        assert doc["payload"]["d"] == pytest.approx(5.0, abs=1e-12)

    def test_half_hexagon(self):
        code, doc = run_json("solve", "1,1,1")
        assert code == 0
        assert doc["payload"]["d"] == pytest.approx(2.0, abs=1e-12)

    def test_3_4_5(self):
        code, doc = run_json("solve", "3,4,5")
        assert code == 0
        assert doc["payload"]["d"] == pytest.approx(8.055810359525175, rel=1e-12)


class TestConstruct:
    def test_all_equal(self):
        code, doc = run_json("construct", "1,1,1")
        assert code == 0
        assert doc["payload"]["count"] == 1
        assert doc["payload"]["d"] == pytest.approx(2.0, abs=1e-12)

    def test_two_equal(self):
        code, doc = run_json("construct", "1,1,2")
        assert code == 0
        assert doc["payload"]["count"] == 2

    def test_distinct(self):
        code, doc = run_json("construct", "3,4,5")
        assert code == 0
        assert doc["payload"]["count"] == 3
        assert doc["payload"]["d"] == pytest.approx(8.055810359525175, rel=1e-12)
        middles = sorted(a["middle_side"] for a in doc["payload"]["arrangements"])
        assert middles == [3.0, 4.0, 5.0]


class TestCounterexample:
    def test_payload(self):
        code, doc = run_json("counterexample")
        assert code == 0
        payload = doc["payload"]
        assert payload["relation_holds"] is True
        assert 0.33 <= payload["off_circle_distance"] <= 0.34
        assert payload["inscribable_variant_d"] == pytest.approx(
            4.0 * SQRT2, rel=1e-11
        )


class TestFuzzCommand:
    def test_identical_flags_identical_bytes(self):
        args = ("fuzz", "--trials", "150", "--seed", "42")
        code1, out1, _ = run(args)
        code2, out2, _ = run(args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_single_triangle_trial(self):
        code, doc = run_json(
            "fuzz", "--trials", "1", "--n-min", "3", "--n-max", "3"
        )
        assert code == 0
        assert doc["payload"]["failures"] == []
        assert doc["payload"]["trials_run"] == 1

    def test_stable_key_names(self):
        _, doc = run_json("fuzz", "--trials", "5")
        payload = doc["payload"]
        for key in ("trials_run", "worst_residual_rel", "failures", "histogram"):
            assert key in payload

    def test_text_format_carries_same_keys(self):
        code, out, _ = run(["fuzz", "--trials", "5", "--format", "text"])
        assert code == 0
        assert "payload.trials_run = 5" in out
        assert "payload.worst_residual_rel" in out


    def test_flag_defaults_are_the_config_defaults(self):
        code, doc = run_json("fuzz", "--trials", "3")
        assert code == 0
        expected = asdict(run_fuzz(FuzzConfig(trials=3)))
        assert doc["payload"] == json.loads(_to_json(expected))

    def test_flag_table_names_every_config_field(self):
        assert list(FUZZ_FLAGS) == [f.name for f in fields(FuzzConfig)]

    @pytest.mark.parametrize("field", FUZZ_FLAGS)
    def test_each_flag_reaches_its_config_field(self, monkeypatch, field):
        flag, text, value = FUZZ_FLAGS[field]
        one_trial = run_fuzz(FuzzConfig(trials=1))
        seen = []
        monkeypatch.setattr(cli, "run_fuzz", lambda config: seen.append(config) or one_trial)
        code = run(["fuzz", flag, text])[0]
        assert code == 0
        assert seen == [replace(FuzzConfig(), **{field: value})]


class TestRender:
    def test_deterministic_bytes(self, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        code1 = run(["render", "55,55,70", "--radius", "4", "--out", str(first)])[0]
        code2 = run(["render", "55,55,70", "--radius", "4", "--out", str(second)])[0]
        assert code1 == code2 == 0
        assert first.read_bytes() == second.read_bytes()

    def test_quadrilateral_has_one_diagonal_pair(self, tmp_path):
        out = tmp_path / "quad.svg"
        run(["render", "55,55,70", "--radius", "4", "--out", str(out)])
        text = out.read_text()
        assert text.startswith("<?xml")
        assert text.rstrip().endswith("</svg>")
        assert text.count("stroke-dasharray") == 2  # the crossing pair

    def test_sides_input_half_hexagon(self, tmp_path):
        out = tmp_path / "hex.svg"
        code, doc = run_json("render", "1,1,1", "--out", str(out))
        assert code == 0
        assert doc["payload"]["n"] == 4
        assert out.exists()

    def test_triangle_has_no_diagonals(self, tmp_path):
        out = tmp_path / "tri.svg"
        run(["render", "3,4", "--out", str(out)])
        assert "stroke-dasharray" not in out.read_text()


class TestFormatting:
    def test_fifteen_significant_digits(self):
        from semichord import solve_diameter

        _, doc = run_json("solve", "3,4,5")
        exact = solve_diameter([3.0, 4.0, 5.0]).d
        assert doc["payload"]["d"] == float(format(exact, ".15g"))

    def test_text_format_round_trips_status(self):
        code, out, _ = run(["solve", "3,4", "--format", "text"])
        assert code == 0
        assert "status = ok" in out
        assert "payload.d = 5" in out


def _closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv", [["construct", "3,4,5"], ["solve", "1,x"]], ids=["ok", "error"]
    )
    def test_reader_gone_exits_1_without_a_traceback(self, argv):
        # An ok document and an error document meet the same closed pipe.
        write_end = _closed_pipe()
        try:
            child = subprocess.run(
                [sys.executable, "-m", "semichord.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert child.stderr == b""
        assert child.returncode == 1

    def test_reader_gone_in_process_points_stdout_at_devnull(self, monkeypatch):
        with os.fdopen(_closed_pipe(), "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["construct", "3,4,5"]) == 1
            # The descriptor now writes to devnull, so a second flush succeeds.
            print("more", file=stream, flush=True)
