"""Tests for the command-line surface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from semichord import FuzzConfig, cli, run_fuzz
from semichord.cli import _to_json, main

SQRT2 = math.sqrt(2.0)

SRC = Path(__file__).resolve().parents[1] / "src"

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestVerify:
    def test_sides_thales(self, capsys):
        code, doc = run_json(capsys, "verify", "3,4")
        assert code == 0
        assert doc["status"] == "ok"
        identity = doc["payload"]["identity"]
        assert identity["lhs"] == pytest.approx(25.0, rel=1e-12)
        assert identity["rhs"] == pytest.approx(25.0, rel=1e-12)
        assert identity["residual_rel"] <= 1e-12

    def test_counterexample_sides_inscribable_variant(self, capsys):
        code, doc = run_json(
            capsys, "verify", "1.4142135624,5.2360679775,0.7639320225"
        )
        assert code == 0
        assert doc["payload"]["diameter"] == pytest.approx(5.6568542495, abs=1e-8)
        assert doc["payload"]["identity"]["residual_rel"] <= 1e-11

    def test_arcs_in_degrees(self, capsys):
        code, doc = run_json(capsys, "verify", "90,90", "--radius", "1")
        assert code == 0
        assert doc["payload"]["identity"]["lhs"] == pytest.approx(4.0, rel=1e-12)
        assert doc["payload"]["identity"]["residual_rel"] <= 1e-12

    def test_parse_error(self, capsys):
        code, doc = run_json(capsys, "verify", "3,four")
        assert code == 1
        assert doc["status"] == "error"
        assert doc["payload"]["code"] == "parse"

    def test_geometry_error_passes_through(self, capsys):
        code, doc = run_json(capsys, "verify", "10,20", "--radius", "1")
        assert code == 1
        assert doc["payload"]["code"] == "invalid_angles"


class TestSolve:
    def test_thales(self, capsys):
        code, doc = run_json(capsys, "solve", "3,4")
        assert code == 0
        assert doc["payload"]["d"] == pytest.approx(5.0, abs=1e-12)

    def test_half_hexagon(self, capsys):
        code, doc = run_json(capsys, "solve", "1,1,1")
        assert code == 0
        assert doc["payload"]["d"] == pytest.approx(2.0, abs=1e-12)

    def test_3_4_5(self, capsys):
        code, doc = run_json(capsys, "solve", "3,4,5")
        assert code == 0
        assert doc["payload"]["d"] == pytest.approx(8.055810359525175, rel=1e-12)

    def test_domain_error_exit_code(self, capsys):
        code, doc = run_json(capsys, "solve", "3")
        assert code == 1
        assert doc["payload"]["code"] == "domain"

    def test_no_numbers_is_a_parse_error(self, capsys):
        code, doc = run_json(capsys, "solve", ",")
        assert code == 1
        assert doc["payload"]["code"] == "parse"


class TestConstruct:
    def test_all_equal(self, capsys):
        code, doc = run_json(capsys, "construct", "1,1,1")
        assert code == 0
        assert doc["payload"]["count"] == 1
        assert doc["payload"]["d"] == pytest.approx(2.0, abs=1e-12)

    def test_two_equal(self, capsys):
        code, doc = run_json(capsys, "construct", "1,1,2")
        assert code == 0
        assert doc["payload"]["count"] == 2

    def test_distinct(self, capsys):
        code, doc = run_json(capsys, "construct", "3,4,5")
        assert code == 0
        assert doc["payload"]["count"] == 3
        assert doc["payload"]["d"] == pytest.approx(8.055810359525175, rel=1e-12)
        middles = sorted(a["middle_side"] for a in doc["payload"]["arrangements"])
        assert middles == [3.0, 4.0, 5.0]

    def test_wrong_arity(self, capsys):
        code, doc = run_json(capsys, "construct", "1,2")
        assert code == 1
        assert doc["payload"]["code"] == "parse"


class TestCounterexample:
    def test_payload(self, capsys):
        code, doc = run_json(capsys, "counterexample")
        assert code == 0
        payload = doc["payload"]
        assert payload["relation_holds"] is True
        assert 0.33 <= payload["off_circle_distance"] <= 0.34
        assert payload["inscribable_variant_d"] == pytest.approx(
            4.0 * SQRT2, rel=1e-11
        )


class TestFuzzCommand:
    def test_identical_flags_identical_bytes(self, capsys):
        args = ("fuzz", "--trials", "150", "--seed", "42")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_single_triangle_trial(self, capsys):
        code, doc = run_json(
            capsys, "fuzz", "--trials", "1", "--n-min", "3", "--n-max", "3"
        )
        assert code == 0
        assert doc["payload"]["failures"] == []
        assert doc["payload"]["trials_run"] == 1

    def test_stable_key_names(self, capsys):
        _, doc = run_json(capsys, "fuzz", "--trials", "5")
        payload = doc["payload"]
        for key in ("trials_run", "worst_residual_rel", "failures", "histogram"):
            assert key in payload

    def test_text_format_carries_same_keys(self, capsys):
        code, out = run_cli(capsys, "fuzz", "--trials", "5", "--format", "text")
        assert code == 0
        assert "payload.trials_run = 5" in out
        assert "payload.worst_residual_rel" in out


    def test_flag_defaults_are_the_config_defaults(self, capsys):
        code, doc = run_json(capsys, "fuzz", "--trials", "3")
        assert code == 0
        expected = asdict(run_fuzz(FuzzConfig(trials=3)))
        assert doc["payload"] == json.loads(_to_json(expected))

    def test_flag_table_names_every_config_field(self):
        assert list(FUZZ_FLAGS) == [f.name for f in fields(FuzzConfig)]

    @pytest.mark.parametrize("field", FUZZ_FLAGS)
    def test_each_flag_reaches_its_config_field(self, capsys, monkeypatch, field):
        flag, text, value = FUZZ_FLAGS[field]
        one_trial = run_fuzz(FuzzConfig(trials=1))
        seen = []
        monkeypatch.setattr(cli, "run_fuzz", lambda config: seen.append(config) or one_trial)
        code, _ = run_cli(capsys, "fuzz", flag, text)
        assert code == 0
        assert seen == [replace(FuzzConfig(), **{field: value})]


class TestRender:
    def test_deterministic_bytes(self, capsys, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        code1, _ = run_cli(capsys, "render", "55,55,70", "--radius", "4", "--out", str(first))
        code2, _ = run_cli(capsys, "render", "55,55,70", "--radius", "4", "--out", str(second))
        assert code1 == code2 == 0
        assert first.read_bytes() == second.read_bytes()

    def test_quadrilateral_has_one_diagonal_pair(self, capsys, tmp_path):
        out = tmp_path / "quad.svg"
        run_cli(capsys, "render", "55,55,70", "--radius", "4", "--out", str(out))
        text = out.read_text()
        assert text.startswith("<?xml")
        assert text.rstrip().endswith("</svg>")
        assert text.count("stroke-dasharray") == 2  # the crossing pair

    def test_sides_input_half_hexagon(self, capsys, tmp_path):
        out = tmp_path / "hex.svg"
        code, doc = run_json(capsys, "render", "1,1,1", "--out", str(out))
        assert code == 0
        assert doc["payload"]["n"] == 4
        assert out.exists()

    def test_triangle_has_no_diagonals(self, capsys, tmp_path):
        out = tmp_path / "tri.svg"
        run_cli(capsys, "render", "3,4", "--out", str(out))
        assert "stroke-dasharray" not in out.read_text()

    def test_write_failure(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.svg"
        code, doc = run_json(capsys, "render", "3,4", "--out", str(target))
        assert code == 1
        assert doc["payload"]["code"] == "write"


class TestFormatting:
    def test_fifteen_significant_digits(self, capsys):
        from semichord import solve_diameter

        _, doc = run_json(capsys, "solve", "3,4,5")
        exact = solve_diameter([3.0, 4.0, 5.0]).d
        assert doc["payload"]["d"] == float(format(exact, ".15g"))

    def test_text_format_round_trips_status(self, capsys):
        code, out = run_cli(capsys, "solve", "3,4", "--format", "text")
        assert code == 0
        assert "status = ok" in out
        assert "payload.d = 5" in out


class TestClosedStdout:
    def test_reader_gone_exits_1_without_a_traceback(self):
        child = subprocess.Popen(
            [sys.executable, "-m", "semichord.cli", "construct", "3,4,5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        # Closed before the child can print, so its write meets no reader.
        child.stdout.close()
        _, stderr = child.communicate(timeout=60)
        assert stderr == b""
        assert child.returncode == 1
