"""CLI output pinned byte for byte against the files in tests/golden/.

Each command's stdout is stored as ``<name>.out``; a command that writes
an SVG also stores it as ``<name>.svg``.  After an intended output
change, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and record the change in CHANGES.md.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

from support import run

GOLDEN = Path(__file__).parent / "golden"

SVG_NAME = "diagram.svg"

COMMANDS = {
    "solve_3_4": ["solve", "3,4"],
    "verify_55_55_70_radius_4": ["verify", "55,55,70", "--radius", "4"],
    "verify_55_55_70_radius_4_format_text": [
        "verify", "55,55,70", "--radius", "4", "--format", "text",
    ],
    "construct_3_4_5": ["construct", "3,4,5"],
    "construct_3_4_5_format_text": ["construct", "3,4,5", "--format", "text"],
    "construct_2_2_2": ["construct", "2,2,2"],
    "construct_1_2": ["construct", "1,2"],
    "counterexample": ["counterexample"],
    "fuzz_trials_200": ["fuzz", "--trials", "200"],
    "fuzz_trials_300_seed_7_n_max_64_tolerance_5e-16": [
        "fuzz", "--trials", "300", "--seed", "7", "--n-max", "64",
        "--tolerance", "5e-16",
    ],
    "fuzz_trials_3000_n_max_64_seed_9": [
        "fuzz", "--trials", "3000", "--n-max", "64", "--seed", "9",
    ],
    "render_55_55_70_radius_4": [
        "render", "55,55,70", "--radius", "4", "--out", SVG_NAME,
    ],
    "verify_3_4_5_6": ["verify", "3,4,5,6"],
    "render_3_4_5_6": ["render", "3,4,5,6", "--out", SVG_NAME],
}

#: Commands pinned on their error path; every other command exits 0.
EXIT_STATUS = {"construct_1_2": 1}


def run_command(name: str, workdir: Path) -> tuple[int, dict[str, bytes]]:
    """Exit status and output files of one command run inside ``workdir``."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        status, out, _ = run(COMMANDS[name])
    finally:
        os.chdir(previous)
    files = {f"{name}.out": out.encode("utf-8")}
    svg = workdir / SVG_NAME
    if svg.exists():
        files[f"{name}.svg"] = svg.read_bytes()
    return status, files


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, tmp_path):
    status, files = run_command(name, tmp_path)
    assert status == EXIT_STATUS.get(name, 0)
    expected = sorted(path.name for path in GOLDEN.glob(f"{name}.*"))
    assert sorted(files) == expected
    for filename, produced in files.items():
        assert produced == (GOLDEN / filename).read_bytes(), filename


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as workdir:
            status, files = run_command(name, Path(workdir))
        if status != EXIT_STATUS.get(name, 0):
            sys.exit(f"{name}: exit status {status}")
        for filename, produced in files.items():
            (GOLDEN / filename).write_bytes(produced)


if __name__ == "__main__":
    regenerate()
