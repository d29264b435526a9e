"""The README's usage examples run as written.

The "Library quick start" block is executed, and each ``semichord`` line
of the "Command line" block runs through ``cli.main`` and must exit 0.
"""

import re
import shlex
from pathlib import Path

import pytest

from semichord.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading: str) -> str:
    """The first fenced block under the ``## heading`` of the README."""
    text = README.read_text(encoding="utf-8")
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```\w*\n(.*?)^```", text, re.M | re.S)
    assert match, f"no fenced block under '## {heading}' in {README}"
    return match.group(1)


def _command_lines() -> list[str]:
    lines = [line.split("#")[0].strip() for line in _block("Command line").splitlines()]
    return [line for line in lines if line.startswith("semichord ")]


def test_library_quick_start_runs():
    exec(compile(_block("Library quick start"), str(README), "exec"), {})


def test_command_line_block_has_every_command():
    commands = {shlex.split(line)[1] for line in _command_lines()}
    assert commands == {"solve", "verify", "construct", "counterexample", "fuzz", "render"}


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_exits_zero(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        index = argv.index("--out") + 1
        argv[index] = str(tmp_path / argv[index])
    assert main(argv) == 0
    assert capsys.readouterr().out
    if "--out" in argv:
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0
