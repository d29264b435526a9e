"""``main`` builds its parser once per process and reuses it.

``argparse`` fills a new namespace on every ``parse_args`` call and never
mutates the parser, so one call's options cannot leak into the next.
Each case runs a command after another one in the same process and
checks that it prints the same bytes and exit status as when it runs on
a freshly built parser.
"""

import os
import subprocess
import sys

import pytest

from support import SRC, run
from semichord import cli


def fresh(argv):
    """``run`` on a newly built parser, as the first call in a process."""
    cli._parser.cache_clear()
    return run(argv)


CASES = {
    "radius_default_returns": (
        ["verify", "90,90", "--radius", "2"],
        ["verify", "3,4"],
    ),
    "seed_default_returns": (
        ["fuzz", "--trials", "3", "--seed", "5"],
        ["fuzz", "--trials", "3"],
    ),
    "format_default_returns": (
        ["construct", "3,4,5", "--format", "text"],
        ["construct", "3,4,5"],
    ),
    "after_rejected_argv": (
        ["solve", "3,4", "--no-such-flag"],
        ["solve", "3,4"],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_second_call_matches_a_first_call(name):
    first, second = CASES[name]
    expected_first, expected_second = fresh(first), fresh(second)

    cli._parser.cache_clear()
    assert run(first) == expected_first
    parser = cli._parser()
    assert run(second) == expected_second
    assert cli._parser() is parser


def test_rejected_argv_exits_2():
    assert fresh(["solve", "3,4", "--no-such-flag"])[:2] == (2, "")


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


def test_parser_is_not_built_at_import():
    probe = "import semichord.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "0"
