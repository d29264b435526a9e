"""Helpers that several test modules share.

pytest does not collect this module (it has no ``test_`` prefix); tests
import it by name, as ``references``.
"""

import contextlib
import io
import math
import re
from pathlib import Path

from hypothesis import strategies as st

from semichord import CentralAngles, SemichordError, SplitMix64, cli, fuzz

#: The package source, for a child process's PYTHONPATH.
SRC = Path(__file__).resolve().parents[1] / "src"

#: A non-finite number as Python, JSON or the text format would spell it.
NONFINITE_TOKEN = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def run(argv):
    """Exit status, stdout and stderr of one in-process ``cli.main`` call.

    Status 2 is argparse rejecting the line: its ``SystemExit`` is caught.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


def outcome(build, *args):
    """What ``build(*args)`` returns, or the class, code and message it raises.

    Only a ``SemichordError`` is caught: any other exception fails the
    test that asked.
    """
    try:
        return build(*args)
    except SemichordError as error:
        return type(error), error.code, str(error)


class Draws(SplitMix64):
    """A generator that returns chosen draws: floats in turn, and one index."""

    def __init__(self, floats, below=0):
        super().__init__(0)
        self.floats = iter(floats)
        self.below = below

    def next_positive_float(self):
        return next(self.floats)

    def next_below(self, n):
        return self.below


def solver_returning(d, monkeypatch):
    """Make every fuzz round trip solve its sides to ``d``.

    The fake returns ``solver._solve``'s six items: the sides, d, a zero
    residual, no steps, a g that is 0 everywhere and the largest side.
    """
    monkeypatch.setattr(
        fuzz, "_solve", lambda sides: (tuple(sides), d, 0.0, 0, lambda t: 0.0, max(sides))
    )


@st.composite
def arc_partitions(draw, max_n, min_weight, min_n=3):
    """Arcs of pi in n - 1 parts, n in [min_n, max_n], weighted from [min_weight, 1]."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    weights = draw(
        st.lists(
            st.floats(min_value=min_weight, max_value=1.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    total = math.fsum(weights)
    return CentralAngles(math.pi * w / total for w in weights)


radii = st.floats(min_value=1e-3, max_value=1e3)
