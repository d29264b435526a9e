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

from semichord import CentralAngles, cli

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
