"""Machine-speed reference for a shared, noisy host.

Every benchmark time is read from ``clock``, the calling thread's CPU
time.  For this single-threaded, CPU-bound package it equals wall time
on an idle machine, but it leaves out the spells in which the host runs
other tenants' work instead: on a shared host those spells fall on
about 1 % of calls and would decide the 99th percentile.

The interpreter's speed while it does run also drifts by tens of per
cent within a minute.  Each round of timed calls is therefore bracketed
by a short, fixed kernel that shares no code with the package.  The
round's times are scaled by ``REFERENCE_NS / kernel_ns`` (the mean of
the two bracketing kernel runs), so every gated time reads as it would
on a machine where the kernel takes exactly ``REFERENCE_NS``.  Unscaled
wall-clock values are kept beside the scaled ones in the run record.

The kernel has two halves because the host's drift does not slow all
code alike: a tight arithmetic loop, and a standard-library half that
builds and runs a small ``argparse`` parser and a ``json`` round trip,
the allocation- and call-heavy mix that dominates the CLI workload.  In
a trial on a 2-CPU shared x86-64 host under Python 3.11, the package's
round times divided by the two halves together varied by 1.6 % to 2.5 %
(relative standard deviation over 3 s windows), against up to 3.9 % for
either half alone.
"""

from __future__ import annotations

import argparse
import json
from time import thread_time_ns as clock

#: Kernel time on the reference machine; scaled times are relative to it.
REFERENCE_NS = 5_000_000


def _pair(a: float, b: float, c: float = 1.0) -> tuple[float, float]:
    return a * b + c, a - b


def _arithmetic() -> float:
    acc = 0.0
    table = {}
    for i in range(6000):
        acc += (i * 0.5) ** 0.5
        table[i & 255] = acc
    for i in range(4000):
        x, y = _pair(i * 1e-3, 2.0)
        acc += x * y
    return acc


def _stdlib() -> float:
    acc = 0.0
    for _ in range(4):
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="command")
        for name in ("alpha", "beta", "gamma"):
            command = sub.add_parser(name)
            command.add_argument("values")
            command.add_argument("--format", choices=("json", "text"), default="json")
        args = parser.parse_args(["beta", "1,2,3", "--format", "text"])
        values = [float(v) * 1.1 for v in args.values.split(",")]
        text = json.dumps({"status": "ok", "payload": {"values": values}}, indent=2)
        acc += sum(json.loads(text)["payload"]["values"])
    return acc


def kernel_ns() -> int:
    """Time of one run of the fixed kernel on ``clock`` (about 5 ms here)."""
    start = clock()
    acc = _arithmetic() + _stdlib()
    elapsed = clock() - start
    if acc != acc:  # keep the loops' results live
        raise ArithmeticError("reference kernel produced nan")
    return elapsed


def factor(before_ns: int, after_ns: int) -> float:
    """Scale for times measured between two kernel runs."""
    return REFERENCE_NS / (0.5 * (before_ns + after_ns))
