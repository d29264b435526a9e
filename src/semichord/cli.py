"""Command-line surface: verify, solve, construct, counterexample, fuzz, render.

Side and arc lists are comma-separated positional arguments.  A list is
read as arc degrees when --radius is present and as side lengths
otherwise.  Payloads are emitted as JSON by default (or flat key=value
text via --format text) with floats printed to 15 significant digits,
so identical inputs produce byte-identical output.

Each subcommand's parser carries its handler, which returns a payload
and a one-line summary; ``main`` puts them, or a coded error, into the
single ``{status, human_summary, payload}`` document it prints.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, is_dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from math import dist, isfinite, radians
from typing import Any, Callable, Sequence

from .errors import DomainError, ParseError, SemichordError, WriteError
from .fuzz import FuzzConfig, run_fuzz
from .geometry import CentralAngles, InscribedPolygon, diagonal, vertices_from_angles
from .identity import evaluate_general
from .quads import counterexample_report, enumerate_incongruent_quads
from .quads import diameter_cubic  # noqa: F401  (rebound here by bench/spans.py)
from .solver import inscribe_from_sides, solve_diameter
from .svg import polygon_svg

#: What every handler returns: its payload and a one-line human summary.
_Result = tuple[dict[str, Any], str]


def _parse_values(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ParseError(f"no numbers found in {text!r}")
    values: list[float] = []
    try:
        for part in items:
            values.append(float(part))
    except ValueError as exc:
        # Named by position: the text may hold a nan or inf.
        position = len(values) + 1
        raise ParseError(f"item {position} of the number list is not a number") from exc
    return values


def _polygon_from_args(values: str, radius: float | None) -> InscribedPolygon:
    numbers = _parse_values(values)
    if radius is not None:
        angles = CentralAngles([radians(v) for v in numbers])
        return vertices_from_angles(angles, radius)
    return inscribe_from_sides(numbers)


@cache
def _field_names(kind: type) -> tuple[str, ...] | None:
    """The field names of dataclass ``kind`` in field order; None for other types."""
    return tuple(f.name for f in fields(kind)) if is_dataclass(kind) else None


def _record(value: Any) -> Any:
    """``dataclasses.asdict(value)``, without its deep copy of every leaf.

    A dataclass becomes a dict of its fields in field order, and tuples,
    lists and dicts are rebuilt around their read items.  Any other value
    is returned as it is: records hold floats, ints, bools and strs,
    which ``asdict``'s copy returns unchanged.
    """
    kind = type(value)
    if kind is float or kind is int:
        return value
    if kind is tuple or kind is list:
        return kind([_record(v) for v in value])
    if kind is dict:
        return {_record(k): _record(v) for k, v in value.items()}
    names = _field_names(kind)
    if names is None:
        return value
    return {name: _record(getattr(value, name)) for name in names}


def _cmd_verify(args: argparse.Namespace) -> _Result:
    poly = _polygon_from_args(args.values, args.radius)
    report = evaluate_general(poly)
    return (
        {"diameter": diagonal(poly, 0, poly.n - 1), "identity": _record(report)},
        f"n={report.n} lhs={report.lhs:.15g} rhs={report.rhs:.15g} "
        f"residual_rel={report.residual_rel:.3e}",
    )


def _cmd_solve(args: argparse.Namespace) -> _Result:
    solution = solve_diameter(_parse_values(args.values))
    return (
        _record(solution),
        f"d={solution.d:.15g} after {solution.iterations} iterations "
        f"(arc-sum residual {solution.arc_sum_residual:.3e})",
    )


def _cmd_construct(args: argparse.Namespace) -> _Result:
    values = _parse_values(args.values)
    if len(values) != 3:
        raise ParseError(f"construct needs exactly 3 sides, got {len(values)}")
    arrangements = enumerate_incongruent_quads(*values)
    d = arrangements[0].d
    placed = []
    for arr in arrangements:
        v = arr.polygon.vertices
        placed.append(
            {
                "ordered_sides": arr.ordered_sides,
                "middle_side": arr.middle_side,
                # What diagonal(arr.polygon, i, j) returns, less its index checks.
                "diagonals": {"first": dist(v[0], v[2]), "second": dist(v[1], v[3])},
                "vertices": v,
            }
        )
    payload = {"d": d, "count": len(arrangements), "arrangements": placed}
    return payload, f"{len(arrangements)} arrangement(s) sharing diameter {d:.15g}"


def _cmd_counterexample(args: argparse.Namespace) -> _Result:
    report = counterexample_report()
    return (
        _record(report),
        f"relation_holds={report.relation_holds} "
        f"off_circle_distance={report.off_circle_distance:.6g} "
        f"inscribable_variant_d={report.inscribable_variant_d:.15g}",
    )


def _cmd_fuzz(args: argparse.Namespace) -> _Result:
    config = FuzzConfig(**{f.name: getattr(args, f.name) for f in fields(FuzzConfig)})
    report = run_fuzz(config)
    return (
        _record(report),
        f"{report.trials_run} trials, worst residual {report.worst_residual_rel:.3e}, "
        f"{len(report.failures)} failure(s)",
    )


def _cmd_render(args: argparse.Namespace) -> _Result:
    poly = _polygon_from_args(args.values, args.radius)
    document = polygon_svg(poly)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(document)
    except OSError as exc:
        raise WriteError(f"could not write {args.out!r}: {exc}") from exc
    return (
        {"out": args.out, "bytes": len(document.encode("utf-8")), "n": poly.n},
        f"wrote {args.out} ({poly.n} vertices)",
    )


def _format_float(value: float) -> str:
    if not isfinite(value):
        raise DomainError("payload holds a non-finite number")
    return format(value, ".15g")


def _to_json(value: Any) -> str:
    """Indented JSON in one walk that appends to a single list.

    Dispatches on exact type: payloads are trees of dicts, lists, tuples
    and leaves, records read by ``_record``, and any type not listed is
    written as its quoted ``str``.
    """
    parts: list[str] = []
    emit = parts.append

    def walk(value: Any, newline: str) -> None:
        kind = type(value)
        if kind is float:
            emit(_format_float(value))
        elif kind is dict:
            inner = newline + "  "
            sep, comma = "{" + inner, "," + inner
            for k, v in value.items():
                emit(sep + encode_basestring_ascii(str(k)) + ": ")
                walk(v, inner)
                sep = comma
            emit(newline + "}" if value else "{}")
        elif kind is list or kind is tuple:
            inner = newline + "  "
            sep, comma = "[" + inner, "," + inner
            for v in value:
                emit(sep)
                walk(v, inner)
                sep = comma
            emit(newline + "]" if value else "[]")
        elif kind is bool:
            emit("true" if value else "false")
        elif kind is int:
            emit(str(value))
        else:
            emit(encode_basestring_ascii(str(value)))

    walk(value, "\n")
    return "".join(parts)


def _to_text(value: Any) -> str:
    """Flat ``key = value`` lines, one per leaf; an empty list is a leaf."""
    lines: list[str] = []

    def walk(value: Any, prefix: str) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{prefix}.{k}" if prefix else str(k))
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                walk(v, f"{prefix}[{i}]")
            if not value:
                lines.append(f"{prefix} = []")
        elif isinstance(value, bool):
            lines.append(f"{prefix} = {'true' if value else 'false'}")
        elif isinstance(value, float):
            lines.append(f"{prefix} = {_format_float(value)}")
        else:
            lines.append(f"{prefix} = {value}")

    walk(value, "")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semichord",
        description="Identities, solvers and constructions for polygons "
        "inscribed in a semicircle whose longest side is the diameter.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="payload format (default: json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(
        name: str, handler: Callable[..., _Result], summary: str, values: str = ""
    ) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        if values:
            p.add_argument("values", help=values)
        return p

    sides_or_arcs = "sides, or arc degrees when --radius is given"
    radius_help = "treat values as arc degrees on this radius"
    p = command("verify", _cmd_verify, "evaluate the squared-diameter identity", sides_or_arcs)
    p.add_argument("--radius", type=float, default=None, help=radius_help)
    command(
        "solve", _cmd_solve, "diameter from side lengths",
        "comma-separated side lengths (at least 2)",
    )
    command(
        "construct", _cmd_construct, "incongruent inscribed quadrilaterals from 3 sides",
        "comma-separated side lengths (exactly 3)",
    )
    command(
        "counterexample", _cmd_counterexample,
        "check the built-in non-inscribable quadrilateral",
    )

    p = command("fuzz", _cmd_fuzz, "seeded randomized verification")
    for f in fields(FuzzConfig):
        flag = "tolerance" if f.name == "tolerance_rel" else f.name
        p.add_argument(
            "--" + flag.replace("_", "-"),
            type=type(f.default), default=f.default, dest=f.name, metavar=flag.upper(),
        )

    p = command("render", _cmd_render, "write an SVG diagram", sides_or_arcs)
    p.add_argument("--radius", type=float, default=None, help=radius_help)
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every ``main`` call: ``parse_args`` never mutates it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    render = _to_text if args.format == "text" else _to_json
    document = {"status": "ok", "human_summary": "", "payload": {}}
    try:
        document["payload"], document["human_summary"] = args.handler(args)
        # Rendered inside the try so a nan or inf in the payload is a domain error.
        output = render(document)
    except SemichordError as exc:
        code = exc.code
        document.update(
            status="error",
            human_summary=f"error ({code}): {exc}",
            payload={"code": code, "message": str(exc)},
        )
        output = render(document)
    try:
        # Flushed here so that a reader gone away raises inside the try.
        print(output, flush=True)
    except BrokenPipeError:
        # Python flushes stdout again at exit; point it at devnull so that
        # flush writes nowhere instead of raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if document["status"] == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
