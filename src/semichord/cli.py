"""Command-line surface: verify, solve, construct, counterexample, fuzz, render.

Side and arc lists are comma-separated positional arguments.  A list is
read as arc degrees when --radius is present and as side lengths
otherwise.  Payloads are emitted as JSON by default (or flat key=value
text via --format text) with floats printed to 15 significant digits,
so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from functools import cache
from json.encoder import encode_basestring_ascii
from math import isfinite, radians
from typing import Any, Sequence

from .errors import DomainError, ParseError, SemichordError, WriteError
from .fuzz import FuzzConfig, run_fuzz
from .geometry import CentralAngles, InscribedPolygon, diagonal, vertices_from_angles
from .identity import evaluate_general
from .quads import counterexample_report, enumerate_incongruent_quads
from .quads import diameter_cubic  # noqa: F401  (rebound here by bench/spans.py)
from .solver import inscribe_from_sides, solve_diameter
from .svg import polygon_svg


@dataclass(frozen=True, slots=True)
class CommandResult:
    status: str  # "ok" | "error"
    payload: dict[str, Any]
    human_summary: str


def _ok(payload: dict[str, Any], summary: str) -> CommandResult:
    return CommandResult(status="ok", payload=payload, human_summary=summary)


def _parse_values(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ParseError(f"no numbers found in {text!r}")
    try:
        return [float(part) for part in items]
    except ValueError as exc:
        raise ParseError(f"could not parse {text!r} as a number list") from exc


def _polygon_from_args(values: str, radius: float | None) -> InscribedPolygon:
    numbers = _parse_values(values)
    if radius is not None:
        angles = CentralAngles(radians(v) for v in numbers)
        return vertices_from_angles(angles, radius)
    return inscribe_from_sides(numbers)


def _cmd_verify(args: argparse.Namespace) -> CommandResult:
    poly = _polygon_from_args(args.values, args.radius)
    report = evaluate_general(poly)
    d = diagonal(poly, 0, poly.n - 1)
    payload = {"diameter": d, "identity": asdict(report)}
    return _ok(
        payload,
        f"n={report.n} lhs={report.lhs:.15g} rhs={report.rhs:.15g} "
        f"residual_rel={report.residual_rel:.3e}",
    )


def _cmd_solve(args: argparse.Namespace) -> CommandResult:
    solution = solve_diameter(_parse_values(args.values))
    return _ok(
        asdict(solution),
        f"d={solution.d:.15g} after {solution.iterations} iterations "
        f"(arc-sum residual {solution.arc_sum_residual:.3e})",
    )


def _cmd_construct(args: argparse.Namespace) -> CommandResult:
    values = _parse_values(args.values)
    if len(values) != 3:
        raise ParseError(f"construct needs exactly 3 sides, got {len(values)}")
    arrangements = enumerate_incongruent_quads(*values)
    d = arrangements[0].d
    payload = {
        "d": d,
        "count": len(arrangements),
        "arrangements": [
            {
                "ordered_sides": list(arr.ordered_sides),
                "middle_side": arr.middle_side,
                "diagonals": {
                    "first": diagonal(arr.polygon, 0, 2),
                    "second": diagonal(arr.polygon, 1, 3),
                },
                "vertices": [list(v) for v in arr.polygon.vertices],
            }
            for arr in arrangements
        ],
    }
    return _ok(
        payload, f"{len(arrangements)} arrangement(s) sharing diameter {d:.15g}"
    )


def _cmd_counterexample(args: argparse.Namespace) -> CommandResult:
    report = counterexample_report()
    return _ok(
        asdict(report),
        f"relation_holds={report.relation_holds} "
        f"off_circle_distance={report.off_circle_distance:.6g} "
        f"inscribable_variant_d={report.inscribable_variant_d:.15g}",
    )


def _cmd_fuzz(args: argparse.Namespace) -> CommandResult:
    config = FuzzConfig(
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        radius_min=args.radius_min,
        radius_max=args.radius_max,
        seed=args.seed,
        tolerance_rel=args.tolerance,
    )
    report = run_fuzz(config)
    payload = asdict(report)
    return _ok(
        payload,
        f"{report.trials_run} trials, worst residual {report.worst_residual_rel:.3e}, "
        f"{len(report.failures)} failure(s)",
    )


def _cmd_render(args: argparse.Namespace) -> CommandResult:
    poly = _polygon_from_args(args.values, args.radius)
    document = polygon_svg(poly)
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(document)
    except OSError as exc:
        raise WriteError(f"could not write {args.out!r}: {exc}") from exc
    return _ok(
        {"out": args.out, "bytes": len(document.encode("utf-8")), "n": poly.n},
        f"wrote {args.out} ({poly.n} vertices)",
    )


_HANDLERS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "construct": _cmd_construct,
    "counterexample": _cmd_counterexample,
    "fuzz": _cmd_fuzz,
    "render": _cmd_render,
}


def _format_float(value: float) -> str:
    if not isfinite(value):
        raise DomainError("payload holds a non-finite number")
    return format(value, ".15g")


def _to_json(value: Any) -> str:
    """Indented JSON in one walk that appends to a single list.

    Dispatches on exact type: payloads are plain ``dataclasses.asdict``
    trees, and any type not listed is written as its quoted ``str``.
    """
    parts: list[str] = []
    emit = parts.append

    def walk(value: Any, newline: str) -> None:
        kind = type(value)
        if kind is float:
            emit(_format_float(value))
        elif kind is dict:
            inner = newline + "  "
            sep = "{" + inner
            for k, v in value.items():
                emit(sep + encode_basestring_ascii(str(k)) + ": ")
                walk(v, inner)
                sep = "," + inner
            emit(newline + "}" if value else "{}")
        elif kind is list or kind is tuple:
            inner = newline + "  "
            sep = "[" + inner
            for v in value:
                emit(sep)
                walk(v, inner)
                sep = "," + inner
            emit(newline + "]" if value else "[]")
        elif kind is bool:
            emit("true" if value else "false")
        elif kind is int:
            emit(str(value))
        elif value is None:
            emit("null")
        else:
            emit(encode_basestring_ascii(str(value)))

    walk(value, "\n")
    return "".join(parts)


def _to_text(value: Any, prefix: str = "") -> list[str]:
    if isinstance(value, dict):
        lines: list[str] = []
        for k, v in value.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            lines.extend(_to_text(v, key))
        return lines
    if isinstance(value, (list, tuple)):
        lines = []
        for i, v in enumerate(value):
            lines.extend(_to_text(v, f"{prefix}[{i}]"))
        return lines or [f"{prefix} = []"]
    if isinstance(value, bool):
        rendered = "true" if value else "false"
    elif isinstance(value, float):
        rendered = _format_float(value)
    elif value is None:
        rendered = "null"
    else:
        rendered = str(value)
    return [f"{prefix} = {rendered}"]


def _render_result(result: CommandResult, fmt: str) -> str:
    tree = {
        "status": result.status,
        "human_summary": result.human_summary,
        "payload": result.payload,
    }
    if fmt == "text":
        return "\n".join(_to_text(tree))
    return _to_json(tree)


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

    def command(name: str, summary: str, values: str | None = None) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=summary)
        if values is not None:
            p.add_argument("values", help=values)
        return p

    sides_or_arcs = "sides, or arc degrees when --radius is given"
    radius_help = "treat values as arc degrees on this radius"
    p = command("verify", "evaluate the squared-diameter identity", sides_or_arcs)
    p.add_argument("--radius", type=float, default=None, help=radius_help)
    command("solve", "diameter from side lengths", "comma-separated side lengths (at least 2)")
    command(
        "construct",
        "incongruent inscribed quadrilaterals from 3 sides",
        "comma-separated side lengths (exactly 3)",
    )
    command("counterexample", "check the built-in non-inscribable quadrilateral")

    p = command("fuzz", "seeded randomized verification")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n-min", type=int, default=3, dest="n_min")
    p.add_argument("--n-max", type=int, default=12, dest="n_max")
    p.add_argument("--radius-min", type=float, default=0.5, dest="radius_min")
    p.add_argument("--radius-max", type=float, default=50.0, dest="radius_max")
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = command("render", "write an SVG diagram", sides_or_arcs)
    p.add_argument("--radius", type=float, default=None, help=radius_help)
    p.add_argument("--out", required=True, help="output SVG path")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser for every ``main`` call: ``parse_args`` never mutates it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
        # Rendered here so a nan or inf in the payload is a domain error.
        output = _render_result(result, args.format)
    except (SemichordError, IndexError) as exc:
        code = getattr(exc, "code", "index")
        result = CommandResult(
            status="error",
            payload={"code": code, "message": str(exc)},
            human_summary=f"error ({code}): {exc}",
        )
        output = _render_result(result, args.format)
    print(output)
    return 0 if result.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
