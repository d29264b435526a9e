"""The three seeded workloads: inputs, the timed call, and reference checks.

Inputs come from ``random.Random`` seeded with a string built from the
workload name, the run seed and the round number, so the same seed gives
the same inputs on every platform and the generator shares no code with
the package under test.  Each workload provides:

- ``rounds_per_second``: rounds a run makes per ``--seconds``, sized so
  that the timed calls take about that long on the reference machine;
- ``make_pool(seed, round_no)``: the inputs of one round (plain data);
- ``bind(pkg)``: the timed call, taking one input;
- ``check(x, out)``: ``(verdict, info)``, the verdict being ``"ok"``,
  ``"wrong"`` (a returned result failed the reference check) or an error
  code the program reported itself; ``info`` carries measured errors;
- ``perturb(x, out)``: a deliberately wrong copy of a passing result;
- ``traffic(pool, pkg)``: the shape of some rounds' inputs, recorded with
  each run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

#: Relative tolerance of every diameter reference check.
REL_TOL = 1e-9

#: Relative tolerance on the three-chord cubic residual.
CUBIC_TOL = 1e-12


def _rng(name: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{round_no}")


def _positive(rng: random.Random) -> float:
    """Uniform in (0, 1]."""
    return 1.0 - rng.random()


def _partition(rng: random.Random, count: int, total: float) -> list[float]:
    """``count`` positive parts summing (up to rounding) to ``total``."""
    weights = [_positive(rng) for _ in range(count)]
    scale = total / math.fsum(weights)
    return [w * scale for w in weights]


def _chords(arcs: list[float], radius: float) -> list[float]:
    return [2.0 * radius * math.sin(0.5 * a) for a in arcs]


def _rel(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _exponent_range(values) -> list[int]:
    exps = [math.frexp(v)[1] - 1 for v in values]
    return [min(exps), max(exps)] if exps else []


# --------------------------------------------------------------------------
# fuzz_default


class FuzzDefault:
    """``run_fuzz`` over a few trials with the default ``FuzzConfig`` shape."""

    name = "fuzz_default"
    pool_size = 20
    rounds_per_second = 27
    warmup = 10
    trials_per_op = 10

    def make_pool(self, seed: int, round_no: int) -> list[int]:
        rng = _rng(self.name, seed, round_no)
        return [rng.getrandbits(63) for _ in range(self.pool_size)]

    def bind(self, pkg):
        run_fuzz, config = pkg.fuzz.run_fuzz, pkg.fuzz.FuzzConfig
        trials = self.trials_per_op
        return lambda op_seed: run_fuzz(config(trials=trials, seed=op_seed))

    def check(self, op_seed: int, report):
        worst = report.worst_residual_rel
        ok = (
            report.seed == op_seed
            and report.trials_run == self.trials_per_op
            and not report.failures
            and 0.0 <= worst <= REL_TOL
        )
        return ("ok" if ok else "wrong"), {"fuzz_residual": worst}

    def perturb(self, op_seed: int, report):
        return replace(report, worst_residual_rel=report.worst_residual_rel + 1e-6)

    def traffic(self, pool: list[int], pkg=None) -> dict:
        """Observed shape of the polygons the pool's calls build.

        The trial draws happen inside the package, so the pool is replayed
        once, untimed, with ``vertices_from_angles`` rebound in
        ``semichord.fuzz`` to record each polygon it is asked to place.
        """
        seen: list[tuple[int, float, float]] = []
        place = pkg.fuzz.vertices_from_angles

        def observing(angles, radius):
            seen.append((len(angles.arcs) + 1, radius, min(angles.arcs)))
            return place(angles, radius)

        with rebound(pkg.fuzz, "vertices_from_angles", observing):
            op = self.bind(pkg)
            for op_seed in pool:
                op(op_seed)
        stress_arc = 1e-6  # run_fuzz forces one arc below this in stressed trials
        defaults = pkg.fuzz.FuzzConfig()
        return {
            "ops": len(pool),
            "trials_per_op": self.trials_per_op,
            "config": {k: getattr(defaults, k) for k in ("n_min", "n_max", "radius_min", "radius_max")},
            "polygons": len(seen),
            "n_histogram": dict(sorted(Counter(n for n, _, _ in seen).items())),
            "radius_exponent_range": _exponent_range(r for _, r, _ in seen),
            "stressed_share": sum(m < stress_arc for _, _, m in seen) / max(len(seen), 1),
        }


# --------------------------------------------------------------------------
# solve_wide


class SolveWide:
    """``inscribe_from_sides`` on sides cut from known arcs on a known radius."""

    name = "solve_wide"
    pool_size = 200
    rounds_per_second = 17
    warmup = 50
    n_range = (3, 64)
    near_share = 0.15
    extreme_share = 0.20
    #: Extreme-scale radii are m * 2**k with |k| up to this.
    max_exponent = 1000

    def make_pool(self, seed: int, round_no: int) -> list[tuple]:
        rng = _rng(self.name, seed, round_no)
        pool = []
        for _ in range(self.pool_size):
            n = rng.randint(*self.n_range)
            draw = rng.random()
            if draw < self.near_share:
                kind = "near_diameter"
            elif draw < self.near_share + self.extreme_share:
                kind = "extreme_scale"
            else:
                kind = "plain"
            if kind == "extreme_scale":
                k = rng.randint(-self.max_exponent, self.max_exponent)
                radius = math.ldexp(1.0 + rng.random(), k)
            else:
                radius = rng.uniform(0.5, 50.0)
            if kind == "near_diameter":
                # One arc within 1e-6 of pi; the others share the gap.
                gap = 1e-6 * _positive(rng)
                arcs = _partition(rng, n - 2, gap)
                arcs.insert(rng.randrange(n - 1), math.pi - gap)
            else:
                arcs = _partition(rng, n - 1, math.pi)
            pool.append((kind, radius, tuple(_chords(arcs, radius))))
        return pool

    def bind(self, pkg):
        inscribe = pkg.solver.inscribe_from_sides
        return lambda x: inscribe(x[2])

    def check(self, x, poly):
        _, radius, sides = x
        err = _rel(2.0 * poly.radius, 2.0 * radius)
        ok = err <= REL_TOL and len(poly.vertices) == len(sides) + 1
        return ("ok" if ok else "wrong"), {"solver_rel_err": err}

    def perturb(self, x, poly):
        return SimpleNamespace(radius=poly.radius * (1.0 + 1e-6), vertices=poly.vertices)

    def traffic(self, pool: list[tuple], pkg=None) -> dict:
        kinds = Counter(kind for kind, _, _ in pool)
        return {
            "ops": len(pool),
            "n_histogram": dict(sorted(Counter(len(s) + 1 for _, _, s in pool).items())),
            "radius_exponent_range": _exponent_range(r for _, r, _ in pool),
            "near_diameter_share": kinds["near_diameter"] / len(pool),
            "extreme_scale_share": kinds["extreme_scale"] / len(pool),
            "abs_exponent_at_least_511_share": sum(
                kind == "extreme_scale" and abs(math.frexp(r)[1] - 1) >= 511
                for kind, r, _ in pool
            )
            / len(pool),
        }


# --------------------------------------------------------------------------
# construct_cli

_COUNTEREXAMPLE_D = 4.0 * math.sqrt(2.0)
_COUNTEREXAMPLE_MISS = 0.33385053542218923


def _fmt_list(values) -> str:
    return ",".join(repr(v) for v in values)


def _flatten(value, prefix: str = "", out: dict | None = None) -> dict:
    """JSON tree to the ``a.b[0]`` keys that ``--format text`` prints."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", out)
    else:
        out[prefix] = value
    return out


def _parse_output(fmt: str, text: str) -> dict:
    """Flat ``key -> value`` view of a command's output; raises if malformed."""
    if fmt == "json":
        return _flatten(json.loads(text))
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed text line {line!r}")
        fields[key] = value
    return fields


def _num(fields: dict, key: str) -> float:
    value = fields[key]
    if isinstance(value, bool):
        raise ValueError(f"{key} is not a number")
    return float(value)


def _is_true(fields: dict, key: str) -> bool:
    return fields.get(key) in (True, "true")


class ConstructCli:
    """In-process ``semichord.cli.main(argv)`` with stdout captured."""

    name = "construct_cli"
    pool_size = 20
    rounds_per_second = 27
    warmup = 20
    construct_share = 0.70
    #: Distinct / one repeated / all equal: 3, 2 and 1 arrangements.
    triple_mix = (("distinct", 0.5), ("one_repeat", 0.3), ("all_equal", 0.2))
    minority = ("verify", "solve", "render", "counterexample")

    #: Relative to the repository root, the benchmark's working directory,
    #: so the inputs (and their hash) do not depend on where it is checked out.
    svg_path = "bench/out/construct_cli.svg"

    def _triple(self, rng: random.Random) -> tuple[str, list[float]]:
        draw, cum = rng.random(), 0.0
        for kind, share in self.triple_mix:
            cum += share
            if draw < cum:
                break

        def side() -> float:
            return 10.0 ** rng.uniform(-1.0, 2.0)

        if kind == "all_equal":
            values = [side()] * 3
        elif kind == "one_repeat":
            a = side()
            b = side()
            while abs(a - b) <= 1e-3 * max(a, b):
                b = side()
            values = [a, a, b]
        else:
            values = [side()]
            while len(values) < 3:
                c = side()
                if all(abs(c - v) > 1e-3 * max(c, v) for v in values):
                    values.append(c)
        rng.shuffle(values)
        return kind, values

    def make_pool(self, seed: int, round_no: int) -> list[tuple]:
        rng = _rng(self.name, seed, round_no)
        pool = []
        for _ in range(self.pool_size):
            if rng.random() < self.construct_share:
                kind, values = self._triple(rng)
                argv = ["construct", _fmt_list(values), "--format", "json"]
                pool.append(("construct", "json", kind, values, None, tuple(argv)))
                continue
            command = rng.choice(self.minority)
            fmt = rng.choice(("json", "text"))
            n = rng.randint(3, 12)
            radius = rng.uniform(0.5, 50.0)
            degrees = _partition(rng, n - 1, 180.0)
            if command == "verify":
                argv = ["verify", _fmt_list(degrees), "--radius", repr(radius)]
            elif command == "render":
                argv = ["render", _fmt_list(degrees), "--radius", repr(radius), "--out", self.svg_path]
            elif command == "solve":
                sides = _chords([math.radians(d) for d in degrees], radius)
                argv = ["solve", _fmt_list(sides)]
            else:
                argv, n, radius = ["counterexample"], None, None
            argv += ["--format", fmt]
            pool.append((command, fmt, None, n, radius, tuple(argv)))
        return pool

    def bind(self, pkg):
        main = pkg.cli.main

        def op(x):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = main(list(x[5]))
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code if isinstance(exc.code, int) else 2
            return code, buf.getvalue()

        return op

    def check(self, x, out):
        command, fmt, kind, a4, a5, _ = x
        code, text = out
        info = {"output_bytes": len(text.encode("utf-8"))}
        try:
            fields = _parse_output(fmt, text)
        except ValueError:
            return "wrong", info
        if code != 0 or fields.get("status") != "ok":
            reported = fields.get("payload.code")
            return (str(reported) if code == 1 and reported else "wrong"), info
        try:
            ok = getattr(self, f"_check_{command}")(fields, kind, a4, a5, info)
        except (KeyError, ValueError, OSError):
            ok = False
        return ("ok" if ok else "wrong"), info

    def _check_construct(self, fields, kind, values, _, info):
        a, b, c = values
        d = _num(fields, "payload.d")
        s, p = a * a + b * b + c * c, 2.0 * a * b * c
        info["cubic_rel"] = abs((d * d - s) * d - p) / (d * d * d)
        expected = {"distinct": 3, "one_repeat": 2, "all_equal": 1}[kind]
        count = int(_num(fields, "payload.count"))
        listed = sum(1 for k in fields if k.endswith("].middle_side"))
        return info["cubic_rel"] <= CUBIC_TOL and count == expected == listed

    def _check_verify(self, fields, _, n, radius, info):
        return (
            _rel(_num(fields, "payload.diameter"), 2.0 * radius) <= REL_TOL
            and _num(fields, "payload.identity.residual_rel") <= REL_TOL
            and int(_num(fields, "payload.identity.n")) == n
        )

    def _check_solve(self, fields, _, n, radius, info):
        info["solver_rel_err"] = _rel(_num(fields, "payload.d"), 2.0 * radius)
        return info["solver_rel_err"] <= REL_TOL

    def _check_render(self, fields, _, n, radius, info):
        with open(fields["payload.out"], encoding="utf-8") as handle:
            document = handle.read()
        return (
            int(_num(fields, "payload.n")) == n
            and int(_num(fields, "payload.bytes")) == len(document.encode("utf-8"))
            and document.startswith("<?xml")
            and document.endswith("</svg>\n")
        )

    def _check_counterexample(self, fields, *_):
        return (
            _is_true(fields, "payload.relation_holds")
            and _rel(_num(fields, "payload.inscribable_variant_d"), _COUNTEREXAMPLE_D) <= CUBIC_TOL
            and abs(_num(fields, "payload.off_circle_distance") - _COUNTEREXAMPLE_MISS) <= 1e-9
        )

    _PERTURBED = {"construct": "d", "solve": "d", "verify": "diameter",
                  "render": "n", "counterexample": "inscribable_variant_d"}

    def perturb(self, x, out):
        code, text = out
        key = self._PERTURBED[x[0]]

        def bump(value: float) -> float:
            return value + 1 if key == "n" else value * (1.0 + 1e-6)

        if x[1] == "json":
            tree = json.loads(text)
            tree["payload"][key] = bump(tree["payload"][key])
            return code, json.dumps(tree)
        lines = []
        for line in text.splitlines():
            k, _, v = line.partition(" = ")
            if k == f"payload.{key}":
                v = repr(bump(float(v)))
            lines.append(f"{k} = {v}")
        return code, "\n".join(lines)

    def traffic(self, pool: list[tuple], pkg=None) -> dict:
        construct = [x for x in pool if x[0] == "construct"]
        sides = [v for x in construct for v in x[3]]
        return {
            "ops": len(pool),
            "command_mix": dict(sorted(Counter(x[0] for x in pool).items())),
            "format_mix": dict(sorted(Counter(f"{x[0]}:{x[1]}" for x in pool).items())),
            "arrangement_mix": dict(sorted(Counter(
                {"distinct": 3, "one_repeat": 2, "all_equal": 1}[x[2]] for x in construct
            ).items())),
            "n_histogram": dict(sorted(Counter(x[3] for x in pool if x[3] and x[0] != "construct").items())),
            "side_exponent_range": _exponent_range(sides),
        }


@contextlib.contextmanager
def rebound(module, name: str, replacement):
    """Rebind ``module.name`` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, replacement)
    try:
        yield original
    finally:
        setattr(module, name, original)


WORKLOADS = {w.name: w for w in (FuzzDefault, SolveWide, ConstructCli)}
