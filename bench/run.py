"""Seeded, stdlib-only benchmark of the semichord package.

Usage, from the repository root:

    python3 bench/run.py --workload fuzz_default --seed 1 --seconds 10 --trace 0

Workloads are described in ``bench/workloads.py`` and ``bench/README.md``.
Each run is one process and one caller in a closed loop: every call
starts when the previous one returns.  Inputs come in rounds generated
from the seed; each round's calls are timed one by one from outside, and
each result is checked against the benchmark's own reference as soon as
its call returns, outside the timed span.  A run makes a fixed number of
rounds, ``--seconds`` times the workload's ``rounds_per_second``, so the
calls it attempts, and which of them fail, depend on the seed alone and
not on the machine's speed.

``--trace 0`` reports the end-to-end metrics of the unmodified package.
``--trace 1`` runs half the time untraced and half with every layer's
public functions rebound to span-recording wrappers (``bench/spans.py``),
and reports the per-layer metrics.  The last line of stdout is one JSON
object; a fuller record (traffic, environment, self-checks) and, for
traced runs, the spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

MODULES = ("errors", "geometry", "identity", "solver", "quads", "fuzz", "svg", "cli")

#: ``SemichordError`` codes reported as ``errors.<code>.count``.
ERROR_CODES = ("domain", "invalid_angles", "placement", "no_convergence", "parse", "write", "error")

#: Set-up is repeated this many times per run; its median is ``setup_s``.
SETUP_REPEATS = 5

#: Fresh ``python -m semichord.cli`` processes timed per traced run.
COLD_PROCESSES = 3

#: A run stops early, at a round's end, once its timed calls have taken
#: this many times ``--seconds`` on the wall clock: only a machine several
#: times slower than the one the rounds were sized on reaches it.
OVERRUN_LIMIT = 4

#: The traffic record covers this many rounds, however many the run made,
#: so that runs on machines of any speed describe the same inputs.
TRAFFIC_ROUNDS = 20


def import_package() -> SimpleNamespace:
    """Import every module of the checkout's package afresh."""
    for name in [m for m in sys.modules if m == "semichord" or m.startswith("semichord.")]:
        del sys.modules[name]
    modules = {m: importlib.import_module(f"semichord.{m}") for m in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"semichord imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def pool_hash(pool) -> str:
    return sha256(repr(pool).encode("utf-8")).hexdigest()


def set_up(work, seed: int):
    """Import, generate round 0 and warm up: what ``setup_s`` times.

    Repeated ``SETUP_REPEATS`` times, each bracketed by the speed kernel;
    returns the last package and pool with the scaled and wall times.
    """
    scaled, wall, hashes = [], [], []
    for _ in range(SETUP_REPEATS):
        before = speed.kernel_ns()
        w0, c0 = time.perf_counter_ns(), speed.clock()
        pkg = import_package()
        pool = work.make_pool(seed, 0)
        op = work.bind(pkg)
        for x in pool[: work.warmup]:
            try:
                op(x)
            except Exception:  # counted when the timed rounds meet it
                pass
        c1, w1 = speed.clock(), time.perf_counter_ns()
        scaled.append((c1 - c0) * speed.factor(before, speed.kernel_ns()) / 1e9)
        wall.append((w1 - w0) / 1e9)
        hashes.append(pool_hash(pool))
    return pkg, pool, SimpleNamespace(scaled=scaled, wall=wall), hashes


def classify(exc: BaseException, errors_mod) -> str:
    if isinstance(exc, errors_mod.SemichordError):
        return exc.code if exc.code in ERROR_CODES else "error"
    return "uncaught"


class Tally:
    """Outcome of every op in a phase, with the examples that explain it."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: Counter = Counter()
        self.examples: dict[str, str] = {}
        #: The first input and result that passed its check.
        self.sample = None
        #: Per measured quantity of the checks: [count, total, max].
        self.info: dict[str, list] = {}

    def record(self, work, x, out, exc, errors_mod) -> None:
        self.attempted += 1
        if exc is not None:
            verdict, info = classify(exc, errors_mod), {}
            detail = f"{type(exc).__name__}: {exc}"
        else:
            verdict, info = work.check(x, out)
            detail = "reference check failed" if verdict == "wrong" else "reported by the program"
        for key, value in info.items():
            agg = self.info.setdefault(key, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += value
            agg[2] = max(agg[2], value)
        if verdict == "ok":
            if self.sample is None:
                self.sample = (x, out)
            return
        self.failed += 1
        if verdict == "wrong":
            self.wrong += 1
        else:
            # A code the CLI reports but ERROR_CODES lacks counts as the base code.
            self.errors[verdict if verdict in ERROR_CODES + ("uncaught",) else "error"] += 1
        self.examples.setdefault(verdict, f"{detail}; input {str(x)[:300]}")


def measure(work, op, seed: int, first_pool, rounds: int, seconds: float, errors_mod, tracer=None):
    """Closed loop over ``rounds`` seeded rounds, starting at round 0.

    Each call is timed on the speed clock (the thread's CPU time, see
    ``speed.py``) and, for the record, on the wall clock.  Each result is
    checked as soon as its call returns, outside the timed span, so no
    round's results pile up in memory.  Each round is bracketed by the
    speed kernel, a round's closing run opening the next round; with a
    tracer, the index of each round's first span is kept so spans can be
    scaled too.
    """
    clock, wall_clock = speed.clock, time.perf_counter_ns
    latencies, wall = array("q"), array("q")
    tally = Tally()
    round_ns, round_wall_ns, factors, span_marks = [], [], [], []
    limit_ns = int(OVERRUN_LIMIT * seconds * 1e9)
    pool, round_no = first_pool, 0
    before = speed.kernel_ns()
    while True:
        if tracer is not None:
            span_marks.append(len(tracer.span_name))
        busy = busy_wall = 0
        for x in pool:
            w0 = wall_clock()
            t0 = clock()
            try:
                out, exc = op(x), None
            except Exception as caught:  # the benchmark must keep running
                out, exc = None, caught
            t1 = clock()
            w1 = wall_clock()
            latencies.append(t1 - t0)
            wall.append(w1 - w0)
            busy += t1 - t0
            busy_wall += w1 - w0
            tally.record(work, x, out, exc, errors_mod)
        round_ns.append(busy)
        round_wall_ns.append(busy_wall)
        after = speed.kernel_ns()
        factors.append(speed.factor(before, after))
        before = after
        round_no += 1
        if round_no >= rounds or sum(round_wall_ns) >= limit_ns:
            break
        pool = work.make_pool(seed, round_no)
    return SimpleNamespace(
        latencies=latencies, wall=wall, tally=tally, round_ns=round_ns,
        round_wall_ns=round_wall_ns, factors=factors, span_marks=span_marks,
        pool_size=len(first_pool),
    )


def round_rates(run, wall: bool = False) -> list[float]:
    """Calls per second of each round: scaled speed-clock time, or wall time."""
    if wall:
        return [run.pool_size / ns * 1e9 for ns in run.round_wall_ns]
    return [run.pool_size / (ns * f) * 1e9 for ns, f in zip(run.round_ns, run.factors)]


def latencies_us(run, wall: bool = False) -> list[float]:
    """Every call's latency in us, sorted: on the speed clock, each scaled
    by its round's factor, or on the wall clock."""
    if wall:
        return sorted(ns / 1e3 for ns in run.wall)
    k = run.pool_size
    return sorted(ns * run.factors[i // k] / 1e3 for i, ns in enumerate(run.latencies))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def cold_process_ms() -> list[float]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(COLD_PROCESSES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "semichord.cli", "solve", "3,4"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
        )
        times.append((time.perf_counter() - t0) * 1e3)
        if done.returncode != 0 or '"d": 5' not in done.stdout:
            raise RuntimeError(f"cold CLI process failed: {done.stderr.strip()[:300]}")
    return times


def self_checks(work, seed: int, sample, hashes) -> dict:
    """Same seed, same inputs; another seed, other inputs; a perturbed
    passing result must fail the reference check."""
    checks = {
        "same_seed_same_hash": len(set(hashes)) == 1 and pool_hash(work.make_pool(seed, 0)) == hashes[0],
        "other_seed_other_hash": pool_hash(work.make_pool(seed + 1, 0)) != hashes[0],
        "perturbed_result_fails": False,
    }
    if sample is not None:
        x, out = sample
        checks["perturbed_result_fails"] = work.check(x, work.perturb(x, out))[0] == "wrong"
    return checks


def traffic(work, seed: int, pkg) -> dict:
    pools = [work.make_pool(seed, r) for r in range(TRAFFIC_ROUNDS)]
    return {
        "rounds": TRAFFIC_ROUNDS,
        "inputs_sha256": pool_hash(pools),
        **work.traffic([x for p in pools for x in p], pkg),
    }


def environment() -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": affinity,
    }


def end_to_end(run, setup, wall: bool = False) -> dict:
    lat = latencies_us(run, wall)
    tally = run.tally
    return {
        "throughput_per_s": statistics.median(round_rates(run, wall)),
        "latency_p50_us": statistics.median(lat),
        "latency_p99_us": percentile(lat, 99),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "setup_s": statistics.median(setup.wall if wall else setup.scaled),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, untraced, traced, cold_ms):
    summary = tracer.summary(traced.span_marks, traced.factors)
    values = spans.layer_metrics(tracer, summary)
    tallies = (untraced.tally, traced.tally)

    def worst(key: str) -> float:
        return max(t.info.get(key, [0, 0.0, 0.0])[2] for t in tallies)

    values["solver.max_rel_err"] = max([worst("solver_rel_err")] + spans.fuzz_solver_errors(tracer))
    values["fuzz.max_residual_rel"] = worst("fuzz_residual")
    count, total, _ = traced.tally.info.get("output_bytes", [0, 0.0, 0.0])
    values["cli.output_bytes_per_op"] = total / count if count else 0.0
    values["cli.cold_process_ms"] = statistics.median(cold_ms)
    for code in ERROR_CODES + ("uncaught",):
        values[f"errors.{code}.count"] = traced.tally.errors[code]
    values["trace.overhead_frac"] = (
        statistics.median(round_rates(untraced)) / statistics.median(round_rates(traced)) - 1.0
    )
    layer_sum = sum(summary["layer_self_ns"].values())
    return values, summary, abs(layer_sum - summary["root_ns"]) <= 1e-9 * summary["root_ns"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "semichord" / "__init__.py").is_file():
        print(f"error: no semichord package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # inputs name output files relative to the root
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    work = workloads.WORKLOADS[args.workload]()

    pkg, pool, setup, hashes = set_up(work, args.seed)
    op = work.bind(pkg)
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = max(1, round(seconds * work.rounds_per_second))
    untraced = measure(work, op, args.seed, pool, rounds, seconds, pkg.errors)
    if not args.trace:  # before the bookkeeping below adds to the peak RSS
        values = end_to_end(untraced, setup)
        wall = end_to_end(untraced, setup, wall=True)
    checks = self_checks(work, args.seed, untraced.tally.sample, hashes)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "traffic": traffic(work, args.seed, pkg),
        "setup_s_samples": {"scaled": setup.scaled, "wall": setup.wall},
    }
    runs = [untraced]
    if args.trace:
        tracer = spans.Tracer(pkg)
        tracer.install()
        try:
            traced = measure(work, work.bind(pkg), args.seed, pool, rounds, seconds, pkg.errors, tracer)
        finally:
            tracer.uninstall()
        runs.append(traced)
        cold_ms = cold_process_ms()
        values, summary, sums_match = per_layer(tracer, untraced, traced, cold_ms)
        checks["layer_self_times_sum_to_op_time"] = sums_match
        # One spans file per workload, replaced by each traced run: they run
        # to tens of MB, and the per-seed record keeps the derived numbers.
        tracer.write(OUT / f"{args.workload}-spans.csv.gz")
        record["trace_summary"] = {k: summary[k] for k in ("spans", "ops", "root_ns")}
        record["cold_process_ms_samples"] = cold_ms
    else:
        record["wall_clock"] = wall
    metrics = with_units(values, "per_layer" if args.trace else "end_to_end")

    attempted = sum(r.tally.attempted for r in runs)
    failed = sum(r.tally.failed for r in runs)
    wrong = sum(r.tally.wrong for r in runs)
    correct = wrong == 0 and all(checks.values())
    record.update(
        rounds=[
            {"ns": r.round_ns, "wall_ns": r.round_wall_ns, "speed_factor": r.factors}
            for r in runs
        ],
        outcomes=[
            {"attempted": r.tally.attempted, "failed": r.tally.failed, "wrong": r.tally.wrong,
             "errors": dict(r.tally.errors), "examples": r.tally.examples,
             "checked": {k: {"count": c, "mean": t / c, "max": m} for k, (c, t, m) in r.tally.info.items()}}
            for r in runs
        ],
        self_checks=checks,
        metrics=metrics,
    )
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, metric in metrics.items():
        print(f"{args.workload:>14} {name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{args.workload:>14} attempted={attempted} failed={failed} wrong={wrong} "
          f"self_checks={'pass' if all(checks.values()) else checks}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def with_units(values: dict, kind: str) -> dict:
    """Attach units from BENCHMARK.json, which must list exactly these metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[kind]}
    if declared.keys() != values.keys():
        raise KeyError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {sorted(declared.keys() - values.keys())}, "
            f"undeclared {sorted(values.keys() - declared.keys())}"
        )
    return {name: {"value": values[name], "unit": declared[name]} for name in declared}


if __name__ == "__main__":
    sys.exit(main())
