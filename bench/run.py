"""laminarvc benchmark: pinned workloads driven through ``laminarvc.cli.main``,
with every pinned output checked against a reference recorded from the seed
commit.

    python3 bench/run.py --workload growth-k2 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, each command
in a fresh interpreter; ``--trace 1`` runs the workload once traced, in this
process, and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--record`` rewrites
``bench/reference.json`` from the code in ``src/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from tracer import Tracer, patched, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

# Program seeds with recorded reference outputs; --seed picks one of them.
POOL = 8
SETUP_BATCH = 5  # setup samples before each pass and after the last
THREADS = min(2, os.cpu_count() or 1)
CHILD_TIMEOUT = 150

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import laminarvc\n"
    "from laminarvc.cli import build_parser\n"
    "build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)


def _growth(arity: int, sizes, trials: int, formulas, base_seed: int = 7):
    def argvs(i: int) -> list[list[str]]:
        return [
            ["growth", "--arity", str(arity), "--sizes", ",".join(map(str, sizes)),
             "--trials", str(trials), "--seed", str(base_seed + i), "--formula", f]
            for f in formulas
        ]
    return argvs


def _lemmas(trials: int, b_size: int):
    def argvs(i: int) -> list[list[str]]:
        return [
            ["verify-lemmas", "--seed", str(i), "--trials", str(trials)],
            ["fullvcmin-demo", "--b-size", str(b_size), "--seed", str(i), "--json"],
        ]
    return argvs


@dataclass(frozen=True)
class Workload:
    argvs: Callable[[int], list[list[str]]]
    toy: Callable[[int], list[list[str]]]
    # (leaves, max branching, base seed) of the ultrametric carrier the
    # workload builds; the traced run forces its numpy views
    carrier: tuple[int, int, int]


K2_FORMULAS = ("lca-ball", "twin-ball-1", "pair-equality")
K1_FORMULAS = ("lca-ball", "boolean-mix")

WORKLOADS = {
    "growth-k2": Workload(
        _growth(2, (8, 16, 32, 64, 128, 256), 5, K2_FORMULAS),
        _growth(2, (4, 8, 16), 2, K2_FORMULAS),
        (512, 3, 7),
    ),
    "growth-k1-wide": Workload(
        _growth(1, (64, 128, 256, 512, 1024, 2048), 20, K1_FORMULAS),
        _growth(1, (8, 16, 32), 2, K1_FORMULAS),
        (4096, 3, 7),
    ),
    "lemmas": Workload(_lemmas(1000, 16), _lemmas(10, 4), (64, 4, 0)),
}


# --- invoking the CLI and checking its outputs -----------------------------


@dataclass
class Invocation:
    argv: list[str]
    exit: int | None
    stdout: str
    stderr: str
    seconds: float = 0.0
    peak_rss_mb: float = 0.0


def invoke(argv: list[str], tracer: Tracer | None = None) -> Invocation:
    """Run one CLI command through laminarvc.cli.main in this process,
    capturing its output.  A traceback is kept as stderr and the exit code
    left None."""
    from laminarvc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return Invocation(list(argv), code, out.getvalue(), err.getvalue(), seconds, peak_rss_mb())


def invoke_child(argv: list[str], threads: int) -> Invocation:
    """Run one CLI command in a fresh interpreter (``run.py --invoke``), as a
    user does: no command inherits another's heap, so its time and peak RSS
    are its own.  Imports happen before the timed call."""
    env = dict(os.environ, LAMINAR_VC_THREADS=str(threads))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--invoke", json.dumps(argv)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return Invocation(list(argv), None, "", f"timed out after {CHILD_TIMEOUT} s")
    if proc.returncode != 0:
        return Invocation(list(argv), None, "", proc.stderr)
    return Invocation(list(argv), **json.loads(proc.stdout.splitlines()[-1]))


LEMMA_LINE = re.compile(r"^(\S+)\s+trials=\s*(\d+)\s+failures=\s*(\d+)", re.M)


def parse(inv: Invocation) -> dict:
    """The pinned part of one invocation's output: exit code, a summary that
    must match as a whole, and units (one per operation) checked one by one.
    Growth units are CSV rows without the ms column."""
    command = inv.argv[0]
    if command == "growth":
        lines = inv.stdout.splitlines()
        header = lines[0].split(",")
        ms = header.index("ms")
        rows = [line.split(",") for line in lines[1:] if line]
        exponent = re.search(r"median_exponent=(\S+)", inv.stderr)
        return {
            "command": command,
            "exit": inv.exit,
            "summary": {
                "header": ",".join(h for h in header if h != "ms"),
                "median_exponent": exponent.group(1) if exponent else None,
            },
            "units": [",".join(r[:ms] + r[ms + 1:]) for r in rows],
            "ms": [int(r[ms]) for r in rows],
        }
    if command == "verify-lemmas":
        units = [[n, int(t), int(f)] for n, t, f in LEMMA_LINE.findall(inv.stdout)]
        return {"command": command, "exit": inv.exit, "summary": {}, "units": units}
    if command == "fullvcmin-demo":
        return {"command": command, "exit": inv.exit, "summary": {},
                "units": [json.loads(inv.stdout)]}
    raise ValueError(f"no parser for command {command!r}")


def _matches(got, want) -> bool:
    """Dicts match on the reference's keys only, so fields added to a report
    later do not count as a change."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(k in got and got[k] == v for k, v in want.items())
    return got == want


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, inv: Invocation, reference: dict) -> dict | None:
        """Count the invocation's operations and its failures against the
        reference; returns the parsed output, or None if it did not parse."""
        key = " ".join(inv.argv)
        want = reference.get(key)
        try:
            got = parse(inv)
        except (ValueError, IndexError, KeyError):
            got = None
        if want is None:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{key}: no reference output")
            return got
        n = len(want["units"])
        self.attempted += n
        if got is None or got["exit"] != want["exit"] or got["summary"] != want["summary"]:
            self.failed += n
            tail = inv.stderr.strip().splitlines()[-1:] or [""]
            self.problems.append(f"{key}: exit {inv.exit}, summary or output differs: {tail[0]}")
            return got
        bad = [
            i for i, unit in enumerate(want["units"])
            if i >= len(got["units"]) or not _matches(got["units"][i], unit)
        ]
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{key}: {len(bad)} of {n} outputs differ, first at {bad[0]}")
        return got


def run_pass(argvs, tally: Tally, reference: dict, tracer: Tracer | None = None,
             threads: int = THREADS):
    """Run the argv list once, each command in a fresh interpreter, or all in
    this one when traced.  Returns (seconds in cli.main, peak RSS in MB,
    parsed outputs); checking happens outside the timed calls."""
    if tracer is None:
        invocations = [invoke_child(argv, threads) for argv in argvs]
    else:
        invocations = [invoke(argv, tracer) for argv in argvs]
    seconds = sum(inv.seconds for inv in invocations)
    peak = max(inv.peak_rss_mb for inv in invocations)
    return seconds, peak, [tally.check(inv, reference) for inv in invocations]


# --- measurements ------------------------------------------------------------


def setup_sample() -> float:
    """Seconds from a fresh interpreter until laminarvc is imported and the
    CLI parser is built."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip())


def views_seconds(leaves: int, branching: int, seed: int) -> float:
    """Time to force the cached numpy views of a freshly built carrier."""
    from laminarvc import models

    model = models.random_ultrametric(leaves, branching, seed)
    start = time.perf_counter()
    model.ball_bool
    model.lca_node_matrix
    model.ancestor_array(1)
    model.ancestor_array(2)
    return time.perf_counter() - start


def timing(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (when there are enough samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        out[f"p{(n - 10) * 100 // n}"] = ordered[n - 11]
    out["samples"] = samples
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _git(*args) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def env_stamp() -> dict:
    import numpy

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "LAMINAR_VC_THREADS": os.environ.get("LAMINAR_VC_THREADS"),
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(status) if status is not None else None,
    }


# --- the traced run ------------------------------------------------------------

SPANNED = (
    ("models.random_ultrametric", "models", "random_ultrametric"),
    ("setsystem.type_space", "setsystem", "type_space"),
    ("setsystem.sauer_check", "setsystem", "sauer_check"),
    ("forest.build_forest", "forest", "build_forest"),
    ("forest.type_tree", "forest", "type_tree"),
    ("forest.convex_order", "forest", "convex_order"),
    ("forest.check_convexity", "forest", "check_convexity"),
    ("forest.sum_dist_check", "forest", "sum_dist_check"),
    ("forest.components", "forest", "components"),
    ("forest.virtual_type_space", "forest", "virtual_type_space"),
    ("fullvcmin.incremental_count_check", "fullvcmin", "incremental_count_check"),
    ("fullvcmin.psi_type", "fullvcmin", "psi_type"),
    ("fullvcmin.validate_certificate", "fullvcmin", "validate_certificate"),
    ("fullvcmin.p_virtual_space", "fullvcmin", "p_virtual_space"),
    ("verify.directed_linear_bound", "verify", "verify_directed_linear_bound"),
    ("verify.convexity", "verify", "verify_convexity"),
    ("verify.sum_dist", "verify", "verify_sum_dist"),
    ("verify.sauer", "verify", "verify_sauer"),
    ("verify.components", "verify", "verify_components"),
    ("verify.determination", "verify", "verify_determination"),
    ("verify.incremental", "verify", "verify_incremental"),
    ("harness.run_growth", "harness", "run_growth"),
    ("harness.resolve_model", "harness", "resolve_model"),
)
CALL_COUNTS = ("models.random_ultrametric", "models.batch", "setsystem.type_space",
               "forest.build_forest", "forest.type_tree", "forest.convex_order",
               "forest.check_convexity", "forest.sum_dist_check", "forest.components",
               "forest.virtual_type_space", "forest.validate", "fullvcmin.psi_type")


def instrument(tracer: Tracer) -> list:
    """Replacement list for tracer.patched covering every layer."""
    import importlib

    from laminarvc import forest, harness, setsystem

    out = []
    for name, module, attr in SPANNED:
        original = getattr(importlib.import_module(f"laminarvc.{module}"), attr)
        on_result = _count_sweep(tracer, original) if original is setsystem.type_space else None
        out.append((None, attr, original, tracer.span(name, original, on_result)))

    validate = forest.QuasiForest.validate
    out.append((forest.QuasiForest, "validate", validate, tracer.span("forest.validate", validate)))

    from laminarvc import fullvcmin
    out.append((None, "eval_psi", fullvcmin.eval_psi,
                tracer.counting("fullvcmin.eval_psi", fullvcmin.eval_psi)))

    growth_formula = harness.growth_formula

    def traced_growth_formula(*args, **kwargs):
        formula = growth_formula(*args, **kwargs)
        return replace(formula, batch=tracer.span("models.batch", formula.batch))

    out.append((None, "growth_formula", growth_formula, traced_growth_formula))
    return out


def _count_sweep(tracer: Tracer, type_space):
    signature = inspect.signature(type_space)

    def on_result(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        total = a["carrier"].size ** a["object_arity"]
        tracer.add("tuples", total if result.complete else min(a["sample"], total))
        tracer.add("types", result.count)

    return on_result


def layer_metrics(tracer: Tracer, parsed: list, views: float) -> dict:
    busy, calls, self_time = summarize(tracer.spans)
    counts = tracer.counts()
    m = {"models.views_s": views}
    for name, _, _ in SPANNED:
        m[f"{name}_s"] = busy[name]
    m["models.batch_s"] = busy["models.batch"]
    m["forest.validate_s"] = busy["forest.validate"]
    for name in CALL_COUNTS:
        m[f"{name}_calls"] = calls[name]
    m["setsystem.dedup_s"] = self_time["setsystem.type_space"]
    m["setsystem.tuples_swept"] = counts["tuples"]
    m["setsystem.distinct_ratio"] = counts["types"] / counts["tuples"] if counts["tuples"] else 0.0
    m["fullvcmin.eval_psi_calls"] = counts["fullvcmin.eval_psi"]
    m["harness.self_s"] = self_time["harness.run_growth"]
    m["cli.self_s"] = self_time["cli.main"]

    growth = [p for p in parsed if p is not None and p["command"] == "growth"]
    m["harness.cells"] = sum(len(p["units"]) for p in growth)
    top = []
    for p in growth:
        m_col = p["summary"]["header"].split(",").index("m")
        sizes = [int(unit.split(",")[m_col]) for unit in p["units"]]
        top += [ms for size, ms in zip(sizes, p["ms"]) if size == max(sizes)]
    m["harness.top_cell_ms"] = statistics.median(top) if top else 0.0
    m["verify.failures"] = sum(
        u[2] for p in parsed if p is not None and p["command"] == "verify-lemmas"
        for u in p["units"]
    )
    return m


# --- one benchmark run ---------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, reference: dict,
        toy: bool = False) -> dict:
    workload = WORKLOADS[name]
    index = seed % POOL
    argvs = (workload.toy if toy else workload.argvs)(index)
    os.environ["LAMINAR_VC_THREADS"] = str(THREADS)
    tally = Tally()
    result = {"workload": name, "seed": seed, "pool_index": index, "toy": toy,
              "trace": int(trace), "argvs": argvs, "env": env_stamp()}

    if not trace:
        # setup samples are spread over the run, so a slow spell of a shared
        # machine skews fewer of them
        setup, walls, peaks = [], [], []
        start = time.perf_counter()
        while True:
            setup += [setup_sample() for _ in range(SETUP_BATCH)]
            wall, peak, _ = run_pass(argvs, tally, reference)
            walls.append(wall)
            peaks.append(peak)
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        setup += [setup_sample() for _ in range(SETUP_BATCH)]
        result["timings"] = {"wall_s": timing(walls), "setup_s": timing(setup)}
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
    else:
        untraced, _, _ = run_pass(argvs, tally, reference)
        tracer = Tracer()
        floor = [a for w in WORKLOADS.values() for a in w.toy(index)]
        with patched(instrument(tracer)):
            traced, _, parsed = run_pass(argvs, tally, reference, tracer)
            _, _, parsed_floor = run_pass(floor, tally, reference, tracer)
        single, _, _ = run_pass(argvs, tally, reference, threads=1)
        leaves, branching, base = workload.carrier
        views = views_seconds(leaves, branching, base + index)
        m = layer_metrics(tracer, parsed + parsed_floor, views)
        m["harness.parallel_speedup"] = single / untraced
        m["trace.overhead_s"] = traced - untraced
        m["fail_ratio"] = tally.failed / tally.attempted
        result["timings"] = {"untraced_wall_s": untraced, "traced_wall_s": traced,
                             "single_thread_wall_s": single}
        result["spans"] = tracer
        metrics = {k: (m[k], LAYER_UNITS[k]) for k in LAYER_NAMES}

    result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  metrics=metrics)
    return result


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_speedup")):
        return "ratio"
    return "count"


LAYER_NAMES = (
    ["models.views_s"]
    + [f"{n}_s" for n, _, _ in SPANNED]
    + ["models.batch_s", "forest.validate_s"]
    + [f"{n}_calls" for n in CALL_COUNTS]
    + ["setsystem.dedup_s", "setsystem.tuples_swept", "setsystem.distinct_ratio",
       "fullvcmin.eval_psi_calls", "harness.self_s", "cli.self_s", "harness.cells",
       "harness.top_cell_ms", "verify.failures", "harness.parallel_speedup",
       "trace.overhead_s", "fail_ratio"]
)
LAYER_UNITS = {n: _unit(n) for n in LAYER_NAMES}


def report(result: dict, out_dir: Path) -> None:
    """Print one line per metric, the environment stamp and, last, the JSON
    result; write the full record (and the spans of a traced run)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    name = result["workload"]
    tracer = result.pop("spans", None)
    if tracer is not None:
        tracer.write(out_dir / f"{name}.spans.csv")
    ratio = result["failed"] / result["attempted"]
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for key, value in result["timings"].items():
        print(f"timing {key} {json.dumps(value)}")
    for problem in result["problems"]:
        print(f"mismatch {problem}")
    print(f"operations {result['attempted']} attempted, {result['failed']} failed")
    if "fail_ratio" not in result["metrics"]:
        print(f"fail_ratio {ratio!r} ratio")
    for metric, (value, unit) in result["metrics"].items():
        print(f"{metric} {value!r} {unit}")
    record = dict(result, metrics={k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()})
    with open(out_dir / f"{name}.trace{result['trace']}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))


def record_reference(path: Path) -> None:
    """Run every workload at full and toy size on every pool seed, untraced,
    and store the pinned outputs."""
    os.environ["LAMINAR_VC_THREADS"] = str(THREADS)
    reference = {}
    for name, workload in WORKLOADS.items():
        for index in range(POOL):
            for argv in workload.toy(index) + workload.argvs(index):
                got = parse(invoke_child(argv, THREADS))
                got.pop("ms", None)
                got.pop("command")
                reference[" ".join(argv)] = got
                print(f"recorded {name} {' '.join(argv)} exit={got['exit']}", file=sys.stderr)
    # one output per line, so a re-recording diffs line by line
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in reference.items()]
    with open(path, "w") as fh:
        fh.write(f'{{"env": {json.dumps(env_stamp(), sort_keys=True)},\n"outputs": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    parser.add_argument("--invoke", metavar="ARGV_JSON", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.record or args.invoke) and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "laminarvc" / "__init__.py").is_file():
        print(f"error: no laminarvc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import laminarvc

    if Path(laminarvc.__file__).resolve().parent != SRC / "laminarvc":
        print(f"error: imported laminarvc from {laminarvc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.invoke:
        inv = invoke(json.loads(args.invoke))
        print(json.dumps({k: v for k, v in vars(inv).items() if k != "argv"}))
        return 0
    if args.record:
        record_reference(REFERENCE)
        return 0
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)["outputs"]
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read reference outputs {REFERENCE}: {e}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    report(result, OUT_DIR)
    return 0


if __name__ == "__main__":
    sys.exit(main())
