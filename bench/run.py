"""symfreq benchmark: one workload per run, single process, single thread.

    python3 bench/run.py --workload scan|certify|evaluate --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  A run
does a fixed number of whole passes over seed-generated inputs (about S
seconds at the seed commit's speed), times every op, and checks every op's
output against an oracle after the timed loop.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_tail_ms,
setup_s (median over fresh processes of the time from process start to the
first timed op) and peak_rss_mb.  --trace 1 replays each pass once untraced
and once with a span around every cross-module call, prints the per-layer
metrics and the tracing overhead, and writes the spans to .bench_out/.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Percentiles the tail may be reported at, lowest first.
TAIL_GRID = (50.0, 90.0, 99.0, 99.9, 99.99)
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Fresh processes timed for setup_s.
SETUP_PROBES = 5
#: No pass starts once the timed part has run this many times --seconds,
#: so a slow host cannot stretch a run without limit.
DEADLINE_FACTOR = 1.25


def _rank(p: float, n: int) -> int:
    # 1-based nearest rank; the epsilon keeps p * n / 100 from rounding up
    return max(1, math.ceil(p * n / 100 - 1e-9))


def nearest_rank(sorted_values, p: float):
    """The p-th percentile by the nearest-rank rule."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest grid percentile with at least TAIL_BEYOND samples beyond it.

    Falls back to the median when even that has fewer beyond it.
    """
    best = TAIL_GRID[0]
    for p in TAIL_GRID:
        if n - _rank(p, n) >= TAIL_BEYOND:
            best = p
    return best


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def load_modules() -> dict:
    sys.path.insert(0, str(SRC))
    from symfreq import balls, cli, cyclotomic, frequencies, linalg, lll, relations, solver

    return {
        "balls": balls,
        "frequencies": frequencies,
        "cli": cli,
        "cyclotomic": cyclotomic,
        "lll": lll,
        "linalg": linalg,
        "relations": relations,
        "solver": solver,
    }


def prepare(args):
    """Everything a run does before its first timed op."""
    from workloads import WORKLOADS, pass_count

    modules = load_modules()
    wl = WORKLOADS[args.workload](modules)
    passes = wl.make_passes(random.Random(args.seed), pass_count(wl, args.seconds))
    wl.warm_up()
    return modules, wl, passes


def time_op(wl, fn, op, outputs) -> float:
    """Run one op, keep its output (or the exception it raised), return seconds."""
    t0 = time.perf_counter()
    try:
        out = wl.call(fn, op)
    except Exception as exc:  # an op that raises counts as failed
        out = exc
    elapsed = time.perf_counter() - t0
    outputs.append(out)
    return elapsed


def run_pass(wl, fn, ops, latencies, outputs) -> float:
    """Time every op of one pass; returns the pass's wall time."""
    start = time.perf_counter()
    for op in ops:
        latencies.append(time_op(wl, fn, op, outputs))
    return time.perf_counter() - start


def count_failures(wl, ops, outputs) -> int:
    failed = 0
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            ok = False
            if failed == 0:
                traceback.print_exception(type(out), out, out.__traceback__, file=sys.stderr)
        else:
            ok = wl.check(op, out)
        if not ok:
            failed += 1
            if failed <= 5:
                print(f"FAILED op: {op!r}", file=sys.stderr)
    return failed


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process to its first timed op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def measure(args, wl, fn, passes) -> dict:
    latencies: list[float] = []
    outputs: list = []
    ops: list = []
    wall = 0.0
    done = 0
    for pass_ops in passes:
        if wall > DEADLINE_FACTOR * args.seconds:
            break
        wall += run_pass(wl, fn, pass_ops, latencies, outputs)
        ops.extend(pass_ops)
        done += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = count_failures(wl, ops, outputs)
    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]

    n = len(latencies)
    ordered = sorted(latencies)
    tail_p = tail_percentile(n)
    tail = nearest_rank(ordered, tail_p)
    beyond = sum(1 for x in ordered if x > tail)
    print(f"ops: {n} in {wall:.3f} s over {done} passes; "
          f"fail_frac {failed / n:.6g} ({failed}/{n})")
    print(f"tail: p{tail_p:g} of {n} samples ({beyond} beyond it)")
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    metrics = {
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {"attempted": n, "failed": failed, "metrics": metrics}


def measure_traced(args, wl, fn, passes, modules) -> dict:
    from tracing import LAYERS, Tracer, layer_metrics
    from workloads import exponent_mass

    tracer = Tracer()
    traced_fn = tracer.wrap(*wl.entry, fn)
    outputs: list = []
    ops: list = []
    plain = traced = 0.0
    # every op runs untraced and traced back to back, so that both timings
    # see the same machine state; which goes first alternates, because a
    # repeat of the same op runs a little faster
    for pass_ops in passes[: max(1, len(passes) // 2)]:
        if plain + traced > DEADLINE_FACTOR * args.seconds:
            break
        for op in pass_ops:
            traced_first = len(ops) % 4 == 2
            if not traced_first:
                plain += time_op(wl, fn, op, outputs)
            tracer.op = len(ops) // 2
            tracer.install(modules)
            try:
                traced += time_op(wl, traced_fn, op, outputs)
            finally:
                tracer.uninstall()
            if traced_first:
                plain += time_op(wl, fn, op, outputs)
            ops += [op, op]
    failed = count_failures(wl, ops, outputs)

    per_layer = layer_metrics(tracer.spans, lambda form: exponent_mass(modules["cyclotomic"], form))
    per_layer["trace.overhead_frac"] = traced / plain - 1.0
    per_layer["trace.spans"] = len(tracer.spans)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)

    total = sum(per_layer[f"{layer}.self_s"] for layer in LAYERS)
    print(f"traced ops: {len(ops) // 2}; untraced {plain:.3f} s, traced {traced:.3f} s, "
          f"overhead {per_layer['trace.overhead_frac']:+.2%}; spans in {spans_path.relative_to(ROOT)}")
    for layer in LAYERS:
        share = per_layer[f"{layer}.self_s"] / total if total else 0.0
        print(f"  {layer:<12} self {per_layer[f'{layer}.self_s']:9.4f} s  {share:6.1%}")
    ratios = {"cyclotomic.accept_ratio", "solver.certify_yield", "trace.overhead_frac"}
    metrics = {}
    for name, value in per_layer.items():
        unit = "s" if name.endswith("_s") else "ratio" if name in ratios else "count"
        metrics[name] = (value, unit)
    return {"attempted": len(ops), "failed": failed, "metrics": metrics}


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "symfreq" / "__init__.py").is_file():
        print(f"error: no symfreq package under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    modules, wl, passes = prepare(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print("env: " + json.dumps(environment()))
    fn = getattr(modules[wl.entry[0]], wl.entry[1])
    if args.trace:
        result = measure_traced(args, wl, fn, passes, modules)
    else:
        result = measure(args, wl, fn, passes)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
