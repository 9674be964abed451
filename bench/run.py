"""The yaxl benchmark: one command, three workloads, pinned outputs.

    python3 bench/run.py --workload enumerate|search|sweep --seed N \\
        --seconds S --trace 0|1 [--size full|smoke]

Runs in a single process against the ``yaxl`` sources in ``src/`` of
the checkout holding this file, with ``--workers 1`` on every command.

Every time is given in *reference seconds* (see ``speed.py``): a timer
runs a fixed probe computation every 20 ms throughout, and a measured
interval, less the probes inside it, is scaled by the probe's reference
duration over the mean duration of the probes next to it.  This takes
out the swings in CPU speed of a shared virtual machine, which move raw
wall times by 1.5-2x within a run and between runs.  The log line
before the result keeps the raw wall times and the scales.

Set-up imports ``yaxl`` afresh and builds the workload's ops from the
seed; it is repeated ``SETUP_REPEATS`` times, a fixed number so that
the heap it leaves behind does not depend on the machine's speed, and
``setup_s`` is the median.  The timed phase then runs *passes*: one pass imports ``yaxl`` afresh (untimed)
and runs every op of the workload once.  Passes repeat until another
one would overrun ``--seconds`` (there is always at least one).  Every
op output is checked against the pinned value; a mismatch or an
exception is a failed op and does not stop the run.

An op's latency is the median of its scaled times over the passes.  The garbage collector
runs, untimed, before each set-up and each pass, and before each op
that is a whole CLI command, as if it ran in a process of its own; the
objects set-up leaves (inputs and pins) are then frozen out of its
reach.

``--trace 0`` reports the end-to-end metrics, measured untraced:

  wall_s       median over passes of the pass time (sum of op times)
  setup_s      median set-up time (import plus input generation)
  peak_rss_mb  peak resident set size of the process by the end of the
               first pass (later passes grow it by heap fragmentation)
  op_p50_ms    median op latency
  op_p99_ms    99th percentile op latency; on ``enumerate`` and
               ``search`` an op is a whole CLI command, so there are
               only five ops and this is close to the slowest command

``--trace 1`` alternates untraced and traced passes (see ``layers.py``)
and reports the per-layer metrics of one traced pass plus
``trace_overhead_ratio``: traced over untraced ``wall_s``.  The tracer
leaves probe time out, and its times are scaled by the traced passes'
overall scale.  Traced outputs must equal the untraced ones.

``attempted`` and ``failed`` count ops over every pass.  A line with
the provenance (source digest, git sha if any, Python, CPUs, seed) and
the input digest precedes the result, which is the last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 20
MODULES = (
    "fnmap", "shelves", "solutions", "twists", "constructions",
    "plonka", "enumeration", "serialization", "cli",
)


class Yaxl:
    """Freshly imported ``yaxl`` modules, one attribute per module."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "yaxl" or m.startswith("yaxl.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"yaxl.{name}"))

    def modules(self) -> dict:
        return {name: getattr(self, name) for name in MODULES}


def setup(workload: str, seed: int, size: str) -> list:
    """Import yaxl afresh and build the workload's ops."""
    Yaxl()
    return workloads.build_ops(workload, seed, size, workloads.load_pins())


def run_pass(ops, probe: speed.Probe, tracer=None) -> dict:
    """Run every op once on freshly imported modules, so that no state
    carries over from one pass to the next.  ``times`` are the ops'
    times in reference seconds, ``wall`` their sum, ``net`` the sum of
    the unscaled times."""
    gc.collect()
    y = Yaxl()
    if tracer is not None:
        tracer.install(y.modules())
    outputs, spans = [], []
    try:
        raw_start = perf_counter()
        for op in ops:
            if op.kind in workloads.COMMANDS:
                gc.collect()
            s0, t0 = perf_counter(), probe.clock()
            outputs.append(workloads.run_op(y, op))
            spans.append((probe.clock() - t0, s0, perf_counter()))
        raw_end = perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    times = [t * probe.scale(s0, s1) for t, s0, s1 in spans]
    failed = sum(out != op.expect for out, op in zip(outputs, ops))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall": sum(times), "net": sum(t for t, _, _ in spans), "raw": raw_end - raw_start,
        "times": times, "outputs": outputs, "failed": failed, "rss_mb": rss_mb,
    }


def run_passes(ops, probe: speed.Probe, budget: float) -> list:
    """Passes until the next one would end after ``budget`` seconds."""
    start = perf_counter()
    passes = [run_pass(ops, probe)]
    while perf_counter() - start + passes[-1]["raw"] <= budget:
        passes.append(run_pass(ops, probe))
    return passes


def median_times(passes: list) -> list:
    """Each op's median time over the passes."""
    return [statistics.median(ts) for ts in zip(*(p["times"] for p in passes))]


def percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "yaxl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def end_to_end(passes: list, setup_s: float) -> dict:
    op_times = median_times(passes)
    return {
        "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": passes[0]["rss_mb"], "unit": "MB"},
        "op_p50_ms": {"value": percentile(op_times, 50) * 1e3, "unit": "ms"},
        "op_p99_ms": {"value": percentile(op_times, 99) * 1e3, "unit": "ms"},
    }


def traced_run(ops, probe: speed.Probe, budget: float) -> tuple:
    """Untraced and traced passes, alternating, within the budget."""
    tracer = layers.Tracer(probe.clock)
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(ops, probe))
        traced.append(run_pass(ops, probe, tracer))
        spent = perf_counter() - start
        if spent + plain[-1]["raw"] + traced[-1]["raw"] > budget:
            break
    # traced outputs must equal the untraced ones, op by op
    reference = plain[0]["outputs"]
    for p in traced:
        p["failed"] += sum(
            out != ref and out == op.expect
            for out, ref, op in zip(p["outputs"], reference, ops)
        )
    # the tracer's times are unscaled: scale them as the passes' ops were
    time_scale = sum(p["wall"] for p in traced) / sum(p["net"] for p in traced)
    metrics = layers.layer_metrics(tracer, len(traced), time_scale)
    ratio = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in plain)
    metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return plain + traced, metrics


def timed_setup(workload: str, seed: int, size: str, probe: speed.Probe) -> tuple:
    """The ops, the median set-up time in reference seconds and the
    raw set-up times."""
    net, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        s0, t0 = perf_counter(), probe.clock()
        ops = setup(workload, seed, size)
        t, s1 = probe.clock() - t0, perf_counter()
        net.append(t * probe.scale(s0, s1))
        raw.append(s1 - s0)
    # the benchmark's own inputs and pins are not the program's garbage
    # to collect
    gc.collect()
    gc.freeze()
    return ops, statistics.median(net), raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    args = parser.parse_args(argv)

    if not (SRC / "yaxl" / "__init__.py").is_file():
        print(f"error: no yaxl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    with speed.Probe() as probe:
        ops, setup_s, setup_raw = timed_setup(args.workload, args.seed, args.size, probe)
        if args.trace:
            passes, metrics = traced_run(ops, probe, args.seconds)
        else:
            passes = run_passes(ops, probe, args.seconds)
            metrics = end_to_end(passes, setup_s)

    failed = sum(p["failed"] for p in passes)
    log = {
        "workload": args.workload,
        "size": args.size,
        "provenance": provenance(args.seed),
        "input_sha256": workloads.input_digest(ops),
        "ops_per_pass": len(ops),
        "passes": len(passes),
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_raw_walls_s": [p["raw"] for p in passes],
        "pass_scales": [p["wall"] / p["net"] for p in passes],
        "setup_raw_times_s": setup_raw,
        "probes": len(probe.times),
        "probe_median_ms": statistics.median(probe.times) * 1e3 if probe.times else None,
    }
    print(json.dumps(log))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
