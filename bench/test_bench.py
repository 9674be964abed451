"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
import signal
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import pytest

import layers
import run
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(run.SRC))


def _invoke(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_tracer_reaches_every_binding():
    y = run.Yaxl()
    modules = y.modules()
    compose = y.fnmap.compose
    holders = [m for m in modules.values() if getattr(m, "compose", None) is compose]
    assert len(holders) >= 7  # fnmap plus the modules importing it by name
    originals = {id(v) for m in modules.values() for v in vars(m).values()}
    tracer = layers.Tracer()
    tracer.install(modules)
    try:
        wrapped = y.fnmap.compose
        assert wrapped is not compose
        assert all(m.compose is wrapped for m in holders)
        for mod in modules.values():
            for name, value in vars(mod).items():
                public = not name.startswith("_")
                if callable(value) and getattr(value, "__module__", "").startswith("yaxl."):
                    if public and not isinstance(value, type):
                        assert id(value) not in originals, f"{mod.__name__}.{name}"
        y.shelves.is_left_shelf(((0, 1), (0, 1)))
        y.plonka.plonka_sum(y.plonka.PlonkaSystem(((0,),), (((0,),),), {(0, 0): (0,)}))
    finally:
        tracer.uninstall()
    assert y.fnmap.compose is compose and all(m.compose is compose for m in holders)
    assert tracer.calls("fnmap.compose") > 0
    # plonka_sum imports is_left_shelf inside its body: still traced
    assert tracer.calls("shelves.is_left_shelf") == 3


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced(workload):
    ops = run.setup(workload, 3, "smoke")
    probe = speed.Probe()
    plain = run.run_pass(ops, probe)
    tracer = layers.Tracer(probe.clock)
    traced = run.run_pass(ops, probe, tracer)
    assert plain["failed"] == traced["failed"] == 0
    assert traced["outputs"] == plain["outputs"]
    assert any(s.calls for s in tracer.stats.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload):
    pins = workloads.load_pins()
    digest = workloads.input_digest
    for size in workloads.SIZES:
        first = workloads.build_ops(workload, 7, size, pins)
        assert digest(first) == digest(workloads.build_ops(workload, 7, size, pins))
        if workload == "sweep":
            assert digest(first) != digest(workloads.build_ops(workload, 8, size, pins))


def test_plonka_population_is_the_acceptance_sweep():
    pins = workloads.load_pins()
    assert len(workloads.plonka_population(pins)) == pins["plonka_population"] == 22070


def test_mismatch_and_exception_count_as_failed_ops():
    ops = run.setup("sweep", 1, "smoke")
    bad = [
        ops[0]._replace(expect="something else"),
        workloads.Op("plonka", "{not json", True),
    ] + ops[1:]
    result = run.run_pass(bad, speed.Probe())
    assert result["failed"] == 2
    assert len(result["outputs"]) == len(bad)
    assert result["outputs"][1].startswith("JSONDecodeError")


def test_probe_time_is_left_out_of_the_work():
    with speed.Probe() as probe:
        t0, r0 = probe.clock(), perf_counter()
        while len(probe.times) < 5:
            sum(range(1000))
        net, raw = probe.clock() - t0, perf_counter() - r0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert abs(raw - net - sum(probe.times)) < 1e-3
    assert probe.stamps == sorted(probe.stamps)


def test_scale_uses_the_probes_next_to_an_interval():
    probe = speed.Probe()
    assert probe.scale(0.0, 1.0) == 1.0
    ref = speed.REFERENCE_S
    probe.stamps = [0.0, 0.02, 0.04, 0.06, 10.0]
    probe.times = [ref, 2 * ref, 4 * ref, 4 * ref, ref / 2]
    assert probe.scale(0.021, 0.022) == 0.5  # the probe at 0.02 only
    assert probe.scale(0.035, 0.065) == 0.25  # 0.04 and 0.06
    assert probe.scale(0.0, 0.06) == ref / statistics.fmean(probe.times[:4])
    assert probe.scale(5.0, 5.001) == 0.25  # none near: the nearest, 0.06
    assert probe.scale(20.0, 21.0) == 2.0  # after the last one


def test_op_times_are_scaled_by_the_probes_next_to_them():
    ops = run.setup("sweep", 2, "smoke")
    probe = speed.Probe()
    # a machine at half the reference speed, probed every millisecond
    start = perf_counter()
    probe.stamps = [start + k * 1e-3 for k in range(100_000)]
    probe.times = [2 * speed.REFERENCE_S] * len(probe.stamps)
    result = run.run_pass(ops, probe)
    assert result["failed"] == 0
    assert result["wall"] == pytest.approx(result["net"] / 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics(workload, trace):
    proc = _invoke("--workload", workload, "--seed", "5", "--seconds", "1",
                   "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    log, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert set(log["provenance"]) == {"git_sha", "src_sha256", "python", "nproc", "cpu", "seed"}


def test_refuses_to_run_without_the_sources():
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _invoke("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
