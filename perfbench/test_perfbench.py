"""Self-test of the benchmark harness at tiny scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = json.loads(run.REFERENCE.read_text())["seed"]


def bench(workload: str, trace: int, seed: int = SEED) -> dict:
    """Run one tiny invocation and parse its last line."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, check=True, cwd=HERE.parent,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    result = bench(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_list_matches_benchmark_file() -> None:
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def test_two_traced_runs_on_one_seed_give_identical_counters() -> None:
    first, second = (bench("shard_attack", 1)["metrics"] for _ in range(2))
    for counter in spans.COUNTERS:
        assert first[counter] == second[counter], counter
    assert first["distributed.merges"]["value"] > 0


def test_tampered_reference_digest_is_a_failed_operation() -> None:
    wl.use_checkout_source()
    workload = wl.build("shard_attack", SEED, "tiny")
    honest = wl.OpLog()
    run.Checker(honest, run.load_reference(SEED, "tiny")).check(workload.run_pass(honest))
    assert honest.attempted == len(wl.SHARD_ATTACK) and honest.failed == 0

    tampered = run.load_reference(SEED, "tiny")
    tampered["shard_hotspot"] = "0" * 64
    ops = wl.OpLog()
    run.Checker(ops, tampered).check(workload.run_pass(ops))
    assert ops.failed == 1 and ops.failed / ops.attempted > 0


def test_speedometer_leaves_its_samples_out_and_scales_by_segment() -> None:
    with run.Speedometer() as meter:
        start = meter.clock()
        first = meter.mark()
        while len(meter.kernel) < 4:
            pass
        second = meter.mark()
        meter.mark()
        elapsed = meter.clock() - start
    assert (first, second) == (0, 1)
    assert meter.spent >= sum(meter.kernel) > 0
    assert elapsed < run.SPEEDOMETER_PERIOD_S * len(meter.kernel)
    record = wl.PassRecord([(10, 1.0), (10, 1.0)], [1.0, 2.0], {}, 3.0, [0, 1], [0, 1])
    scaled = meter.normalise(record, (0.5, 1.0))
    speeds = [run.REFERENCE_KERNEL_S / meter.segment_kernel(s) for s in (0, 1)]
    assert scaled.latencies == pytest.approx([speeds[0], 2 * speeds[1]])
    assert [s for _, s in scaled.work] == pytest.approx([speeds[0] ** 0.5, speeds[1] ** 0.5])
    assert run.speed_scale(run.REFERENCE_KERNEL_S, 0.75) == 1.0
