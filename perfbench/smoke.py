"""Fast smoke test of the benchmark itself (about half a minute):

    python3 -m pytest -q perfbench/smoke.py

Runs one op per workload, untraced and traced, and checks that every
metric BENCHMARK.json names is emitted with its unit; then feeds a corrupted
output through the harness and checks that it is counted as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    report = run.run(workload, seed=3, seconds=0.0, trace=trace, max_ops=1)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    line = run.result_line(report, [m["name"] for m in wanted])
    json.dumps(line, allow_nan=False)
    assert line["attempted"] == 1
    assert line["correct"] is True
    for m in wanted:
        emitted = line["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert math.isfinite(emitted["value"]), m["name"]
    assert len(line["metrics"]) == len(wanted)


class _CorruptedStructures(workloads.Structures):
    """The reference triple barrier with its first pole moved by 1e-6 nm^-1."""

    def ops(self, state):
        for op in super().ops(state):

            def corrupted(run_op=op.run):
                poles, modes, Ts = run_op()
                moved = dataclasses.replace(poles[0], k=poles[0].k + 1e-6)
                return [moved] + poles[1:], modes, Ts

            yield dataclasses.replace(op, run=corrupted)


def test_perturbed_pole_is_a_failed_op():
    report = run.run(
        "structures",
        seed=3,
        seconds=0.0,
        trace=False,
        max_ops=1,
        make=lambda work_dir: {"structures": _CorruptedStructures()},
    )
    assert report["attempted"] == 1
    assert report["failed"] == 1
    assert report["correct"] is False
    assert report["ops"][0]["checks"] == ["reference_pins"]
    assert report["metrics"]["failed_fraction"][0] == 1.0


def test_checks_reject_bad_values():
    from qshutter.poles import ResonancePole

    mirrored = [
        ResonancePole(index=i + 1, k=-k.conjugate(), E=0j, hbar=1.0)
        for i, k in enumerate(workloads.TRIPLE_K)
    ]
    failed = workloads.check_poles(workloads.TRIPLE_LAYERS, mirrored)
    assert failed == ["pole_fourth_quadrant", "reference_pins"]
    assert workloads.check_transmission([1.0 + 1e-9]) == ["transmission_at_most_1"]
    for bad in (-1e-3, float("nan")):
        assert workloads.check_densities([np.array([0.1, bad])]) == [
            "density_finite_nonnegative"
        ]
