"""qshutter benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload structures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  A run measures a fixed number of whole op blocks,
``--seconds`` times the workload's ``blocks_per_s``, which is sized so that a
run of the code this benchmark was defined on lasts about ``--seconds``.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs half the blocks, each op once untraced and then once with
every layer function wrapped (see tracing.py), and reports the per-layer
metrics of the traced runs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines above
it, and a JSON report under ``.perfbench/`` in the checkout, record the
machine, the generator ranges, every op's input and duration and every
failed op with its error.  See README.md.
"""

from __future__ import annotations

import os

# pin native thread pools before numpy is imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10
WORKLOADS = ("structures", "scenario_sweep", "density_maps")
# the speed probe's time on the reference machine in its usual state
PROBE_REF_S = 0.0013
sys.path.insert(0, str(ROOT / "src"))


def probe() -> float:
    """Machine-speed probe: best of three runs of a fixed numpy/scipy kernel.

    The kernel mixes the two kinds of work the package does (small complex
    2x2 products driven from Python, and vectorized Faddeeva evaluation) and
    calls nothing in the package, so a change to the package cannot move it.
    The best of three drops interrupts and keeps the slowdowns that last.
    """
    import numpy as np
    from scipy.special import wofz

    z = np.linspace(-3.0, 3.0, 4000) * (1.0 - 0.5j)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = np.eye(2, dtype=complex)
        for j in range(100):
            q = complex(0.3 + 0.001 * j, -0.01)
            c, sinc = np.cos(q), np.sin(q) / q
            acc = np.array([[c, sinc], [-q * q * sinc, c]], dtype=complex) @ acc
        wofz(1j * z)
        best = min(best, time.perf_counter() - start)
    return best


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    """Wall time rescaled to the reference machine speed."""
    return seconds * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def _environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond): the highest percentile of the
    latencies with at least TAIL_BEYOND ops above it.  With fewer ops the
    maximum is returned with the count of ops that are actually beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n > TAIL_BEYOND:
        return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return xs[-1], 100.0, 0


class Phase:
    """Runs ops and keeps one record per op."""

    def __init__(self):
        self.records: list[dict] = []
        self.correct = True

    def run_op(self, index: int, op, tracer=None) -> None:
        """Time one op, check its output and record it; with a tracer the
        op is also an op span."""
        from qshutter.errors import QShutterError

        rec = {"index": index, "input": op.spec, "status": "ok"}
        try:
            start = time.perf_counter()
            if tracer is not None:
                tracer.begin_op(index)
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - recorded, run goes on
                rec["status"] = "error"
                rec["error"] = type(exc).__name__
                rec["message"] = str(exc)
                if not isinstance(exc, QShutterError):
                    # an untyped exception is a defect, not a typed refusal
                    self.correct = False
                    rec["traceback"] = traceback.format_exc()
            finally:
                if tracer is not None:
                    tracer.end_op()
                rec["seconds"] = time.perf_counter() - start
            if rec["status"] == "ok":
                failed_checks = op.check(out)
                if failed_checks:
                    rec["status"] = "check_failed"
                    rec["checks"] = failed_checks
                    self.correct = False
        finally:
            if op.cleanup is not None:
                op.cleanup()
        self.records.append(rec)

    @property
    def successes(self) -> list[float]:
        return [r["ref_seconds"] for r in self.records if r["status"] == "ok"]

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["status"] != "ok")

    @property
    def op_seconds(self) -> float:
        return sum(r["seconds"] for r in self.records)


def run_phase(ops, blocks: int, max_ops: int | None) -> Phase:
    """Run ops until ``blocks`` blocks are complete or ``max_ops`` ops are
    done, probing the machine's speed between ops."""
    phase = Phase()
    before = probe()
    for i, op in enumerate(ops):
        phase.run_op(i, op)
        after = probe()
        rec = phase.records[-1]
        rec["ref_seconds"] = scaled(rec["seconds"], before, after)
        before = after
        blocks -= op.block_end
        if blocks <= 0 or (max_ops is not None and len(phase.records) >= max_ops):
            break
    return phase


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    max_ops: int | None = None,
    make=None,
) -> dict:
    """One benchmark run; returns the full report (see ``result_line``).

    ``make`` maps the work directory to the workload table; it defaults to
    ``workloads.make_workloads`` (the smoke test substitutes ops)."""
    t0 = time.perf_counter()
    import qshutter  # noqa: F401  (timed: part of set-up)

    import_s = time.perf_counter() - t0
    import workloads
    from qshutter.twolevel import clamp_count

    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    wl = (make or workloads.make_workloads)(work_dir)[workload]
    blocks = max(1, round(seconds * wl.blocks_per_s))
    probes = [probe()]
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t1 = time.perf_counter()
        state = wl.setup(seed)
        wl.warm_up(state)
        setup_runs.append(time.perf_counter() - t1)
        probes.append(probe())
    setup_ref = [scaled(t, a, b) for t, a, b in zip(setup_runs, probes, probes[1:])]
    import_ref = scaled(import_s, probes[0], probes[0])

    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "blocks": blocks,
        "trace": int(trace),
        "environment": _environment(),
        "generator": wl.ranges,
        "setup": {
            "import_s": import_s,
            "setup_and_warm_up_s": setup_runs,
            "probe_s": probes,
        },
    }
    if not trace:
        phase = run_phase(wl.ops(state), blocks, max_ops)
        ok = phase.successes
        value, pct, beyond = tail(ok) if ok else (float("nan"), 0.0, 0)
        ops_ref_s = sum(r["ref_seconds"] for r in phase.records)
        report["metrics"] = {
            "throughput_ops_per_s": (len(ok) / ops_ref_s, "ops/s"),
            "latency_p50_s": (statistics.median(ok) if ok else float("nan"), "s"),
            "latency_tail_s": (value, "s"),
            "failed_fraction": (phase.failed / len(phase.records), "1"),
            "setup_s": (import_ref + statistics.median(setup_ref), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
            ),
        }
        report["samples"] = {
            "ops_attempted": len(phase.records),
            "ops_succeeded": len(ok),
            "latency_tail_percentile": pct,
            "latency_tail_ops_beyond": beyond,
            "ops_wall_s": phase.op_seconds,
            "ops_reference_s": ops_ref_s,
            "raw_latency_p50_s": statistics.median(
                r["seconds"] for r in phase.records if r["status"] == "ok"
            )
            if ok
            else float("nan"),
            "raw_setup_s": import_s + statistics.median(setup_runs),
        }
        report["ops"] = phase.records
        report["correct"] = phase.correct
        report["attempted"] = len(phase.records)
        report["failed"] = phase.failed
        return report

    import tracing

    # each op runs twice back to back, untraced and then traced, so that
    # trace.overhead_frac compares the same inputs under the same machine load
    base, traced = Phase(), Phase()
    tracer = tracing.Tracer()
    clamps = 0
    left = max(1, blocks // 2)
    for i, (op, twin) in enumerate(zip(wl.ops(state), wl.ops(state))):
        base.run_op(i, op)
        before = clamp_count()
        tracer.install()
        try:
            traced.run_op(i, twin, tracer)
        finally:
            tracer.uninstall()
        clamps += clamp_count() - before
        left -= op.block_end
        if left <= 0 or (max_ops is not None and i + 1 >= max_ops):
            break
    count = len(traced.records)
    metrics = tracer.metrics(count)
    metrics["twolevel.clamps"] = (clamps, "count")
    metrics["trace.overhead_frac"] = (traced.op_seconds / base.op_seconds - 1.0, "1")
    metrics["trace.self_time_coverage"] = (
        1.0 - tracer.self_s[tracing.OP] / traced.op_seconds,
        "1",
    )
    report["metrics"] = metrics
    report["samples"] = {
        "ops_attempted": count,
        "untraced_ops_s": base.op_seconds,
        "traced_ops_s": traced.op_seconds,
    }
    report["ops"] = traced.records
    report["spans"] = tracer.spans
    report["correct"] = base.correct and traced.correct
    report["attempted"] = count
    report["failed"] = traced.failed
    return report


def result_line(report: dict, names: list[str]) -> dict:
    """The final stdout object: only the metrics BENCHMARK.json names."""
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            n: {"value": report["metrics"][n][0], "unit": report["metrics"][n][1]}
            for n in names
        },
    }


def _print_summary(report: dict, path: Path) -> None:
    env = report["environment"]
    print(
        f"workload {report['workload']}  seed {report['seed']}  "
        f"trace {report['trace']}  seconds {report['seconds']}  "
        f"blocks {report['blocks']}"
    )
    print(
        f"machine: nproc {env['nproc']}, {env['cpu_model']}, python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}"
    )
    for key, value in report["samples"].items():
        print(f"  {key} = {value}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name} = {value!r} {unit}")
    for rec in report["ops"]:
        if rec["status"] != "ok":
            what = rec.get("error") or ",".join(rec.get("checks", []))
            print(f"  failed op {rec['index']}: {what}: {rec.get('message', '')}")
            print(f"    input: {json.dumps(rec['input'])}")
    print(f"report: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qshutter" / "__init__.py").is_file() or not bench.is_file():
        print(f"no qshutter source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = ROOT / ".perfbench" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    path.write_text(json.dumps(report, indent=1, default=float))
    _print_summary(report, path)
    print(json.dumps(result_line(report, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
