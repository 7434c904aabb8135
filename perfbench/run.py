"""Benchmark of the eegspeech pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decode --seed 1 --seconds 15 --trace 0

One process, one closed-loop client: each op starts when the previous one
returns. The workload's inputs are generated from --seed. With --trace 0 the
end-to-end metrics are measured with no instrumentation; with --trace 1 the
program's layers are wrapped in spans and the per-layer metrics are printed.
Every timing is calibrated against a machine-speed probe (see probe.py); raw
wall times and probe readings are printed beside the calibrated numbers.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import os

# The benchmark measures the single-threaded baseline: pin BLAS/OpenMP pools
# before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

# setup_s is the median of SETUP_REPEATS set-ups from scratch in one run; the
# first set-up alone spreads about twice as widely from run to run.
SETUP_REPEATS = 3
# Each timed call is calibrated by the median of this many probe readings.
PROBE_WINDOW = 9
TAIL_BEYOND = 10
TRAIN_WORKLOADS = ("synth-train", "regress-train")
# Order in which a traced run borrows other workloads for layers its own does not reach.
COVERAGE_ORDER = ("synth-train", "regress-train", "prep", "decode")


@dataclass
class Phase:
    """Timed calls in a closed loop, with one machine-speed probe reading after
    each call.

    Readings are never taken back to back: a reading within ~50 ms of the last
    one finds the probe's sweep buffer still in cache and takes a third less time,
    whereas after a call, or after sleeping as long, the buffer has left the
    shared cache whatever the call did.
    """

    wall_s: list[float] = field(default_factory=list)
    eeg_s: list[float] = field(default_factory=list)
    problems: list[list[str]] = field(default_factory=list)
    probes_ms: list[float] = field(default_factory=list)
    root_spans: list[int] = field(default_factory=list)

    def probe_for(self, i: int) -> float:
        """Median of the PROBE_WINDOW readings nearest call i (centred on it,
        and shifted at the ends of the loop), so that stray readings are
        rejected and a long call is calibrated by more than its own reading."""
        start = max(0, min(i - PROBE_WINDOW // 2, len(self.probes_ms) - PROBE_WINDOW))
        return statistics.median(self.probes_ms[start:start + PROBE_WINDOW])

    def calibrated_s(self) -> list[float]:
        return [calibrate(w, self.probe_for(i)) for i, w in enumerate(self.wall_s)]

    def eeg_s_per_s(self, calibrated: bool = True) -> float:
        return sum(self.eeg_s) / sum(self.calibrated_s() if calibrated else self.wall_s)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def run_ops(workload, probe, seconds: float, tracer=None) -> Phase:
    """Closed loop of ops until the time is up, min_ops are done and the last
    pass over the workload's inputs is complete."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < workload.min_ops or i % workload.cycle or time.perf_counter() < deadline:
        if tracer is not None:
            phase.root_spans.append(len(tracer.spans))
        t0 = time.perf_counter()
        try:
            if tracer is None:
                eeg_s, problems = workload.op(i)
            else:
                eeg_s, problems = tracer.call(ROOT, workload.op, i)
        except Exception:  # one failed op is counted, and the loop goes on
            eeg_s, problems = 0.0, [traceback.format_exc(limit=4)]
        phase.wall_s.append(time.perf_counter() - t0)
        phase.eeg_s.append(eeg_s)
        phase.problems.append(problems)
        phase.probes_ms.append(probe.measure())
        i += 1
    return phase


def run_setups(name: str, seed: int, size, workdir: Path, probe, repeats: int):
    """Build the workload `repeats` times, each from scratch and probed like an
    op; returns the last build and the Phase that timed the builds."""
    phase = Phase()
    workload = None
    for k in range(repeats):
        workload = None
        kdir = workdir / f"setup{k}"
        kdir.mkdir(parents=True)
        gc.collect()
        t0 = time.perf_counter()
        workload = WORKLOADS[name](seed, size, kdir)
        phase.wall_s.append(time.perf_counter() - t0)
        phase.probes_ms.append(probe.measure())
    return workload, phase


def latency_tail(values_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it.

    A run with fewer than 2 * TAIL_BEYOND ops has no such percentile above the
    median, so its slowest op is reported, as percentile 100.
    """
    ordered = sorted(values_ms)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": cpu,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def rounded(values, digits: int = 2) -> list[float]:
    return [round(v, digits) for v in values]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def run_end_to_end(args, size, workdir: Path, probe) -> tuple[dict, int, int, bool]:
    workload, setups = run_setups(args.workload, args.seed, size, workdir, probe, SETUP_REPEATS)
    phase = run_ops(workload, probe, args.seconds)
    lat = [s * 1e3 for s in phase.calibrated_s()]
    raw = [s * 1e3 for s in phase.wall_s]
    tail, tail_pct = latency_tail(lat)
    metrics = {
        "setup_s": metric(statistics.median(setups.calibrated_s()), "s"),
        "eeg_s_per_s": metric(phase.eeg_s_per_s(), "EEG-s/s"),
        "latency_p50_ms": metric(statistics.median(lat), "ms"),
        "latency_tail_ms": metric(tail, "ms"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    n = len(lat)
    print(f"setup: {SETUP_REPEATS} repeats, raw s {rounded(setups.wall_s, 4)}, "
          f"calibrated s {rounded(setups.calibrated_s(), 4)}")
    print(f"setup probe ms (after each) {rounded(setups.probes_ms, 3)}")
    print(f"ops: {n} attempted, {phase.failed} failed, error_rate {phase.failed / n:.4f}")
    print(f"raw: setup_s {statistics.median(setups.wall_s):.4f} s, eeg_s_per_s "
          f"{phase.eeg_s_per_s(calibrated=False):.4f} EEG-s/s, latency_p50_ms {statistics.median(raw):.3f} ms, "
          f"latency_tail_ms {latency_tail(raw)[0]:.3f} ms")
    print(f"latency_tail_ms is p{tail_pct:.1f} of {n} ops")
    print(f"op raw ms {rounded(raw)}")
    print(f"op probe ms (after each) {rounded(phase.probes_ms, 3)}")
    loss = workload.final_loss()
    if loss is not None:
        print(f"final_loss {loss:.9g} MSE after {workload.min_ops} timed ops (not gated)")
    for problem in [p for ps in phase.problems for p in ps][:10]:
        print(f"FAILED: {problem}")
    return metrics, n, phase.failed, phase.failed == 0


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def alloc_peak_mib(workload, i: int) -> float:
    """Peak traced allocation of one op above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        workload.op(i)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def traced_workload(name: str, args, size, workdir: Path, probe, tracer, seconds: float):
    """Traced set-up and ops of one workload; returns (LayerStats, Phase, workload)."""
    tracer.install()
    try:
        tracer.phase = f"{name}/setup"
        workload, setups = run_setups(name, args.seed, size, workdir / name, probe, 1)
        tracer.phase = f"{name}/op"
        phase = run_ops(workload, probe, seconds, tracer)
    finally:
        tracer.uninstall()
        tracer.phase = ""
    alloc = {}
    if name in TRAIN_WORKLOADS:
        alloc[name.split("-")[0]] = alloc_peak_mib(workload, len(phase.wall_s))
    op_probe = {root: phase.probe_for(i) for i, root in enumerate(phase.root_spans)}
    return LayerStats(tracer, name, op_probe, setups.probe_for(0), alloc), phase, workload


def run_traced(args, size, workdir: Path, probe) -> tuple[dict, int, int, bool]:
    tracer = Tracer()
    stats, traced, workload = traced_workload(args.workload, args, size, workdir, probe, tracer, args.seconds)
    untraced = run_ops(workload, probe, args.seconds)
    del workload
    phases = [traced, untraced]
    found: dict[str, tuple[float, str]] = {}
    layer = layer_metrics()

    def collect(s):
        print(f"trace {s.name}: per-layer self times cover {100 * s.attributed_share:.1f}% of op time")
        for m in layer:
            value = None if m.name in found else m.read(s)
            if value is not None:
                share = f" ({100 * s.share(m.span):.1f}% of op)" if m.span else ""
                found[m.name] = (value, f"{share} [{s.name}]")

    collect(stats)
    for other in COVERAGE_ORDER:
        if other != args.workload and any(m.name not in found for m in layer):
            gc.collect()
            s, phase, _ = traced_workload(other, args, size, workdir, probe, tracer, 0.0)
            phases.append(phase)
            collect(s)

    probes = traced.probes_ms + untraced.probes_ms
    bench = {
        "bench.calib_probe_ms": (statistics.median(probes), "ms"),
        "bench.raw_eeg_s_per_s": (untraced.eeg_s_per_s(calibrated=False), "EEG-s/s"),
        "bench.trace_overhead_ratio": (untraced.eeg_s_per_s() / traced.eeg_s_per_s(), "ratio"),
    }
    metrics = {}
    for m in layer:
        value, note = found.get(m.name, (0.0, " [not reached]"))
        metrics[m.name] = metric(value, m.unit)
        print(f"{m.name} {value:.6g} {m.unit}{note}")
    for name, (value, unit) in bench.items():
        metrics[name] = metric(value, unit)
        print(f"{name} {value:.6g} {unit} [{args.workload}]")
    out = Path.cwd() / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(Path.cwd())}")
    failures = [p for ph in phases for ps in ph.problems for p in ps]
    for problem in failures[:10]:
        print(f"FAILED: {problem}")
    failed = sum(ph.failed for ph in phases)
    return metrics, sum(len(ph.wall_s) for ph in phases), failed, failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="paper",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    workdir = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    print(f"env: {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} "
          f"size {args.size}; closed loop, 1 client, 1 process")
    probe = Probe()
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics, attempted, failed, correct = run(args, SIZES[args.size], workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC_DIR / "eegspeech" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC_DIR}; run from the root of a full checkout")
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    from probe import Probe, calibrate
    from spans import ROOT, LayerStats, Tracer, layer_metrics
    from workloads import SIZES, WORKLOADS

    sys.exit(main())
