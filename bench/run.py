"""End-to-end benchmark of the quantitize CLI.

    python3 bench/run.py --workload pipeline_large --seed 0 --seconds 30 --trace 0

Runs one workload (see bench/README.md) from the root of a source checkout:
imports the package from ``src/``, writes the workload's inputs under
``.bench_runs/``, then repeats a pass of CLI commands, in this process and
one after another, for ``--seconds`` (at least ``MIN_PASSES`` passes). The
last pass's outputs are checked against the benchmark's own computations.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where an operation is one
CLI command and a non-zero exit code is a failure.

Times are corrected for the host's speed (see ``speed.py``): a timer
signal times a fixed kernel every 0.1 s, and each command's wall time, less
those probes, is scaled by how much slower than its reference the kernel
ran meanwhile. The lines before the JSON also give the wall time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics from the traced
ones, the tracing overhead (traced minus untraced pass time), and writes
the spans to ``.bench_runs/<workload>-<seed>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced and two traced
# Set-up is timed before the first pass and after each of the next ones,
# so that its samples spread over the run; set-up metrics are the median.
# Each sample imports the package in a fresh interpreter and writes the
# inputs.
SETUP_SAMPLES = 4
IMPORT = "import quantitize, quantitize.cli"

END_TO_END = (("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics measured here rather than from spans (see spans.py)
EXTRA_LAYER_METRICS = (("setup.import_s", "s"), ("setup.inputs_s", "s"),
                       ("trace.overhead_s", "s"), ("trace.overhead_pct", "%"))


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            f"t = time.perf_counter(); {IMPORT}; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _setup_sample(workload, probe) -> tuple[float, float]:
    """(import_s, inputs_s) at the reference speed. The import runs in a
    child interpreter, so it is scaled by the speed probed meanwhile."""
    t0 = probe.clock()
    import_s = _import_seconds()
    t1 = probe.clock()
    workload.make_inputs()
    return import_s * probe.factor(t0, t1), probe.corrected(t1, probe.clock())


def _run_pass(workload, probe, times: dict, wall: dict) -> tuple[int, int]:
    """One pass of the workload's commands; adds each command's time at the
    reference speed to ``times``, and its time less the probes to ``wall``,
    and returns (attempted, failed)."""
    from workloads import run_cli

    failed = 0
    for name, argv in workload.commands:
        t0 = probe.clock()
        try:
            code = run_cli(argv)
        except Exception:  # a crash is a failed operation, not the end
            traceback.print_exc()
            code = -1
        t1 = probe.clock()
        times[name] = times.get(name, 0.0) + probe.corrected(t0, t1)
        wall[name] = wall.get(name, 0.0) + t1 - t0
        failed += code != 0
    return len(workload.commands), failed


def measure(workload, seconds: float, probe, tracer=None):
    """Set up, then repeat the pass for ``seconds``. Returns the set-up
    samples as (import_s, inputs_s), the passes as (traced, command times,
    command wall times) and the operation counts."""
    setups = [_setup_sample(workload, probe)]
    passes, attempted, failed = [], 0, 0
    minimum = MIN_PASSES if tracer is None else MIN_TRACED_PASSES
    start = probe.clock()
    while len(passes) < minimum or probe.clock() - start < seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        times, wall = {}, {}
        if traced:
            tracer.pass_index = len(passes)
            with tracer:
                counts = _run_pass(workload, probe, times, wall)
        else:
            counts = _run_pass(workload, probe, times, wall)
        attempted += counts[0]
        failed += counts[1]
        passes.append((traced, times, wall))
        if len(setups) < SETUP_SAMPLES:
            setups.append(_setup_sample(workload, probe))
    return setups, passes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quantitize" / "__init__.py").is_file():
        print(f"error: no quantitize package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quantitize
    import quantitize.cli  # noqa: F401
    if Path(quantitize.__file__).resolve().parent != SRC / "quantitize":
        print(f"error: imported quantitize from {quantitize.__file__}", file=sys.stderr)
        return 2

    from spans import Tracer
    from speed import REF_KERNEL_S, SpeedProbe
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_runs" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)

    probe = SpeedProbe()
    tracer = Tracer(clock=probe.clock) if args.trace else None
    try:
        with probe:
            setups, passes, attempted, failed = measure(
                workload, args.seconds, probe, tracer)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check()
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)

    def pass_median(traced, names=None, column=1):
        return statistics.median(
            sum(t for n, t in p[column].items() if names is None or n in names)
            for p in passes if p[0] == traced)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} commands, {failed} failed, "
          f"checks {'passed' if not errors else 'FAILED'}")
    for traced in sorted({p[0] for p in passes}):
        medians = ", ".join(
            f"{name} {pass_median(traced, {name}):.4f}"
            for name in dict.fromkeys(n for n, _ in workload.commands))
        print(f"median s per pass{' (traced)' if traced else ''}: {medians}; "
              f"wall time less probes {pass_median(traced, column=2):.4f}")
    kernel_ms = sorted(1e3 * d for _, d in probe.samples)
    print(f"speed probes: {len(kernel_ms)}, kernel ms p10 {kernel_ms[len(kernel_ms) // 10]:.3f} "
          f"p50 {kernel_ms[len(kernel_ms) // 2]:.3f} p90 {kernel_ms[len(kernel_ms) * 9 // 10]:.3f} "
          f"(reference {1e3 * REF_KERNEL_S:.3f}), {probe.spent:.2f} s in probes")
    if tracer is None:
        values = {"setup_s": statistics.median(a + b for a, b in setups),
                  "pipeline_s": pass_median(False), "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        traced_passes = [i for i, p in enumerate(passes) if p[0]]
        metrics, notes = tracer.layer_metrics(traced_passes)
        untraced, traced = pass_median(False), pass_median(True)
        values = {"setup.import_s": statistics.median(a for a, _ in setups),
                  "setup.inputs_s": statistics.median(b for _, b in setups),
                  "trace.overhead_s": traced - untraced,
                  "trace.overhead_pct": 100.0 * (traced - untraced) / untraced}
        metrics.update({name: {"value": values[name], "unit": unit}
                        for name, unit in EXTRA_LAYER_METRICS})
        spans = work / "spans.jsonl"
        tracer.write(spans)
        for note in notes:
            print(note)
        print(f"pass time untraced {untraced:.4f} s, traced {traced:.4f} s; "
              f"{len(tracer.spans)} spans -> {spans.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
