"""End-to-end and per-layer benchmark of the reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload sweep-itanium2 --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` runs it with spans around each layer's public
calls and prints the per-layer metrics (and saves the spans under
``.e2ebench/spans/``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line
before it is a host-speed probe taken before and after the timed phase;
it is a diagnostic and never enters a metric.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("sweep-itanium2", "sweep-ltcores", "service-mix")
#: set-up is repeated this many times per run and reported as a median
SETUP_REPEATS = 3
#: the modules every workload imports, timed in fresh interpreters
IMPORTS = (
    "repro.harness, repro.workloads, repro.analysis, "
    "repro.service.server, repro.service.client"
)
PROBE_ITERATIONS = 1_000_000


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter (waited for)."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {IMPORTS}; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest values
    (statistics.quantiles, inclusive method), so it never extrapolates
    past the slowest op."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workload: str, seed: int, work: Path):
    """Build the inputs SETUP_REPEATS times; (inputs, median seconds)."""
    import workloads as w

    samples = []
    inputs = None
    for rep in range(SETUP_REPEATS):
        imported = import_seconds()
        if inputs is not None and workload == "service-mix":
            w.discard_service(inputs)
        start = time.perf_counter()
        if workload in w.SWEEPS:
            inputs = w.build_sweep(workload, seed, work)
        else:
            inputs = w.build_service_mix(seed, work)
        samples.append(imported + time.perf_counter() - start)
    return inputs, statistics.median(samples)


def run_timed(workload: str, inputs, seconds: float, recorder):
    import workloads as w

    if workload in w.SWEEPS:
        return w.run_sweep(inputs, seconds, recorder)
    return w.run_service_mix(inputs, seconds, recorder)


def end_to_end(outcome, setup_s: float) -> dict:
    ops = outcome.op_samples
    warm = outcome.warm_samples
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(outcome.pass_walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "op_p90_ms": (1e3 * percentile(ops, 90), "ms"),
        "op_p99_ms": (1e3 * percentile(ops, 99), "ms"),
        "warm_op_p50_ms": (1e3 * statistics.median(warm), "ms"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "sim_gcycles": (outcome.sim_gcycles, "Gcycles"),
        "ii_sum": (outcome.ii_sum, "cycles"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    base = ROOT / ".e2ebench"
    work = base / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # temporary files of this process, its workers and its children stay
    # inside the checkout
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    try:
        return _run(args, work, base)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path, base: Path) -> int:
    import workloads as w

    inputs, setup_s = set_up(args.workload, args.seed, work)
    try:
        return _measure(args, inputs, setup_s, base)
    finally:
        if isinstance(inputs, w.ServiceInputs):
            w.discard_service(inputs)


def _measure(args, inputs, setup_s: float, base: Path) -> int:
    recorder = None
    probe_before = host_probe()
    if args.trace:
        import layers
        from spans import SpanRecorder, instrument

        recorder = SpanRecorder(uuid.uuid4().hex[:12])
        # the service's layers run in its worker processes, where no
        # wrapper reaches; its per-layer numbers come from job records,
        # /v1/stats and re-execution instead
        targets = {} if args.workload == "service-mix" else layers.TARGETS
        with instrument(recorder, targets):
            outcome = run_timed(args.workload, inputs, args.seconds,
                                recorder)
    else:
        outcome = run_timed(args.workload, inputs, args.seconds, None)
    probe_after = host_probe()

    for label, lines in (("problem", outcome.problems),
                         ("failed", outcome.failures)):
        for line in lines[:20]:
            print(f"{label}: {line}")
        if len(lines) > 20:
            print(f"{label}: ... {len(lines) - 20} more")
    if args.trace:
        metrics = layers.per_layer(recorder, outcome)
        spans_path = (base / "spans"
                      / f"{args.workload}-seed{args.seed}.jsonl")
        recorder.write(spans_path)
        print(f"spans: {len(recorder.spans)} written to {spans_path}")
    else:
        metrics = end_to_end(outcome, setup_s)
    print("pass walls (s): "
          + " ".join(f"{wall:.3f}" for wall in outcome.pass_walls))
    print(json.dumps({"host_probe_s": {"before": probe_before,
                                       "after": probe_after}}))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
