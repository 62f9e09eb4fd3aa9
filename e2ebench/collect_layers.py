"""Write the committed per-layer report, results/layers.json.

Run from the repository root::

    python3 e2ebench/collect_layers.py

For every workload it alternates PAIRS untraced and traced runs with seed
SEED.  The report keeps the last pair's end-to-end metrics, per-layer
metrics, per-span calls, inclusive and self time, and the layers timed by
re-execution.  The tracing overhead is the median traced ``wall_s`` over
the median untraced ``wall_s``, minus one; every run's
wall time and host-speed probe are kept beside it, because the host's
speed drifts between runs by more than tracing costs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep-itanium2", "sweep-ltcores", "service-mix")
SEED = 7
SECONDS = 50
PAIRS = 3


def run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["host_probe_s"] = json.loads(lines[-2])["host_probe_s"]
    return result


def main() -> int:
    report = {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
              "workloads": {}}
    for workload in WORKLOADS:
        pairs = [(run(workload, 0), run(workload, 1)) for _ in range(PAIRS)]
        # the span file holds the last traced run's spans
        untraced, traced = pairs[-1]
        spans_path = (Path.cwd() / ".e2ebench" / "spans"
                      / f"{workload}-seed{SEED}.jsonl")
        with spans_path.open() as fh:
            header = json.loads(fh.readline())
        walls = [u["metrics"]["wall_s"]["value"] for u, _ in pairs]
        traced_walls = [t["metrics"]["bench.traced_wall_s"]["value"]
                        for _, t in pairs]
        overhead = 100.0 * (statistics.median(traced_walls)
                            / statistics.median(walls) - 1.0)
        report["workloads"][workload] = {
            "correct": all(u["correct"] and t["correct"] for u, t in pairs),
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "tracing_overhead_pct": overhead,
            "untraced_wall_s": walls,
            "traced_wall_s": traced_walls,
            "end_to_end": {k: v["value"]
                           for k, v in untraced["metrics"].items()},
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "spans": {
                name: {"calls": t["calls"],
                       "total_ms": round(1e3 * t["total_s"], 3),
                       "self_ms": round(1e3 * t["self_s"], 3)}
                for name, t in sorted(header["totals"].items())
            },
            "reexecuted": header["reexecuted"],
            "host_probe_s": [{"untraced": u["host_probe_s"],
                              "traced": t["host_probe_s"]}
                             for u, t in pairs],
        }
        print(f"{workload}: tracing overhead {overhead:.1f}%", flush=True)
    out = HERE / "results" / "layers.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
