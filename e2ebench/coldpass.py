"""One cold sweep pass in a fresh interpreter, as a one-shot `repro bench`.

Run from the repository root by ``workloads.run_sweep``::

    python3 e2ebench/coldpass.py WORKLOAD SEED ROUND CACHE_DIR

It builds the sweep's cells in the order that the seed gives round ROUND,
runs each once through ``run_job`` against an empty ``ArtifactCache`` in
CACHE_DIR (which it leaves filled), and prints one JSON object: the pass's
wall time, every cell's latency and total cycles by cell id, the failed
cells, the observed fingerprints, cycles and II sum, and the process's
peak RSS.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import workloads as w  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.harness.cache import ArtifactCache

    name, seed, round_index = argv[0], int(argv[1]), int(argv[2])
    cache_dir = Path(argv[3])
    inputs = w.build_sweep(name, seed, cache_dir.parent, round_index)
    cold = w.cold_pass(inputs, ArtifactCache(cache_dir), None)
    print(json.dumps(w.cold_report(cold)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
