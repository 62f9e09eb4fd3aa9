"""Regenerate the reference outputs the benchmark checks every run against.

Run from the repository root, on the commit whose behaviour is the
reference::

    python3 e2ebench/make_reference.py sweep-itanium2 sweep-ltcores service-mix

The sweep references are the cold-pass manifest fingerprints, total
simulated cycles and II sum (the benchmark seed only orders the cells, so
one run gives them).  service-mix draws its inputs per seed from a fixed
pool; its reference covers every member of the pool, computed in one
worker process per CPU.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import workloads as w  # noqa: E402


def sweep_reference(name: str) -> dict:
    from repro.harness.cache import ArtifactCache

    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        inputs = w.build_sweep(name, 0, Path(tmp))
        cold = w.cold_pass(inputs, ArtifactCache(Path(tmp) / "cache"), None)
    if cold.failures:
        raise SystemExit(f"{name}: {cold.failures}")
    observed = w.sweep_observed(cold.cells)
    observed["ii_sum"] = cold.ii_sum
    return observed


def _service_entry(item: tuple) -> tuple[str, str]:
    from repro.harness.cache import hash_key
    from repro.service.jobs import execute_request
    from repro.service.protocol import normalize_request

    rid, body = item
    kind = body.pop("kind")
    result = execute_request(
        {"kind": kind, "request": normalize_request(kind, body)}
    )
    result = json.loads(json.dumps(result))  # as a client decodes it
    return rid, hash_key(w.result_projection(kind, result))[:16]


def service_reference() -> dict:
    items = []
    for loop_id, text, spaces in w.service_pool():
        for machine in w.MACHINES:
            for policy in w.SERVICE_POLICIES:
                for kind in ("compile", "simulate", "trace"):
                    rid = w.service_request_id(loop_id, machine, policy, kind)
                    items.append((rid, w.request_body(
                        kind, text, spaces, machine, policy
                    )))
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        results = dict(pool.map(_service_entry, items, chunksize=4))
    return {"results": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+",
                        choices=("sweep-itanium2", "sweep-ltcores",
                                 "service-mix"))
    args = parser.parse_args()
    for name in args.workloads:
        if name in w.SWEEPS:
            reference = sweep_reference(name)
        else:
            reference = service_reference()
        path = w.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(reference, indent=1, sort_keys=True)
                        + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
