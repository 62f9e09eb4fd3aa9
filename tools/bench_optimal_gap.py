#!/usr/bin/env python
"""Heuristic-vs-optimal scheduling gap across suites and machines.

How good is the paper's iterative modulo scheduler?  This campaign
compiles every hot loop of the workload suites — plus a seeded slice of
fuzz-generated loops — twice under the same HLO configuration, once
with the production heuristic and once with the exact branch-and-bound
scheduler (``repro.pipeliner.optimal``), verifies both results through
the full SA1xx–SA6xx translation validator, and reports the II,
stage-count and register gaps per loop and as a geomean.

The JSON report (``--out``, canonically
``benchmarks/results/BENCH_optimal_gap.json``) is deterministic — the
solver budget is counted in branch-and-bound nodes, never wall-clock —
so ``--check`` can regenerate the campaign and compare content
fingerprints, which is what the CI ``optimal-smoke`` job does.

``--harvest-dir`` scans the fuzz slice for hard instances (II gap above
one cycle, or a budget-capped solve) and commits shrunk reproducers to
the corpus via ``repro.fuzz.gapharvest``.

Usage::

    PYTHONPATH=src python tools/bench_optimal_gap.py \
        --out benchmarks/results/BENCH_optimal_gap.json --jobs 4
    PYTHONPATH=src python tools/bench_optimal_gap.py \
        --check benchmarks/results/BENCH_optimal_gap.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.gap import (
    DEFAULT_FUZZ_CASES,
    DEFAULT_FUZZ_SEED,
    GAP_SEED,
    harvestable,
    run_gap_campaign,
)
from repro.pipeliner.optimal import DEFAULT_OPTIMAL_BUDGET

SUITES = ("micro", "cpu2000", "cpu2006")


def _print_summary(report: dict) -> None:
    for machine in report["machines"]:
        for section in ("suite", "fuzz"):
            s = report["summary"][machine][section]
            geo = s["ii_geomean_ratio"]
            ratio = f"{geo:.4f}" if geo is not None else "n/a"
            print(
                f"[{machine}] {section}: {s['loops']} loops, "
                f"{s['pipelined_pairs']} pairs, "
                f"{s['proven_optimal']} proven optimal, "
                f"{s['capped']} capped; "
                f"II gap total {s['ii_gap_total']} "
                f"(geomean ratio {ratio})"
            )
    print(f"fingerprint {report['fingerprint']}")
    print(f"{report['violations']} violation(s)")


def _harvest(report: dict, corpus_dir: Path, budget: int) -> list[str]:
    from repro.fuzz import GenConfig, generate_loop, harvest_case
    from repro.machine import build_machine

    machines = {}
    saved: list[str] = []
    seen: set[int] = set()
    for record in report["fuzz_loops"]:
        seed = record["fuzz_seed"]
        if seed in seen or not harvestable(record):
            continue
        seen.add(seed)
        name = record["machine"]
        if name not in machines:
            machines[name] = build_machine(name)
        loop = generate_loop(seed, GenConfig())
        files = harvest_case(
            loop, machines[name], budget, corpus_dir, seed=seed
        )
        if files:
            print(f"harvested og-{seed} ({record['machine']}): "
                  f"{', '.join(Path(f).name for f in files)}")
        saved.extend(files)
    return saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path,
                        default=Path("benchmarks/results/"
                                     "BENCH_optimal_gap.json"))
    parser.add_argument("--check", type=Path, default=None, metavar="JSON",
                        help="regenerate the campaign recorded in JSON and "
                             "compare fingerprints instead of writing")
    parser.add_argument("--suite", action="append", default=None,
                        choices=SUITES, dest="suites",
                        help="suite(s) to measure (default: all three)")
    parser.add_argument("--machine", action="append", default=None,
                        dest="machines",
                        help="machine registry name(s) (default: all)")
    parser.add_argument("--budget", type=int,
                        default=DEFAULT_OPTIMAL_BUDGET, metavar="NODES",
                        help="exact-solver node budget per loop")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=GAP_SEED,
                        help="PGO profile seed (matches the bench harness)")
    parser.add_argument("--fuzz-cases", type=int, default=DEFAULT_FUZZ_CASES)
    parser.add_argument("--fuzz-seed", type=int, default=DEFAULT_FUZZ_SEED)
    parser.add_argument("--harvest-dir", type=Path, default=None,
                        help="commit shrunk hard fuzz instances here "
                             "(canonically tests/corpus)")
    args = parser.parse_args(argv)

    if args.check is not None:
        committed = json.loads(args.check.read_text())
        report = run_gap_campaign(
            suites=tuple(committed["suites"]),
            machines=tuple(committed["machines"]),
            budget=committed["budget"],
            seed=committed["seed"],
            fuzz_cases=committed["fuzz"]["cases"],
            fuzz_seed=committed["fuzz"]["seed"],
            jobs=args.jobs,
        )
        _print_summary(report)
        if report["fingerprint"] != committed["fingerprint"]:
            print(f"FINGERPRINT MISMATCH: regenerated "
                  f"{report['fingerprint']} != committed "
                  f"{committed['fingerprint']} ({args.check})")
            return 1
        print(f"fingerprint matches {args.check}")
        return 0 if report["violations"] == 0 else 1

    report = run_gap_campaign(
        suites=tuple(args.suites or SUITES),
        machines=tuple(args.machines) if args.machines else None,
        budget=args.budget,
        seed=args.seed,
        fuzz_cases=args.fuzz_cases,
        fuzz_seed=args.fuzz_seed,
        jobs=args.jobs,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    if args.harvest_dir is not None:
        _harvest(report, args.harvest_dir, args.budget)
    _print_summary(report)
    return 0 if report["violations"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
