#!/usr/bin/env python
"""A miniature Fig. 7: the trip-count-threshold sweep on four benchmarks.

Shows the core regression-risk trade-off: blanket L3 boosting wins on
delinquent loops, destroys low-trip-count loops, and the threshold n
separates the two — except when training and reference inputs disagree
(177.mesa).

Run:  python examples/headroom_sweep.py        (~1 minute)
"""

import tempfile

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core import format_gain_table
from repro.harness import compare_configs, run_suite
from repro.workloads import benchmark_by_name

BENCHMARKS = ["429.mcf", "444.namd", "464.h264ref", "177.mesa"]
THRESHOLDS = [0, 8, 16, 32, 64]


def main() -> None:
    base = baseline_config()
    columns = {
        f"n={n}": CompilerConfig(
            hint_policy=HintPolicy.ALL_LOADS_L3,
            trip_count_threshold=n,
            name=f"n={n}",
        )
        for n in THRESHOLDS
    }
    columns["HLO"] = CompilerConfig(
        hint_policy=HintPolicy.HLO, trip_count_threshold=32, name="hlo"
    )

    # one grid; the scratch cache lets every column reuse the baseline
    # run that prices its serial cycles
    with tempfile.TemporaryDirectory() as cache:
        run = run_suite(
            [benchmark_by_name(n) for n in BENCHMARKS],
            [base, *columns.values()],
            seed=2008,
            cache=cache,
        )
    sweep = {
        column: compare_configs(run, base.label, cfg.label)
        for column, cfg in columns.items()
    }

    print(format_gain_table(
        sweep, title="Headroom sweep (all loads @ L3) vs HLO-directed hints"
    ))
    print()
    print("What to look for:")
    print(" * 464.h264ref: ruined at n=0/8 (low-trip loop), rescued by n>=16")
    print(" * 177.mesa: trains at 154 trips, runs at 8 -> loses at EVERY n,")
    print("   but the HLO column is clean (its loads prefetch perfectly)")
    print(" * 429.mcf/444.namd: big wins survive in the HLO column")


if __name__ == "__main__":
    main()
