"""Sec. 4.2, prefetch-disabled headroom.

"When disabling software prefetching in the compiler, the gain in this
headroom experiment grows to 4.6% on the geomean (CPU2000 and CPU2006
combined, with n = 32)" — without prefetches much more latency is exposed,
so latency-tolerant scheduling has more to recover.
"""

import math

import pytest

from benchmarks.conftest import base_cfg, l3_cfg, run_compare
from repro.workloads import cpu2000_suite, cpu2006_suite


@pytest.fixture(scope="module")
def combined_runs(harness_cache, harness_jobs):
    results = {}
    for prefetch in (True, False):
        variant = l3_cfg(32, prefetch=prefetch)
        gains = {}
        for suite in (cpu2006_suite(), cpu2000_suite()):
            res = run_compare(
                suite,
                base_cfg(prefetch=prefetch),
                [variant],
                cache=harness_cache,
                workers=harness_jobs,
            )[variant.label]
            gains.update(
                {
                    name: res.baseline[name].total_cycles
                    / res.variant[name].total_cycles
                    for name in res.gains
                }
            )
        geo = math.exp(
            sum(math.log(r) for r in gains.values()) / len(gains)
        )
        results[prefetch] = (geo - 1.0) * 100.0
    return results


def test_prefetch_off_headroom(benchmark, record, combined_runs):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with_pf = combined_runs[True]
    without_pf = combined_runs[False]
    record(
        "sec42_prefetch_off_headroom",
        (
            f"combined geomean, n=32, prefetch ON : {with_pf:+.2f}%\n"
            f"combined geomean, n=32, prefetch OFF: {without_pf:+.2f}%\n"
            f"(paper: ~2% -> 4.6%)"
        ),
    )
    # disabling prefetch exposes more latency -> larger headroom
    assert without_pf > with_pf
    assert without_pf > 2.0
