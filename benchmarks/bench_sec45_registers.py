"""Sec. 4.5: register-pressure and compile statistics.

Paper numbers (CPU2006, HLO hints vs baseline, no PGO): general registers
+14%, FP registers +20%, predicate registers +35%; all register files stay
under ~one fifth utilised on average; spills grow only marginally; the
extra scheduling attempts cost ~0.5% compile time.
"""

import pytest

from benchmarks.conftest import base_cfg, hlo_cfg
from repro.core import register_statistics
from repro.core.statistics import format_register_table
from repro.ir.registers import RegClass


@pytest.fixture(scope="module")
def register_stats(nopgo2006):
    base = nopgo2006.config(base_cfg(pgo=False).label)
    variant = nopgo2006.config(hlo_cfg(pgo=False).label)
    return (
        register_statistics(base, "baseline"),
        register_statistics(variant, "hlo-hints"),
    )


def test_sec45_register_statistics(benchmark, record, register_stats):
    base, variant = register_stats
    benchmark.pedantic(
        lambda: format_register_table(base, variant), rounds=1, iterations=1
    )
    record("sec45_register_statistics", format_register_table(base, variant))

    # all three classes grow, predicates the most (stage predicates track
    # the pipeline depth directly)
    gr = variant.increase_percent(base, RegClass.GR)
    fr = variant.increase_percent(base, RegClass.FR)
    pr = variant.increase_percent(base, RegClass.PR)
    assert gr > 3.0
    assert fr > 3.0
    assert pr > 3.0
    assert pr > gr  # predicates grow fastest (paper: 35% vs 14%)

    # "the large supply of architected registers ... is far from being
    # exhausted": average utilisation stays low
    assert variant.utilization[RegClass.GR] < 0.45
    assert variant.utilization[RegClass.FR] < 0.45

    # spills stay essentially flat
    assert variant.spill_increase_percent(base) < 25.0


def test_sec45_boosting_summary(benchmark, record, register_stats):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    base, variant = register_stats
    lines = [
        f"pipelined loops         : {variant.pipelined_loops}",
        f"boosted / total loads   : {variant.boosted_loads}"
        f"/{variant.total_loads}",
        f"latency fallbacks fired : {variant.latency_fallbacks}",
    ]
    record("sec45_boosting_summary", "\n".join(lines))
    assert variant.boosted_loads > 0
    assert variant.pipelined_loops >= base.pipelined_loops
