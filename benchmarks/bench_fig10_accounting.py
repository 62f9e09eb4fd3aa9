"""Fig. 10: cycle accounting for the Fig. 9 HLO run (no PGO, CPU2006).

The paper's Caliper measurement shows: BE_EXE_BUBBLE (data stalls) drops
~12%, the OzQ-full share rises (8.2% -> 9.4%) and with it the
BE_L1D_FPU_BUBBLE component (+8%), RSE activity grows ~14% from the larger
stacked frames, and unstalled execution rises slightly (~1.2%) from the
extra epilog iterations.  The bench prints the two stacked columns and
asserts those directions.
"""

import pytest

from benchmarks.conftest import base_cfg, hlo_cfg
from repro.core import accumulate_account, format_account_table


@pytest.fixture(scope="module")
def accounts(nopgo2006):
    base = nopgo2006.config(base_cfg(pgo=False).label)
    variant = nopgo2006.config(hlo_cfg(pgo=False).label)
    return (
        accumulate_account(base, "baseline"),
        accumulate_account(variant, "hlo-hints"),
    )


def test_fig10_cycle_accounting(benchmark, record, accounts):
    base, variant = accounts
    benchmark.pedantic(
        lambda: format_account_table(base, variant), rounds=1, iterations=1
    )
    record("fig10_cycle_accounting", format_account_table(base, variant))

    # data stalls drop: that is the whole point of the optimization
    exe_delta = variant.delta_percent(base, "be_exe_bubble")
    assert exe_delta < -3.0

    # total cycles drop (the 2.2% headline lives here)
    assert variant.total < base.total

    # RSE activity grows with the stacked frames (Sec. 4.5)
    assert variant.delta_percent(base, "be_rse_bubble") > 0.0

    # unstalled execution grows slightly (extra epilog iterations)
    unstalled_delta = variant.delta_percent(base, "unstalled")
    assert 0.0 < unstalled_delta < 8.0


def test_fig10_ozq_pressure(benchmark, accounts):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Boosting pushes the memory subsystem harder: the OzQ-full share
    must not *drop* — the paper measures it rising from 8.2% to 9.4%."""
    base, variant = accounts
    assert variant.ozq_full_percent() >= base.ozq_full_percent() - 0.05


def test_fig10_shares_sum_to_one(benchmark, accounts):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for account in accounts:
        total = sum(
            account.share(b)
            for b in (
                "unstalled",
                "be_exe_bubble",
                "be_l1d_fpu_bubble",
                "be_rse_bubble",
                "be_flush_bubble",
                "back_end_bubble_fe",
            )
        )
        assert total == pytest.approx(1.0)
