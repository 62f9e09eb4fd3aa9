"""Fig. 9: CPU2006 without profile feedback.

Without PGO the static profile overestimates trip counts, so blanket L3
boosting loses on the geomean while HLO-directed hints still win — "load
latency information can compensate for the absence of reliable trip-count
information" (Sec. 4.3).  The 445.gobmk loss persists: the worst case
where both trip counts and latencies are mis-estimated.
"""

import pytest

from benchmarks.conftest import base_cfg, hlo_cfg, l3_cfg
from repro.core import format_gain_table
from repro.harness import compare_configs

BASE = base_cfg(pgo=False).label


@pytest.fixture(scope="module")
def fig9(nopgo2006):
    return {
        "all-l3": compare_configs(
            nopgo2006, BASE, l3_cfg(32, pgo=False).label
        ),
        "hlo": compare_configs(nopgo2006, BASE, hlo_cfg(pgo=False).label),
    }


def test_fig9_nopgo(benchmark, record, nopgo2006, fig9):
    benchmark.pedantic(
        lambda: compare_configs(nopgo2006, BASE, hlo_cfg(pgo=False).label),
        rounds=1, iterations=1,
    )
    record(
        "fig9_nopgo_cpu2006",
        format_gain_table(fig9, title="Fig 9 (CPU2006, no PGO)"),
    )
    l3 = fig9["all-l3"]
    hlo = fig9["hlo"]
    # blanket boosting without trip counts loses; HLO hints win
    assert l3.geomean_gain < 0.0
    assert hlo.geomean_gain > 1.0
    # the gobmk worst case persists under HLO hints
    assert hlo.gains["445.gobmk"] < -2.0
    assert l3.gains["445.gobmk"] < hlo.gains["445.gobmk"]
    # large gains survive the loss of PGO
    assert hlo.gains["444.namd"] > 6.0
    assert hlo.gains["429.mcf"] > 8.0
    assert hlo.gains["481.wrf"] > 4.0


def test_fig9_hlo_beats_blanket_everywhere_that_matters(benchmark, fig9):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The selective policy never loses where the blanket one wins big."""
    l3, hlo = fig9["all-l3"], fig9["hlo"]
    losses_l3 = sum(1 for g in l3.gains.values() if g < -1.0)
    losses_hlo = sum(1 for g in hlo.gains.values() if g < -1.0)
    assert losses_hlo < losses_l3
