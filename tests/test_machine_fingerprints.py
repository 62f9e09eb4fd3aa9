"""Golden-fingerprint regression tests for the itanium2 machine model.

The machine-description refactor must be invisible on the default
machine: every suite's :meth:`RunManifest.fingerprint` — a digest of the
per-cell cycle totals — must equal the constants below, which were
captured from the pre-refactor tree.  The equality is checked across
serial and parallel execution and cold/warm artifact-cache runs, so any drift in scheduling,
simulation arithmetic, or cache replay shows up as a one-line diff here.
"""

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness.pool import run_suite
from repro.workloads.spec import cpu2000_suite, cpu2006_suite, micro_suite

#: pre-refactor RunManifest.fingerprint() per suite, captured at the
#: seed commit with configs [baseline, hlo] and seed 2008
GOLDEN = {
    "micro": "8bba3592f4d95877d6c3c6d8c2797d727d576430245f4c60a09a8d4910cf6b94",
    "cpu2000": "8898b301b04ef239b117d7eab857a0cd0b47075d317118451df82ab665bbb048",
    "cpu2006": "3d764fd8e54bbb13ac6bb0c02c92125b2fad4ce2f91cf900d173902c8598d756",
}

SUITES = {
    "micro": micro_suite,
    "cpu2000": cpu2000_suite,
    "cpu2006": cpu2006_suite,
}


def configs():
    return [baseline_config(), CompilerConfig(hint_policy=HintPolicy.HLO)]


def fingerprint(suite_name, **kwargs):
    run = run_suite(SUITES[suite_name](), configs(), seed=2008, **kwargs)
    return run.manifest.fingerprint()


@pytest.mark.parametrize("workers", [1, 4])
def test_micro_fingerprint_across_workers(workers):
    assert fingerprint("micro", workers=workers) == GOLDEN["micro"]


def test_micro_fingerprint_survives_the_artifact_cache(tmp_path):
    cache = tmp_path / "cache"
    cold = fingerprint("micro", cache=cache)
    warm = fingerprint("micro", cache=cache)
    assert cold == GOLDEN["micro"]
    assert warm == GOLDEN["micro"]


def test_micro_fingerprint_parallel_cold_then_warm_cache(tmp_path):
    # parallel + cold cache, then serial + warm cache (every cell a hit)
    cache = tmp_path / "cache"
    assert fingerprint("micro", workers=2, cache=cache) == GOLDEN["micro"]
    warm = run_suite(SUITES["micro"](), configs(), seed=2008, workers=1,
                     cache=cache)
    assert warm.manifest.fingerprint() == GOLDEN["micro"]
    assert all(cell.cache_hit for cell in warm.manifest.cells)


@pytest.mark.parametrize("suite_name", ["cpu2000", "cpu2006"])
def test_full_suite_fingerprints_are_bit_identical(suite_name, tmp_path):
    # serial, no cache: the reference execution
    assert fingerprint(suite_name) == GOLDEN[suite_name]
    # parallel, cold cache — then a warm serial replay of the same cache;
    # all three paths must agree with the golden digest
    cache = tmp_path / "cache"
    assert fingerprint(suite_name, workers=4,
                       cache=cache) == GOLDEN[suite_name]
    assert fingerprint(suite_name, workers=1,
                       cache=cache) == GOLDEN[suite_name]
