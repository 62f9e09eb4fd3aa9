"""Shared fixtures for the benchmark harness.

Every bench prints the same rows/series the paper reports and appends
them to ``results/`` next to this directory, which is where
EXPERIMENTS.md numbers come from.

Every suite sweep runs through ``repro.harness.run_suite``: a
session-scoped artifact cache deduplicates the shared cells (every sweep
column re-uses the same baseline run), and ``REPRO_BENCH_JOBS=N`` in the
environment fans the cell jobs out over N worker processes.  The CPU2006
no-PGO grid is session-scoped too, so Fig. 9, Fig. 10 and Sec. 4.5 read
one run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness import ArtifactCache, SuiteRun, compare_configs, run_suite
from repro.machine import ItaniumMachine
from repro.workloads import cpu2006_suite

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def machine() -> ItaniumMachine:
    return ItaniumMachine()


@pytest.fixture(scope="session")
def harness_cache(tmp_path_factory) -> ArtifactCache:
    """One artifact cache per session: figure sweeps share cells."""
    return ArtifactCache(tmp_path_factory.mktemp("artifact-cache"))


@pytest.fixture(scope="session")
def harness_jobs() -> int:
    """Worker count for harness sweeps (REPRO_BENCH_JOBS, default serial)."""
    return int(os.environ.get("REPRO_BENCH_JOBS", "1"))


def run_compare(
    benchmarks,
    base: CompilerConfig,
    variants: list[CompilerConfig],
    *,
    cache: ArtifactCache | None = None,
    workers: int = 1,
    machine: ItaniumMachine | None = None,
    suite_name: str = "",
):
    """Harness sweep helper: one grid run, one comparison per variant."""
    run = run_suite(
        benchmarks,
        [base] + list(variants),
        machine=machine,
        workers=workers,
        cache=cache,
        seed=2008,
        suite_name=suite_name,
    )
    return {
        variant.label: compare_configs(run, base.label, variant.label)
        for variant in variants
    }


@pytest.fixture(scope="session")
def nopgo2006(harness_cache, harness_jobs) -> SuiteRun:
    """CPU2006 without PGO under the baseline, all-L3 n=32 and HLO hints.

    Built on first use, so its cells are computed in-process and carry
    the per-loop compile artifacts that Sec. 4.5's statistics read.
    """
    return run_suite(
        cpu2006_suite(),
        [base_cfg(pgo=False), l3_cfg(32, pgo=False), hlo_cfg(pgo=False)],
        workers=harness_jobs,
        cache=harness_cache,
        seed=2008,
        suite_name="cpu2006",
    )


@pytest.fixture(scope="session")
def record():
    """Print a result block and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(name: str, text: str) -> None:
        banner = f"\n===== {name} =====\n{text}\n"
        print(banner)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _record


# --- the paper's configurations -------------------------------------------

def base_cfg(pgo: bool = True, prefetch: bool = True) -> CompilerConfig:
    return baseline_config(pgo=pgo, prefetch=prefetch)


def l3_cfg(n: int, pgo: bool = True, prefetch: bool = True) -> CompilerConfig:
    return CompilerConfig(
        hint_policy=HintPolicy.ALL_LOADS_L3,
        trip_count_threshold=n,
        pgo=pgo,
        prefetch=prefetch,
        name=f"all-l3-n{n}{'' if pgo else '-nopgo'}{'' if prefetch else '-nopf'}",
    )


def fp_l2_cfg(pgo: bool = True) -> CompilerConfig:
    return CompilerConfig(
        hint_policy=HintPolicy.ALL_FP_L2,
        trip_count_threshold=32,
        pgo=pgo,
        name=f"fp-l2{'' if pgo else '-nopgo'}",
    )


def hlo_cfg(pgo: bool = True) -> CompilerConfig:
    return CompilerConfig(
        hint_policy=HintPolicy.HLO,
        trip_count_threshold=32,
        pgo=pgo,
        name=f"hlo{'' if pgo else '-nopgo'}",
    )
