"""The job scheduler: supervised workers with deterministic ordering.

``run_jobs`` executes :class:`~repro.harness.jobs.BenchmarkJob` values
either in-process (``workers <= 1``) or on a supervised
:class:`~repro.harness.workers.WorkerPool`; results always come back in
submission order regardless of completion order, so a parallel sweep is a
drop-in replacement for the serial loop.  A job that exceeds its timeout
has its worker terminated and replaced, and comes back as a structured
``timeout`` outcome — the rest of the sweep completes normally.
``run_suite`` is the high-level entry: a (benchmarks x configs) grid run
through the pool and the artifact cache, returning results plus a
:class:`~repro.harness.manifest.RunManifest`.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import tempfile
import time
from pathlib import Path

from repro.config import CompilerConfig, baseline_config
from repro.core.results import BenchmarkResult, ExperimentResult, percent_gain
from repro.errors import HarnessError
from repro.harness.cache import ArtifactCache
from repro.harness.jobs import BenchmarkJob, JobOutcome, run_job
from repro.harness.manifest import CellRecord, RunManifest, default_runs_dir
from repro.harness.workers import TASK_OK, TASK_TIMEOUT, run_supervised
from repro.machine.itanium2 import ItaniumMachine
from repro.workloads.spec import Benchmark


def default_workers() -> int:
    """A sensible worker count: the CPU count, capped at 8."""
    return max(1, min(os.cpu_count() or 1, 8))


def _execute(job: BenchmarkJob, cache_root: str | None) -> JobOutcome:
    """Worker entry point: each process opens its own cache handle."""
    cache = ArtifactCache(cache_root) if cache_root else None
    return run_job(job, cache)


def run_tasks(
    fn,
    payloads: list,
    *,
    workers: int = 1,
    timeout: float | None = None,
):
    """Map ``fn`` over ``payloads``, returning results in submission order.

    The generic engine under the fuzzing campaign and the optimality-gap
    campaign: ``workers <= 1`` runs serially in-process; otherwise a
    supervised pool of forked workers executes ``fn(payload)`` calls
    concurrently.  ``fn`` must be picklable (a module-level callable or
    :func:`functools.partial` of one), and so must every payload and
    result.  ``timeout`` bounds any single task's *execution*, in
    seconds; the offending worker is reaped, the whole batch still runs
    to completion, and the timeout is raised afterwards as a
    :class:`HarnessError` naming the task by its index.
    Callers that want timeouts *recorded* instead of raised use
    :func:`~repro.harness.workers.run_supervised` directly, as
    :func:`run_jobs` does.
    """
    if workers <= 1:
        return [fn(payload) for payload in payloads]
    results = run_supervised(fn, payloads, workers=workers, timeout=timeout)
    values = []
    for i, result in enumerate(results):
        if result.status == TASK_TIMEOUT:
            raise HarnessError(
                f"task {i} exceeded the {timeout}s timeout"
            ) from None
        if result.status != TASK_OK:
            if result.exception is not None:
                raise result.exception
            raise HarnessError(result.error or f"task {i} failed")
        values.append(result.value)
    return values


def run_jobs(
    jobs: list[BenchmarkJob],
    *,
    workers: int = 1,
    cache: ArtifactCache | str | Path | None = None,
    timeout: float | None = None,
) -> list[JobOutcome]:
    """Execute ``jobs``, returning outcomes in submission order.

    ``workers <= 1`` runs serially in-process (sharing the caller's cache
    handle, so its hit/miss stats stay live).  Otherwise a supervised
    pool of ``workers`` executes jobs concurrently; workers share the
    cache *directory* (writes are atomic), and hit/miss provenance comes
    back in each :class:`JobOutcome`.  ``timeout`` bounds any single
    job's execution, in seconds: a job that exceeds it has its worker
    terminated and reaped, and comes back as a
    ``JobOutcome(status="timeout", result=None)`` while every other job
    completes — the manifest records the timeout instead of the sweep
    aborting.  Worker crashes and job exceptions still raise.
    """
    cache_obj, cache_root = _normalise_cache(cache)
    if workers <= 1:
        outcomes = []
        for job in jobs:
            outcomes.append(run_job(job, cache_obj))
        return outcomes
    results = run_supervised(
        functools.partial(_execute, cache_root=cache_root),
        jobs,
        workers=workers,
        timeout=timeout,
    )
    outcomes = []
    for job, result in zip(jobs, results):
        if result.status == TASK_OK:
            outcomes.append(result.value)
        elif result.status == TASK_TIMEOUT:
            outcomes.append(JobOutcome(
                result=None,
                cache_hit=False,
                duration_s=result.duration_s,
                status="timeout",
            ))
        else:
            if result.exception is not None:
                raise result.exception
            raise HarnessError(
                f"job {job.key} failed: {result.error or 'unknown error'}"
            )
    return outcomes


def _normalise_cache(
    cache: ArtifactCache | str | Path | None,
) -> tuple[ArtifactCache | None, str | None]:
    if cache is None:
        return None, None
    if isinstance(cache, ArtifactCache):
        return cache, str(cache.root)
    return ArtifactCache(cache), str(cache)


def _run_uncached(
    jobs: list[BenchmarkJob], workers: int, timeout: float | None
) -> list[JobOutcome]:
    """``run_jobs`` against a scratch cache deleted on return, so each
    benchmark's baseline anchor is simulated once, not once per cell.

    The anchor config's own cells run first: their loop runs are then
    misses they execute themselves, so every outcome (per-loop
    artifacts, ``cache_hit=False``) reads as if no cache were used.
    """
    anchor = baseline_config().label
    order = sorted(range(len(jobs)),
                   key=lambda i: jobs[i].config.label != anchor)
    with tempfile.TemporaryDirectory() as scratch:
        ran = run_jobs([jobs[i] for i in order], workers=workers,
                       cache=ArtifactCache(scratch), timeout=timeout)
    by_index = dict(zip(order, ran))
    return [by_index[i] for i in range(len(jobs))]


@dataclasses.dataclass
class SuiteRun:
    """A full (benchmarks x configs) grid run through the harness."""

    #: config label -> benchmark name -> result
    results: dict[str, dict[str, BenchmarkResult]]
    manifest: RunManifest

    def config(self, label: str) -> dict[str, BenchmarkResult]:
        try:
            return self.results[label]
        except KeyError:
            raise HarnessError(
                f"no config {label!r} in run "
                f"(have: {', '.join(self.results)})"
            ) from None


def run_suite(
    benchmarks: list[Benchmark],
    configs: list[CompilerConfig],
    *,
    machine: ItaniumMachine | None = None,
    seed: int = 2008,
    workers: int = 1,
    cache: ArtifactCache | str | Path | None = None,
    timeout: float | None = None,
    suite_name: str = "",
    manifest_path: str | Path | None = None,
    verify: bool = False,
    trace: bool = False,
) -> SuiteRun:
    """Run every benchmark under every config, in parallel, with caching.

    Duplicate config labels are deduplicated (first occurrence wins).
    When ``manifest_path`` is given the manifest is written there; pass
    ``manifest_path=""`` (falsy) to skip writing, or a directory-less
    default is derived from :func:`default_runs_dir` by the CLI layer.
    ``verify`` runs the :mod:`repro.analysis` translation validator on
    every compiled loop and records the status per manifest cell.
    ``trace`` attaches the :mod:`repro.trace` stall-attribution analyzer
    to every loop simulation and records the closed-accounted summary per
    manifest cell (simulated cycles are unaffected either way).
    ``machine`` selects the machine model (default the itanium2
    reference); it determines the cycles, so its name and description
    digest are recorded per cell and the manifest fingerprint covers
    non-default machines.
    """
    machine = machine or ItaniumMachine()
    machine_digest = machine.digest()
    unique_configs: list[CompilerConfig] = []
    seen: set[str] = set()
    for config in configs:
        if config.label not in seen:
            seen.add(config.label)
            unique_configs.append(config)

    jobs = [
        BenchmarkJob(benchmark=bench, config=config, machine=machine,
                     seed=seed, verify=verify, trace=trace)
        for config in unique_configs
        for bench in benchmarks
    ]
    start = time.perf_counter()
    if cache is None:
        outcomes = _run_uncached(jobs, workers, timeout)
    else:
        outcomes = run_jobs(jobs, workers=workers, cache=cache,
                            timeout=timeout)
    wall = time.perf_counter() - start

    results: dict[str, dict[str, BenchmarkResult]] = {
        config.label: {} for config in unique_configs
    }
    cells: list[CellRecord] = []
    for job, outcome in zip(jobs, outcomes):
        result = outcome.result
        if result is None:  # timed out: record the cell, skip the results
            cells.append(CellRecord(
                benchmark=job.benchmark.name,
                suite=job.benchmark.suite,
                config=job.config.label,
                total_cycles=0.0,
                loop_cycles=0.0,
                serial_cycles=0.0,
                cache_hit=False,
                duration_s=outcome.duration_s,
                status=outcome.status,
                machine=machine.name,
                machine_digest=machine_digest,
            ))
            continue
        results[job.config.label][job.benchmark.name] = result
        verification = outcome.verification or {}
        bounds = verification.get("bounds") or {}
        cells.append(CellRecord(
            benchmark=result.name,
            suite=result.suite,
            config=result.config_label,
            total_cycles=result.total_cycles,
            loop_cycles=result.loop_cycles,
            serial_cycles=result.serial_cycles,
            cache_hit=outcome.cache_hit,
            duration_s=outcome.duration_s,
            verified=outcome.verification is not None,
            verify_errors=verification.get("errors", 0),
            verify_warnings=verification.get("warnings", 0),
            bounds_checked=bounds.get("checked", 0),
            bounds_violations=bounds.get("violations", 0),
            trace=outcome.trace,
            machine=machine.name,
            machine_digest=machine_digest,
        ))

    manifest = RunManifest.new(
        suite=suite_name or (benchmarks[0].suite if benchmarks else ""),
        seed=seed,
        workers=workers,
        configs=[config.label for config in unique_configs],
        cells=cells,
        wall_time_s=wall,
        machine=machine.name,
    )
    if manifest_path:
        manifest.save(manifest_path)
    return SuiteRun(results=results, manifest=manifest)


def compare_configs(
    run: SuiteRun, baseline_label: str, variant_label: str
) -> ExperimentResult:
    """Baseline-vs-variant gains out of one grid run.

    Benchmarks missing from either side (e.g. a timed-out cell) are
    skipped rather than raising, mirroring manifest comparison.
    """
    base = run.config(baseline_label)
    var = run.config(variant_label)
    gains = {
        name: percent_gain(base[name].total_cycles, var[name].total_cycles)
        for name in base
        if name in var
    }
    return ExperimentResult(
        baseline_label=baseline_label,
        variant_label=variant_label,
        gains=gains,
        baseline=base,
        variant=var,
    )


def default_manifest_path(suite_name: str) -> Path:
    """An auto-named manifest file under the default runs directory."""
    stamp = time.strftime("%Y%m%dT%H%M%S")
    return default_runs_dir() / f"{stamp}-{suite_name or 'suite'}.json"
