"""Execute canonical service requests: the worker side of the service.

:func:`execute_request` is the single picklable entry point the
:class:`~repro.harness.workers.WorkerPool` runs.  It receives a canonical
request (already validated by :mod:`repro.service.protocol`), dispatches
on the job kind, and returns a JSON-serialisable result dict — which the
front-end stores in the artifact store under the request key, so the next
identical submission never reaches a worker.

Everything here is built from the existing layers — the compiler driver,
the simulator, :mod:`repro.trace`, :mod:`repro.fuzz` and the PR 1 harness
— with no service-specific compute of its own: a ``bench`` job *is*
``run_suite`` (serial inside the worker; the pool provides process-level
parallelism across jobs, and workers share the store for per-loop-run
entries), a ``fuzz`` job *is* ``run_fuzz`` with its verdict cache pointed
at the shared store, and so on.  That is what keeps an HTTP-submitted
suite bit-identical to a local ``repro bench``.
"""

from __future__ import annotations

from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.errors import ServiceError


def _build_config(canonical: dict) -> CompilerConfig:
    scheduler = canonical.get("scheduler", "heuristic")
    policy = HintPolicy(canonical["policy"])
    if policy is HintPolicy.BASELINE:
        config = baseline_config(
            pgo=canonical["pgo"], prefetch=canonical["prefetch"]
        )
        return config.with_(
            trip_count_threshold=canonical["threshold"], scheduler=scheduler
        )
    return CompilerConfig(
        hint_policy=policy,
        trip_count_threshold=canonical["threshold"],
        pgo=canonical["pgo"],
        prefetch=canonical["prefetch"],
        scheduler=scheduler,
    )


def _build_layout(canonical: dict, loop) -> dict:
    from repro.sim.address import StreamSpec

    layout = {
        name: StreamSpec(size=spec["size"], reuse=spec["reuse"])
        for name, spec in canonical["spaces"].items()
    }
    missing = sorted(
        {i.memref.space for i in loop.body if i.memref is not None}
        - set(layout)
    )
    # unspecified spaces default to 64M streaming, mirroring `repro trace`
    for space in missing:
        layout[space] = StreamSpec(size=64 << 20, reuse=False)
    return layout


def _resolve_machine(canonical: dict):
    from repro.machine import build_machine

    return build_machine(canonical.get("machine", "itanium2"))


def _run_compile(canonical: dict, cache_root: str | None) -> dict:
    from repro.core.compiler import LoopCompiler
    from repro.ir import parse_loop

    loop = parse_loop(canonical["loop"])
    compiled = LoopCompiler(
        _resolve_machine(canonical), _build_config(canonical)
    ).compile(loop)
    stats = compiled.stats
    result = {
        "loop": loop.name,
        "summary": stats.summary(),
        "ii": stats.ii,
        "res_ii": stats.res_ii,
        "rec_ii": stats.rec_ii,
        "stage_count": stats.stage_count,
        "kernel": (
            compiled.result.kernel.format()
            if compiled.result.kernel is not None else None
        ),
        "verification": None,
    }
    if canonical["verify"]:
        from repro.analysis import verify_compiled

        report = verify_compiled(compiled)
        result["verification"] = {
            "ok": report.ok,
            "counts": report.counts(),
            "codes": sorted(report.codes()),
            "text": report.render_text(),
        }
    return result


def _compile_for_run(canonical: dict):
    from repro.core.compiler import LoopCompiler
    from repro.ir import parse_loop

    machine = _resolve_machine(canonical)
    loop = parse_loop(canonical["loop"])
    compiled = LoopCompiler(machine, _build_config(canonical)).compile(loop)
    return machine, loop, compiled


def _run_simulate(canonical: dict, cache_root: str | None) -> dict:
    from repro.harness.jobs import counters_to_dict
    from repro.sim import MemorySystem, simulate_loop

    machine, loop, compiled = _compile_for_run(canonical)
    run = simulate_loop(
        compiled.result,
        machine,
        _build_layout(canonical, loop),
        [canonical["trips"]] * canonical["invocations"],
        memory=machine.memory_system(),
        seed=canonical["seed"],
    )
    return {
        "loop": run.loop_name,
        "summary": compiled.stats.summary(),
        "cycles": float(run.cycles),
        "cycles_per_iteration": run.cycles_per_iteration,
        "iterations": run.total_iterations,
        "counters": counters_to_dict(run.counters),
    }


def _run_trace(canonical: dict, cache_root: str | None) -> dict:
    from repro.trace import trace_simulation, trace_summary

    machine, loop, compiled = _compile_for_run(canonical)
    traced = trace_simulation(
        compiled.result,
        machine,
        _build_layout(canonical, loop),
        [canonical["trips"]] * canonical["invocations"],
        seed=canonical["seed"],
    )
    run = traced.run
    return {
        "loop": run.loop_name,
        "summary": compiled.stats.summary(),
        "cycles": float(run.cycles),
        "cycles_per_iteration": run.cycles_per_iteration,
        "events": traced.total_events,
        "ok": traced.check.ok,
        "trace": trace_summary(traced.attribution, traced.check),
        "attribution": traced.attribution.to_dict(),
    }


def _run_fuzz(canonical: dict, cache_root: str | None) -> dict:
    from repro.fuzz import FuzzOptions, GenConfig, run_fuzz

    summary = run_fuzz(FuzzOptions(
        cases=canonical["cases"],
        seed=canonical["seed"],
        jobs=1,  # the service pool is the parallelism; workers stay flat
        shrink=canonical["shrink"],
        corpus_dir=None,
        cache_dir=cache_root,  # verdicts share the artifact store
        inject=canonical["inject"],
        machine=canonical.get("machine", "itanium2"),
        gen=GenConfig(max_ops=canonical["max_ops"]),
    ))
    return summary.to_dict()


def _run_bench(canonical: dict, cache_root: str | None) -> dict:
    from repro.harness import compare_configs, run_suite
    from repro.workloads import suite_by_name

    suite = suite_by_name(canonical["suite"])
    if canonical["benchmarks"]:
        wanted = set(canonical["benchmarks"])
        suite = [bench for bench in suite if bench.name in wanted]
        missing = wanted - {bench.name for bench in suite}
        if missing:
            raise ServiceError(
                f"unknown benchmark(s) in suite {canonical['suite']!r}: "
                f"{', '.join(sorted(missing))}",
                status=400,
            )
    scheduler = canonical.get("scheduler", "heuristic")
    base = baseline_config(
        pgo=canonical["pgo"], prefetch=canonical["prefetch"]
    )
    if scheduler != "heuristic":
        # the scheduler applies to every column, baseline included
        base = base.with_(
            scheduler=scheduler, name=f"{base.name},{scheduler}"
        )
    variants = [
        CompilerConfig(
            hint_policy=HintPolicy(policy),
            trip_count_threshold=canonical["threshold"],
            pgo=canonical["pgo"],
            prefetch=canonical["prefetch"],
            scheduler=scheduler,
        )
        for policy in canonical["configs"]
        if HintPolicy(policy) is not HintPolicy.BASELINE
    ]
    run = run_suite(
        suite,
        [base] + variants,
        machine=_resolve_machine(canonical),
        seed=canonical["seed"],
        workers=1,  # one job = one worker; the pool parallelises jobs
        cache=cache_root,
        suite_name=canonical["suite"],
        verify=canonical["verify"],
        trace=canonical["trace"],
    )
    manifest = run.manifest
    gains = {
        variant.label: compare_configs(run, base.label, variant.label).gains
        for variant in variants
    }
    return {
        "manifest": manifest.to_dict(),
        "fingerprint": manifest.fingerprint(),
        "summary": manifest.summary(),
        "gains": gains,
    }


_EXECUTORS = {
    "compile": _run_compile,
    "simulate": _run_simulate,
    "trace": _run_trace,
    "fuzz": _run_fuzz,
    "bench": _run_bench,
}


def execute_request(spec: dict, cache_root: str | None = None) -> dict:
    """Run one canonical request; the WorkerPool entry point.

    ``spec`` is ``{"kind": ..., "request": <canonical dict>}``;
    ``cache_root`` points workers at the shared artifact store so nested
    per-loop-run and fuzz-verdict entries land next to the job results.
    """
    kind = spec["kind"]
    try:
        executor = _EXECUTORS[kind]
    except KeyError:
        raise ServiceError(f"unknown job kind {kind!r}", status=400) from None
    return executor(spec["request"], cache_root)
