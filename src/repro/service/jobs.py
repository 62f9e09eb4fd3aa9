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

# --- builders: canonical request -> program objects ----------------------------
#
# The one place a canonical request (see repro.service.protocol) becomes
# a config, machine, layout or benchmark list.  The CLI builds the same
# request dicts from its flags and runs them through these builders too.


def config_for(canonical: dict) -> CompilerConfig:
    """The compiler config of a compile/simulate/trace request."""
    policy = HintPolicy(canonical["policy"])
    if policy is HintPolicy.BASELINE:
        config = baseline_config(
            pgo=canonical["pgo"], prefetch=canonical["prefetch"]
        )
        return config.with_(trip_count_threshold=canonical["threshold"])
    return CompilerConfig(
        hint_policy=policy,
        trip_count_threshold=canonical["threshold"],
        pgo=canonical["pgo"],
        prefetch=canonical["prefetch"],
    )


def bench_configs_for(canonical: dict) -> tuple[CompilerConfig, list]:
    """A bench request's baseline column and one variant per policy.

    The baseline column keeps the default threshold whatever the
    request's (boosting is off there anyway), so every bench addresses
    the same baseline cache entries.
    """
    base = baseline_config(
        pgo=canonical["pgo"], prefetch=canonical["prefetch"]
    )
    variants = [
        config_for({**canonical, "policy": policy})
        for policy in canonical["configs"]
        if policy != HintPolicy.BASELINE.value
    ]
    return base, variants


def machine_for(canonical: dict):
    """The machine model a request names."""
    from repro.machine import build_machine

    return build_machine(canonical["machine"])


def layout_for(canonical: dict, loop) -> dict:
    """Memory-space layout of a simulate/trace request; spaces the
    request leaves out default to 64M streaming."""
    from repro.sim.address import StreamSpec

    layout = {
        name: StreamSpec(size=spec["size"], reuse=spec["reuse"])
        for name, spec in canonical["spaces"].items()
    }
    for space in sorted(loop_spaces(loop) - set(layout)):
        layout[space] = StreamSpec(size=64 << 20, reuse=False)
    return layout


def loop_spaces(loop) -> set[str]:
    """The memory spaces ``loop`` references."""
    return {i.memref.space for i in loop.body if i.memref is not None}


def benchmarks_for(canonical: dict) -> list:
    """A bench request's benchmarks; unknown names are a 400 error."""
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
    return suite


def compile_request(canonical: dict):
    """Parse and compile a compile/simulate/trace request's loop."""
    from repro.core.compiler import LoopCompiler
    from repro.ir import parse_loop

    machine = machine_for(canonical)
    loop = parse_loop(canonical["loop"])
    compiled = LoopCompiler(machine, config_for(canonical)).compile(loop)
    return machine, loop, compiled


def run_bench(canonical: dict, cache, **execution):
    """Run a bench request: ``(run, baseline, {label: comparison})``.

    ``execution`` passes the knobs that never change a result (workers,
    timeout, manifest_path) through to :func:`repro.harness.run_suite`.
    """
    from repro.harness import compare_configs, run_suite

    benchmarks = benchmarks_for(canonical)
    base, variants = bench_configs_for(canonical)
    run = run_suite(
        benchmarks,
        [base] + variants,
        machine=machine_for(canonical),
        seed=canonical["seed"],
        cache=cache,
        suite_name=canonical["suite"],
        verify=canonical["verify"],
        trace=canonical["trace"],
        **execution,
    )
    comparisons = {
        variant.label: compare_configs(run, base.label, variant.label)
        for variant in variants
    }
    return run, base, comparisons


# --- executors ------------------------------------------------------------------


def _run_compile(canonical: dict, cache_root: str | None) -> dict:
    _, loop, compiled = compile_request(canonical)
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


def _run_simulate(canonical: dict, cache_root: str | None) -> dict:
    from repro.harness.jobs import counters_to_dict
    from repro.sim import simulate_loop

    machine, loop, compiled = compile_request(canonical)
    run = simulate_loop(
        compiled.result,
        machine,
        layout_for(canonical, loop),
        [canonical["trips"]] * canonical["invocations"],
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

    machine, loop, compiled = compile_request(canonical)
    traced = trace_simulation(
        compiled.result,
        machine,
        layout_for(canonical, loop),
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
        machine=canonical["machine"],
        gen=GenConfig(max_ops=canonical["max_ops"]),
    ))
    return summary.to_dict()


def _run_bench(canonical: dict, cache_root: str | None) -> dict:
    # one job = one worker; the pool parallelises jobs
    run, _, comparisons = run_bench(canonical, cache_root, workers=1)
    manifest = run.manifest
    return {
        "manifest": manifest.to_dict(),
        "fingerprint": manifest.fingerprint(),
        "summary": manifest.summary(),
        "gains": {
            label: comparison.gains
            for label, comparison in comparisons.items()
        },
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
