"""Which public calls the traced run wraps, and the per-layer metrics.

Every entry of :data:`TARGETS` names a layer's public call site as the
program looks it up (``module:attr`` or ``module:Class.method``), the
span name to record, and what to note from its result.  Entries whose
module or attribute no longer exists are skipped, so the benchmark keeps
working when a refactor deletes an optional layer such as the fast
simulator.
"""

from __future__ import annotations

import statistics


def _compile(args, result):
    return {"policy": args[0].config.hint_policy.value}


def _hlo(args, plan):
    return {"prefetches": sum(
        1 for decision in plan.decisions.values() if decision.emitted
    )}


def _pipeline(args, result):
    stats = result.stats
    return {
        "attempts": stats.attempts,
        "boosted_loads": stats.boosted_loads,
        "rotating_regs": sum(stats.rotating.values()),
        "spills": stats.spills,
    }


def _ddg(args, ddg):
    return {"edges": len(ddg.edges)}


def _verify(args, report):
    return {"errors": report.counts()["error"]}


def _simulate(args, run):
    return {
        "backend": getattr(run, "backend", "interp"),
        "iterations": run.total_iterations,
    }


def _source(args, text):
    return {"lines": text.count("\n")}


def _cache_get(args, payload):
    return {"hit": payload is not None}


TARGETS = {
    "repro.core.compiler:LoopCompiler.compile": ("compile.compile", _compile),
    "repro.core.compiler:run_hlo": ("hlo.run_hlo", _hlo),
    "repro.core.compiler:pipeline_loop": ("pipeliner.pipeline_loop",
                                          _pipeline),
    "repro.pipeliner.driver:build_ddg": ("ddg.build_ddg", _ddg),
    "repro.pipeliner.driver:allocate_rotating": ("regalloc.rotating", None),
    "repro.pipeliner.driver:allocate_static": ("regalloc.static", None),
    "repro.analysis:verify_compiled": ("analysis.verify_compiled", _verify),
    "repro.analysis:check_simulation": ("analysis.check_simulation", None),
    "repro.harness.jobs:simulate_loop": ("sim.simulate_loop", _simulate),
    "repro.sim.executor:prepare_execution": ("sim.prepare_execution", None),
    "repro.sim.executor:build_streams": ("sim.build_streams", None),
    "repro.sim.fastpath:CompiledKernel.replay_for": ("sim.replay_for", None),
    "repro.sim.fastpath:_generate_source": ("sim.generate_source", _source),
    "repro.harness.cache:ArtifactCache.get": ("harness.cache_get",
                                              _cache_get),
    "repro.harness.cache:ArtifactCache.put": ("harness.cache_put", None),
    "repro.workloads.spec:LoopWorkload.build": ("workloads.build", None),
}

#: per-layer metric -> unit, in report order
UNITS = {
    "sim.codegen_ms": "ms",
    "sim.codegen_lines": "count",
    "sim.fast_share": "ratio",
    "sim.simulate_ms": "ms",
    "sim.replay_ms": "ms",
    "sim.ns_per_iter": "ns",
    "sim.prepare_ms": "ms",
    "sim.streams_ms": "ms",
    "hlo.ms": "ms",
    "hlo.prefetches": "count",
    "ddg.ms": "ms",
    "ddg.edges": "count",
    "pipeliner.ms": "ms",
    "pipeliner.attempts": "count",
    "pipeliner.boosted_loads": "count",
    "regalloc.ms": "ms",
    "regalloc.rotating_regs": "count",
    "regalloc.spills": "count",
    "compile.ms": "ms",
    "compile.share_pct": "%",
    "compile.hlo_vs_baseline_pct": "%",
    "compile.hlo_delta_s": "s",
    "analysis.verify_ms": "ms",
    "analysis.bounds_ms": "ms",
    "analysis.errors": "count",
    "harness.run_job_ms": "ms",
    "harness.cache_get_ms": "ms",
    "harness.cache_put_ms": "ms",
    "harness.cache_hit_ratio": "ratio",
    "workloads.build_ms": "ms",
    "service.client_ms": "ms",
    "service.exec_ms": "ms",
    "service.overhead_ms": "ms",
    "service.executed": "count",
    "service.served_from_store": "count",
    "service.store_hits": "count",
    "service.deduped": "count",
    "service.rejected": "count",
    "ir.parse_ms": "ms",
    "trace.ms": "ms",
    "trace.events": "count",
    "bench.traced_wall_s": "s",
    "bench.spans": "count",
}


def _codegen_spans(recorder) -> list[int]:
    """Indices of replay_for spans that generated (and compiled) code."""
    return sorted({
        parent for name, _, _, parent, _ in recorder.spans
        if name == "sim.generate_source" and parent >= 0
    })


def per_layer(recorder, outcome) -> dict:
    """Every per-layer metric of one traced run (0 where a layer did not
    run in this workload)."""
    totals = recorder.totals()

    def ms(name: str, kind: str = "total_s") -> float:
        return 1e3 * totals.get(name, {}).get(kind, 0.0)

    def attr_sum(name: str, key: str) -> float:
        return sum(a.get(key, 0) for a in recorder.attrs(name))

    spans = recorder.spans
    codegen_ms = 1e3 * sum(
        spans[i][2] - spans[i][1] for i in _codegen_spans(recorder)
    )
    sims = recorder.attrs("sim.simulate_loop")
    iterations = sum(a.get("iterations", 0) for a in sims)
    replay_ms = (ms("sim.simulate_loop") - ms("sim.prepare_execution")
                 - ms("sim.build_streams") - ms("sim.replay_for"))
    compile_s = {"baseline": 0.0, "hlo": 0.0}
    for span in spans:
        policy = (span[4] or {}).get("policy")
        if span[0] == "compile.compile" and policy in compile_s:
            compile_s[policy] += span[2] - span[1]
    gets = recorder.attrs("harness.cache_get")
    metrics = {
        "sim.codegen_ms": codegen_ms,
        "sim.codegen_lines": attr_sum("sim.generate_source", "lines"),
        "sim.fast_share": (
            sum(1 for a in sims if a.get("backend") == "fast") / len(sims)
            if sims else 0.0
        ),
        "sim.simulate_ms": ms("sim.simulate_loop"),
        "sim.replay_ms": replay_ms,
        "sim.ns_per_iter": 1e6 * replay_ms / iterations if iterations else 0.0,
        "sim.prepare_ms": ms("sim.prepare_execution"),
        "sim.streams_ms": ms("sim.build_streams"),
        "hlo.ms": ms("hlo.run_hlo", "self_s"),
        "hlo.prefetches": attr_sum("hlo.run_hlo", "prefetches"),
        "ddg.ms": ms("ddg.build_ddg", "self_s"),
        "ddg.edges": attr_sum("ddg.build_ddg", "edges"),
        "pipeliner.ms": ms("pipeliner.pipeline_loop", "self_s"),
        "pipeliner.attempts": attr_sum("pipeliner.pipeline_loop", "attempts"),
        "pipeliner.boosted_loads": attr_sum("pipeliner.pipeline_loop",
                                            "boosted_loads"),
        "regalloc.ms": (ms("regalloc.rotating", "self_s")
                        + ms("regalloc.static", "self_s")),
        "regalloc.rotating_regs": attr_sum("pipeliner.pipeline_loop",
                                           "rotating_regs"),
        "regalloc.spills": attr_sum("pipeliner.pipeline_loop", "spills"),
        "compile.ms": ms("compile.compile"),
        "compile.share_pct": (
            100.0 * ms("compile.compile")
            / (1e3 * outcome.layers["compile_window_s"])
        ),
        "compile.hlo_vs_baseline_pct": (
            100.0 * (compile_s["hlo"] / compile_s["baseline"] - 1.0)
            if compile_s["baseline"] else 0.0
        ),
        "compile.hlo_delta_s": compile_s["hlo"] - compile_s["baseline"],
        "analysis.verify_ms": ms("analysis.verify_compiled"),
        "analysis.bounds_ms": ms("analysis.check_simulation"),
        "analysis.errors": attr_sum("analysis.verify_compiled", "errors"),
        "harness.run_job_ms": ms("harness.run_job", "self_s"),
        "harness.cache_get_ms": ms("harness.cache_get"),
        "harness.cache_put_ms": ms("harness.cache_put"),
        "harness.cache_hit_ratio": (
            sum(1 for a in gets if a.get("hit")) / len(gets) if gets else 0.0
        ),
        "workloads.build_ms": ms("workloads.build"),
        "ir.parse_ms": ms("ir.parse_loop"),
        "bench.traced_wall_s": statistics.median(outcome.pass_walls),
        "bench.spans": len(spans),
    }
    for name in UNITS:
        if name.startswith(("service.", "trace.")):
            metrics[name] = outcome.layers.get(name, 0)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in UNITS.items()}
