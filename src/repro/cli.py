"""Command-line interface.

The subcommands::

    python -m repro compile loop.s --policy hlo        # kernel + stats
    python -m repro simulate loop.s --trips 2000 --invocations 3 \\
        --space a=64M --space b=64M                    # cycles + counters
    python -m repro trace loop.s --trips 1000          # stall attribution,
                                                       # Chrome trace JSON
    python -m repro lint loop.s --format json          # static analysis
    python -m repro lint --suite cpu2006               # validate a suite
    python -m repro bench --suite cpu2006 --jobs 8     # parallel sweep
    python -m repro bench --suite cpu2006 --config all-loads-l3 -n 0 \\
        --jobs 4 --cache-dir .repro-cache              # one policy vs baseline
    python -m repro compare runA.json runB.json        # manifest diff
    python -m repro compare runA.json runB.json --fail-on-regression \\
        --tolerance 0.5                                # CI regression gate
    python -m repro fuzz --cases 200 --seed 0 --jobs 4 # oracle fuzzing
    python -m repro fuzz --replay tests/corpus         # corpus replay
    python -m repro machines                           # machine models
    python -m repro fig5                               # the theory curves
    python -m repro serve --workers 4                  # the job server
    python -m repro submit bench --json '{"suite": "micro"}' --wait 600
    python -m repro status                             # server counters
    python -m repro status JOB_ID --wait 60            # one job record

``compile``, ``lint``, ``simulate``, ``trace`` and ``bench`` turn their
flags into the service's request schema (:mod:`repro.service.protocol`)
and build their work from the canonical request with the same builders
the job server uses (:mod:`repro.service.jobs`), so a flag means the
same thing locally and over HTTP; a flag value the schema rejects exits
with status 2, like an argparse error.

``compile`` and ``bench`` additionally take ``--verify``, which runs the
:mod:`repro.analysis` translation validator over every scheduled loop
(see ``docs/analysis.md`` for the SAnnn code reference).  ``bench``
takes ``--trace``, which records a per-cell stall-attribution summary in
the run manifest (see ``docs/trace.md``).  ``compile``, ``simulate``,
``trace``, ``bench`` and ``fuzz`` take ``--machine`` to target a
registered machine model (``repro machines`` lists them; see
``docs/machines.md``).

The loop file format is the textual dialect of
:func:`repro.ir.parser.parse_loop` (see examples/loops/ and README).
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.config import HintPolicy
from repro.errors import ReproError, ServiceError
from repro.service.protocol import JOB_KINDS, normalize_request
from repro.service.protocol import parse_size as parse_request_size
from repro.workloads import SUITE_NAMES


def parse_size(text: str) -> int:
    """``64M``/``64mb`` -> 67108864; plain positive integers pass through."""
    try:
        return parse_request_size(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r}: {exc}"
        ) from None


#: valid per-space flags: ``stream`` = cold streaming access, ``reuse`` =
#: resident/pre-warmed (the default when no flag is given)
_SPACE_FLAGS = ("stream", "reuse")


def parse_space(text: str):
    """``name=64M[:stream|:reuse]`` -> (name, StreamSpec).

    ``:stream`` marks a streaming (cold) space; the default is a reused
    (resident, pre-warmed) one.
    """
    from repro.sim.address import StreamSpec

    name, _, rest = text.partition("=")
    name = name.strip()
    if not rest:
        raise argparse.ArgumentTypeError(
            f"expected name=SIZE[:stream|:reuse], got {text!r}"
        )
    if not name:
        raise argparse.ArgumentTypeError(
            f"empty space name in {text!r}: expected name=SIZE[:stream|:reuse]"
        )
    size_text, sep, flag = rest.partition(":")
    if sep and flag not in _SPACE_FLAGS:
        raise argparse.ArgumentTypeError(
            f"unknown space flag {flag!r} in {text!r}: "
            f"expected one of {', '.join(_SPACE_FLAGS)}"
        )
    reuse = flag != "stream"
    return name, StreamSpec(size=parse_size(size_text), reuse=reuse)


# --- flags -> canonical requests ----------------------------------------------

def _payload(args: argparse.Namespace, **fields) -> dict:
    """Request fields from the config flags plus ``fields``.  Flags left
    unset are omitted, so the request schema fills in its defaults."""
    fields.update(
        policy=getattr(args, "policy", None),
        threshold=args.threshold,
        pgo=not args.no_pgo,
        prefetch=not args.no_prefetch,
    )
    return {name: value for name, value in fields.items() if value is not None}


def _loop_request(kind: str, args: argparse.Namespace, **fields) -> dict:
    """The canonical ``kind`` request for the loop file in ``args``."""
    from pathlib import Path

    return normalize_request(kind, _payload(
        args, loop=Path(args.loop_file).read_text(), machine=args.machine,
        **fields,
    ))


def _spaces(args: argparse.Namespace) -> dict:
    """``--space`` flags as the request's ``spaces`` field."""
    return {
        name: {"size": spec.size, "reuse": spec.reuse}
        for name, spec in args.space or []
    }


def _usage_errors(command):
    """A request the flags built that fails validation exits 2."""

    @functools.wraps(command)
    def run(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except ServiceError as exc:
            if exc.status != 400:
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return run


def _add_machine_arg(parser: argparse.ArgumentParser) -> None:
    from repro.machine import machine_names

    parser.add_argument(
        "--machine",
        choices=machine_names(),
        default="itanium2",
        help="machine model to compile and simulate for "
             "(default: itanium2; see `repro machines`)",
    )


def _add_tuning_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-n", "--threshold", type=int,
                        help="trip-count threshold (default: 32)")
    parser.add_argument("--no-pgo", action="store_true",
                        help="use the static profile heuristic")
    parser.add_argument("--no-prefetch", action="store_true",
                        help="disable software prefetching")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy",
        choices=[p.value for p in HintPolicy],
        help="hint policy (default: hlo)",
    )
    _add_tuning_args(parser)


def _add_run_args(parser: argparse.ArgumentParser, space_help: str) -> None:
    """Flags of the commands that simulate one loop file."""
    parser.add_argument("loop_file")
    parser.add_argument("--trips", type=int,
                        help="iterations per invocation (default: 1000)")
    parser.add_argument("--invocations", type=int,
                        help="loop invocations (default: 1)")
    parser.add_argument("--space", type=parse_space, action="append",
                        metavar="NAME=SIZE", help=space_help)
    _add_config_args(parser)
    _add_machine_arg(parser)


# --- commands -----------------------------------------------------------------

@_usage_errors
def cmd_compile(args: argparse.Namespace) -> int:
    from repro.service.jobs import compile_request

    _, _, compiled = compile_request(
        _loop_request("compile", args, verify=args.verify)
    )
    stats = compiled.stats
    print(stats.summary())
    if compiled.result.kernel is not None:
        print()
        print(compiled.result.kernel.format())
    if args.verbose and compiled.result.schedule is not None:
        print()
        print(compiled.result.schedule.format())
        print()
        for p in stats.placements:
            print(
                f"load {p.load.memref.name}: distance={p.use_distance} "
                f"d={p.additional_latency} "
                f"k={p.clustering_factor(stats.ii)} boosted={p.boosted}"
            )
    if args.verify:
        from repro.analysis import verify_compiled

        report = verify_compiled(compiled)
        print()
        print(f"verification: {'OK' if report.ok else 'FAILED'}")
        if report.findings:
            print(report.render_text())
        if not report.ok:
            return 1
    return 0


@_usage_errors
def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import DiagnosticReport, lint_loop, verify_compiled
    from repro.core.compiler import LoopCompiler
    from repro.ir import parse_loop
    from repro.machine import ItaniumMachine
    from repro.service.jobs import config_for
    from repro.service.protocol import normalize_config

    machine = ItaniumMachine()
    config = config_for(normalize_config(_payload(args)))
    compiler = LoopCompiler(machine, config)
    report = DiagnosticReport()
    linted = 0

    def check(loop, profile=None, layout=None) -> None:
        nonlocal linted
        linted += 1
        findings = lint_loop(loop)
        if findings.ok:
            # clean IR: compile it and translation-validate the full
            # result (the lint re-runs there on the HLO-transformed loop)
            compiled = compiler.compile(loop, profile)
            findings = verify_compiled(compiled)
            if args.bounds:
                from repro.analysis import build_perf_model

                model = build_perf_model(compiled.result, machine, layout)
                lo, up = model.cycle_interval(
                    [max(1, int(loop.average_trips()))]
                )
                up_text = "inf" if up == float("inf") else f"{up:.0f}"
                print(
                    f"bounds {loop.name}: II={model.ii} SC="
                    f"{model.stage_count} cycles/invocation in "
                    f"[{lo:.0f}, {up_text}] zero_stall="
                    f"{model.zero_stall_proof} ozq_zero="
                    f"{model.ozq_zero_proof} bank_provable="
                    f"{model.bank_provable}"
                )
        report.extend(findings)

    for path in args.loop_files:
        check(parse_loop(open(path).read()))

    if args.suite:
        from repro.harness.jobs import collect_profile
        from repro.workloads import suite_by_name

        for bench in suite_by_name(args.suite):
            built = [lw.build() for lw in bench.loops]
            profile = (
                collect_profile(bench, [loop for loop, _ in built], args.seed)
                if config.pgo else None
            )
            for loop, layout in built:
                check(loop, profile, layout)

    if not linted:
        print("error: nothing to lint (give loop files and/or --suite)",
              file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
        print(f"linted {linted} loop(s): {'OK' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


@_usage_errors
def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.harness.jobs import counters_from_dict
    from repro.ir import parse_loop
    from repro.service.jobs import execute_request, loop_spaces

    request = _loop_request(
        "simulate", args, trips=args.trips, invocations=args.invocations,
        spaces=_spaces(args),
    )
    # unlike `trace`, every space the loop touches needs a --space
    missing = loop_spaces(parse_loop(request["loop"])) - set(request["spaces"])
    if missing:
        print(f"error: no --space given for {sorted(missing)}",
              file=sys.stderr)
        return 2
    result = execute_request({"kind": "simulate", "request": request})
    print(result["summary"])
    print(f"cycles: {result['cycles']:,.0f} "
          f"({result['cycles_per_iteration']:.2f}/iteration)")
    c = counters_from_dict(result["counters"])
    print(c.summary())
    if c.loads_by_level:
        levels = {1: "L1D", 2: "L2", 3: "L3", 4: "mem"}
        parts = [f"{levels[k]}={v}" for k, v in sorted(c.loads_by_level.items())]
        print("loads by level:", " ".join(parts))
    return 0


@_usage_errors
def cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.service.jobs import compile_request, layout_for
    from repro.trace import (
        ascii_timeline,
        render_attribution_text,
        trace_simulation,
        trace_summary,
        write_chrome_trace,
    )

    request = _loop_request(
        "trace", args, trips=args.trips, invocations=args.invocations,
        spaces=_spaces(args), seed=args.seed,
    )
    machine, loop, compiled = compile_request(request)
    layout = layout_for(request, loop)
    trips = [request["trips"]] * request["invocations"]
    print(compiled.stats.summary())
    traced = trace_simulation(
        compiled.result,
        machine,
        layout,
        trips,
        seed=request["seed"],
        ring=args.ring,
    )
    run = traced.run
    print(f"cycles: {run.cycles:,.0f} "
          f"({run.cycles_per_iteration:.2f}/iteration), "
          f"{traced.total_events:,} events")
    print()
    print(render_attribution_text(traced.attribution))

    chrome_path = Path(
        args.chrome or Path(args.loop_file).stem + ".trace.json"
    )
    write_chrome_trace(chrome_path, traced.events, label=run.loop_name)
    print(f"chrome trace: {chrome_path}")

    if args.report:
        report = {
            "loop": run.loop_name,
            "cycles": float(run.cycles),
            "iterations": run.total_iterations,
            "summary": trace_summary(traced.attribution, traced.check),
            "attribution": traced.attribution.to_dict(),
        }
        Path(args.report).write_text(json.dumps(report, indent=2) + "\n")
        print(f"report: {args.report}")

    if args.timeline:
        print()
        print(ascii_timeline(traced.events, width=args.timeline_width))

    # cross-check the run and its stall attribution against the SA5xx
    # static performance bounds: counters inside the cycle interval,
    # per-site stalls at or below their residual-latency budget
    from repro.analysis import build_perf_model

    model = build_perf_model(compiled.result, machine, layout)
    bound_report = model.check_counters(trips, run.counters, run.cycles)
    bound_report.extend(model.check_trace_sites(
        trips,
        {
            tag: site.stall_cycles
            for tag, site in traced.attribution.sites.items()
        },
    ))
    if bound_report.ok:
        print("static bounds: OK")
    else:
        print("static bounds: FAILED", file=sys.stderr)
        print(bound_report.render_text(), file=sys.stderr)

    if traced.check.ok:
        print("closed accounting: OK")
        return 0 if bound_report.ok else 1
    print("closed accounting: FAILED", file=sys.stderr)
    for failure in traced.check.failures:
        print(f"  {failure}", file=sys.stderr)
    return 1


@_usage_errors
def cmd_bench(args: argparse.Namespace) -> int:
    from repro.core import format_gain_table
    from repro.harness import ArtifactCache
    from repro.harness.pool import default_manifest_path, default_workers
    from repro.service.jobs import run_bench

    request = normalize_request("bench", _payload(
        args, suite=args.suite, benchmarks=args.benchmark,
        configs=args.config, seed=args.seed, machine=args.machine,
        verify=args.verify, trace=args.trace,
    ))
    use_cache = args.cache_dir and not args.no_cache
    manifest_path = args.manifest or default_manifest_path(args.suite)
    run, base, comparisons = run_bench(
        request,
        ArtifactCache(args.cache_dir) if use_cache else None,
        workers=args.jobs if args.jobs is not None else default_workers(),
        timeout=args.timeout,
        manifest_path=manifest_path,
    )
    manifest = run.manifest
    if comparisons:
        print(format_gain_table(
            comparisons, title=f"{args.suite} — variants vs {base.label}",
        ))
        print()
    print(manifest.summary())
    print(f"manifest: {manifest_path}")
    if args.trace:
        from repro.trace import merge_trace_summaries

        summaries = [c.trace for c in manifest.cells if c.trace is not None]
        merged = merge_trace_summaries(summaries)
        status = "OK" if merged["ok"] else "FAILED"
        print(
            f"trace: {len(summaries)}/{len(manifest.cells)} cells traced, "
            f"accounting {status}, "
            f"coverage {100.0 * merged['coverage']:.1f}%, "
            f"mean k {merged['mean_clustering']:.2f}"
        )
    if not args.verify:
        return 0
    print(
        f"verification: {manifest.verified_cells}/{len(manifest.cells)} "
        f"cells verified, {manifest.verify_errors} error(s)"
    )
    if manifest.bounds_checked:
        print(
            f"static bounds: {manifest.bounds_checked} loop run(s) "
            f"checked, {manifest.bounds_violations} violation(s)"
        )
    return 1 if manifest.verify_errors else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.harness import RunManifest, compare_manifests, format_comparison

    manifest_a = RunManifest.load(args.manifest_a)
    manifest_b = RunManifest.load(args.manifest_b)
    comparison = compare_manifests(manifest_a, manifest_b)
    print(format_comparison(comparison))
    if args.fail_on_regression:
        regressed = comparison.regressions(args.tolerance)
        if regressed:
            for config, gain in regressed.items():
                print(
                    f"regression: {config} geomean {gain:+.2f}% "
                    f"(tolerance {args.tolerance:.2f}%)",
                    file=sys.stderr,
                )
            return 1
        print(
            f"no regressions beyond {args.tolerance:.2f}% "
            f"over {comparison.matched_cells} matched cells"
        )
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.fuzz import FuzzOptions, GenConfig, replay_corpus, run_fuzz

    if args.replay:
        summary = replay_corpus(args.replay)
        print(
            f"replayed {summary.cases} corpus case(s) in "
            f"{summary.duration_s:.1f}s: "
            f"{'OK' if summary.ok else f'{len(summary.failures)} FAILED'}"
        )
        for failure in summary.failures:
            for violation in failure.get("violations", []):
                print(
                    f"  {failure.get('name', '?')}: "
                    f"[{violation['oracle']}] {violation['detail']}",
                    file=sys.stderr,
                )
        return 0 if summary.ok else 1

    options = FuzzOptions(
        cases=args.cases,
        seed=args.seed,
        jobs=args.jobs,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        cache_dir=args.cache_dir,
        inject=args.inject,
        machine=args.machine,
        gen=GenConfig(max_ops=args.max_ops),
    )
    summary = run_fuzz(options)
    cached = f", {summary.cache_hits} cached" if summary.cache_hits else ""
    print(
        f"fuzzed {summary.cases} case(s) in {summary.duration_s:.1f}s"
        f"{cached}: "
        f"{'OK' if summary.ok else f'{len(summary.failures)} FAILED'}"
    )
    for failure in summary.failures:
        oracles = sorted({v["oracle"] for v in failure["violations"]})
        ops = failure.get("shrunk_ops")
        shrunk = f", shrunk to {ops} op(s)" if ops is not None else ""
        print(
            f"  seed {failure['seed']}: {', '.join(oracles)}{shrunk}",
            file=sys.stderr,
        )
        for violation in failure["violations"][:2]:
            print(f"    [{violation['oracle']}] {violation['detail']}",
                  file=sys.stderr)
    for path in summary.saved:
        print(f"  saved {path}", file=sys.stderr)
    return 0 if summary.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ServerConfig, serve

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        job_timeout=args.job_timeout,
        cache_dir=args.cache_dir,
        runs_dir=args.runs_dir,
        max_entries=args.max_entries,
        log_path=args.log,
        drain_timeout=args.drain_timeout,
    )
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _submit_spec(args: argparse.Namespace) -> dict:
    """The request body from --json / --file / --loop, merged."""
    import json

    spec: dict = {}
    if args.file:
        spec.update(json.loads(open(args.file).read()))
    if args.json:
        spec.update(json.loads(args.json))
    if args.loop:
        spec["loop"] = open(args.loop).read()
    return spec


def _render_result(kind: str, result: dict) -> None:
    """A compact human rendering of one completed job result."""
    if kind == "bench":
        print(result["summary"])
        print(f"fingerprint: {result['fingerprint']}")
        for label, gains in result.get("gains", {}).items():
            if gains:
                mean = sum(gains.values()) / len(gains)
                print(f"  {label}: mean gain {mean:+.1f}% "
                      f"over {len(gains)} benchmark(s)")
    elif kind == "fuzz":
        status = "OK" if result["ok"] else \
            f"{len(result.get('failures', []))} FAILED"
        print(f"fuzzed {result['cases']} case(s): {status}")
    elif kind in ("simulate", "trace"):
        print(result["summary"])
        print(f"cycles: {result['cycles']:,.0f} "
              f"({result['cycles_per_iteration']:.2f}/iteration)")
        if kind == "trace":
            accounting = "OK" if result["ok"] else "FAILED"
            print(f"events: {result['events']:,}, accounting {accounting}")
    else:  # compile
        print(result["summary"])
        verification = result.get("verification")
        if verification is not None:
            print(f"verification: {'OK' if verification['ok'] else 'FAILED'}")


def cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    spec = _submit_spec(args)

    if "jobs" in spec:  # batch file: {"jobs": [{"kind": ..., ...}, ...]}
        responses = client.submit_batch(spec["jobs"])
        for response in responses:
            job = response["job"]
            note = " (deduped)" if response["deduped"] else \
                " (served from store)" if response["served_from_store"] else ""
            print(f"{job['id'][:16]}  {job['status']:<8} "
                  f"{job['label']}{note}")
        return 0

    if not args.kind:
        print("error: submit needs a job KIND (or a --file with 'jobs')",
              file=sys.stderr)
        return 2
    response = client.submit(args.kind, **spec)
    job = response["job"]
    note = " (deduped)" if response["deduped"] else \
        " (served from store)" if response["served_from_store"] else ""
    print(f"job {job['id']}")
    print(f"status: {job['status']}{note}")
    if args.no_wait:
        return 0
    record = client.wait(job["id"], timeout=args.wait)
    if record["status"] != "done":
        print(f"job {record['status']}: {record.get('error')}",
              file=sys.stderr)
        return 1
    print(f"finished in {record['duration_s']:.2f}s")
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(record["result"], indent=2) + "\n"
        )
        print(f"result: {args.output}")
    _render_result(args.kind, record["result"])
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    import json

    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.job_id:
        if args.wait:
            record = client.wait(args.job_id, timeout=args.wait)
        else:
            record = client.job(args.job_id)
        print(json.dumps(record, indent=2))
        return 0 if record["status"] in ("queued", "running", "done") else 1
    if args.jobs:
        listing = client.jobs()
        for job in listing["jobs"]:
            cached = " cached" if job["cached"] else ""
            dedup = f" dedup={job['dedup_hits']}" if job["dedup_hits"] else ""
            print(f"{job['id'][:16]}  {job['status']:<8} "
                  f"{job['label']}{cached}{dedup}")
        print(f"{len(listing['jobs'])} job(s), {listing['pending']} pending")
        return 0
    if args.cache:
        print(json.dumps(client.cache_stats(), indent=2))
        return 0
    if args.runs:
        for run in client.runs():
            print(f"{run['run_id']}  {run['suite']} seed={run['seed']} "
                  f"cells={run['cells']}  {run['fingerprint'][:16]}")
        return 0
    stats = client.stats()
    jobs = stats["jobs"]
    store = stats["store"]
    print(f"service at {client.base_url}: up {stats['uptime_s']:.0f}s, "
          f"{stats['workers']} worker(s), {stats['pending']} pending")
    print(f"jobs: {jobs['submitted']} submitted, {jobs['executed']} executed, "
          f"{jobs['served_from_store']} from store, {jobs['deduped']} deduped")
    print(f"      {jobs['rejected']} rejected, {jobs['timeouts']} timeout(s), "
          f"{jobs['errors']} error(s)")
    print(f"store: {store['entries']} entries, {store['bytes']:,} bytes, "
          f"{store['hits']} hit(s) / {store['misses']} miss(es), "
          f"{store['evictions']} eviction(s)")
    return 0


def cmd_machines(args: argparse.Namespace) -> int:
    import json

    from repro.machine import machine_description, machine_names

    if args.json:
        listing = {
            name: machine_description(name).to_dict()
            for name in machine_names()
        }
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0

    header = (
        f"{'name':<12} {'issue':>5} {'queue':<10} {'cap':>3} "
        f"{'scoreboard':<22} {'window':>6} {'digest':<12}"
    )
    print(header)
    print("-" * len(header))
    for name in machine_names():
        desc = machine_description(name)
        queue = desc.queue
        queue_text = queue.kind
        if queue.kind == "slsq":
            queue_text += f"/ra{queue.runahead}"
        print(
            f"{name:<12} {desc.issue_width:>5} {queue_text:<10} "
            f"{queue.capacity:>3} {desc.scoreboard.kind:<22} "
            f"{desc.scoreboard.tracking_window:>6} {desc.digest()[:12]}"
        )
    print()
    print("select one with --machine on compile / simulate / trace / "
          "bench / fuzz")
    return 0


def cmd_fig5(args: argparse.Namespace) -> int:
    from repro.core.theory import fig5_series

    series = fig5_series(max_k=args.max_k)
    header = "k " + "".join(f"{c:>10}" for c in series)
    print(header)
    for k in range(1, args.max_k + 1):
        row = f"{k} "
        for c in series:
            row += f"{dict(series[c])[k]:>9.1f}%"
        print(row)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Latency-tolerant software pipelining (CGO 2008) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a loop file")
    p_compile.add_argument("loop_file")
    p_compile.add_argument("-v", "--verbose", action="store_true")
    p_compile.add_argument("--verify", action="store_true",
                           help="translation-validate the compiled loop")
    _add_config_args(p_compile)
    _add_machine_arg(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: lint loop files / translation-validate suites",
    )
    p_lint.add_argument("loop_files", nargs="*", metavar="LOOP_FILE",
                        help="loop files in the textual IR dialect")
    p_lint.add_argument("--suite", choices=SUITE_NAMES,
                        help="also lint every loop of a workload suite")
    p_lint.add_argument("--format", choices=["text", "json"], default="text",
                        help="finding renderer (default: text)")
    p_lint.add_argument("--bounds", action="store_true",
                        help="print the SA5xx static performance bounds "
                             "(cycle interval, zero-stall / OzQ proofs) "
                             "for every cleanly compiled loop")
    p_lint.add_argument("--seed", type=int, default=2008,
                        help="PGO profile seed for suite loops")
    _add_config_args(p_lint)
    p_lint.set_defaults(func=cmd_lint)

    p_sim = sub.add_parser("simulate", help="compile and simulate a loop")
    _add_run_args(
        p_sim,
        "working-set size per memory space, e.g. a=64M or a=8K:stream",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_trace = sub.add_parser(
        "trace",
        help="simulate a loop with cycle-level tracing and stall attribution",
    )
    _add_run_args(
        p_trace,
        "working-set size per memory space (unspecified spaces "
        "default to 64M streaming)",
    )
    p_trace.add_argument("--seed", type=int,
                         help="address-stream seed (default: 11)")
    p_trace.add_argument("--chrome", metavar="PATH",
                         help="Chrome trace-event JSON output "
                              "(default: <loop>.trace.json)")
    p_trace.add_argument("--report", metavar="PATH",
                         help="write the full attribution report as JSON")
    p_trace.add_argument("--timeline", action="store_true",
                         help="print the ASCII kernel timeline")
    p_trace.add_argument("--timeline-width", type=int, default=100,
                         metavar="COLS", help="timeline width in cycles")
    p_trace.add_argument("--ring", type=int, default=None, metavar="N",
                         help="keep only the last N events "
                              "(flight-recorder mode)")
    p_trace.set_defaults(func=cmd_trace)

    p_bench = sub.add_parser(
        "bench",
        help="parallel, cached suite sweep: the baseline plus one column "
             "per --config policy, with a run manifest",
    )
    p_bench.add_argument("--suite", choices=SUITE_NAMES, default="cpu2006")
    p_bench.add_argument("--benchmark", action="append",
                         help="restrict to specific benchmarks")
    p_bench.add_argument(
        "--config", action="append", metavar="POLICY",
        choices=[p.value for p in HintPolicy],
        help="variant hint policy; repeatable (default: hlo)",
    )
    p_bench.add_argument("--seed", type=int,
                         help="PGO profile seed (default: 2008)")
    _add_tuning_args(p_bench)
    p_bench.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="worker processes (default: CPU count, max 8)")
    p_bench.add_argument(
        "--cache-dir", metavar="PATH",
        default="benchmarks/results/cache",
        help="artifact cache directory "
             "(default: benchmarks/results/cache)",
    )
    p_bench.add_argument("--no-cache", action="store_true",
                         help="ignore the artifact cache")
    p_bench.add_argument("--timeout", type=float, default=None,
                         metavar="SECONDS", help="per-job timeout")
    p_bench.add_argument("--manifest", metavar="PATH",
                         help="manifest output path "
                              "(default: benchmarks/results/runs/<stamp>.json)")
    p_bench.add_argument("--verify", action="store_true",
                         help="translation-validate every compiled loop "
                              "and record the status in the manifest")
    p_bench.add_argument("--trace", action="store_true",
                         help="record per-cell stall-attribution summaries "
                              "in the manifest")
    _add_machine_arg(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_cmp = sub.add_parser("compare", help="diff two run manifests")
    p_cmp.add_argument("manifest_a")
    p_cmp.add_argument("manifest_b")
    p_cmp.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when any config's geomean regressed (CI gate)",
    )
    p_cmp.add_argument(
        "--tolerance", type=float, default=0.0, metavar="PERCENT",
        help="geomean slowdown to tolerate before failing (default: 0.0)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="fuzz the compile path with differential/metamorphic oracles",
    )
    p_fuzz.add_argument("--cases", type=int, default=100, metavar="N",
                        help="number of cases to generate (default: 100)")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="first generator seed (default: 0)")
    p_fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    p_fuzz.add_argument("--no-shrink", action="store_true",
                        help="keep failing cases at generated size")
    p_fuzz.add_argument("--corpus-dir", metavar="PATH",
                        help="save failing cases as .loop + .json here")
    p_fuzz.add_argument("--cache-dir", metavar="PATH",
                        help="content-addressed verdict cache directory")
    p_fuzz.add_argument(
        "--inject", default="none", choices=["none", "drop-edge"],
        help="install a deliberate scheduler bug (oracle self-test)",
    )
    p_fuzz.add_argument("--max-ops", type=int, default=14, metavar="N",
                        help="generated loop body size bound (default: 14)")
    p_fuzz.add_argument("--replay", metavar="DIR",
                        help="re-check every .loop file in a corpus "
                             "directory instead of generating new cases")
    _add_machine_arg(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run the repro job server (async HTTP front-end + worker pool)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8437,
                         help="TCP port (default: 8437; 0 picks a free one)")
    p_serve.add_argument("--workers", type=int, default=2, metavar="N",
                         help="worker processes (default: 2)")
    p_serve.add_argument("--queue-limit", type=int, default=64, metavar="N",
                         help="pending jobs before submits get 429 "
                              "(default: 64)")
    p_serve.add_argument("--job-timeout", type=float, default=600.0,
                         metavar="SECONDS",
                         help="per-job execution timeout (default: 600)")
    p_serve.add_argument("--cache-dir", default=".repro-service/store",
                         metavar="PATH",
                         help="shared artifact store directory "
                              "(default: .repro-service/store)")
    p_serve.add_argument("--runs-dir", default=".repro-service/runs",
                         metavar="PATH",
                         help="bench manifest directory "
                              "(default: .repro-service/runs)")
    p_serve.add_argument("--max-entries", type=int, default=65536, metavar="N",
                         help="artifact store size bound (default: 65536)")
    p_serve.add_argument("--log", metavar="PATH",
                         help="JSON-lines request log (default: stderr)")
    p_serve.add_argument("--drain-timeout", type=float, default=60.0,
                         metavar="SECONDS",
                         help="shutdown drain budget (default: 60)")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit",
        help="submit a job (or a batch) to a running repro server",
    )
    p_submit.add_argument("kind", nargs="?",
                          choices=JOB_KINDS,
                          help="job kind (omit when --file is a batch)")
    p_submit.add_argument("--url", default="http://127.0.0.1:8437",
                          help="server base URL "
                               "(default: http://127.0.0.1:8437)")
    p_submit.add_argument("--json", metavar="JSON",
                          help="request fields as an inline JSON object")
    p_submit.add_argument("--file", metavar="PATH",
                          help="request fields from a JSON file; a top-level "
                               "'jobs' list submits a batch")
    p_submit.add_argument("--loop", metavar="LOOP_FILE",
                          help="read this loop file into the request")
    p_submit.add_argument("--wait", type=float, default=600.0,
                          metavar="SECONDS",
                          help="wait this long for completion (default: 600)")
    p_submit.add_argument("--no-wait", action="store_true",
                          help="print the job id and return immediately")
    p_submit.add_argument("--output", metavar="PATH",
                          help="write the full result JSON here")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser(
        "status",
        help="query a running repro server (stats, jobs, store, runs)",
    )
    p_status.add_argument("job_id", nargs="?",
                          help="job id (or unique >= 8-char prefix)")
    p_status.add_argument("--url", default="http://127.0.0.1:8437",
                          help="server base URL "
                               "(default: http://127.0.0.1:8437)")
    p_status.add_argument("--wait", type=float, default=None,
                          metavar="SECONDS",
                          help="with a job id: wait for completion")
    p_status.add_argument("--jobs", action="store_true",
                          help="list all job records")
    p_status.add_argument("--cache", action="store_true",
                          help="print artifact-store stats")
    p_status.add_argument("--runs", action="store_true",
                          help="list completed bench runs")
    p_status.set_defaults(func=cmd_status)

    p_machines = sub.add_parser(
        "machines",
        help="list the registered machine models (issue template, "
             "queue discipline, scoreboard, digest)",
    )
    p_machines.add_argument("--json", action="store_true",
                            help="emit every full machine description "
                                 "as JSON")
    p_machines.set_defaults(func=cmd_machines)

    p_fig5 = sub.add_parser("fig5", help="print the Fig. 5 theory curves")
    p_fig5.add_argument("--max-k", type=int, default=8)
    p_fig5.set_defaults(func=cmd_fig5)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
