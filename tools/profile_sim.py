#!/usr/bin/env python
"""Profile the simulator hot path: where a loop run's time actually goes.

For every hot loop of a suite this compiles the loop once, outside the
profile, through :func:`repro.harness.jobs.loop_tasks`, then profiles
whole :func:`repro.harness.jobs.run_task` calls over the loop's full
invocation sequence under :mod:`cProfile`: stream synthesis, the cache
pre-warm and the per-cycle replay, as every sweep pays them::

    PYTHONPATH=src python tools/profile_sim.py
    PYTHONPATH=src python tools/profile_sim.py --sort cumtime --top 25
    PYTHONPATH=src python tools/profile_sim.py \
        --markdown docs/profile_baseline.md

With ``--markdown`` it writes a hotspot table; the committed baseline
lives at ``docs/profile_baseline.md`` and is the reference for deciding
what to optimise next.  The profiler's instrumentation overhead distorts
*absolute* times (C-call-heavy code looks relatively cheaper than it
is), so treat the table as a ranking; end-to-end wall times come from
``e2ebench/run.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
from pathlib import Path

from repro.config import baseline_config
from repro.harness.jobs import LoopTask, loop_tasks, run_task
from repro.machine.itanium2 import ItaniumMachine
from repro.workloads.spec import suite_by_name


def profile_runs(
    tasks: list[LoopTask], machine: ItaniumMachine, repeats: int = 3
) -> pstats.Stats:
    """One cProfile run covering every task's whole simulation."""
    profiler = cProfile.Profile()
    for _ in range(repeats):
        for task in tasks:
            profiler.runcall(run_task, task, machine)
    return pstats.Stats(profiler)


def _rows(stats: pstats.Stats, sort: str, top: int) -> list[dict]:
    """The top-N entries of a Stats object as plain dicts."""
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # populated by sort_stats
        cc, nc, tt, ct, _ = stats.stats[func]
        filename, line, name = func
        where = name if filename == "~" else f"{Path(filename).name}:{line}"
        rows.append({
            "function": name,
            "where": where,
            "ncalls": nc,
            "tottime": tt,
            "cumtime": ct,
        })
    return rows


def _text_report(stats: pstats.Stats, sort: str, top: int) -> str:
    out = io.StringIO()
    stats.stream = out
    stats.sort_stats(sort).print_stats(top)
    return out.getvalue()


def _markdown_table(rows: list[dict], total: float) -> str:
    lines = [
        "| function | where | calls | tottime (s) | % | cumtime (s) |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for r in rows:
        pct = 100.0 * r["tottime"] / total if total else 0.0
        lines.append(
            f"| `{r['function']}` | {r['where']} | {r['ncalls']:,} "
            f"| {r['tottime']:.3f} | {pct:.1f} | {r['cumtime']:.3f} |"
        )
    return "\n".join(lines)


def _total_time(stats: pstats.Stats) -> float:
    return sum(entry[2] for entry in stats.stats.values())


def write_markdown(
    path: Path, suite: str, seed: int, top: int, stats: pstats.Stats
) -> None:
    total = _total_time(stats)
    parts = [
        "# Simulator profile baseline",
        "",
        f"Generated by `tools/profile_sim.py --suite {suite} "
        f"--seed {seed} --markdown {path}`.",
        "",
        "Self-time hotspots of whole `simulate_loop` runs of every hot "
        "loop in the suite: stream synthesis, the cache pre-warm and the "
        "per-cycle interpreter (`repro.sim.core`); only compile is "
        "excluded.  "
        "cProfile inflates pure-Python frames relative to C calls, so "
        "read these as rankings, not absolute costs; end-to-end wall "
        "times come from `e2ebench/run.py`.",
        "",
        f"## simulate_loop ({total:.2f} s profiled)",
        "",
        _markdown_table(_rows(stats, "tottime", top), total),
        "",
        "## Reading the baseline",
        "",
        "- Most self-time sits in the per-cycle dispatch of "
        "`run_iterations` and in `MemorySystem.load`/`prefetch`.  "
        "`run_iterations` unpacks each op into a local tuple once per "
        "call and indexes the address streams as Python lists.",
        "- `load` and `prefetch` inline the TLB and L1D hit paths, so "
        "`TLB.access` and `Cache.lookup` run only on TLB misses, on "
        "stores and below the L1D.  Every access returns a plain "
        "`(latency, level, occupies_ozq)` tuple, and trace events are "
        "built only when a sink asks for them.",
        "- `Cache.lookup` computes the tag and set index inline from the "
        "line size and set count fixed at construction, so the walk pays "
        "no per-access geometry calls.",
        "- `chase` (the pointer-chase micro) is the structural worst "
        "case: every access misses and mutates LRU state, so its cost is "
        "bounded by OrderedDict operations, not by dispatch.",
        "- Outside the interpreter, stream synthesis is mostly `_chase`, "
        "which permutes every node slot of the chase heap however few "
        "iterations run, and the pre-warm is mostly `np.unique` over the "
        "reused streams plus the loads that install their lines.",
        "",
    ]
    path.write_text("\n".join(parts))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="micro")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--sort", default="tottime",
                        choices=["tottime", "cumtime", "ncalls"])
    parser.add_argument("--top", type=int, default=20,
                        help="rows to report (default: 20)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="profiled runs per loop (default: 3)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write a markdown hotspot table")
    args = parser.parse_args(argv)

    machine = ItaniumMachine()
    config = baseline_config()
    tasks = [
        task
        for bench in suite_by_name(args.suite)
        for task in loop_tasks(bench, config, machine, args.seed)
    ]
    print(f"prepared {len(tasks)} loop(s) from suite {args.suite!r}")

    stats = profile_runs(tasks, machine, args.repeats)
    print(_text_report(stats, args.sort, args.top))
    if args.markdown:
        path = Path(args.markdown)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_markdown(path, args.suite, args.seed, args.top, stats)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
