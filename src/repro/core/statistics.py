"""Compiler statistics of Sec. 4.5.

Aggregates the pipeliner's per-loop counters across a suite run:

* allocated registers per class and their increase over the baseline —
  the paper measures +14% general, +20% FP and +35% predicate registers,
  while "the number of allocated registers remains less than one fifth of
  the number of available registers on an average";
* spills attributable to the loops (paper: +1.8% outside pipelined loops,
  spill fraction 1.1% of instructions);
* scheduling attempts (the compile-time proxy; paper: ~0.5% compile-time
  increase from the extra attempts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import BenchmarkResult
from repro.errors import HarnessError
from repro.ir.registers import RegClass


@dataclass
class RegisterStatistics:
    """Aggregate register/spill/attempt statistics for one suite run."""

    label: str
    #: summed allocated registers per class (rotating + static)
    allocated: dict[RegClass, int]
    #: average utilisation of the register files across pipelined loops
    utilization: dict[RegClass, float]
    spills: int
    attempts: int
    pipelined_loops: int
    boosted_loads: int
    total_loads: int
    latency_fallbacks: int

    def increase_percent(
        self, baseline: "RegisterStatistics", rclass: RegClass
    ) -> float:
        """Percent increase in allocated registers vs the baseline run."""
        base = baseline.allocated.get(rclass, 0)
        if base == 0:
            return 0.0
        return 100.0 * (self.allocated.get(rclass, 0) / base - 1.0)

    def spill_increase_percent(self, baseline: "RegisterStatistics") -> float:
        if baseline.spills == 0:
            return 0.0 if self.spills == 0 else 100.0
        return 100.0 * (self.spills / baseline.spills - 1.0)

    def attempts_increase_percent(self, baseline: "RegisterStatistics") -> float:
        if baseline.attempts == 0:
            return 0.0
        return 100.0 * (self.attempts / baseline.attempts - 1.0)


#: total architected registers per class on the machine
_FILE_SIZES = {RegClass.GR: 128, RegClass.FR: 128, RegClass.PR: 64}


def register_statistics(
    results: dict[str, BenchmarkResult], label: str
) -> RegisterStatistics:
    """Aggregate pipeliner statistics over a suite run.

    Needs the per-loop compile artifacts, which a result served from the
    artifact cache does not carry: such a result raises
    :class:`HarnessError` instead of counting as a suite of empty loops.
    """
    allocated = {rc: 0 for rc in _FILE_SIZES}
    util_sum = {rc: 0.0 for rc in _FILE_SIZES}
    spills = 0
    attempts = 0
    pipelined = 0
    boosted = 0
    total_loads = 0
    fallbacks = 0

    for bench in results.values():
        if bench.loop_cycles > 0 and not bench.loops:
            raise HarnessError(
                f"{bench.name} [{bench.config_label}] has no loop "
                f"artifacts (served from the artifact cache?): register "
                f"statistics need an in-process run"
            )
        for outcome in bench.loops:
            stats = outcome.compiled.stats
            attempts += stats.attempts
            total_loads += stats.total_loads
            if not stats.pipelined:
                continue
            pipelined += 1
            boosted += stats.boosted_loads
            spills += stats.spills
            fallbacks += int(stats.latency_fallback)
            for rc in _FILE_SIZES:
                count = stats.registers.get(rc, 0)
                allocated[rc] += count
                util_sum[rc] += count / _FILE_SIZES[rc]

    utilization = {
        rc: (util_sum[rc] / pipelined if pipelined else 0.0)
        for rc in _FILE_SIZES
    }
    return RegisterStatistics(
        label=label,
        allocated=allocated,
        utilization=utilization,
        spills=spills,
        attempts=attempts,
        pipelined_loops=pipelined,
        boosted_loads=boosted,
        total_loads=total_loads,
        latency_fallbacks=fallbacks,
    )


def format_register_table(
    baseline: RegisterStatistics, variant: RegisterStatistics
) -> str:
    """The Sec. 4.5 register statistics as a table."""
    lines = [
        f"{'class':<12}{'baseline':>10}{'variant':>10}{'increase':>10}"
        f"{'utilization':>13}"
    ]
    for rc in (RegClass.GR, RegClass.FR, RegClass.PR):
        lines.append(
            f"{rc.name:<12}{baseline.allocated[rc]:>10}"
            f"{variant.allocated[rc]:>10}"
            f"{variant.increase_percent(baseline, rc):>+9.1f}%"
            f"{100 * variant.utilization[rc]:>12.1f}%"
        )
    lines.append(
        f"{'spills':<12}{baseline.spills:>10}{variant.spills:>10}"
        f"{variant.spill_increase_percent(baseline):>+9.1f}%"
    )
    lines.append(
        f"{'attempts':<12}{baseline.attempts:>10}{variant.attempts:>10}"
        f"{variant.attempts_increase_percent(baseline):>+9.1f}%"
    )
    return "\n".join(lines)
