"""Ad-hoc validation: static bounds vs live simulation on all suites."""
import sys

from repro.analysis.perfmodel import build_perf_model
from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.harness.jobs import loop_tasks, run_task
from repro.machine import ItaniumMachine
from repro.workloads import cpu2000_suite, cpu2006_suite, micro_suite

machine = ItaniumMachine()
configs = [
    baseline_config(),
    CompilerConfig(hint_policy=HintPolicy.HLO, trip_count_threshold=32),
    CompilerConfig(hint_policy=HintPolicy.ALL_LOADS_L3, trip_count_threshold=0),
]
suites = micro_suite() + cpu2006_suite() + cpu2000_suite()

checked = violations = 0
slack_min = float("inf")
for bench in suites:
    for config in configs:
        for task in loop_tasks(bench, config, machine, 11):
            compiled, trips = task.compiled, task.trips
            sim = run_task(task, machine)
            model = build_perf_model(compiled.result, machine, task.layout)
            rep = model.check_counters(trips, sim.counters, sim.cycles)
            checked += 1
            lo, up = model.cycle_interval(trips)
            if up != float("inf"):
                slack = (up - sim.cycles) / max(sim.cycles, 1)
                slack_min = min(slack_min, slack)
            tag = "OK " if rep.ok and not len(rep) else "BAD"
            status = (
                f"{tag} {bench.name}/{compiled.loop.name} [{config.label}] "
                f"pl={compiled.result.pipelined} ii={model.ii} "
                f"cyc={sim.cycles:.0f} lo={lo:.0f} "
                f"up={'inf' if up == float('inf') else f'{up:.0f}'} "
                f"zero_stall={model.zero_stall_proof} "
                f"ozq0={model.ozq_zero_proof} bank={model.bank_provable}"
            )
            print(status)
            if len(rep):
                violations += 1
                print(rep.render_text())
print(f"\nchecked {checked} cells, {violations} with findings; "
      f"min upper-bound slack {slack_min:.3f}")
sys.exit(1 if violations else 0)
