"""Mutation tests for the translation validator: every diagnostic code fires.

Each test takes a *valid* compiler artifact (or builds a valid loop),
corrupts exactly one property the analysis claims to check, and asserts
the matching ``SAnnn`` code is reported.  Together with the clean-path
tests at the top this shows the validator is neither vacuous (it catches
every seeded bug) nor noisy (untouched artifacts verify clean).

The schedule/kernel mutations exploit that the artifacts are plain
mutable containers: ``Schedule.times`` is a dict (normalised only at
construction), ``Kernel.ops`` a list of frozen ``KernelOp``s,
``RotatingAllocation.blades`` a dict, ``Criticality.boosted`` a set and
``PipelineStats.placements`` a list of frozen ``LoadPlacement``s.
"""

import dataclasses

import pytest

from repro.analysis import (
    lint_loop,
    verify_hints,
    verify_kernel,
    verify_optimality,
    verify_result,
    verify_schedule,
)
from repro.config import CompilerConfig, HintPolicy, baseline_config
from repro.core.compiler import LoopCompiler
from repro.ddg.edges import DepKind
from repro.ir import Instruction, Loop, MemRef, opcode, parse_loop
from repro.ir.registers import greg
from repro.machine import ItaniumMachine
from repro.pipeliner import optimal_pipeline_loop

COPY_ADD = """
memref A affine stride=4 space=a
memref B affine stride=4 space=b
loop copy_add trips=200 source=pgo
  ld4 r4 = [r5], 4 !A
  add r7 = r4, r9
  st4 [r6] = r7, 4 !B
"""

# three M-unit ops (two loads + store): enough to over-subscribe a row
DAXPY = """
memref X affine fp stride=8 size=8 space=x
memref Y affine fp stride=8 size=8 space=y
loop daxpy trips=1000 source=pgo
  ldfd f4 = [r5], 8 !X
  ldfd f5 = [r6] !Y
  fma f6 = f4, f2, f5
  stfd [r6] = f6, 8 !Y
"""


def compile_text(text, config, pipeliner=None):
    compiler = LoopCompiler(ItaniumMachine(), config)
    return compiler.compile(parse_loop(text), pipeliner=pipeliner).result


@pytest.fixture
def boosted():
    """copy_add under ALL_LOADS_L3, n=0: boosted load, full artifact set."""
    config = CompilerConfig(
        hint_policy=HintPolicy.ALL_LOADS_L3, trip_count_threshold=0
    )
    result = compile_text(COPY_ADD, config)
    assert result.pipelined and result.schedule is not None
    assert result.kernel is not None and result.rotating is not None
    assert result.stats.boosted_loads >= 1
    return result


@pytest.fixture
def baseline():
    result = compile_text(COPY_ADD, baseline_config())
    assert result.pipelined and result.schedule is not None
    return result


def boosted_load(schedule):
    return min(schedule.criticality.boosted, key=lambda i: i.index)


def data_consumer(schedule, load):
    """The dst of a flow edge carrying the load's data result."""
    data = set(load.defs)
    for edge in schedule.ddg.edges:
        if edge.src is load and edge.kind is DepKind.FLOW and edge.reg in data:
            return edge.dst
    raise AssertionError(f"no data consumer for {load}")


class TestCleanPath:
    """Untouched compiler output verifies without errors."""

    def test_boosted_compile_is_clean(self, boosted):
        report = verify_result(boosted)
        assert not report.errors, report.render_text()

    def test_baseline_compile_is_clean(self, baseline):
        report = verify_result(baseline)
        assert not report.errors, report.render_text()


class TestIRLintMutations:
    """SA1xx: seed one IR defect per code into a hand-built loop."""

    def test_sa101_empty_body(self):
        assert lint_loop(Loop("empty")).has("SA101")

    def test_sa102_branch_in_body(self):
        loop = Loop("branchy", body=[Instruction(opcode("br.cond"))])
        assert lint_loop(loop).has("SA102")

    def test_sa103_multiple_definitions(self):
        loop = Loop(
            "redef",
            body=[
                Instruction(opcode("add"), defs=(greg(7),), uses=(greg(4),)),
                Instruction(opcode("mov"), defs=(greg(7),), uses=(greg(5),)),
            ],
            live_in={greg(4), greg(5)},
            live_out={greg(7)},
        )
        assert lint_loop(loop).has("SA103")

    def test_sa104_use_never_defined(self):
        loop = Loop(
            "garbage",
            body=[Instruction(opcode("add"), defs=(greg(7),),
                              uses=(greg(4), greg(9)))],
            live_in={greg(4)},
            live_out={greg(7)},
        )
        report = lint_loop(loop)
        assert report.has("SA104")
        assert "never defined" in report.errors[0].message

    def test_sa105_store_missing_value_slot(self):
        loop = Loop(
            "badstore",
            body=[Instruction(opcode("st4"), uses=(greg(6),),
                              memref=MemRef("A"))],
            live_in={greg(6)},
        )
        assert lint_loop(loop).has("SA105")

    def test_sa106_memory_op_without_address(self):
        loop = Loop(
            "noaddr",
            body=[Instruction(opcode("ld4"), defs=(greg(4),),
                              memref=MemRef("A"))],
            live_out={greg(4)},
        )
        assert lint_loop(loop).has("SA106")

    def test_sa107_dead_definition(self):
        loop = Loop(
            "dead",
            body=[Instruction(opcode("add"), defs=(greg(7),), uses=(greg(4),))],
            live_in={greg(4)},
        )
        report = lint_loop(loop)
        assert report.has("SA107")
        assert report.ok  # a warning, not an error

    def test_sa108_live_out_never_defined(self):
        loop = Loop(
            "phantom",
            body=[Instruction(opcode("add"), defs=(greg(7),), uses=(greg(4),))],
            live_in={greg(4)},
            live_out={greg(7), greg(20)},
        )
        assert lint_loop(loop).has("SA108")

    def test_sa109_width_mismatch(self):
        loop = Loop(
            "narrow",
            body=[Instruction(opcode("ld8"), defs=(greg(4),), uses=(greg(5),),
                              memref=MemRef("A", size=4))],
            live_in={greg(5)},
            live_out={greg(4)},
        )
        report = lint_loop(loop)
        assert report.has("SA109")
        assert report.ok  # a warning, not an error


class TestScheduleMutations:
    """SA2xx: corrupt the time map, the stats, or a recorded placement."""

    def test_sa201_missing_schedule_time(self, boosted):
        schedule = boosted.schedule
        del schedule.times[schedule.loop.body[0]]
        assert verify_schedule(schedule).has("SA201")

    def test_sa201_ii_below_one(self, boosted):
        boosted.schedule.ii = 0
        assert verify_schedule(boosted.schedule).has("SA201")

    def test_sa202_dependence_violated(self, boosted):
        schedule = boosted.schedule
        load = boosted_load(schedule)
        consumer = data_consumer(schedule, load)
        # same-cycle placement violates the (boosted) flow latency
        schedule.times[consumer] = schedule.times[load]
        report = verify_schedule(schedule)
        assert report.has("SA202")
        assert any(d.detail.get("slack", 0) < 0 for d in report.errors)

    def test_sa203_row_oversubscribed(self):
        result = compile_text(DAXPY, baseline_config())
        schedule = result.schedule
        m_ops = [i for i, t in schedule.times.items()
                 if i.opcode.unit.name == "M"]
        assert len(m_ops) >= 3
        for k, inst in enumerate(m_ops[:3]):  # all three into row 0
            schedule.times[inst] = k * schedule.ii
        assert verify_schedule(schedule).has("SA203")

    def test_sa204_stage_count_mismatch(self, boosted):
        boosted.stats.stage_count += 1
        assert verify_schedule(boosted.schedule, boosted.stats).has("SA204")

    def test_sa204_boost_counter_mismatch(self, boosted):
        boosted.stats.boosted_loads += 1
        assert verify_schedule(boosted.schedule, boosted.stats).has("SA204")

    def test_sa205_placement_distance_mismatch(self, boosted):
        stats = boosted.stats
        placement = stats.placements[0]
        stats.placements[0] = dataclasses.replace(
            placement, use_distance=(placement.use_distance or 0) + 1
        )
        assert verify_schedule(boosted.schedule, stats).has("SA205")

    def test_sa205_placement_dropped(self, boosted):
        boosted.stats.placements.clear()
        assert verify_schedule(boosted.schedule, boosted.stats).has("SA205")


class TestKernelMutations:
    """SA3xx: corrupt the kernel ops or the rotating allocation."""

    def test_sa301_dropped_kernel_op(self, boosted):
        boosted.kernel.ops.pop()
        report = verify_kernel(boosted.kernel, boosted.schedule,
                               boosted.rotating)
        assert report.has("SA301")

    def test_sa301_ii_mismatch(self, boosted):
        boosted.kernel.ii += 1
        report = verify_kernel(boosted.kernel, boosted.schedule,
                               boosted.rotating)
        assert report.has("SA301")

    def test_sa302_wrong_stage_predicate(self, boosted):
        kernel = boosted.kernel
        kernel.ops[0] = dataclasses.replace(
            kernel.ops[0], stage_pred=kernel.ops[0].stage_pred + 1
        )
        report = verify_kernel(kernel, boosted.schedule, boosted.rotating)
        assert report.has("SA302")

    def test_sa303_off_by_one_rotation(self, boosted):
        kernel = boosted.kernel
        victim = next(
            (k, op) for k, op in enumerate(kernel.ops) if op.phys_uses
        )
        k, op = victim
        reg, num = op.phys_uses[0]
        kernel.ops[k] = dataclasses.replace(
            op, phys_uses=((reg, num + 1),) + op.phys_uses[1:]
        )
        report = verify_kernel(kernel, boosted.schedule, boosted.rotating)
        assert report.has("SA303")

    def test_sa304_blade_too_short(self, boosted):
        blades = boosted.rotating.blades
        reg = max(blades, key=lambda r: blades[r][1])  # longest lifetime
        base, span = blades[reg]
        blades[reg] = (base, span - 1)
        report = verify_kernel(boosted.kernel, boosted.schedule,
                               boosted.rotating)
        assert report.has("SA304")

    def test_sa304_missing_blade(self, boosted):
        blades = boosted.rotating.blades
        blades.pop(next(iter(blades)))
        report = verify_kernel(boosted.kernel, boosted.schedule,
                               boosted.rotating)
        assert report.has("SA304")


class TestHintMutations:
    """SA4xx: corrupt the boost set, the coverage, or the latency records."""

    def test_sa401_hint_not_covered(self, boosted):
        schedule = boosted.schedule
        load = boosted_load(schedule)
        consumer = data_consumer(schedule, load)
        schedule.times[consumer] = schedule.times[load] + 1
        report = verify_hints(schedule)
        assert report.has("SA401")

    def test_sa402_non_load_boosted(self, boosted):
        schedule = boosted.schedule
        non_load = next(i for i in schedule.loop.body if not i.is_load)
        schedule.criticality.boosted.add(non_load)
        assert verify_hints(schedule).has("SA402")

    def test_sa403_scheduled_latency_wrong(self, boosted):
        stats = boosted.stats
        placement = stats.placements[0]
        stats.placements[0] = dataclasses.replace(
            placement, scheduled_latency=placement.scheduled_latency + 1
        )
        assert verify_hints(boosted.schedule, stats).has("SA403")

    def test_sa404_unrequested_stretch_is_a_note(self, baseline):
        schedule = baseline.schedule
        load = schedule.loop.loads[0]
        consumer = data_consumer(schedule, load)
        # push the consumer two stages out, preserving its row
        schedule.times[consumer] += 2 * schedule.ii
        report = verify_hints(schedule)
        assert report.has("SA404")
        assert report.ok  # notes never fail verification


@pytest.fixture
def exact():
    """copy_add under the exact scheduler: proven optimal, full stats."""
    result = compile_text(
        COPY_ADD, CompilerConfig(), pipeliner=optimal_pipeline_loop
    )
    assert result.pipelined and result.stats.scheduler == "optimal"
    assert result.stats.optimal_status == "optimal"
    return result


class TestOptimalityMutations:
    """SA6xx: forge the exact scheduler's certificate, one field per code."""

    def test_exact_compile_is_clean(self, exact):
        report = verify_result(exact)
        assert not report.errors, report.render_text()

    def test_sa601_claimed_optimal_above_a_schedulable_ii(self, exact):
        # pretend the driver settled one II higher while still claiming
        # optimality: the independent re-solve at achieved-1 (the true
        # optimum) produces a witness schedule and refutes the claim
        exact.stats.ii += 1
        exact.stats.ii_lower_bound = exact.stats.ii  # keep SA602 silent
        report = verify_optimality(exact)
        assert report.has("SA601")
        assert not report.has("SA602")

    def test_sa602_bound_above_achieved_ii(self, exact):
        exact.stats.ii_lower_bound = exact.stats.ii + 1
        report = verify_optimality(exact)
        assert report.has("SA602")

    def test_sa602_optimal_claim_with_missing_bound(self, exact):
        exact.stats.ii_lower_bound = None
        assert verify_optimality(exact).has("SA602")

    def test_heuristic_results_are_exempt(self, baseline):
        assert len(verify_optimality(baseline)) == 0
