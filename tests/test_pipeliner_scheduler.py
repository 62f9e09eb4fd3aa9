"""Tests for iterative modulo scheduling, including property-based checks.

Every schedule returned by the scheduler is verified against all DDG
constraints (``Schedule.verify`` runs inside ``modulo_schedule``); the
tests here additionally check resource legality, II optimality on known
loops, and robustness on randomly generated loop bodies.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ddg import build_ddg
from repro.ir import LoopBuilder
from repro.ir.memref import AccessPattern, LatencyHint
from repro.ir.opcodes import UnitClass
from repro.machine import ItaniumMachine
from repro.pipeliner import classify_loads, compute_bounds, modulo_schedule
from repro.pipeliner.scheduler import list_schedule, list_schedule_length


def _schedule(loop, machine, ii=None, boost=False):
    ddg = build_ddg(loop)
    bounds = compute_bounds(ddg, machine)
    crit = classify_loads(ddg, machine, bounds)
    if not boost:
        crit = crit.demote_all()
    return modulo_schedule(ddg, machine, ii or bounds.min_ii, crit)


def _assert_resources_legal(schedule, machine):
    """No row may exceed the unit capacities or issue width."""
    caps = machine.resources.capacities
    per_row: dict[int, dict] = {}
    for inst in schedule.loop.body:
        row = schedule.row_of(inst)
        counts = per_row.setdefault(row, {"issue": 0, UnitClass.M: 0,
                                          UnitClass.I: 0, UnitClass.F: 0})
        counts["issue"] += 1
        unit = inst.opcode.unit
        if unit in (UnitClass.M, UnitClass.I, UnitClass.F):
            counts[unit] += 1
    for row, counts in per_row.items():
        budget = machine.resources.issue_width
        if row == schedule.ii - 1:
            budget -= 1  # the implicit branch
        assert counts["issue"] <= budget
        assert counts[UnitClass.M] <= caps[UnitClass.M] + 2  # A-type pool
        assert counts[UnitClass.F] <= caps[UnitClass.F]


class TestModuloScheduler:
    def test_running_example_ii1(self, running_example, machine):
        sched = _schedule(running_example, machine)
        assert sched is not None
        assert sched.ii == 1
        assert sched.stage_count == 3
        sched.verify()

    def test_boosted_example_grows_stages_not_ii(self, running_example, machine):
        running_example.body[0].memref.hint = LatencyHint.L3
        sched = _schedule(running_example, machine, boost=True)
        assert sched.ii == 1
        # d = 20 extra cycles at II=1 -> 20 more stages
        assert sched.stage_count == 23
        assert sched.load_use_distance(running_example.body[0]) == 21

    def test_infeasible_ii_returns_none(self, machine):
        b = LoopBuilder()
        acc = b.live_freg("acc")
        x = b.load("ldfd", b.live_greg("p"),
                   b.memref("a", size=8, is_fp=True), post_inc=8)
        b.alu_into("fadd", acc, acc, x)
        loop = b.build("red")
        assert _schedule(loop, machine, ii=2) is None  # RecII = 4
        assert _schedule(loop, machine, ii=4) is not None

    def test_resource_constrained_loop(self, machine):
        b = LoopBuilder()
        vals = []
        for i in range(6):
            ref = b.memref(f"a{i}", stride=4, space=f"s{i}")
            vals.append(b.load("ld4", b.live_greg(f"p{i}"), ref, post_inc=4))
        out = vals[0]
        for v in vals[1:]:
            out = b.alu("add", out, v)
        ref = b.memref("c", stride=4)
        b.store("st4", b.live_greg("pc"), out, ref, post_inc=4)
        loop = b.build("six")
        ddg = build_ddg(loop)
        bounds = compute_bounds(ddg, machine)
        assert bounds.res_ii == 4  # 7 memory ops on 2 M ports
        sched = _schedule(loop, machine)
        assert sched is not None and sched.ii == 4
        _assert_resources_legal(sched, machine)

    def test_dependences_across_iterations(self, machine):
        """omega-1 edges allow the consumer to sit 'before' the producer."""
        b = LoopBuilder()
        node = b.live_greg("node")
        fref = b.memref("f", pattern=AccessPattern.POINTER_CHASE, size=8)
        val = b.load("ld8", node, fref)
        b.alu_imm("adds", val, 1)
        cref = b.memref("n", pattern=AccessPattern.POINTER_CHASE, size=8,
                        space="n2")
        b.load_into("ld8", node, node, cref)
        sched = _schedule(b.build("mcf"), machine)
        assert sched is not None
        sched.verify()

    def test_all_ops_scheduled_exactly_once(self, running_example, machine):
        sched = _schedule(running_example, machine)
        assert set(sched.times) == set(running_example.body)


class TestListScheduler:
    def test_running_example_length(self, running_example, machine):
        # ld(1) ; add(1) ; st -> 3 cycles per iteration
        assert list_schedule_length(build_ddg(running_example), machine) == 3

    def test_respects_resources(self, machine):
        b = LoopBuilder()
        vals = []
        for i in range(4):
            ref = b.memref(f"a{i}", stride=4, space=f"s{i}")
            vals.append(b.load("ld4", b.live_greg(f"p{i}"), ref, post_inc=4))
        loop = b.build("l", validate=False)
        times = list_schedule(build_ddg(loop), machine)
        by_cycle: dict[int, int] = {}
        for inst, t in times.items():
            by_cycle[t] = by_cycle.get(t, 0) + 1
        assert all(n <= 2 for n in by_cycle.values())  # 2 M ports

    def test_carried_latency_extends_length(self, machine):
        b = LoopBuilder()
        acc = b.live_freg("acc")
        x = b.load("ldfd", b.live_greg("p"),
                   b.memref("a", size=8, is_fp=True), post_inc=8)
        b.alu_into("fadd", acc, acc, x)
        loop = b.build("red")
        # fadd result must be ready next iteration: >= 4 after the fadd
        assert list_schedule_length(build_ddg(loop), machine) >= 10


@st.composite
def random_loops(draw):
    """Random but well-formed single-block loops."""
    b = LoopBuilder()
    n_streams = draw(st.integers(1, 3))
    values = []
    for i in range(n_streams):
        fp = draw(st.booleans())
        ref = b.memref(
            f"a{i}", stride=8 if fp else 4, size=8 if fp else 4,
            is_fp=fp, space=f"s{i}",
        )
        if draw(st.booleans()):
            ref.hint = draw(st.sampled_from(
                [LatencyHint.NONE, LatencyHint.L2, LatencyHint.L3]))
        mnemonic = "ldfd" if fp else "ld4"
        values.append(
            b.load(mnemonic, b.live_greg(f"p{i}"), ref, post_inc=ref.stride)
        )
    n_alu = draw(st.integers(0, 6))
    int_vals = [v for v in values if v.rclass.name == "GR"]
    for _ in range(n_alu):
        pool = int_vals or [b.live_greg("z")]
        src = draw(st.sampled_from(pool))
        int_vals.append(b.alu_imm("adds", src, 1))
    if draw(st.booleans()) and int_vals:
        out = b.memref("c", stride=4, space="out")
        b.store("st4", b.live_greg("pc"), int_vals[-1], out, post_inc=4)
    return b.build("rand")


class TestSchedulerProperties:
    @settings(max_examples=50, deadline=None)
    @given(random_loops())
    def test_min_ii_schedules_verify(self, loop):
        machine = ItaniumMachine()
        ddg = build_ddg(loop)
        bounds = compute_bounds(ddg, machine)
        crit = classify_loads(ddg, machine, bounds)
        for ii in range(bounds.min_ii, bounds.min_ii + 3):
            sched = modulo_schedule(ddg, machine, ii, crit)
            if sched is not None:
                sched.verify()  # raises on any violated dependence
                _assert_resources_legal(sched, machine)
                break
        else:
            pytest.fail("no schedule found within MinII+2")

    @settings(max_examples=30, deadline=None)
    @given(random_loops())
    def test_boosting_never_shrinks_load_use_distance(self, loop):
        machine = ItaniumMachine()
        ddg = build_ddg(loop)
        bounds = compute_bounds(ddg, machine)
        crit = classify_loads(ddg, machine, bounds)
        base = modulo_schedule(ddg, machine, bounds.min_ii, crit.demote_all())
        boosted = modulo_schedule(ddg, machine, bounds.min_ii, crit)
        if base is None or boosted is None:
            return
        for load in loop.loads:
            if load in crit.boosted:
                d_base = base.load_use_distance(load)
                d_boost = boosted.load_use_distance(load)
                if d_base is not None and d_boost is not None:
                    assert d_boost >= machine.expected_load_latency(load)


@pytest.mark.parametrize("stem, policy", [("fz-109", "hlo"),
                                          ("fz-4", "all-loads-l3")])
def test_normalised_schedule_leaves_the_last_row_room_for_the_branch(
    stem, policy
):
    """Normalising a schedule whose earliest op sits past row 0 rotates
    every row; the row that lands last must still issue ``br.ctop``.
    These corpus loops once came out with 7 > 6 issue slots there."""
    from pathlib import Path

    from repro.analysis import verify_compiled
    from repro.config import CompilerConfig, HintPolicy
    from repro.core.compiler import LoopCompiler
    from repro.ir import parse_loop

    path = Path(__file__).parent / "corpus" / f"{stem}.loop"
    loop = parse_loop(path.read_text(encoding="utf-8"))
    machine = ItaniumMachine()
    config = CompilerConfig(hint_policy=HintPolicy(policy))
    compiled = LoopCompiler(machine, config).compile(loop)
    assert compiled.result.pipelined
    report = verify_compiled(compiled)
    assert not report.errors, [d.format() for d in report.errors]
