"""Behavioral tests for the non-Itanium machine backends.

``ldt-core`` (load-delay tracking) must *hide* short stalls — strictly
fewer stall cycles than itanium2 on a stall-bound loop, with the hidden
cycles surfaced in their own counter.  ``slsq-core`` (speculative LSQ)
must replay loads that collide with an in-window store — counted,
charged to the flush bucket, and absent on conflict-free streams.  Both
must keep the cycle identity closed and leave itanium2's arithmetic
untouched.
"""

import pytest

from repro.config import baseline_config
from repro.core.compiler import LoopCompiler
from repro.ir import parse_loop
from repro.machine import build_machine
from repro.sim.address import StreamSpec
from repro.sim.executor import simulate_loop

DAXPY = """\
memref X affine fp stride=8 size=8 space=x
memref Y affine fp stride=8 size=8 space=y

loop daxpy trips=1000 source=pgo
  ldfd f4 = [r5], 8 !X
  ldfd f5 = [r6] !Y
  fma f6 = f4, f2, f5
  stfd [r6] = f6, 8 !Y
"""

#: load lags the store by exactly one stride, so iteration i+1's load
#: reads the address iteration i stored — an exact-address conflict
#: inside the sLSQ speculation window on every steady-state iteration
CARRY_FWD = """\
memref RD affine stride=4 space=s
memref WR affine stride=4 offset=4 space=s

loop carry_fwd trips=200 source=pgo
  ld4 r4 = [r5], 4 !RD
  add r7 = r4, r9
  st4 [r6] = r7, 4 !WR
"""

STREAM_LAYOUT = {
    "x": StreamSpec(size=64 << 20, reuse=False),
    "y": StreamSpec(size=64 << 20, reuse=False),
}


def run(source, machine_name, layout, trips=None):
    machine = build_machine(machine_name)
    loop = parse_loop(source)
    compiled = LoopCompiler(machine, baseline_config()).compile(loop)
    return simulate_loop(
        compiled.result, machine, layout,
        trips or [loop.trip_counts.ref.mean], seed=11,
    )


def assert_cycle_identity(result):
    c = result.counters
    total = (c.unstalled + c.be_exe_bubble + c.be_l1d_fpu_bubble
             + c.be_rse_bubble + c.be_flush_bubble + c.back_end_bubble_fe)
    assert total == pytest.approx(result.cycles, rel=1e-9)


# --- ldt-core -----------------------------------------------------------------

def test_ldt_core_hides_stall_cycles_on_streaming_loads():
    base = run(DAXPY, "itanium2", STREAM_LAYOUT, trips=[1000])
    ldt = run(DAXPY, "ldt-core", STREAM_LAYOUT, trips=[1000])
    assert base.counters.ldt_hidden_cycles == 0.0
    assert ldt.counters.ldt_hidden_cycles > 0.0
    assert ldt.cycles < base.cycles
    # hidden cycles leave the exposed-stall bucket, nothing else moves
    assert ldt.counters.be_exe_bubble < base.counters.be_exe_bubble
    assert_cycle_identity(base)
    assert_cycle_identity(ldt)


def test_ldt_core_hidden_cycles_bounded_by_window():
    ldt = run(DAXPY, "ldt-core", STREAM_LAYOUT, trips=[1000])
    window = build_machine("ldt-core").scoreboard.tracking_window
    # every stall event hides at most `window` cycles, and the loop has
    # at most two stalling uses per iteration
    assert ldt.counters.ldt_hidden_cycles <= window * 2 * 1000


# --- slsq-core ----------------------------------------------------------------

def test_slsq_core_replays_on_exact_address_conflicts():
    layout = {"s": StreamSpec(size=1 << 20, reuse=False)}
    base = run(CARRY_FWD, "itanium2", layout, trips=[200])
    slsq = run(CARRY_FWD, "slsq-core", layout, trips=[200])
    assert base.counters.slsq_replays == 0
    assert slsq.counters.slsq_replays > 0
    penalty = build_machine("slsq-core").queue.replay_penalty
    assert slsq.counters.slsq_replay_cycles == pytest.approx(
        slsq.counters.slsq_replays * penalty
    )
    # replays are flushes: the cycles land in be_flush_bubble
    assert slsq.counters.be_flush_bubble == pytest.approx(
        base.counters.be_flush_bubble + slsq.counters.slsq_replay_cycles
    )
    assert_cycle_identity(slsq)


def test_slsq_core_is_quiet_on_conflict_free_streams():
    slsq = run(DAXPY, "slsq-core", STREAM_LAYOUT, trips=[1000])
    assert slsq.counters.slsq_replays == 0
    assert slsq.counters.slsq_replay_cycles == 0.0
    assert_cycle_identity(slsq)


def test_slsq_runahead_hides_load_latency():
    base = run(DAXPY, "itanium2", STREAM_LAYOUT, trips=[1000])
    slsq = run(DAXPY, "slsq-core", STREAM_LAYOUT, trips=[1000])
    assert slsq.cycles < base.cycles


# --- itanium2 stays untouched -------------------------------------------------

def test_new_counters_stay_zero_on_itanium2():
    base = run(DAXPY, "itanium2", STREAM_LAYOUT, trips=[1000])
    assert base.counters.ldt_hidden_cycles == 0.0
    assert base.counters.slsq_replays == 0
    assert base.counters.slsq_replay_cycles == 0.0

