"""Micro-benchmarks of the core components (real timing rounds).

These are not paper figures; they track the toolkit's own performance:
modulo scheduling, DDG construction, cache accesses, and simulated
iterations per second.
"""

import numpy as np
import pytest

from benchmarks.conftest import base_cfg
from repro.config import baseline_config
from repro.core.compiler import LoopCompiler
from repro.ddg import build_ddg
from repro.pipeliner import classify_loads, compute_bounds, modulo_schedule
from repro.sim import simulate_loop
from repro.sim.cache import Cache
from repro.workloads.loops import stencil_fp, stream_int


@pytest.fixture(scope="module")
def big_loop():
    loop, layout = stream_int("micro", streams=6, working_set=1 << 20,
                              reuse=True)
    loop.trip_count.estimate = 1000.0
    return loop, layout


def test_micro_ddg_construction(benchmark, big_loop):
    loop, _ = big_loop
    ddg = benchmark(build_ddg, loop)
    assert ddg.edges


def test_micro_modulo_schedule(benchmark, machine, big_loop):
    loop, _ = big_loop
    ddg = build_ddg(loop)
    bounds = compute_bounds(ddg, machine)
    crit = classify_loads(ddg, machine, bounds)

    def run():
        return modulo_schedule(ddg, machine, bounds.min_ii, crit)

    sched = benchmark(run)
    assert sched is not None


def test_micro_full_compile(benchmark, machine):
    def run():
        loop, _ = stencil_fp("micro2", taps=5)
        loop.trip_count.estimate = 1000.0
        return LoopCompiler(machine, base_cfg()).compile(loop)

    compiled = benchmark(run)
    assert compiled.result.pipelined


def test_micro_cache_access(benchmark, machine):
    cache = Cache(machine.description.l2)
    addrs = np.random.default_rng(1).integers(0, 1 << 22, size=4096)

    def run():
        hits = 0
        for a in addrs:
            if cache.lookup(int(a), 0.0) is None:
                cache.fill(int(a), 0.0)
            else:
                hits += 1
        return hits

    benchmark(run)


def test_micro_simulated_iterations(benchmark, machine, big_loop):
    loop, layout = big_loop
    compiled = LoopCompiler(machine, base_cfg()).compile(loop)

    def run():
        return simulate_loop(compiled.result, machine, layout, [1000])

    result = benchmark(run)
    assert result.total_iterations == 1000

