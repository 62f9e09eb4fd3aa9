"""The synthetic SPEC-archetype benchmark suites.

Every benchmark is one or two hot loops (built from the templates in
:mod:`repro.workloads.loops`) plus a *serial factor*: the ratio of
non-loop runtime to baseline loop runtime, which dilutes loop-level
speedups to benchmark-level percentages the way real SPEC programs do.
The archetype and parameter choices follow what the paper says about each
named benchmark (see DESIGN.md's per-experiment index); benchmarks the
paper reports as flat get cache-resident loops or large serial factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.ir.loop import Loop
from repro.sim.address import StreamSpec
from repro.workloads.datasets import DataSet
from repro.workloads import loops as T

KB = 1024
MB = 1024 * 1024

LoopFactory = Callable[[], tuple[Loop, dict[str, StreamSpec]]]


@dataclass(frozen=True)
class LoopWorkload:
    """One hot loop of a benchmark."""

    factory: LoopFactory
    data: DataSet
    #: reference-run invocations to simulate
    invocations: int = 1

    def build(self) -> tuple[Loop, dict[str, StreamSpec]]:
        return self.factory()


@dataclass(frozen=True)
class Benchmark:
    """A named benchmark: hot loops plus everything else ("serial")."""

    name: str
    suite: str
    loops: tuple[LoopWorkload, ...]
    #: non-loop cycles as a multiple of baseline loop cycles
    serial_factor: float = 1.0


def _bench(
    name: str,
    suite: str,
    loops: list[LoopWorkload],
    serial: float = 1.0,
) -> Benchmark:
    return Benchmark(
        name=name, suite=suite, loops=tuple(loops), serial_factor=serial
    )


def _lw(
    factory: LoopFactory,
    data: DataSet,
    invocations: int = 1,
) -> LoopWorkload:
    return LoopWorkload(factory=factory, data=data, invocations=invocations)


# --- archetype shorthands ----------------------------------------------------

def _fp_gather(name: str, data_set: int = 8 * MB, index_set: int = 2 * MB):
    """FP indirect gather: the namd/wrf/art archetype — prefetchable only
    at reduced distance (rule 2b), L3-class latencies."""
    return partial(
        T.gather, name, index_set=index_set, data_set=data_set, fp=True
    )


def _serial_only(name: str, suite: str) -> Benchmark:
    """A benchmark whose hot loops are cache-resident and tiny: the
    optimization never fires meaningfully (gcc/perlbench/crafty class)."""
    return _bench(
        name,
        suite,
        [
            _lw(
                partial(T.stream_int, f"{name}.hot", working_set=8 * KB,
                        reuse=True),
                DataSet.steady(6),
                invocations=150,
            )
        ],
        serial=6.0,
    )


# --- CPU2006 ------------------------------------------------------------------

def cpu2006_suite() -> list[Benchmark]:
    s = "CPU2006"
    return [
        _serial_only("400.perlbench", s),
        _bench("401.bzip2", s, [
            _lw(partial(T.stream_int, "401.sort", working_set=4 * MB,
                        reuse=True, streams=2),
                DataSet.steady(700), invocations=4),
        ], serial=3.0),
        _serial_only("403.gcc", s),
        _bench("410.bwaves", s, [
            _lw(partial(T.stencil_fp, "410.stencil", working_set=24 * MB),
                DataSet.steady(1200), invocations=3),
        ], serial=4.0),
        _bench("416.gamess", s, [
            _lw(partial(T.l2_resident_fp, "416.eri"),
                DataSet.steady(48), invocations=60),
        ], serial=4.0),
        _bench("429.mcf", s, [
            _lw(partial(T.pointer_chase, "429.refresh", heap=96 * MB),
                DataSet.variable(1, 4), invocations=1600),
            _lw(partial(T.pointer_chase, "429.arcwalk", heap=64 * MB),
                DataSet.steady(300), invocations=16),
        ], serial=3.0),
        _bench("433.milc", s, [
            _lw(partial(T.stream_fp, "433.su3", working_set=32 * MB),
                DataSet.steady(48), invocations=90),
        ], serial=3.0),
        _bench("434.zeusmp", s, [
            _lw(partial(T.stencil_fp, "434.hydro", working_set=24 * MB),
                DataSet.steady(1000), invocations=3),
        ], serial=4.5),
        _bench("435.gromacs", s, [
            _lw(partial(T.l2_resident_fp, "435.inl"),
                DataSet.steady(400), invocations=8),
        ], serial=4.0),
        _bench("436.cactusADM", s, [
            _lw(partial(T.stencil_fp, "436.bench", working_set=24 * MB),
                DataSet.steady(1200), invocations=3),
        ], serial=5.0),
        _bench("437.leslie3d", s, [
            _lw(partial(T.stencil_fp, "437.fluxk", working_set=24 * MB),
                DataSet.steady(1200), invocations=3),
        ], serial=3.5),
        _bench("444.namd", s, [
            _lw(_fp_gather("444.pairlist", data_set=10 * MB),
                DataSet.steady(400), invocations=12),
        ], serial=4.2),
        _bench("445.gobmk", s, [
            _lw(partial(T.cache_resident_gather, "445.owl"),
                DataSet.variable(1, 2), invocations=2400),
        ], serial=6.7),
        _serial_only("447.dealII", s),
        _bench("450.soplex", s, [
            _lw(partial(T.gather, "450.spmv", index_set=128 * KB, data_set=192 * KB, fp=True, reuse=True),
                DataSet.steady(250), invocations=8),
        ], serial=4.5),
        _serial_only("453.povray", s),
        _bench("454.calculix", s, [
            _lw(partial(T.stencil_fp, "454.e_c3d", working_set=12 * MB),
                DataSet.steady(800), invocations=4),
        ], serial=5.5),
        _bench("456.hmmer", s, [
            _lw(partial(T.stream_int, "456.viterbi", working_set=64 * KB,
                        reuse=True, streams=3),
                DataSet.steady(120), invocations=30),
        ], serial=2.0),
        _serial_only("458.sjeng", s),
        _bench("459.GemsFDTD", s, [
            _lw(partial(T.stencil_fp, "459.update", working_set=24 * MB),
                DataSet.steady(1200), invocations=3),
        ], serial=4.0),
        _bench("462.libquantum", s, [
            _lw(partial(T.stream_int, "462.gates", streams=6,
                        working_set=48 * MB),
                DataSet.steady(2500), invocations=2),
        ], serial=6.5),
        _bench("464.h264ref", s, [
            _lw(partial(T.low_trip_linear, "464.sad"),
                DataSet.steady(10), invocations=1600),
        ], serial=1.2),
        _bench("465.tonto", s, [
            _lw(partial(T.l2_resident_fp, "465.make_ft"),
                DataSet.steady(300), invocations=8),
        ], serial=4.5),
        _bench("470.lbm", s, [
            _lw(partial(T.stream_fp, "470.collide", working_set=48 * MB,
                        stride=160),
                DataSet.steady(1600), invocations=3),
        ], serial=3.5),
        _bench("471.omnetpp", s, [
            _lw(partial(T.pointer_chase, "471.msgq", heap=8 * MB,
                        field_loads=1),
                DataSet.variable(2, 8), invocations=500),
        ], serial=3.5),
        _bench("473.astar", s, [
            _lw(partial(T.gather, "473.way", index_set=256 * KB, data_set=768 * KB, reuse=True),
                DataSet.steady(200), invocations=10),
        ], serial=3.5),
        _bench("481.wrf", s, [
            _lw(_fp_gather("481.phys", data_set=10 * MB),
                DataSet.steady(350), invocations=10),
        ], serial=7.5),
        _bench("482.sphinx3", s, [
            _lw(partial(T.gather, "482.gmm", index_set=128 * KB, data_set=192 * KB, fp=True, reuse=True),
                DataSet.steady(256), invocations=10),
        ], serial=4.0),
        _serial_only("483.xalancbmk", s),
    ]


# --- micro -------------------------------------------------------------------

def micro_suite() -> list[Benchmark]:
    """A four-benchmark smoke suite spanning the main archetypes.

    Small working sets and few invocations keep a full harness sweep in
    the low seconds — the suite behind ``python -m repro bench --suite
    micro`` and the harness equality tests, not a paper figure.
    """
    s = "MICRO"
    return [
        _bench("micro.stream", s, [
            _lw(partial(T.stream_int, "micro.stream.hot", streams=2,
                        working_set=4 * MB),
                DataSet.steady(200), invocations=3),
        ], serial=2.0),
        _bench("micro.stencil", s, [
            _lw(partial(T.stencil_fp, "micro.stencil.hot",
                        working_set=4 * MB),
                DataSet.steady(200), invocations=2),
        ], serial=2.5),
        _bench("micro.chase", s, [
            _lw(partial(T.pointer_chase, "micro.chase.hot", heap=8 * MB),
                DataSet.variable(2, 6), invocations=80),
        ], serial=2.0),
        _bench("micro.lowtrip", s, [
            _lw(partial(T.low_trip_linear, "micro.lowtrip.hot"),
                DataSet.steady(10), invocations=120),
        ], serial=1.2),
    ]


# --- CPU2000 -----------------------------------------------------------------

def cpu2000_suite() -> list[Benchmark]:
    s = "CPU2000"
    return [
        _serial_only("164.gzip", s),
        _bench("168.wupwise", s, [
            _lw(partial(T.stream_fp, "168.zgemm", working_set=16 * MB),
                DataSet.steady(800), invocations=4),
        ], serial=3.5),
        _bench("171.swim", s, [
            _lw(partial(T.stencil_fp, "171.calc", working_set=24 * MB),
                DataSet.steady(1300), invocations=3),
        ], serial=4.0),
        _bench("172.mgrid", s, [
            _lw(partial(T.stencil_fp, "172.resid", working_set=24 * MB),
                DataSet.steady(1200), invocations=3),
        ], serial=4.2),
        _bench("173.applu", s, [
            _lw(partial(T.stencil_fp, "173.buts", working_set=16 * MB),
                DataSet.steady(900), invocations=3),
        ], serial=8.0),
        _serial_only("175.vpr", s),
        _serial_only("176.gcc", s),
        _bench("177.mesa", s, [
            # the train/ref trip-count mismatch of Sec. 4.2
            _lw(partial(T.low_trip_linear, "177.span"),
                DataSet.mismatch(154, 8), invocations=1600),
        ], serial=1.5),
        _bench("178.galgel", s, [
            _lw(partial(T.l2_resident_fp, "178.syshtn"),
                DataSet.steady(400), invocations=8),
        ], serial=4.0),
        _bench("179.art", s, [
            _lw(_fp_gather("179.match", data_set=8 * MB, index_set=1 * MB),
                DataSet.steady(500), invocations=10),
        ], serial=4.6),
        _bench("181.mcf", s, [
            _lw(partial(T.pointer_chase, "181.refresh", heap=48 * MB),
                DataSet.variable(1, 4), invocations=1200),
        ], serial=5.0),
        _bench("183.equake", s, [
            _lw(_fp_gather("183.smvp", data_set=10 * MB),
                DataSet.steady(300), invocations=8),
        ], serial=12.0),
        _serial_only("186.crafty", s),
        _bench("187.facerec", s, [
            _lw(partial(T.stream_fp, "187.graph", working_set=8 * MB),
                DataSet.steady(600), invocations=4),
        ], serial=3.5),
        _bench("188.ammp", s, [
            _lw(_fp_gather("188.mmfv", data_set=8 * MB),
                DataSet.steady(256), invocations=8),
        ], serial=12.0),
        _bench("189.lucas", s, [
            _lw(partial(T.stream_fp, "189.fft", working_set=16 * MB),
                DataSet.steady(900), invocations=3),
        ], serial=3.6),
        _bench("191.fma3d", s, [
            _lw(partial(T.l2_resident_fp, "191.force"),
                DataSet.steady(300), invocations=8),
        ], serial=4.2),
        _bench("197.parser", s, [
            _lw(partial(T.pointer_chase, "197.dict", heap=2 * MB,
                        field_loads=1),
                DataSet.variable(2, 10), invocations=400),
        ], serial=4.0),
        _bench("200.sixtrack", s, [
            _lw(_fp_gather("200.thin6d", data_set=10 * MB),
                DataSet.steady(400), invocations=10),
        ], serial=5.0),
        _serial_only("252.eon", s),
        _serial_only("253.perlbmk", s),
        _bench("254.gap", s, [
            _lw(partial(T.stream_int, "254.collect", working_set=12 * MB,
                        streams=2, reuse=True),
                DataSet.steady(700), invocations=4),
        ], serial=3.5),
        _serial_only("255.vortex", s),
        _bench("256.bzip2", s, [
            _lw(partial(T.stream_int, "256.sort", working_set=4 * MB,
                        streams=2, reuse=True),
                DataSet.steady(600), invocations=4),
        ], serial=3.2),
        _serial_only("300.twolf", s),
        _bench("301.apsi", s, [
            _lw(partial(T.stencil_fp, "301.dctdxf", working_set=12 * MB),
                DataSet.steady(700), invocations=4),
        ], serial=4.5),
    ]


_SUITES = {
    "cpu2006": cpu2006_suite,
    "cpu2000": cpu2000_suite,
    "micro": micro_suite,
}
#: every registered suite name: the CLI's ``--suite`` choices and the
#: service's ``suite`` field
SUITE_NAMES = tuple(_SUITES)


def suite_by_name(name: str) -> list[Benchmark]:
    """The suite registered under ``name`` (see :data:`SUITE_NAMES`)."""
    try:
        return _SUITES[name.lower()]()
    except KeyError:
        raise KeyError(f"unknown suite {name!r}") from None


def benchmark_by_name(name: str) -> Benchmark:
    for bench in cpu2006_suite() + cpu2000_suite() + micro_suite():
        if bench.name == name:
            return bench
    raise KeyError(f"unknown benchmark {name!r}")
