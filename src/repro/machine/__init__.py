"""Machine model: execution resources and the latency-query interface.

The pipeliner never hardcodes latencies; it queries the machine model and
passes a flag saying whether it wants the *minimum (base)* latency of a
load or the *expected* latency derived from the HLO hint token — exactly
the interface described in Sec. 3.3 of the paper.

Machines are declarative: :class:`MachineDescription` captures the issue
template, latency tables, hierarchy geometry, queue discipline, and
scoreboard policy; the named registry (``machine_names`` /
``machine_description`` / ``build_machine``) resolves ``itanium2``,
``ldt-core``, and ``slsq-core`` by name everywhere a machine can be
chosen (CLI ``--machine``, harness jobs, service requests).
"""

from repro.machine.resources import ResourceModel
from repro.machine.hints import HintTranslation, TYPICAL_TRANSLATION, BEST_CASE_TRANSLATION
from repro.machine.description import (
    BankGeometry,
    CacheLevel,
    MachineDescription,
    MemoryTimings,
    QueueDiscipline,
    ScoreboardPolicy,
    TlbGeometry,
    machine_description,
    machine_names,
    register_machine,
)
from repro.machine.itanium2 import ItaniumMachine, Machine, build_machine

__all__ = [
    "ResourceModel",
    "HintTranslation",
    "TYPICAL_TRANSLATION",
    "BEST_CASE_TRANSLATION",
    "ItaniumMachine",
    "Machine",
    "MemoryTimings",
    "MachineDescription",
    "CacheLevel",
    "TlbGeometry",
    "BankGeometry",
    "QueueDiscipline",
    "ScoreboardPolicy",
    "build_machine",
    "machine_description",
    "machine_names",
    "register_machine",
]
