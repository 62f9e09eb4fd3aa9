"""Tests for the declarative machine-description registry.

The subsystem's contracts: serialization is byte-stable (the content
digest is trustworthy), the digest moves iff a field moves (no silent
aliasing between different machines), the registry rejects unknown
names with the list of known ones, and ``build_machine`` accepts both
names and descriptions.
"""

import dataclasses
import json

import pytest

from repro.errors import MachineModelError
from repro.machine import (
    BankGeometry,
    CacheLevel,
    ItaniumMachine,
    MachineDescription,
    QueueDiscipline,
    ScoreboardPolicy,
    TlbGeometry,
    build_machine,
    machine_description,
    machine_names,
)


# --- registry -----------------------------------------------------------------

def test_registry_has_the_three_backends():
    assert machine_names() == ["itanium2", "ldt-core", "slsq-core"]


def test_unknown_machine_raises_with_known_names():
    with pytest.raises(MachineModelError) as exc:
        machine_description("pentium4")
    message = str(exc.value)
    assert "pentium4" in message
    for name in machine_names():
        assert name in message


def test_build_machine_accepts_names_and_descriptions():
    by_name = build_machine("ldt-core")
    by_desc = build_machine(machine_description("ldt-core"))
    assert isinstance(by_name, ItaniumMachine)
    assert by_name.digest() == by_desc.digest()
    assert by_name.name == "ldt-core"
    assert by_name.scoreboard.kind == "load-delay-tracking"


def test_backends_differ_only_where_documented():
    itanium = machine_description("itanium2")
    ldt = machine_description("ldt-core")
    slsq = machine_description("slsq-core")
    assert ldt.with_(name="itanium2",
                     scoreboard=itanium.scoreboard) == itanium
    assert slsq.with_(name="itanium2", queue=itanium.queue) == itanium


# --- serialization ------------------------------------------------------------

def test_to_dict_round_trips_byte_stably():
    for name in machine_names():
        desc = machine_description(name)
        first = json.dumps(desc.to_dict(), sort_keys=True)
        second = json.dumps(desc.to_dict(), sort_keys=True)
        assert first == second
        assert MachineDescription.from_dict(desc.to_dict()) == desc


def test_from_dict_rejects_unknown_keys():
    data = machine_description("itanium2").to_dict()
    data["pipeline_depth"] = 8
    with pytest.raises(MachineModelError):
        MachineDescription.from_dict(data)


def test_digest_changes_iff_a_field_changes():
    base = machine_description("itanium2")
    assert base.digest() == machine_description("itanium2").digest()

    changed = [
        base.with_(name="custom"),
        base.with_(issue_width=4),
        base.with_(queue=QueueDiscipline(kind="slsq", capacity=48,
                                         runahead=8, replay_penalty=4)),
        base.with_(queue=QueueDiscipline(capacity=64)),
        base.with_(scoreboard=ScoreboardPolicy(kind="load-delay-tracking",
                                               tracking_window=8)),
        base.with_(timings=dataclasses.replace(base.timings, memory=300)),
        base.with_(latency_overrides=(("fma", 5),)),
    ]
    digests = {base.digest()} | {d.digest() for d in changed}
    assert len(digests) == len(changed) + 1  # all distinct


def test_registered_backends_have_distinct_digests():
    digests = {machine_description(n).digest() for n in machine_names()}
    assert len(digests) == len(machine_names())


# --- validation ---------------------------------------------------------------

def test_queue_discipline_validates_kind_and_capacity():
    with pytest.raises(MachineModelError):
        QueueDiscipline(kind="rob")
    with pytest.raises(MachineModelError):
        QueueDiscipline(capacity=0)


def test_scoreboard_policy_validates_kind_and_window():
    with pytest.raises(MachineModelError):
        ScoreboardPolicy(kind="wakeup-select")
    with pytest.raises(MachineModelError):
        ScoreboardPolicy(tracking_window=-1)


# --- machine facade -----------------------------------------------------------

def test_machine_exposes_description_fields():
    machine = build_machine("slsq-core")
    assert machine.queue.kind == "slsq"
    assert machine.queue.capacity == 64
    assert machine.ozq_capacity == 64  # queue capacity drives the OzQ bound
    assert machine.digest() == machine_description("slsq-core").digest()


def test_memory_system_matches_description_geometry():
    machine = build_machine("itanium2")
    memory = machine.memory_system()
    desc = machine.description
    assert memory.l1d.geometry == desc.l1d
    assert memory.l2.geometry == desc.l2
    assert memory.l3.geometry == desc.l3
    assert memory.tlb.geometry == desc.tlb
    assert memory.timings == desc.timings


def test_memory_system_takes_non_default_geometry_from_description():
    desc = machine_description("itanium2").with_(
        name="odd-geometry",
        l2=CacheLevel("L2D", 512 * 1024, 64, 16),
        tlb=TlbGeometry(entries=32, page_size=4096, miss_penalty=60),
        banks=BankGeometry(banks=4, width=64, occupancy=3.0),
    )
    memory = build_machine(desc).memory_system()
    assert memory.l2.geometry == desc.l2
    assert memory.tlb.geometry == desc.tlb
    # TLB: 4 KB pages, 60-cycle walks
    assert memory.tlb.access(0) == 60
    assert memory.tlb.access(4096) == 60
    assert memory.tlb.access(4095) == 0
    # L2 banks: 4 banks of 64 bytes, busy for 3 cycles per access
    base = 0x100000
    for addr in (base, base + 64, base + 4 * 64):
        memory.load(addr, now=0, is_fp=True)  # warm the L2 and the TLB
    first, _, _ = memory.load(base, now=1000, is_fp=True)
    other_bank, _, _ = memory.load(base + 64, now=1000, is_fp=True)
    same_bank, _, _ = memory.load(base + 4 * 64, now=1000, is_fp=True)
    assert other_bank == first
    assert same_bank == first + 3.0
    assert memory.bank_conflict_count == 1


def test_cache_level_rejects_geometry_that_does_not_divide_into_sets():
    data = machine_description("itanium2").to_dict()
    data["hierarchy"]["l2"]["size"] = 1000
    with pytest.raises(MachineModelError):
        MachineDescription.from_dict(data)
