"""Declarative machine descriptions and the named machine registry.

A :class:`MachineDescription` is the single declarative source of truth
for everything the compiler, the simulator, and the static verifiers know
about a target core: the issue template and port map, the memory-hierarchy
geometry (cache levels, TLB, L2 banking), the memory-queue discipline
(Itanium's ordered OzQ vs. a speculative load-store queue), and the
scoreboard policy (classic stall-on-use vs. real-time load-delay
tracking).  Descriptions serialize byte-stably into plain dicts so they
participate in the existing content-address scheme (``hash_key``), and a
named registry lets every entry point — CLI, harness, service protocol —
resolve a machine by name.

Three machines are registered:

``itanium2``
    The Dual-Core Itanium 2 model of the paper, bit-identical to the
    pre-registry constants (enforced by fingerprint tests).

``ldt-core``
    An in-order core with real-time load-delay tracking (Diavastos &
    Carlson): the scoreboard knows the *remaining* latency of every
    in-flight load and fills up to ``tracking_window`` cycles of each
    use-stall with independent work, so consumers stall only by the
    exposed remainder.

``slsq-core``
    A core with a speculative load-store queue (Szafarczyk et al.):
    loads issue ahead of address disambiguation (hiding ``runahead``
    cycles of latency) and are checked against older stores in
    allocation order; a same-address store inside the speculation window
    is a misspeculation that replays the load at ``replay_penalty``
    pipeline cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.errors import MachineModelError
from repro.machine.hints import (
    HintTranslation,
    TYPICAL_TRANSLATION,
)


@dataclass(frozen=True)
class MemoryTimings:
    """Best-case load-to-use latencies of the memory hierarchy (Sec. 2).

    "On the Dual-Core Itanium 2 processor, the best-case delays until
    integer loads return data range from 1, 5, 14, and more than a hundred
    cycles depending on whether the data is found in the L1D, L2D, L3
    caches, and the main memory."
    """

    l1: int = 1
    l2: int = 5
    l3: int = 14
    memory: int = 180
    #: extra cycle for FP format conversion
    fp_extra: int = 1

    def latency_of_level(self, level: int, is_fp: bool = False) -> int:
        table = {1: self.l1, 2: self.l2, 3: self.l3, 4: self.memory}
        return table[level] + (self.fp_extra if is_fp else 0)


@dataclass(frozen=True)
class CacheLevel:
    """Geometry of one set-associative cache level."""

    name: str
    size: int
    line_size: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size % (self.line_size * self.associativity):
            raise MachineModelError(
                f"{self.name}: size not divisible into sets"
            )

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.associativity)


@dataclass(frozen=True)
class TlbGeometry:
    """Fully-associative LRU data-TLB parameters."""

    entries: int = 128
    page_size: int = 16384
    miss_penalty: int = 25


@dataclass(frozen=True)
class BankGeometry:
    """L2 banking: interleave width, bank count, and occupancy."""

    enabled: bool = True
    banks: int = 8
    width: int = 16
    occupancy: float = 2.0


#: Queue disciplines understood by the simulator.
QUEUE_KINDS = ("ozq", "slsq")

#: Scoreboard policies understood by the simulator.
SCOREBOARD_KINDS = ("stall-on-use", "load-delay-tracking")


@dataclass(frozen=True)
class QueueDiscipline:
    """How outstanding memory requests are queued past the L1.

    ``ozq`` is Itanium's ordered queue: ``capacity`` outstanding requests
    without stalling, strict completion order, prefetches dropped when
    full.  ``slsq`` is a speculative load-store queue: the same occupancy
    limit, but loads issue ``runahead`` cycles ahead of disambiguation
    and pay ``replay_penalty`` pipeline cycles whenever an older store
    to the same address, issued inside the speculation window, proves
    them wrong.
    """

    kind: str = "ozq"
    capacity: int = 48
    #: cycles of load latency hidden by speculative early issue (slsq)
    runahead: int = 0
    #: pipeline cycles charged per ordering-violation replay (slsq)
    replay_penalty: int = 0

    def __post_init__(self) -> None:
        if self.kind not in QUEUE_KINDS:
            raise MachineModelError(
                f"unknown queue discipline {self.kind!r}; "
                f"expected one of {QUEUE_KINDS}"
            )
        if self.capacity < 1:
            raise MachineModelError("queue capacity must be >= 1")


@dataclass(frozen=True)
class ScoreboardPolicy:
    """How the scoreboard reacts to a consumer of in-flight load data.

    ``stall-on-use`` is the paper's in-order pipeline: the whole machine
    stalls for the full remaining latency.  ``load-delay-tracking``
    models Diavastos & Carlson: the issue logic knows each load's
    remaining delay and covers up to ``tracking_window`` cycles of every
    use-stall with independent instructions, exposing only the excess.
    """

    kind: str = "stall-on-use"
    #: use-stall cycles the core hides per stall event (load-delay-tracking)
    tracking_window: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCOREBOARD_KINDS:
            raise MachineModelError(
                f"unknown scoreboard policy {self.kind!r}; "
                f"expected one of {SCOREBOARD_KINDS}"
            )
        if self.tracking_window < 0:
            raise MachineModelError("tracking window must be >= 0")


def _default_ports() -> tuple[tuple[str, int], ...]:
    return (("M", 2), ("I", 2), ("F", 2), ("B", 3))


@dataclass(frozen=True)
class MachineDescription:
    """The full declarative description of one target machine."""

    name: str
    #: total instructions issued per cycle
    issue_width: int = 6
    #: per-cycle port capacities by unit-class letter (M/I/F/B)
    ports: tuple[tuple[str, int], ...] = field(default_factory=_default_ports)
    #: per-class latency overrides by mnemonic; empty = ISA defaults
    latency_overrides: tuple[tuple[str, int], ...] = ()
    timings: MemoryTimings = field(default_factory=MemoryTimings)
    translation: HintTranslation = TYPICAL_TRANSLATION
    l1d: CacheLevel = CacheLevel("L1D", 16 * 1024, 64, 4)
    l2: CacheLevel = CacheLevel("L2D", 256 * 1024, 128, 8)
    l3: CacheLevel = CacheLevel("L3", 12 * 1024 * 1024, 128, 12)
    tlb: TlbGeometry = field(default_factory=TlbGeometry)
    banks: BankGeometry = field(default_factory=BankGeometry)
    queue: QueueDiscipline = field(default_factory=QueueDiscipline)
    scoreboard: ScoreboardPolicy = field(default_factory=ScoreboardPolicy)

    # --- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """A plain-builtin, byte-stable representation of the description."""
        return {
            "name": self.name,
            "issue_width": self.issue_width,
            "ports": [[unit, cap] for unit, cap in self.ports],
            "latency_overrides": [
                [mnemonic, latency]
                for mnemonic, latency in self.latency_overrides
            ],
            "timings": {
                "l1": self.timings.l1,
                "l2": self.timings.l2,
                "l3": self.timings.l3,
                "memory": self.timings.memory,
                "fp_extra": self.timings.fp_extra,
            },
            "translation": {
                "name": self.translation.name,
                "l1": self.translation.l1,
                "l2": self.translation.l2,
                "l3": self.translation.l3,
                "mem": self.translation.mem,
                "fp_extra": self.translation.fp_extra,
                "max_scheduled": self.translation.max_scheduled,
            },
            "hierarchy": {
                level: {
                    "name": cache.name,
                    "size": cache.size,
                    "line_size": cache.line_size,
                    "associativity": cache.associativity,
                }
                for level, cache in (
                    ("l1d", self.l1d), ("l2", self.l2), ("l3", self.l3)
                )
            },
            "tlb": {
                "entries": self.tlb.entries,
                "page_size": self.tlb.page_size,
                "miss_penalty": self.tlb.miss_penalty,
            },
            "banks": {
                "enabled": self.banks.enabled,
                "banks": self.banks.banks,
                "width": self.banks.width,
                "occupancy": self.banks.occupancy,
            },
            "queue": {
                "kind": self.queue.kind,
                "capacity": self.queue.capacity,
                "runahead": self.queue.runahead,
                "replay_penalty": self.queue.replay_penalty,
            },
            "scoreboard": {
                "kind": self.scoreboard.kind,
                "tracking_window": self.scoreboard.tracking_window,
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "MachineDescription":
        """Rebuild a description; unknown keys are rejected."""

        def _section(payload: dict, section: str, allowed: set[str]) -> dict:
            part = payload.get(section)
            if not isinstance(part, dict):
                raise MachineModelError(
                    f"machine description section {section!r} must be a dict"
                )
            unknown = set(part) - allowed
            if unknown:
                raise MachineModelError(
                    f"unknown keys in machine description section "
                    f"{section!r}: {', '.join(sorted(unknown))}"
                )
            return part

        allowed_top = {
            "name", "issue_width", "ports", "latency_overrides", "timings",
            "translation", "hierarchy", "tlb", "banks", "queue", "scoreboard",
        }
        unknown = set(data) - allowed_top
        if unknown:
            raise MachineModelError(
                "unknown keys in machine description: "
                + ", ".join(sorted(unknown))
            )
        hierarchy = _section(data, "hierarchy", {"l1d", "l2", "l3"})

        def _cache(level: str) -> CacheLevel:
            spec = hierarchy[level]
            return CacheLevel(
                name=spec["name"], size=spec["size"],
                line_size=spec["line_size"],
                associativity=spec["associativity"],
            )

        return MachineDescription(
            name=data["name"],
            issue_width=data["issue_width"],
            ports=tuple((unit, cap) for unit, cap in data["ports"]),
            latency_overrides=tuple(
                (mnemonic, latency)
                for mnemonic, latency in data.get("latency_overrides", [])
            ),
            timings=MemoryTimings(**_section(
                data, "timings", {"l1", "l2", "l3", "memory", "fp_extra"}
            )),
            translation=HintTranslation(**_section(
                data, "translation",
                {"name", "l1", "l2", "l3", "mem", "fp_extra", "max_scheduled"},
            )),
            l1d=_cache("l1d"), l2=_cache("l2"), l3=_cache("l3"),
            tlb=TlbGeometry(**_section(
                data, "tlb", {"entries", "page_size", "miss_penalty"}
            )),
            banks=BankGeometry(**_section(
                data, "banks", {"enabled", "banks", "width", "occupancy"}
            )),
            queue=QueueDiscipline(**_section(
                data, "queue", {"kind", "capacity", "runahead", "replay_penalty"}
            )),
            scoreboard=ScoreboardPolicy(**_section(
                data, "scoreboard", {"kind", "tracking_window"}
            )),
        )

    def digest(self) -> str:
        """Content address of the description (the existing ``hash_key``)."""
        from repro.harness.cache import hash_key

        return hash_key({"kind": "machine-description", **self.to_dict()})

    def with_(self, **changes) -> "MachineDescription":
        """A copy with the given fields replaced."""
        known = {f.name for f in fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise MachineModelError(
                "unknown machine description field(s): "
                + ", ".join(sorted(unknown))
            )
        return replace(self, **changes)

    @property
    def latency_override_map(self) -> dict[str, int]:
        return dict(self.latency_overrides)


# --- the registry ----------------------------------------------------------

_REGISTRY: dict[str, MachineDescription] = {}


def register_machine(description: MachineDescription) -> MachineDescription:
    """Register ``description`` under its name; returns it for chaining."""
    if not description.name:
        raise MachineModelError("machine descriptions must be named")
    _REGISTRY[description.name] = description
    return description


def machine_names() -> list[str]:
    """Names of all registered machines, sorted."""
    return sorted(_REGISTRY)


def machine_description(name: str) -> MachineDescription:
    """Look up a registered description; unknown names raise."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise MachineModelError(
            f"unknown machine {name!r}; registered machines: "
            + ", ".join(machine_names())
        ) from None


#: The paper's Dual-Core Itanium 2: every value matches the pre-registry
#: constants, so this machine is bit-identical to the historical model.
ITANIUM2 = register_machine(MachineDescription(name="itanium2"))

#: In-order core with real-time load-delay tracking (Diavastos & Carlson).
#: The 16-cycle window covers L2/L3-class exposure — the same territory
#: latency hints target — but not main-memory misses.
LDT_CORE = register_machine(MachineDescription(
    name="ldt-core",
    scoreboard=ScoreboardPolicy(kind="load-delay-tracking", tracking_window=16),
))

#: Speculative load-store queue core (Szafarczyk et al.): loads issue 24
#: cycles ahead of disambiguation out of a 64-entry LSQ and replay at 12
#: cycles per same-line ordering violation.
SLSQ_CORE = register_machine(MachineDescription(
    name="slsq-core",
    queue=QueueDiscipline(
        kind="slsq", capacity=64, runahead=24, replay_penalty=12
    ),
))
