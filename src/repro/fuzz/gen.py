"""Seeded, size-bounded random loop-IR generator.

Every loop this module emits is

* *well-formed*: built through :class:`repro.ir.builder.LoopBuilder` and
  accepted by :func:`repro.ir.validate.validate_loop`;
* *corpus-expressible*: restricted to the subset of the IR the textual
  dialect can represent, so ``parse_loop(loop_to_source(loop))`` is an
  identity and every failing case can be persisted as a ``.loop`` file.

The knobs mirror the stress axes of the paper: recurrence depth
(accumulators and pointer chases bound the Recurrence II), memref
aliasing (few spaces force conservative memory edges and exact affine
distances), latency hints (the boosted-scheduling machinery under test),
and trip counts (the Fig. 7 threshold gate and the fill/drain overhead).

Generation is a pure function of ``(seed, GenConfig)`` — the same pair
always produces the same loop, which is what makes corpus replay and
distributed fuzzing (:mod:`repro.fuzz.runner`) deterministic.
"""

from __future__ import annotations

import dataclasses
import random

from repro.ir.builder import LoopBuilder
from repro.ir.loop import Loop, TripCountSource
from repro.ir.memref import AccessPattern, LatencyHint, MemRef
from repro.ir.registers import Reg


@dataclasses.dataclass(frozen=True)
class GenConfig:
    """Bounds and feature toggles for one generated loop."""

    #: upper bound on body size (loads + ALU ops + stores, pre-HLO)
    max_ops: int = 14
    max_loads: int = 4
    #: accumulator recurrences (``acc = acc op x``) to thread through
    max_recurrences: int = 2
    #: distinct memory spaces; fewer spaces mean more aliasing pressure
    max_spaces: int = 3
    max_stores: int = 2
    allow_chase: bool = True
    allow_predication: bool = False
    trips_choices: tuple[float, ...] = (3.0, 8.0, 50.0, 200.0, 1000.0)

    def to_dict(self) -> dict:
        """JSON-able form (cache-key and manifest material)."""
        d = dataclasses.asdict(self)
        d["trips_choices"] = list(self.trips_choices)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GenConfig":
        d = dict(d)
        d["trips_choices"] = tuple(d.get("trips_choices", cls.trips_choices))
        return cls(**d)


#: access-pattern weights: mostly affine (the analysable common case),
#: with a tail of the patterns that force conservative dependence edges
_PATTERNS = [
    (AccessPattern.AFFINE, 12),
    (AccessPattern.INVARIANT, 2),
    (AccessPattern.SYMBOLIC_STRIDE, 2),
]

_HINTS = [
    (LatencyHint.NONE, 5),
    (LatencyHint.L2, 3),
    (LatencyHint.L3, 3),
    (LatencyHint.MEM, 1),
]

_INT_BINOPS = ["add", "sub", "and", "or", "xor"]
_FP_BINOPS = ["fadd", "fsub", "fmpy"]


def _weighted(rng: random.Random, pairs):
    total = sum(w for _, w in pairs)
    pick = rng.randrange(total)
    for value, weight in pairs:
        pick -= weight
        if pick < 0:
            return value
    raise AssertionError("unreachable")


def generate_loop(seed: int, config: GenConfig | None = None) -> Loop:
    """The loop for ``(seed, config)`` — deterministic and validated."""
    config = config or GenConfig()
    rng = random.Random(seed)
    b = LoopBuilder()

    n_spaces = rng.randint(1, config.max_spaces)
    spaces = [f"s{i}" for i in range(n_spaces)]
    budget = config.max_ops

    int_vals: list[Reg] = []
    fp_vals: list[Reg] = []

    # --- loads ---------------------------------------------------------
    n_loads = rng.randint(1, min(config.max_loads, budget))
    for i in range(n_loads):
        is_chase = config.allow_chase and rng.random() < 0.10
        if is_chase:
            ref = b.memref(
                f"a{i}",
                pattern=AccessPattern.POINTER_CHASE,
                size=8,
                space=rng.choice(spaces),
            )
            node = b.live_greg(f"node{i}")
            b.load_into("ld8", node, node, ref)
            int_vals.append(node)
        else:
            fp = rng.random() < 0.4
            pattern = _weighted(rng, _PATTERNS)
            size = 8 if fp else rng.choice([4, 8])
            stride = size * rng.choice([1, 1, 2])
            ref = b.memref(
                f"a{i}",
                pattern=pattern,
                stride=stride if pattern is AccessPattern.AFFINE else None,
                size=size,
                is_fp=fp,
                space=rng.choice(spaces),
                offset=stride * rng.randint(0, 3),
            )
            ref.hint = _weighted(rng, _HINTS)
            if ref.hint is not LatencyHint.NONE:
                ref.hint_source = rng.choice(["hlo", "policy"])
            mnemonic = "ldfd" if fp else ("ld8" if size == 8 else "ld4")
            addr = b.live_greg(f"p{i}")
            post = stride if pattern is AccessPattern.AFFINE else None
            value = b.load(mnemonic, addr, ref, post_inc=post)
            (fp_vals if fp else int_vals).append(value)
        budget -= 1

    # --- optional predicate for if-converted ops -----------------------
    qp: Reg | None = None
    if config.allow_predication and int_vals and budget > 1 and rng.random() < 0.5:
        qp = b.cmp(int_vals[0], b.live_greg("bound"))
        budget -= 1

    # --- ALU / FP dataflow ---------------------------------------------
    n_alu = rng.randint(0, max(0, budget - 2))
    for _ in range(n_alu):
        use_fp = fp_vals and (not int_vals or rng.random() < 0.4)
        pred = qp if qp is not None and rng.random() < 0.4 else None
        if use_fp:
            if len(fp_vals) >= 3 and rng.random() < 0.4:
                a, c, d = rng.sample(fp_vals, 3)
                fp_vals.append(b.alu("fma", a, c, d, qual_pred=pred))
            else:
                op = rng.choice(_FP_BINOPS)
                a = rng.choice(fp_vals)
                c = rng.choice(fp_vals)
                fp_vals.append(b.alu(op, a, c, qual_pred=pred))
        elif int_vals:
            roll = rng.random()
            if roll < 0.25:
                op = rng.choice(["adds", "shl", "shr", "shladd"])
                src = rng.choice(int_vals)
                int_vals.append(
                    b.alu_imm(op, src, rng.randint(1, 8), qual_pred=pred)
                )
            elif roll < 0.35:
                src = rng.choice(int_vals)
                int_vals.append(
                    b.alu(rng.choice(["sxt4", "zxt4"]), src, qual_pred=pred)
                )
            else:
                op = rng.choice(_INT_BINOPS)
                a = rng.choice(int_vals)
                c = rng.choice(int_vals)
                int_vals.append(b.alu(op, a, c, qual_pred=pred))
        budget -= 1

    # --- accumulator recurrences (Recurrence II pressure) ---------------
    n_recs = rng.randint(0, config.max_recurrences)
    for r in range(n_recs):
        if budget <= 1:
            break
        use_fp = fp_vals and (not int_vals or rng.random() < 0.5)
        if use_fp:
            acc = b.live_freg(f"facc{r}")
            b.alu_into("fadd", acc, acc, rng.choice(fp_vals))
        elif int_vals:
            acc = b.live_greg(f"acc{r}")
            b.alu_into("add", acc, acc, rng.choice(int_vals))
        else:
            break
        b.mark_live_out(acc)
        budget -= 1

    # --- stores ---------------------------------------------------------
    n_stores = rng.randint(0, config.max_stores)
    for s in range(n_stores):
        if budget <= 0:
            break
        use_fp = bool(fp_vals) and rng.random() < 0.4
        pool = fp_vals if use_fp else int_vals
        if not pool:
            break
        size = 8 if use_fp else rng.choice([4, 8])
        stride = size * rng.choice([1, 2])
        ref = b.memref(
            f"o{s}",
            stride=stride,
            size=size,
            is_fp=use_fp,
            space=rng.choice(spaces),
            offset=stride * rng.randint(0, 3),
        )
        mnemonic = "stfd" if use_fp else ("st8" if size == 8 else "st4")
        b.store(mnemonic, b.live_greg(f"q{s}"), rng.choice(pool), ref,
                post_inc=stride)
        budget -= 1

    # --- aliasing metadata ----------------------------------------------
    if len(spaces) > 1 and rng.random() < 0.25:
        b.independent(rng.choice(spaces))

    trips = rng.choice(list(config.trips_choices))
    max_trips = int(trips * 2) if rng.random() < 0.3 else None
    return b.build(
        f"fz{seed}",
        trips=trips,
        trip_source=rng.choice(
            [TripCountSource.PGO, TripCountSource.PGO, TripCountSource.STATIC_BOUND]
        ),
        max_trips=max_trips,
        contiguous_across_outer=rng.random() < 0.2,
    )


# --- structural identity ---------------------------------------------------

def _reg_token(reg: Reg) -> str:
    return f"{reg.rclass.value}{reg.index}"


def _ref_fingerprint(ref: MemRef) -> dict:
    return {
        "name": ref.name,
        "pattern": ref.pattern.value,
        "size": ref.size,
        "stride": ref.stride,
        "offset": ref.offset,
        "is_fp": ref.is_fp,
        "space": ref.space,
        "index": ref.index_ref.name if ref.index_ref else None,
        "hint": ref.hint.name,
        "hint_source": ref.hint_source,
    }


def loop_fingerprint(loop: Loop) -> dict:
    """A canonical, JSON-able structural description of ``loop``.

    Two loops with equal fingerprints are the same program for every
    consumer in the pipeline; the printer→parser round-trip tests compare
    these (instruction and memref *identities* necessarily change when
    re-parsing, so object equality is the wrong notion).
    """
    return {
        "name": loop.name,
        "trips": loop.trip_count.estimate,
        "trip_source": loop.trip_count.source.value,
        "max_trips": loop.trip_count.max_trips,
        "contig": loop.trip_count.contiguous_across_outer,
        "counted": loop.counted,
        "independent": sorted(loop.independent_spaces),
        "live_in": sorted(_reg_token(r) for r in loop.live_in),
        "live_out": sorted(_reg_token(r) for r in loop.live_out),
        "memrefs": [_ref_fingerprint(ref) for ref in loop.memrefs],
        "body": [
            {
                "op": inst.mnemonic,
                "defs": [_reg_token(r) for r in inst.defs],
                "uses": [_reg_token(r) for r in inst.uses],
                "imm": inst.imm,
                "ref": inst.memref.name if inst.memref else None,
                "post_inc": inst.post_increment,
                "qp": _reg_token(inst.qual_pred) if inst.qual_pred else None,
            }
            for inst in loop.body
        ],
    }
