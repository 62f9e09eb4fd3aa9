"""Tests for the modulo reservation table and II bounds."""

import pytest

from repro.ddg import build_ddg
from repro.ir import LoopBuilder
from repro.ir.instructions import Instruction
from repro.ir.memref import MemRef
from repro.ir.opcodes import opcode
from repro.ir.registers import greg, freg
from repro.machine import ItaniumMachine
from repro.pipeliner import ModuloReservationTable, compute_bounds

#: the default machine's ports
RESOURCES = ItaniumMachine().resources


def _ld(n):
    return Instruction(opcode("ld4"), defs=(greg(100 + n),),
                       uses=(greg(1),), memref=MemRef(f"m{n}"))


def _add(n):
    return Instruction(opcode("add"), defs=(greg(200 + n),), uses=(greg(1),))


def _fma(n):
    return Instruction(opcode("fma"), defs=(freg(n),), uses=(freg(1),))


class TestMRT:
    def test_basic_place_remove(self):
        mrt = ModuloReservationTable(2, RESOURCES)
        a = _ld(0)
        assert mrt.fits(a, 0)
        mrt.place(a, 0)
        assert a in mrt
        mrt.remove(a)
        assert a not in mrt

    def test_m_port_saturation(self):
        mrt = ModuloReservationTable(1, RESOURCES)
        mrt.place(_ld(0), 0)
        mrt.place(_ld(1), 0)
        # two M ports full; a third load cannot fit in the same row
        assert not mrt.fits(_ld(2), 0)
        assert not mrt.fits(_ld(2), 7)  # any time maps to row 0 at II=1

    def test_a_type_overflow_to_m(self):
        mrt = ModuloReservationTable(1, RESOURCES)
        # fill both I slots with A-type ops, then both M slots
        for n in range(4):
            assert mrt.fits(_add(n), 0)
            mrt.place(_add(n), 0)
        assert not mrt.fits(_add(4), 0)
        # and loads are blocked too because A ops spilled onto M
        assert not mrt.fits(_ld(0), 0)

    def test_issue_width_including_branch(self):
        mrt = ModuloReservationTable(1, RESOURCES)
        # the implicit branch reserves one of the six issue slots
        placed = 0
        ops = [_add(0), _add(1), _fma(0), _fma(1), _ld(0), _ld(1)]
        for op in ops:
            if mrt.fits(op, 0):
                mrt.place(op, 0)
                placed += 1
        assert placed == 5  # 6-wide minus the branch

    def test_rows_are_modular(self):
        mrt = ModuloReservationTable(3, RESOURCES)
        a = _ld(0)
        mrt.place(a, 7)  # row 1
        assert mrt.occupants_of_row(1) == [a]
        b = _ld(1)
        assert mrt.fits(b, 4)  # also row 1, second M port
        mrt.place(b, 4)
        assert not mrt.fits(_ld(2), 10)

    def test_double_place_rejected(self):
        mrt = ModuloReservationTable(2, RESOURCES)
        a = _ld(0)
        mrt.place(a, 0)
        with pytest.raises(ValueError):
            mrt.place(a, 1)

    def test_invalid_ii(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(0, RESOURCES)


class TestBounds:
    def test_running_example_bounds(self, running_example, machine):
        ddg = build_ddg(running_example)
        bounds = compute_bounds(ddg, machine)
        assert bounds.res_ii == 1
        assert bounds.rec_ii == 1
        assert bounds.min_ii == 1

    def test_recurrence_dominates(self, machine):
        b = LoopBuilder()
        acc = b.live_freg("acc")
        x = b.load("ldfd", b.live_greg("p"),
                   b.memref("a", size=8, is_fp=True), post_inc=8)
        b.alu_into("fadd", acc, acc, x)
        ddg = build_ddg(b.build("red"))
        bounds = compute_bounds(ddg, machine)
        assert bounds.rec_ii == 4
        assert bounds.min_ii == 4

    def test_bounds_use_base_latencies(self, machine):
        """Sec. 3.3: the initial Recurrence II always uses base latencies."""
        from repro.ir.memref import AccessPattern, LatencyHint

        b = LoopBuilder()
        node = b.live_greg("node")
        ref = b.memref("n", pattern=AccessPattern.POINTER_CHASE, size=8)
        ref.hint = LatencyHint.L3
        b.load_into("ld8", node, node, ref)
        ddg = build_ddg(b.build("chase"))
        bounds = compute_bounds(ddg, machine)
        assert bounds.rec_ii == 1  # not 21
