"""Parameterized nMOS dynamic RAM -- the paper's device under test.

The paper evaluates FMOSSIM on two dynamic RAM circuits, RAM64 (378
transistors, 229 nodes) and RAM256 (1148 transistors, 695 nodes), chosen
because "they could easily be scaled in size" and fully tested by
marching sequences.  This module generates the same family: an N-word by
1-bit dynamic RAM built from three-transistor cells, with row/column NOR
decoders, precharged read bit lines, refresh-on-access write-back (the
classic 3T-array discipline: every access reads the selected row and
rewrites it, substituting ``din`` in the addressed column on writes), a
dynamic input latch and a latched single data output.  The structure
inventory matches the paper's: "logic gates, bidirectional pass
transistors, dynamic latches, precharged busses, and three-transistor
dynamic memory elements", with a single data output (low observability)
and large-size bit lines (poor locality -- deliberately a hard case for a
switch-level simulator).

Access protocol (see ``repro.patterns.clocking``; one "pattern" = six
input settings, as in the paper):

1. ``phi_p=1``   precharge read bit lines and read bus high;
2. ``phi_p=0`` and address/``we``/``din`` set;
3. ``phi_r=1``   read word lines fire; the selected row discharges its
   read bit lines where a 1 is stored; the addressed column's value is
   latched at the output; ``din`` is latched onto the write data bus;
4. ``phi_r=0``   bit lines hold the read row by charge;
5. ``phi_w=1``   write word lines fire; every column writes back the
   value just read (refresh), except the addressed column during a
   write, which takes ``din``;
6. ``phi_w=0``   end of cycle.

Exact transistor/node counts differ slightly from the authors' (their
layouts are not published); ours land in the same range (``net.stats()``
reports them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cells import decode, memory, nmos
from ..errors import NetworkError
from ..netlist.builder import (
    NetworkBuilder,
    bus_assignment,
    declare_bus,
)
from ..switchlevel.network import Network


@dataclass(frozen=True)
class Ram:
    """A generated RAM: the network plus its port and structure map."""

    net: Network
    rows: int
    cols: int
    row_bits: int
    col_bits: int
    # port names (all inputs except dout)
    phi_p: str
    phi_r: str
    phi_w: str
    we: str
    din: str
    dout: str
    row_addr: list[str] = field(default_factory=list)  # MSB first
    col_addr: list[str] = field(default_factory=list)  # MSB first
    # structure map (node names)
    store: list[list[str]] = field(default_factory=list)  # [row][col]
    write_bitlines: list[str] = field(default_factory=list)
    read_bitlines: list[str] = field(default_factory=list)
    control_inputs: list[str] = field(default_factory=list)

    @property
    def words(self) -> int:
        """Total number of bits (= words, the RAM is 1 bit wide)."""
        return self.rows * self.cols

    @property
    def name(self) -> str:
        return f"RAM{self.words}"

    def address_assignment(self, row: int, col: int) -> dict[str, int]:
        """Input settings that select cell (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise NetworkError(
                f"cell ({row}, {col}) outside {self.rows}x{self.cols} array"
            )
        assignment = bus_assignment("ra", row, self.row_bits)
        assignment.update(bus_assignment("ca", col, self.col_bits))
        return assignment

    def cell_store(self, row: int, col: int) -> str:
        """Name of the storage node of cell (row, col)."""
        return self.store[row][col]

    def bitline_adjacent_pairs(self) -> list[tuple[str, str]]:
        """Physically adjacent bit-line pairs, for bridging faults.

        Layout order within the array is ``wbl0 rbl0 wbl1 rbl1 ...``; a
        pair is adjacent when consecutive in that order.
        """
        order: list[str] = []
        for j in range(self.cols):
            order.append(self.write_bitlines[j])
            order.append(self.read_bitlines[j])
        return list(zip(order, order[1:]))


def build_ram(rows: int, cols: int) -> Ram:
    """Generate a ``rows x cols`` 1-bit-wide dynamic RAM.

    Both dimensions must be powers of two (the decoders are full NOR
    decoders over binary addresses).
    """
    row_bits = _log2_exact(rows, "rows")
    col_bits = _log2_exact(cols, "cols")
    b = NetworkBuilder()

    # --- primary inputs ---------------------------------------------------
    phi_p = b.input("phi_p")
    phi_r = b.input("phi_r")
    phi_w = b.input("phi_w")
    we = b.input("we")
    din = b.input("din")
    row_addr = declare_bus(b, "ra", row_bits, as_input=True)
    col_addr = declare_bus(b, "ca", col_bits, as_input=True)

    # --- address decoding ----------------------------------------------------
    row_comp = decode.complement_drivers(b, row_addr, "ra")
    col_comp = decode.complement_drivers(b, col_addr, "ca")
    row_sel = decode.nor_decoder(b, row_addr, row_comp, "row")
    col_sel = decode.nor_decoder(b, col_addr, col_comp, "col")

    # --- word lines: per-row read and write enables -------------------------
    read_wordlines = decode.enabled_lines(b, row_sel, phi_r, "rwl")
    write_wordlines = decode.enabled_lines(b, row_sel, phi_w, "wwl")

    # --- shared busses ---------------------------------------------------
    read_bus = memory.precharged_bus(b, "rbus", phi_p)
    # Dynamic input latch: din is sampled onto the write data bus during
    # the read phase and held by charge through the write phase.
    write_bus = b.node("dbus", size=memory.BUS_SIZE)
    nmos.pass_transistor(b, phi_r, din, write_bus)

    # --- columns ------------------------------------------------------------
    write_bitlines: list[str] = []
    read_bitlines: list[str] = []
    for j in range(cols):
        wbl = b.node(f"wbl{j}", size=memory.BUS_SIZE)
        rbl = memory.precharged_bus(b, f"rbl{j}", phi_p)
        write_bitlines.append(wbl)
        read_bitlines.append(rbl)
        # Column read mux onto the shared read bus.
        nmos.pass_transistor(b, col_sel[j], rbl, read_bus)
        # Write path: din (via the latched write bus) when this column is
        # addressed during a write; refresh write-back otherwise.
        write_select = nmos.and_gate(b, [col_sel[j], we], f"wsel{j}")
        write_back = nmos.inverter(b, write_select, f"wbk{j}")
        refresh_value = nmos.inverter(b, rbl, f"ref{j}")
        nmos.pass_transistor(b, write_select, write_bus, wbl)
        nmos.pass_transistor(b, write_back, refresh_value, wbl)

    # --- cell array ------------------------------------------------------
    store: list[list[str]] = []
    for i in range(rows):
        row_nodes: list[str] = []
        for j in range(cols):
            cell = memory.dram_cell_3t(
                b,
                write_bitlines[j],
                read_bitlines[j],
                write_wordlines[i],
                read_wordlines[i],
                f"c{i}_{j}",
            )
            row_nodes.append(cell.store)
        store.append(row_nodes)

    # --- output path: sense inverter, dynamic output latch, buffer ----------
    sensed = nmos.inverter(b, read_bus, "sense")
    out_latch, latch_inv = memory.dynamic_latch(b, sensed, phi_r, "doutb")
    dout = nmos.inverter(b, latch_inv, "dout")
    del out_latch  # structure retained in the netlist; name unused here

    return Ram(
        net=b.build(),
        rows=rows,
        cols=cols,
        row_bits=row_bits,
        col_bits=col_bits,
        phi_p=phi_p,
        phi_r=phi_r,
        phi_w=phi_w,
        we=we,
        din=din,
        dout=dout,
        row_addr=row_addr,
        col_addr=col_addr,
        store=store,
        write_bitlines=write_bitlines,
        read_bitlines=read_bitlines,
        control_inputs=[phi_p, phi_r, phi_w, we, din],
    )


def ram16() -> Ram:
    """4x4 instance: the small, fast DUT used by tests and CI benchmarks."""
    return build_ram(4, 4)


def ram64() -> Ram:
    """8x8 instance: the paper's RAM64-scale device."""
    return build_ram(8, 8)


def ram256() -> Ram:
    """16x16 instance: the paper's RAM256-scale device."""
    return build_ram(16, 16)


def _log2_exact(value: int, what: str) -> int:
    if value < 2 or value & (value - 1):
        raise NetworkError(f"{what} must be a power of two >= 2, got {value}")
    return value.bit_length() - 1
