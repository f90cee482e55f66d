"""Bulk shifting equals clocking every TCK edge.

``MultiTap.shift`` and ``ScanChain.shift`` move a whole run of Shift-DR
or Shift-IR edges as one list splice.  These tests hold them to the
per-edge semantics of ``MultiTap.step``: the same TDO bits, register
contents, instruction, TAP state and owner for random register widths,
chains of mixed instructions, dead TAP ports and ports that do not own
the shared controller.  The high-level scan operations are compared
against a per-edge reference of the same operations written here.
"""

import random

import pytest

from repro.core import words as W
from repro.core.parameters import METROJR, RouterConfig, RouterParameters
from repro.core.router import MetroRouter
from repro.scan import registers as R
from repro.scan import tap as T
from repro.scan.chain import ScanChain, attach_scan
from repro.scan.controller import ScanController
from repro.scan.multitap import MultiTap

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def edge_shift(step, bits, exit_last):
    """``len(bits)`` edges through ``step(tms, tdi)``; the reference."""
    last = len(bits) - 1
    return [
        step(1 if exit_last and index == last else 0, bit)
        for index, bit in enumerate(bits)
    ]


def tap_view(multitap):
    """Everything a shift can touch, plus what it must not."""
    shared = multitap.shared
    return (
        shared.state,
        shared.instruction,
        list(shared._ir_shift),
        shared.tdo,
        multitap.owner,
        sorted(multitap.dead_ports),
        {op: list(reg.bits) for op, reg in sorted(shared.registers.items())},
    )


# -- one MultiTAP ------------------------------------------------------------

def _multitap(widths, seed, updates):
    rng = random.Random(seed)
    registers = {}
    for opcode, width in zip((T.CONFIG, T.SAMPLE, T.EXTEST), widths):
        captured = [rng.randint(0, 1) for _ in range(width)]
        registers[opcode] = T.DataRegister(
            width,
            capture=lambda captured=captured: captured,
            update=lambda bits, opcode=opcode: updates.append((opcode, bits)),
        )
    return MultiTap(registers, idcode=rng.getrandbits(32) | 1, sp=3)


def _walk(opcode, dr):
    """TMS/TDI edges from anywhere to Shift-DR/IR with ``opcode`` loaded."""
    edges = [(1, 0)] * 5 + [(0, 0), (1, 0), (1, 0), (0, 0), (0, 0)]
    edges += [(0, (opcode >> i) & 1) for i in range(T.IR_WIDTH - 1)]
    edges += [(1, opcode >> (T.IR_WIDTH - 1)), (1, 0)]  # exit, update-IR
    if dr:
        edges += [(1, 0), (0, 0), (0, 0)]  # select, capture, -> Shift-DR
    else:
        edges += [(1, 0), (1, 0), (0, 0), (0, 0)]  # -> Shift-IR
    return edges


OPS = st.one_of(
    st.tuples(
        st.just("step"), st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)
    ),
    st.tuples(
        st.just("walk"),
        st.integers(0, 2),
        st.sampled_from([T.BYPASS, T.IDCODE, T.CONFIG, T.SAMPLE, T.EXTEST, 0b0110]),
        st.booleans(),
    ),
    st.tuples(
        st.just("shift"),
        st.integers(0, 2),
        st.lists(st.integers(0, 1), max_size=40),
        st.booleans(),
    ),
    st.tuples(st.just("kill"), st.integers(0, 2)),
)


@settings(max_examples=200, deadline=None)
@given(
    widths=st.lists(st.integers(1, 24), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
    ops=st.lists(OPS, max_size=14),
)
def test_multitap_shift_equals_per_edge_steps(widths, seed, ops):
    bulk_updates, edge_updates = [], []
    bulk = _multitap(widths, seed, bulk_updates)
    edge = _multitap(widths, seed, edge_updates)
    for op in ops:
        kind, port = op[0], op[1]
        if kind == "step":
            assert bulk.step(port, op[2], op[3]) == edge.step(port, op[2], op[3])
        elif kind == "walk":
            for tms, tdi in _walk(op[2], op[3]):
                assert bulk.step(port, tms, tdi) == edge.step(port, tms, tdi)
        elif kind == "shift":
            got = bulk.shift(port, op[2], op[3])
            want = edge_shift(
                lambda tms, tdi: edge.step(port, tms, tdi), op[2], op[3]
            )
            assert got == want
        else:
            bulk.kill_port(port)
            edge.kill_port(port)
        assert tap_view(bulk) == tap_view(edge)
        assert bulk_updates == edge_updates


def test_shift_reads_zero_on_dead_and_non_owner_ports():
    tap = _multitap([8, 8, 8], 3, [])
    for tms, tdi in _walk(T.CONFIG, dr=True):
        tap.step(0, tms, tdi)
    before = tap_view(tap)
    assert tap.shift(1, [1] * 8) == [0] * 8  # port 0 owns the controller
    tap.kill_port(2)
    assert tap.shift(2, [1] * 8) == [0] * 8
    assert tap_view(tap)[:5] == before[:5]


# -- daisy chains ------------------------------------------------------------

OPCODES = (T.BYPASS, T.IDCODE, T.CONFIG, T.SAMPLE)
GEOMETRIES = (METROJR, RouterParameters(i=8, o=8, w=8, max_d=2))


def _routers(geometry, dead, foreign):
    """Routers with some chain ports dead or owned through port 1."""
    routers = []
    for index, g in enumerate(geometry):
        router = MetroRouter(GEOMETRIES[g], name="r{}".format(index))
        attach_scan(router, sp=2)
        router.boundary_capture[0] = W.data(0x5 + index)
        if index in dead:
            router.multitap.kill_port(0)
        elif index in foreign:
            router.multitap.step(1, 0)  # port 1 claims the controller
        routers.append(router)
    return routers


CHAINS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.sampled_from(OPCODES), min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1)),
        st.sets(st.integers(0, n - 1)),
    )
)


@settings(max_examples=60, deadline=None)
@given(
    chain=CHAINS,
    bits=st.lists(st.integers(0, 1), max_size=200),
    exit_last=st.booleans(),
    ir=st.booleans(),
)
def test_chain_shift_equals_per_edge_steps(chain, bits, exit_last, ir):
    geometry, opcodes, dead, foreign = chain
    bulk = ScanChain(_routers(geometry, dead, foreign))
    edge = ScanChain(_routers(geometry, dead, foreign))
    for scan in (bulk, edge):
        scan.load_instructions(opcodes)
        scan.step(1)
        if ir:
            scan.step(1)
        scan.step(0)
        scan.step(0)  # -> Shift-IR / Shift-DR
    assert bulk.shift(bits, exit_last) == edge_shift(edge.step, bits, exit_last)
    for a, b in zip(bulk.routers, edge.routers):
        assert tap_view(a.multitap) == tap_view(b.multitap)
        assert R.encode_config(a.config) == R.encode_config(b.config)


# -- high-level operations against a per-edge reference ------------------------

class EdgeReference:
    """The scan operations clocked one TCK edge at a time."""

    def __init__(self, routers, port=0):
        self.routers = routers
        self.port = port

    def step(self, tms, tdi=0):
        bit = tdi
        for router in self.routers:
            bit = router.multitap.step(self.port, tms, bit)
        return bit

    def load(self, opcodes):
        for tms in (1, 1, 1, 1, 1, 0, 1, 1, 0, 0):
            self.step(tms)
        bits = []
        for opcode in reversed(opcodes):
            bits.extend((opcode >> i) & 1 for i in range(T.IR_WIDTH))
        edge_shift(self.step, bits, True)
        self.step(1)
        self.step(0)

    def scan_dr(self, bits):
        self.step(1)
        self.step(0)
        self.step(0)
        out = edge_shift(self.step, bits, True)
        self.step(1)
        self.step(0)
        return out

    def read_all_idcodes(self):
        self.load([T.IDCODE] * len(self.routers))
        bits = self.scan_dr([0] * 32 * len(self.routers))
        codes = [
            sum(bit << i for i, bit in enumerate(bits[s * 32:(s + 1) * 32]))
            for s in range(len(self.routers))
        ]
        return codes[::-1]

    def configure(self, target, mutate):
        router = self.routers[target]
        scratch = RouterConfig(router.params)
        R.decode_config(scratch, R.encode_config(router.config))
        mutate(scratch)
        opcodes = [T.BYPASS] * len(self.routers)
        opcodes[target] = T.CONFIG
        self.load(opcodes)
        image = []
        for index in reversed(range(len(self.routers))):
            if index == target:
                image.extend(R.encode_config(scratch))
            else:
                image.append(0)
        self.scan_dr(image)

    # One-router operations (the host-side controller).

    def read_config_bits(self):
        self.load([T.CONFIG])
        width = R.config_chain_width(self.routers[0].params)
        self.step(1)
        self.step(0)
        self.step(0)
        captured = [self.step(0, 0) for _ in range(width)]
        edge_shift(self.step, captured, True)
        self.step(1)
        self.step(0)
        return captured

    def disable_port(self, port_id, drive=False):
        scratch = RouterConfig(self.routers[0].params)
        R.decode_config(scratch, self.read_config_bits())
        scratch.port_enabled[port_id] = False
        scratch.off_port_drive[port_id] = drive
        self.load([T.CONFIG])
        self.scan_dr(R.encode_config(scratch))

    def sample_boundary(self):
        params = self.routers[0].params
        self.load([T.SAMPLE])
        bits = self.scan_dr([0] * R.boundary_width(params))
        return [
            sum(bits[p * params.w + i] << i for i in range(params.w))
            for p in range(params.i + params.o)
        ]

    def extest_drive(self, backward_port, value):
        router = self.routers[0]
        params = router.params
        bits = [0] * R.boundary_width(params)
        port_id = router.config.backward_port_id(backward_port)
        for i in range(params.w):
            bits[port_id * params.w + i] = (value >> i) & 1
        self.load([T.EXTEST])
        self.scan_dr(bits)


def _recorded(routers):
    """Log every EXTEST drive instead of staging it on a wire."""
    drives = []
    for router in routers:
        router.scan_drive_backward = (
            lambda port, word, name=router.name: drives.append(
                (name, port, word.value)
            )
        )
    return drives


def _same_routers(a_routers, b_routers):
    for a, b in zip(a_routers, b_routers):
        assert tap_view(a.multitap) == tap_view(b.multitap)
        assert R.encode_config(a.config) == R.encode_config(b.config)


@settings(max_examples=25, deadline=None)
@given(chain=CHAINS, target=st.integers(0, 3), port_id=st.integers(0, 7))
def test_chain_operations_match_per_edge_reference(chain, target, port_id):
    geometry, _opcodes, dead, foreign = chain
    target %= len(geometry)
    bulk_routers = _routers(geometry, dead, foreign)
    edge_routers = _routers(geometry, dead, foreign)
    bulk, edge = ScanChain(bulk_routers), EdgeReference(edge_routers)
    assert bulk.read_all_idcodes() == edge.read_all_idcodes()

    def mutate(config):
        config.port_enabled[port_id] = False
        config.fast_reclaim[port_id] = True

    bulk.configure(target, mutate)
    edge.configure(target, mutate)
    _same_routers(bulk_routers, edge_routers)


@settings(max_examples=25, deadline=None)
@given(
    g=st.integers(0, 1),
    state=st.sampled_from(["live", "dead", "foreign"]),
    bwd_port=st.integers(0, 3),
    value=st.integers(0, 255),
)
def test_controller_operations_match_per_edge_reference(g, state, bwd_port, value):
    dead = {0} if state == "dead" else set()
    foreign = {0} if state == "foreign" else set()
    bulk_routers = _routers([g], dead, foreign)
    edge_routers = _routers([g], dead, foreign)
    bulk_drives, edge_drives = _recorded(bulk_routers), _recorded(edge_routers)
    bulk, edge = ScanController(bulk_routers[0]), EdgeReference(edge_routers)
    port_id = bulk_routers[0].config.backward_port_id(bwd_port)
    value &= (1 << bulk_routers[0].params.w) - 1

    assert bulk.read_config_bits() == edge.read_config_bits()
    _same_routers(bulk_routers, edge_routers)
    bulk.disable_port(port_id, drive=True)
    edge.disable_port(port_id, drive=True)
    _same_routers(bulk_routers, edge_routers)
    bulk.extest_drive(bwd_port, value)
    edge.extest_drive(bwd_port, value)
    assert bulk_drives == edge_drives
    assert bulk.sample_boundary() == edge.sample_boundary()
    _same_routers(bulk_routers, edge_routers)
    if state == "live":
        assert bulk_drives[0] == ("r0", bwd_port, value)
