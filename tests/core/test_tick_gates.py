"""The skip gates and inline steady states of the router and endpoint ticks.

``MetroRouter.tick`` and ``Endpoint.tick`` skip work that is provably
a no-op — BCB service with no pulse in flight, scan output with no
drive pending, idle receive ports with nothing arriving — and read
pipe heads inline instead of through ``ChannelEnd.recv``.  Each test
here puts the condition a gate must *not* skip in front of it and
checks the full behaviour still happens.
"""

import pickle

from repro.core import words as W
from repro.core.parameters import RouterParameters
from repro.core.router import DISCARD_STATE, FORWARD_STATE, IDLE_STATE
from repro.endpoint.interface import Endpoint, _RX_COLLECT, _RX_IDLE
from repro.endpoint.messages import MessageLog
from repro.sim.channel import Channel
from repro.sim.engine import Engine

from tests.core.test_router import RouterHarness


def _open(h, port=0, head=0):
    """Open a connection through forward ``port``; returns its backward port."""
    h.send(port, [W.data(head)])
    assert h.router.connection_state(port) == FORWARD_STATE
    return h.router.connected_backward_port(port)


def test_bcb_pulse_on_owned_backward_port_is_serviced():
    h = RouterHarness()
    q = _open(h)
    h.bwd[q].send_bcb(1)  # a router below blocked: fast reclamation
    h.step(2)
    assert h.bcb_log[0] == [2]  # propagated upstream, incremented
    assert any(w.kind == W.DROP for w in h.bwd_log[q])  # downstream closed
    assert q not in h.router.busy_backward_ports()
    assert h.router.connection_state(0) in (DISCARD_STATE, IDLE_STATE)


def test_bcb_pulse_on_unowned_backward_port_is_ignored():
    h = RouterHarness()
    q = _open(h)
    other = next(p for p in range(h.params.o) if p != q)
    h.bwd[other].send_bcb(1)
    h.step(2)
    assert h.bcb_log[0] == []
    assert h.router.connection_state(0) == FORWARD_STATE
    assert h.router.busy_backward_ports() == [q]


def test_pending_scan_drive_is_driven_once():
    h = RouterHarness()
    config = h.router.config
    port_id = config.backward_port_id(1)
    config.port_enabled[port_id] = False
    config.off_port_drive[port_id] = True
    h.router.scan_drive_backward(1, W.data(0x5A))
    h.step(3)
    assert h.bwd_log[1] == [W.data(0x5A)]
    assert h.router._scan_drive == [None] * h.params.o


def test_pending_scan_drive_survives_a_snapshot_round_trip():
    h = RouterHarness()
    config = h.router.config
    port_id = config.backward_port_id(2)
    config.port_enabled[port_id] = False
    config.off_port_drive[port_id] = True
    h.router.scan_drive_backward(2, W.data(0x3C))
    engine = pickle.loads(pickle.dumps(h.engine))
    router = engine.components[0]
    engine.step()
    assert router.backward_ends[2].channel.b.recv() == W.data(0x3C)
    assert router._scan_drive[2] is None


def test_fault_transform_on_forward_port_applies_to_present_words_only():
    h = RouterHarness()
    seen = []

    def flip(word):
        seen.append(word)
        if word.kind == W.DATA:
            return W.data(word.value ^ 0x01)
        return word

    h.fwd[0].channel.fault_a_to_b = flip
    payload = [0x10, 0x20, 0x30]
    h.send(0, [W.data(0)] + [W.data(v) for v in payload], settle=4)
    q = h.router.connected_backward_port(0)
    # The head 0x00 became 0x01 before routing: direction 0, shifted.
    assert h.downstream_data(q) == [0x02] + [v ^ 0x01 for v in payload]
    # One call per word present at the pins; silent cycles cost none.
    assert len(seen) == 1 + len(payload)


def test_fault_transform_killing_a_word_reads_as_silence():
    h = RouterHarness(signal_timeout=None)
    q = _open(h)
    h.fwd[0].channel.fault_a_to_b = lambda word: None
    h.send(0, [W.data(0x44)], settle=2)
    assert h.router.boundary_capture[0] is None
    assert 0x44 not in h.downstream_data(q)
    assert W.IDLE in [w.kind for w in h.bwd_log[q]]  # held open with idles


def test_dead_channel_at_forward_port_reads_silence_until_the_watchdog():
    h = RouterHarness(signal_timeout=4)
    q = _open(h)
    h.fwd[0].channel.dead = True
    h.send(0, [W.data(0x77)], settle=0)
    assert h.router.boundary_capture[0] is None
    h.step(6)
    assert 0x77 not in h.downstream_data(q)
    assert h.bwd_log[q][-1].kind == W.DROP  # watchdog teardown downstream
    assert h.router.connection_state(0) == IDLE_STATE
    assert h.router.busy_backward_ports() == []


def test_hw0_head_word_wider_than_the_datapath_is_masked():
    """A stale 8-bit word (a CRC tail of a torn-down stream) reaching an
    idle hw=0 router with a 4-bit datapath routes on its low 4 bits."""
    params = RouterParameters(i=4, o=4, w=4, max_d=2)
    h = RouterHarness(params=params, dilation=2)
    h.send(0, [W.data(0x89)], settle=2)  # masked: 0b1001 -> direction 1
    q = h.router.connected_backward_port(0)
    assert q in (2, 3)
    assert h.downstream_data(q) == [0b0010]  # shifted within 4 bits


def _receiving_endpoint():
    channel = Channel(delay=1, name="rx")
    endpoint = Endpoint(0, codec=None, log=MessageLog(), n_stages=1)
    endpoint.attach_receive(channel.b)
    engine = Engine()
    engine.add_component(endpoint)
    engine.add_channel(channel)
    return endpoint, channel, engine


def test_word_arriving_at_idle_endpoint_receive_port_is_collected():
    endpoint, channel, engine = _receiving_endpoint()
    engine.step()
    assert endpoint._recv_states[0].phase == _RX_IDLE
    channel.a.send(W.data(0x12))
    engine.step()  # the word lands on the wire
    engine.step()  # ... and the endpoint reads it
    state = endpoint._recv_states[0]
    assert state.phase == _RX_COLLECT
    assert state.buffer == [0x12]


def test_idle_endpoint_receive_port_skips_its_fault_on_silence():
    endpoint, channel, engine = _receiving_endpoint()
    calls = []

    def transform(word):
        calls.append(word)
        return word

    channel.fault_a_to_b = transform
    engine.run(5)
    assert calls == []
    channel.a.send(W.data(0x3))
    engine.run(2)
    assert calls == [W.data(0x3)]
    assert endpoint._recv_states[0].phase == _RX_COLLECT
