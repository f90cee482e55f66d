"""Channel pipeline semantics: wires are shift registers."""

import pytest

from repro.core import words as W
from repro.sim.channel import Channel


def test_delay_one_word_arrives_next_cycle():
    channel = Channel(delay=1)
    channel.a.send(W.data(5))
    assert channel.b.recv() is None  # not visible until the clock edge
    channel.advance()
    assert channel.b.recv() == W.data(5)
    channel.advance()
    assert channel.b.recv() is None


@pytest.mark.parametrize("delay", [1, 2, 3, 7])
def test_delay_n_takes_n_cycles(delay):
    channel = Channel(delay=delay)
    channel.a.send(W.data(9))
    for _ in range(delay - 1):
        channel.advance()
        assert channel.b.recv() is None
    channel.advance()
    assert channel.b.recv() == W.data(9)


def test_streams_stay_in_order():
    channel = Channel(delay=2)
    received = []
    for value in range(5):
        channel.a.send(W.data(value))
        channel.advance()
        word = channel.b.recv()
        if word is not None:
            received.append(word.value)
    for _ in range(2):
        channel.advance()
        word = channel.b.recv()
        if word is not None:
            received.append(word.value)
    assert received == [0, 1, 2, 3, 4]


def test_directions_are_independent():
    channel = Channel(delay=1)
    channel.a.send(W.data(1))
    channel.b.send(W.data(2))
    channel.advance()
    assert channel.b.recv() == W.data(1)
    assert channel.a.recv() == W.data(2)


def test_bcb_travels_opposite_to_data():
    channel = Channel(delay=3)
    channel.b.send_bcb(1)
    for _ in range(2):
        channel.advance()
        assert channel.a.recv_bcb() is None
    channel.advance()
    assert channel.a.recv_bcb() == 1
    channel.advance()
    assert channel.a.recv_bcb() is None


def test_bcb_does_not_leak_to_sender_side():
    channel = Channel(delay=1)
    channel.b.send_bcb(4)
    channel.advance()
    assert channel.b.recv_bcb() is None
    assert channel.a.recv_bcb() == 4


def test_dead_channel_delivers_nothing():
    channel = Channel(delay=1)
    channel.a.send(W.data(1))
    channel.b.send_bcb(1)
    channel.dead = True
    channel.advance()
    assert channel.b.recv() is None
    assert channel.a.recv_bcb() is None


def test_fault_transform_applies_on_delivery():
    channel = Channel(delay=1)
    channel.fault_a_to_b = lambda word: W.data(word.value ^ 0xF) if word.kind == W.DATA else word
    channel.a.send(W.data(0b1010))
    channel.advance()
    assert channel.b.recv() == W.data(0b0101)
    # The reverse direction is untouched.
    channel.b.send(W.data(0b1010))
    channel.advance()
    assert channel.a.recv() == W.data(0b1010)


def test_delay_zero_rejected():
    with pytest.raises(ValueError):
        Channel(delay=0)


def test_in_flight_counts_both_directions():
    channel = Channel(delay=2)
    channel.a.send(W.data(1))
    channel.b.send(W.data(2))
    channel.advance()
    assert channel.in_flight() == 2


class TestHalfDuplexMonitor:
    def test_data_collision_counted(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.b.send(W.data(2))
        channel.advance()
        assert channel.half_duplex_violations == 1

    def test_control_against_flow_exempt(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.b.send(W.DROP_WORD)  # abort signaling: allowed
        channel.advance()
        assert channel.half_duplex_violations == 0

    def test_bcb_sideband_exempt(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.b.send_bcb(1)
        channel.advance()
        assert channel.half_duplex_violations == 0

    def test_alternating_directions_clean(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.advance()
        channel.b.send(W.data(2))
        channel.advance()
        assert channel.half_duplex_violations == 0


@pytest.mark.parametrize("delay", [1, 3])
def test_advance_reports_words_in_flight(delay):
    """``advance`` returns whether anything is still inside the wire —
    data either way or a BCB pulse — so an engine can drop cold wires."""
    channel = Channel(delay=delay)
    assert channel.advance() is False
    channel.a.send(W.data(1))
    for _ in range(delay):
        assert channel.advance() is True
    assert channel.b.recv() == W.data(1)
    assert channel.advance() is False
    channel.b.send_bcb(2)
    for _ in range(delay):
        assert channel.advance() is True
    assert channel.a.recv_bcb() == 2
    assert channel.advance() is False
    assert channel.in_flight() == 0
