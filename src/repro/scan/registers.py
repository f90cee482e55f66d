"""Scan data registers binding a TAP to a METRO router.

Two registers matter:

* the **configuration chain** — the Table 2 options serialized as one
  long shift register (per-port enables, off-port drive, turn delays,
  fast reclaim, swallow, dilation);
* the **boundary register** — ``w`` bits per port sampling the last
  word value seen at that port (SAMPLE) and, for disabled backward
  ports with off-port drive, driving test patterns out (EXTEST).
"""

import math

from repro.core import words as W
from repro.scan.tap import DataRegister


def _turn_delay_bits(params):
    return max(1, math.ceil(math.log2(params.max_vtd + 1)))


def _dilation_bits(params):
    return max(1, int(math.log2(params.max_d)) + 1)


def config_chain_width(params):
    """Bits in the configuration chain for the given parameters."""
    nports = params.i + params.o
    return (
        nports * (3 + _turn_delay_bits(params))  # enable, drive, reclaim, delay
        + params.i  # swallow
        + _dilation_bits(params)
    )


def encode_config(config):
    """Serialize a RouterConfig to the chain's bit order (LSB first).

    Layout, per port id 0..i+o-1: enable, off-drive, fast-reclaim,
    then turn-delay (LSB first); then swallow per forward port; then
    log2(dilation) (LSB first).
    """
    params = config.params
    tbits = _turn_delay_bits(params)
    bits = []
    for port_id in range(params.i + params.o):
        bits.append(1 if config.port_enabled[port_id] else 0)
        bits.append(1 if config.off_port_drive[port_id] else 0)
        bits.append(1 if config.fast_reclaim[port_id] else 0)
        delay = config.turn_delay[port_id]
        bits.extend((delay >> index) & 1 for index in range(tbits))
    for port in range(params.i):
        bits.append(1 if config.swallow[port] else 0)
    log_d = int(math.log2(config.dilation))
    bits.extend((log_d >> index) & 1 for index in range(_dilation_bits(params)))
    return bits


def decode_config(config, bits):
    """Apply chain bits back onto a RouterConfig (inverse of encode)."""
    params = config.params
    tbits = _turn_delay_bits(params)
    expected = config_chain_width(params)
    if len(bits) != expected:
        raise ValueError(
            "chain is {} bits, expected {}".format(len(bits), expected)
        )
    cursor = 0
    for port_id in range(params.i + params.o):
        config.port_enabled[port_id] = bool(bits[cursor]); cursor += 1
        config.off_port_drive[port_id] = bool(bits[cursor]); cursor += 1
        config.fast_reclaim[port_id] = bool(bits[cursor]); cursor += 1
        delay = 0
        for index in range(tbits):
            delay |= (1 if bits[cursor] else 0) << index
            cursor += 1
        config.turn_delay[port_id] = min(delay, params.max_vtd)
    for port in range(params.i):
        config.swallow[port] = bool(bits[cursor]); cursor += 1
    log_d = 0
    for index in range(_dilation_bits(params)):
        log_d |= (1 if bits[cursor] else 0) << index
        cursor += 1
    dilation = 1 << log_d
    if dilation <= params.max_d:
        config.dilation = dilation


def make_config_register(router):
    """The CONFIG data register for one router's live configuration."""
    return DataRegister(
        config_chain_width(router.params),
        capture=lambda: encode_config(router.config),
        update=lambda bits: decode_config(router.config, bits),
    )


def boundary_width(params):
    return (params.i + params.o) * params.w


def make_boundary_register(router):
    """SAMPLE/EXTEST boundary register.

    Capture: the value bits of the last data word seen at each port
    (ports that last saw control words or silence capture zero).
    Update (EXTEST): for each *disabled* backward port with off-port
    drive enabled, the register's word for that port is driven out as
    a data word next cycle — the hook port-isolation tests use.
    """
    params = router.params

    def capture():
        bits = []
        for word in router.boundary_capture:
            value = word.value if (word is not None and word.kind == W.DATA) else 0
            bits.extend((value >> index) & 1 for index in range(params.w))
        return bits

    def update(bits):
        config = router.config
        for port in range(params.o):
            port_id = config.backward_port_id(port)
            if config.port_enabled[port_id] or not config.off_port_drive[port_id]:
                continue
            offset = port_id * params.w
            value = 0
            for index in range(params.w):
                value |= (1 if bits[offset + index] else 0) << index
            router.scan_drive_backward(port, W.data(value))

    return DataRegister(boundary_width(params), capture=capture, update=update)


def make_idcode(params):
    """A 32-bit IDCODE encoding the router geometry.

    version(4) | i(4) | o(4) | w(6) | max_d(3) | manufacturer(10) | 1
    """
    code = 1  # mandatory trailing 1
    code |= (0x2AB & 0x3FF) << 1       # "manufacturer"
    code |= (int(math.log2(params.max_d)) & 0x7) << 11
    code |= (params.w & 0x3F) << 14
    code |= (int(math.log2(params.o)) & 0xF) << 20
    code |= (int(math.log2(params.i)) & 0xF) << 24
    code |= 0x1 << 28                  # version
    return code
