"""IEEE 1149.1 TAP, MultiTAP, and scan-driven configuration."""

from repro.scan.chain import ScanChain, attach_scan
from repro.scan.controller import ScanController
from repro.scan.multitap import MultiTap
from repro.scan.registers import (
    boundary_width,
    config_chain_width,
    decode_config,
    encode_config,
    make_boundary_register,
    make_config_register,
    make_idcode,
)
from repro.scan.tap import (
    BYPASS,
    CONFIG,
    DataRegister,
    EXTEST,
    IDCODE,
    SAMPLE,
    TapController,
)

__all__ = [
    "BYPASS",
    "CONFIG",
    "DataRegister",
    "EXTEST",
    "IDCODE",
    "MultiTap",
    "SAMPLE",
    "ScanChain",
    "ScanController",
    "TapController",
    "attach_scan",
    "boundary_width",
    "config_chain_width",
    "decode_config",
    "encode_config",
    "make_boundary_register",
    "make_config_register",
    "make_idcode",
]
