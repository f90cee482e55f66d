"""Host-side scan controller.

Drives TMS/TDI sequences into a router's (Multi)TAP to read the
IDCODE, read/write the Table 2 configuration chain, disable and
re-enable ports, and run the port-isolation tests that underpin
on-line fault diagnosis (paper, Section 5.1, Scan Support).
"""

from repro.scan import registers as R
from repro.scan import tap as T
from repro.scan.chain import ScanChain, attach_scan  # noqa: F401  (re-exported)


class ScanController(ScanChain):
    """Talks to one router through one TAP port of its MultiTAP.

    A one-router :class:`~repro.scan.chain.ScanChain`: every operation
    is a whole-chain instruction load plus one DR scan.
    """

    def __init__(self, router, port=0):
        ScanChain.__init__(self, [router], port)
        self.router = router

    # -- high-level operations -------------------------------------------

    def read_idcode(self):
        return self.read_all_idcodes()[0]

    def read_config_bits(self):
        """Read the chain non-destructively.

        One DR scan of 2x the chain width: the first half shifts the
        captured configuration out, the second half shifts it straight
        back in, so the mandatory Update-DR on exit rewrites exactly
        what was there — the live configuration never glitches.
        """
        self.load_instructions([T.CONFIG])
        width = R.config_chain_width(self.router.params)
        self._enter_shift_dr()
        captured = self.shift([0] * width, exit_last=False)
        self.shift(captured)
        self._update_dr()  # rewrites the original
        return captured

    def write_config_bits(self, bits):
        self.load_instructions([T.CONFIG])
        return self.scan_dr(bits)

    def write_config(self, mutate):
        """Read-modify-write the configuration through the chain.

        ``mutate(config_copy)`` edits a scratch RouterConfig; the
        resulting serialization is shifted in and applied by Update-DR.
        Returns the previous chain bits.
        """
        from repro.core.parameters import RouterConfig

        scratch = RouterConfig(self.router.params)
        previous = self.read_config_bits()  # via the scan chain itself
        R.decode_config(scratch, previous)
        mutate(scratch)
        self.write_config_bits(R.encode_config(scratch))
        return previous

    def disable_port(self, port_id, drive=False):
        """Take one port out of service (optionally keep its driver)."""
        def mutate(config):
            config.port_enabled[port_id] = False
            config.off_port_drive[port_id] = drive
        self.write_config(mutate)

    def enable_port(self, port_id):
        def mutate(config):
            config.port_enabled[port_id] = True
            config.off_port_drive[port_id] = False
        self.write_config(mutate)

    def set_fast_reclaim(self, port_id, value):
        def mutate(config):
            config.fast_reclaim[port_id] = bool(value)
        self.write_config(mutate)

    def set_dilation(self, dilation):
        def mutate(config):
            config.dilation = dilation
        self.write_config(mutate)

    def sample_boundary(self):
        """SAMPLE: per-port last-seen data word values."""
        self.load_instructions([T.SAMPLE])
        width = R.boundary_width(self.router.params)
        bits = self.scan_dr([0] * width)
        w = self.router.params.w
        return [T.bits_int(bits[start:start + w]) for start in range(0, width, w)]

    def extest_drive(self, backward_port, value):
        """EXTEST: drive ``value`` out a disabled backward port.

        The port must already be disabled with off-port drive on (use
        :meth:`disable_port` with ``drive=True``).
        """
        params = self.router.params
        width = R.boundary_width(params)
        bits = [0] * width
        start = self.router.config.backward_port_id(backward_port) * params.w
        bits[start:start + params.w] = T.int_bits(value, params.w)
        self.load_instructions([T.EXTEST])
        self.scan_dr(bits)
