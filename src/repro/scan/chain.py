"""Board-level scan chains: many routers on one serial path.

A machine built from METRO routers daisy-chains their TAPs: one
TCK/TMS pair fans out to every component and TDO of each feeds TDI of
the next.  The host then addresses one router by loading BYPASS into
all the others — their data registers collapse to a single bit — and
shifts the target's register through the whole chain.  (The MultiTAP
feature gives each component ``sp`` such chains for redundancy; a
:class:`ScanChain` represents one of them.)
"""

from repro.scan import registers as R
from repro.scan import tap as T
from repro.scan.multitap import MultiTap


def attach_scan(router, sp=None):
    """Create the MultiTAP + registers for one router; returns MultiTap.

    The result is also stored on the router as ``router.multitap`` so a
    controller can find it later.
    """
    regs = {
        T.CONFIG: R.make_config_register(router),
        T.SAMPLE: R.make_boundary_register(router),
        T.EXTEST: R.make_boundary_register(router),
    }
    multitap = MultiTap(
        regs,
        idcode=R.make_idcode(router.params),
        sp=sp if sp is not None else router.params.sp,
    )
    router.multitap = multitap
    return multitap


class ScanChain:
    """TAPs daisy-chained TDO -> TDI with common TMS.

    :param routers: the routers on this chain, in chain order (TDI of
        ``routers[0]`` is the host's TDI; TDO of the last is what the
        host reads).
    :param port: which MultiTAP port of each router this chain uses.
    """

    def __init__(self, routers, port=0):
        if not routers:
            raise ValueError("a scan chain needs at least one router")
        self.routers = list(routers)
        self.port = port
        for router in self.routers:
            if not hasattr(router, "multitap"):
                attach_scan(router)

    def __len__(self):
        return len(self.routers)

    # -- chain-level clocking -------------------------------------------

    def step(self, tms, tdi=0):
        """One TCK edge on every TAP; returns the chain's TDO."""
        bit = tdi
        for router in self.routers:
            bit = router.multitap.step(self.port, tms, bit)
        return bit

    def shift(self, bits, exit_last=True):
        """``len(bits)`` shift edges on every TAP; returns the chain's TDO.

        The chain is one long shift register and a shift edge touches
        nothing but register contents, so shifting the whole run through
        each router in turn equals clocking it edge by edge.
        """
        for router in self.routers:
            bits = router.multitap.shift(self.port, bits, exit_last)
        return bits

    def reset(self):
        for _ in range(5):
            self.step(1)

    def _goto_idle(self):
        self.reset()
        self.step(0)

    # -- instruction loading --------------------------------------------

    def load_instructions(self, opcodes):
        """Shift one instruction per router (chain order).

        During Shift-IR the chain is ``4 * n`` bits long; the bits for
        the *last* router in the chain are shifted in first.
        """
        if len(opcodes) != len(self.routers):
            raise ValueError(
                "{} opcodes for {} routers".format(len(opcodes), len(self.routers))
            )
        self._goto_idle()
        self.step(1)
        self.step(1)
        self.step(0)  # -> Capture-IR everywhere
        self.step(0)  # capture edge -> Shift-IR
        bits = []
        for opcode in reversed(opcodes):
            bits.extend((opcode >> index) & 1 for index in range(T.IR_WIDTH))
        self.shift(bits)  # exits on the final shift
        self.step(1)  # -> Update-IR
        self.step(0)  # -> Run-Test/Idle

    # -- data scanning ---------------------------------------------------

    def _dr_lengths(self, opcodes):
        """Width of the data register each opcode selects, per router."""
        lengths = []
        for router, opcode in zip(self.routers, opcodes):
            registers = router.multitap.shared.registers
            lengths.append(registers.get(opcode, registers[T.BYPASS]).width)
        return lengths

    def _enter_shift_dr(self):
        self.step(1)
        self.step(0)  # -> Capture-DR
        self.step(0)  # capture edge -> Shift-DR

    def _update_dr(self):
        self.step(1)  # Exit1-DR -> Update-DR
        self.step(0)  # -> Run-Test/Idle

    def scan_dr(self, bits_in):
        """One DR scan through the whole chain; returns captured bits."""
        self._enter_shift_dr()
        out = self.shift(list(bits_in))
        self._update_dr()
        return out

    # -- high-level operations --------------------------------------------

    def read_all_idcodes(self):
        """IDCODE of every router, in chain order."""
        self.load_instructions([T.IDCODE] * len(self.routers))
        total = 32 * len(self.routers)
        bits = self.scan_dr([0] * total)
        # The first 32 bits out came from the LAST router in the chain.
        codes = [T.bits_int(bits[at:at + 32]) for at in range(0, total, 32)]
        return codes[::-1]

    def write_config(self, target_index, config_bits):
        """Rewrite one router's configuration; all others in BYPASS.

        ``config_bits`` are the target's full chain encoding (see
        :func:`repro.scan.registers.encode_config`).
        """
        n = len(self.routers)
        opcodes = [T.BYPASS] * n
        opcodes[target_index] = T.CONFIG
        self.load_instructions(opcodes)
        lengths = self._dr_lengths(opcodes)
        if len(config_bits) != lengths[target_index]:
            raise ValueError(
                "config is {} bits, chain expects {}".format(
                    len(config_bits), lengths[target_index]
                )
            )
        # Build the full shift-in image: bits for the last router enter
        # first.  Registers shift LSB-first, TDI entering at the MSB
        # end, so each register's image is its bits in order.
        image = []
        for index in reversed(range(n)):
            if index == target_index:
                image.extend(config_bits)
            else:
                image.extend([0] * lengths[index])
        self.scan_dr(image)

    def configure(self, target_index, mutate):
        """Read-modify-write one router's config through the chain."""
        from repro.core.parameters import RouterConfig

        router = self.routers[target_index]
        scratch = RouterConfig(router.params)
        R.decode_config(scratch, R.encode_config(router.config))
        mutate(scratch)
        self.write_config(target_index, R.encode_config(scratch))
