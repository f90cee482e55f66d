"""MultiTAP: several TAP ports per component.

The paper extends IEEE 1149.1 "to support multiple TAPs on each
component (MultiTAP) [8]", giving tolerance to faults in the scan
paths themselves: a broken scan chain can be abandoned and the same
component reached through another TAP port.

Model: ``sp`` TAP front-ends share one set of data registers and one
live instruction.  Ownership is first-come: the first port driven out
of Test-Logic-Reset claims the shared logic; steps on other ports
advance nothing (their TDO floats to 0) until the owner returns to
Test-Logic-Reset and releases.  A *dead* TAP port models a scan-path
fault — it ignores all activity, and ownership can be reacquired
through a healthy port after the dead one is released by reset.
"""

from repro.scan.tap import TEST_LOGIC_RESET, TapController, clock_edges


class MultiTap:
    """``sp`` arbitrated TAP ports over one shared register file."""

    def __init__(self, registers, idcode=0x1, sp=2):
        if sp < 1:
            raise ValueError("need at least one TAP port")
        self.shared = TapController(registers=registers, idcode=idcode)
        self.sp = sp
        self.owner = None
        self.dead_ports = set()

    def kill_port(self, port):
        """Simulate a scan-path fault on one TAP port."""
        self._check(port)
        self.dead_ports.add(port)
        if self.owner == port:
            self.owner = None
            self.shared.reset()

    def step(self, port, tms, tdi=0):
        """Clock TCK on one port; returns that port's TDO."""
        self._check(port)
        if port in self.dead_ports:
            return 0
        if self.owner is None:
            if self.shared.state == TEST_LOGIC_RESET and tms:
                return self.shared.step(tms, tdi)  # idling in reset: no claim
            # A live port actually leaving reset claims the controller.
            self.owner = port
        if self.owner != port:
            return 0
        tdo = self.shared.step(tms, tdi)
        if self.shared.state == TEST_LOGIC_RESET:
            self.owner = None  # reset releases ownership
        return tdo

    def shift(self, port, bits, exit_last=True):
        """A run of shift edges on one port; equals per-edge :meth:`step`.

        Dead and non-owner ports read 0 and advance nothing.  Without an
        owner the run may claim the controller part-way, so it is
        clocked edge by edge.
        """
        self._check(port)
        if port in self.dead_ports:
            return [0] * len(bits)
        if self.owner is None:
            return clock_edges(
                lambda tms, tdi: self.step(port, tms, tdi), bits, exit_last
            )
        if self.owner != port:
            return [0] * len(bits)
        out = self.shared.shift_bits(bits, exit_last)
        if self.shared.state == TEST_LOGIC_RESET:
            self.owner = None  # only a final TMS=1 edge can get here
        return out

    def state(self):
        return self.shared.state

    def _check(self, port):
        if not 0 <= port < self.sp:
            raise ValueError("TAP port {} out of range 0..{}".format(port, self.sp - 1))
