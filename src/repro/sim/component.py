"""Base class for clocked components."""

# ---------------------------------------------------------------------------
# Activity protocol (optional, duck-typed)
# ---------------------------------------------------------------------------
# The event-driven backend (:mod:`repro.sim.backends`) asks components
# how much of a cycle they actually need via ``activity_state()``:
#
# * ``ACTIVE`` — the component holds live state; its full ``tick`` must
#   run every cycle.
# * ``POLL``   — the component is idle except for an external input
#   poll (a traffic source); the backend calls the cheaper
#   ``fast_poll(cycle)`` instead of ``tick``.
# * ``PARKED`` — a full tick is provably a no-op; the component is
#   skipped until an attached channel carries a word or something wakes
#   it explicitly (``Engine.wake``).
#
# Components that don't implement the protocol are legal: the backend
# detects them and degrades to the dense reference sweep.  Compare
# states with ``is`` — implementations must return these exact objects.

ACTIVE = "active"
POLL = "poll"
PARKED = "parked"

#: Bumped by :func:`rewired` whenever a component's port wiring
#: changes (the ``attach_*`` methods of routers and endpoints).  The
#: event-driven backend caches its wiring maps across runs and rebuilds
#: them when this counter moved: one integer compare per run.
wiring_epoch = 0


def rewired():
    """Record that some component's ``attached_channels`` changed."""
    global wiring_epoch
    wiring_epoch += 1


class Component:
    """A synchronously clocked element of a METRO network simulation.

    Subclasses implement :meth:`tick`, which is called exactly once per
    simulated clock cycle.  During ``tick`` a component may *read* the
    current outputs of its attached channels and *stage* new words into
    them; staged words only become visible after every component has
    ticked (two-phase update), exactly like registers clocked from a
    single central clock.
    """

    #: Human-readable identifier, assigned by the network builder.
    name = "component"

    def tick(self, cycle):
        """Advance one clock cycle.

        :param cycle: the current cycle number (0-based).
        """
        raise NotImplementedError

    def __repr__(self):
        return "<{} {}>".format(type(self).__name__, self.name)
