"""The events engine keeps its wiring maps across runs until re-wiring.

Each ``run`` starts with a conservative reset (everything ACTIVE, every
channel hot), but the component <-> channel maps are rebuilt only when
a registration changed or a router or endpoint was re-wired through
its ``attach_*`` methods.  Re-wiring between runs must therefore give
the reference engine's message log, and a seeded mutation that ignores
the re-wiring must not.
"""

import pytest

from repro.core import mutation
from repro.endpoint.messages import Message
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.sim.channel import Channel
from repro.verify.backend_diff import message_fingerprint


def _link(network, src_kind, dst_kind):
    for key in network.channels:
        if key[0][0] == src_kind and key[1][0] == dst_kind:
            return key
    raise KeyError((src_kind, dst_kind))


def _send_all_to_all(network, tag):
    for src in range(16):
        for offset in (3, 7, 12):
            network.send(src, Message(dest=(src + offset) % 16, payload=[tag, src]))


def _rewired_run(backend):
    """Traffic, then two wires moved onto spare channels, then traffic.

    The spare channels are registered before the first run, so the
    second run sees no registration change: only the wiring counter
    says the maps are stale.
    """
    network = build_network(figure1_plan(), seed=11, backend=backend)
    engine = network.engine
    router_link = _link(network, "router", "router")
    endpoint_link = _link(network, "router", "endpoint")
    spares = {
        key: engine.add_channel(Channel(name="spare {}".format(key[1])))
        for key in (router_link, endpoint_link)
    }
    _send_all_to_all(network, 1)
    assert network.run_until_quiet(max_cycles=20000)

    (_, s, b, i, q), (_, d_s, d_b, d_i, p) = router_link
    network.router_grid[(s, b, i)].attach_backward(q, spares[router_link].a)
    network.router_grid[(d_s, d_b, d_i)].attach_forward(p, spares[router_link].b)
    (_, s, b, i, q), (_, _, _, index, port) = endpoint_link
    network.router_grid[(s, b, i)].attach_backward(q, spares[endpoint_link].a)
    network.endpoints[index].attach_receive(spares[endpoint_link].b, port=port)

    # One message at a time, so a parked component misses a word that
    # reaches it on a spare channel unless the maps know the wiring.
    for src in range(16):
        for dest in (index, (src + 5) % 16):
            network.send(src, Message(dest=dest, payload=[2, src]))
            network.run_until_quiet(max_cycles=2000)
    return message_fingerprint(network.log)


@pytest.mark.parametrize("backend", ["events", "vector"])
def test_rewiring_between_runs_matches_reference(backend):
    assert _rewired_run(backend) == _rewired_run("reference")


def test_stale_wiring_maps_mutation_is_caught():
    with mutation.seeded(mutation.EV_STALE_WIRING_MAPS):
        mutated = _rewired_run("events")
    assert mutated != _rewired_run("reference")


def test_plain_second_run_reuses_the_maps():
    network = build_network(figure1_plan(), seed=11, backend="events")
    engine = network.engine
    network.run(3)
    maps = engine._attached
    network.send(0, Message(dest=9, payload=[1]))
    network.run(3)
    assert engine._attached is maps
    router = network.routers[0][0]
    router.attach_forward(0, router.forward_ends[0])
    network.run(3)
    assert engine._attached is not maps
