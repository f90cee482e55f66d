"""Simulator profiler: wrapping, accounting, restoration."""

import pytest

from repro.endpoint.messages import Message
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.telemetry import SimProfiler, profile_engine


def _network(seed=21):
    return build_network(figure1_plan(), seed=seed)


def test_profile_accounts_all_component_classes():
    network = _network()
    report = profile_engine(network.engine, cycles=50)
    assert report.cycles == 50
    assert report.wall_seconds > 0
    names = set(report.classes)
    assert {"MetroRouter", "Endpoint", "Channel.advance"} <= names
    routers = report.classes["MetroRouter"]
    assert routers.instances == sum(len(s) for s in network.routers)
    assert routers.ticks == routers.instances * 50
    assert report.classes["Channel.advance"].instances == len(
        network.engine.channels
    )


def test_profile_restores_engine_state():
    network = _network()
    profile_engine(network.engine, cycles=10)
    # Instance-level wrappers are gone: ticks resolve to class methods.
    for component in network.engine.components:
        assert "tick" not in vars(component)
    assert all(
        not type(ch).__name__.startswith("_Channel")
        or hasattr(ch, "delay")
        for ch in network.engine.channels
    )
    # And the simulation still works end to end.
    message = network.send(0, Message(dest=5, payload=[1]))
    assert network.run_until_quiet(max_cycles=5000)
    assert message.outcome == "delivered"


def test_profile_restores_on_error():
    network = _network()
    network.engine.set_deadline(network.engine.cycle + 5)
    with pytest.raises(Exception):
        profile_engine(network.engine, cycles=50)
    for component in network.engine.components:
        assert "tick" not in vars(component)
    assert all(hasattr(ch, "dead") for ch in network.engine.channels)


def test_profile_with_custom_run_callable():
    network = _network()
    network.send(3, Message(dest=12, payload=[1, 2]))
    profiler = SimProfiler(network.engine)
    report = profiler.profile(run=lambda: network.run_until_quiet(5000))
    assert report.cycles > 0
    assert report.total_ticks > 0


def test_profile_argument_validation():
    profiler = SimProfiler(_network().engine)
    with pytest.raises(ValueError):
        profiler.profile()
    with pytest.raises(ValueError):
        profiler.profile(cycles=10, run=lambda: None)


def test_report_rows_and_format():
    network = _network()
    report = profile_engine(network.engine, cycles=20)
    rows = report.rows()
    assert rows == sorted(rows, key=lambda r: -r["total_ms"])
    shares = sum(row["share_pct"] for row in rows)
    assert shares == pytest.approx(100.0)
    text = report.format()
    assert "cycles/s" in text
    assert "MetroRouter" in text
    assert repr(report).startswith("<ProfileReport")


def _loaded_network(backend):
    from repro.endpoint.traffic import UniformRandomTraffic

    network = build_network(figure1_plan(), seed=21, backend=backend)
    UniformRandomTraffic(
        network.plan.n_endpoints, network.codec.w, rate=0.02, seed=5
    ).attach(network)
    return network


def test_profile_works_on_every_backend():
    """Profiling times the real channel objects, so the events engine's
    staging hooks and the vector engine's mirrors stay intact: every
    backend profiles the same cycles and the same messages as an
    unprofiled run."""
    from repro.sim.backends import BACKENDS
    from repro.sim.channel import Channel
    from repro.verify.backend_diff import message_fingerprint

    advance = Channel.advance
    plain = _loaded_network("reference")
    plain.run(300)
    want = message_fingerprint(plain.log)
    assert want["messages"]
    for backend in sorted(BACKENDS):
        network = _loaded_network(backend)
        report = profile_engine(network.engine, cycles=300)
        assert report.cycles == 300, backend
        assert network.engine.cycle == 300, backend
        assert message_fingerprint(network.log) == want, backend
        assert Channel.advance is advance
        for component in network.engine.components:
            assert "tick" not in vars(component)
        if backend != "vector":  # vector shifts its pipes itself
            assert report.classes["Channel.advance"].ticks > 0, backend
