"""Simulator throughput: how fast the cycle-accurate model runs.

Not a paper figure — an engineering benchmark for the reproduction
itself (the repro band flags cycle simulation speed as the limiting
factor for large networks).  Reports simulated cycles/second for a
loaded Figure 3 network, raw single-router tick rate, and the host cost
of one self-healing wire repair measured in simulated cycles.
"""

import os
import time

from _record import metric, write_bench
from repro.core import words as W
from repro.core.parameters import RouterParameters
from repro.core.router import MetroRouter
from repro.endpoint.traffic import UniformRandomTraffic
from repro.faults.diagnosis import port_isolation_test
from repro.harness.load_sweep import figure1_network, figure3_network
from repro.sim.channel import Channel
from repro.sim.engine import Engine

# REPRO_BENCH_QUICK=1 is the CI smoke mode: enough cycles to exercise
# the measurement path, not enough for stable absolute numbers.
CYCLES = 150 if os.environ.get("REPRO_BENCH_QUICK") else 400


def _loaded_network():
    network = figure3_network(seed=19)
    UniformRandomTraffic(64, 8, rate=0.05, message_words=20, seed=20).attach(network)
    network.run(200)  # warm: connections in flight
    return network


def test_figure3_network_cycle_rate(benchmark, report):
    network = _loaded_network()
    benchmark.pedantic(
        lambda: network.run(CYCLES), rounds=3, iterations=1, warmup_rounds=1
    )
    rate = CYCLES / benchmark.stats["mean"]
    report(
        "Figure 3 network (64 endpoints, 64 routers, 512 wires), loaded:\n"
        "  {:.0f} simulated cycles/second".format(rate),
        name="sim_performance_network",
    )
    write_bench(
        "sim_performance_network",
        # Wall-clock throughput: tracked per machine, never compared
        # across machines (portable=False keeps it out of CI's check).
        {"cycles_per_second": metric(rate, higher_is_better=True)},
        params={"cycles": CYCLES, "rate": 0.05},
    )
    assert rate > 200  # sanity floor


def test_single_router_tick_rate(benchmark, report):
    params = RouterParameters(i=8, o=8, w=8, max_d=2)
    router = MetroRouter(params, name="perf")
    engine = Engine()
    engine.add_component(router)
    sources = []
    for p in range(8):
        channel = Channel(name="f{}".format(p))
        engine.add_channel(channel)
        router.attach_forward(p, channel.b)
        sources.append(channel.a)
    for q in range(8):
        channel = Channel(name="b{}".format(q))
        engine.add_channel(channel)
        router.attach_backward(q, channel.a)
    # Saturate all eight inputs with open connections streaming data.
    for p, end in enumerate(sources):
        end.send(W.data((p % 4) << 6))
    engine.run(2)

    def run_ticks():
        for end in sources:
            end.send(W.data(0x55))
        engine.step()

    benchmark(run_ticks)
    rate = 1.0 / benchmark.stats["mean"]
    report(
        "Single 8x8 router, all ports streaming: {:.0f} router-cycles/second".format(
            rate
        ),
        name="sim_performance_router",
    )
    write_bench(
        "sim_performance_router",
        {"router_cycles_per_second": metric(rate, higher_is_better=True)},
        params={"radix": 8},
    )
    assert rate > 1000


def test_component_time_breakdown(report):
    """Where a simulated cycle's wall time goes, by component class.

    Uses the telemetry profiler rather than pytest-benchmark: the
    point is the per-class share table, not a single number.  The
    shares answer the roadmap question of what to optimize next;
    the unwrapped cycles/second above stays the throughput truth.
    """
    from repro.telemetry import profile_engine

    network = _loaded_network()
    profiled = profile_engine(network.engine, cycles=CYCLES)
    report(
        "Simulator profile, loaded Figure 3 network:\n" + profiled.format(),
        name="sim_performance_profile",
    )
    assert profiled.cycles == CYCLES
    assert {"MetroRouter", "Endpoint", "Channel.advance"} <= set(
        profiled.classes
    )
    # The wrappers must come off afterwards: a second run at full speed.
    assert all(
        "tick" not in vars(component)
        for component in network.engine.components
    )


def _best_seconds(fn, repeats, rounds=5):
    """Best-of-``rounds`` host seconds per call of ``fn``."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - started) / repeats)
    return best


def test_wire_repair_cost(report):
    """Host time of one wire's port-isolation test, in dense cycles.

    The test disables both ports facing an inter-router wire through
    scan, drives five EXTEST patterns across it, samples them at the
    far boundary and re-enables the ports (paper, Section 5.1).  Both
    timings come from one process on the same Figure 1 network, so
    their ratio carries across machines where the raw times do not.
    """
    network = figure1_network(seed=23)
    src_key, dst_key = next(
        key for key in network.channels
        if key[0][0] == "router" and key[1][0] == "router"
    )
    repeats = 5 if os.environ.get("REPRO_BENCH_QUICK") else 20
    wire_s = _best_seconds(
        lambda: port_isolation_test(network, src_key, dst_key), repeats
    )
    cycle_s = _best_seconds(lambda: network.run(CYCLES), 1) / CYCLES
    ratio = wire_s / cycle_s
    report(
        "Wire repair (Figure 1 network, one port-isolation test):\n"
        "  {:.0f} us per wire test, {:.1f} us per dense cycle\n"
        "  = {:.1f} dense cycles of host time per wire test".format(
            wire_s * 1e6, cycle_s * 1e6, ratio
        ),
        name="sim_performance_wire_repair",
    )
    write_bench(
        "sim_performance_wire_repair",
        {
            # A ratio of two host times from one process: portable,
            # so CI's bench-check gates it against committed history.
            "wire_test_over_cycle": metric(
                ratio, higher_is_better=False, portable=True
            ),
        },
        params={"cycles": CYCLES, "repeats": repeats},
    )
    assert port_isolation_test(network, src_key, dst_key)[0]
