"""``svc-light`` and ``mb256-knee``: one network per engine, in process.

A *pass* builds the workload's network on one engine, attaches the
generated traffic, warms up (set-up), runs the measured window while
an engine observer times equal chunks (see ``clock.py``), then
stops the traffic and drains so every message of the window finishes.
Each engine runs the same seeded inputs; the message logs must hash
identically.
"""

import gc
import random
import statistics
import time

from repro.core.parameters import RouterParameters
from repro.endpoint.messages import ABANDONED, DELIVERED
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.load_sweep import figure3_network
from repro.network.builder import build_network
from repro.network.topology import NetworkPlan, StageSpec
from repro.workloads.collective import collective_log_digest
from repro.workloads.service import RequestResponseWorkload

from perfbench import common, layers
from perfbench.clock import (
    ChunkClock, at_reference_speed, chunk_costs, scale)
from perfbench.spantrace import (
    Tracer, calibrate_span_cost, merge_layers, summarize)

ENGINES = (("dense", "reference"), ("events", "events"))


def plan_256():
    """256 endpoints, 4 stages: 8x8 dilation-2 x3, then 4x4 dilation-1.

    The same plan as ``plan_256`` in ``benchmarks/bench_scaling.py``,
    kept here so the benchmark does not depend on that file.
    """
    eight = RouterParameters(i=8, o=8, w=8, max_d=2)
    four = RouterParameters(i=4, o=4, w=8, max_d=2)
    return NetworkPlan(
        256,
        2,
        2,
        [StageSpec(eight, 2), StageSpec(eight, 2), StageSpec(eight, 2),
         StageSpec(four, 1)],
    )


class SvcLight:
    """Open-loop request/response service on the Figure 3 network."""

    name = "svc-light"
    open_loop = True
    servers = (0, 16, 32, 48)
    clients = 4
    warmup = 500
    chunk_cycles = 100
    #: 220 chunks = 22001 cycles: about 1200 requests, so p99 has
    #: more than ten samples beyond it.
    chunks = 220
    trace_chunks = 20
    drain_budget = 20000

    def build(self, seed, backend):
        return figure3_network(
            seed=seed, backend=backend,
            endpoint_kwargs={"max_outstanding": 2},
        )

    def traffic(self, seed):
        return RequestResponseWorkload(
            64, 8, servers=self.servers, clients=self.clients, rate=0.0002,
            burst_prob=0.05, burst_size=4, request_words=8, reply_words=16,
            service_time=(0, 16), seed=seed,
        )

    def stop(self, network, end):
        for endpoint in network.endpoints:
            if endpoint.traffic_source is not None:
                endpoint.traffic_source.stop(end)

    def in_window(self, messages, start, end):
        return [
            m for m in messages
            if m.queued_cycle is not None and start <= m.queued_cycle < end
        ]

    def latency(self, message):
        return message.done_cycle - message.queued_cycle

    def clients_of(self, network):
        return {
            (e.index, k)
            for e in network.endpoints
            if e.index not in self.servers
            for k in range(self.clients)
        }

    def client(self, message):
        return message.client_id


class Mb256Knee:
    """Closed-loop uniform traffic past the knee on 256 endpoints."""

    name = "mb256-knee"
    open_loop = False
    warmup = 150
    chunk_cycles = 3
    #: 200 chunks = 601 cycles: about 2000 messages.
    chunks = 200
    trace_chunks = 25
    drain_budget = 5000

    def build(self, seed, backend):
        return build_network(
            plan_256(), seed=seed, fast_reclaim=True, backend=backend
        )

    def traffic(self, seed):
        return UniformRandomTraffic(
            256, 8, rate=0.05, message_words=20, seed=seed
        )

    def stop(self, network, end):
        for endpoint in network.endpoints:
            endpoint.traffic_source = None

    def in_window(self, messages, start, end):
        return [
            m for m in messages
            if m.start_cycle is not None and start <= m.start_cycle < end
        ]

    def latency(self, message):
        return message.done_cycle - message.start_cycle

    def clients_of(self, network):
        return {e.index for e in network.endpoints}

    def client(self, message):
        return message.source


WORKLOADS = {w.name: w for w in (SvcLight(), Mb256Knee())}


class Pass:
    """What one pass measured."""

    def __init__(self, setup_s, wall_s, chunk_us, yardsticks, stats,
                 in_window, cycles, component_cycles, compressed):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.chunk_us = chunk_us
        self.yardsticks = yardsticks
        self.stats = stats
        self.in_window = in_window
        self.cycles = cycles
        self.component_cycles = component_cycles
        self.compressed = compressed


def seeds_for(seed):
    """Network and traffic seeds, both derived from the run's seed."""
    rng = random.Random(seed)
    return rng.getrandbits(31), rng.getrandbits(31)


def set_up(workload, seed, backend, tracer=None, wrapped=None):
    """Build, attach traffic, warm up; returns (network, traffic, clock)."""
    net_seed, traffic_seed = seeds_for(seed)
    network = workload.build(net_seed, backend)
    traffic = workload.traffic(traffic_seed)
    traffic.attach(network)
    if tracer is not None:
        layers.wrap_traffic(tracer, network, wrapped)
    clock = network.engine.add_observer(ChunkClock())
    network.run(workload.warmup)
    return network, traffic, clock


def run_pass(workload, seed, backend, chunks, tracer=None, wrapped=None):
    started = time.perf_counter()
    setup_s, (network, traffic, clock) = at_reference_speed(
        lambda: set_up(workload, seed, backend, tracer, wrapped))
    # Start every window from a collected heap, so a collection of the
    # previous pass's garbage does not land in this one.
    gc.collect()
    engine = network.engine
    start = engine.cycle
    clock.arm(start, workload.chunk_cycles, chunks)
    network.run(chunks * workload.chunk_cycles + 1)
    end = engine.cycle
    workload.stop(network, end)
    drained = network.run_until_quiet(max_cycles=workload.drain_budget)
    stats, in_window = window_stats(workload, network, traffic, start, end,
                                    drained)
    chunk_us = chunk_costs(clock.boundaries, workload.chunk_cycles)
    if len(chunk_us) != chunks:
        raise RuntimeError(
            "chunk clock stamped {} chunks, expected {}".format(
                len(chunk_us), chunks))
    return Pass(
        setup_s,
        time.perf_counter() - started,
        chunk_us,
        [b[1] for b in clock.boundaries],
        stats,
        in_window,
        engine.cycle,
        engine.cycle * len(engine.components),
        getattr(engine, "compressed_cycles", 0),
    )


def window_stats(workload, network, traffic, start, end, drained):
    """Simulated statistics of the window ``[start, end)``, plus checks."""
    messages = network.log.messages
    in_window = workload.in_window(messages, start, end)
    delivered = [m for m in in_window if m.outcome == DELIVERED]
    abandoned = sum(1 for m in in_window if m.outcome == ABANDONED)
    served = {workload.client(m) for m in delivered}
    clients = workload.clients_of(network)
    stats = common.latency_stats([workload.latency(m) for m in delivered])
    stats.update({
        "messages": len(in_window),
        "abandoned": abandoned,
        "delivered_load": sum(len(m.payload) for m in delivered)
        / float(len(network.endpoints) * (end - start)),
        "attempts_per_msg": sum(m.attempts for m in in_window)
        / float(len(in_window)),
        "availability": len(served & clients) / float(len(clients)),
        "delivered_frac": len(delivered) / float(len(in_window)),
        "backlog": sum(
            1 for m in in_window
            if workload.open_loop
            and (m.done_cycle is None or m.done_cycle >= end)
        ),
        "digest": collective_log_digest(network.log),
        # Every generated message finished: none lost or still queued.
        "accounted": bool(
            drained
            and traffic.generated == len(messages)
            and len(delivered) + abandoned == len(in_window)
        ),
    })
    return stats, in_window


def check(passes):
    """Failures of the cross-engine and repeat checks, as strings."""
    failures = []
    first = passes[0]
    for label, result in passes:
        if not result.stats["accounted"]:
            failures.append("{}: not every message finished".format(label))
        if result.stats != first[1].stats:
            failures.append(
                "{}: simulated results differ from {} (digest {} vs {})".format(
                    label, first[0], result.stats["digest"][:12],
                    first[1].stats["digest"][:12]))
    return failures


def outcome(passes, failures):
    attempted = sum(p.stats["messages"] for _, p in passes)
    failed = sum(p.stats["abandoned"] for _, p in passes)
    return attempted, (attempted if failures else failed)


def run_timed(name, seed, seconds, import_s):
    """Measured passes on both engines until ``seconds`` are used."""
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    passes = []
    setups = []
    walls = []
    while True:
        started = time.perf_counter()
        pair = [
            (engine, run_pass(workload, seed, backend, workload.chunks))
            for engine, backend in ENGINES
        ]
        wall_s = time.perf_counter() - started
        walls.append(wall_s * scale(
            [y for _, p in pair for y in p.yardsticks]))
        setups.append(sum(p.setup_s for _, p in pair))
        passes.extend(pair)
        if time.perf_counter() + wall_s > deadline:
            break
    while len(setups) < common.SETUP_SAMPLES:
        setups.append(sum(
            at_reference_speed(lambda: set_up(workload, seed, backend))[0]
            for _, backend in ENGINES))
    failures = check(passes)
    chunks = {engine: [] for engine, _ in ENGINES}
    for engine, result in passes:
        chunks[engine].extend(result.chunk_us)
    metrics = common.host_metrics(
        import_s + statistics.median(setups), walls,
        chunks["dense"], chunks["events"],
    )
    metrics.update(common.sim_metrics(passes[0][1].stats))
    attempted, failed = outcome(passes, failures)
    return failures, attempted, failed, metrics


def run_traced(name, seed, spans_path):
    """One untraced and one traced pass per engine on a short window."""
    workload = WORKLOADS[name]
    passes = []
    untraced_s = 0.0
    for engine, backend in ENGINES:
        result = run_pass(workload, seed, backend, workload.trace_chunks)
        untraced_s += result.wall_s
        passes.append((engine + " untraced", result))

    tracer = Tracer()
    wrapped = layers.install(tracer)
    traced = []
    traced_ns = 0
    try:
        for engine, backend in ENGINES:
            lo = len(tracer)
            started = time.perf_counter_ns()
            result = run_pass(workload, seed, backend, workload.trace_chunks,
                              tracer, wrapped)
            traced_ns += time.perf_counter_ns() - started
            passes.append((engine + " traced", result))
            traced.append((engine, lo, len(tracer), result))
    finally:
        tracer.unwrap_all()
    span_cost = calibrate_span_cost() / scale(
        [y for *_, result in traced for y in result.yardsticks])
    tracer.save(spans_path)

    metrics = {}
    found_all = []
    raw_self_ns = 0.0
    for engine, lo, hi, result in traced:
        found, wrapper_ns = summarize(tracer, lo, hi, span_cost)
        raw_self_ns += wrapper_ns + sum(v["self_ns"] for v in found.values())
        metrics.update(layers.engine_metrics(
            found, engine, result.cycles, result.component_cycles,
            result.compressed))
        found_all.append(found)
    failures = check(passes)
    unattributed_ns = traced_ns - raw_self_ns
    if unattributed_ns < 0:
        failures.append("span self times exceed the traced wall time")
    metrics.update(layers.shared_metrics(
        merge_layers(found_all), sum(r.cycles for *_, r in traced), soaks=0))
    events_pass = passes[-1][1]
    metrics.update(layers.message_metrics(events_pass.in_window))
    metrics.update({
        "telemetry.stream.bytes_per_cycle": 0.0,
        "workloads.service.backlog": events_pass.stats["backlog"],
        "harness.trial_s.max": 0.0,
        "harness.trials.retried": 0,
        "trace.overhead_pct": 100.0 * (traced_ns * 1e-9 / untraced_s - 1.0),
        "trace.span_cost_ns": span_cost,
        "trace.unattributed_pct": 100.0 * unattributed_ns / traced_ns,
    })
    attempted, failed = outcome(passes, failures)
    return failures, attempted, failed, metrics
