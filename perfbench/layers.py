"""Which simulator calls become spans, and the per-layer metrics.

Span names are the layer names of the per-layer metrics.  Host-time
metrics of the per-cycle layers carry the engine as a suffix
(``.dense`` for the ``reference`` engine, ``.events``); every rate is
per simulated cycle of the traced run.
"""

ENGINES = ("dense", "events")

#: TelemetryHub methods the endpoints, routers and channels call.
HUB_HOOKS = (
    "attempt_started",
    "attempt_stream",
    "attempt_turn",
    "attempt_finished",
    "message_received",
    "router_event",
    "channel_activity",
)

#: Host-time metrics reported once per engine.
PER_ENGINE = (
    "core.router.self_us_per_cycle",
    "core.router.ticks_per_cycle",
    "core.router.us_per_tick",
    "endpoint.tick.self_us_per_cycle",
    "endpoint.ticks_per_cycle",
    "endpoint.poll.self_us_per_cycle",
    "endpoint.polls_per_cycle",
    "workloads.service.self_us_per_cycle",
    "sim.channel.self_us_per_cycle",
    "sim.channel.advances_per_cycle",
    "sim.engine.self_us_per_cycle",
    "sim.engine.tick_ratio",
    "sim.engine.compressed_frac",
)

#: Metrics reported once per workload.
SHARED = (
    "endpoint.queue_wait_cycles",
    "endpoint.fail.blocked_per_msg",
    "endpoint.fail.other_per_msg",
    "workloads.service.backlog",
    "sim.snapshot.ms_per_write",
    "network.build_s",
    "telemetry.hub.tick_us_per_cycle",
    "telemetry.hub.hook_us_per_cycle",
    "telemetry.hub.hook_calls_per_cycle",
    "telemetry.stream.us_per_cycle",
    "telemetry.stream.bytes_per_cycle",
    "telemetry.watchdog.us_per_cycle",
    "faults.manager.service_ms",
    "faults.manager.tick_us_per_cycle",
    "faults.injector.us_per_cycle",
    "scan.tap_steps",
    "scan.us_per_tap_step",
    "scan.configure_calls",
    "harness.runner.self_s",
    "harness.journal.ms",
    "harness.journal.records",
    "harness.cache.ms",
    "harness.trial_s.max",
    "harness.trials.retried",
    "trace.overhead_pct",
    "trace.span_cost_ns",
    "trace.unattributed_pct",
)

UNITS = {
    "self_us_per_cycle": "us",
    "us_per_cycle": "us",
    "tick_us_per_cycle": "us",
    "hook_us_per_cycle": "us",
    "us_per_tick": "us",
    "us_per_tap_step": "us",
    "ticks_per_cycle": "1/cycle",
    "polls_per_cycle": "1/cycle",
    "advances_per_cycle": "1/cycle",
    "hook_calls_per_cycle": "1/cycle",
    "bytes_per_cycle": "B/cycle",
    "tick_ratio": "ratio",
    "compressed_frac": "ratio",
    "queue_wait_cycles": "cycles",
    "blocked_per_msg": "1/msg",
    "other_per_msg": "1/msg",
    "backlog": "count",
    "ms_per_write": "ms",
    "build_s": "s",
    "service_ms": "ms",
    "tap_steps": "count",
    "configure_calls": "count",
    "self_s": "s",
    "ms": "ms",
    "records": "count",
    "max": "s",
    "retried": "count",
    "overhead_pct": "%",
    "span_cost_ns": "ns",
    "unattributed_pct": "%",
}


def per_layer_names():
    names = [
        "{}.{}".format(name, engine)
        for name in PER_ENGINE
        for engine in ENGINES
    ]
    return names + list(SHARED)


def unit_of(name):
    parts = name.split(".")
    if parts[-1] in ENGINES:
        parts = parts[:-1]
    return UNITS[parts[-1]]


def install(tracer):
    """Wrap every traced simulator call at class or module level.

    Returns the set of traffic-source classes it wrapped, for
    :func:`wrap_traffic`.
    """
    import repro.harness.parallel as parallel
    import repro.network.builder as builder
    import repro.sim.snapshot as snapshot
    from repro.core.router import MetroRouter
    from repro.endpoint.interface import Endpoint
    from repro.endpoint.traffic import UniformRandomTraffic
    from repro.faults.injector import FaultInjector
    from repro.faults.manager import FaultManager
    from repro.harness.journal import RunJournal
    from repro.scan.netconfig import NetworkScanFabric
    from repro.scan.tap import TapController
    from repro.sim.backends import EventEngine
    from repro.sim.channel import Channel
    from repro.sim.engine import Engine
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.stream import TelemetryStream
    from repro.telemetry.watchdog import RunWatchdog

    methods = [
        (MetroRouter, "tick", "core.router"),
        (Endpoint, "tick", "endpoint.tick"),
        (Endpoint, "fast_poll", "endpoint.poll"),
        (Channel, "advance", "sim.channel"),
        (Engine, "run", "sim.engine"),
        (Engine, "run_until", "sim.engine"),
        (EventEngine, "run", "sim.engine"),
        (EventEngine, "run_until", "sim.engine"),
        (TelemetryHub, "tick", "telemetry.hub.tick"),
        (TelemetryStream, "tick", "telemetry.stream"),
        (RunWatchdog, "tick", "telemetry.watchdog"),
        (FaultManager, "service", "faults.manager.service"),
        (FaultManager, "tick", "faults.manager.tick"),
        # The injector's per-cycle pre-cycle hook; it has no public
        # per-cycle entry point.
        (FaultInjector, "_hook", "faults.injector"),
        (TapController, "step", "scan.tap_step"),
        (NetworkScanFabric, "configure_router", "scan.configure"),
        (snapshot.Snapshot, "save", "sim.snapshot.save"),
        (parallel.TrialRunner, "run", "harness.runner"),
        (parallel.TrialCache, "get", "harness.cache"),
        (parallel.TrialCache, "put", "harness.cache"),
        (RunJournal, "record", "harness.journal"),
    ]
    methods.extend(
        (TelemetryHub, hook, "telemetry.hub.hook") for hook in HUB_HOOKS
    )
    for cls, attr, name in methods:
        tracer.wrap_method(cls, attr, name)
    tracer.wrap_function(builder, "build_network", "network.build")
    tracer.wrap_function(parallel, "execute_trial", "harness.trial")
    tracer.wrap_function(snapshot, "snapshot_network", "sim.snapshot.capture")
    # Chaos soaks attach uniform traffic inside the trial, after the
    # network is built, so its source class is wrapped up front.
    uniform = type(UniformRandomTraffic(2, 1).source_for(0))
    tracer.wrap_method(uniform, "__call__", "workloads.service")
    return {uniform}


def wrap_traffic(tracer, network, done):
    """Trace the traffic sources and reply handlers installed on ``network``.

    Their classes are found from the installed objects; ``done`` is
    the set of classes already wrapped.
    """
    for endpoint in network.endpoints:
        for obj in (endpoint.traffic_source, endpoint.reply_handler):
            cls = type(obj)
            if obj is None or cls in done:
                continue
            tracer.wrap_method(cls, "__call__", "workloads.service")
            done.add(cls)


def _get(layers, name, key):
    entry = layers.get(name)
    return entry[key] if entry else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def engine_metrics(layers, engine, cycles, component_cycles, compressed):
    """The :data:`PER_ENGINE` metrics of one engine's traced run.

    :param layers: :func:`spantrace.summarize` output for that run.
    :param cycles: simulated cycles the run covered.
    :param component_cycles: registered components x cycles.
    :param compressed: cycles the events engine compressed away.
    """
    us = 1e-3
    router_n = _get(layers, "core.router", "count")
    tick_n = _get(layers, "endpoint.tick", "count")
    poll_n = _get(layers, "endpoint.poll", "count")
    values = {
        "core.router.self_us_per_cycle": _ratio(
            _get(layers, "core.router", "self_ns") * us, cycles),
        "core.router.ticks_per_cycle": _ratio(router_n, cycles),
        "core.router.us_per_tick": _ratio(
            _get(layers, "core.router", "self_ns") * us, router_n),
        "endpoint.tick.self_us_per_cycle": _ratio(
            _get(layers, "endpoint.tick", "self_ns") * us, cycles),
        "endpoint.ticks_per_cycle": _ratio(tick_n, cycles),
        "endpoint.poll.self_us_per_cycle": _ratio(
            _get(layers, "endpoint.poll", "self_ns") * us, cycles),
        "endpoint.polls_per_cycle": _ratio(poll_n, cycles),
        "workloads.service.self_us_per_cycle": _ratio(
            _get(layers, "workloads.service", "self_ns") * us, cycles),
        "sim.channel.self_us_per_cycle": _ratio(
            _get(layers, "sim.channel", "self_ns") * us, cycles),
        "sim.channel.advances_per_cycle": _ratio(
            _get(layers, "sim.channel", "count"), cycles),
        "sim.engine.self_us_per_cycle": _ratio(
            _get(layers, "sim.engine", "self_ns") * us, cycles),
        "sim.engine.tick_ratio": _ratio(
            router_n + tick_n + poll_n, component_cycles),
        "sim.engine.compressed_frac": _ratio(compressed, cycles),
    }
    return {"{}.{}".format(k, engine): v for k, v in values.items()}


def shared_metrics(layers, cycles, soaks):
    """The host-time part of :data:`SHARED` for one traced run.

    ``cycles`` are all simulated cycles traced; ``soaks`` the number of
    chaos soaks (0 outside ``chaos-sweep``; per-soak figures are 0).
    """
    us = 1e-3
    ms = 1e-6
    hook_n = _get(layers, "telemetry.hub.hook", "count")
    taps = _get(layers, "scan.tap_step", "count")
    builds = _get(layers, "network.build", "count")
    writes = _get(layers, "sim.snapshot.save", "count")
    snapshot_ns = _get(layers, "sim.snapshot.capture", "total_ns") + _get(
        layers, "sim.snapshot.save", "total_ns")
    return {
        "sim.snapshot.ms_per_write": _ratio(snapshot_ns * ms, writes),
        "network.build_s": _ratio(
            _get(layers, "network.build", "total_ns") * 1e-9, builds),
        "telemetry.hub.tick_us_per_cycle": _ratio(
            _get(layers, "telemetry.hub.tick", "self_ns") * us, cycles),
        "telemetry.hub.hook_us_per_cycle": _ratio(
            _get(layers, "telemetry.hub.hook", "self_ns") * us, cycles),
        "telemetry.hub.hook_calls_per_cycle": _ratio(hook_n, cycles),
        "telemetry.stream.us_per_cycle": _ratio(
            _get(layers, "telemetry.stream", "self_ns") * us, cycles),
        "telemetry.watchdog.us_per_cycle": _ratio(
            _get(layers, "telemetry.watchdog", "self_ns") * us, cycles),
        "faults.manager.service_ms": _ratio(
            _get(layers, "faults.manager.service", "total_ns") * ms, soaks),
        "faults.manager.tick_us_per_cycle": _ratio(
            _get(layers, "faults.manager.tick", "self_ns") * us, cycles),
        "faults.injector.us_per_cycle": _ratio(
            _get(layers, "faults.injector", "self_ns") * us, cycles),
        "scan.tap_steps": _ratio(taps, soaks),
        "scan.us_per_tap_step": _ratio(
            _get(layers, "scan.tap_step", "self_ns") * us, taps),
        "scan.configure_calls": _ratio(
            _get(layers, "scan.configure", "count"), soaks),
        "harness.runner.self_s": _ratio(
            _get(layers, "harness.runner", "self_ns") * 1e-9, soaks),
        "harness.journal.ms": _ratio(
            _get(layers, "harness.journal", "total_ns") * ms, soaks),
        "harness.journal.records": _ratio(
            _get(layers, "harness.journal", "count"), soaks),
        "harness.cache.ms": _ratio(
            _get(layers, "harness.cache", "total_ns") * ms, soaks),
    }


def message_metrics(messages):
    """Simulated per-message endpoint counts over ``messages``."""
    from repro.endpoint.messages import BLOCKED, BLOCKED_FAST

    n = len(messages)
    waits = [
        m.start_cycle - m.queued_cycle
        for m in messages
        if m.start_cycle is not None and m.queued_cycle is not None
    ]
    blocked = other = 0
    for message in messages:
        for cause in message.failure_causes:
            if cause in (BLOCKED, BLOCKED_FAST):
                blocked += 1
            else:
                other += 1
    return {
        "endpoint.queue_wait_cycles": _ratio(sum(waits), len(waits)),
        "endpoint.fail.blocked_per_msg": _ratio(blocked, n),
        "endpoint.fail.other_per_msg": _ratio(other, n),
    }
