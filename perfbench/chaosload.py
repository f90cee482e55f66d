"""``chaos-sweep``: self-healing soaks through the supervised trial runner.

Four soaks on the Figure 1 network (the ``repro chaos`` default) run
through :func:`repro.harness.chaos.chaos_sweep` with a run journal, a
fresh trial cache, metrics, one run log per soak and a snapshot ring.
Each soak's network carries a :class:`~perfbench.clock.ChunkClock`
that reports through the soak's run log, so host time per simulated
cycle is measured inside the worker processes; at the soak's last
cycle it also logs the message statistics the benchmark needs.
"""

import os
import random
import shutil
import statistics
import time

from repro.endpoint.messages import DELIVERED
from repro.harness.chaos import chaos_sweep, chaos_trial_specs
from repro.harness.journal import load_journal_state
from repro.harness.load_sweep import figure1_network
from repro.harness.parallel import (
    TrialRunner, is_quarantined, repro_code_version, result_content_hash)
from repro.telemetry.stream import (
    TelemetryStream, merge_stream_metrics, read_run_log, validate_run_log)

from perfbench import common, layers
from perfbench.clock import (
    ChunkClock, at_reference_speed, chunk_costs, scale)
from perfbench.spantrace import Tracer, calibrate_span_cost, summarize

SOAKS = 4
WORKERS = 2
#: The CLI's soak windows, 24 of them: 5 fault-free warm-up windows,
#: then 7600 cycles with faults.  A snapshot (and fault service) every
#: 2000 cycles.
SOAK = {
    "n_windows": 24,
    "window_cycles": 400,
    "warmup_windows": 5,
    "metrics": True,
    "snapshot_every": 5,
}
#: Timed chunks of 100 cycles after warm-up: 76 per soak, 304 per sweep.
CHUNK = 100
CHUNKS = (SOAK["n_windows"] - SOAK["warmup_windows"]) * SOAK[
    "window_cycles"] // CHUNK

CHUNK_EVENT = "perfbench.chunk"
MESSAGES_EVENT = "perfbench.messages"


class _RunLogSink:
    """Passes chunk boundaries to the soak's run log (picklable).

    At the last boundary it also logs the soak's message statistics,
    which the parent process cannot otherwise see.
    """

    def __init__(self, network):
        self.engine = network.engine
        self.log = network.log
        self.endpoints = len(network.endpoints)

    def __call__(self, boundary):
        stream = next(
            (o for o in self.engine.observers
             if isinstance(o, TelemetryStream)), None)
        if stream is None:
            return
        end, yardstick, start = boundary
        stream.emit(CHUNK_EVENT, end=end, yardstick=yardstick, start=start)
        if start is None:
            messages = self.log.messages
            delivered = [m for m in messages if m.outcome == DELIVERED]
            stream.emit(
                MESSAGES_EVENT,
                latencies=[m.latency for m in delivered],
                words=sum(len(m.payload) for m in delivered),
                messages=len(messages),
                attempts=sum(m.attempts for m in messages),
                endpoint_cycles=self.endpoints * (self.engine.cycle + 1),
            )


def clocked_figure1_network(**kwargs):
    """The Figure 1 network with a chunk clock after warm-up."""
    network = figure1_network(**kwargs)
    clock = ChunkClock(sink=_RunLogSink(network))
    clock.arm(SOAK["warmup_windows"] * SOAK["window_cycles"] - 1, CHUNK,
              CHUNKS)
    network.engine.add_observer(clock)
    return network


class NetworkRecorder:
    """:func:`clocked_figure1_network` that keeps the networks it builds.

    For in-process sweeps only, so the traced run can read each soak's
    message log afterwards.
    """

    def __init__(self):
        self.networks = []

    def __call__(self, **kwargs):
        network = clocked_figure1_network(**kwargs)
        self.networks.append(network)
        return network

    def cache_token(self):
        return "perfbench.recorded_figure1_network"


class Sweep:
    """One sweep's results and where its files are."""

    def __init__(self, setup_s, wall_s, results, root, stream_paths):
        self.setup_s = setup_s
        self.wall_s = wall_s
        self.results = results
        self.root = root
        self.stream_paths = stream_paths

    @property
    def journal(self):
        return os.path.join(self.root, "journal.jsonl")

    def outcomes(self):
        """Per soak: the result's content hash, or ``quarantined``."""
        return [
            "quarantined" if is_quarantined(r) else result_content_hash(r)
            for r in self.results
        ]


def sweep(seed, workers, backend, name,
          network_factory=clocked_figure1_network):
    """One chaos sweep with a fresh journal, cache, rings and run logs."""
    root = os.path.join(common.WORK_DIR, "chaos", name)
    shutil.rmtree(root, ignore_errors=True)
    kwargs = dict(
        SOAK,
        backend=backend,
        network_factory=network_factory,
        snapshot_dir=os.path.join(root, "rings"),
        stream_dir=os.path.join(root, "streams"),
    )
    started = time.perf_counter()
    runner = TrialRunner(
        workers=workers,
        cache_dir=os.path.join(root, "cache"),
        journal=os.path.join(root, "journal.jsonl"),
        on_exhausted="quarantine",
    )
    setup_s = time.perf_counter() - started
    try:
        results = chaos_sweep(seeds=SOAKS, seed=seed, runner=runner, **kwargs)
    finally:
        runner.journal.close()
    wall_s = time.perf_counter() - started
    paths = [
        spec.params["stream_path"]
        for spec in chaos_trial_specs(seeds=SOAKS, seed=seed, **kwargs)
    ]
    return Sweep(setup_s, wall_s, results, root, paths)


class Checked:
    """What the checks of one sweep found."""

    def __init__(self, result):
        self.results = result.results
        self.outcomes = result.outcomes()
        self.failures = []
        #: Host us per simulated cycle of every timed chunk.
        self.chunks = []
        self.yardsticks = []
        #: The ``perfbench.messages`` record of every completed soak.
        self.soaks = []
        self.log_bytes = 0
        self.retried = 0
        self.quarantined = 0



def soak_stats(checks):
    """Simulated statistics over every soak of the checked sweeps.

    A quarantined soak counts as wholly unavailable and undelivered.
    """
    results = [r for checked in checks for r in checked.results]
    soaks = [soak for checked in checks for soak in checked.soaks]
    latencies = [x for soak in soaks for x in soak["latencies"]]
    messages = sum(soak["messages"] for soak in soaks)
    completed = [r for r in results if not is_quarantined(r)]
    stats = common.latency_stats(latencies)
    stats.update({
        "delivered_load": sum(soak["words"] for soak in soaks)
        / float(sum(soak["endpoint_cycles"] for soak in soaks)),
        "attempts_per_msg": sum(soak["attempts"] for soak in soaks)
        / float(messages),
        "availability": sum(r.availability for r in completed)
        / float(len(results)),
        "delivered_frac": len(completed) / float(len(results))
        * len(latencies) / float(messages),
    })
    return stats


def check_sweep(result):
    """Check one sweep's journal and run logs; collect what they hold.

    A soak the runner quarantined (its trial raised) is a failed
    operation, not a failed check; its partial run log is validated
    but contributes nothing else.
    """
    checked = Checked(result)
    state = load_journal_state(result.journal)
    if (state.unfinished or not state.completed
            or len(state.done) + len(state.quarantined) != SOAKS):
        checked.failures.append("journal: {}".format(state.describe()))
    checked.retried = sum(1 for n in state.attempts.values() if n > 1)
    for soak, path in zip(result.results, result.stream_paths):
        events = read_run_log(path)
        checked.log_bytes += os.path.getsize(path)
        try:
            validate_run_log(events)
        except ValueError as error:
            checked.failures.append("{}: {}".format(path, error))
        if is_quarantined(soak):
            checked.quarantined += 1
            continue
        if merge_stream_metrics(events) != soak.metrics:
            checked.failures.append(
                "{}: merged deltas differ from result.metrics".format(path))
        boundaries = [
            (e["end"], e["yardstick"], e["start"])
            for e in events if e.get("event") == CHUNK_EVENT
        ]
        found = chunk_costs(boundaries, CHUNK)
        summary = [e for e in events if e.get("event") == MESSAGES_EVENT]
        if len(found) != CHUNKS or len(summary) != 1:
            checked.failures.append(
                "{}: {} timed chunks of {}, {} message records".format(
                    path, len(found), CHUNKS, len(summary)))
        checked.chunks.extend(found)
        checked.yardsticks.extend(b[1] for b in boundaries)
        checked.soaks.extend(summary)
    shutil.rmtree(result.root, ignore_errors=True)
    return checked


def _compare(first, other, label):
    if other.outcomes != first.outcomes:
        return ["{}: soak results differ from the events sweep's".format(
            label)]
    return []


def sweep_seed(seed, scenario):
    """The sweep seed of scenario ``scenario`` of run seed ``seed``.

    Scenario 0 is the run seed itself.
    """
    if scenario == 0:
        return seed
    rng = random.Random(seed)
    for _ in range(scenario - 1):
        rng.getrandbits(31)
    return rng.getrandbits(31)


#: The ``sim.*`` metrics pool this many scenarios (8 soaks), which
#: every run sweeps on the events engine.
SIM_SCENARIOS = 2


def run_timed(seed, seconds, import_s):
    """Timed ``workers=2`` sweeps over fault scenarios from the seed.

    Scenario 0 runs on ``events`` and then on ``reference``: both
    sweeps run the same soaks and must agree, and the reference sweep
    gives the ``.dense`` chunk times.  Scenario 1 follows on
    ``events``; the ``sim.*`` metrics pool scenarios 0 and 1.  While
    time remains, further scenarios on ``events`` add host-time
    samples.
    """
    version_s, _ = at_reference_speed(repro_code_version)
    deadline = time.perf_counter() + seconds
    plan = [(0, "events"), (0, "reference")]
    chunks = {"events": [], "reference": []}
    walls = []
    setups = []
    failures = []
    events_checks = []
    quarantined = 0
    while True:
        scenario, backend = (
            plan[len(setups)] if len(setups) < len(plan)
            else (len(setups) - 1, "events"))
        result = sweep(sweep_seed(seed, scenario), WORKERS, backend, "timed")
        checked = check_sweep(result)
        failures.extend(checked.failures)
        quarantined += checked.quarantined
        chunks[backend].extend(checked.chunks)
        setups.append(result.setup_s)
        if backend == "events":
            events_checks.append(checked)
            walls.append(result.wall_s * scale(checked.yardsticks))
        else:
            failures.extend(_compare(events_checks[0], checked, backend))
            if soak_stats([checked]) != soak_stats(events_checks[:1]):
                failures.append(
                    "{}: message statistics differ".format(backend))
        if len(events_checks) >= SIM_SCENARIOS and (
                time.perf_counter() + result.wall_s > deadline):
            break

    setup_s = import_s + version_s + statistics.median(setups)
    metrics = common.host_metrics(
        setup_s, walls, chunks["reference"], chunks["events"],
        children=WORKERS)
    metrics.update(common.sim_metrics(
        soak_stats(events_checks[:SIM_SCENARIOS])))
    attempted = SOAKS * len(setups)
    return failures, attempted, attempted if failures else quarantined, metrics


def run_traced(seed, spans_path):
    """A timed sweep, then the same soaks in process, untraced and traced."""
    timed = sweep(seed, WORKERS, "events", "timed")
    untraced = sweep(seed, 1, "events", "untraced")

    tracer = Tracer()
    layers.install(tracer)
    recorder = NetworkRecorder()
    try:
        started = time.perf_counter_ns()
        traced = sweep(seed, 1, "events", "traced", recorder)
        traced_ns = time.perf_counter_ns() - started
    finally:
        tracer.unwrap_all()
    checks = [check_sweep(result) for result in (timed, untraced, traced)]
    span_cost = calibrate_span_cost() / scale(checks[2].yardsticks)
    tracer.save(spans_path)

    failures = [f for checked in checks for f in checked.failures]
    failures.extend(_compare(checks[0], checks[1], "in-process untraced"))
    failures.extend(_compare(checks[0], checks[2], "in-process traced"))

    found, wrapper_ns = summarize(tracer, span_cost_ns=span_cost)
    unattributed_ns = traced_ns - wrapper_ns - sum(
        v["self_ns"] for v in found.values())
    if unattributed_ns < 0:
        failures.append("span self times exceed the traced wall time")
    networks = recorder.networks
    cycles = sum(n.engine.cycle for n in networks)
    metrics = layers.engine_metrics(
        found, "events", cycles,
        sum(n.engine.cycle * len(n.engine.components) for n in networks),
        sum(n.engine.compressed_cycles for n in networks),
    )
    metrics.update(layers.engine_metrics({}, "dense", 0, 0, 0))
    metrics.update(layers.shared_metrics(found, cycles, soaks=SOAKS))
    metrics.update(layers.message_metrics([
        m
        for network, result in zip(networks, traced.results)
        if not is_quarantined(result)
        for m in network.log.messages
    ]))
    trial = found.get("harness.trial")
    metrics.update({
        "telemetry.stream.bytes_per_cycle": checks[2].log_bytes
        / float(cycles),
        "workloads.service.backlog": 0,
        "harness.trial_s.max": trial["max_ns"] * 1e-9 if trial else 0.0,
        "harness.trials.retried": sum(c.retried for c in checks),
        "trace.overhead_pct": 100.0 * (
            traced_ns * 1e-9 / untraced.wall_s - 1.0),
        "trace.span_cost_ns": span_cost,
        "trace.unattributed_pct": 100.0 * unattributed_ns / traced_ns,
    })
    attempted = 3 * SOAKS
    failed = sum(c.quarantined for c in checks)
    return failures, attempted, attempted if failures else failed, metrics
