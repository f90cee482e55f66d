"""Backend speedup over the reference engine (events and vector).

The ``events`` backend (:mod:`repro.sim.backends`) parks idle
components and advances only hot channels, so its advantage is largest
when most of the network is quiet.  The ``vector`` backend
(:mod:`repro.sim.vector`) additionally mirrors the wire state into
structure-of-arrays head-kind vectors and replays router/endpoint
steady states inline, attacking the per-cycle constant factor that
dominates under load.  This benchmark measures all three backends on
the identical seeded workload — the loaded Figure 3 network from idle
to past-the-knee injection rates, plus the 256-endpoint, 4-stage
network of ``bench_scaling.py`` past its knee — and reports the
speedup curves.  Each cell times the three backends in interleaved
rounds, so a drift in host speed hits them alike.  Equal
delivered-message counts are asserted along the way: the speed claim
is only meaningful because the results are byte-identical
(``repro verify --backend-diff`` proves the strong version of that
claim).

Past the knee nearly every component is active and the events engine
switches to its sweep mode (see ``repro.sim.backends``); there it must
never lose to the dense sweep, so those cells gate ``events >= 1.0x``
in both modes and record ``events/dense`` as a machine-portable ratio
in the history.

The vector backend keeps the Python ``Word``/pipe objects
authoritative (every observer, oracle and snapshot sees reference data
structures), which sets a per-word-hop floor on the saturated rate:
pushing much past ~2x at rate 0.01 would require making the arrays
authoritative, trading away the equivalence-by-construction this
backend is built on.

Run with ``REPRO_BENCH_QUICK=1`` (the CI smoke mode) to shrink the
measurement and assert only that neither fast backend is slower than
the reference; the full run gates per-rate floors for the vector
backend and the >= 3x events target from the roadmap.  The vector
backend is recorded, not gated, in the past-the-knee cells.  Both modes
write a machine-readable ``BENCH_backend_speedup.json`` next to the
text report so the perf trajectory can be tracked across commits.
"""

import gc
import os
import time

from _record import metric, write_bench
from bench_scaling import plan_256
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.load_sweep import figure3_network
from repro.network.builder import build_network

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

BACKENDS = ("reference", "events", "vector")

#: Injection rates swept on the Figure 3 network, lowest (most idle
#: network) first.  0.01 is where Figure 3's knee begins; 0.05 and 0.2
#: are past it.
RATES = (0.001, 0.002, 0.01, 0.05, 0.2)

#: Every measured cell as ``(endpoints, rate)``.
CELLS = tuple((64, rate) for rate in RATES) + ((256, 0.05),)

#: Past-the-knee cells: the events engine must be at least PARITY x
#: the dense reference here (it runs in sweep mode), in both modes.
LOADED_CELLS = ((64, 0.05), (64, 0.2), (256, 0.05))
PARITY = 1.0

WARMUP_CYCLES = 200
#: Quick mode takes many short rounds: on a noisy host, interleaving
#: finely (and alternating the order) is what keeps the past-the-knee
#: ratios, which sit around 1.1x, clear of the parity gate.
MEASURE_CYCLES = 75 if QUICK else 600
ROUNDS = 12 if QUICK else 7

#: Full-mode floor on the events speedup at the lowest rate.  Measured
#: best-of-7 on the development machine: ~4.5x at 0.001, ~3x at 0.002,
#: ~1.5x at 0.01.  Quick mode only requires parity (>= 1.0): CI
#: machines are too noisy for a tight ratio gate.
TARGET_SPEEDUP = 1.0 if QUICK else 3.0

#: Full-mode floors on the vector speedup per rate, set below the
#: measured best-of-7 (~6.9x at 0.001, ~3.5x at 0.002, ~1.9x at 0.01)
#: with noise margin, against the reference engine as it was before
#: the router/endpoint/channel fast paths; since those made the
#: reference ~30% faster, the 0.001 and 0.01 floors no longer hold in
#: full mode (ROADMAP item 1 removes the vector backend).  Quick mode
#: gates parity only.  Rates past the knee are recorded without a
#: vector gate.
VECTOR_RATES = (0.001, 0.002, 0.01)
VECTOR_TARGETS = (
    {rate: 1.0 for rate in VECTOR_RATES}
    if QUICK
    else {0.001: 4.0, 0.002: 2.0, 0.01: 1.4}
)


def _network(endpoints, backend):
    if endpoints == 64:
        return figure3_network(seed=19, backend=backend)
    return build_network(
        plan_256(), seed=19, fast_reclaim=True, backend=backend
    )


def _measure(endpoints, rate):
    """Best-of-rounds seconds per backend for MEASURE_CYCLES, plus
    delivery stats; each round runs every backend, in alternating
    order."""
    networks = {}
    for backend in BACKENDS:
        network = _network(endpoints, backend)
        UniformRandomTraffic(
            endpoints, 8, rate=rate, message_words=20, seed=20
        ).attach(network)
        network.run(WARMUP_CYCLES)
        networks[backend] = network
    best = dict.fromkeys(BACKENDS, float("inf"))
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_index in range(ROUNDS):
            order = BACKENDS if round_index % 2 == 0 else BACKENDS[::-1]
            for backend in order:
                start = time.perf_counter()
                networks[backend].run(MEASURE_CYCLES)
                elapsed = time.perf_counter() - start
                if elapsed < best[backend]:
                    best[backend] = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    checks = {
        backend: (
            network.log.receiver_deliveries,
            len(network.log.messages),
        )
        for backend, network in networks.items()
    }
    return best, checks


def _cell_key(endpoints, rate):
    """Metric suffix: the rate alone on Figure 3 (the historical keys),
    ``256x<rate>`` on the 256-endpoint network."""
    return str(rate) if endpoints == 64 else "{}x{}".format(endpoints, rate)


def test_backend_speedup(report):
    rows = []
    for endpoints, rate in CELLS:
        timings, checks = _measure(endpoints, rate)
        # Same seeds, same cycle count: anything but equality here is
        # an equivalence bug, not measurement noise.
        assert checks["events"] == checks["reference"]
        assert checks["vector"] == checks["reference"]
        ref_s = timings["reference"]
        rows.append(
            {
                "endpoints": endpoints,
                "rate": rate,
                "reference_us_per_cycle": 1e6 * ref_s / MEASURE_CYCLES,
                "events_us_per_cycle": 1e6 * timings["events"]
                / MEASURE_CYCLES,
                "vector_us_per_cycle": 1e6 * timings["vector"]
                / MEASURE_CYCLES,
                "events_speedup": ref_s / timings["events"],
                "vector_speedup": ref_s / timings["vector"],
                "events_over_dense": timings["events"] / ref_s,
                "delivered": checks["reference"][0],
            }
        )
    lines = [
        "Backend speedup, loaded Figure 3 network and 256-endpoint "
        "network ({} measured cycles, best of {} interleaved "
        "rounds):".format(MEASURE_CYCLES, ROUNDS),
        "  {:>4}  {:>6}  {:>14}  {:>19}  {:>19}  {:>9}".format(
            "ends", "rate", "reference", "events", "vector", "delivered"
        ),
    ]
    for row in rows:
        lines.append(
            "  {:>4}  {:>6}  {:>11.1f} us  {:>8.1f} us {:>6.2f}x  "
            "{:>8.1f} us {:>6.2f}x  {:>9}".format(
                row["endpoints"],
                row["rate"],
                row["reference_us_per_cycle"],
                row["events_us_per_cycle"],
                row["events_speedup"],
                row["vector_us_per_cycle"],
                row["vector_speedup"],
                row["delivered"],
            )
        )
    report("\n".join(lines), name="backend_speedup")
    metrics = {}
    for row in rows:
        cell = (row["endpoints"], row["rate"])
        key = _cell_key(*cell)
        loaded = cell in LOADED_CELLS
        # Speedup ratios are machine-portable, but only the full run
        # measures long enough to make them stable — quick-mode ratios
        # at low load swing ~2x run to run, so they stay out of the
        # cross-machine (portable-only) CI comparison.  Past the knee
        # the events engine sweeps like dense, its ratio sits near 1
        # and is steady even in quick mode.  Absolute per-cycle times
        # are local color either way.
        metrics["events_speedup@{}".format(key)] = metric(
            row["events_speedup"], higher_is_better=True, portable=not QUICK
        )
        metrics["vector_speedup@{}".format(key)] = metric(
            row["vector_speedup"], higher_is_better=True, portable=not QUICK
        )
        metrics["events_over_dense@{}".format(key)] = metric(
            row["events_over_dense"],
            higher_is_better=False,
            portable=loaded or not QUICK,
        )
        metrics["reference_us_per_cycle@{}".format(key)] = metric(
            row["reference_us_per_cycle"],
            higher_is_better=False,
            portable=False,
        )
    write_bench(
        "backend_speedup",
        metrics,
        params={
            "warmup_cycles": WARMUP_CYCLES,
            "measure_cycles": MEASURE_CYCLES,
            "rounds": ROUNDS,
            "rates": list(RATES),
            "cells": [list(cell) for cell in CELLS],
        },
        rows=rows,
    )
    low = rows[0]
    assert low["events_speedup"] >= TARGET_SPEEDUP, (
        "events backend was only {:.2f}x the reference at rate {} "
        "(target {}x)".format(low["events_speedup"], low["rate"],
                              TARGET_SPEEDUP)
    )
    for row in rows:
        cell = (row["endpoints"], row["rate"])
        if row["endpoints"] == 64 and row["rate"] in VECTOR_TARGETS:
            floor = VECTOR_TARGETS[row["rate"]]
            assert row["vector_speedup"] >= floor, (
                "vector backend was only {:.2f}x the reference at rate {} "
                "(target {}x)".format(
                    row["vector_speedup"], row["rate"], floor
                )
            )
        if cell in LOADED_CELLS:
            assert row["events_speedup"] >= PARITY, (
                "events backend was only {:.2f}x the reference with {} "
                "endpoints at rate {} (target {}x)".format(
                    row["events_speedup"], row["endpoints"], row["rate"],
                    PARITY,
                )
            )


def test_idle_network_compression(report):
    """A network with no traffic source should be near-free to run.

    With nothing attached, every component parks and the engine's
    idle-run compression jumps straight to the deadline — wall time
    must be orders of magnitude below the dense sweep's.
    """
    from repro.sim.backends import EventEngine

    cycles = 50000
    network = figure3_network(seed=19, backend="events")
    assert isinstance(network.engine, EventEngine)
    start = time.perf_counter()
    network.run(cycles)
    elapsed = time.perf_counter() - start
    assert network.engine.cycle == cycles
    assert network.engine.compressed_cycles > 0.9 * cycles
    report(
        "Idle Figure 3 network, events backend: {} cycles in {:.1f} ms "
        "({} compressed away)".format(
            cycles, 1e3 * elapsed, network.engine.compressed_cycles
        ),
        name="backend_speedup_idle",
    )
