"""Helpers shared by the workload modules."""

import os
import resource
import statistics

from perfbench import benchstats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch space inside the checkout (run logs, journals, caches,
#: snapshot rings, saved spans); listed in the repository's .gitignore.
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: ``setup_s`` is the median over at least this many set-ups per run.
SETUP_SAMPLES = 3


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def peak_rss_mb(children=0):
    """Peak RSS of this process plus ``children`` x the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


def host_metrics(setup_s, walls, dense_chunks, events_chunks, children=0):
    """The host-time end-to-end metrics from raw samples.

    ``*_chunks`` are host microseconds per simulated cycle, one per
    equal chunk of a measured window.
    """
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "us_per_cycle.p50.dense": metric(
            benchstats.chunk_percentile(dense_chunks, 50), "us"),
        "us_per_cycle.p95.dense": metric(
            benchstats.chunk_percentile(dense_chunks, 95), "us"),
        "us_per_cycle.p50.events": metric(
            benchstats.chunk_percentile(events_chunks, 50), "us"),
        "us_per_cycle.p95.events": metric(
            benchstats.chunk_percentile(events_chunks, 95), "us"),
        "peak_rss_mb": metric(peak_rss_mb(children), "MB"),
    }


def sim_metrics(stats):
    """The simulated end-to-end metrics from a workload's stats dict."""
    return {
        "sim.latency_p50_cycles": metric(stats["latency_p50"], "cycles"),
        "sim.latency_p99_cycles": metric(stats["latency_p99"], "cycles"),
        "sim.delivered_load": metric(stats["delivered_load"], "words/ep/cyc"),
        "sim.attempts_per_msg": metric(stats["attempts_per_msg"], "1/msg"),
        "sim.availability": metric(stats["availability"], "ratio"),
        "sim.delivered_frac": metric(stats["delivered_frac"], "ratio"),
    }


def latency_stats(latencies):
    values = sorted(latencies)
    return {
        "latency_p50": benchstats.nearest_rank(values, 50),
        "latency_p99": benchstats.nearest_rank(values, 99),
    }
