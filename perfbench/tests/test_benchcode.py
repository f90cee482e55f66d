"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python -m pytest perfbench/tests``.
"""

import numpy as np
import pytest

from repro.endpoint.messages import DELIVERED, Message, MessageLog
from repro.workloads.collective import collective_log_digest

from perfbench import benchstats, inproc
from perfbench.spantrace import NO_PARENT, Tracer, self_times, summarize


def test_nearest_rank_on_1_to_100():
    values = list(range(1, 101))
    assert benchstats.nearest_rank(values, 50) == 50
    assert benchstats.nearest_rank(values, 99) == 99
    assert benchstats.nearest_rank(values, 100) == 100


def test_chunk_percentile_needs_ten_chunks_beyond_the_tail():
    with pytest.raises(ValueError):
        benchstats.chunk_percentile(range(199), 95)
    assert benchstats.chunk_percentile(range(200), 95) == 189
    with pytest.raises(ValueError):
        benchstats.chunk_percentile(range(15), 50)
    assert benchstats.chunk_percentile(range(20), 50) == 9


def _log(done_cycle):
    log = MessageLog()
    message = Message(dest=3, payload=[1, 2, 3])
    message.source = 0
    message.queued_cycle = 5
    message.start_cycle = 5
    message.done_cycle = done_cycle
    message.attempts = 1
    message.outcome = DELIVERED
    log.record(message)
    return log


def _pass(log):
    stats = {"digest": collective_log_digest(log), "accounted": True}
    return inproc.Pass(0.0, 0.0, [], [], stats, [], 0, 0, 0)


def test_cross_engine_check_fails_on_differing_logs():
    same = inproc.check([("dense", _pass(_log(40))), ("events", _pass(_log(40)))])
    assert same == []
    differ = inproc.check(
        [("dense", _pass(_log(40))), ("events", _pass(_log(41)))])
    assert len(differ) == 1 and "events" in differ[0]


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 70); a holds c [12, 20).
    parents = np.array([NO_PARENT, 0, 0, 1])
    starts = np.array([0, 10, 50, 12])
    ends = np.array([100, 40, 70, 20])
    assert list(self_times(parents, starts, ends)) == [50, 22, 20, 8]


def test_summarize_groups_by_name_and_moves_wrapper_cost():
    tracer = Tracer()
    for name, parent, start, end in (
        ("run", NO_PARENT, 0, 100),
        ("tick", 0, 10, 40),
        ("tick", 0, 50, 70),
        ("advance", 1, 12, 20),
    ):
        tracer.name_ids.append(tracer.name_id(name))
        tracer.parents.append(parent)
        tracer.starts.append(start)
        tracer.ends.append(end)
    layers, wrapper_ns = summarize(tracer, span_cost_ns=2.0)
    assert layers["run"] == {
        "count": 1, "total_ns": 100.0, "self_ns": 46.0, "max_ns": 100}
    assert layers["tick"]["count"] == 2
    assert layers["tick"]["self_ns"] == 22 - 2 + 20
    assert layers["advance"]["self_ns"] == 8
    assert wrapper_ns == 6.0
    total_self = sum(entry["self_ns"] for entry in layers.values())
    assert total_self + wrapper_ns == 50 + 22 + 20 + 8


class _Node:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_wrapped_methods_record_nested_spans():
    tracer = Tracer()
    tracer.wrap_method(_Node, "outer", "outer")
    tracer.wrap_method(_Node, "inner", "inner")
    try:
        assert _Node().outer() == 2
    finally:
        tracer.unwrap_all()
    names, parents, starts, ends = tracer.arrays()
    assert [tracer.names[i] for i in names] == ["outer", "inner"]
    assert list(parents) == [NO_PARENT, 0]
    assert starts[0] <= starts[1] <= ends[1] <= ends[0]
    assert len(tracer.stack) == 1


@pytest.mark.parametrize("backend", ["reference", "events"])
def test_chunk_clock_times_every_chunk_even_across_compressed_gaps(backend):
    from repro.sim.backends import make_engine

    from perfbench.clock import ChunkClock, chunk_costs

    engine = make_engine(backend)
    clock = engine.add_observer(ChunkClock())
    engine.run(7)
    clock.arm(engine.cycle, 10, 5)
    engine.run(5 * 10 + 1)
    assert len(clock.boundaries) == 6
    assert clock.boundaries[-1][2] is None
    costs = chunk_costs(clock.boundaries, 10)
    assert len(costs) == 5 and all(cost > 0 for cost in costs)
