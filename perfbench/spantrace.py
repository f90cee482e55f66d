"""In-memory span tracing by wrapping methods at class level.

A :class:`Tracer` replaces chosen methods and module functions with
wrappers that record one span per call: name, start, end (host
``perf_counter_ns``) and the index of the enclosing span.  Spans live
in flat arrays while the traced run executes and are written out only
at the end (:meth:`Tracer.save`), so tracing does no I/O on the hot
path.  Wrapping is done before the simulated network is built, from
the benchmark's own files; the simulator's source is not touched.
"""

import array
import functools
import json
import sys
import time

import numpy as np

from perfbench.clock import REFERENCE_S, Yardstick

NO_PARENT = -1


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("q")
        self.ends = array.array("q")
        self.stack = [NO_PARENT]
        self._undo = []

    def __len__(self):
        return len(self.starts)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def traced(self, fn, name):
        """``fn`` wrapped so that every call records a span ``name``."""
        name_id = self.name_id(name)
        name_ids = self.name_ids
        parents = self.parents
        starts = self.starts
        ends = self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def wrap_method(self, cls, attr, name):
        """Trace ``cls.attr`` for every instance, existing or future."""
        if attr not in cls.__dict__:
            raise AttributeError(
                "{} does not define {!r} itself".format(cls.__name__, attr)
            )
        original = cls.__dict__[attr]
        setattr(cls, attr, self.traced(original, name))
        self._undo.append((cls, attr, original))

    def wrap_function(self, module, attr, name):
        """Trace ``module.attr`` and every loaded alias imported by name."""
        original = getattr(module, attr)
        wrapper = self.traced(original, name)
        for other in list(sys.modules.values()):
            if getattr(other, attr, None) is original:
                setattr(other, attr, wrapper)
                self._undo.append((other, attr, original))

    def unwrap_all(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        del self._undo[:]

    def arrays(self, lo=0, hi=None):
        """``(name_ids, parents, starts, ends)`` of spans ``lo:hi``.

        Views of the span store, valid while no span is added.  Parents
        are re-based to the slice; a parent outside it becomes
        :data:`NO_PARENT`.
        """
        hi = len(self) if hi is None else hi
        names = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int32)[lo:hi]
        if lo:
            parents = parents - lo
            parents[parents < 0] = NO_PARENT
        starts = np.frombuffer(self.starts, dtype=np.int64)[lo:hi]
        ends = np.frombuffer(self.ends, dtype=np.int64)[lo:hi]
        return names, parents, starts, ends

    def save(self, path):
        """Write every span to ``path`` (numpy ``.npz``)."""
        names, parents, starts, ends = self.arrays()
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(json.dumps(self.names)),
                name_ids=names,
                parents=parents,
                starts=starts,
                ends=ends,
            )


def self_times(parents, starts, ends):
    """Each span's duration minus the time its direct children cover.

    Spans come from a call stack, so children are disjoint and inside
    their parent; their durations sum to the covered time.
    """
    durations = ends - starts
    return durations - _child_sums(parents, durations)


def _child_sums(parents, weights):
    has_parent = parents >= 0
    return np.bincount(
        parents[has_parent],
        weights=None if weights is None else weights[has_parent],
        minlength=len(parents),
    )


def summarize(tracer, lo=0, hi=None, span_cost_ns=0.0):
    """Per-name totals for spans ``lo:hi``.

    Returns ``(layers, wrapper_ns)``: ``layers`` maps each name to
    ``count``, ``total_ns`` (summed durations), ``max_ns`` (the
    longest span) and ``self_ns``; ``wrapper_ns`` is the wrappers' own
    cost, moved out of the parents' self time (``span_cost_ns`` per
    child span).  The sum of every ``self_ns`` plus ``wrapper_ns``
    equals the sum of raw self times.
    """
    names, parents, starts, ends = tracer.arrays(lo, hi)
    durations = ends - starts
    children = _child_sums(parents, None)
    corrected = (
        durations - _child_sums(parents, durations) - children * span_cost_ns
    )
    n_names = len(tracer.names)
    counts = np.bincount(names, minlength=n_names)
    totals = np.bincount(names, weights=durations, minlength=n_names)
    selfs = np.bincount(names, weights=corrected, minlength=n_names)
    longest = np.zeros(n_names, dtype=np.int64)
    np.maximum.at(longest, names, durations)
    layers = {}
    for name_id, name in enumerate(tracer.names):
        layers[name] = {
            "count": int(counts[name_id]),
            "total_ns": float(totals[name_id]),
            "self_ns": float(selfs[name_id]),
            "max_ns": int(longest[name_id]),
        }
    wrapper_ns = float(span_cost_ns * int(children.sum()))
    return layers, wrapper_ns


def merge_layers(summaries):
    """Combine several :func:`summarize` layer maps into one."""
    merged = {}
    for layers in summaries:
        for name, entry in layers.items():
            slot = merged.setdefault(
                name, {"count": 0, "total_ns": 0.0, "self_ns": 0.0, "max_ns": 0}
            )
            slot["count"] += entry["count"]
            slot["total_ns"] += entry["total_ns"]
            slot["self_ns"] += entry["self_ns"]
            slot["max_ns"] = max(slot["max_ns"], entry["max_ns"])
    return merged


class _Component:
    """A stand-in for a clocked component with a small tick."""

    def __init__(self):
        self.count = [0, 0]

    def tick(self, cycle):
        self.count[cycle & 1] += 1


def _sweep(components, cycles):
    for cycle in range(cycles):
        for component in components:
            component.tick(cycle)


def calibrate_span_cost(components=500, cycles=8, repeats=15):
    """Nanoseconds one child span adds to its parent's self time, at
    the yardstick's reference speed (see :mod:`perfbench.clock`).

    Mimics an engine sweep: a loop ticking ``components`` objects for
    ``cycles`` cycles, timed bare and with the ticks traced.  Host
    noise only ever adds time, so each side, and the yardstick timed
    alongside, takes its fastest of ``repeats`` trials.  The parent's
    extra self time per tick, scaled to the host speed of the traced
    run, is what :func:`summarize` removes per child span.
    """
    yardstick = Yardstick()
    speed = []
    bare = []
    parent_self = []
    for _ in range(repeats):
        speed.append(yardstick.measure())
        parts = [_Component() for _ in range(components)]
        start = time.perf_counter_ns()
        _sweep(parts, cycles)
        bare.append(time.perf_counter_ns() - start)

        tracer = Tracer()
        tracer.wrap_method(_Component, "tick", "tick")
        try:
            start = time.perf_counter_ns()
            _sweep(parts, cycles)
            traced_ns = time.perf_counter_ns() - start
        finally:
            tracer.unwrap_all()
        layers, _ = summarize(tracer)
        parent_self.append(traced_ns - layers["tick"]["total_ns"])
    cost = (min(parent_self) - min(bare)) / float(components * cycles)
    return cost * REFERENCE_S / min(speed)
