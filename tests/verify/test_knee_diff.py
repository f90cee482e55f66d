"""The ``knee`` backend-diff kind and the events engine's sweep mode.

Under heavy load the events engine switches to a sweep mode that ticks
every component without per-component state lookups, and it switches
back through a conservative "everything ACTIVE" reset when the load
falls.  The ``knee`` kind runs a 256-endpoint network past the Figure 3
knee and then drains it, so both switches happen inside one compared
run; a seeded engine mutation proves the kind notices a botched exit.
"""

import pytest

from repro.core import mutation
from repro.verify.backend_diff import DEFAULT_KINDS, DIFF_KINDS, diff_point, run_knee


def test_knee_run_enters_and_leaves_sweep_mode():
    engine = run_knee(seed=7, backend="events").engine
    assert engine.sweep_cycles > 0
    assert not engine._sweep


@pytest.mark.parametrize("backend", ["events", "vector"])
def test_knee_is_byte_identical(backend):
    report = diff_point("knee", seed=7, backend=backend)
    assert report.ok, report.mismatches


def test_knee_catches_sweep_exit_without_reset():
    with mutation.seeded(mutation.EV_SWEEP_EXIT_NO_RESET):
        report = diff_point("knee", seed=7, backend="events")
    assert not report.ok


def test_knee_is_requested_explicitly():
    assert "knee" in DIFF_KINDS
    assert "knee" not in DEFAULT_KINDS


def test_engine_mutations_are_registered_but_separate():
    assert mutation.ENGINE_MUTATIONS <= mutation.KNOWN_MUTATIONS
    assert not (mutation.ENGINE_MUTATIONS & mutation.ALL_MUTATIONS)
    assert not (mutation.ENGINE_MUTATIONS & mutation.BACKEND_MUTATIONS)
