"""The event kernel against its predecessor, operation by operation.

``reference_kernel`` is the kernel as it was (dataclass-ordered heap,
``peek_time`` + ``step`` per event); ``repro.simnet.events`` holds
``(time, seq, callback, args)`` heap entries and pops once per event.
Both are driven through the same operation sequence by one interpreter,
through the API the shipped kernel has — ``schedule``, ``run`` with
and without ``until`` / ``max_events``, callbacks that schedule,
re-enter ``run`` or raise — and everything an outsider can see must
agree: which callbacks ran, in what order, at what time and with what
arguments, which calls were rejected, and ``now``,
``processed_events`` and ``len()`` after every operation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import events
from repro.simnet.events import SimulationError
from tests.simnet import reference_kernel

# Few distinct delays, so times repeat (FIFO among equals) and
# ``until`` bounds land before, exactly at and after events.
DELAYS = (0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 3.0)


class _Boom(Exception):
    """Raised by a callback on purpose."""


def drive(kernel, ops):
    """Apply ``ops`` to a fresh ``kernel.Simulator``; return what was seen.

    Operations (top level, applied in order):

    * ``("schedule", delay, action)`` — a negative delay must be rejected;
    * ``("run",)``, ``("run", until_offset, max_events)`` — ``until`` is
      ``now + offset``; either bound may be None.

    ``action`` is what the callback does when it fires, after logging
    itself: None, ``("schedule", delay, action)``, ``("run",)``
    (re-entrant: must raise) or ``("raise",)``.
    """
    sim = kernel.Simulator()
    seen = []
    tags = iter(range(1 << 30))

    def fire(tag, action):
        seen.append(("fired", tag, sim.now, sim.processed_events))
        act(action)

    def schedule(delay, action):
        sim.schedule(delay, fire, next(tags), action)

    def act(action):
        if action is None:
            return
        verb = action[0]
        if verb == "schedule":
            schedule(action[1], action[2])
        elif verb == "run":
            try:
                sim.run()
            except SimulationError:
                seen.append(("reentrant run rejected", sim.now))
        elif verb == "raise":
            raise _Boom

    for op in ops:
        verb = op[0]
        try:
            if verb == "schedule":
                schedule(op[1], op[2])
            elif verb == "run":
                until, max_events = (op[1], op[2]) if len(op) > 1 else (None, None)
                if until is not None:
                    until = sim.now + until
                seen.append(("run returned", sim.run(until=until, max_events=max_events)))
        except SimulationError:
            seen.append(("rejected", verb))
        except _Boom:
            seen.append(("callback raised", verb))
        seen.append((sim.now, sim.processed_events, len(sim)))
    while len(sim):
        try:
            sim.run()
        except _Boom:
            seen.append(("callback raised", "drain"))
        except SimulationError:
            seen.append(("rejected", "drain"))
    seen.append(("drained", sim.now, sim.processed_events, len(sim)))
    return seen


def assert_same(ops):
    assert drive(events, ops) == drive(reference_kernel, ops)


def _three(then=None):
    return [("schedule", 1.0, None), ("schedule", 2.0, then), ("schedule", 3.0, None)]


SCENARIOS = {
    "fifo among equals": [("schedule", 1.0, None)] * 4 + [("schedule", 0.0, None)] * 3
    + [("run",)],
    "zero delay from a callback runs in the same instant, after its peers": [
        ("schedule", 1.0, ("schedule", 0.0, None)), ("schedule", 1.0, None), ("run",),
    ],
    "negative delay rejected, at top level and from a callback": [
        ("schedule", -1.0, None), ("schedule", 1.0, ("schedule", -0.5, None)),
        ("schedule", 2.0, None), ("run",), ("run",),
    ],
    "until before the next event": _three() + [("run", 0.5, None), ("run",)],
    "until exactly at an event": _three() + [("run", 2.0, None), ("run",)],
    "until after the last event": _three() + [("run", 9.0, None)],
    "until on an empty queue": [("run", 4.0, None), ("schedule", 1.0, None), ("run", 0.0, None),
                                ("run",)],
    "until in the past of the clock": _three() + [("run", 2.5, None), ("run", -1.0, None),
                                                  ("run",)],
    "max_events 0 to n": _three() + [("run", None, 0), ("run", None, 1), ("run", None, 5)],
    "until and max_events together": _three() + [("run", 2.0, 1), ("run", 2.0, 5), ("run",)],
    "single-event runs": _three(("schedule", 0.0, None)) + [("run", None, 1)] * 6,
    "re-entrant run": _three(("run",)) + [("run",)],
    "callback raises, the run can be resumed": _three(("raise",)) + [("run",), ("run",)],
    "raising callback, one-event runs": _three(("raise",)) + [("run", None, 1)] * 4,
}


@pytest.mark.parametrize("name", SCENARIOS)
def test_named_scenarios_agree(name):
    assert_same(SCENARIOS[name])


def test_scenarios_do_what_their_names_say():
    """Spot checks of the log itself, so agreement is not agreement on nothing."""
    log = drive(events, SCENARIOS["fifo among equals"])
    fired = [entry[1] for entry in log if entry[0] == "fired"]
    assert fired == [4, 5, 6, 0, 1, 2, 3]
    log = drive(events, SCENARIOS["re-entrant run"])
    assert ("reentrant run rejected", 2.0) in log
    log = drive(events, SCENARIOS["negative delay rejected, at top level and from a callback"])
    assert ("rejected", "schedule") in log and ("rejected", "run") in log
    log = drive(events, SCENARIOS["callback raises, the run can be resumed"])
    assert ("callback raised", "run") in log and log[-1][:3] == ("drained", 3.0, 3)


delays = st.sampled_from(DELAYS)
actions = st.recursive(
    st.one_of(st.none(), st.just(("run",)), st.just(("raise",))),
    lambda inner: st.tuples(st.just("schedule"), delays, inner),
    max_leaves=3,
)
offsets = st.sampled_from((-1.0, -0.25, 0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 10.0))
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, actions),
    st.tuples(st.just("schedule"), delays, actions),
    st.tuples(st.just("schedule"), st.just(-0.5), actions),
    st.just(("run",)),
    st.tuples(st.just("run"), st.none() | offsets, st.none() | st.integers(0, 6)),
)


@given(ops=st.lists(operations, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_random_operation_sequences_agree(ops):
    assert_same(ops)
