"""The event kernel against its predecessor, operation by operation.

``reference_kernel`` is the kernel as it was (dataclass-ordered heap,
``peek_time`` + ``step`` per event); ``repro.simnet.events`` holds
``(time, seq, event)`` tuples and pops once per event.  Both are driven
through the same operation sequence by one interpreter, and everything
an outsider can see must agree: which callbacks ran, in what order, at
what time and with what arguments; ``now``, ``processed_events``,
``len()`` and ``peek_time()`` after every operation; and the ``time`` /
``seq`` / ``cancelled`` of every handle handed out.
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


def drive(kernel, ops, observe_peek=True):
    """Apply ``ops`` to a fresh ``kernel.Simulator``; return what was seen.

    Operations (top level, applied in order):

    * ``("schedule", delay, action)`` / ``("schedule_at", offset, action)``
      — offset is relative to ``now`` (negative: must be rejected);
    * ``("cancel", i)`` — cancel the i-th handle handed out so far
      (modulo), be it at the head, in the middle, or already run;
    * ``("run",)``, ``("run", until_offset, max_events)`` — ``until`` is
      ``now + offset``; either bound may be None;
    * ``("step",)``.

    ``action`` is what the callback does when it fires, after logging
    itself: None, ``("schedule", delay, action)``, ``("cancel", i)``,
    ``("run",)`` (re-entrant: must raise), ``("step",)`` or ``("raise",)``.
    """
    sim = kernel.Simulator()
    seen = []
    handles = []

    def fire(tag, action):
        seen.append(("fired", tag, sim.now, sim.processed_events))
        act(action)

    def schedule(method, when, action):
        tag = len(handles)  # not consumed if the kernel rejects the call
        handles.append(method(when, fire, tag, action))

    def act(action):
        if action is None:
            return
        verb = action[0]
        if verb == "schedule":
            schedule(sim.schedule, action[1], action[2])
        elif verb == "cancel":
            if handles:
                handles[action[1] % len(handles)].cancel()
        elif verb == "run":
            try:
                sim.run()
            except SimulationError:
                seen.append(("reentrant run rejected", sim.now))
        elif verb == "step":
            seen.append(("nested step", sim.step()))
        elif verb == "raise":
            raise _Boom

    for op in ops:
        verb = op[0]
        try:
            if verb == "schedule":
                schedule(sim.schedule, op[1], op[2])
            elif verb == "schedule_at":
                schedule(sim.schedule_at, sim.now + op[1], op[2])
            elif verb == "cancel":
                act(op)
            elif verb == "run":
                until, max_events = (op[1], op[2]) if len(op) > 1 else (None, None)
                if until is not None:
                    until = sim.now + until
                seen.append(("run returned", sim.run(until=until, max_events=max_events)))
            elif verb == "step":
                seen.append(("step returned", sim.step()))
        except SimulationError:
            seen.append(("rejected", verb))
        except _Boom:
            seen.append(("callback raised", verb))
        seen.append((sim.now, sim.processed_events, len(sim)))
        if observe_peek:  # peek_time discards cancelled heads: also run without
            seen.append(("peek", sim.peek_time()))
    seen.append([(h.time, h.seq, h.cancelled, h.args) for h in handles])
    while len(sim):
        try:
            sim.run()
        except _Boom:
            seen.append(("callback raised", "drain"))
    seen.append(("drained", sim.now, sim.processed_events, sim.peek_time()))
    return seen


def assert_same(ops):
    for observe_peek in (True, False):
        expected = drive(reference_kernel, ops, observe_peek)
        assert drive(events, ops, observe_peek) == expected


def _three(then=None):
    return [("schedule", 1.0, None), ("schedule", 2.0, then), ("schedule", 3.0, None)]


SCENARIOS = {
    "fifo among equals": [("schedule", 1.0, None)] * 4 + [("schedule", 0.0, None)] * 3
    + [("run",)],
    "zero delay from a callback runs in the same instant, after its peers": [
        ("schedule", 1.0, ("schedule", 0.0, None)), ("schedule", 1.0, None), ("run",),
    ],
    "schedule_at now, later and in the past": [
        ("schedule_at", 0.0, None), ("schedule_at", 2.0, None), ("run", 1.0, None),
        ("schedule_at", -0.5, None), ("schedule_at", 0.0, None), ("run",),
    ],
    "cancel head": _three() + [("cancel", 0), ("run",)],
    "cancel middle": _three() + [("cancel", 1), ("run",)],
    "cancel everything": _three() + [("cancel", 0), ("cancel", 1), ("cancel", 2),
                                     ("run", 5.0, None), ("step",)],
    "cancel an event that already ran": _three() + [("run", None, 1), ("cancel", 0), ("run",)],
    "callback cancels a later event": [
        ("schedule", 1.0, ("cancel", 1)), ("schedule", 2.0, None), ("schedule", 3.0, None),
        ("run",),
    ],
    "callback cancels a simultaneous event": [
        ("schedule", 1.0, ("cancel", 1)), ("schedule", 1.0, None), ("run",),
    ],
    "until before the next event": _three() + [("run", 0.5, None), ("run",)],
    "until exactly at an event": _three() + [("run", 2.0, None), ("run",)],
    "until after the last event": _three() + [("run", 9.0, None)],
    "until on an empty queue": [("run", 4.0, None), ("schedule", 1.0, None), ("run", 0.0, None),
                                ("run",)],
    "until in the past of the clock": _three() + [("run", 2.5, None), ("run", -1.0, None),
                                                  ("run",)],
    "until behind a cancelled head": _three() + [("cancel", 0), ("run", 1.5, None), ("run",)],
    "max_events 0 to n": _three() + [("run", None, 0), ("run", None, 1), ("run", None, 5)],
    "max_events behind a cancelled head": _three() + [("cancel", 0), ("run", None, 0),
                                                      ("run", None, 1), ("run",)],
    "until and max_events together": _three() + [("run", 2.0, 1), ("run", 2.0, 5), ("run",)],
    "bare steps": _three() + [("cancel", 1)] + [("step",)] * 4,
    "re-entrant run": _three(("run",)) + [("run",)],
    "step inside a callback": _three(("step",)) + [("run",)],
    "callback raises, the run can be resumed": _three(("raise",)) + [("run",), ("run",)],
    "callback raises inside step": _three(("raise",)) + [("step",)] * 4,
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
    log = drive(events, SCENARIOS["schedule_at now, later and in the past"])
    assert ("rejected", "schedule_at") in log
    log = drive(events, SCENARIOS["callback raises, the run can be resumed"])
    assert ("callback raised", "run") in log and log[-1][:3] == ("drained", 3.0, 3)


delays = st.sampled_from(DELAYS)
indices = st.integers(0, 30)
actions = st.recursive(
    st.one_of(
        st.none(),
        st.tuples(st.just("cancel"), indices),
        st.just(("run",)),
        st.just(("step",)),
        st.just(("raise",)),
    ),
    lambda inner: st.tuples(st.just("schedule"), delays, inner),
    max_leaves=3,
)
offsets = st.sampled_from((-1.0, -0.25, 0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 10.0))
operations = st.one_of(
    st.tuples(st.just("schedule"), delays, actions),
    st.tuples(st.just("schedule"), delays, actions),
    st.tuples(st.just("schedule_at"), offsets, actions),
    st.tuples(st.just("cancel"), indices),
    st.just(("run",)),
    st.tuples(st.just("run"), st.none() | offsets, st.none() | st.integers(0, 6)),
    st.just(("step",)),
)


@given(ops=st.lists(operations, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_random_operation_sequences_agree(ops):
    assert_same(ops)
