"""Churn property test: every invariant holds across sustained churn.

200 random membership events (fail / join / revive) hit a live TAP
system with the :class:`repro.obs.InvariantAuditor` running after each
one.  Auditing is non-strict so a failure reports *every* violated
event, not just the first.
"""

import random

from repro.core.system import TapSystem
from repro.util.ids import random_id

EVENTS = 200
MIN_ALIVE = 40


def test_churn_sequence_audits_clean():
    system = TapSystem.bootstrap(num_nodes=80, seed=17, replication_factor=3)
    auditor = system.enable_auditing(strict=False)
    alice = system.tap_node(system.random_node_id("alice"))
    system.deploy_thas(alice, count=8)

    rng = random.Random(99)
    id_rng = random.Random(4321)
    dead: list[int] = []
    counts = {"fail": 0, "join": 0, "revive": 0}
    for _ in range(EVENTS):
        alive = system.network.alive_ids
        choices = ["join"]
        if len(alive) > MIN_ALIVE:
            choices.append("fail")
        if dead:
            choices.append("revive")
        kind = rng.choice(choices)
        counts[kind] += 1
        if kind == "fail":
            victim = rng.choice([n for n in alive if n != alice.node_id])
            system.fail_node(victim)
            dead.append(victim)
        elif kind == "revive":
            system.revive_node(dead.pop(rng.randrange(len(dead))))
        else:
            new_id = random_id(id_rng)
            while system.network.is_registered(new_id):
                new_id = random_id(id_rng)
            system.join_node(new_id)

    assert len(auditor.history) == EVENTS
    bad = [report for report in auditor.history if not report.clean]
    assert not bad, "\n".join(str(report) for report in bad)
    # every event class was actually exercised
    assert all(counts[kind] > 0 for kind in counts), counts

    # the overlay is still functional: a tunnel formed from anchors
    # deployed before the churn still delivers end to end
    tunnel = system.form_tunnel(alice, length=3)
    trace = system.send(alice, tunnel, 4242, b"post-churn")
    assert trace.success
