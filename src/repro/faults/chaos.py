"""The chaos harness: run sessions under a fault plan, measure
availability and MTTR, and prove the run replays deterministically.

One chaos run is round-based: each round every session issues one
request through the live synchronous engine while the plan's node
events / partitions fire at round boundaries and per-message faults
are sampled on seeded streams.  The report separates

* **availability** — requests answered by a genuine round trip;
* **effective availability** — answered *cleanly* (no retry needed);
* **degraded service** — last-known-good fallbacks served;
* **MTTR** — mean rounds from the start of an outage (first failed
  round) until service is restored for that session.

Every quantity is a pure function of ``(plan, config)``: the report
JSON and the event trace are byte-identical across runs with the same
seed, which the ``sha256`` digest makes checkable with ``cmp``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.resilience import ResiliencePolicy
from repro.core.session import SessionServer, TapSession
from repro.core.system import TapSystem
from repro.faults.plan import FaultPlan
from repro.obs import EventTrace
from repro.util.rng import SeedSequenceFactory


#: the no-resilience arm: zero retries, a broken tunnel reformed for
#: the next round, and only the structural replica fail-over of the paper
BASELINE = ResiliencePolicy.reactive(0)


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos run (the fault content lives in the plan)."""

    num_nodes: int = 150
    sessions: int = 4
    rounds: int = 30
    tunnel_length: int = 3
    anchors_per_session: int = 12
    seed: int = 2004

    @classmethod
    def fast(cls) -> "ChaosConfig":
        return cls(num_nodes=100, sessions=3, rounds=12)


def _pick_actors(system: TapSystem, count: int) -> list[tuple[int, int]]:
    """Deterministically pick ``count`` distinct (initiator, server)
    node-id pairs."""
    pairs: list[tuple[int, int]] = []
    used: set[int] = set()
    salt = 0
    while len(pairs) < count:
        a = system.random_node_id(("chaos-init", len(pairs), salt))
        b = system.random_node_id(("chaos-server", len(pairs), salt))
        salt += 1
        if a == b or a in used or b in used:
            continue
        used.update((a, b))
        pairs.append((a, b))
    return pairs


def _outages(outcomes: list[bool]) -> list[int]:
    """Lengths (in rounds) of the failed stretches in ``outcomes``."""
    runs: list[int] = []
    current = 0
    for ok in outcomes:
        if ok:
            if current:
                runs.append(current)
            current = 0
        else:
            current += 1
    if current:
        runs.append(current)
    return runs


def run_chaos(
    plan: FaultPlan,
    config: ChaosConfig = ChaosConfig(),
    policy: ResiliencePolicy = ResiliencePolicy(),
    metrics=None,
    tracer=None,
) -> dict:
    """Execute one chaos run; returns the (deterministic) report dict.

    ``policy=BASELINE`` is the no-resilience arm the CLI compares
    against; the report labels every other policy ``resilient``.

    Raises ``ValueError`` for a plan with ``storage_events``: nothing
    here applies at-rest faults, and a run that skipped its faults
    would read as a pass.
    """
    if plan.storage_events:
        raise ValueError(
            f"fault plan {plan.name!r} schedules at-rest storage faults, which "
            f"only run_durability applies (tap-repro run durability --plan "
            f"{plan.name})"
        )
    event_trace = EventTrace()
    system = TapSystem.bootstrap(
        config.num_nodes, seed=config.seed,
        metrics=metrics, event_trace=event_trace, tracer=tracer,
    )
    seeds = SeedSequenceFactory(config.seed).spawn("chaos", plan.name)

    actors = _pick_actors(system, config.sessions)
    protected = {nid for pair in actors for nid in pair}
    sessions: list[TapSession] = []
    servers: list[SessionServer] = []
    for initiator_id, server_id in actors:
        initiator = system.tap_node(initiator_id)
        server = SessionServer(server_id, handler=lambda req: b"ok:" + req)
        system.deploy_thas(initiator, count=config.anchors_per_session)
        sessions.append(
            TapSession(
                system, initiator, server,
                tunnel_length=config.tunnel_length, policy=policy,
            )
        )
        servers.append(server)

    # Faults go live only after setup: formation is not under test.
    injector = system.install_faults(plan, protected=protected)

    victims_rng = seeds.pyrandom("victims")
    pending_revivals: dict[int, list[int]] = {}
    outcomes: list[list[bool]] = [[] for _ in sessions]
    degraded_served = [0 for _ in sessions]

    for rnd in range(config.rounds):
        # -- scheduled membership faults -------------------------------
        for node_id in pending_revivals.pop(rnd, []):
            system.revive_node(node_id)
            injector.note("node.recover", node=node_id, round=rnd)
        for ev in plan.node_events:
            if ev.round != rnd:
                continue
            pool = [n for n in system.network.alive_ids if n not in protected]
            count = min(ev.count, len(pool))
            for victim in victims_rng.sample(sorted(pool), count):
                system.fail_node(victim, repair=ev.repair)
                injector.note("node.crash", node=victim, round=rnd)
                if ev.recover_after is not None:
                    pending_revivals.setdefault(
                        rnd + ev.recover_after, []
                    ).append(victim)
        for ev in plan.partitions:
            if ev.round == rnd:
                pool = sorted(
                    n for n in system.network.alive_ids if n not in protected
                )
                isolated = victims_rng.sample(
                    pool, round(ev.fraction * len(pool))
                )
                injector.set_partition(isolated)
            if ev.heal_round == rnd:
                injector.heal_partition()

        # -- one request per session -----------------------------------
        for i, session in enumerate(sessions):
            body = f"r{rnd}".encode()
            expected = b"ok:" + body
            reply = session.request_resilient(body)
            if reply.degraded:
                degraded_served[i] += 1
            outcomes[i].append(reply.ok and reply.value == expected)
        event_trace.record(
            "chaos.round", round=rnd,
            ok=[int(o[-1]) for o in outcomes],
        )

    # -- report --------------------------------------------------------
    rows: list[dict] = []
    all_outages: list[int] = []
    for i, session in enumerate(sessions):
        stats = session.stats
        outages = _outages(outcomes[i])
        all_outages.extend(outages)
        rows.append({
            "session": i,
            "requests": stats.requests,
            "ok": sum(outcomes[i]),
            "availability": round(stats.availability, 6),
            "effective_availability": round(stats.effective_availability, 6),
            "recovered": stats.recovered_responses,
            "degraded_served": degraded_served[i],
            "retries": stats.retries,
            "reforms": stats.tunnel_reforms,
            "proactive_reforms": stats.proactive_reforms,
            "breaker_trips": stats.breaker_trips,
            "health_probes": stats.health_probes,
            "backoff_wait_s": round(stats.backoff_wait_s, 6),
            "mttr_rounds": round(sum(outages) / len(outages), 6) if outages else 0.0,
            "worst_outage_rounds": max(outages, default=0),
        })

    total_requests = sum(r["requests"] for r in rows)
    total_ok = sum(r["ok"] for r in rows)
    genuine = sum(s.stats.responses for s in sessions)
    clean = sum(
        s.stats.responses - s.stats.recovered_responses for s in sessions
    )
    summary = {
        "requests": total_requests,
        "ok": total_ok,
        "availability": round(genuine / total_requests, 6) if total_requests else 1.0,
        "effective_availability": round(clean / total_requests, 6) if total_requests else 1.0,
        "degraded_served": sum(degraded_served),
        "recovered": sum(r["recovered"] for r in rows),
        "retries": sum(r["retries"] for r in rows),
        "reforms": sum(r["reforms"] for r in rows),
        "proactive_reforms": sum(r["proactive_reforms"] for r in rows),
        "breaker_trips": sum(r["breaker_trips"] for r in rows),
        "health_probes": sum(r["health_probes"] for r in rows),
        "mttr_rounds": round(sum(all_outages) / len(all_outages), 6) if all_outages else 0.0,
        "worst_outage_rounds": max(all_outages, default=0),
        "faults_injected": dict(sorted(injector.counts.items())),
        "injected_delay_s": round(injector.injected_delay_s, 6),
        "byzantine_nodes": len(injector.byzantine_nodes),
    }

    events_jsonl = event_trace.to_jsonl()
    report = {
        "plan": plan.name,
        "plan_description": plan.description,
        "seed": config.seed,
        "policy": "baseline" if policy == BASELINE else "resilient",
        "config": {
            "num_nodes": config.num_nodes,
            "sessions": config.sessions,
            "rounds": config.rounds,
            "tunnel_length": config.tunnel_length,
        },
        "rows": rows,
        "summary": summary,
    }
    digest = hashlib.sha256(
        canonical_json(report).encode() + events_jsonl.encode()
    ).hexdigest()
    report["digest"] = digest
    report["events_jsonl"] = events_jsonl
    return report


def chaos_job(plan: FaultPlan, config: ChaosConfig, with_policy: bool) -> dict:
    """Top-level (picklable) chaos job: one full :func:`run_chaos`.

    ``with_policy`` selects the default :class:`ResiliencePolicy` or
    the no-resilience baseline — the two arms the CLI compares.
    """
    return run_chaos(
        plan, config, policy=ResiliencePolicy() if with_policy else BASELINE
    )


def run_chaos_jobs(
    jobs: list[tuple[FaultPlan, ChaosConfig, bool]],
    workers: int | None = None,
) -> list[dict]:
    """Run independent chaos jobs, optionally fanned over processes.

    Each job is a self-contained deterministic run (its report embeds
    its own digest), so parallel execution cannot change any result —
    only the wall clock.  Results come back in job order.
    """
    from repro.perf import run_trials

    return run_trials(chaos_job, jobs, workers)


def canonical_json(report: dict) -> str:
    """Stable serialisation used for digests and ``--report-out``."""
    slim = {k: v for k, v in report.items() if k != "events_jsonl"}
    return json.dumps(slim, sort_keys=True, indent=2) + "\n"


def availability_report(report: dict, baseline: dict | None = None) -> str:
    """Human-readable availability/MTTR summary of one (or two) runs."""
    s = report["summary"]
    lines = [
        f"plan '{report['plan']}' seed {report['seed']}: "
        f"{s['requests']} requests over {report['config']['rounds']} rounds, "
        f"{report['config']['sessions']} sessions",
        f"  availability          {s['availability']:.4f}"
        f"  (effective {s['effective_availability']:.4f}, "
        f"{s['degraded_served']} degraded fallbacks served)",
        f"  MTTR                  {s['mttr_rounds']:.2f} rounds"
        f"  (worst outage {s['worst_outage_rounds']} rounds)",
        f"  repair actions        {s['reforms']} reforms"
        f" ({s['proactive_reforms']} proactive), "
        f"{s['breaker_trips']} breaker trips, "
        f"{s['health_probes']} health probes, {s['retries']} retries",
        f"  faults injected       {s['faults_injected'] or 'none'}",
    ]
    if baseline is not None:
        b = baseline["summary"]
        delta = s["availability"] - b["availability"]
        lines.append(
            f"  no-policy baseline    availability {b['availability']:.4f}, "
            f"MTTR {b['mttr_rounds']:.2f} rounds "
            f"(policy wins by {delta:+.4f})"
        )
    lines.append(f"  digest                {report['digest']}")
    return "\n".join(lines)
