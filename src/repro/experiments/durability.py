"""Durability experiment: k-replication vs (k,n) erasure coding.

The paper's availability numbers (Figure 2) assume PAST replication
repairs faster than nodes die and that stored bytes never rot.  This
runner drops both assumptions and compares the two storage backends
under one chaos plan:

* the **replicated** arm: :class:`repro.past.ReplicatedStore` with
  ``replication_factor`` full copies and eager on-failure repair —
  the paper's world, plus the satellite repair-accounting counters;
* the **erasure** arm: :class:`repro.past.ErasureStore` holding
  ``(data_shares, total_shares)`` coded shares with hash-tree
  integrity and leases, repairs deferred to a budget-bounded
  :class:`repro.past.RepairCrawler` pass per round, degraded reads
  going through :class:`repro.core.resilience.ShareHolderHealth`
  per-holder breakers.

Both arms replay the **same schedule**: node ids, object keys/values,
crash/revive victims and at-rest fault victims all come from seed
streams derived *without* a backend label, so the only difference
between the arms is the storage strategy.  Per round each arm fetches
every object and records

* ``available`` — the fetch returned *something*;
* ``clean`` — the fetch returned the originally inserted bytes
  (replication serves bit-rot silently, so ``available`` can exceed
  ``clean``; the erasure backend verifies shares against the object
  hash tree and either decodes cleanly or fails);
* ``repair_bytes`` / ``repair_objects`` — repair traffic this round
  (eager for replication, crawler-budgeted for erasure);
* ``crawler_backlog`` — keys the crawler deferred when its per-epoch
  byte budget ran out (always 0 for the replicated arm).

Rows are a pure function of the config — identical for any
``workers`` value, with or without telemetry — and
:func:`summarize_rows` distils the ``durability.*`` indicators the
SLO gate enforces.
"""

from __future__ import annotations

from repro.core.resilience import ShareHolderHealth
from repro.experiments.config import DurabilityConfig
from repro.faults.injectors import StorageFaultInjector
from repro.faults.plan import FaultPlan, named_plan
from repro.past.crawler import RepairCrawler
from repro.past.erasure import ErasureStore
from repro.past.replication import ReplicatedStore
from repro.past.storage import StorageError
from repro.pastry.network import PastryNetwork
from repro.perf import Sinks, run_trials
from repro.obs.metrics import MetricsRegistry
from repro.util.rng import SeedSequenceFactory, derive_seed

#: the two arms, in fixed row order
BACKENDS = ("replicated", "erasure")


def _rounds(config: DurabilityConfig, plan: FaultPlan) -> int:
    return config.rounds if config.rounds is not None else plan.rounds_hint


def _build_objects(config: DurabilityConfig, seeds: SeedSequenceFactory):
    """Deterministic (key, value) corpus shared by both arms."""
    rng = seeds.pyrandom("objects")
    objects: dict[int, bytes] = {}
    while len(objects) < config.num_objects:
        key = rng.getrandbits(128)
        if key in objects:
            continue
        objects[key] = rng.getrandbits(8 * config.object_bytes).to_bytes(
            config.object_bytes, "big"
        )
    return objects


def _make_store(config: DurabilityConfig, backend: str,
                network: PastryNetwork, acct: MetricsRegistry):
    if backend == "replicated":
        store = ReplicatedStore(network, config.replication_factor,
                                metrics=acct)
        return store, None, None
    store = ErasureStore(
        network, config.data_shares, config.total_shares,
        lease_term=config.lease_term, eager_repair=False, metrics=acct,
    )
    crawler = RepairCrawler(
        store, seed=derive_seed(config.seed, "durability", "crawler"),
        budget_bytes_per_epoch=config.crawler_budget_bytes,
        renew_before=config.renew_before, metrics=acct,
    )
    health = ShareHolderHealth()
    return store, crawler, health


def _fetch_state(store, key: int, expected: bytes, health) -> str:
    """'clean', 'corrupt', or 'unavailable' for one object probe."""
    try:
        if health is not None:
            obj = store.fetch(key, health=health)
        else:
            obj = store.fetch(key)
    except (StorageError, KeyError):
        return "unavailable"
    return "clean" if obj.value == expected else "corrupt"


def _durability_trial(
    config: DurabilityConfig,
    rep: int,
    backend: str,
    sinks: Sinks,
) -> list[dict]:
    plan = named_plan(config.plan)
    rounds = _rounds(config, plan)
    # No backend label in any stream below: both arms replay the same
    # overlay, corpus, and fault schedule.
    seeds = SeedSequenceFactory(derive_seed(config.seed, "durability", rep))
    id_rng = seeds.pyrandom("ids")
    ids = sorted({id_rng.getrandbits(128) for _ in range(config.num_nodes)})
    network = PastryNetwork.build(ids)

    # The accounting registry always exists — rows are computed from
    # it, so they cannot depend on whether telemetry was requested.
    acct = sinks.metrics if sinks.metrics is not None else MetricsRegistry()
    event_trace = sinks.event_trace

    store, crawler, health = _make_store(config, backend, network, acct)
    injector = StorageFaultInjector(seeds=seeds.spawn("storage"),
                                    event_trace=event_trace, metrics=acct)
    victims_rng = seeds.pyrandom("victims")

    objects = _build_objects(config, seeds)
    for key, value in objects.items():
        store.insert(key, value)

    prefix = "past" if backend == "replicated" else "erasure"
    bytes_counter = acct.counter(f"{prefix}.repair.bytes_moved")
    objects_counter = acct.counter(f"{prefix}.repair.objects_moved")
    lost_counter = acct.counter(f"{prefix}.objects.lost")

    rows: list[dict] = []
    pending_revivals: dict[int, list[int]] = {}
    seen_bytes = seen_objects = 0
    for round_idx in range(rounds):
        # -- scheduled crash / revive events ---------------------------
        for node_id in pending_revivals.pop(round_idx, []):
            network.revive(node_id)
            store.on_revive(node_id)
        for event in plan.node_events:
            if event.round != round_idx:
                continue
            pool = sorted(network.alive_ids)
            # keep enough nodes alive to hold a full share/replica set
            count = min(event.count,
                        max(0, len(pool) - config.total_shares - 1))
            if count <= 0:
                continue
            victims = sorted(victims_rng.sample(pool, count))
            for node_id in victims:
                network.fail(node_id)
                if event.repair:
                    store.on_fail(node_id)
            if event.recover_after is not None:
                pending_revivals.setdefault(
                    round_idx + event.recover_after, []
                ).extend(victims)

        # -- at-rest storage faults ------------------------------------
        for event in plan.storage_events:
            if event.round == round_idx:
                injector.apply_event(store, event)

        # -- lease clock + background repair (erasure arm only) --------
        crawl_backlog = 0
        if crawler is not None:
            store.advance_epoch()
            crawl_backlog = crawler.run_pass().keys_deferred

        # -- probe every object ----------------------------------------
        states = {"clean": 0, "corrupt": 0, "unavailable": 0}
        for key, expected in objects.items():
            states[_fetch_state(store, key, expected, health)] += 1
        total = len(objects)
        repair_bytes = bytes_counter.value - seen_bytes
        repair_objects = objects_counter.value - seen_objects
        seen_bytes, seen_objects = bytes_counter.value, objects_counter.value
        rows.append({
            "figure": "durability",
            "rep": rep,
            "backend": backend,
            "round": round_idx,
            "alive": len(network.alive_ids),
            "available": round((states["clean"] + states["corrupt"]) / total, 6),
            "clean": round(states["clean"] / total, 6),
            "corrupt_served": states["corrupt"],
            "objects_lost": lost_counter.value,
            "repair_bytes": repair_bytes,
            "repair_objects": repair_objects,
            "crawler_backlog": crawl_backlog,
        })
        if event_trace is not None:
            event_trace.record(
                "durability.round", rep=rep, backend=backend,
                round=round_idx, clean=rows[-1]["clean"],
                repair_bytes=repair_bytes,
            )

    final = rows[-1]
    rows.append({
        "figure": "durability-final",
        "rep": rep,
        "backend": backend,
        "rounds": rounds,
        "durability": final["clean"],
        "objects_lost": lost_counter.value,
        "total_repair_bytes": bytes_counter.value,
        "max_round_repair_bytes": max(
            r["repair_bytes"] for r in rows if r["figure"] == "durability"
        ),
        "stored_bytes_per_object": (
            config.object_bytes * config.replication_factor
            if backend == "replicated"
            else ((config.object_bytes + config.data_shares - 1)
                  // config.data_shares) * config.total_shares
        ),
    })
    return rows


def run_durability(
    config: DurabilityConfig = DurabilityConfig(),
    workers: int | None = None,
    sinks: Sinks | None = None,
) -> list[dict]:
    """The durability runner; (rep, backend) trials fan out over
    ``workers``.  Rows are identical for any worker count; the
    per-trial accounting registries merge into ``sinks.metrics`` in
    trial order, so the merged telemetry is too.

    Only node and at-rest storage events are applied here;
    :class:`DurabilityConfig` refuses a plan with any other fault.
    """
    results = run_trials(
        _durability_trial,
        [
            (config, rep, backend)
            for rep in range(config.num_seeds)
            for backend in BACKENDS
        ],
        workers,
        sinks=Sinks() if sinks is None else sinks,
    )
    return [row for rows in results for row in rows]


def summarize_rows(rows: list[dict]) -> dict:
    """The ``durability.*`` indicators for the run ledger / SLO gate.

    The report plane min-merges dotted summary keys across manifests,
    so every hard-gated key here is "higher is better"; the byte
    ceilings are informational unless only one manifest is present
    (the CI smoke layout).
    """
    out: dict = {}
    for backend in BACKENDS:
        per_round = [r for r in rows
                     if r.get("figure") == "durability"
                     and r["backend"] == backend]
        finals = [r for r in rows
                  if r.get("figure") == "durability-final"
                  and r["backend"] == backend]
        if not per_round:
            continue
        out[f"durability.{backend}.available_min"] = min(
            r["available"] for r in per_round
        )
        out[f"durability.{backend}.clean_min"] = min(
            r["clean"] for r in per_round
        )
        if finals:
            out[f"durability.{backend}.final_clean"] = min(
                r["durability"] for r in finals
            )
            out[f"durability.{backend}.repair_bytes_round_max"] = max(
                r["max_round_repair_bytes"] for r in finals
            )
    erasure_total = sum(
        r["total_repair_bytes"] for r in rows
        if r.get("figure") == "durability-final" and r["backend"] == "erasure"
    )
    replicated_total = sum(
        r["total_repair_bytes"] for r in rows
        if r.get("figure") == "durability-final"
        and r["backend"] == "replicated"
    )
    if replicated_total:
        out["durability.repair_bytes_ratio"] = round(
            erasure_total / replicated_total, 6
        )
    return out
