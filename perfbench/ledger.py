"""What the traced pass records, and the per-layer metrics made of it.

A layer is a module of the program (``repro.crypto`` → ``crypto.*``).
``TARGETS`` lists the public callables that become spans; a span's
name is ``<layer>.<what>`` and spans of one name share a totals row
(calls, self time, weight).  ``per_layer`` turns the rows into the
metrics ``BENCHMARK.json`` names; ``perfbench/README.md`` says which
end-to-end metric each is expected to move.
"""

from __future__ import annotations

from repro.core.deploy import ThaDeployer
from repro.crypto import onion
from repro.crypto.asymmetric import RsaKeyPair, RsaPublicKey
from repro.crypto.symmetric import SymmetricKey
from repro.past.replication import ReplicatedStore
from repro.past.storage import Storage
from repro.pastry.network import PastryNetwork
from repro.perf.compact import CompactOverlay, CompactSnapshot
from repro.simnet.events import Simulator
from repro.simnet.network import SimNetwork
from repro.util import serialize


def _sealed_bytes(args) -> int:
    return len(args[1])


#: (span name, class or module, attribute, weigh)
TARGETS = (
    ("crypto.keyinit", SymmetricKey, "__init__", None),
    ("crypto.sym", SymmetricKey, "seal", _sealed_bytes),
    ("crypto.sym", SymmetricKey, "open", _sealed_bytes),
    ("crypto.rsa_keygen", RsaKeyPair, "generate", None),
    ("crypto.rsa_crypt", RsaKeyPair, "decrypt", None),
    ("crypto.rsa_crypt", RsaPublicKey, "encrypt", None),
    ("crypto.onion_build", onion, "build_onion", None),
    ("crypto.onion_build", onion, "build_reply_onion", None),
    ("crypto.onion_build", onion, "make_fake_onion", None),
    ("crypto.onion_peel", onion, "peel_layer", None),
    ("util.serialize", serialize, "pack_fields", None),
    ("util.serialize", serialize, "unpack_fields", None),
    ("util.serialize", serialize, "unpack_fields_view", None),
    ("pastry.route", PastryNetwork, "route", None),
    ("pastry.closest_alive", PastryNetwork, "closest_alive", None),
    ("pastry.closest_alive", PastryNetwork, "replica_candidates", None),
    ("pastry.membership", PastryNetwork, "fail", None),
    ("pastry.membership", PastryNetwork, "revive", None),
    ("pastry.build", PastryNetwork, "build", None),
    ("past.lookup", ReplicatedStore, "storage_of", None),
    ("past.lookup", Storage, "lookup", None),
    ("past.lookup", Storage, "contains", None),
    ("past.insert", ReplicatedStore, "insert", None),
    ("past.repair", ReplicatedStore, "on_fail", None),
    ("past.repair", ReplicatedStore, "on_revive", None),
    ("core.deploy", ThaDeployer, "deploy", None),
    ("simnet.run", Simulator, "run", None),
    ("simnet.send", SimNetwork, "send", None),
    ("perf.restore", CompactSnapshot, "restore", None),
    ("perf.churn", CompactOverlay, "fail_positions", None),
    ("perf.churn", CompactOverlay, "alive_positions", None),
    ("perf.route", CompactOverlay, "route_tunnels", None),
    ("perf.replica", CompactOverlay, "replica_positions", None),
)

#: name -> unit, in report order
PER_LAYER = {
    "crypto.sym_calls_per_op": "count",
    "crypto.sym_us_per_op": "us",
    "crypto.sym_bytes_per_op": "B",
    "crypto.keyinit_calls_per_op": "count",
    "crypto.keyinit_us_per_op": "us",
    "crypto.rsa_keygen_calls_per_op": "count",
    "crypto.rsa_keygen_us_per_op": "us",
    "crypto.rsa_crypt_us_per_op": "us",
    "crypto.onion_build_us_per_op": "us",
    "crypto.onion_peel_us_per_op": "us",
    "crypto.onion_peels_per_op": "count",
    "crypto.setup_s": "s",
    "util.serialize_calls_per_op": "count",
    "util.serialize_us_per_op": "us",
    "pastry.route_calls_per_op": "count",
    "pastry.route_us_per_op": "us",
    "pastry.route_links_per_op": "count",
    "pastry.route_cache_hit_frac": "frac",
    "pastry.closest_alive_us_per_op": "us",
    "pastry.membership_events": "count",
    "pastry.membership_us_per_event": "us",
    "pastry.build_s": "s",
    "past.lookup_calls_per_op": "count",
    "past.lookup_us_per_op": "us",
    "past.repair_us_per_event": "us",
    "past.repair_objects_per_event": "count",
    "past.insert_us_per_object": "us",
    "core.self_us_per_op": "us",
    "core.event_self_us_per_event": "us",
    "core.deploy_us_per_tha": "us",
    "core.links_per_op": "count",
    "core.promotions": "count",
    "core.retries": "count",
    "core.reforms": "count",
    "core.goodput_mib_s": "MiB/s",
    "simnet.events_per_op": "count",
    "simnet.sched_us_per_op": "us",
    "simnet.send_us_per_op": "us",
    "simnet.max_queue_len": "count",
    "perf.restore_us_per_round": "us",
    "perf.churn_us_per_round": "us",
    "perf.route_us_per_leg": "us",
    "perf.legs_per_op": "count",
    "perf.hops_per_leg": "count",
    "perf.replica_us_per_key": "us",
    "perf.scratch_mib": "MiB",
    "obs.trace_overhead_frac": "frac",
    "obs.metrics_on_overhead_frac": "frac",
    "driver.p99_us": "us",
    "driver.samples": "count",
    "driver.segment_spread_frac": "frac",
    "driver.gc_collections": "count",
    "driver.unattributed_frac": "frac",
    "driver.traced_us_per_op": "us",
}

LAYERS = ("crypto", "util", "pastry", "past", "core", "simnet", "perf")


def layer_self_us_per_op(timed: dict, ops: int) -> dict[str, float]:
    """Self time of every layer per operation — the rows that must sum
    to the traced per-operation time."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, (_, self_ns, _) in timed.items():
        out[name.split(".")[0]] += self_ns / 1000.0 / ops
    return out


def per_layer(timed: dict, setup: dict, ops: int, events: int, deployed_thas: int,
              counts: dict, counters: dict, extra: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run.

    ``timed``/``setup`` are the tracer's totals for the traced segments
    and for the traced set-up, ``ops``/``events`` the operations and
    membership events of the traced segments, ``counts`` the workload's
    exact counts over them, ``counters`` the program's own
    ``MetricsRegistry`` readings over them, ``extra`` the metrics the
    driver measures itself.
    """
    def calls(name, table=timed):
        return table.get(name, (0, 0, 0))[0]

    def self_us(name, table=timed):
        return table.get(name, (0, 0, 0))[1] / 1000.0

    def per(value, count):
        return value / count if count else 0.0

    routing_calls = calls("pastry.route") + calls("pastry.next_hop")
    rounds = calls("perf.restore")
    legs = counts.get("legs", 0)
    metrics = {
        "crypto.sym_calls_per_op": per(calls("crypto.sym"), ops),
        "crypto.sym_us_per_op": per(self_us("crypto.sym"), ops),
        "crypto.sym_bytes_per_op": per(timed.get("crypto.sym", (0, 0, 0))[2], ops),
        "crypto.keyinit_calls_per_op": per(calls("crypto.keyinit"), ops),
        "crypto.keyinit_us_per_op": per(self_us("crypto.keyinit"), ops),
        "crypto.rsa_keygen_calls_per_op": per(calls("crypto.rsa_keygen"), ops),
        "crypto.rsa_keygen_us_per_op": per(self_us("crypto.rsa_keygen"), ops),
        "crypto.rsa_crypt_us_per_op": per(self_us("crypto.rsa_crypt"), ops),
        "crypto.onion_build_us_per_op": per(self_us("crypto.onion_build"), ops),
        "crypto.onion_peel_us_per_op": per(self_us("crypto.onion_peel"), ops),
        "crypto.onion_peels_per_op": per(calls("crypto.onion_peel"), ops),
        "crypto.setup_s": sum(
            row[1] for name, row in setup.items() if name.startswith("crypto.")
        ) / 1e9,
        "util.serialize_calls_per_op": per(calls("util.serialize"), ops),
        "util.serialize_us_per_op": per(self_us("util.serialize"), ops),
        "pastry.route_calls_per_op": per(routing_calls, ops),
        "pastry.route_us_per_op": per(
            self_us("pastry.route") + self_us("pastry.next_hop"), ops),
        "pastry.route_links_per_op": per(counters.get("route_hops", 0), ops),
        "pastry.route_cache_hit_frac": per(
            counters.get("route_cache_hits", 0), counters.get("route_count", 0)),
        "pastry.closest_alive_us_per_op": per(self_us("pastry.closest_alive"), ops),
        "pastry.membership_events": events,
        "pastry.membership_us_per_event": per(self_us("pastry.membership"), events),
        "pastry.build_s": self_us("pastry.build", setup) / 1e6,
        "past.lookup_calls_per_op": per(calls("past.lookup"), ops),
        "past.lookup_us_per_op": per(self_us("past.lookup"), ops),
        "past.repair_us_per_event": per(self_us("past.repair"), events),
        "past.repair_objects_per_event": per(counters.get("repair_objects", 0), events),
        "past.insert_us_per_object": per(
            self_us("past.insert", setup), calls("past.insert", setup)),
        "core.self_us_per_op": per(
            self_us("core.request") + self_us("core.emu_handle"), ops),
        "core.event_self_us_per_event": per(self_us("core.event"), events),
        "core.deploy_us_per_tha": per(
            self_us("core.deploy", setup), deployed_thas),
        "core.links_per_op": per(counts.get("links", 0), ops),
        "core.promotions": counts.get("promotions", 0),
        "core.retries": counts.get("retries", 0),
        "core.reforms": counts.get("reforms", 0),
        "simnet.events_per_op": per(counts.get("sim_events", 0), ops),
        "simnet.sched_us_per_op": per(self_us("simnet.run"), ops),
        "simnet.send_us_per_op": per(self_us("simnet.send"), ops),
        "perf.restore_us_per_round": per(self_us("perf.restore"), rounds),
        "perf.churn_us_per_round": per(self_us("perf.churn"), rounds),
        "perf.route_us_per_leg": per(self_us("perf.route"), legs),
        "perf.legs_per_op": per(legs, ops),
        "perf.hops_per_leg": per(counts.get("hops", 0), legs),
        "perf.replica_us_per_key": per(self_us("perf.replica"), ops if rounds else 0),
    }
    metrics.update(extra)
    if metrics.keys() != PER_LAYER.keys():
        raise RuntimeError(f"per-layer metrics out of step: {metrics.keys() ^ PER_LAYER.keys()}")
    return metrics
