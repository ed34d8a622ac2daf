"""PAST storage substrate: one placement core, two durability policies.

Reproduces the storage semantics TAP relies on (Rowstron & Druschel,
SOSP 2001, and FreePastry's replication manager): an object inserted
under key ``key`` is stored on the ``k`` alive nodes whose nodeids are
numerically closest to ``key``; the closest is the *root* (TAP's
"tunnel hop node"), the rest are candidates.  The replica set is
maintained across joins, leaves and failures, so the object remains
reachable unless all ``k`` holders fail before repair runs.

Who holds what — the holder index, the intended-holder sets, the
hand-off on membership events, the §3.4 delete walk — is written once,
in :class:`~repro.past.placement.PlacementCore`.  The two backends
subclass it and differ only in durability policy:

* :class:`ReplicatedStore` — k full copies, a lost one re-copied from
  the closest survivor (the paper's baseline);
* :class:`ErasureStore` — k-of-n coded shares with hash-tree
  integrity, leases, and a background :class:`RepairCrawler`.
"""

from repro.past.storage import Storage, StoredObject, StorageError
from repro.past.replication import ReplicatedStore, ReplicationError
from repro.past.interface import (
    REPAIR_BANDWIDTH_BPS,
    repair_latency_s,
    value_nbytes,
)
from repro.past.coding import CodingError, decode, encode, share_length
from repro.past.hashtree import HashTree, fold_path, leaf_digest, verify_share
from repro.past.erasure import CodedShare, ErasureStore
from repro.past.crawler import CrawlReport, RepairCrawler

__all__ = [
    "Storage",
    "StoredObject",
    "StorageError",
    "ReplicatedStore",
    "ReplicationError",
    "REPAIR_BANDWIDTH_BPS",
    "repair_latency_s",
    "value_nbytes",
    "CodingError",
    "decode",
    "encode",
    "share_length",
    "HashTree",
    "fold_path",
    "leaf_digest",
    "verify_share",
    "CodedShare",
    "ErasureStore",
    "CrawlReport",
    "RepairCrawler",
]
