"""Background verify/repair crawler for the erasure backend.

The deployed-world counterpart of ``ReplicatedStore``'s eager
membership hooks: instead of re-coding at the instant a holder dies,
an :class:`ErasureStore` in lazy mode (``eager_repair=False``) only
records the damage, and this crawler walks the key space as a
deterministic background job — one budgeted pass per epoch — doing
four things per object:

1. **verify** every live holder's share against the object hash tree
   and drop the ones bit-rot broke;
2. **renew leases** that would lapse within ``renew_before`` epochs
   (and only those, so a pass over a healthy store mutates nothing —
   the idempotence contract pinned in ``tests/past/test_crawler.py``);
3. **re-code** missing/corrupt shares from any ``k`` healthy ones via
   :meth:`ErasureStore.repair_key`;
4. **account** the bytes it moved against a per-epoch repair-bandwidth
   budget, stopping the pass once the budget is spent and resuming
   from a cursor next epoch — so full recovery completes within a
   bounded number of epochs instead of one unbounded burst.

Everything is deterministic: the only randomness is the crawl phase
(which key the first pass starts from), drawn once from a
:func:`derive_seed` stream so budget-starved passes do not always
starve the same suffix of the key space.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

from repro.past.erasure import ErasureStore
from repro.util.rng import derive_seed, make_pyrandom


@dataclass
class CrawlReport:
    """What one crawler pass did (all counts are this pass only)."""

    epoch: int
    keys_scanned: int = 0
    shares_verified: int = 0
    corrupt_found: int = 0
    leases_renewed: int = 0
    objects_repaired: int = 0
    shares_rebuilt: int = 0
    bytes_moved: int = 0
    objects_lost: int = 0
    #: the pass stopped on budget, not on completing the cycle
    budget_exhausted: bool = False
    #: keys left un-scanned when the budget ran out
    keys_deferred: int = 0


class RepairCrawler:
    """Cursor-resumable verify/repair walker over one ErasureStore."""

    def __init__(
        self,
        store: ErasureStore,
        seed: int = 0,
        *,
        budget_bytes_per_epoch: int | None = 64 * 1024,
        renew_before: int = 2,
        metrics=None,
        tracer=None,
    ):
        if renew_before < 0:
            raise ValueError("renew_before must be >= 0")
        if budget_bytes_per_epoch is not None and budget_bytes_per_epoch < 1:
            raise ValueError("budget must be >= 1 byte (or None = unbounded)")
        self.store = store
        self.budget_bytes_per_epoch = budget_bytes_per_epoch
        self.renew_before = renew_before
        self.metrics = metrics if metrics is not None else store.metrics
        self.tracer = tracer if tracer is not None else store.tracer
        self.passes = 0
        #: key the next pass resumes from (None = start a fresh cycle)
        self._cursor: int | None = None
        self._phase_rng = make_pyrandom(derive_seed(seed, "past", "crawler"))

    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.counter(name).inc(amount)

    def _scan_order(self, keys: list[int]) -> list[int]:
        """Keys in crawl order: sorted, rotated to the cursor (or to a
        seeded phase on a fresh cycle)."""
        if not keys:
            return []
        if self._cursor is None:
            start = self._phase_rng.randrange(len(keys))
        else:
            # resume at the first key >= cursor (the cursor key itself
            # may have been deleted or lost since last pass)
            start = 0
            for i, key in enumerate(keys):
                if key >= self._cursor:
                    start = i
                    break
        return keys[start:] + keys[:start]

    def _scan_key(self, key: int, report: CrawlReport) -> int:
        """Verify, renew and repair one object; returns bytes moved."""
        store = self.store
        holders = store.holders(key)
        if not holders:
            return 0
        report.keys_scanned += 1
        needs_repair = False
        live = sorted(h for h in holders if store.network.is_alive(h))
        for holder in live:
            share = store.stored_share(holder, key)
            if share is None:
                needs_repair = True
                continue
            report.shares_verified += 1
            if not share.verify():
                report.corrupt_found += 1
                needs_repair = True
                continue
            remaining = share.lease_expiry - store.node_epoch(holder)
            if remaining <= self.renew_before:
                store.renew_lease(holder, key)
                report.leases_renewed += 1
        if len(live) < store.n or needs_repair or set(live) != set(
            store.replica_set(key)
        ):
            moved, nbytes = store.repair_key(key)
            if moved:
                report.objects_repaired += 1
                report.shares_rebuilt += moved
                report.bytes_moved += nbytes
                store._charge_repair(moved, nbytes)
            if not store.holders(key):
                report.objects_lost += 1
            return nbytes
        return 0

    def run_pass(self) -> CrawlReport:
        """One budgeted pass: scan from the cursor until the cycle
        completes or the per-epoch byte budget is spent."""
        store = self.store
        report = CrawlReport(epoch=store.epoch)
        self.passes += 1
        tr = self.tracer
        cm = tr.span("crawler.pass", observer="crawler",
                     epoch=store.epoch) if tr else nullcontext()
        with cm as span:
            order = self._scan_order(store.all_keys())
            spent = 0
            budget = self.budget_bytes_per_epoch
            for i, key in enumerate(order):
                if budget is not None and spent >= budget:
                    report.budget_exhausted = True
                    report.keys_deferred = len(order) - i
                    self._cursor = key
                    break
                spent += self._scan_key(key, report)
            else:
                self._cursor = None
            self._count("crawler.passes")
            self._count("crawler.keys_scanned", report.keys_scanned)
            self._count("crawler.shares_verified", report.shares_verified)
            self._count("crawler.corrupt_found", report.corrupt_found)
            self._count("crawler.leases_renewed", report.leases_renewed)
            self._count("crawler.shares_rebuilt", report.shares_rebuilt)
            self._count("crawler.bytes_moved", report.bytes_moved)
            self._count("crawler.objects_lost", report.objects_lost)
            if report.budget_exhausted:
                self._count("crawler.budget_exhausted")
            if span is not None:
                span.set(
                    keys_scanned=report.keys_scanned,
                    corrupt_found=report.corrupt_found,
                    leases_renewed=report.leases_renewed,
                    shares_rebuilt=report.shares_rebuilt,
                    bytes_moved=report.bytes_moved,
                    budget_exhausted=report.budget_exhausted,
                )
        return report
