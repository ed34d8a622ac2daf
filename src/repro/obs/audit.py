"""Invariant auditor: systematic health checks after membership events.

Wraps :meth:`repro.past.replication.ReplicatedStore.verify_invariants`
and adds the Pastry-level checks the store cannot see:

* ``sorted-alive`` — the network's alive ids are strictly ascending,
  and no id is both alive and down;
* ``memo-coherence`` — every memoised decision the network would
  serve now (a node's ``next_hop`` memo entry whose stamps hold, a
  route-memo entry that is current or would revalidate) equals a fresh
  decision.  Leaf windows and routing cells are read from the alive
  ids, so a stale memo — a window or class stamp a membership event
  missed — is the one way a route can go wrong;
* ``storage-index`` — every object physically present on an *alive*
  node is attributed to that node by the store's holder index, and
  vice versa (dead nodes legitimately keep unreachable stale copies
  until revival reconciles them).

The auditor is cheap enough to run after every membership event in an
experiment (``O(N + memo entries + objects)``); wire it through
:meth:`repro.core.system.TapSystem.enable_auditing` or run it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pastry.network import PastryNetwork


class InvariantViolationError(AssertionError):
    """Raised by :meth:`InvariantAuditor.assert_clean` on violations."""


@dataclass
class AuditReport:
    """Outcome of one audit pass."""

    context: str = ""
    violations: list[str] = field(default_factory=list)
    checks_run: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        head = f"audit[{self.context or 'adhoc'}]: "
        if self.clean:
            return head + f"clean ({self.checks_run} checks)"
        return head + f"{len(self.violations)} violation(s)\n" + "\n".join(
            f"  - {v}" for v in self.violations
        )


class InvariantAuditor:
    """Run overlay + storage invariant checks over live state."""

    def __init__(self, network: PastryNetwork, store=None, metrics=None):
        self.network = network
        self.store = store
        self.metrics = metrics
        #: reports accumulated by :meth:`run` (most recent last)
        self.history: list[AuditReport] = []

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self, context: str = "") -> AuditReport:
        report = AuditReport(context=context)
        checks = [
            self._check_sorted_alive,
            self._check_memos,
        ]
        if self.store is not None:
            checks.append(self._check_store)
        for check in checks:
            report.checks_run += 1
            check(report)
        self.history.append(report)
        if self.metrics is not None:
            self.metrics.counter("obs.audit.runs").inc()
            self.metrics.counter("obs.audit.violations").inc(
                len(report.violations)
            )
        return report

    def assert_clean(self, context: str = "") -> AuditReport:
        report = self.run(context)
        if not report.clean:
            raise InvariantViolationError(str(report))
        return report

    # ------------------------------------------------------------------
    # pastry checks
    # ------------------------------------------------------------------
    def _check_sorted_alive(self, report: AuditReport) -> None:
        ids = self.network.alive_ids
        for prev, cur in zip(ids, ids[1:]):
            if prev >= cur:
                report.violations.append(
                    f"sorted-alive: index not strictly ascending at {cur:#x}"
                )
        for nid in sorted(self.network.down_ids.intersection(ids)):
            report.violations.append(
                f"sorted-alive: {nid:#x} indexed alive but down"
            )

    def _check_memos(self, report: AuditReport) -> None:
        network = self.network
        for nid in network.alive_ids:
            for key, got in network.served_hops(nid):
                want = network.decide(nid, key)
                if got != want:
                    report.violations.append(
                        f"memo-coherence: {nid:#x} memoises "
                        f"{got:#x} for {key:#x}, decides {want:#x}"
                    )
        for (src, key), (path, stamps, epoch) in network._route_cache.items():
            if epoch != network.membership_epoch and not network._stamps_hold(stamps):
                continue
            if not network.is_alive(src):
                continue  # refused before the memo is read
            walk = [src]
            while len(walk) <= network.MAX_HOPS:
                nxt = network.decide(walk[-1], key)
                if nxt == walk[-1]:
                    break
                walk.append(nxt)
            if tuple(walk) != path:
                report.violations.append(
                    f"memo-coherence: route {src:#x} -> {key:#x} memoised "
                    f"{' > '.join(map(hex, path))}, walks {' > '.join(map(hex, walk))}"
                )

    # ------------------------------------------------------------------
    # storage checks
    # ------------------------------------------------------------------
    def _check_store(self, report: AuditReport) -> None:
        store = self.store
        report.violations.extend(
            f"replica-set: {problem}" for problem in store.verify_invariants()
        )
        # index -> storage: every attributed live holder really holds it
        for key in store.all_keys():
            for holder in store.holders(key):
                if not self.network.is_alive(holder):
                    continue
                if not store.storage_of(holder).contains(key):
                    report.violations.append(
                        f"storage-index: {holder:#x} indexed for "
                        f"{key:#x} but holds no copy"
                    )
        # storage -> index: no alive node holds an unattributed object
        for nid in self.network.alive_ids:
            storage = store.storages.get(nid)
            if storage is None:
                continue
            for key in storage.keys():
                if nid not in store.holders(key):
                    report.violations.append(
                        f"storage-index: {nid:#x} holds stale copy of "
                        f"{key:#x} absent from the holder index"
                    )
