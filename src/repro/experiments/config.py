"""Experiment configurations with the paper's parameters as defaults.

Each config is a frozen dataclass; ``fast()`` returns a scaled-down
variant for CI and quick exploration that preserves every qualitative
shape (who wins, monotonicity, knees) at ~100× less work.
"""

from __future__ import annotations

from dataclasses import dataclass


def _frange(start: float, stop: float, step: float) -> tuple[float, ...]:
    out = []
    x = start
    while x <= stop + 1e-9:
        out.append(round(x, 10))
        x += step
    return tuple(out)


@dataclass(frozen=True)
class Fig2Config:
    """Tunnel failure rate vs simultaneous node failure fraction."""

    num_nodes: int = 10_000
    num_tunnels: int = 5_000
    tunnel_length: int = 5
    failure_fractions: tuple[float, ...] = _frange(0.05, 0.50, 0.05)
    replication_factors: tuple[int, ...] = (3, 5)
    seed: int = 2004
    num_seeds: int = 3

    @classmethod
    def fast(cls) -> "Fig2Config":
        return cls(num_nodes=1_000, num_tunnels=500, num_seeds=2,
                   failure_fractions=_frange(0.1, 0.5, 0.1))


@dataclass(frozen=True)
class Fig3Config:
    """Corrupted tunnel rate vs malicious node fraction (k = 3)."""

    num_nodes: int = 10_000
    num_tunnels: int = 5_000
    tunnel_length: int = 5
    replication_factor: int = 3
    malicious_fractions: tuple[float, ...] = _frange(0.05, 0.30, 0.05)
    seed: int = 2004
    num_seeds: int = 3

    @classmethod
    def fast(cls) -> "Fig3Config":
        return cls(num_nodes=1_000, num_tunnels=500, num_seeds=2,
                   malicious_fractions=_frange(0.1, 0.3, 0.1))


@dataclass(frozen=True)
class Fig4Config:
    """Corruption vs replication factor (a) and tunnel length (b), p = 0.1."""

    num_nodes: int = 10_000
    num_tunnels: int = 5_000
    malicious_fraction: float = 0.1
    tunnel_length: int = 5  # fixed in sweep (a)
    replication_factor: int = 3  # fixed in sweep (b)
    replication_factors: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    tunnel_lengths: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    seed: int = 2004
    num_seeds: int = 3

    @classmethod
    def fast(cls) -> "Fig4Config":
        return cls(num_nodes=1_000, num_tunnels=500, num_seeds=2,
                   replication_factors=(1, 3, 5), tunnel_lengths=(1, 3, 5, 7))


@dataclass(frozen=True)
class Fig5Config:
    """Corruption over time under benign churn, refreshed vs not (k = 3)."""

    num_nodes: int = 10_000
    num_tunnels: int = 5_000
    tunnel_length: int = 5
    replication_factor: int = 3
    malicious_fraction: float = 0.1
    churn_per_unit: int = 100
    time_units: int = 20
    seed: int = 2004
    num_seeds: int = 3

    @classmethod
    def fast(cls) -> "Fig5Config":
        return cls(num_nodes=1_000, num_tunnels=500, churn_per_unit=10,
                   time_units=10, num_seeds=2)


@dataclass(frozen=True)
class Fig6Config:
    """Transfer latency vs network size: overt vs TAP basic/optimised."""

    network_sizes: tuple[int, ...] = (100, 500, 1_000, 2_000, 5_000, 10_000)
    tunnel_lengths: tuple[int, ...] = (3, 5)
    file_bits: float = 2_000_000.0  # the paper's 2 Mb file
    transfers_per_size: int = 50  # paper: 30 sims x 1,000 transfers
    min_latency_s: float = 0.010
    max_latency_s: float = 0.230
    bandwidth_bps: float = 1_500_000.0
    b_bits: int = 4
    #: proximity neighbour selection when building routing tables
    #: (FreePastry's locality feature; shortens physical routes)
    pns: bool = False
    seed: int = 2004
    num_seeds: int = 3

    @classmethod
    def fast(cls) -> "Fig6Config":
        return cls(network_sizes=(100, 500, 1_000), transfers_per_size=20,
                   num_seeds=1)


@dataclass(frozen=True)
class ScaleChurnConfig:
    """Replica-set survival under churn at 10^5 nodes (compact engine).

    Runs on :class:`repro.perf.compact.CompactOverlay` — the whole
    ring as sorted arrays — so the default ``num_nodes`` is 100k,
    three orders of magnitude past what per-node objects sustain.
    Each round fails a fraction of the alive set and admits fresh
    joiners, then measures how many anchor keys still have a member
    of their *original* replica set alive, and how far the current
    replica sets have drifted.  ``verify_routes`` packets of each
    trial's route sweep are re-routed through the scalar
    ``CompactOverlay.route`` and must agree hop-for-hop.
    """

    num_nodes: int = 100_000
    replication_factor: int = 3
    #: sampled keys whose replica sets are tracked across rounds
    num_anchors: int = 2_000
    churn_rounds: int = 5
    fail_fraction: float = 0.01
    join_fraction: float = 0.005
    #: per-trial batch-vs-scalar hop-for-hop cross-checks
    verify_routes: int = 8
    seed: int = 2004
    num_seeds: int = 2

    @classmethod
    def fast(cls) -> "ScaleChurnConfig":
        return cls(num_nodes=2_000, num_anchors=200, churn_rounds=3,
                   verify_routes=4)

    @classmethod
    def million(cls) -> "ScaleChurnConfig":
        """The N=10^6 operating point."""
        return cls(num_nodes=1_000_000, num_anchors=2_000, churn_rounds=3)


@dataclass(frozen=True)
class ScaleLatencyConfig:
    """Fig6-class direct-vs-tunnel latency at 10^5 nodes (batched plane).

    Runs entirely on the vectorised packet plane
    (:mod:`repro.perf.packet`): after ``churn_rounds`` of fail/join
    churn, every trial routes ``num_transfers`` direct transfers and
    the same number of TAP tunnels per ``tunnel_lengths`` arm as
    whole batches, then folds per-hop U[``min_latency_s``,
    ``max_latency_s``] link draws into per-packet latency sums on the
    trial's seed stream — the paper's figure 6 latency model at a
    network size the scalar router cannot sweep.  ``verify_routes``
    packets per trial are re-routed through the scalar
    ``CompactOverlay.route`` and must agree hop-for-hop.
    """

    num_nodes: int = 100_000
    num_transfers: int = 2_000
    tunnel_lengths: tuple[int, ...] = (3, 5)
    churn_rounds: int = 2
    fail_fraction: float = 0.01
    join_fraction: float = 0.005
    min_latency_s: float = 0.010
    max_latency_s: float = 0.230
    #: per-trial batch-vs-scalar hop-for-hop cross-checks
    verify_routes: int = 4
    seed: int = 2004
    num_seeds: int = 2

    @classmethod
    def fast(cls) -> "ScaleLatencyConfig":
        return cls(num_nodes=2_000, num_transfers=200, verify_routes=2)

    @classmethod
    def million(cls) -> "ScaleLatencyConfig":
        """The N=10^6 operating point."""
        return cls(num_nodes=1_000_000, num_transfers=2_000,
                   churn_rounds=1, verify_routes=4)


@dataclass(frozen=True)
class DurabilityConfig:
    """k-replication vs (k,n) erasure coding under a chaos plan.

    Both arms replay the *same* membership and at-rest fault schedule
    (same derived seed streams, no backend label) over same-id
    overlays; the replication arm repairs eagerly on failure, the
    erasure arm defers to a budget-bounded
    :class:`repro.past.crawler.RepairCrawler` pass per round.  Rows
    track per-round fetch availability, byte-clean fetch fraction
    (replication serves bit-rot silently; erasure rejects it), objects
    lost, and repair bytes moved.
    """

    num_nodes: int = 400
    num_objects: int = 64
    object_bytes: int = 256
    #: copies the replication baseline keeps (= total_shares, so both
    #: arms occupy the same holder sets and the same fault schedule
    #: hits the same nodes)
    replication_factor: int = 4
    data_shares: int = 2
    total_shares: int = 4
    lease_term: int = 8
    renew_before: int = 2
    #: crawler repair-bandwidth budget per epoch (bytes)
    crawler_budget_bytes: int = 16_384
    #: named fault plan (``repro.faults.NAMED_PLANS``); the storage
    #: plans ("bitrot", "lease-skew") exercise the at-rest faults
    plan: str = "bitrot"
    #: round count (None = the plan's ``rounds_hint``)
    rounds: int | None = None
    seed: int = 2004
    num_seeds: int = 2

    def __post_init__(self) -> None:
        # run_durability applies node and at-rest storage events only; a
        # run that skipped the plan's other faults would read as a pass
        from repro.faults.plan import named_plan

        plan = named_plan(self.plan)
        skipped = [what for what, scheduled in (
            ("message faults", plan.messages.any()),
            ("partitions", plan.partitions),
            ("Byzantine hops", plan.byzantine is not None),
        ) if scheduled]
        if skipped:
            raise ValueError(
                f"fault plan {plan.name!r} schedules {', '.join(skipped)}, "
                f"which only run_chaos applies (tap-repro chaos --plan "
                f"{plan.name})"
            )

    @classmethod
    def fast(cls) -> "DurabilityConfig":
        return cls(num_nodes=160, num_objects=32, object_bytes=128,
                   crawler_budget_bytes=8_192, num_seeds=2)
