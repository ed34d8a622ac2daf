"""Secure routing to tunnel hop nodes (paper §9 / extended report).

"A big concern is how a message can be securely routed to a tunnel hop
node given a hopid in P2P overlays where a fraction of nodes are
malicious."  Following Castro et al., *Secure routing for structured
peer-to-peer overlay networks* (OSDI 2002) — the work TAP's extended
report builds on — we implement:

* the **routing failure test**: the responder to a lookup must present
  its *neighbor set* (leaf set) along with the claimed root.  The
  seeker checks
  (1) **density** — the presented set's average id spacing must be
  comparable to the seeker's own leaf-set density.  A coalition
  forging a set from its own (certified) member ids can only offer a
  set ~1/p times sparser;
  (2) **closest-wins** — no presented neighbor may be closer to the
  key than the claimed root.  An impostor presenting its *true* leaf
  set (to pass the density check) thereby exposes honest nodes that
  sit between it and the key.
  Either forgery strategy trips one of the two checks w.h.p.
* **redundant routing** — the query travels over several diverse first
  hops; the numerically closest verified candidate wins.

The attack model (:class:`RoutingInterceptor`) lets any malicious
*relay* capture a message en route and answer with the coalition
member closest to the key, presenting the most favourable neighbor set
it can assemble from real coalition ids (invented ids would fail
nodeId certification, which Castro et al. assume and we inherit).

A finding our benches make explicit (and that matches Castro et al.'s
analysis): because Pastry routes *converge* in the key's prefix
neighbourhood, interception events are highly correlated across
redundant paths — when one path is hijacked near the key, usually all
are.  Redundancy buys liveness; the failure test is what converts
*silent deception* into *detected failure* (the seeker raises an alarm
and can retry or re-bootstrap), which is the security metric the
experiments report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.pastry.network import PastryNetwork, RoutingError
from repro.util.ids import ID_SPACE, closest_ids, ring_distance

#: how many neighbor ids a lookup response must present
NEIGHBOR_SET_SIZE = 16


@dataclass
class RoutingInterceptor:
    """Colluding relays that hijack routes passing through them.

    When a route's next hop is a coalition node *en route* (a malicious
    node that legitimately is the destination is not an interception),
    the coalition captures the message and answers with its member
    closest to the key, plus the best forgeable neighbor set:
    coalition ids around the impostor (``forge_honest_set=False``) or
    the impostor's true leaf set (``forge_honest_set=True``).
    """

    malicious_ids: set[int]
    forge_honest_set: bool = False

    def __post_init__(self) -> None:
        self._sorted = sorted(self.malicious_ids)

    def is_malicious(self, node_id: int) -> bool:
        return node_id in self.malicious_ids

    def fake_root(self, key: int) -> int:
        """The coalition's best impostor for a key."""
        if not self._sorted:
            raise ValueError("empty coalition cannot forge a root")
        return closest_ids(self._sorted, key, 1)[0]

    def forged_neighbor_set(self, network: PastryNetwork, fake: int) -> list[int]:
        """The neighbor set presented alongside the impostor."""
        if self.forge_honest_set:
            # Present the impostor's genuine leaf set: dense, but it
            # exposes honest nodes that may be closer to the key.
            return network.leaves(fake)
        pool = [m for m in self._sorted if m != fake]
        return closest_ids(pool, fake, min(NEIGHBOR_SET_SIZE, len(pool)))

    def route(
        self, network: PastryNetwork, src_id: int, key: int
    ) -> tuple[tuple[int, ...], list[int] | None]:
        """Route with en-route interception: ``(path, forged neighbor
        set)``.  A hijacked path ends at the impostor and comes with
        the forged set (the *client* cannot tell yet); an honest one
        comes with ``None``."""
        path = network.route(src_id, key)
        for idx in range(1, len(path) - 1):
            if self.is_malicious(path[idx]):
                fake = self.fake_root(key)
                return path[: idx + 1] + (fake,), self.forged_neighbor_set(network, fake)
        return path, None


def honest_neighbor_set(network: PastryNetwork, root: int) -> list[int]:
    """What an honest root presents: its actual leaf set."""
    return network.leaves(root)


def estimate_id_spacing(network: PastryNetwork, observer_id: int) -> float:
    """The observer's local estimate of mean inter-node id spacing,
    from its own (trusted) leaf set."""
    return neighbor_set_spacing(sorted(network.leaves(observer_id) + [observer_id]))


def neighbor_set_spacing(sorted_members: list[int]) -> float:
    """Mean gap of a presented neighbor set (arc span / gap count)."""
    n = len(sorted_members)
    if n < 2:
        return float(ID_SPACE)
    # The set occupies an arc; measure it as the complement of the
    # largest gap between consecutive members on the ring.
    gaps = [
        (sorted_members[(i + 1) % n] - sorted_members[i]) % ID_SPACE
        for i in range(n)
    ]
    span = ID_SPACE - max(gaps)
    if span <= 0:
        return float(ID_SPACE)
    return span / (n - 1)


def routing_failure_test(
    network: PastryNetwork,
    observer_id: int,
    key: int,
    claimed_root: int,
    neighbor_set: list[int],
    density_factor: float = 2.5,
) -> bool:
    """Castro-style verification of a lookup response.

    Checks (1) the presented neighbor set is at least 1/density_factor
    as dense as the observer's own neighbourhood, and (2) neither the
    set nor its members are closer to the key than the claimed root.
    Honest responses pass both with overwhelming probability; forged
    responses fail one of them (see module docstring).
    """
    if len(neighbor_set) < 2:
        return False  # a real node always has neighbours to show
    own_spacing = estimate_id_spacing(network, observer_id)
    presented_spacing = neighbor_set_spacing(sorted(neighbor_set))
    if presented_spacing > density_factor * own_spacing:
        return False
    root_key = (ring_distance(claimed_root, key), claimed_root)
    for member in neighbor_set:
        if (ring_distance(member, key), member) < root_key:
            return False
    return True


@dataclass
class SecureRouteResult:
    """Outcome of redundant verified routing."""

    key: int
    accepted_root: int | None
    candidates: list[int] = field(default_factory=list)
    rejected: list[int] = field(default_factory=list)
    paths_used: int = 0
    hijacked_paths: int = 0

    @property
    def alarm(self) -> bool:
        """Every candidate failed verification: routing failure
        *detected* — the seeker knows not to trust the lookup."""
        return self.accepted_root is None and bool(self.candidates)


def secure_route(
    network: PastryNetwork,
    src_id: int,
    key: int,
    interceptor: RoutingInterceptor | None = None,
    redundancy: int = 3,
    density_factor: float = 2.5,
    rng: random.Random | None = None,
) -> SecureRouteResult:
    """Route redundantly over diverse first hops and verify results.

    Launches the query through up to ``redundancy`` distinct leaf-set
    neighbours (plus directly), applies the routing failure test to
    every response, and accepts the numerically closest verified root.
    """
    if not network.is_alive(src_id):
        raise RoutingError(f"source {src_id:#x} is not alive")
    rng = rng or random.Random(key & 0xFFFFFFFF)

    starts = [src_id]
    # the shuffle starts from set order, which the pinned rows digests
    # depend on
    neighbours = list(set(network.leaves(src_id)))
    rng.shuffle(neighbours)
    starts.extend(neighbours[: max(0, redundancy - 1)])

    result = SecureRouteResult(key=key, accepted_root=None)
    for start in starts:
        result.paths_used += 1
        if interceptor is not None:
            if interceptor.is_malicious(start):
                # Handing the query to a malicious neighbour is an
                # immediate hijack.
                candidate = interceptor.fake_root(key)
                forged = interceptor.forged_neighbor_set(network, candidate)
            else:
                path, forged = interceptor.route(network, start, key)
                candidate = path[-1]
        else:
            candidate, forged = network.route(start, key)[-1], None
        if forged is None:
            neighbor_set = honest_neighbor_set(network, candidate)
        else:
            neighbor_set = forged
            result.hijacked_paths += 1
        result.candidates.append(candidate)
        if routing_failure_test(
            network, src_id, key, candidate, neighbor_set, density_factor
        ):
            if (
                result.accepted_root is None
                or (ring_distance(candidate, key), candidate)
                < (ring_distance(result.accepted_root, key), result.accepted_root)
            ):
                result.accepted_root = candidate
        else:
            result.rejected.append(candidate)
    return result
