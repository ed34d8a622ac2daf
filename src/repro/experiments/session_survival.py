"""Extension experiment: long-running sessions under churn.

The paper's introduction motivates TAP with long-standing remote-login
sessions: fixed-node tunnels break whenever a relay fails, TAP tunnels
keep working.  This experiment runs request/response sessions while
nodes fail continuously and compares:

* **TAP sessions** (:class:`repro.core.session.TapSession`) — replica
  fail-over keeps the *same* tunnel working; reforms happen only when
  an entire replica set is lost between repairs;
* **fixed-node sessions** — the current-tunneling baseline; every
  relay failure breaks the tunnel and forces a reform before the next
  request can succeed.

Reported: request availability, tunnel reforms per session, and mean
requests survived by a single tunnel (its useful lifetime).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.fixed_tunnel import form_fixed_tunnel
from repro.core.session import SessionServer, TapSession
from repro.core.system import TapSystem
from repro.perf import Sinks, run_trials
from repro.util.rng import SeedSequenceFactory


@dataclass(frozen=True)
class SessionSurvivalConfig:
    num_nodes: int = 300
    sessions: int = 6
    requests_per_session: int = 12
    tunnel_length: int = 3
    #: nodes killed (with repair) between consecutive requests
    failures_per_request: tuple[int, ...] = (0, 1, 3)
    seed: int = 2004

    @classmethod
    def fast(cls) -> "SessionSurvivalConfig":
        return cls(num_nodes=200, sessions=4, requests_per_session=8,
                   failures_per_request=(0, 2))


class _FixedSession:
    """Current-tunneling baseline session with reform-on-failure."""

    def __init__(self, system: TapSystem, protected: set[int], length: int, rng):
        self.system = system
        self.protected = protected
        self.length = length
        self.rng = rng
        self.reforms = 0
        self.lifetimes: list[int] = []
        self._current_life = 0
        self._form()

    def _form(self) -> None:
        pool = [n for n in self.system.network.alive_ids if n not in self.protected]
        self.tunnel = form_fixed_tunnel(pool, self.length, self.rng, with_keys=False)

    def request(self) -> bool:
        """One request: succeeds iff all relays alive; reform after a
        failure so the *next* request can succeed."""
        if self.tunnel.functions(self.system.network.is_alive):
            self._current_life += 1
            return True
        self.lifetimes.append(self._current_life)
        self._current_life = 0
        self.reforms += 1
        self._form()
        return False

    def finish(self) -> None:
        self.lifetimes.append(self._current_life)


def _survival_level(
    config: SessionSurvivalConfig,
    churn: int,
    audit: bool,
    sinks: Sinks,
) -> dict:
    """One churn level on the base overlay of ``config.seed``, with its
    own labelled rng streams (seed ``config.seed + churn``)."""
    seeds = SeedSequenceFactory(config.seed)
    system = TapSystem.bootstrap(
        config.num_nodes, seed=config.seed + churn, overlay_seed=config.seed,
        metrics=sinks.metrics, event_trace=sinks.event_trace, tracer=sinks.tracer,
    )
    if audit:
        system.enable_auditing(strict=True)
    rng = seeds.pyrandom("session-churn", churn)

    # Set up TAP sessions and fixed baseline sessions on the same
    # overlay, then churn it under both simultaneously.
    tap_sessions: list[TapSession] = []
    protected: set[int] = set()
    for i in range(config.sessions):
        initiator = system.tap_node(system.random_node_id(("sess-init", churn, i)))
        server = SessionServer(
            system.random_node_id(("sess-server", churn, i)),
            handler=lambda req: b"ok:" + req,
        )
        protected.update({initiator.node_id, server.node_id})
        system.deploy_thas(initiator, count=config.tunnel_length * 3)
        tap_sessions.append(
            TapSession(system, initiator, server, config.tunnel_length)
        )
    fixed_sessions = [
        _FixedSession(system, protected, config.tunnel_length, rng)
        for _ in range(config.sessions)
    ]

    tap_ok = fixed_ok = total = 0
    for r in range(config.requests_per_session):
        # Churn between requests: kill random unprotected nodes.
        for _ in range(churn):
            candidates = [
                n for n in system.network.alive_ids if n not in protected
            ]
            if len(candidates) <= config.num_nodes // 2:
                break
            system.fail_node(candidates[rng.randrange(len(candidates))])

        for session in tap_sessions:
            total += 1
            if session.request(f"r{r}".encode()) is not None:
                tap_ok += 1
        for fixed in fixed_sessions:
            if fixed.request():
                fixed_ok += 1
    for fixed in fixed_sessions:
        fixed.finish()

    tap_reforms = sum(s.stats.tunnel_reforms for s in tap_sessions)
    fixed_reforms = sum(f.reforms for f in fixed_sessions)
    fixed_lifetimes = [x for f in fixed_sessions for x in f.lifetimes]
    return {
        "figure": "ext-sessions",
        "failures_per_request": churn,
        "tap_availability": tap_ok / total,
        "fixed_availability": fixed_ok / total,
        "tap_reforms": tap_reforms / config.sessions,
        "fixed_reforms": fixed_reforms / config.sessions,
        "fixed_mean_tunnel_life": (
            sum(fixed_lifetimes) / len(fixed_lifetimes)
            if fixed_lifetimes else float(config.requests_per_session)
        ),
    }


def run_session_survival(
    config: SessionSurvivalConfig = SessionSurvivalConfig(),
    workers: int | None = None,
    sinks: Sinks | None = None,
    audit: bool = False,
) -> list[dict]:
    """The churn runner.  ``sinks`` and ``audit`` thread
    :mod:`repro.obs` instrumentation through every system built — with
    a tracer, each session request becomes a ``session.request`` span
    tree covering its tunnel traversals and any ``session.reform``
    repairs.  Each churn level is independent (its own overlay and
    labelled rng streams), so ``workers`` fans the levels out over
    processes with identical rows and obs."""
    return run_trials(
        _survival_level,
        [(config, churn, audit) for churn in config.failures_per_request],
        workers,
        sinks=Sinks() if sinks is None else sinks,
    )
