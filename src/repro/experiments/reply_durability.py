"""Extension experiment: reply-path durability (the §1 email claim).

Send anonymous mails, churn the overlay (nodes leave, replication
repairs), then reply to everything.  TAP reply tunnels resolve hop ids
against the *current* overlay, so they survive as long as replica
repair kept the anchors alive; remailer-style fixed return paths die
with their recorded relays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.theory import tunnel_failure_prob_current
from repro.core.system import TapSystem
from repro.extensions.anonmail import AnonymousMail, FixedReturnPath
from repro.util.rng import SeedSequenceFactory


@dataclass(frozen=True)
class ReplyDurabilityConfig:
    num_nodes: int = 300
    mails: int = 10
    tunnel_length: int = 3
    churn_fractions: tuple[float, ...] = (0.0, 0.1, 0.3, 0.5)
    seed: int = 2004

    @classmethod
    def fast(cls) -> "ReplyDurabilityConfig":
        return cls(num_nodes=200, mails=6, churn_fractions=(0.0, 0.3))


def run_reply_durability(
    config: ReplyDurabilityConfig = ReplyDurabilityConfig(),
) -> list[dict]:
    seeds = SeedSequenceFactory(config.seed)
    rows: list[dict] = []

    # One base overlay for the whole sweep; each churn level runs on it
    # with its own behavioural seed.
    for churn in config.churn_fractions:
        system = TapSystem.bootstrap(
            config.num_nodes, seed=config.seed + round(churn * 100),
            overlay_seed=config.seed,
        )
        mail = AnonymousMail(system)
        rng = seeds.pyrandom("durability", churn)

        # Send phase: TAP mails plus recorded fixed return paths over
        # the same relay population.
        sent = []
        protected = set()
        for i in range(config.mails):
            alice = system.tap_node(system.random_node_id(("mail-from", churn, i)))
            bob = system.random_node_id(("mail-to", churn, i))
            protected.update({alice.node_id, bob})
            system.deploy_thas(alice, count=config.tunnel_length * 2)
            fwd = system.form_tunnel(alice, config.tunnel_length)
            rpl = system.form_reply_tunnel(alice, config.tunnel_length)
            handle = mail.send(alice, bob, f"mail-{i}".encode(), fwd, rpl)
            assert handle.delivered
            fixed = FixedReturnPath.record(
                [n for n in system.network.alive_ids if n not in protected],
                config.tunnel_length,
                rng,
            )
            sent.append((alice, bob, handle, fixed))

        # Churn phase: a fraction of (unprotected) nodes leaves, with
        # replica repair running — ordinary overlay life, not a flash
        # crowd of simultaneous failures.
        candidates = [n for n in system.network.alive_ids if n not in protected]
        for victim in rng.sample(candidates, round(churn * len(candidates))):
            system.fail_node(victim)

        # Reply phase.
        tap_ok = fixed_ok = 0
        for alice, bob, handle, fixed in sent:
            envelope = next(
                e for e in mail.inbox(bob)
                if e.envelope_id == handle.envelope_id
            )
            if mail.reply(bob, envelope, b"re:" + envelope.body).success:
                tap_ok += 1
            if fixed.reply(alice.node_id, b"re", system.network.is_alive):
                fixed_ok += 1

        rows.append(
            {
                "figure": "ext-reply-durability",
                "churn_fraction": churn,
                "tap_reply_success": tap_ok / config.mails,
                "fixed_reply_success": fixed_ok / config.mails,
                "fixed_expected": 1.0
                - tunnel_failure_prob_current(churn, config.tunnel_length),
            }
        )
    return rows
