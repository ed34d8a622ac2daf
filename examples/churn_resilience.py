#!/usr/bin/env python3
"""Churn resilience: TAP vs "current tunneling", head to head.

Reproduces the Figure-2 comparison at demo scale, but on the *live*
object-level system rather than the vectorised Monte-Carlo: real
anchors in real node storage, real replica promotion, real layered
crypto on every send.  For each failure fraction we form tunnels both
ways over the same overlay, crash the same nodes, and count survivors.

Run:  python examples/churn_resilience.py
"""

import random

from repro import TapSystem
from repro.adversary.failures import tunnel_functions
from repro.analysis.theory import (
    tunnel_failure_prob_current,
    tunnel_failure_prob_tap,
)
from repro.baselines.fixed_tunnel import form_fixed_tunnel

NUM_NODES = 400
TUNNELS = 12
LENGTH = 3
FRACTIONS = (0.1, 0.2, 0.3)


def main() -> None:
    print("== churn resilience: TAP vs current tunneling ==")
    print(f"{NUM_NODES} nodes, {TUNNELS} tunnels of length {LENGTH}, k=3\n")

    header = (f"{'failed':>8}  {'current ok':>10}  {'tap ok':>7}  "
              f"{'theory(cur)':>11}  {'theory(tap)':>11}")
    print(header)
    print("-" * len(header))

    for fraction in FRACTIONS:
        system = TapSystem.bootstrap(
            num_nodes=NUM_NODES, seed=int(fraction * 100), replication_factor=3
        )
        rng = random.Random(1000 + int(fraction * 100))

        # Form TAP tunnels (each initiator deploys anchors first) and
        # fixed-node tunnels over the same overlay.
        tap_tunnels = []
        for i in range(TUNNELS):
            owner = system.tap_node(system.random_node_id(("owner", i)))
            system.deploy_thas(owner, count=LENGTH * 2)
            tap_tunnels.append((owner, system.form_tunnel(owner, LENGTH)))
        owners = {o.node_id for o, _ in tap_tunnels}
        fixed_tunnels = [
            form_fixed_tunnel(
                [n for n in system.network.alive_ids if n not in owners],
                LENGTH, rng,
            )
            for _ in range(TUNNELS)
        ]

        # Simultaneous failures (no repair beforehand), sparing the
        # initiators so we measure tunnel failure, not initiator death.
        candidates = [n for n in system.network.alive_ids if n not in owners]
        victims = rng.sample(candidates, round(fraction * len(candidates)))
        system.fail_nodes(victims, repair_after=False)

        current_ok = sum(
            t.functions(system.network.is_alive) for t in fixed_tunnels
        )
        tap_ok = 0
        for owner, tunnel in tap_tunnels:
            if tunnel_functions(system, tunnel):
                # double-check with the cryptographic engine
                trace = system.send(owner, tunnel, 42, b"probe")
                assert trace.success
                tap_ok += 1

        print(
            f"{fraction:>8.0%}  {current_ok:>7}/{TUNNELS:<2}  "
            f"{tap_ok:>4}/{TUNNELS:<2}  "
            f"{1 - tunnel_failure_prob_current(fraction, LENGTH):>11.2%}  "
            f"{1 - tunnel_failure_prob_tap(fraction, LENGTH, 3):>11.2%}"
        )

    print("\nTAP tunnels survive because each hop is a replicated DHT key,")
    print("not a fixed node; see `tap-repro run fig2` for the")
    print("full 10^4-node Monte-Carlo version of this comparison.")


if __name__ == "__main__":
    main()
