#!/usr/bin/env python3
"""Anonymity analysis: what a colluding coalition actually learns.

Builds a TAP deployment with a 10% colluding coalition wired into the
replication manager (it sees every anchor replicated onto coalition
nodes), forms tunnels, and reports the §6 analysis quantitatively:

* how many anchors the coalition discloses, vs the closed form;
* how many tunnels are corrupted (case 1) / first+tail controlled
  (case 2);
* the initiator anonymity metrics: responder guess probability,
  predecessor confidence, degree of anonymity.

Run:  python examples/anonymity_analysis.py
"""

from repro import TapSystem
from repro.adversary.collusion import ColludingAdversary
from repro.analysis.anonymity import (
    degree_of_anonymity,
    predecessor_confidence,
    responder_guess_probability,
    uniform_with_suspect,
)
from repro.analysis.theory import tha_disclosure_prob, tunnel_corruption_prob

NUM_NODES = 500
MALICIOUS_FRACTION = 0.1
TUNNELS = 30
LENGTH = 5


def main() -> None:
    print("== collusion analysis (paper §6) ==")
    system = TapSystem.bootstrap(num_nodes=NUM_NODES, seed=99, replication_factor=3)

    # Every 10th node is in the coalition; it observes replica traffic.
    malicious = set(system.network.alive_ids[:: int(1 / MALICIOUS_FRACTION)])
    adversary = ColludingAdversary(malicious)
    adversary.attach(system.store)
    print(f"{len(malicious)} colluding nodes "
          f"({len(malicious) / NUM_NODES:.0%} of {NUM_NODES})\n")

    tunnels = []
    anchors = 0
    for i in range(TUNNELS):
        owner = system.tap_node(system.random_node_id(("user", i)))
        report = system.deploy_thas(owner, count=LENGTH)
        anchors += len(report.deployed)
        tunnels.append(system.form_tunnel(owner, LENGTH))

    disclosed = sum(
        adversary.knows(h.hop_id) for t in tunnels for h in t.hops
    )
    total_hops = TUNNELS * LENGTH
    corrupted = adversary.knowledge_fraction(tunnels)
    case2 = sum(adversary.first_and_tail_controlled(system, t) for t in tunnels)

    print(f"anchors deployed:        {anchors}")
    print(f"anchors disclosed:       {disclosed}/{total_hops} "
          f"({disclosed / total_hops:.1%}; "
          f"theory {tha_disclosure_prob(MALICIOUS_FRACTION, 3):.1%})")
    print(f"tunnels corrupted (c1):  {corrupted:.2%} of {TUNNELS} "
          f"(theory {tunnel_corruption_prob(MALICIOUS_FRACTION, LENGTH, 3):.2%})")
    print(f"first+tail control (c2): {case2}/{TUNNELS} "
          f"(theory {MALICIOUS_FRACTION**2:.2%})")

    print("\n== initiator anonymity metrics ==")
    print(f"responder guess probability: "
          f"{responder_guess_probability(NUM_NODES):.5f} (= 1/(N-1))")
    print(f"malicious-hop predecessor confidence (l={LENGTH}): "
          f"{predecessor_confidence(LENGTH):.2f} "
          f"(cannot tell whether it is the first hop)")

    # Degree of anonymity from the view of a single malicious hop that
    # suspects its predecessor with confidence 1/l.
    dist = uniform_with_suspect(NUM_NODES - 1, predecessor_confidence(LENGTH))
    print(f"degree of anonymity at one malicious hop: "
          f"{degree_of_anonymity(dist):.4f} (1.0 = perfect)")

    print("\nConclusion (paper §7.2): corruption stays rare at p=10%,")
    print("and users should refresh tunnels periodically under churn —")
    print("see benchmarks/test_bench_fig5.py.")


if __name__ == "__main__":
    main()
