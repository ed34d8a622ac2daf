"""Extension experiment: secure routing under routing interception.

Sweeps the malicious (intercepting) fraction and reports, per forgery
strategy, what a naive client suffers (silent deception) vs what the
verified redundant lookup of :mod:`repro.extensions.secure_routing`
achieves: deceptions almost eliminated, most attacks converted into
detected failures (alarms), at a small false-alarm cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.extensions.secure_routing import RoutingInterceptor, secure_route
from repro.util.ids import random_id
from repro.util.rng import SeedSequenceFactory


@dataclass(frozen=True)
class SecureRoutingConfig:
    num_nodes: int = 500
    queries: int = 150
    malicious_fractions: tuple[float, ...] = (0.1, 0.2, 0.3)
    redundancy: int = 4
    seed: int = 2004

    @classmethod
    def fast(cls) -> "SecureRoutingConfig":
        return cls(num_nodes=300, queries=80, malicious_fractions=(0.2,))


def run_secure_routing(config: SecureRoutingConfig = SecureRoutingConfig()) -> list[dict]:
    from repro.pastry.network import PastryNetwork

    seeds = SeedSequenceFactory(config.seed)
    id_rng = seeds.pyrandom("ids")
    ids = set()
    while len(ids) < config.num_nodes:
        ids.add(random_id(id_rng))
    network = PastryNetwork.build(ids)

    rows: list[dict] = []
    for p in config.malicious_fractions:
        for forge_honest in (False, True):
            strategy = "honest-set" if forge_honest else "coalition-set"
            rng = seeds.pyrandom("sweep", p, strategy)
            coalition = set(
                rng.sample(network.alive_ids, round(p * config.num_nodes))
            )
            interceptor = RoutingInterceptor(coalition, forge_honest_set=forge_honest)

            naive_deceived = deceived = alarms = false_alarms = trials = 0
            while trials < config.queries:
                src = network.alive_ids[rng.randrange(network.size)]
                key = random_id(rng)
                truth = network.closest_alive(key)
                if interceptor.is_malicious(src) or interceptor.is_malicious(truth):
                    continue
                trials += 1

                naive, _ = interceptor.route(network, src, key)
                naive_was_deceived = naive[-1] != truth
                naive_deceived += naive_was_deceived

                secure = secure_route(
                    network, src, key, interceptor,
                    redundancy=config.redundancy,
                    rng=random.Random(key & 0xFFFFFFFF),
                )
                if secure.alarm:
                    alarms += 1
                    if not naive_was_deceived and secure.hijacked_paths == 0:
                        false_alarms += 1
                elif secure.accepted_root != truth:
                    deceived += 1

            rows.append(
                {
                    "figure": "ext-secure-routing",
                    "malicious_fraction": p,
                    "forgery": strategy,
                    "naive_deceived": naive_deceived / trials,
                    "secure_deceived": deceived / trials,
                    "secure_alarms": alarms / trials,
                    "false_alarms": false_alarms / trials,
                }
            )
    return rows
