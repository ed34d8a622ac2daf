"""Full-stack integration scenarios: the whole system living together.

Each test is a small story exercising many subsystems at once —
deployment, tunnels, applications, adversaries, churn, refresh —
the way a deployment would actually run.
"""

import random

from repro.adversary.collusion import ColludingAdversary
from repro.core.session import SessionServer, TapSession
from repro.core.system import TapSystem
from repro.extensions.anonmail import AnonymousMail
from repro.extensions.mutual_anonymity import MutualAnonymity
from repro.extensions.tunnel_probe import TunnelProber


class TestLifecycleScenario:
    def test_publish_retrieve_churn_refresh_retrieve(self):
        """A reader keeps retrieving a document across churn epochs,
        refreshing tunnels every two epochs, while an adversary watches."""
        system = TapSystem.bootstrap(num_nodes=250, seed=7001)
        adversary = ColludingAdversary(set(system.network.alive_ids[::8]))
        adversary.attach(system.store)

        document = b"samizdat " * 200
        fid = system.publish(document, name=b"doc")

        reader = system.tap_node(system.random_node_id("reader"))
        system.deploy_thas(reader, count=14)
        fwd = system.form_tunnel(reader, length=3)
        rpl = system.form_reply_tunnel(reader, length=3)
        interval = 2.0
        rng = random.Random(7002)
        protected = {reader.node_id, system.store.network.closest_alive(fid)}

        successes = 0
        now = 0.0
        for epoch in range(6):
            now += 1.0
            # churn: a couple of nodes leave and join each epoch
            for _ in range(3):
                candidates = [
                    n for n in system.network.alive_ids if n not in protected
                ]
                system.fail_node(candidates[rng.randrange(len(candidates))])
                new_id = rng.getrandbits(128)
                while system.network.is_registered(new_id):
                    new_id = rng.getrandbits(128)
                system.join_node(new_id)

            def refresh_forward(old):
                system.deploy_thas(reader, count=old.length)
                new = system.form_tunnel(reader, length=old.length, now=now)
                system.retire_tunnel(reader, old, delete=True)
                return new

            def reform_reply(old):
                system.retire_tunnel(reader, old, delete=True)
                system.deploy_thas(reader, count=3)  # replace spent anchors
                return system.form_reply_tunnel(reader, length=3, now=now)

            if now - fwd.formed_at >= interval:
                fwd = refresh_forward(fwd)
            if now - rpl.formed_at >= interval:
                rpl = reform_reply(rpl)

            result = system.retrieve(reader, fid, fwd, rpl)
            if result.success:
                assert result.content == document
                successes += 1
            else:
                fwd = refresh_forward(fwd)
                rpl = reform_reply(rpl)

        assert successes >= 5
        assert system.store.verify_invariants() == []

    def test_session_mail_and_hidden_service_coexist(self):
        """Three applications share one overlay without interference."""
        system = TapSystem.bootstrap(num_nodes=250, seed=7003)

        # 1. a long-running session
        client = system.tap_node(system.random_node_id("client"))
        system.deploy_thas(client, count=12)
        server = SessionServer(system.random_node_id("server"),
                               handler=lambda b: b"s:" + b)
        session = TapSession(system, client, server, tunnel_length=2)

        # 2. anonymous mail
        mail = AnonymousMail(system)
        writer = system.tap_node(system.random_node_id("writer"))
        system.deploy_thas(writer, count=12)
        reader_id = system.random_node_id("reader")

        # 3. a hidden service
        mutual = MutualAnonymity(system)
        provider = system.tap_node(system.random_node_id("provider"))
        system.deploy_thas(provider, count=12)
        mutual.publish_service(provider, b"svc", handler=lambda b: b"h:" + b)

        # Interleave traffic.
        for i in range(3):
            assert session.request(f"q{i}".encode()) == f"s:q{i}".encode()

            sent = mail.send(
                writer, reader_id, f"m{i}".encode(),
                system.form_tunnel(writer, length=2),
                system.form_reply_tunnel(writer, length=2),
            )
            assert sent.delivered

            caller = system.tap_node(system.random_node_id(("caller", i)))
            system.deploy_thas(caller, count=6)
            response, trace = mutual.call(
                caller, b"svc", f"c{i}".encode(),
                system.form_tunnel(caller, length=2),
                system.form_reply_tunnel(caller, length=2),
            )
            assert trace.success and response == f"h:c{i}".encode()

        # Reply to all mail after the fact.
        for envelope in mail.inbox(reader_id):
            assert mail.reply(reader_id, envelope, b"re:" + envelope.body).success

        assert session.stats.availability == 1.0
        assert system.store.verify_invariants() == []

    def test_probe_driven_maintenance_under_catastrophe(self):
        """Probes catch anchors lost to simultaneous failures; refresh
        restores service; the store stays consistent throughout."""
        system = TapSystem.bootstrap(num_nodes=250, seed=7004)
        owner = system.tap_node(system.random_node_id("owner"))
        system.deploy_thas(owner, count=18)
        tunnels = [system.form_tunnel(owner, length=3) for _ in range(3)]
        prober = TunnelProber(system)

        # Catastrophe: wipe out one tunnel's middle anchor entirely.
        victim = tunnels[1]
        holders = list(system.store.holders(victim.hops[1].hop_id))
        system.fail_nodes(holders, repair_after=False)

        def needs_refresh():
            reports = [prober.probe(owner, t, seq) for seq, t in enumerate(tunnels)]
            return [t for t, r in zip(tunnels, reports) if not r.functional or r.tampered]

        assert needs_refresh() == [victim]

        system.deploy_thas(owner, count=victim.length)
        tunnels[1] = system.form_tunnel(owner, length=victim.length, now=1.0)
        system.retire_tunnel(owner, victim, delete=True)

        assert needs_refresh() == []
        for tunnel in tunnels:
            assert system.send(owner, tunnel, 42, b"ping").success
