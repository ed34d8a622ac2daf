#!/usr/bin/env python3
"""Hidden service: mutual initiator/responder anonymity over TAP.

The paper hides the *initiator* (§4's responder is a public PAST
node).  This example composes TAP's own primitives into the stronger
property the paper's §8 cites as the neighbouring problem: a provider
serves content through an inbound TAP tunnel published as a DHT
record, a requester calls it through its own tunnels — neither learns
the other's identity, and both directions inherit TAP's fault
tolerance.

Run:  python examples/hidden_service.py
"""

from repro import TapSystem
from repro.extensions.mutual_anonymity import MutualAnonymity

PAGES = {
    b"/": b"<h1>hidden wiki</h1>",
    b"/contact": b"drop box: deploy a THA and whisper",
}


def main() -> None:
    print("== hidden service (mutual anonymity) ==")
    system = TapSystem.bootstrap(num_nodes=300, seed=77, replication_factor=3)
    mutual = MutualAnonymity(system)

    # --- provider side -------------------------------------------------
    provider = system.tap_node(system.random_node_id("provider"))
    system.deploy_thas(provider, count=9)
    service = mutual.publish_service(
        provider, b"hidden-wiki",
        handler=lambda path: PAGES.get(path, b"404"),
    )
    record = mutual.lookup(b"hidden-wiki")
    print(f"provider node:   {provider.node_id:#034x}  (never published)")
    print(f"service record:  entry hop {record.entry_hop_id:#034x}")
    print(f"record key:      {service.record_key:#034x}\n")

    # --- requester side --------------------------------------------------
    requester = system.tap_node(system.random_node_id("requester"))
    system.deploy_thas(requester, count=12)

    for path in (b"/", b"/contact", b"/missing"):
        fwd = system.form_tunnel(requester, length=3)
        rpl = system.form_reply_tunnel(requester, length=3)
        response, trace = mutual.call(requester, b"hidden-wiki", path, fwd, rpl)
        print(f"GET {path.decode():<9} -> {response.decode():<40} "
              f"(requester leg ends at {trace.destination:#034x})")
        assert trace.destination != provider.node_id
        system.retire_tunnel(requester, fwd)
        system.retire_tunnel(requester, rpl)

    # --- fault tolerance -------------------------------------------------
    print("\ncrashing every hop node of the service's inbound tunnel ...")
    for tha in service.inbound.hops:
        system.fail_node(system.network.closest_alive(tha.hop_id))

    fwd = system.form_tunnel(requester, length=3)
    rpl = system.form_reply_tunnel(requester, length=3)
    response, trace = mutual.call(requester, b"hidden-wiki", b"/", fwd, rpl)
    print(f"GET / after failures -> {response.decode()} (success={trace.success})")
    assert response == PAGES[b"/"]
    print(f"\nservice handled {service.served} requests; "
          "neither endpoint ever learned the other.")

    # --- withdrawal ------------------------------------------------------
    mutual.withdraw_service(service)
    fwd = system.form_tunnel(requester, length=3)
    rpl = system.form_reply_tunnel(requester, length=3)
    response, _ = mutual.call(requester, b"hidden-wiki", b"/", fwd, rpl)
    print(f"after withdrawal: GET / -> {response} "
          f"(provider awaits {len(provider.pending_replies)} bids)")
    assert response is None and not provider.pending_replies


if __name__ == "__main__":
    main()
