#!/usr/bin/env python3
"""Anonymous email with a durable reply path (paper §1's second case).

Alice mails Bob anonymously; the envelope embeds a TAP reply tunnel.
Bob answers *later* — after every hop node of that tunnel has left the
network.  The reply still finds Alice, because TAP reply tunnels name
DHT keys, not nodes; the same scenario kills a remailer-style fixed
return path recorded at send time.

Run:  python examples/anonymous_email.py
"""

import random

from repro import TapSystem
from repro.extensions.anonmail import AnonymousMail, FixedReturnPath


def main() -> None:
    print("== anonymous email with durable replies (paper §1) ==")
    system = TapSystem.bootstrap(num_nodes=300, seed=88, replication_factor=3)
    mail = AnonymousMail(system)

    alice = system.tap_node(system.random_node_id("alice"))
    bob_id = system.random_node_id("bob")
    system.deploy_thas(alice, count=12)

    fwd = system.form_tunnel(alice, length=3)
    rpl = system.form_reply_tunnel(alice, length=3)
    sent = mail.send(alice, bob_id, b"meet at the usual place. -A", fwd, rpl)
    print(f"alice -> bob delivered: {sent.delivered}")

    envelope = mail.inbox(bob_id)[0]
    print(f"bob's envelope body: {envelope.body.decode()!r}")
    print("(the envelope names only THA ids — nothing identifies alice)\n")

    # Record the remailer baseline: the concrete nodes currently
    # serving alice's reply tunnel.
    roots = [system.network.closest_alive(t.hop_id) for t in sent.reply_tunnel.hops]
    fixed = FixedReturnPath.record(roots, 3, random.Random(5))

    print("time passes... every hop node of the reply tunnel leaves:")
    for root in roots:
        system.fail_node(root)
        print(f"  node {hex(root)[:12]}… left (replica repair ran)")

    print("\nbob replies through the remailer-style fixed path:",
          "DELIVERED" if fixed.reply(alice.node_id, b"ok", system.network.is_alive)
          else "LOST (relays gone)")

    trace = mail.reply(bob_id, envelope, b"understood. -B")
    print("bob replies through the TAP reply tunnel:     ",
          "DELIVERED" if trace.success else "LOST")
    assert trace.success
    print(f"\nalice's responses: {[r.decode() for r in sent.responses]}")
    print("reply travelled", trace.overlay_hops, "tunnel hops over the",
          "promoted replica holders of the departed hop nodes.")

    sent.release()  # the conversation is over: stop awaiting the bid
    late = mail.reply(bob_id, envelope, b"one more thing. -B")
    assert not late.success and not alice.pending_replies
    print("after alice releases the mail, a further reply finds no one waiting.")


if __name__ == "__main__":
    main()
