"""TAP core: fault-tolerant anonymous tunnels over Pastry/PAST.

The package implements the paper's contribution end to end:

* :mod:`repro.core.tha` — tunnel hop anchors ``<hopid, K, H(PW)>``,
  node-specific collision-free generation (§3.1–§3.2);
* :mod:`repro.core.deploy` — anonymous THA deployment over an
  Onion-Routing bootstrap path, one RSA layer and one store instruction
  per relay, aborted and retried on a dead relay or a malformed layer;
  deletion with PW proof (§3.3–§3.4);
* :mod:`repro.core.tunnel` — tunnel formation with prefix-scattered
  anchor selection (§3.5) and reply tunnels with ``bid``/fakeonion (§4);
* :mod:`repro.core.node` — per-node TAP state (key pair, pending replies);
* :mod:`repro.core.hop` — what a hop node does with an arriving
  message: match a pending ``bid``, or look the THA up locally and peel
  one layer (§3.5, §4) — written once, driven by both engines below;
* :mod:`repro.core.forwarding` — the synchronous tunneling engine:
  layered decryption hop by hop, replica fail-over on node failure, the
  §5 IP-hint optimisation with DHT fallback, and the §4 request/reply
  exchange (``round_trip``) every application runs;
* :mod:`repro.core.emulation` — the same hop step driven from timed
  messages over :mod:`repro.simnet`, forward and reply;
* :mod:`repro.core.retrieval` — §4's anonymous file retrieval
  application over forward + reply tunnels;
* :mod:`repro.core.system` — :class:`~repro.core.system.TapSystem`,
  the façade tying the overlay, storage, and TAP logic together.
  Refreshing a tunnel (§7.2) is three of its calls: ``deploy_thas``,
  ``form_tunnel``, ``retire_tunnel(..., delete=True)``.

Quickstart::

    from repro import TapSystem
    sys_ = TapSystem.bootstrap(num_nodes=200, seed=42)
    alice = sys_.tap_node(sys_.random_node_id())
    sys_.deploy_thas(alice, count=10)
    tunnel = sys_.form_tunnel(alice, length=3)
    trace = sys_.send(alice, tunnel, destination_id=..., payload=b"hi")
"""

from repro.core.tha import TunnelHopAnchor, OwnedTha, generate_tha, tha_value_encode, tha_value_decode
from repro.core.tunnel import Tunnel, ReplyTunnel, select_scattered, TunnelFormationError
from repro.core.node import TapNode
from repro.core.deploy import ThaDeployer, DeploymentError
from repro.core.forwarding import TunnelForwarder, ForwardTrace, HopRecord, TunnelBroken
from repro.core.retrieval import AnonymousRetrieval, RetrievalResult
from repro.core.system import TapSystem
from repro.core.session import TapSession, SessionServer, SessionStats
from repro.core.puzzles import PuzzlePolicy, solve_puzzle, verify_puzzle
from repro.core.emulation import TapEmulation, EmuTrace

__all__ = [
    "TunnelHopAnchor",
    "OwnedTha",
    "generate_tha",
    "tha_value_encode",
    "tha_value_decode",
    "Tunnel",
    "ReplyTunnel",
    "select_scattered",
    "TunnelFormationError",
    "TapNode",
    "ThaDeployer",
    "DeploymentError",
    "TunnelForwarder",
    "ForwardTrace",
    "HopRecord",
    "TunnelBroken",
    "AnonymousRetrieval",
    "RetrievalResult",
    "TapSystem",
    "TapSession",
    "SessionServer",
    "SessionStats",
    "PuzzlePolicy",
    "solve_puzzle",
    "verify_puzzle",
    "TapEmulation",
    "EmuTrace",
]
