"""Pastry structured-overlay substrate (FreePastry 1.3 equivalent).

Implements the routing/location layer TAP is built on (Rowstron &
Druschel, Middleware 2001): 128-bit circular id space, base-``2**b``
digit prefix routing (default b=4, i.e. 16-way digits and
``log_16 N``-hop routes), leaf sets of ``|L|=16``, join, failure and
revival.

Membership is the sorted alive ids plus the registered ids that are
down; a node's routing state is read from the alive ids on demand:
its leaf set is its window of them and each routing cell the smallest
alive id of the cell's prefix class — on a PNS build (``proximity=``)
the nearest of the class's first few.  :meth:`PastryNetwork.build` and
any sequence of :meth:`~PastryNetwork.join` / :meth:`~PastryNetwork.fail`
/ :meth:`~PastryNetwork.revive` therefore reach the same state for the
same alive set, which the test-suite cross-checks against
:class:`repro.perf.compact.CompactOverlay`.
"""

from repro.pastry.bulk import leaf_reach, leaf_window, node_prefix
from repro.pastry.constants import DEFAULT_B_BITS, DEFAULT_LEAF_SET_SIZE
from repro.pastry.node import PastryNode
from repro.pastry.network import PastryNetwork, RoutingError

__all__ = [
    "DEFAULT_B_BITS",
    "DEFAULT_LEAF_SET_SIZE",
    "PastryNode",
    "PastryNetwork",
    "RoutingError",
    "leaf_reach",
    "leaf_window",
    "node_prefix",
]
