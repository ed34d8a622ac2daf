"""The ``join_node`` churn route loop (perfbench/README "Known source bug").

Pinned with its root cause, not fixed: the fix (refill a depleted leaf
set from the ±reach index window of :func:`repro.pastry.bulk.leaf_window`,
i.e. true halves) changes routes and every digest, so it is its own
change.  DESIGN.md §5c has the diagnosis.
"""

import random

import pytest

from repro import TapSystem
from repro.pastry.leafset import LeafSet
from repro.pastry.network import RoutingError
from repro.util.ids import ID_SPACE, random_id

OWNER = 1 << 100


def _near(cw: int, ccw: int) -> list[int]:
    """``cw`` ids just clockwise of OWNER and ``ccw`` just counterclockwise."""
    return [OWNER + d for d in range(1, cw + 1)] + [OWNER - d for d in range(1, ccw + 1)]


@pytest.mark.xfail(raises=RoutingError, strict=True,
                   reason="skewed leaf-set refill + far leaf => route loop")
def test_fail_join_churn_keeps_routing():
    """Alternating fail/join at N=1,000, seed 7: the 136th join's
    bootstrap route bounces between two nodes until ``MAX_HOPS``."""
    system = TapSystem.bootstrap(1000, seed=7)
    rng = random.Random(7)
    for _ in range(136):
        alive = system.network.alive_ids
        system.fail_node(alive[rng.randrange(len(alive))], repair=True)
        system.join_node(random_id(rng))


class TestMechanism:
    """Neither half is bounded to its own side of the ring: the halves
    are the two ends of *one* clockwise order, so a half with a vacancy
    is filled with whatever ranks next — ids from the other side."""

    def test_fifteen_member_leaf_set_retains_a_far_id(self):
        ls = LeafSet(OWNER, capacity=16)
        ls.add_all(_near(cw=8, ccw=7))
        far = (OWNER + ID_SPACE // 3) % ID_SPACE
        assert ls.add(far)  # a true counterclockwise half would refuse it
        assert far in ls.ccw_members()  # ... a third of the ring *clockwise*
        assert ls.is_full()
        # and the arc the node now answers for reaches all the way back
        # to it: two thirds of the ring
        assert ls.covers((OWNER + ID_SPACE // 2) % ID_SPACE)
        assert not ls.covers((OWNER + ID_SPACE // 4) % ID_SPACE)

    def test_skewed_refill_hands_a_slot_to_any_newcomer(self):
        """What ``_repair_after_departure`` leaves on a skewed
        neighbourhood (the |L|+2 *ring-distance*-closest ids): 7
        clockwise + 9 counterclockwise.  The 8th "clockwise" slot is
        then held by the furthest counterclockwise id, ranked by a
        clockwise offset of almost 2**128 — every later join
        announcement has a smaller one and takes the slot."""
        ls = LeafSet(OWNER, capacity=16)
        ls.add_all(_near(cw=7, ccw=9))
        assert ls.cw_members()[-1] == OWNER - 9
        assert ls.covers((OWNER + ID_SPACE // 2) % ID_SPACE)  # "the whole ring"
        newcomer = (OWNER + ID_SPACE // 14) % ID_SPACE  # ~7 % of the ring away
        assert ls.add(newcomer)
        assert ls.cw_members()[-1] == newcomer and OWNER - 9 not in ls
        assert ls.is_full()
        assert ls.covers((OWNER + ID_SPACE // 18) % ID_SPACE)
        assert ls.closest((OWNER + ID_SPACE // 18) % ID_SPACE) == newcomer
