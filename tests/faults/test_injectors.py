"""Tests for the deterministic fault injectors."""

import pytest

from repro.faults.injectors import (
    BYZANTINE_BEHAVIORS,
    ByzantineSpec,
    MessageFaultSpec,
    SimNetFaultInjector,
    SyncFaultInjector,
)
from repro.obs import EventTrace
from repro.util.rng import SeedSequenceFactory


class TestSpecs:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            MessageFaultSpec(drop=1.5)
        with pytest.raises(ValueError):
            MessageFaultSpec(corrupt=-0.1)
        with pytest.raises(ValueError):
            MessageFaultSpec(delay_s=-1.0)

    def test_any(self):
        assert not MessageFaultSpec().any()
        assert MessageFaultSpec(drop=0.1).any()
        assert MessageFaultSpec(reorder=0.1).any()

    def test_byzantine_validation(self):
        with pytest.raises(ValueError):
            ByzantineSpec(fraction=2.0)
        with pytest.raises(ValueError):
            ByzantineSpec(fraction=0.1, behaviors=("eat-the-onion",))
        with pytest.raises(ValueError):
            ByzantineSpec(fraction=0.1, behaviors=())


class TestSyncInjector:
    def _injector(self, seed=0, **spec_kwargs):
        return SyncFaultInjector(
            MessageFaultSpec(**spec_kwargs),
            seeds=SeedSequenceFactory(seed).spawn("t"),
        )

    def test_draw_is_deterministic(self):
        a = self._injector(drop=0.3, corrupt=0.2)
        b = self._injector(drop=0.3, corrupt=0.2)
        fates_a = [a.draw_message("forward", 4) for _ in range(50)]
        fates_b = [b.draw_message("forward", 4) for _ in range(50)]
        assert [
            (f.drop_at, f.corrupt_at) if f else None for f in fates_a
        ] == [
            (f.drop_at, f.corrupt_at) if f else None for f in fates_b
        ]
        assert any(f is not None for f in fates_a)

    def test_clean_spec_draws_nothing(self):
        inj = self._injector()
        assert inj.draw_message("forward", 4) is None
        assert inj.counts == {}

    def test_drop_leg_in_range(self):
        inj = self._injector(drop=1.0)
        for _ in range(20):
            fault = inj.draw_message("forward", 4)
            assert 0 <= fault.drop_at < 4

    def test_delay_accumulates(self):
        inj = self._injector(delay=1.0, delay_s=0.05)
        inj.draw_message("forward", 4)
        inj.draw_message("reply", 4)
        assert inj.injected_delay_s == pytest.approx(0.10)
        assert inj.counts["message.delay"] == 2

    def test_partition_blocks_cross_legs_only(self):
        inj = self._injector()
        inj.set_partition([1, 2, 3])
        assert inj.check_leg(1, 7) is not None
        assert inj.check_leg(7, 2) is not None
        assert inj.check_leg(1, 2) is None  # both isolated
        assert inj.check_leg(7, 8) is None  # both majority side
        inj.heal_partition()
        assert inj.check_leg(1, 7) is None

    def test_byzantine_assignment_deterministic(self):
        spec = ByzantineSpec(fraction=0.2)
        pool = list(range(100))
        seeds = SeedSequenceFactory(3).spawn("byz")
        a = SyncFaultInjector(byzantine=spec, seeds=seeds)
        b = SyncFaultInjector(
            byzantine=spec, seeds=SeedSequenceFactory(3).spawn("byz")
        )
        assert a.assign_byzantine(pool) == b.assign_byzantine(pool)
        assert len(a.byzantine_nodes) == 20
        assert set(a.byzantine_nodes.values()) <= set(BYZANTINE_BEHAVIORS)

    def test_byzantine_action_notes(self):
        inj = SyncFaultInjector(
            byzantine=ByzantineSpec(fraction=1.0),
            seeds=SeedSequenceFactory(0).spawn("byz"),
        )
        inj.assign_byzantine([1, 2, 3])
        assert inj.byzantine_action(1) in BYZANTINE_BEHAVIORS
        assert inj.byzantine_action(99) is None
        assert sum(inj.counts.values()) == 1

    def test_notes_reach_event_trace(self):
        trace = EventTrace()
        inj = SyncFaultInjector(
            MessageFaultSpec(drop=1.0),
            seeds=SeedSequenceFactory(0).spawn("t"),
            event_trace=trace,
        )
        inj.note("message.drop", kind="forward", leg=2)
        events = list(trace.events("fault.message.drop"))
        assert len(events) == 1
        # the message-kind field is remapped off EventTrace's
        # positional parameter name
        assert events[0].fields["message"] == "forward"
        assert events[0].fields["leg"] == 2


class TestSimNetInjector:
    def _injector(self, seed=0, **spec_kwargs):
        return SimNetFaultInjector(
            MessageFaultSpec(**spec_kwargs),
            seeds=SeedSequenceFactory(seed).spawn("s"),
        )

    def test_clean_spec_is_no_op(self):
        assert self._injector().on_message(1, 2, 0.1) is None

    def test_drop_short_circuits(self):
        inj = self._injector(drop=1.0, corrupt=1.0)
        verdict = inj.on_message(1, 2, 0.1)
        assert verdict.drop and not verdict.corrupt
        assert inj.counts == {"message.drop": 1}

    def test_delay_and_reorder_add_latency(self):
        inj = self._injector(delay=1.0, delay_s=0.05, reorder=1.0,
                             reorder_s=0.02)
        verdict = inj.on_message(1, 2, 0.1)
        assert verdict.extra_delay_s == pytest.approx(0.07)

    def test_duplicate_verdict(self):
        inj = self._injector(duplicate=1.0)
        verdict = inj.on_message(1, 2, 0.1)
        assert verdict.duplicate and verdict.duplicate_gap_s > 0

    def test_corrupt_payload_bytes(self):
        assert SimNetFaultInjector.corrupt_payload(b"\x00abc") == b"\xffabc"

    def test_corrupt_payload_blob_object(self):
        class Env:
            blob = b"\x0fxy"

        env = Env()
        assert SimNetFaultInjector.corrupt_payload(env) is env
        assert env.blob == b"\xf0xy"

    def test_verdicts_deterministic(self):
        a = self._injector(drop=0.2, delay=0.3)
        b = self._injector(drop=0.2, delay=0.3)
        va = [a.on_message(1, 2, 0.1) for _ in range(50)]
        vb = [b.on_message(1, 2, 0.1) for _ in range(50)]
        assert [
            (v.drop, v.extra_delay_s) if v else None for v in va
        ] == [
            (v.drop, v.extra_delay_s) if v else None for v in vb
        ]
