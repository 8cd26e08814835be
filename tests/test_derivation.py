from pathlib import Path

import pytest

from rollupsim.core import encode_block
from rollupsim.derivation import DerivationGap, DerivedChain, derive
from rollupsim.formats import parse_history, parse_scenario, render_history
from rollupsim.l1da import BitmapMismatch, L1History
from rollupsim.sequencer import run
from rollupsim.vm import state_root

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def outcome_for(name):
    scenario = parse_scenario((SCENARIOS / f"{name}.scn").read_text(), default_name=name)
    return run(scenario)


def corpus_names():
    return sorted(p.stem for p in SCENARIOS.glob("*.scn"))


class TestRoundTrip:
    @pytest.mark.parametrize("name", corpus_names())
    def test_every_scenario_re_derives_byte_identically(self, name):
        out = outcome_for(name)
        derived = derive(out.history)
        sequencer_blocks = [encode_block(b) for b in out.sequencer.chain.blocks]
        derived_blocks = [encode_block(b) for b in derived.blocks]
        assert derived_blocks == sequencer_blocks
        assert derived.final_root == out.report.final_root

    @pytest.mark.parametrize("name", corpus_names())
    def test_round_trip_survives_the_text_container(self, name):
        out = outcome_for(name)
        derived = derive(parse_history(render_history(out.history)))
        assert derived.final_root == out.report.final_root

    def test_empty_history_is_the_genesis_root(self):
        out = outcome_for("empty")
        empty = out.history._replace(blocks=(), inbox=())
        derived = derive(empty)
        assert derived.blocks == ()
        assert derived.final_root == state_root(out.history.genesis)

    def test_refused_deposit_leaves_no_trace_on_l2(self):
        out = outcome_for("deposit_refused")
        derived = derive(out.history)
        refused = out.history.blocks[0].deposits[1]
        for block in derived.blocks:
            assert refused not in block.deposits


class TestGapsAndFaults:
    def test_missing_record_is_a_gap(self):
        out = outcome_for("single_transfer")
        truncated = out.history._replace(inbox=out.history.inbox[1:])
        with pytest.raises(DerivationGap):
            derive(truncated)

    def test_epoch_with_deposits_needs_a_bitmap(self):
        out = outcome_for("deposits_benign")
        head = out.history.inbox[0]
        stripped = head._replace(deposit_count=None, bitmap=())
        broken = out.history._replace(inbox=(stripped,) + out.history.inbox[1:])
        with pytest.raises(DerivationGap):
            derive(broken)

    def test_bitmap_count_mismatch_propagates(self):
        out = outcome_for("deposits_benign")
        head = out.history.inbox[0]
        lying = head._replace(deposit_count=3, bitmap=(5,))
        broken = out.history._replace(inbox=(lying,) + out.history.inbox[1:])
        with pytest.raises(BitmapMismatch):
            derive(broken)

    def test_duplicate_bitmap_rejected(self):
        out = outcome_for("deposits_benign")
        head = out.history.inbox[0]
        # second record in the same epoch claiming another bitmap
        second = out.history.inbox[1]._replace(deposit_count=head.deposit_count, bitmap=head.bitmap)
        broken = out.history._replace(inbox=(head, second) + out.history.inbox[2:])
        with pytest.raises(DerivationGap):
            derive(broken)

    def test_derive_is_pure(self):
        out = outcome_for("pause_exploit")
        assert derive(out.history) == derive(out.history)
