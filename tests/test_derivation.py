from pathlib import Path

import pytest

from helpers import bench_generate, python_calls
from rollupsim import core, lines, vm
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


class TestDeriveCallCount:
    """A count, not a timer: the Python-level calls `parse_history` makes per
    line and `derive` per derived block, on the history of the seed-1
    `quarantine_flood` bench workload (425 genesis accounts, then 150 blocks
    of one transfer each). Each value is checked once, where it enters, and
    then built in one C call: no fixed-width identifier is checked again,
    no cross-field helper runs on a good transaction, a `Replay` view reads
    its base's accounts without calling the base's view, and a block is
    built once when drafted and once when sealed, with no `_replace`."""

    @pytest.fixture(scope="class")
    def text(self):
        scenario, _ = bench_generate().generate("quarantine_flood", 1)
        return render_history(run(parse_scenario(scenario, default_name="quarantine_flood")).history)

    def test_reading_the_history(self, text):
        """A `genesis account` or `record` line is read by one full match and
        built in C, with no codec call per field."""
        counted = python_calls(parse_history, text)
        assert core._FixedWidth.__new__.__code__ not in counted.calls, counted.names
        per_line = len(counted.calls) / len(text.splitlines())
        assert per_line <= 3, counted.names  # 0.72; 10.63 when each line went through its `Line.read`
        assert len(python_calls(parse_history, text).calls) == len(counted.calls)

    def test_reading_a_history_with_deposits(self):
        """The seed-1 `contract_contention` history: its `l1block` lines'
        deposits are decoded with no call per deposit, and its batch entries
        read with no call per entry; the contract lines, read by their
        generic reader, make most of the calls left."""
        scenario, _ = bench_generate().generate("contract_contention", 1)
        text = render_history(run(parse_scenario(scenario, default_name="contract_contention")).history)
        counted = python_calls(parse_history, text)
        codec_reads = {lines.BLOB.parse.__code__, lines.DEPOSIT_BLOB.parse.__code__}
        assert "decode_deposits" in counted.names and not codec_reads & set(counted.calls), counted.names
        per_line = len(counted.calls) / len(text.splitlines())
        assert per_line <= 12, counted.names  # 5.52; 24.30 with a codec lambda per batch entry and deposit

    def test_deriving_the_chain(self, text):
        history = parse_history(text)
        counted = python_calls(derive, history)
        codes = set(counted.calls)
        assert not codes & {core._FixedWidth.__new__.__code__, core._check_fees.__code__,
                            vm.WorldState.balance_of.__code__, vm.WorldState.nonce_of.__code__,
                            vm.WorldState.code_of.__code__}, counted.names
        assert "_replace" not in counted.names, counted.names
        per_block = len(counted.calls) / len(history.inbox)
        assert per_block <= 26.29, counted.names  # 26.29; 37.29 with re-checks, view hops and a `_replace` per block
        assert len(python_calls(derive, history).calls) == len(counted.calls)
