"""The classifier's fold and `apply_block`, each run on one block scratch,
held to the re-executing references in `reference_vm`.

The fold merges each uninfluenced benign candidate's isolated write set
after checking its reads, and `apply_block` runs every transaction in place
on one scratch, undoing a reverted call from its log; both must leave
exactly the accounts and root that executing each transaction on the
previous post-state leaves. Each builds one post-state.
"""

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ADMIN,
    ATTACKER,
    COUNT_KEY,
    COUNTER,
    FEE_SINK,
    LEDGERBOOK,
    PAUSED_SLOT,
    VAULT,
    addr,
    blind_writer,
    counter_contract,
    ctx,
    gated_vault,
    sequential_oracle,
    solvency_invariant,
    tx,
)
from reference_vm import full_state_root, reference_apply_block, reference_fold
from rollupsim import detection
from rollupsim.core import Block, DepositTransaction, StateRoot
from rollupsim.derivation import derive
from rollupsim.detection import CandidateSet, InvariantDetector, InvariantSet, _merge_validated, hybrid_detect
from rollupsim.formats import parse_scenario
from rollupsim.sequencer import Sequencer
from rollupsim.vm import (
    AccessKey,
    AccessKind,
    Account,
    Bin,
    CallData,
    Caller,
    CallValue,
    Const,
    ContractCode,
    Execution,
    InvalidBlock,
    Pay,
    Replay,
    Require,
    SetSlot,
    SLoad,
    apply_block,
    execute_transaction,
    make_state,
    slot_bytes,
    state_root,
)

PARTICIPANTS = [addr(i) for i in range(1, 5)] + [ADMIN, ATTACKER]
# Every call blind-writes callvalue to the slot named by calldata and
# increments the slot eight above it: candidates with different calldata
# write different slots of one contract.
MIXED = addr(0xC7)
MIXED_CODE = ContractCode(
    admin=ADMIN,
    statements=(
        SetSlot(CallData(), CallValue()),
        SetSlot(Bin("add", CallData(), Const(8)), Bin("add", SLoad(Bin("add", CallData(), Const(8))), Const(1))),
    ),
)
REVERTER = addr(0xC9)
REVERTER_CODE = ContractCode(
    admin=ADMIN,
    statements=(
        SetSlot(Const(5), CallValue()),
        SetSlot(Const(5), Bin("add", CallValue(), Const(1))),
        SetSlot(Const(6), Const(1)),
        Pay(Caller(), Const(1)),
        Require(Const(0)),
    ),
)
TARGETS = PARTICIPANTS + [VAULT] * 4 + [COUNTER, LEDGERBOOK] + [MIXED] * 5 + [FEE_SINK, addr(0x77)]


@st.composite
def worlds(draw):
    accounts = {
        a: Account(balance=draw(st.sampled_from([30, 5_000, 5_000, 5_000, 5_000])), nonce=draw(st.integers(0, 1)))
        for a in PARTICIPANTS
    }
    accounts[VAULT] = Account(
        balance=draw(st.sampled_from([0, 60, 100])),
        code=gated_vault(),
        storage={PAUSED_SLOT: slot_bytes(draw(st.integers(0, 1)))},
    )
    accounts[COUNTER] = Account(code=counter_contract(), storage={slot_bytes(COUNT_KEY): slot_bytes(draw(st.integers(0, 2)))})
    accounts[LEDGERBOOK] = Account(code=blind_writer())
    accounts[MIXED] = Account(code=MIXED_CODE, storage={slot_bytes(k): slot_bytes(draw(st.integers(0, 3))) for k in (0, 1, 9)})
    state = make_state(accounts)
    invariants = InvariantSet()
    invariants.register(solvency_invariant(VAULT, floor=draw(st.sampled_from([10, 50]))), state)
    if draw(st.booleans()):
        state_root(state)  # a rooted tip: its successors patch its digest table
    return state, invariants


def draw_transactions(data, state, count):
    """Transfers, creations, contract calls and deposits, with gas limits
    that run some calls out of gas; in half the draws also nonce gaps and
    overdrafts, which make a candidate unexecutable."""
    faults = data.draw(st.booleans())
    nonces = {}
    txs = []
    for index in range(count):
        recipient = data.draw(st.sampled_from(TARGETS))
        value = data.draw(st.sampled_from([0, 0, 5, 40, 150] + [10_000] * faults))
        payload = bytes([data.draw(st.integers(0, 3))])
        gas_limit = data.draw(st.sampled_from([21, 22, 23, 30, 30]))
        if data.draw(st.integers(0, 4)) == 0:
            sender = data.draw(st.sampled_from(PARTICIPANTS + [addr(0xD1)]))
            txs.append(DepositTransaction(l1_block=0, l1_index=index, sender=sender, recipient=recipient, value=value, data=payload, gas_limit=gas_limit))
            continue
        sender = data.draw(st.sampled_from(PARTICIPANTS))
        nonce = nonces.get(sender, state.nonce_of(sender))
        nonces[sender] = nonce + 1
        if faults:
            nonce += data.draw(st.sampled_from([0, 0, 0, 1]))  # a gap defers the candidate
        max_fee = data.draw(st.integers(0 if faults else 1, 2))
        created = data.draw(st.integers(0, 9)) == 0
        txs.append(
            tx(
                sender,
                nonce,
                None if created else recipient,
                value=value,
                data=payload,
                max_fee=max_fee,
                priority_fee=data.draw(st.integers(0, max_fee)),
                gas_limit=gas_limit,
            )
        )
    return txs


def as_block(txs, base_fee=1):
    return Block(
        number=0,
        parent_hash=bytes(32),
        timestamp=0,
        base_fee=base_fee,
        epoch=0,
        deposits=tuple(t for t in txs if isinstance(t, DepositTransaction)),
        transactions=tuple(t for t in txs if not isinstance(t, DepositTransaction)),
        state_root=StateRoot(bytes(32)),
    )


class TestFoldMatchesReExecution:
    @settings(max_examples=300, deadline=None)
    @given(worlds(), st.data())
    def test_final_state_equals_the_benign_candidates_re_executed(self, world, data):
        tip, invariants = world
        txs = draw_transactions(data, tip, data.draw(st.integers(1, 10)))
        context = ctx(base_fee=data.draw(st.integers(0, 1)), fee_recipient=data.draw(st.sampled_from([FEE_SINK, addr(1)])))
        budget = data.draw(st.sampled_from([None, None, 0, 1, 2]))
        detector = InvariantDetector()
        outcome = hybrid_detect(CandidateSet(tuple(txs), tip, budget=budget), invariants, detector, context)
        expected = reference_fold(tip, outcome.benign, context)
        assert outcome.final_state.accounts == expected.accounts
        assert state_root(outcome.final_state) == full_state_root(expected)
        if budget is None:
            benign, malicious, deferred, _ = sequential_oracle(txs, tip, invariants, detector, context)
            assert outcome.benign == benign and outcome.deferred == deferred
            assert [(t, v) for t, v, _ in outcome.malicious] == malicious


class TestInPlaceByType:
    """`execute_transaction` runs a transaction in place exactly when its
    base is a `Replay`; on any other execution it returns a child."""

    def world(self):
        return make_state({addr(1): Account(balance=10_000), COUNTER: Account(balance=0, code=counter_contract())})

    def test_a_replay_is_run_in_place_and_records_no_key(self):
        scratch = Replay(self.world())
        for nonce in (0, 1):
            assert execute_transaction(scratch, tx(addr(1), nonce, COUNTER), ctx()) is scratch
        assert (scratch.reads, scratch.writes) == (set(), set())
        assert scratch.nonce_of(addr(1)) == 2
        assert scratch.storage_of(COUNTER)[slot_bytes(COUNT_KEY)] == slot_bytes(2)

    def test_a_fold_gets_a_child_and_is_left_as_it_was(self):
        fold = Execution(self.world())
        child = execute_transaction(fold, tx(addr(1), 0, COUNTER), ctx())
        assert type(child) is Execution and child is not fold and child.base is fold
        assert AccessKey(AccessKind.STORAGE, COUNTER, slot_bytes(COUNT_KEY)) in child.reads & child.writes
        assert (fold.balances, fold.nonces, fold.storage, fold.reads, fold.writes) == ({}, {}, {}, set(), set())


class TestApplyBlockMatchesReExecution:
    @settings(max_examples=300, deadline=None)
    @given(worlds(), st.data())
    def test_block_state_equals_per_transaction_execution(self, world, data):
        state, _ = world
        block = as_block(draw_transactions(data, state, data.draw(st.integers(0, 10))), base_fee=data.draw(st.integers(0, 1)))
        recipient = data.draw(st.sampled_from([FEE_SINK, addr(1), MIXED]))
        try:
            expected = reference_apply_block(state, block, recipient)
        except InvalidBlock as exc:
            with pytest.raises(InvalidBlock) as got:
                apply_block(state, block, recipient)
            assert (got.value.index, got.value.reason) == (exc.index, exc.reason)
            return
        out = apply_block(state, block, recipient)
        assert out.accounts == expected.accounts
        assert state_root(out) == full_state_root(expected)

    # `apply_block` runs each call in place and undoes a revert from its log.
    # Each case reverts every call to REVERTER, which first rewrites a slot it
    # holds, writes it again, adds a slot and pays its caller.
    @pytest.mark.parametrize(
        "txs, fee_recipient",
        [
            ([tx(addr(1), 0, REVERTER, value=40, max_fee=2, priority_fee=1)], FEE_SINK),
            ([DepositTransaction(0, 0, addr(0xD1), REVERTER, 40, b"", 30)], FEE_SINK),
            ([DepositTransaction(0, 0, REVERTER, REVERTER, 5, b"", 30), tx(REVERTER, 0, REVERTER, value=5, max_fee=2, priority_fee=1)], FEE_SINK),
            ([tx(addr(1), 0, REVERTER, value=40, max_fee=2, priority_fee=1)], REVERTER),
            ([tx(addr(1), 0, REVERTER, value=40, max_fee=2, priority_fee=1), tx(addr(2), 0, REVERTER, value=7, gas_limit=24)], FEE_SINK),
        ],
        ids=["payable_call_writes_then_reverts", "deposit_keeps_the_mint_with_its_sender", "contract_is_its_own_sender",
             "reverting_contract_is_the_fee_recipient", "two_reverting_calls_to_one_contract"],
    )
    def test_a_reverted_call_leaves_what_re_execution_leaves(self, txs, fee_recipient):
        state = make_state({
            addr(1): Account(balance=5_000),
            addr(2): Account(balance=5_000),
            REVERTER: Account(balance=100, code=REVERTER_CODE, storage={slot_bytes(5): slot_bytes(3)}),
        })
        block = as_block(txs)
        expected = reference_apply_block(state, block, fee_recipient)
        out = apply_block(state, block, fee_recipient)
        assert out.storage_of(REVERTER) == {slot_bytes(5): slot_bytes(3)}  # every call reverted
        assert out.accounts == expected.accounts
        assert state_root(out) == full_state_root(expected)


class TestSlotMerge:
    def test_writes_to_one_contract_keep_each_others_slots(self):
        # Two zero-value calls to MIXED from the tip write different slots.
        # Every key each one read still holds its tip value after the other,
        # so both validate; merging whole storage dicts would lose the first.
        tip = make_state({addr(1): Account(balance=1_000), addr(2): Account(balance=1_000), MIXED: Account(code=MIXED_CODE)})
        calls = [tx(addr(n), 0, MIXED, data=bytes([n])) for n in (1, 2)]
        fold = Execution(tip)
        for sim in [execute_transaction(tip, t, ctx()) for t in calls]:
            _merge_validated(fold, sim.reads, sim)
        merged = fold.post_state()
        assert merged.accounts == reference_fold(tip, calls, ctx()).accounts
        assert merged.storage_of(MIXED) == {slot_bytes(9): slot_bytes(1), slot_bytes(10): slot_bytes(1)}


class TestForgedAccessSets:
    STATE = make_state({addr(1): Account(balance=1_000), addr(2): Account(balance=1_000)})
    PAY_2 = tx(addr(1), 0, addr(2), value=5, gas_limit=21)
    SPEND_2 = tx(addr(2), 0, addr(3), value=5, gas_limit=21)

    def test_a_read_the_fold_changed_fails_validation(self):
        fold = Execution(self.STATE)
        fold.absorb(execute_transaction(self.STATE, self.PAY_2, ctx()))
        spend = execute_transaction(self.STATE, self.SPEND_2, ctx())
        honest = frozenset({AccessKey(AccessKind.BALANCE, addr(3))})  # forged: claims it never read addr 2
        _merge_validated(fold, honest, spend)
        forged = frozenset({AccessKey(AccessKind.BALANCE, addr(2))})
        with pytest.raises(RuntimeError, match="diverged in block context"):
            _merge_validated(fold, forged, spend)

    def test_a_hidden_write_is_caught_before_it_is_merged(self, monkeypatch):
        # The first candidate's write set hides its credit to addr 2, so the
        # second looks uninfluenced; its read of addr 2 no longer holds.
        real = detection.execute_transaction

        def hide_credit(state, t, context):
            result = real(state, t, context)
            if t == self.PAY_2:
                result.writes.discard(AccessKey(AccessKind.BALANCE, addr(2)))
            return result

        monkeypatch.setattr(detection, "execute_transaction", hide_credit)
        with pytest.raises(RuntimeError, match="diverged in block context"):
            hybrid_detect(CandidateSet((self.PAY_2, self.SPEND_2), self.STATE), InvariantSet(), InvariantDetector(), ctx())


@pytest.fixture
def post_state_calls(monkeypatch):
    calls = []
    real = Execution.post_state

    def counted(exe):
        calls.append(exe)
        return real(exe)

    monkeypatch.setattr(Execution, "post_state", counted)
    return calls


class TestOnePostStatePerBlock:
    """A block of k uninfluenced transfers builds one account map in the
    sequencer's fold and one in `apply_block`, whatever k is."""

    @staticmethod
    def transfers(k):
        state = make_state({addr(100 + i): Account(balance=1_000) for i in range(k)})
        return state, [tx(addr(100 + i), 0, addr(1_000 + i), value=1, gas_limit=21) for i in range(k)]

    @pytest.mark.parametrize("k", [1, 4, 64])
    def test_fold_builds_one_state(self, post_state_calls, k):
        state, txs = self.transfers(k)
        outcome = hybrid_detect(CandidateSet(tuple(txs), state), InvariantSet(), InvariantDetector(), ctx())
        assert outcome.benign == txs and outcome.stats.contextual_sims == 0
        assert len(post_state_calls) == 1

    @pytest.mark.parametrize("k", [1, 4, 64])
    def test_apply_block_builds_one_state(self, post_state_calls, k):
        state, txs = self.transfers(k)
        apply_block(state, as_block(txs), FEE_SINK)
        assert len(post_state_calls) == 1

    @pytest.mark.parametrize("k", [1, 4, 64])
    def test_sequencer_block_and_its_derivation_build_one_state_each(self, post_state_calls, k):
        lines = ["scenario v1 name=count", "config fee_recipient=0xfe"]
        lines += [f"genesis account 0x{100 + i:04x} balance=1000" for i in range(k)]
        lines.append("run blocks=1")
        lines += [f"event 1 submit sender=0x{100 + i:04x} nonce=0 to=0x{1000 + i:04x} value=1 gas_limit=21" for i in range(k)]
        outcome = Sequencer(parse_scenario("\n".join(lines) + "\n")).run()
        assert len(outcome.report.blocks[0].tx_hashes) == k
        assert len(post_state_calls) == 1
        derive(outcome.history)
        assert len(post_state_calls) == 2
