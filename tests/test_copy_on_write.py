"""The copy-on-write VM and the classifier's fold, held to the full-copy
reference in `reference_vm`.

Three properties: the fast path produces exactly the reference's results and
roots; executing never mutates an input state (its accounts are shared with
every later snapshot); and the classifier's final fold state is the tip with
the benign candidates applied in order.
"""
import random

from hypothesis import given, settings, strategies as st

from helpers import (
    ADMIN,
    ATTACKER,
    COUNT_KEY,
    COUNTER,
    FEE_SINK,
    LEDGERBOOK,
    PAUSED,
    VAULT,
    addr,
    blind_writer,
    counter_contract,
    ctx,
    gated_vault,
    generator_candidates,
    generator_world,
    guard_only_vault,
    sequential_oracle,
    tx,
)
from reference_vm import full_state_root, reference_execute
from rollupsim.core import DepositTransaction
from rollupsim.detection import CandidateSet, InvariantDetector, InvariantSet, hybrid_detect
from rollupsim.vm import Account, PreconditionFailed, WorldState, execute_transaction, make_state, slot_bytes, state_root

PARTICIPANTS = [addr(i) for i in range(1, 5)] + [ADMIN, ATTACKER]
GUARDED = addr(0xC6)
CONTRACTS = {VAULT: gated_vault(), COUNTER: counter_contract(), LEDGERBOOK: blind_writer(), GUARDED: guard_only_vault()}
TARGETS = PARTICIPANTS + list(CONTRACTS) + [FEE_SINK, addr(0x77)]
SLOT_KEYS = (PAUSED, COUNT_KEY, 1, 2)


@st.composite
def genesis_states(draw):
    accounts = {}
    for a in PARTICIPANTS:
        if draw(st.booleans()):
            accounts[a] = Account(
                balance=draw(st.sampled_from([0, 30, 200, 5_000])), nonce=draw(st.integers(min_value=0, max_value=2))
            )
    for a, code in CONTRACTS.items():
        if draw(st.booleans()):
            storage = {
                slot_bytes(k): slot_bytes(draw(st.sampled_from([0, 1, 2, 7])))
                for k in SLOT_KEYS
                if draw(st.booleans())
            }
            accounts[a] = Account(balance=draw(st.sampled_from([0, 60, 100])), code=code, storage=storage)
    return make_state(accounts)


def draw_operation(data, state: WorldState, index: int):
    recipient = data.draw(st.sampled_from(TARGETS))
    value = data.draw(st.sampled_from([0, 0, 5, 40, 150]))
    payload = bytes([data.draw(st.sampled_from([0, 1, 2]))])
    if data.draw(st.integers(min_value=0, max_value=3)) == 0:
        return DepositTransaction(
            l1_block=0,
            l1_index=index,
            sender=data.draw(st.sampled_from(PARTICIPANTS + [addr(0xD1)])),
            recipient=recipient,
            value=value,
            data=payload,
            gas_limit=data.draw(st.sampled_from([21, 23, 30])),
        )
    sender = data.draw(st.sampled_from(PARTICIPANTS))
    nonce = max(0, state.nonce_of(sender) + data.draw(st.sampled_from([0, 0, 0, 1, -1])))
    max_fee = data.draw(st.integers(min_value=0, max_value=3))
    return tx(
        sender,
        nonce,
        None if data.draw(st.integers(min_value=0, max_value=9)) == 0 else recipient,
        value=value,
        data=payload,
        max_fee=max_fee,
        priority_fee=data.draw(st.integers(min_value=0, max_value=max_fee)),
        gas_limit=data.draw(st.sampled_from([21, 22, 23, 30])),
    )


def run_or_reason(execute, state, op, context):
    try:
        return execute(state, op, context)
    except PreconditionFailed as exc:
        return exc.reason


def contents(state: WorldState):
    """A deep copy of everything a state holds, for detecting in-place mutation."""
    return {a: (acct.balance, acct.nonce, acct.code, dict(acct.storage)) for a, acct in state.accounts.items()}


class TestDifferentialAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(genesis_states(), st.data())
    def test_results_states_and_roots_match(self, genesis, data):
        fast_state = ref_state = genesis
        seen = [(genesis, contents(genesis), full_state_root(genesis))]
        for index in range(data.draw(st.integers(min_value=1, max_value=8))):
            op = draw_operation(data, fast_state, index)
            context = ctx(
                base_fee=data.draw(st.integers(min_value=0, max_value=2)),
                fee_recipient=data.draw(st.sampled_from([FEE_SINK, addr(1), VAULT])),
            )
            fast = run_or_reason(execute_transaction, fast_state, op, context)
            ref = run_or_reason(reference_execute, ref_state, op, context)
            if isinstance(ref, str):
                assert fast == ref
                continue
            assert fast.tx_id == ref.tx_id
            assert fast.status == ref.status
            assert fast.gas_used == ref.gas_used
            assert fast.reads == ref.reads
            assert fast.writes == ref.writes
            assert fast.balance_deltas == ref.balance_deltas
            assert fast.post_state.accounts == ref.post_state.accounts
            assert state_root(fast.post_state) == full_state_root(ref.post_state)
            fast_state, ref_state = fast.post_state, ref.post_state
            seen.append((fast_state, contents(fast_state), full_state_root(fast_state)))
            # No earlier snapshot, whose accounts the new one shares, moved.
            for state, held, root in seen:
                assert contents(state) == held
                assert state_root(state) == root


class TestAliasing:
    def test_chained_execution_leaves_inputs_untouched(self):
        state = make_state(
            {
                ADMIN: Account(balance=10_000),
                COUNTER: Account(code=counter_contract(), storage={slot_bytes(COUNT_KEY): slot_bytes(1)}),
            }
        )
        before, root = contents(state), state_root(state)
        first = execute_transaction(state, tx(ADMIN, 0, COUNTER), ctx()).post_state
        second = execute_transaction(first, tx(ADMIN, 1, COUNTER), ctx()).post_state
        assert contents(state) == before and state_root(state) == root
        assert first.account(COUNTER).storage == {slot_bytes(COUNT_KEY): slot_bytes(2)}
        assert second.account(COUNTER).storage == {slot_bytes(COUNT_KEY): slot_bytes(3)}

    def test_untouched_accounts_are_shared(self):
        state = make_state({addr(1): Account(balance=100), addr(2): Account(balance=100)})
        post = execute_transaction(state, tx(addr(1), 0, addr(3), value=1, gas_limit=21, max_fee=0), ctx(base_fee=0))
        assert post.post_state.accounts[addr(2)] is state.accounts[addr(2)]
        assert post.post_state.accounts[addr(1)] is not state.accounts[addr(1)]

    def test_touched_empty_accounts_stay_absent(self):
        state = make_state({addr(1): Account(balance=5)})
        nothing = DepositTransaction(l1_block=0, l1_index=0, sender=addr(9), recipient=addr(8), value=0, data=b"", gas_limit=21)
        assert execute_transaction(state, nothing, ctx()).post_state.accounts == state.accounts


class TestDigestMemo:
    def test_account_moved_to_another_address_is_rehashed(self):
        acct = Account(balance=5, nonce=1)
        here = WorldState({addr(1): acct})
        assert state_root(here) == full_state_root(here)
        moved = WorldState({addr(2): acct})
        assert state_root(moved) == full_state_root(moved)
        both = WorldState({addr(1): acct, addr(2): acct})
        assert state_root(both) == full_state_root(both)
        assert state_root(here) == full_state_root(here)

    def test_memo_does_not_change_equality(self):
        a, b = Account(balance=5), Account(balance=5)
        state_root(WorldState({addr(1): a}))
        assert a == b


class TestFoldFinalState:
    def test_final_state_is_benign_candidates_applied_in_order(self):
        detector = InvariantDetector()
        rng = random.Random(2203_06871)
        for _ in range(300):
            state, invariant_list = generator_world(rng)
            invariants = InvariantSet()
            for invariant in invariant_list:
                invariants.register(invariant, state)
            txs = generator_candidates(rng, state)
            budget = rng.choice([None, None, 0, 1, 2])
            outcome = hybrid_detect(CandidateSet(tuple(txs), state, budget=budget), invariants, detector, ctx())
            expected = state
            for t in outcome.benign:
                expected = reference_execute(expected, t, ctx()).post_state
            assert outcome.final_state.accounts == expected.accounts
            assert state_root(outcome.final_state) == full_state_root(expected)
            if budget is None:
                *_, oracle_state = sequential_oracle(txs, state, invariants, detector, ctx())
                assert outcome.final_state.accounts == oracle_state.accounts

    def test_no_candidates_leaves_the_tip(self):
        state = make_state({addr(1): Account(balance=1)})
        outcome = hybrid_detect(CandidateSet((), state), InvariantSet(), InvariantDetector(), ctx())
        assert outcome.final_state is state
