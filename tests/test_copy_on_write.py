"""The copy-on-write VM and the classifier's fold, held to the full-copy
reference in `reference_vm`.

Four properties: the fast path produces exactly the reference's results and
roots; executing never mutates an input state (its accounts are shared with
every later snapshot); the incremental root of any state, rooted in any
order, equals a full rehash, and `changed_since` never misses an account
that differs; and the classifier's final fold state is the tip with the
benign candidates applied in order.
"""
import gc
import random
import weakref

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
    balance_deltas,
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
from rollupsim.vm import (
    Account,
    Execution,
    PreconditionFailed,
    WorldState,
    changed_since,
    execute_transaction,
    make_state,
    slot_bytes,
    state_root,
)

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
            ref, ref_post = ref
            fast_post = fast.post_state()
            assert fast.status == ref.status
            assert fast.gas_used == ref.gas_used
            assert fast.reads == ref.reads
            assert fast.writes == ref.writes
            assert balance_deltas(fast_state, fast_post) == balance_deltas(ref_state, ref_post)
            assert fast_post.accounts == ref_post.accounts
            assert state_root(fast_post) == full_state_root(ref_post)
            fast_state, ref_state = fast_post, ref_post
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
        first = execute_transaction(state, tx(ADMIN, 0, COUNTER), ctx()).post_state()
        second = execute_transaction(first, tx(ADMIN, 1, COUNTER), ctx()).post_state()
        assert contents(state) == before and state_root(state) == root
        assert first.account(COUNTER).storage == {slot_bytes(COUNT_KEY): slot_bytes(2)}
        assert second.account(COUNTER).storage == {slot_bytes(COUNT_KEY): slot_bytes(3)}

    def test_untouched_accounts_are_shared(self):
        state = make_state({addr(1): Account(balance=100), addr(2): Account(balance=100)})
        post = execute_transaction(state, tx(addr(1), 0, addr(3), value=1, gas_limit=21, max_fee=0), ctx(base_fee=0))
        assert post.post_state().accounts[addr(2)] is state.accounts[addr(2)]
        assert post.post_state().accounts[addr(1)] is not state.accounts[addr(1)]

    def test_touched_empty_accounts_stay_absent(self):
        state = make_state({addr(1): Account(balance=5)})
        nothing = DepositTransaction(l1_block=0, l1_index=0, sender=addr(9), recipient=addr(8), value=0, data=b"", gas_limit=21)
        assert execute_transaction(state, nothing, ctx()).post_state().accounts == state.accounts


def draw_edit(data, base: WorldState) -> WorldState:
    """A post-state made by writing balances, nonces and slots directly, so
    that accounts are created, changed and pruned (an EOA set back to zero
    balance and nonce disappears)."""
    exe = Execution(base)
    for a in data.draw(st.lists(st.sampled_from(PARTICIPANTS + [addr(0x77)]), max_size=3, unique=True)):
        exe.balances[a] = data.draw(st.sampled_from([0, 0, 1, 500]))
        exe.nonces[a] = data.draw(st.sampled_from([0, base.nonce_of(a), base.nonce_of(a) + 1]))
    for a in data.draw(st.lists(st.sampled_from(list(CONTRACTS)), max_size=2, unique=True)):
        exe.write_slot(a, slot_bytes(data.draw(st.sampled_from(SLOT_KEYS))), slot_bytes(data.draw(st.sampled_from([0, 3]))))
    return exe.post_state()


def assert_changes_covered(state: WorldState, earlier: WorldState) -> None:
    changed = changed_since(state, earlier)
    if changed is None:
        return
    for a in state.accounts.keys() | earlier.accounts.keys():
        if a not in changed:
            assert state.accounts.get(a) is earlier.accounts.get(a)


class TestIncrementalRoot:
    @settings(max_examples=200, deadline=None)
    @given(genesis_states(), st.data())
    def test_roots_in_any_order_match_a_full_rehash(self, genesis, data):
        states = [genesis]
        if data.draw(st.booleans()):
            state_root(genesis)
        for index in range(data.draw(st.integers(min_value=1, max_value=12))):
            # Extend the newest state or any earlier one: chains, siblings
            # and isolated branches off rooted and unrooted states.
            base = data.draw(st.sampled_from([states[-1], states[-1], *states]))
            kind = data.draw(st.sampled_from(["execute", "execute", "edit", "detached"]))
            if kind == "execute":
                op = draw_operation(data, base, index)
                result = run_or_reason(execute_transaction, base, op, ctx(base_fee=data.draw(st.integers(0, 1))))
                if isinstance(result, str):
                    continue
                state = result.post_state()
            elif kind == "edit":
                state = draw_edit(data, base)
            else:
                state = WorldState(dict(base.accounts))  # no lineage
            related = kind != "detached" and base._table is not None  # one hop from a rooted base
            assert (changed_since(state, base) is not None) == related
            states.append(state)
            for s in data.draw(st.lists(st.sampled_from(states), max_size=3)):
                assert state_root(s) == full_state_root(s)
        for s in data.draw(st.permutations(states)):
            assert state_root(s) == full_state_root(s)
        for s in states:
            for e in states:
                assert_changes_covered(s, e)

    def test_successor_of_a_rooted_state_names_exactly_its_changes(self):
        state = make_state({addr(1): Account(balance=100), addr(2): Account(balance=100)})
        state_root(state)
        post = execute_transaction(state, tx(addr(1), 0, addr(3), value=1, gas_limit=21, max_fee=0), ctx(base_fee=0)).post_state()
        assert changed_since(post, state) == {addr(1), addr(3)}
        assert changed_since(post, post) == set()
        sibling = execute_transaction(state, tx(addr(2), 0, addr(4), value=1, gas_limit=21, max_fee=0), ctx(base_fee=0)).post_state()
        assert changed_since(post, sibling) is None  # one hop only: a sibling is not the rooted base
        assert changed_since(state, post) is None  # an ancestor does not know its successors
        assert changed_since(post, WorldState(dict(state.accounts))) is None  # unrelated

    def test_changes_are_known_across_sealed_blocks(self):
        # The sequencer's flow: each block's state is executed from the last
        # sealed one; an epoch head's deposits add one more unsealed step.
        # Each sealed block knows its changes since the one before it.
        def pay(state, sender, nonce, to):
            return execute_transaction(state, tx(sender, nonce, to, value=1, gas_limit=21, max_fee=0), ctx(base_fee=0)).post_state()

        genesis = make_state({addr(1): Account(balance=100), addr(2): Account(balance=100)})
        state_root(genesis)
        block0 = pay(genesis, addr(1), 0, addr(3))
        assert changed_since(block0, genesis) == {addr(1), addr(3)}
        state_root(block0)
        deposited = pay(block0, addr(2), 0, addr(4))  # not sealed yet
        block1 = pay(deposited, addr(1), 1, addr(5))
        assert changed_since(block1, block0) == {addr(1), addr(2), addr(4), addr(5)}
        assert changed_since(block1, genesis) is None  # two sealed blocks back
        state_root(block1)
        block2 = pay(block1, addr(2), 1, addr(6))
        assert changed_since(block2, block1) == {addr(2), addr(6)}
        assert changed_since(block2, block0) is None
        for later, earlier in ((block0, genesis), (block1, block0), (block2, block1)):
            assert_changes_covered(later, earlier)

    def test_unrooted_base_gives_no_lineage(self):
        state = make_state({addr(1): Account(balance=100)})
        post = execute_transaction(state, tx(addr(1), 0, addr(3), value=1, gas_limit=21, max_fee=0), ctx(base_fee=0)).post_state()
        assert changed_since(post, state) is None
        assert state_root(post) == full_state_root(post)

    def test_lineage_keeps_no_chain_of_old_states_alive(self):
        state = make_state({addr(1): Account(balance=10_000)})
        refs = []
        for nonce in range(5):
            state_root(state)
            refs.append(weakref.ref(state))
            state = execute_transaction(state, tx(addr(1), nonce, addr(2), value=1, gas_limit=21, max_fee=0), ctx(base_fee=0)).post_state()
        gc.collect()
        assert all(ref() is None for ref in refs)
        # The rooted ancestor is gone but its digest table is not: the root is still incremental and right.
        assert state._lineage is not None
        assert changed_since(state, WorldState({})) is None
        assert state_root(state) == full_state_root(state)


class TestSharedAccountDigest:
    """One `Account` object shared by several addresses or states is hashed
    with the address it sits at each time."""

    def test_account_moved_to_another_address_is_rehashed(self):
        acct = Account(balance=5, nonce=1)
        here = WorldState({addr(1): acct})
        assert state_root(here) == full_state_root(here)
        moved = WorldState({addr(2): acct})
        assert state_root(moved) == full_state_root(moved)
        both = WorldState({addr(1): acct, addr(2): acct})
        assert state_root(both) == full_state_root(both)
        assert state_root(here) == full_state_root(here)

    def test_rooting_does_not_change_account_equality(self):
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
                expected = reference_execute(expected, t, ctx())[1]
            assert outcome.final_state.accounts == expected.accounts
            assert state_root(outcome.final_state) == full_state_root(expected)
            if budget is None:
                *_, oracle_state = sequential_oracle(txs, state, invariants, detector, ctx())
                assert outcome.final_state.accounts == oracle_state.accounts

    def test_no_candidates_leaves_the_tip(self):
        state = make_state({addr(1): Account(balance=1)})
        outcome = hybrid_detect(CandidateSet((), state), InvariantSet(), InvariantDetector(), ctx())
        assert outcome.final_state is state
