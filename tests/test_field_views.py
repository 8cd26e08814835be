"""The field views and the post-state, held to the full-copy oracle.

A stack of a rooted world state, a block scratch over it and a transaction
execution over the scratch takes random balance, nonce, slot and code reads
and writes. At each level `balance_of`, `nonce_of`, `storage_of` and
`code_of` must show exactly the fields of the accounts that
`reference_vm.full_copy_post_state` builds, and the scratch's `post_state()`
must equal that oracle, with a root lineage naming exactly the addresses
whose account differs from the base. The oracle overlays the scratch's own
dicts, so it is itself checked against plain dict updates of each write.
A fold that absorbs rounds of such operations answers the merge check
`reads_as_base` as `reference_vm.reference_reads_as_base` does, for any
set of keys.
"""
from hypothesis import example, given, settings, strategies as st

from helpers import ADMIN, addr, counter_contract
from reference_vm import full_copy_post_state, reference_reads_as_base
from rollupsim.vm import (
    EMPTY_ACCOUNT,
    ZERO_SLOT,
    AccessKey,
    AccessKind,
    Account,
    Execution,
    WorldState,
    make_state,
    slot_bytes,
    state_root,
)

ADDRS = [addr(0xC0)] + [addr(i) for i in range(1, 5)]  # the first has code, the last starts absent
CODE = counter_contract()
OPS = ("read_balance", "write_balance", "read_nonce", "write_nonce", "read_slot", "write_slot", "read_code")
VALUES = (0, 1, 5, 7, 100)

slot_values = st.dictionaries(st.integers(0, 2), st.sampled_from(VALUES), max_size=2)
genesis_accounts = st.tuples(*[st.tuples(st.sampled_from(VALUES), st.integers(0, 1), slot_values) for _ in ADDRS[:-1]])
operations = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, len(ADDRS) - 1), st.integers(0, 2), st.sampled_from(VALUES)),
    max_size=12,
)


def world(spec) -> WorldState:
    accounts = {}
    for a, (balance, nonce, slots) in zip(ADDRS, spec):
        storage = {slot_bytes(k): slot_bytes(v) for k, v in slots.items()}
        accounts[a] = Account(balance, nonce, CODE if a == ADDRS[0] else None, storage)
    state = make_state(accounts)
    state_root(state)  # rooted, so a post-state records its lineage
    return state


def perform(exe: Execution, ops) -> None:
    """Run each operation on `exe`; each read must return the oracle's field."""
    for op, i, slot, value in ops:
        a, key = ADDRS[i], slot_bytes(slot)
        if op == "write_slot":
            exe.write_slot(a, key, slot_bytes(value))
        elif op.startswith("write"):
            getattr(exe, op)(a, value)
        else:
            balance, nonce, code, storage = flattened(exe).accounts.get(a, EMPTY_ACCOUNT)
            if op == "read_slot":
                assert exe.read_slot(a, key) == storage.get(key, ZERO_SLOT)
            else:
                assert getattr(exe, op)(a) == {"read_balance": balance, "read_nonce": nonce, "read_code": code}[op]


def flattened(exe: Execution) -> WorldState:
    """The oracle's accounts as a stack of executions leaves them: each
    level's scratch laid over the full-copy post-state of the levels below."""
    if isinstance(exe.base, WorldState):
        return full_copy_post_state(exe)
    top = Execution(flattened(exe.base))
    top.balances, top.nonces, top.storage = exe.balances, exe.nonces, exe.storage
    return full_copy_post_state(top)


def modelled(state: WorldState, *op_lists) -> WorldState:
    """The accounts the writes leave, by plain dict updates."""
    fields = {a: [state.balance_of(a), state.nonce_of(a), dict(state.storage_of(a))] for a in ADDRS}
    for ops in op_lists:
        for op, i, slot, value in ops:
            account = fields[ADDRS[i]]
            if op == "write_slot":
                account[2][slot_bytes(slot)] = slot_bytes(value)
            elif op.startswith("write"):
                account[0 if op == "write_balance" else 1] = value
    return make_state({a: Account(b, n, state.code_of(a), s) for a, (b, n, s) in fields.items()})


def assert_views_match(view, oracle: WorldState) -> None:
    for a in ADDRS:
        acct = oracle.accounts.get(a, EMPTY_ACCOUNT)
        assert view.balance_of(a) == acct.balance
        assert view.nonce_of(a) == acct.nonce
        assert dict(view.storage_of(a)) == dict(acct.storage)
        assert view.code_of(a) is acct.code


def assert_post_state_matches(scratch: Execution, base: WorldState) -> None:
    post, oracle = scratch.post_state(), full_copy_post_state(scratch)
    assert post.accounts == oracle.accounts
    differs = {a for a in ADDRS if base.accounts.get(a) != oracle.accounts.get(a)}
    assert post._lineage == (base._table, frozenset(differs))
    for a in ADDRS:  # an account that did not change is the base's own object
        if a not in differs and a in base.accounts:
            assert post.accounts[a] is base.accounts[a]


ONLY_READ = [("read_balance", 1, 0, 0), ("read_nonce", 1, 0, 0), ("read_slot", 1, 0, 0), ("read_code", 0, 0, 0)]


class TestFieldViewsAndPostState:
    @settings(max_examples=300, deadline=None)
    @given(genesis_accounts, operations, operations)
    # An address that is only read: it enters the scratch, and stays out of the lineage.
    @example(((0, 0, {}), (100, 1, {0: 5}), (7, 0, {}), (0, 0, {})), ONLY_READ, ONLY_READ)
    # An account emptied and pruned: a balance spent to zero, a last slot
    # cleared. A contract spent to zero keeps its code, and is kept.
    @example(
        ((5, 0, {}), (0, 0, {}), (7, 0, {}), (0, 0, {1: 5})),
        [("write_balance", 2, 0, 0), ("write_balance", 0, 0, 0)],
        [("write_slot", 3, 1, 0)],
    )
    # A slot written back to its old value: an equal storage dict, a different object.
    @example(
        ((0, 0, {0: 5}), (0, 0, {}), (0, 0, {}), (0, 0, {})), [("write_slot", 0, 0, 1)], [("write_slot", 0, 0, 5)]
    )
    def test_views_and_post_state_match_the_full_copy(self, spec, scratch_ops, exe_ops):
        state = world(spec)
        scratch = Execution(state)
        perform(scratch, scratch_ops)
        exe = Execution(scratch)
        perform(exe, exe_ops)
        assert flattened(scratch).accounts == modelled(state, scratch_ops).accounts
        assert flattened(exe).accounts == modelled(state, scratch_ops, exe_ops).accounts
        assert_views_match(state, make_state(state.accounts))
        assert_views_match(scratch, flattened(scratch))
        assert_views_match(exe, flattened(exe))
        assert_post_state_matches(scratch, state)
        scratch.absorb(exe)
        assert flattened(scratch).accounts == modelled(state, scratch_ops, exe_ops).accounts
        assert_views_match(scratch, flattened(scratch))
        assert_post_state_matches(scratch, state)

    def test_the_examples_reach_their_cases(self):
        """Each explicit example above shows what it is named for."""
        state = world(((0, 0, {}), (100, 1, {0: 5}), (7, 0, {}), (0, 0, {})))
        scratch = Execution(state)
        perform(scratch, ONLY_READ)
        assert ADDRS[1] in scratch.balances and scratch.post_state()._lineage[1] == frozenset()

        state = world(((5, 0, {}), (0, 0, {}), (7, 0, {}), (0, 0, {1: 5})))
        scratch = Execution(state)
        perform(scratch, [("write_balance", 2, 0, 0), ("write_balance", 0, 0, 0), ("write_slot", 3, 1, 0)])
        post = scratch.post_state()
        assert ADDRS[2] in state.accounts and ADDRS[3] in state.accounts
        assert ADDRS[2] not in post.accounts and ADDRS[3] not in post.accounts
        assert post.accounts[ADDRS[0]] == Account(0, 0, CODE, {})
        assert post._lineage[1] == {ADDRS[0], ADDRS[2], ADDRS[3]}

        state = world(((0, 0, {0: 5}), (0, 0, {}), (0, 0, {}), (0, 0, {})))
        scratch = Execution(state)
        perform(scratch, [("write_slot", 0, 0, 1), ("write_slot", 0, 0, 5)])
        post = scratch.post_state()
        assert scratch.storage[ADDRS[0]] is not state.accounts[ADDRS[0]].storage
        assert post.accounts[ADDRS[0]] is state.accounts[ADDRS[0]] and post._lineage[1] == frozenset()

    def test_a_changed_account_has_the_base_code(self):
        state = make_state({ADMIN: Account(balance=10), ADDRS[0]: Account(balance=3, code=CODE)})
        scratch = Execution(state)
        scratch.write_balance(ADDRS[0], 4)
        acct = scratch.post_state().accounts[ADDRS[0]]
        assert type(acct) is Account and acct == Account(4, 0, CODE, {}) and acct.code is CODE


KINDS = (AccessKind.STORAGE, AccessKind.BALANCE, AccessKind.NONCE, AccessKind.CODE)


def access_key(kind: int, i: int, slot: int) -> AccessKey:
    return AccessKey(kind, ADDRS[i], slot_bytes(slot) if kind == AccessKind.STORAGE else b"")


access_keys = st.lists(
    st.builds(access_key, st.sampled_from(KINDS), st.integers(0, len(ADDRS) - 1), st.integers(0, 2)), max_size=8
)
ALL_KEYS = [access_key(kind, i, slot) for kind in KINDS for i in range(len(ADDRS)) for slot in range(3)]
BASE_SPEC = ((0, 0, {0: 5}), (100, 1, {}), (7, 0, {}), (0, 0, {}))
SLOT_0 = access_key(AccessKind.STORAGE, 0, 0)
WRITTEN_BACK = [[("write_slot", 0, 0, 1)], [("write_slot", 0, 0, 5)]]  # a slot written back to its base value


def absorbed(state: WorldState, rounds) -> Execution:
    """A fold over `state` that absorbed one execution per round of operations."""
    fold = Execution(state)
    for ops in rounds:
        exe = Execution(fold)
        perform(exe, ops)
        fold.absorb(exe)
    return fold


class TestReadsAsBase:
    """The merge check against the original, which reads every key through
    the generic `_read_key` on both the fold and its base."""

    @settings(max_examples=300, deadline=None)
    @given(genesis_accounts, st.lists(operations, max_size=3), access_keys)
    @example(BASE_SPEC, WRITTEN_BACK, [SLOT_0])
    @example(BASE_SPEC, [ONLY_READ], [access_key(AccessKind.BALANCE, 1, 0)])  # a balance the fold only read
    @example(BASE_SPEC, [[("write_balance", 0, 0, 7)]], [access_key(AccessKind.CODE, 0, 0)])  # code keys
    @example(BASE_SPEC, [[("write_balance", 1, 0, 7)]], [access_key(AccessKind.BALANCE, 1, 0)])
    def test_matches_the_reference(self, spec, rounds, keys):
        fold = absorbed(world(spec), rounds)
        assert fold.reads_as_base(keys) == reference_reads_as_base(fold, keys)
        for key in ALL_KEYS:
            assert fold.reads_as_base([key]) == reference_reads_as_base(fold, [key]), key
        child = Execution(fold)  # a check over an execution, not a world state
        perform(child, rounds[-1] if rounds else ())
        for key in ALL_KEYS:
            assert child.reads_as_base([key]) == reference_reads_as_base(child, [key]), key

    def test_the_examples_reach_their_cases(self):
        state = world(BASE_SPEC)
        fold = absorbed(state, WRITTEN_BACK)
        assert fold.storage[ADDRS[0]] is not state.storage_of(ADDRS[0]) and fold.reads_as_base([SLOT_0])
        fold = absorbed(state, [ONLY_READ])
        assert ADDRS[1] in fold.balances and fold.reads_as_base([access_key(AccessKind.BALANCE, 1, 0)])
        fold = absorbed(state, [[("write_balance", 1, 0, 7)]])
        assert not fold.reads_as_base([access_key(AccessKind.BALANCE, 1, 0)])
        assert fold.reads_as_base([access_key(AccessKind.CODE, i, 0) for i in range(len(ADDRS))])
