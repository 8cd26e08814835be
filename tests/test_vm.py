import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ADMIN,
    ATTACKER,
    FEE_SINK,
    PAUSED_SLOT,
    VAULT,
    addr,
    balance_deltas,
    ctx,
    exploit_tx,
    gated_vault,
    guard_only_vault,
    tx,
    unpause_tx,
    vault_state,
)
from reference_vm import full_state_root
from rollupsim.core import Block, DepositTransaction, StateRoot, tx_hash
from rollupsim.vm import (
    AccessKey,
    AccessKind,
    Account,
    AccountOverflow,
    Const,
    ContractCode,
    InvalidBlock,
    PreconditionFailed,
    Require,
    SetSlot,
    TxStatus,
    WorldState,
    apply_block,
    code_hash,
    execute_transaction,
    make_state,
    slot_bytes,
    state_root,
)


def simple_state(balances):
    return make_state({a: Account(balance=b) for a, b in balances.items()})


def outcome(result):
    return result.status, result.gas_used, result.reads, result.writes


class TestTransfer:
    def test_plain_transfer_cost_model(self):
        # balance 100, send 5 at base fee 1 with gas_limit 21: 21 gas burned.
        state = simple_state({addr(1): 100})
        result = execute_transaction(state, tx(addr(1), 0, addr(2), value=5, gas_limit=21), ctx())
        assert result.status is TxStatus.SUCCESS
        assert result.gas_used == 21
        assert result.post_state().balance_of(addr(1)) == 74
        assert result.post_state().balance_of(addr(2)) == 5

    def test_nonce_and_balance_and_fee_preconditions(self):
        state = simple_state({addr(1): 100})
        with pytest.raises(PreconditionFailed) as e:
            execute_transaction(state, tx(addr(1), 3, addr(2)), ctx())
        assert e.value.reason == PreconditionFailed.NONCE_TOO_HIGH
        with pytest.raises(PreconditionFailed) as e:
            execute_transaction(state, tx(addr(1), 0, addr(2), value=1000), ctx())
        assert e.value.reason == PreconditionFailed.INSUFFICIENT_BALANCE
        with pytest.raises(PreconditionFailed) as e:
            execute_transaction(state, tx(addr(1), 0, addr(2), max_fee=1), ctx(base_fee=5))
        assert e.value.reason == PreconditionFailed.FEE_BELOW_BASE

    def test_priority_fee_goes_to_fee_recipient(self):
        state = simple_state({addr(1): 1000})
        result = execute_transaction(state, tx(addr(1), 0, addr(2), max_fee=5, priority_fee=2, gas_limit=21), ctx())
        assert result.post_state().balance_of(FEE_SINK) == 2 * 21
        assert sum(balance_deltas(state, result.post_state()).values()) == -21  # base-fee share burned

    def test_create_lands_value_at_fresh_deterministic_address(self):
        state = simple_state({addr(1): 1000})
        r1 = execute_transaction(state, tx(addr(1), 0, None, value=7, gas_limit=21), ctx())
        r2 = execute_transaction(state, tx(addr(1), 0, None, value=7, gas_limit=21), ctx())
        assert outcome(r1) == outcome(r2)
        assert r1.post_state() == r2.post_state()
        created = [a for a, d in balance_deltas(state, r1.post_state()).items() if d == 7]
        assert len(created) == 1 and created[0] not in (addr(1), FEE_SINK)


class TestRevert:
    def revert_contract_state(self):
        code = ContractCode(admin=ADMIN, statements=(Require(Const(0)),))
        return make_state({addr(1): Account(balance=1000), addr(9): Account(code=code, storage={slot_bytes(5): slot_bytes(7)})})

    def test_failed_require_reverts_with_gas_charge(self):
        state = self.revert_contract_state()
        result = execute_transaction(state, tx(addr(1), 0, addr(9), gas_limit=30), ctx())
        assert result.status is TxStatus.REVERT
        assert result.gas_used == 22
        assert result.post_state().nonce_of(addr(1)) == 1
        assert result.post_state().balance_of(addr(1)) == 1000 - 22
        # storage untouched
        assert result.post_state().account(addr(9)).storage == state.account(addr(9)).storage

    def test_revert_writes_limited_to_sender_and_fee_recipient(self):
        state = self.revert_contract_state()
        result = execute_transaction(state, tx(addr(1), 0, addr(9), gas_limit=30), ctx())
        allowed = {
            AccessKey(AccessKind.NONCE, addr(1)), AccessKey(AccessKind.BALANCE, addr(1)),
            AccessKey(AccessKind.BALANCE, FEE_SINK),
        }
        assert result.writes <= allowed

    def test_out_of_gas_reverts_at_gas_limit(self):
        code = ContractCode(admin=ADMIN, statements=(SetSlot(Const(1), Const(1)), SetSlot(Const(2), Const(1))))
        state = make_state({addr(1): Account(balance=1000), addr(9): Account(code=code)})
        result = execute_transaction(state, tx(addr(1), 0, addr(9), gas_limit=22), ctx())
        assert result.status is TxStatus.REVERT
        assert result.gas_used == 22
        assert result.post_state().balance_of(addr(1)) == 1000 - 22  # charged the whole limit
        assert result.post_state().account(addr(9)).storage == {}

    def test_overdrawn_pay_reverts(self):
        state = vault_state(paused=False, vault_balance=0, code=guard_only_vault())
        # empty vault pays the whole (zero) balance, fine; force an overdraw
        from rollupsim.vm import Pay, Caller
        code = ContractCode(admin=ADMIN, statements=(Pay(Caller(), Const(10)),))
        state = make_state({ATTACKER: Account(balance=1000), VAULT: Account(balance=5, code=code)})
        result = execute_transaction(state, exploit_tx(), ctx())
        assert result.status is TxStatus.REVERT
        assert result.post_state().balance_of(VAULT) == 5


class TestPauseFixture:
    """Hand-traced oracle for the guarded vault."""

    def test_exploit_reverts_while_paused_and_reads_the_flag(self):
        state = vault_state(paused=True, code=guard_only_vault())
        result = execute_transaction(state, exploit_tx(gas_limit=30), ctx())
        assert result.status is TxStatus.REVERT
        assert AccessKey(AccessKind.STORAGE, VAULT, PAUSED_SLOT) in result.reads
        assert result.post_state().balance_of(VAULT) == 100

    def test_exploit_drains_once_unpaused(self):
        state = vault_state(paused=False, code=guard_only_vault())
        result = execute_transaction(state, exploit_tx(gas_limit=30), ctx())
        assert result.status is TxStatus.SUCCESS
        assert result.gas_used == 23
        assert result.post_state().balance_of(VAULT) == 0
        # attacker nets the vault minus gas
        assert balance_deltas(state, result.post_state())[ATTACKER] == 100 - 23

    def test_admin_gated_vault_unpause_then_drain(self):
        state = vault_state(paused=True)  # gated_vault code
        a = execute_transaction(state, unpause_tx(gas_limit=30), ctx())
        assert a.status is TxStatus.SUCCESS
        assert a.post_state().balance_of(VAULT) == 100  # admin calls never pay out
        assert a.post_state().account(VAULT).storage == {}  # unpaused (slot cleared)
        b = execute_transaction(a.post_state(), exploit_tx(gas_limit=30), ctx())
        assert b.status is TxStatus.SUCCESS
        assert b.post_state().balance_of(VAULT) == 0

    def test_dependency_keys_cross_correctly(self):
        state = vault_state(paused=True)
        a = execute_transaction(state, unpause_tx(gas_limit=30), ctx())
        b = execute_transaction(state, exploit_tx(gas_limit=30), ctx())
        key = AccessKey(AccessKind.STORAGE, VAULT, PAUSED_SLOT)
        assert key in a.writes and key in b.reads


class TestStateRoot:
    def test_empty_state_is_hash_of_empty_string(self):
        assert state_root(WorldState()) == StateRoot(hashlib.sha256(b"").digest())

    def test_insertion_order_irrelevant(self):
        a = make_state({addr(1): Account(balance=5), addr(2): Account(balance=6)})
        b = make_state({addr(2): Account(balance=6), addr(1): Account(balance=5)})
        assert state_root(a) == state_root(b)

    def test_one_slot_difference_changes_root(self):
        code = ContractCode(admin=ADMIN, statements=())
        s1 = make_state({addr(1): Account(balance=5), addr(9): Account(code=code, storage={slot_bytes(1): slot_bytes(1)})})
        s2 = make_state({addr(1): Account(balance=5), addr(9): Account(code=code, storage={slot_bytes(1): slot_bytes(2)})})
        assert state_root(s1) != state_root(s2)

    def test_matches_independent_reconstruction(self):
        # Recompute the documented digest layout with nothing but hashlib.
        code = ContractCode(admin=ADMIN, statements=())
        state = make_state(
            {
                addr(3): Account(balance=77, nonce=2),
                addr(9): Account(balance=5, code=code, storage={slot_bytes(2): slot_bytes(9), slot_bytes(1): slot_bytes(4)}),
            }
        )
        digests = []
        for a, acct in sorted(state.accounts.items()):
            h = hashlib.sha256()
            h.update(bytes(a))
            h.update(acct.balance.to_bytes(16, "big"))
            h.update(acct.nonce.to_bytes(8, "big"))
            h.update(code_hash(acct.code))
            for k in sorted(acct.storage):
                h.update(k + acct.storage[k])
            digests.append(h.digest())
        expected = hashlib.sha256(b"".join(digests)).digest()
        assert state_root(state) == StateRoot(expected)

    def test_canonical_absence_of_empty_accounts(self):
        assert make_state({addr(1): Account()}) == WorldState()


WIDE_BALANCES = st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1]) | st.integers(0, 2**128 - 1)
WIDE_NONCES = st.sampled_from([0, 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
DIGEST_CODE = ContractCode(admin=ADMIN, statements=(SetSlot(Const(1), Const(2)),))
ONE = slot_bytes(1)
digest_accounts = st.dictionaries(
    st.integers(1, 40).map(addr),
    st.builds(
        lambda balance, nonce, has_code, slots: Account(
            balance, nonce, DIGEST_CODE if has_code else None, {slot_bytes(k): slot_bytes(v) for k, v in slots.items()}
        ),
        WIDE_BALANCES,
        WIDE_NONCES,
        st.booleans(),
        st.dictionaries(st.integers(0, 2**256 - 1), st.integers(0, 3), max_size=3),
    ),
    max_size=6,
)


class TestAccountDigest:
    """The one-pack account digest against `reference_vm.full_state_root`,
    which feeds each field of every account to SHA-256 on its own."""

    @settings(max_examples=300, deadline=None)
    @given(digest_accounts)
    @example({addr(1): Account(2**64 - 1), addr(2): Account(2**64), addr(3): Account(2**128 - 1)})
    @example({addr(1): Account(2**128 - 1, 2**64 - 1, DIGEST_CODE, {slot_bytes(2): slot_bytes(9), slot_bytes(1): ONE})})
    def test_matches_the_full_rehash(self, accounts):
        state = make_state(accounts)
        assert state_root(state) == full_state_root(state)

    @pytest.mark.parametrize(
        "account, field",
        [(Account(balance=2**128), "balance"), (Account(nonce=2**64), "nonce"), (Account(2**200, 2**64), "balance")],
    )
    def test_a_field_past_its_width_names_the_account(self, account, field):
        limit = "2^128-1" if field == "balance" else "2^64-1"
        with pytest.raises(AccountOverflow) as caught:
            state_root(make_state({addr(1): Account(balance=3), addr(7): account}))
        assert str(caught.value) == f"account {addr(7).hex0x()} {field} is past {limit}"
        assert (caught.value.addr, caught.value.field, caught.value.block) == (addr(7), field, None)


def build_block(state, txs, deposits=(), number=0, base_fee=1, timestamp=0):
    blk = Block(
        number=number,
        parent_hash=bytes(32),
        timestamp=timestamp,
        base_fee=base_fee,
        epoch=0,
        deposits=tuple(deposits),
        transactions=tuple(txs),
        state_root=StateRoot(bytes(32)),
    )
    return blk


class TestApplyBlock:
    def test_empty_block_leaves_state_unchanged(self):
        state = simple_state({addr(1): 10})
        out = apply_block(state, build_block(state, []), FEE_SINK)
        assert out == state
        assert state_root(out) == state_root(state)

    def test_order_sensitivity_on_pause_fixture(self):
        state = vault_state(paused=True)
        a, b = unpause_tx(gas_limit=30), exploit_tx(gas_limit=30)
        forward = apply_block(state, build_block(state, [a, b]), FEE_SINK)
        backward = apply_block(state, build_block(state, [b, a]), FEE_SINK)
        assert forward.balance_of(VAULT) == 0  # drained
        assert backward.balance_of(VAULT) == 100  # exploit reverted first
        assert state_root(forward) != state_root(backward)

    def test_disjoint_transfers_compose(self):
        senders = {addr(i): 1000 for i in (1, 2, 3)}
        state = simple_state(senders)
        txs = [tx(addr(i), 0, addr(10 + i), value=i, gas_limit=21) for i in (1, 2, 3)]
        block_state = apply_block(state, build_block(state, txs), FEE_SINK)
        singles = [execute_transaction(state, t, ctx()) for t in txs]
        for i, result in zip((1, 2, 3), singles):
            assert block_state.balance_of(addr(10 + i)) == result.post_state().balance_of(addr(10 + i))
            assert block_state.balance_of(addr(i)) == result.post_state().balance_of(addr(i))

    def test_invalid_mid_block_raises_with_index(self):
        state = simple_state({addr(1): 100})
        bad = tx(addr(1), 5, addr(2))
        with pytest.raises(InvalidBlock) as e:
            apply_block(state, build_block(state, [tx(addr(1), 0, addr(2), gas_limit=21), bad]), FEE_SINK)
        assert e.value.index == 1


class TestDeposits:
    def deposit(self, recipient, value=50, data=b"", gas_limit=30):
        return DepositTransaction(
            l1_block=0, l1_index=0, sender=addr(0xD0), recipient=recipient, value=value, data=data, gas_limit=gas_limit
        )

    def test_mints_value_without_fees(self):
        state = WorldState()
        result = execute_transaction(state, self.deposit(addr(7)), ctx())
        assert result.status is TxStatus.SUCCESS
        assert result.post_state().balance_of(addr(7)) == 50
        assert sum(balance_deltas(state, result.post_state()).values()) == 50  # pure mint

    def test_reverted_deposit_keeps_mint_at_sender(self):
        code = ContractCode(admin=ADMIN, statements=(Require(Const(0)),))
        state = make_state({addr(9): Account(code=code)})
        result = execute_transaction(state, self.deposit(addr(9)), ctx())
        assert result.status is TxStatus.REVERT
        assert result.post_state().balance_of(addr(0xD0)) == 50
        assert sum(balance_deltas(state, result.post_state()).values()) == 50

    def test_deposit_can_call_contracts(self):
        state = vault_state(paused=False, code=guard_only_vault())
        dep = self.deposit(VAULT, value=0)
        result = execute_transaction(state, dep, ctx())
        assert result.status is TxStatus.SUCCESS
        assert result.post_state().balance_of(VAULT) == 0  # drained to the deposit sender


class TestProperties:
    def random_world(self, rng):
        accounts = {addr(i): Account(balance=rng.randrange(100, 10_000), nonce=0) for i in range(1, 6)}
        accounts[VAULT] = Account(
            balance=rng.randrange(0, 500),
            code=gated_vault(),
            storage={PAUSED_SLOT: slot_bytes(rng.choice([0, 1]))},
        )
        return make_state(accounts)

    def random_tx(self, rng, state):
        sender = addr(rng.randrange(1, 6))
        kind = rng.random()
        if kind < 0.4:
            return tx(sender, state.nonce_of(sender), addr(rng.randrange(1, 8)), value=rng.randrange(0, 50))
        data = bytes([rng.choice([0, 1, 2])])
        return tx(sender, state.nonce_of(sender), VAULT, data=data)

    def test_determinism_and_conservation(self):
        rng = random.Random(7)
        for _ in range(200):
            state = self.random_world(rng)
            t = self.random_tx(rng, state)
            r1 = execute_transaction(state, t, ctx())
            r2 = execute_transaction(state, t, ctx())
            assert outcome(r1) == outcome(r2)
            assert r1.post_state() == r2.post_state()
            assert sum(balance_deltas(state, r1.post_state()).values()) == -(r1.gas_used * 1)

    def test_access_completeness(self):
        # Mutating state only at keys the tx never touched must not change
        # anything but the mutated key itself.
        rng = random.Random(11)
        untouched = addr(0x7777)
        for _ in range(200):
            state = self.random_world(rng)
            t = self.random_tx(rng, state)
            base = execute_transaction(state, t, ctx())
            assert AccessKey(AccessKind.BALANCE, untouched) not in base.reads | base.writes
            mutated = make_state({**state.accounts, untouched: Account(balance=123)})
            replay = execute_transaction(mutated, t, ctx())
            assert replay.status == base.status
            assert replay.gas_used == base.gas_used
            assert replay.reads == base.reads
            assert replay.writes == base.writes
            assert balance_deltas(mutated, replay.post_state()) == balance_deltas(state, base.post_state())

    def test_revert_isolation(self):
        state = vault_state(paused=True, code=guard_only_vault())
        result = execute_transaction(state, exploit_tx(), ctx())
        assert result.status is TxStatus.REVERT
        assert result.post_state().account(VAULT) == state.account(VAULT)
