from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import ADMIN, ATTACKER, VAULT, addr, ctx, exploit_tx, gated_vault, repause_tx, tx, vault_state
from rollupsim.core import DepositTransaction, duplicate_key, tx_hash, deposit_id
from rollupsim.detection import Verdict
from rollupsim.quarantine import (
    AlreadyQuarantined,
    DepositPermanence,
    EntryNotFound,
    InsufficientCollateral,
    NotAuthorized,
    PendingApprovals,
    QuarantineConfig,
    QuarantineStore,
    Released,
    ReleasedRegistry,
    StillHeld,
)
from rollupsim.formats import parse_scenario
from rollupsim.mempool import Mempool, PoolConfig
from rollupsim.sequencer import run
from rollupsim.vm import Account, make_state, execute_transaction

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

OPERATOR = addr(0xEE)

MALICIOUS = Verdict(malicious=True, violated=("vault-solvent",), victims=(VAULT,), damage_estimate=100)


def store(period=86400, operators=(OPERATOR,), tip=None):
    """A store whose pool's tip, the chain tip it reads, is `tip`: by
    default the vault, whose admin is ADMIN, paused."""
    config = QuarantineConfig(time_criterion_period=period, operators=frozenset(operators))
    return QuarantineStore(config, Mempool(PoolConfig(), vault_state() if tip is None else tip))


def held_exploit(s, now=10, block=1, nonce=0):
    t = exploit_tx(nonce=nonce)
    s.admit(t, MALICIOUS, now=now, block_no=block)
    return t


def audited(s, kind, criterion):
    """The keys audited `kind` by `criterion`, in order."""
    return [e.entry for e in s.audit if (e.kind, e.detail) == (kind, f"criterion={criterion}")]


class TestAdmission:
    def test_entry_carries_admission_time(self):
        s = store()
        t = held_exploit(s, now=42)
        assert s.entry(tx_hash(t)).quarantined_at == 42

    def test_double_admission_rejected(self):
        s = store()
        t = held_exploit(s)
        with pytest.raises(AlreadyQuarantined):
            s.admit(t, MALICIOUS, now=11, block_no=1)

    def test_benign_verdict_rejected(self):
        s = store()
        with pytest.raises(Exception):
            s.admit(exploit_tx(), Verdict(False, (), (), 0), now=0, block_no=0)

    def test_readmission_after_retirement_is_fresh(self):
        s = store()
        t = held_exploit(s, now=10)
        advanced = make_state({ATTACKER: Account(balance=1, nonce=1)})
        s.per_block_maintenance(advanced, now=20)
        assert tx_hash(t) not in s.active
        entry = s.admit(t, MALICIOUS, now=30, block_no=3)
        assert entry.quarantined_at == 30


class TestMaintenance:
    def test_nonce_retirement(self):
        s = store()
        t = held_exploit(s)
        advanced = make_state({ATTACKER: Account(balance=1, nonce=1)})
        s.per_block_maintenance(advanced, now=11)
        assert audited(s, "retired", "nonce") == [tx_hash(t)]
        assert tx_hash(t) not in s.active

    def test_nonce_equal_keeps_entry(self):
        s = store()
        t = held_exploit(s)
        same = make_state({ATTACKER: Account(balance=1, nonce=0)})
        s.per_block_maintenance(same, now=11)
        assert audited(s, "retired", "nonce") == []
        assert tx_hash(t) in s.active

    def test_dead_entry_admitted_after_a_check_retires_on_an_unchanged_account(self):
        s = store()
        state = make_state({ATTACKER: Account(balance=1, nonce=1)})
        held_exploit(s, nonce=1)
        s.per_block_maintenance(state, now=11)
        assert audited(s, "retired", "nonce") == []
        dead = held_exploit(s, now=12, nonce=0)
        s.per_block_maintenance(state, now=13)
        assert audited(s, "retired", "nonce") == [tx_hash(dead)]

    def test_time_release_at_exact_threshold(self):
        s = store(period=100)
        t = held_exploit(s, now=10)
        state = make_state({ATTACKER: Account(balance=1)})
        s.per_block_maintenance(state, now=109)
        assert audited(s, "released", "time") == []
        s.per_block_maintenance(state, now=110)
        assert audited(s, "released", "time") == [tx_hash(t)]
        assert s.registry.is_released_duplicate(t)

    def test_deposit_never_time_released(self):
        s = store(period=10)
        dep = DepositTransaction(l1_block=0, l1_index=0, sender=addr(1), recipient=VAULT, value=5, data=b"", gas_limit=21)
        s.admit(dep, MALICIOUS, now=0, block_no=0)
        state = make_state({})
        s.per_block_maintenance(state, now=1000)
        assert audited(s, "released", "time") == [] and audited(s, "retired", "nonce") == []
        assert deposit_id(dep) in s.active

    def test_mempool_retirement_drops_without_release(self):
        s = store()
        t = held_exploit(s)
        s.settle([(tx_hash(t), "retired")], now=20)
        assert tx_hash(t) not in s.active
        assert not s.registry.is_released_duplicate(t)  # retired, not released


class TestFailureRelease:
    def test_released_after_state_change_makes_it_revert(self):
        state = vault_state(paused=False)
        # Admin re-pauses the vault after the quarantine decision.
        repaused = execute_transaction(state, repause_tx(), ctx()).post_state()
        s = store(tip=repaused)
        t = held_exploit(s)
        result = s.request_failure_release(tx_hash(t), ctx(), now=50)
        assert result == Released("failure")
        assert s.registry.is_released_duplicate(t)

    def test_still_held_when_exploit_remains_viable(self):
        s = store(tip=vault_state(paused=False))
        t = held_exploit(s)
        result = s.request_failure_release(tx_hash(t), ctx(), now=50)
        assert isinstance(result, StillHeld)
        assert tx_hash(t) in s.active

    def test_insufficient_balance_counts_as_failure(self):
        broke = make_state({ATTACKER: Account(balance=1), VAULT: vault_state().account(VAULT)})
        s = store(tip=broke)
        t = held_exploit(s)
        assert s.request_failure_release(tx_hash(t), ctx(), now=50) == Released("failure")

    def test_unknown_hash(self):
        s = store()
        with pytest.raises(EntryNotFound):
            s.request_failure_release(tx_hash(exploit_tx()), ctx(), now=0)

    def test_run_counts_release_simulations(self):
        text = (SCENARIOS / "failure_release.scn").read_text()
        assert run(parse_scenario(text)).report.counters.release_sims == 1
        # Without the release request nothing is re-simulated for release.
        without = "\n".join(line for line in text.splitlines() if "request_failure_release" not in line)
        assert run(parse_scenario(without)).report.counters.release_sims == 0


class TestAdministrativeRelease:
    def test_operator_release_is_immediate(self):
        s = store()
        t = held_exploit(s)
        assert s.approve_release(tx_hash(t), OPERATOR, now=5) == Released("administrative")

    def test_victim_admins_must_be_unanimous(self):
        q = addr(0xD1)
        q_admin = addr(0xD2)
        s = store(tip=vault_state(extra={q: Account(balance=0, code=gated_vault(q_admin))}))
        verdict = Verdict(True, ("a", "b"), (VAULT, q), 10)
        t = exploit_tx()
        s.admit(t, verdict, now=0, block_no=0)
        partial = s.approve_release(tx_hash(t), ADMIN, now=1)
        assert partial == PendingApprovals((q,))
        assert tx_hash(t) in s.active
        done = s.approve_release(tx_hash(t), q_admin, now=2)
        assert done == Released("administrative")

    def test_a_victim_without_code_has_no_admin(self):
        s = store()
        codeless = addr(0xD1)
        t = exploit_tx()
        s.admit(t, Verdict(True, ("a", "b"), (VAULT, codeless), 10), now=0, block_no=0)
        assert s.approve_release(tx_hash(t), ADMIN, now=1) == PendingApprovals((codeless,))
        assert tx_hash(t) in s.active

    def test_random_address_not_authorized(self):
        s = store()
        t = held_exploit(s)
        with pytest.raises(NotAuthorized):
            s.approve_release(tx_hash(t), addr(0x9999), now=1)


class TestEconomicRelease:
    def test_strict_threshold(self):
        s = store()
        t = held_exploit(s)
        s.ledger.stake(ATTACKER, 100)
        result = s.try_economic_release(tx_hash(t), now=1)
        assert result == InsufficientCollateral(threshold=100)
        s.ledger.stake(ATTACKER, 1)  # 101 total: strictly exceeds
        assert s.try_economic_release(tx_hash(t), now=2) == Released("economic")

    def test_release_locks_damage_until_refund(self):
        s = store()
        t = held_exploit(s)
        s.ledger.stake(ATTACKER, 150)
        s.try_economic_release(tx_hash(t), now=1)
        assert s.ledger.available(ATTACKER) == 50
        s.settle([(tx_hash(t), "retired")], now=2)
        assert s.ledger.stakes == {ATTACKER: 150}

    def test_readmitted_entry_is_tried_once_per_stake(self):
        s = store()
        verdict = Verdict(malicious=True, violated=("vault-solvent",), victims=(VAULT,), damage_estimate=50)
        t = exploit_tx()
        s.admit(t, verdict, now=1, block_no=1)
        s.settle([(tx_hash(t), "retired")], now=2)
        s.admit(t, verdict, now=3, block_no=2)
        s.stake(ATTACKER, 10, now=4)
        held = [e for e in s.audit if e.kind == "held"]
        assert [(e.at, e.detail) for e in held] == [(4, "criterion=economic threshold=50")]
        assert tx_hash(t) in s.active

    def test_stake_by_other_account_has_no_effect(self):
        s = store()
        t = held_exploit(s)
        s.ledger.stake(addr(0x1234), 10_000)
        assert isinstance(s.try_economic_release(tx_hash(t), now=1), InsufficientCollateral)


class TestDuplicateRegistry:
    def test_gas_bumped_resubmission_is_duplicate(self):
        s = store()
        t = held_exploit(s)
        s.approve_release(tx_hash(t), OPERATOR, now=1)
        bumped = exploit_tx(max_fee=50, priority_fee=5)
        assert tx_hash(bumped) != tx_hash(t)
        assert s.registry.is_released_duplicate(bumped)

    def test_different_calldata_not_duplicate(self):
        s = store()
        t = held_exploit(s)
        s.approve_release(tx_hash(t), OPERATOR, now=1)
        assert not s.registry.is_released_duplicate(exploit_tx(data=b"\x07"))

    def test_different_sender_not_duplicate(self):
        s = store()
        t = held_exploit(s)
        s.approve_release(tx_hash(t), OPERATOR, now=1)
        other = tx(addr(0x4242), 0, VAULT)
        assert not s.registry.is_released_duplicate(other)

    def test_registry_is_monotone(self):
        s = store()
        t = held_exploit(s)
        s.approve_release(tx_hash(t), OPERATOR, now=1)
        key = duplicate_key(t)
        s2 = held_exploit(s, now=30, nonce=1)  # second entry, same duplicate key? no: nonce differs but key ignores nonce
        assert key in s.registry.keys
        assert s.registry.is_released_duplicate(t)


REGISTRY_SENDERS = [addr(0xB0 + i) for i in range(3)]
registry_txs = st.builds(
    lambda i, nonce, data, value, fee: tx(
        REGISTRY_SENDERS[i], nonce, VAULT if data else None, value=value, data=data, max_fee=fee
    ),
    st.integers(0, 2),
    st.integers(0, 2),
    st.sampled_from([b"", b"\x00", b"\x07"]),
    st.integers(0, 2),
    st.integers(1, 3),
)


class TestRegistryIndex:
    """The sender-indexed registry against the plain set test
    `duplicate_key(tx) in keys`, for senders with and without a release."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(registry_txs, max_size=4), st.lists(registry_txs, min_size=1, max_size=6))
    @example([], [tx(REGISTRY_SENDERS[0], 0, VAULT)])  # nothing ever released
    # A bumped resubmission; then the same key fields from another sender.
    @example([tx(REGISTRY_SENDERS[0], 0, VAULT)], [tx(REGISTRY_SENDERS[0], 3, VAULT, max_fee=9)])
    @example([tx(REGISTRY_SENDERS[0], 0, VAULT)], [tx(REGISTRY_SENDERS[1], 0, VAULT)])
    def test_matches_the_set_test(self, released, probes):
        registry = ReleasedRegistry()
        for t in released:
            registry.note(t)
        keys = {duplicate_key(t) for t in released}
        assert registry.keys == keys
        for probe in probes:
            assert registry.is_released_duplicate(probe) == (duplicate_key(probe) in keys)


class TestReplacement:
    def test_old_entry_survives_replacement(self):
        s = store()
        t = held_exploit(s)
        replacement = exploit_tx(max_fee=50)
        s.settle([(tx_hash(t), "replaced")], now=5, new_tx=replacement)
        assert tx_hash(t) in s.active
        assert not s.registry.is_released_duplicate(replacement)  # detected normally

    def test_released_duplicate_replacement_bypasses_detection(self):
        s = store()
        t = held_exploit(s)
        s.approve_release(tx_hash(t), OPERATOR, now=1)
        t2 = held_exploit(s, now=2, nonce=1)
        replacement = exploit_tx(nonce=1, max_fee=99)
        s.settle([(tx_hash(t2), "replaced")], now=3, new_tx=replacement)
        assert s.registry.is_released_duplicate(replacement)  # same duplicate key as the released one


class TestDepositPermanence:
    def deposit_entry(self, s):
        dep = DepositTransaction(l1_block=0, l1_index=0, sender=addr(1), recipient=VAULT, value=5, data=b"", gas_limit=21)
        s.admit(dep, MALICIOUS, now=0, block_no=0)
        return dep

    def test_no_release_path_touches_deposits(self):
        s = store()
        dep = self.deposit_entry(s)
        key = deposit_id(dep)
        with pytest.raises(DepositPermanence):
            s.request_failure_release(key, ctx(), now=1)
        with pytest.raises(DepositPermanence):
            s.approve_release(key, OPERATOR, now=1)
        with pytest.raises(DepositPermanence):
            s.try_economic_release(key, now=1)
        assert key in s.active
