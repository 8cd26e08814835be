"""The incremental pool status, indexed retirement, cached candidates and
indexed quarantine maintenance against the full-walk oracle in
`reference_pool`, over hand-built states (the identity-scan fallback) and
execution-derived successors (the `changed_since` fast path), plus a
deterministic check that a block's work does not grow with the number of
held transactions."""
import sys
from typing import List

from hypothesis import given, settings, strategies as st

from helpers import addr, tx
from reference_pool import ReferenceMempool, ReferenceStore
from rollupsim import core, vm
from rollupsim.core import DepositTransaction, tx_hash
from rollupsim.detection import Verdict
from rollupsim.mempool import Mempool, PoolConfig
from rollupsim.quarantine import CollateralLedger, QuarantineConfig, QuarantineStore
from rollupsim.sequencer import Scenario, Sequencer
from rollupsim.vm import Account, BlockContext, PreconditionFailed, WorldState, execute_transaction, make_state, state_root

SENDERS = [addr(n) for n in (1, 2, 3, 4)]
OPERATOR = addr(0xEE)
SINK = addr(0x99)
OPERATIONS = ["submit"] * 4 + ["admit"] * 2 + ["retire", "candidates", "maintain", "stake", "approve"]


FREE = BlockContext(base_fee=0, timestamp=0, fee_recipient=SINK)


def draw_executed(data, history: List[WorldState]) -> WorldState:
    """Execute deposits and free transfers on the previous state or an
    earlier one, rooted first or not, as the sequencer seals its blocks: a
    state with a lineage whenever its base had a root or a lineage."""
    state = history[-1] if data.draw(st.booleans()) else data.draw(st.sampled_from(history))
    for step in range(data.draw(st.integers(min_value=1, max_value=3))):
        if data.draw(st.booleans()):
            state_root(state)
        if data.draw(st.booleans()):
            op = DepositTransaction(0, step, addr(0xD0), data.draw(st.sampled_from(SENDERS)), data.draw(st.sampled_from([10, 60, 500])), b"", 21)
        else:
            sender = data.draw(st.sampled_from(SENDERS))
            to = data.draw(st.sampled_from(SENDERS + [SINK]))
            op = tx(sender, state.nonce_of(sender), to, value=data.draw(st.sampled_from([0, 10])), max_fee=0, gas_limit=21)
        try:
            state = execute_transaction(state, op, FREE).post_state
        except PreconditionFailed:
            pass
    history.append(state)
    return state


def draw_state(data, history: List[WorldState]) -> WorldState:
    """The previous state itself, an earlier one, a hand-built copy-on-write
    successor sharing every untouched Account object, an execution-derived
    successor, or an unrelated state."""
    kind = data.draw(st.sampled_from(["same", "same", "earlier", "successor", "executed", "executed", "unrelated"]))
    if kind == "same" and history:
        return history[-1]
    if kind == "earlier" and history:
        return data.draw(st.sampled_from(history))
    if kind == "executed" and history:
        return draw_executed(data, history)
    prev = history[-1] if history else WorldState({})
    accounts = dict(prev.accounts) if kind == "successor" else {}
    for a in SENDERS:
        if kind == "unrelated" or data.draw(st.booleans()):
            acct = Account(
                balance=data.draw(st.sampled_from([0, 25, 60, 500, 10_000])),
                nonce=data.draw(st.integers(min_value=0, max_value=3)),
            )
            if acct.is_empty():
                accounts.pop(a, None)
            else:
                accounts[a] = acct
    history.append(WorldState(accounts))
    return history[-1]


def draw_tx(data, state: WorldState):
    sender = data.draw(st.sampled_from(SENDERS))
    max_fee = data.draw(st.integers(min_value=0, max_value=4))
    return tx(
        sender,
        max(0, state.nonce_of(sender) + data.draw(st.integers(min_value=-1, max_value=3))),
        SINK,
        value=data.draw(st.sampled_from([0, 10, 50])),
        max_fee=max_fee,
        priority_fee=data.draw(st.integers(min_value=0, max_value=max_fee)),
        gas_limit=21,
    )


def statuses(pool):
    return {h: (e.status, e.received_at) for h, e in pool.entries.items()}


class TestDifferentialAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_pool_and_store_match_full_walks(self, data):
        pool_config = PoolConfig(
            max_queued=data.draw(st.integers(min_value=1, max_value=6)),
            max_pending=data.draw(st.integers(min_value=1, max_value=5)),
            tx_lifetime=data.draw(st.integers(min_value=1, max_value=12)),
        )
        q_config = QuarantineConfig(
            time_criterion_period=data.draw(st.integers(min_value=1, max_value=10)), operators=frozenset({OPERATOR})
        )
        fast, ref = Mempool(pool_config), ReferenceMempool(pool_config)
        fast_store, ref_store = QuarantineStore(q_config), ReferenceStore(q_config)
        fast_ledger, ref_ledger = CollateralLedger(), CollateralLedger()
        history: List[WorldState] = []
        now = 0
        seen = []  # every transaction offered so far, for (re)admission
        for step in range(data.draw(st.integers(min_value=1, max_value=40))):
            op = data.draw(st.sampled_from(OPERATIONS))
            state = draw_state(data, history)
            now += data.draw(st.integers(min_value=0, max_value=3))
            if op == "submit":
                if seen and data.draw(st.integers(min_value=0, max_value=3)) == 0:
                    t = data.draw(st.sampled_from(seen))  # resubmission of the very same transaction
                else:
                    t = draw_tx(data, state)
                    seen.append(t)
                assert fast.submit(t, now, state) == ref.submit(t, now, state)
            elif op == "retire":
                removed = fast.retire(now, state)
                assert removed == ref.retire(now, state)
                assert fast_store.on_mempool_retired(removed, now) == ref_store.on_mempool_retired(removed, now)
            elif op == "candidates":
                base_fee = data.draw(st.integers(min_value=0, max_value=3))
                assert fast.pending_candidates(base_fee, state, held=fast_store.active) == ref.pending_candidates(
                    base_fee, state, held=ref_store.active
                )
            elif op == "admit":
                if data.draw(st.integers(min_value=0, max_value=4)) == 0:
                    t = DepositTransaction(0, step, data.draw(st.sampled_from(SENDERS)), SINK, 1, b"", 21)
                elif seen:
                    t = data.draw(st.sampled_from(seen))
                else:
                    continue
                if fast_store.is_active(core.tx_id(t)):
                    continue
                verdict = Verdict(True, ("solvent",), (), data.draw(st.sampled_from([0, 5, 50])))
                fast_store.admit(t, verdict, now, step)
                ref_store.admit(t, verdict, now, step)
            elif op == "maintain":
                assert fast_store.per_block_maintenance(state, now) == ref_store.per_block_maintenance(state, now)
            elif op == "stake":
                sender, amount = data.draw(st.sampled_from(SENDERS)), data.draw(st.sampled_from([0, 5, 30, 60]))
                for store, ledger in ((fast_store, fast_ledger), (ref_store, ref_ledger)):
                    ledger.stake(sender, amount)
                    store.on_stake(ledger, sender, now)
                assert fast_ledger.stakes == ref_ledger.stakes and fast_ledger.locked == ref_ledger.locked
            elif op == "approve":
                held = sorted(k for k, e in fast_store.active.items() if not e.is_deposit)
                if held:
                    key = data.draw(st.sampled_from(held))
                    assert fast_store.approve_release(key, OPERATOR, now) == ref_store.approve_release(key, OPERATOR, now)
            assert statuses(fast) == statuses(ref)
            assert fast.by_sender == ref.by_sender
            assert list(fast_store.active) == list(ref_store.active)
            assert fast_store.audit == ref_store.audit


def held_flood_block_counts(n: int, monkeypatch) -> dict:
    """Hold `n` drains in quarantine while they stay pending in the pool and
    seal one block over them, then count canonical encodings, account
    lookups and account hashes while the next block, with one benign
    transfer, is built."""
    flooders = [addr(0x10000 + k) for k in range(n)]
    benign = addr(0x5)
    genesis = make_state({a: Account(balance=1_000) for a in flooders + [benign]})
    seq = Sequencer(Scenario(name="held_flood", genesis=genesis))
    verdict = Verdict(True, ("vault-solvent",), (SINK,), 100)
    for f in flooders:
        drain = tx(f, 0, SINK, data=b"\x00")
        assert seq.mempool.submit(drain, 0, seq.chain.tip_state).outcome == "accepted"
        seq.store.admit(drain, verdict, now=0, block_no=0)
    assert seq.build_block(2, None).transactions == ()
    transfer = tx(benign, 0, SINK, value=7, gas_limit=21)
    seq.mempool.submit(transfer, 3, seq.chain.tip_state)

    counts = {"encode": 0, "account": 0, "digest": 0}

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    with monkeypatch.context() as patch:
        original = core.canonical_encode
        for name, module in list(sys.modules.items()):
            if name.startswith("rollupsim") and module.__dict__.get("canonical_encode") is original:
                patch.setattr(module, "canonical_encode", counting("encode", original))
        patch.setattr(WorldState, "account", counting("account", WorldState.account))
        patch.setattr(vm, "_account_digest", counting("digest", vm._account_digest))
        block = seq.build_block(4, None)
    assert block.transactions == (transfer,)
    assert len(seq.store.active) == n and len(seq.mempool) == n
    return counts


class TestHeldBacklogScaling:
    def test_block_encodings_do_not_grow_with_held_entries(self, monkeypatch):
        small = held_flood_block_counts(100, monkeypatch)
        large = held_flood_block_counts(1000, monkeypatch)
        assert small["encode"] >= 1  # the batch encodes the included transfer
        assert small["encode"] == large["encode"]

    def test_block_lookups_and_hashes_do_not_grow_with_held_entries(self, monkeypatch):
        small = held_flood_block_counts(100, monkeypatch)
        large = held_flood_block_counts(1000, monkeypatch)
        assert small["digest"] >= 1  # the root re-hashes the accounts the transfer touched
        assert (small["account"], small["digest"]) == (large["account"], large["digest"])


class TestMemoizedIds:
    def test_tx_hash_is_memoized_and_invisible(self):
        t = tx(addr(1), 0, SINK, value=3)
        first = tx_hash(t)
        assert tx_hash(t) is first
        twin = tx(addr(1), 0, SINK, value=3)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
        assert tx_hash(twin) == first

    def test_memo_matches_a_fresh_hash(self):
        import dataclasses
        import hashlib

        t = tx(addr(1), 0, SINK, value=3)
        tx_hash(t)
        bumped = dataclasses.replace(t, max_fee=9)
        assert tx_hash(bumped) == hashlib.sha256(core.canonical_encode(bumped)).digest() != tx_hash(t)

    def test_deposit_id_is_memoized(self):
        dep = DepositTransaction(1, 2, addr(3), addr(4), 5, b"", 21)
        assert core.deposit_id(dep) is core.deposit_id(dep)
        assert core.deposit_id(dep) == core.deposit_id(DepositTransaction(1, 2, addr(3), addr(4), 5, b"", 21))


class TestChangeDrivenUpkeep:
    """Deterministic cases for the `changed_since` fast paths: states sealed
    and executed the way the sequencer makes them, each step held to the
    full-walk reference."""

    A, B, C = SENDERS[0], SENDERS[1], SENDERS[2]

    def sealed(self, balances) -> WorldState:
        state = make_state({a: Account(balance=b) for a, b in balances.items()})
        state_root(state)
        return state

    def executed(self, state, op) -> WorldState:
        state_root(state)  # the base is a sealed block, so the result knows its lineage
        return execute_transaction(state, op, FREE).post_state

    def pools(self, **config):
        return Mempool(PoolConfig(**config)), ReferenceMempool(PoolConfig(**config))

    def test_candidates_follow_a_nonce_change_without_a_refresh(self):
        s0 = self.sealed({self.A: 10_000})
        fast, ref = self.pools()
        for pool in (fast, ref):
            for nonce in (0, 1):
                pool.submit(tx(self.A, nonce, SINK, value=1, gas_limit=21), 0, s0)
        assert fast.pending_candidates(1, s0) == ref.pending_candidates(1, s0)
        s1 = self.executed(s0, tx(self.A, 0, self.B, value=1, max_fee=0, gas_limit=21))
        assert vm.changed_since(s1, s0) is not None
        assert fast.pending_candidates(1, s1) == ref.pending_candidates(1, s1)
        assert [t.nonce for t in fast.pending_candidates(1, s1)] == [1]

    def test_candidates_drop_a_sender_whose_entries_expired(self):
        s0 = self.sealed({self.A: 10_000})
        fast, ref = self.pools(tx_lifetime=5)
        for pool in (fast, ref):
            pool.submit(tx(self.A, 0, SINK, value=1, gas_limit=21), 0, s0)
        assert len(fast.pending_candidates(1, s0)) == 1
        s1 = self.executed(s0, DepositTransaction(0, 0, addr(0xD0), self.C, 5, b"", 21))
        assert fast.retire(10, s1) == ref.retire(10, s1) != []
        assert fast.pending_candidates(1, s1) == ref.pending_candidates(1, s1) == []

    def test_sender_refreshed_by_a_submit_is_rechecked_at_retire(self):
        s0 = self.sealed({self.A: 100, self.B: 10_000})
        fast, ref = self.pools()
        queued = tx(self.A, 1, SINK, value=50, gas_limit=21)  # costs 71, waits for nonce 0
        for pool in (fast, ref):
            pool.submit(queued, 0, s0)
            pool.retire(1, s0)
        s1 = self.executed(s0, tx(self.A, 0, self.C, value=90, max_fee=0, gas_limit=21))  # A keeps 10
        for pool in (fast, ref):
            pool.submit(tx(self.B, 0, SINK, value=1, gas_limit=21), 2, s1)  # refreshes A's statuses only
        s2 = self.executed(s1, DepositTransaction(0, 0, addr(0xD0), self.C, 5, b"", 21))  # A untouched
        assert vm.changed_since(s2, s1) is not None and self.A not in vm.changed_since(s2, s1)
        removed = fast.retire(3, s2)
        assert removed == ref.retire(3, s2) == [tx_hash(queued)]
        assert statuses(fast) == statuses(ref)
