"""The incremental pool status, indexed retirement, cached candidates and
indexed quarantine maintenance against the full-walk oracle in
`reference_pool`, over hand-built states (the every-sender fallback) and
execution-derived successors (the `changed_since` fast path), the quarantine
store telling its pool what it holds, plus deterministic checks that a
block's work does not grow with the number of held transactions and that a
submit's work does not grow with the number of pooled senders or queued
entries. After every submit and retire, on both sides, the entries that
left the pool are the reported exits and both caps hold. Over every bundled
scenario, the sequencer's upkeep asks `changed_since` one hop at a time and
its candidates match the reference. A `quarantine_flood` run holds each
extra drain for a bounded number of tracked objects."""
import copy
import importlib.util
import sys
from pathlib import Path
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ObjectCount, addr, tracked_objects, tx
from reference_pool import ReferenceMempool, ReferenceStore
from rollupsim import core, mempool, quarantine, sequencer, vm
from rollupsim.core import DepositTransaction, tx_hash
from rollupsim.detection import Verdict
from rollupsim.formats import parse_scenario
from rollupsim.mempool import Mempool, PoolConfig, PoolEntry, PoolStatus
from rollupsim.quarantine import QuarantineConfig, QuarantineStore
from rollupsim.sequencer import Scenario, Sequencer
from rollupsim.vm import Account, BlockContext, PreconditionFailed, WorldState, execute_transaction, make_state, state_root

SENDERS = [addr(n) for n in (1, 2, 3, 4)]
OPERATOR = addr(0xEE)
SINK = addr(0x99)
OPERATIONS = ["submit"] * 4 + ["admit"] * 2 + ["retire", "candidates", "maintain", "stake", "approve"]


FREE = BlockContext(base_fee=0, fee_recipient=SINK)


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
            state = execute_transaction(state, op, FREE).post_state()
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


def check_caps(pool):
    queued = sum(1 for e in pool.entries.values() if e.status is PoolStatus.QUEUED)
    assert len(pool.entries) - queued <= pool.config.max_pending and queued <= pool.config.max_queued


def check_exits(pool, before, exits):
    """The entries that left `pool` since it held `before` are the reported
    exits, each once, and both caps hold."""
    left = {h for h, e in before.items() if pool.entries.get(h) is not e}
    assert sorted(left) == sorted(h for h, _ in exits)
    check_caps(pool)


def submit_both(fast, ref, t, now):
    """Submit `t` to the shipped pool and the reference: the results agree,
    and on each side the exits are what left and both caps hold."""
    before = dict(fast.entries), dict(ref.entries)
    result = fast.submit(t, now)
    assert result == ref.submit(t, now)
    for pool, entries in zip((fast, ref), before):
        check_exits(pool, entries, result.exits)
    return result


def retire_both(fast, ref, now, state):
    """Retire both pools at `state`: the exits agree, and on each side they
    are what left and both caps hold."""
    before = dict(fast.entries), dict(ref.entries)
    exits = fast.retire(now, state)
    assert exits == ref.retire(now, state)
    for pool, entries in zip((fast, ref), before):
        check_exits(pool, entries, exits)
    return exits


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
        history: List[WorldState] = []
        genesis = draw_state(data, history)
        fast, ref = Mempool(pool_config, genesis), ReferenceMempool(pool_config, genesis)
        fast_store, ref_store = QuarantineStore(q_config, fast), ReferenceStore(q_config, ref)
        sides = (fast_store, ref_store)
        now = 0
        seen = []  # every transaction offered so far, for (re)admission
        for step in range(data.draw(st.integers(min_value=1, max_value=40))):
            op = data.draw(st.sampled_from(OPERATIONS))
            now += data.draw(st.integers(min_value=0, max_value=3))
            if op == "submit":
                if seen and data.draw(st.integers(min_value=0, max_value=3)) == 0:
                    t = data.draw(st.sampled_from(seen))  # resubmission of the very same transaction
                else:
                    t = draw_tx(data, fast.tip)
                    seen.append(t)
                result = submit_both(fast, ref, t, now)
                for store in sides:
                    store.settle(result.exits, now, t)
            elif op == "retire":
                state = draw_state(data, history)  # the only way the pools' tip moves
                exits = retire_both(fast, ref, now, state)
                for store in sides:
                    store.settle(exits, now)
            elif op == "candidates":
                base_fee = data.draw(st.integers(min_value=0, max_value=3))
                # The pool reads nonces at its tip.
                assert fast.pending_candidates(base_fee) == ref.pending_candidates(
                    base_fee, ref.tip, held=ref_store.active
                )
            elif op == "admit":
                if data.draw(st.integers(min_value=0, max_value=4)) == 0:
                    t = DepositTransaction(0, step, data.draw(st.sampled_from(SENDERS)), SINK, 1, b"", 21)
                elif seen:
                    t = data.draw(st.sampled_from(seen))
                else:
                    continue
                if core.tx_id(t) in fast_store.active:
                    continue
                verdict = Verdict(True, ("solvent",), (), data.draw(st.sampled_from([0, 5, 50])))
                fast_store.admit(t, verdict, now, step)
                ref_store.admit(t, verdict, now, step)
            elif op == "maintain":
                state = draw_state(data, history)
                for store in sides:
                    store.per_block_maintenance(state, now)
            elif op == "stake":
                sender, amount = data.draw(st.sampled_from(SENDERS)), data.draw(st.sampled_from([0, 5, 30, 60]))
                for store in sides:
                    store.stake(sender, amount, now)
            elif op == "approve":
                held = sorted(k for k, e in fast_store.active.items() if not e.is_deposit)
                if held:
                    key = data.draw(st.sampled_from(held))
                    assert fast_store.approve_release(key, OPERATOR, now) == ref_store.approve_release(key, OPERATOR, now)
            assert statuses(fast) == statuses(ref)
            assert fast._pending == sum(1 for e in ref.entries.values() if e.status is PoolStatus.PENDING)
            assert fast.by_sender == ref.by_sender
            assert list(fast_store.active) == list(ref_store.active)
            assert fast_store.audit == ref_store.audit
            assert fast_store.ledger.stakes == ref_store.ledger.stakes
            assert fast_store.ledger.locked == ref_store.ledger.locked


def held_flood_block_counts(n: int, monkeypatch) -> dict:
    """Hold `n` drains in quarantine while they stay pending in the pool and
    seal one block over them, then count canonical encodings, transaction
    hashes, account lookups, account hashes and candidate-cache entries
    built while the next block, with one benign transfer, is built, and
    the candidate-cache entries left after it."""
    flooders = [addr(0x10000 + k) for k in range(n)]
    benign = addr(0x5)
    genesis = make_state({a: Account(balance=1_000) for a in flooders + [benign]})
    seq = Sequencer(Scenario(name="held_flood", genesis=genesis))
    verdict = Verdict(True, ("vault-solvent",), (SINK,), 100)
    for f in flooders:
        drain = tx(f, 0, SINK, data=b"\x00")
        assert seq.mempool.submit(drain, 0).outcome == "accepted"
        seq.store.admit(drain, verdict, now=0, block_no=0)
    assert seq.build_block(2).transactions == ()
    transfer = tx(benign, 0, SINK, value=7, gas_limit=21)
    seq.mempool.submit(transfer, 3)

    counts = {"encode": 0, "hash": 0, "account": 0, "digest": 0, "cached": 0}

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)

        return counted

    class CountingCache(dict):
        def __setitem__(self, key, value):
            counts["cached"] += 1
            super().__setitem__(key, value)

    with monkeypatch.context() as patch:
        for attr, name in (("canonical_encode", "encode"), ("tx_hash", "hash")):
            original = getattr(core, attr)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("rollupsim") and module.__dict__.get(attr) is original:
                    patch.setattr(module, attr, counting(name, original))
        patch.setattr(WorldState, "account", counting("account", WorldState.account))
        patch.setattr(vm, "_account_digest", counting("digest", vm._account_digest))
        patch.setattr(seq.mempool, "_items", CountingCache(seq.mempool._items))
        block = seq.build_block(4)
        counts["cache_size"] = len(seq.mempool._items)
    assert block.transactions == (transfer,)
    assert len(seq.store.active) == n and len(seq.mempool.entries) == n
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

    def test_block_hashes_and_candidate_cache_do_not_grow_with_held_entries(self, monkeypatch):
        small = held_flood_block_counts(100, monkeypatch)
        large = held_flood_block_counts(1000, monkeypatch)
        assert small["cached"] >= 1  # the transfer's cache entry
        assert small["cache_size"] == 1  # the transfer; no held entry is cached
        for name in ("hash", "cached", "cache_size"):
            assert small[name] == large[name], name


class TestMemoizedIds:
    def test_tx_hash_is_memoized_and_invisible(self):
        t = tx(addr(1), 0, SINK, value=3)
        first = tx_hash(t)
        assert tx_hash(t) is first
        twin = tx(addr(1), 0, SINK, value=3)
        assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)
        assert tx_hash(twin) == first

    def test_memo_matches_a_fresh_hash(self):
        import hashlib

        t = tx(addr(1), 0, SINK, value=3)
        tx_hash(t)
        bumped = t._replace(max_fee=9)
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
        return execute_transaction(state, op, FREE).post_state()

    def pools(self, state, **config):
        return Mempool(PoolConfig(**config), state), ReferenceMempool(PoolConfig(**config), state)

    def test_candidates_follow_a_nonce_change_at_retire(self):
        s0 = self.sealed({self.A: 10_000})
        fast, ref = self.pools(s0)
        for pool in (fast, ref):
            for nonce in (0, 1):
                pool.submit(tx(self.A, nonce, SINK, value=1, gas_limit=21), 0)
        assert fast.pending_candidates(1) == ref.pending_candidates(1, s0)
        s1 = self.executed(s0, tx(self.A, 0, self.B, value=1, max_fee=0, gas_limit=21))
        assert vm.changed_since(s1, s0) is not None
        assert fast.retire(1, s1) == ref.retire(1, s1) != []  # as the sequencer does after each block
        assert fast.pending_candidates(1) == ref.pending_candidates(1, s1)
        assert [t.nonce for t in fast.pending_candidates(1)] == [1]

    def test_candidates_drop_a_sender_whose_entries_expired(self):
        s0 = self.sealed({self.A: 10_000})
        fast, ref = self.pools(s0, tx_lifetime=5)
        for pool in (fast, ref):
            pool.submit(tx(self.A, 0, SINK, value=1, gas_limit=21), 0)
        assert len(fast.pending_candidates(1)) == 1
        s1 = self.executed(s0, DepositTransaction(0, 0, addr(0xD0), self.C, 5, b"", 21))
        assert fast.retire(10, s1) == ref.retire(10, s1) != []
        assert fast.pending_candidates(1) == ref.pending_candidates(1, s1) == []


def lockstep(fast, ref, state, held=()):
    """Statuses, pending count and candidates of the shipped pool equal the
    reference's, which skips the `held` ids; both at the tip `state`."""
    assert fast.tip is ref.tip is state
    assert statuses(fast) == statuses(ref)
    assert fast._pending == sum(1 for e in ref.entries.values() if e.status is PoolStatus.PENDING)
    candidates = fast.pending_candidates(1)
    assert candidates == ref.pending_candidates(1, state, held=held)
    return candidates


class TestStoreNotifiesPool:
    """A store tells its pool of every hold and release; the pool
    is called without a held set and matches the reference, which filters
    by its store's active entries. One case per release path."""

    A, B = SENDERS[0], SENDERS[1]
    PERIOD = 50
    VERDICT = Verdict(True, ("solvent",), (), 5)

    def setup_method(self):
        self.state = make_state({self.A: Account(balance=10_000), self.B: Account(balance=10_000)})
        state_root(self.state)
        config = QuarantineConfig(time_criterion_period=self.PERIOD, operators=frozenset({OPERATOR}))
        self.fast, self.ref = (pool(PoolConfig(tx_lifetime=100), self.state) for pool in (Mempool, ReferenceMempool))
        self.fast_store, self.ref_store = QuarantineStore(config, self.fast), ReferenceStore(config, self.ref)
        self.sides = [(self.fast, self.fast_store), (self.ref, self.ref_store)]
        self.first, self.second = (tx(self.A, n, SINK, value=1, max_fee=2, priority_fee=1, gas_limit=21) for n in (0, 1))
        self.other = tx(self.B, 0, SINK, value=1, max_fee=3, priority_fee=2, gas_limit=21)
        for pool in (self.fast, self.ref):
            for now, t in enumerate((self.first, self.second, self.other)):
                assert pool.submit(t, now).outcome == "accepted"

    def both(self, op):
        return [op(pool, store) for pool, store in self.sides]

    def admit(self, t, now):
        self.both(lambda pool, store: store.admit(t, self.VERDICT, now, 0))

    def candidates(self):
        return lockstep(self.fast, self.ref, self.state, self.ref_store.active)

    def release_by(self, path, now):
        key = tx_hash(self.first)
        if path == "approval":
            self.both(lambda pool, store: store.approve_release(key, OPERATOR, now))
        elif path == "stake":
            self.both(lambda pool, store: store.stake(self.A, 6, now))
        elif path == "time":
            self.both(lambda pool, store: store.per_block_maintenance(self.state, now + self.PERIOD))
        elif path == "failure":
            broke = make_state({self.B: Account(balance=10_000)})  # A cannot pay: the drain fails harmlessly

            def fail_at_broke(pool, store):
                # The store re-simulates at its pool's tip, which only a
                # retire moves; set it here without retiring anything.
                tip, pool.tip = pool.tip, broke
                store.request_failure_release(key, FREE, now)
                pool.tip = tip

            self.both(fail_at_broke)
        elif path == "nonce":
            self.state = TestChangeDrivenUpkeep().executed(self.state, self.first)
            # As the sequencer does, the pool retires at the new state first.
            retired = [(key, "retired")]
            assert self.both(lambda pool, store: pool.retire(now, self.state)) == [retired, retired]
            self.both(lambda pool, store: store.per_block_maintenance(self.state, now))
        else:  # mempool retirement: the lifetime ran out
            exits = self.both(lambda pool, store: pool.retire(now + 200, self.state))
            assert exits[0] == exits[1] != []
            self.both(lambda pool, store: store.settle(exits[0], now))
        assert key not in self.fast_store.active and self.fast_store.audit == self.ref_store.audit

    @pytest.mark.parametrize("path", ["approval", "stake", "time", "failure", "nonce", "mempool"])
    def test_admit_release_readmit(self, path):
        assert self.candidates() == [self.other, self.first, self.second]
        self.admit(self.first, 1)
        # The held nonce is skipped without cutting off the next one.
        assert self.candidates() == [self.other, self.second]
        self.release_by(path, 2)
        if path in ("nonce", "mempool"):
            assert self.first not in self.candidates()
        else:
            assert self.candidates() == [self.other, self.first, self.second]
        self.admit(self.first, 3)
        assert self.first not in self.candidates()
        if path == "mempool":
            # The very same transaction comes back while it is held.
            self.both(lambda pool, store: pool.submit(self.first, 4))
            assert tx_hash(self.first) in self.fast.entries
            assert self.first not in self.candidates()

    def test_deposit_admission_leaves_the_pool_untouched(self):
        self.candidates()
        before = {name: copy.copy(value) for name, value in vars(self.fast).items()}
        self.admit(DepositTransaction(0, 0, addr(0xD0), self.A, 1, b"", 21), 1)
        assert vars(self.fast) == before
        assert self.candidates() == [self.other, self.first, self.second]


class TestBothCapsBind:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_retire_that_breaks_runs_evicts_as_the_reference_does(self, data):
        """Nonce chains whose middles may cost 9000, and one gapped nonce per
        sender, fill the pool under a queued cap of 1 to 3. A retire at a
        state that leaves some senders 100 and spends some first nonces
        drops entries and breaks runs, which can turn later nonces queued
        past the cap. The evictions that follow, and the submits after
        them, match the reference."""
        config = PoolConfig(
            max_queued=data.draw(st.integers(min_value=1, max_value=3)),
            max_pending=data.draw(st.integers(min_value=1, max_value=20)),
        )
        genesis = make_state({a: Account(balance=10_000) for a in SENDERS})
        fast, ref = Mempool(config, genesis), ReferenceMempool(config, genesis)
        arrivals = iter(range(100))

        def offer(sender, nonce):
            value, max_fee = data.draw(st.sampled_from([0, 9000])), data.draw(st.integers(min_value=0, max_value=4))
            submit_both(fast, ref, tx(sender, nonce, SINK, value=value, max_fee=max_fee, gas_limit=21), next(arrivals))

        for sender in SENDERS:
            for nonce in range(data.draw(st.integers(min_value=0, max_value=6))):
                offer(sender, nonce)
            offer(sender, 7)  # waits for a gap
        accounts = {
            a: Account(balance=data.draw(st.sampled_from([100, 10_000])), nonce=data.draw(st.integers(0, 1)))
            for a in SENDERS
        }
        state = make_state(accounts)
        retire_both(fast, ref, next(arrivals), state)
        assert statuses(fast) == statuses(ref) and fast.by_sender == ref.by_sender
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            offer(data.draw(st.sampled_from(SENDERS)), data.draw(st.integers(min_value=0, max_value=7)))
        lockstep(fast, ref, state)

    def test_evicted_entry_inside_its_run_is_re_measured(self):
        """max_pending = 2 and max_queued = 1. Z (lowest address) and A have
        one pending entry each; A's next is queued inside its contiguous run
        and is the cheapest when B's submit overflows the queue. Once Z's
        entry is included, A's shortened run leaves room for B."""
        z, a, b = addr(1), addr(2), addr(3)
        sealed = TestChangeDrivenUpkeep().sealed({z: 10_000, a: 10_000, b: 10_000})
        config = PoolConfig(max_pending=2, max_queued=1)
        fast, ref = Mempool(config, sealed), ReferenceMempool(config, sealed)
        submits = [
            tx(z, 0, SINK, value=1, max_fee=5, gas_limit=21),
            tx(a, 0, SINK, value=1, max_fee=5, gas_limit=21),
            tx(a, 1, SINK, value=1, max_fee=2, gas_limit=21),  # the cheapest queued entry
            tx(b, 0, SINK, value=1, max_fee=4, gas_limit=21),
        ]
        for now, t in enumerate(submits):
            assert fast.submit(t, now) == ref.submit(t, now)
            lockstep(fast, ref, sealed)
        assert tx_hash(submits[2]) not in fast.entries and fast.entries[tx_hash(submits[3])].status is PoolStatus.QUEUED
        state = TestChangeDrivenUpkeep().executed(sealed, submits[0])
        assert a not in vm.changed_since(state, sealed)
        assert fast.retire(10, state) == ref.retire(10, state) == [(tx_hash(submits[0]), "retired")]
        lockstep(fast, ref, state)
        assert fast.entries[tx_hash(submits[3])].status is PoolStatus.PENDING
        later = [tx(b, 1, SINK, value=1, max_fee=1, gas_limit=21), tx(z, 2, SINK, value=1, gas_limit=21), tx(z, 1, SINK, value=1, max_fee=3, gas_limit=21)]
        for now, t in enumerate(later, 11):
            assert fast.submit(t, now) == ref.submit(t, now)
            lockstep(fast, ref, state)
        assert fast.retire(20, state) == ref.retire(20, state)
        lockstep(fast, ref, state)


def count_entry_fields(patch, counts: dict) -> dict:
    """Count reads and writes of `PoolEntry.status` into `counts` from here on."""
    counts.update(status_reads=0, status_writes=0)

    slot = PoolEntry.__dict__["status"]  # the slot descriptor the property wraps

    def read(entry):
        counts["status_reads"] += 1
        return slot.__get__(entry)

    def write(entry, value):
        counts["status_writes"] += 1
        slot.__set__(entry, value)

    patch.setattr(PoolEntry, "status", property(read, write), raising=False)
    return counts


def binding_submit_counts(n: int, monkeypatch) -> dict:
    """With max_pending = 16 and `n` senders of one entry each, count account
    lookups and status writes while the lowest-address sender submits its
    next nonce, which moves the cap's cut back by one sender."""
    senders = [addr(0x100 + k) for k in range(n)]
    state = make_state({s: Account(balance=10_000) for s in senders})
    pool = Mempool(PoolConfig(max_pending=16), state)
    for s in senders:
        pool.submit(tx(s, 0, SINK, value=1, gas_limit=21), 0)
    counts = {"account": 0}
    original = WorldState.account

    def account(self, address):
        counts["account"] += 1
        return original(self, address)

    with monkeypatch.context() as patch:
        patch.setattr(WorldState, "account", account)
        count_entry_fields(patch, counts)
        assert pool.submit(tx(senders[0], 1, SINK, value=1, gas_limit=21), 1).outcome == "accepted"
    pending = [e.tx.sender for e in pool.entries.values() if e.status is PoolStatus.PENDING]
    assert sorted(pending) == [senders[0]] * 2 + senders[1:15]
    return counts


def overflow_submit_counts(n: int, monkeypatch) -> dict:
    """With max_queued = `n` full of queued entries (each waits for a nonce
    gap), count the entries whose status is read while one more submit
    evicts the cheapest of them."""
    state = make_state({addr(0x100 + k): Account(balance=10_000) for k in range(n + 1)})
    pool = Mempool(PoolConfig(max_queued=n), state)
    for k in range(n):
        pool.submit(tx(addr(0x100 + k), 1, SINK, value=1, max_fee=2 + k % 7, gas_limit=21), k)
    with monkeypatch.context() as patch:
        counts = count_entry_fields(patch, {})
        newcomer = tx(addr(0x100 + n), 1, SINK, value=1, max_fee=9, gas_limit=21)
        assert pool.submit(newcomer, n).outcome == "accepted"
    # The latest of the cheapest (max_fee 2) entries went.
    assert tx_hash(tx(addr(0x100 + (n - 1) // 7 * 7), 1, SINK, value=1, max_fee=2, gas_limit=21)) not in pool.entries
    assert len(pool.entries) == n
    return counts


class TestSubmitScaling:
    def test_binding_cap_submit_does_not_grow_with_senders(self, monkeypatch):
        small = binding_submit_counts(200, monkeypatch)
        large = binding_submit_counts(2000, monkeypatch)
        assert small["status_writes"] >= 3  # the new entry, then it and the crossed sender flip
        assert (small["account"], small["status_writes"]) == (large["account"], large["status_writes"])

    def test_overflow_eviction_does_not_grow_with_queued_entries(self, monkeypatch):
        small = overflow_submit_counts(100, monkeypatch)
        large = overflow_submit_counts(1000, monkeypatch)
        assert small["status_reads"] >= 1
        assert small["status_reads"] == large["status_reads"]


SCENARIOS = {path.stem: path.read_text() for path in (Path(__file__).resolve().parent.parent / "scenarios").glob("*.scn")}
# No bundled scenario deposits to or from a sender with pooled transactions.
SCENARIOS["deposit_to_pooled_sender"] = """scenario v1
config fee_recipient=0xfe
genesis account 0x01 balance=1000
run blocks=3
event 1 submit sender=0x01 nonce=0 to=0x02 value=5 gas_limit=21
event 1 submit sender=0x01 nonce=1 to=0x02 value=5 gas_limit=21
event 1 l1_block deposits={sender=0x01 recipient=0x01 value=7 gas_limit=21}
event 3 submit sender=0x01 nonce=3 to=0x02 value=5 gas_limit=21
"""


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sequencer_upkeep_is_one_hop_and_candidates_match_the_reference(name, monkeypatch):
    """Once block 0 is built, every `changed_since` asked by the pool and the
    store is answered (the rooted tip it last saw is one hop back), and each
    block's candidates, read at the pool's last refresh, equal the full walk
    at the state after the epoch's deposits: a deposit writes no nonce."""
    seq = sequencer.Sequencer(parse_scenario(SCENARIOS[name], default_name=name))
    pool, ref = seq.mempool, ReferenceMempool(seq.mempool.config, seq.mempool.tip)
    built, late_answers, selected, compared = [0], [], [], [0]

    def answering(original):
        def changed_since(state, earlier):
            answer = original(state, earlier)
            if built[0]:
                late_answers.append(answer)
            return answer

        return changed_since

    def shadowed(fast, slow):
        def both(*args):
            result = fast(*args)
            assert slow(*args) == result
            return result

        return both

    def selecting(base_fee, _select=pool.pending_candidates):
        selected.extend((base_fee, set(seq.store.active), _select(base_fee)))
        return selected[-1]

    def classifying(candidates, *args, _detect=sequencer.hybrid_detect, **kwargs):
        if selected:  # the regular candidates, right after their selection
            base_fee, held, txs = selected
            assert list(candidates.txs) == txs == ref.pending_candidates(base_fee, candidates.tip_state, held=held)
            selected.clear()
            compared[0] += 1
        return _detect(candidates, *args, **kwargs)

    def counting(*args, _build=seq.build_block):
        block = _build(*args)
        built[0] += 1
        return block

    for module in (mempool, quarantine):
        monkeypatch.setattr(module, "changed_since", answering(vm.changed_since))
    for method in ("submit", "retire"):
        monkeypatch.setattr(pool, method, shadowed(getattr(pool, method), getattr(ref, method)))
    monkeypatch.setattr(pool, "pending_candidates", selecting)
    monkeypatch.setattr(sequencer, "hybrid_detect", classifying)
    monkeypatch.setattr(seq, "build_block", counting)
    seq.run()
    assert compared[0] == built[0] == seq.scenario.run_blocks
    assert late_answers and None not in late_answers


def _bench_generate():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


_GENERATE = _bench_generate()
TIP_RUNS = {**SCENARIOS, **{f"bench_{w}": _GENERATE.generate(w, 1)[0] for w in sorted(_GENERATE.GENERATORS)}}


@pytest.mark.parametrize("name", sorted(TIP_RUNS))
def test_the_pool_tip_is_the_chain_tip_after_every_block(name):
    """A submit is checked at the pool's tip, which only `retire` moves: the
    sequencer submits between blocks at the chain's tip, so that is the very
    state object the pool holds, from genesis and after every block. After
    every block, too, every collateral lock is on a pooled transaction (a
    lock settles when its transaction leaves) and both caps hold. Over
    every bundled scenario and each benchmark workload at seed 1."""
    seq = sequencer.Sequencer(parse_scenario(TIP_RUNS[name], default_name=name))
    assert seq.mempool.tip is seq.chain.tip_state
    blocks = []

    def checked(now, _build=seq.build_block):
        blocks.append(_build(now))
        assert seq.mempool.tip is seq.chain.tip_state, len(blocks)
        assert seq.store.ledger.locked.keys() <= seq.mempool.entries.keys(), len(blocks)
        check_caps(seq.mempool)
        return blocks[-1]

    seq.build_block = checked
    seq.run()
    assert len(blocks) == seq.scenario.run_blocks


def flood_sequencer(flooders: int) -> ObjectCount:
    """The tracked objects a seed-1 `quarantine_flood` run with `flooders`
    drains leaves alive in its sequencer, counted after the parse and
    without the report."""
    text, _ = _GENERATE.quarantine_flood(1, _GENERATE.Sizes(blocks=150, actors=flooders))
    scenario = parse_scenario(text, default_name="quarantine_flood")
    return tracked_objects(lambda: sequencer.run(scenario).sequencer)


def test_a_held_entry_costs_a_bounded_number_of_tracked_objects():
    """Every drain is held to the end of the run, so the difference between
    4000 and 400 flooders is 3600 held entries with their pool entries."""
    small, large = flood_sequencer(400), flood_sequencer(4000)
    assert len(small.result.store.active) == 400 and len(large.result.store.active) == 4000
    per_entry = (large.added - small.added) / 3600
    assert per_entry <= 11.5, per_entry  # 10.96
