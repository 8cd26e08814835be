import pytest

from helpers import addr, tx
from rollupsim.core import tx_hash
from rollupsim.mempool import Mempool, PoolConfig, PoolStatus, RejectReason
from rollupsim.vm import Account, make_state


def state_with(balances, nonces=None):
    nonces = nonces or {}
    return make_state({a: Account(balance=b, nonce=nonces.get(a, 0)) for a, b in balances.items()})


@pytest.fixture
def state():
    return state_with({addr(1): 10_000, addr(2): 10_000, addr(3): 10_000})


def test_fresh_matching_nonce_goes_pending(state):
    pool = Mempool(PoolConfig(), state)
    t = tx(addr(1), 0, addr(9))
    assert pool.submit(t, now=0).outcome == "accepted"
    assert pool.get(tx_hash(t)).status is PoolStatus.PENDING


def test_nonce_gap_lands_in_queued(state):
    pool = Mempool(PoolConfig(), state)
    t = tx(addr(1), 2, addr(9))
    assert pool.submit(t, now=0).outcome == "accepted"
    assert pool.get(tx_hash(t)).status is PoolStatus.QUEUED
    assert pool.pending_candidates(1) == []


def test_gap_fill_promotes(state):
    pool = Mempool(PoolConfig(), state)
    later = tx(addr(1), 1, addr(9))
    pool.submit(later, now=0)
    assert pool.get(tx_hash(later)).status is PoolStatus.QUEUED
    pool.submit(tx(addr(1), 0, addr(9)), now=1)
    assert pool.get(tx_hash(later)).status is PoolStatus.PENDING


def test_replacement_needs_ten_percent_bump(state):
    pool = Mempool(PoolConfig(), state)
    pool.submit(tx(addr(1), 0, addr(9), max_fee=100), now=0)
    low = pool.submit(tx(addr(1), 0, addr(9), max_fee=109), now=1)
    assert low.outcome == "rejected" and low.reason is RejectReason.UNDERPRICED_REPLACEMENT
    old_hash = tx_hash(tx(addr(1), 0, addr(9), max_fee=100))
    ok = pool.submit(tx(addr(1), 0, addr(9), max_fee=110), now=2)
    assert ok.outcome == "replaced" and ok.replaced == old_hash
    assert old_hash not in pool


def test_replaced_hash_never_reappears_in_candidates(state):
    pool = Mempool(PoolConfig(), state)
    old = tx(addr(1), 0, addr(9), max_fee=100)
    pool.submit(old, now=0)
    pool.submit(tx(addr(1), 0, addr(9), max_fee=200), now=1)
    assert tx_hash(old) not in {tx_hash(t) for t in pool.pending_candidates(1)}


def test_nonce_too_low_rejected():
    state = state_with({addr(1): 10_000}, nonces={addr(1): 5})
    pool = Mempool(PoolConfig(), state)
    result = pool.submit(tx(addr(1), 4, addr(9)), now=0)
    assert result.reason is RejectReason.NONCE_TOO_LOW


def test_unaffordable_rejected(state):
    pool = Mempool(PoolConfig(), state)
    result = pool.submit(tx(addr(1), 0, addr(9), value=10_000, gas_limit=21, max_fee=1), now=0)
    assert result.reason is RejectReason.INSUFFICIENT_BALANCE


def test_base_fee_threshold_filters_candidates(state):
    pool = Mempool(PoolConfig(), state)
    for i, fee in enumerate([4, 5, 6]):
        pool.submit(tx(addr(i + 1), 0, addr(9), max_fee=fee), now=i)
    fees = {t.max_fee for t in pool.pending_candidates(5)}
    assert fees == {5, 6}


def test_candidates_ordered_by_effective_tip_then_arrival(state):
    pool = Mempool(PoolConfig(), state)
    slow = tx(addr(1), 0, addr(9), max_fee=10, priority_fee=1)
    fast = tx(addr(2), 0, addr(9), max_fee=10, priority_fee=3)
    pool.submit(slow, now=0)
    pool.submit(fast, now=1)
    assert pool.pending_candidates(1) == [fast, slow]


def test_candidates_stop_at_first_fee_filtered_nonce(state):
    pool = Mempool(PoolConfig(), state)
    pool.submit(tx(addr(1), 0, addr(9), max_fee=10), now=0)
    pool.submit(tx(addr(1), 1, addr(9), max_fee=1), now=1)  # below base fee later
    pool.submit(tx(addr(1), 2, addr(9), max_fee=10), now=2)
    included = [t.nonce for t in pool.pending_candidates(5)]
    assert included == [0]


def test_contiguity_cut_by_missing_nonce(state):
    pool = Mempool(PoolConfig(), state)
    pool.submit(tx(addr(1), 0, addr(9)), now=0)
    pool.submit(tx(addr(1), 2, addr(9)), now=1)
    assert [t.nonce for t in pool.pending_candidates(1)] == [0]


def test_retire_dead_nonce_lifetime_and_balance(state):
    pool = Mempool(PoolConfig(tx_lifetime=100), state)
    stale = tx(addr(1), 0, addr(9))
    old = tx(addr(2), 0, addr(9))
    broke = tx(addr(3), 0, addr(9), value=5000)
    for i, t in enumerate([stale, old, broke]):
        pool.submit(t, now=i)
    later = state_with({addr(1): 10_000, addr(2): 10_000, addr(3): 10}, nonces={addr(1): 1})
    removed = pool.retire(now=200, state=later)
    assert set(removed) == {tx_hash(stale), tx_hash(old), tx_hash(broke)}


def test_submits_are_checked_at_the_tip_only_retire_moves(state):
    pool = Mempool(PoolConfig(), state)
    assert pool.tip is state
    later = state_with({addr(1): 10_000}, nonces={addr(1): 1})
    assert pool.retire(now=1, state=later) == [] and pool.tip is later
    assert pool.submit(tx(addr(1), 0, addr(9)), now=2).reason is RejectReason.NONCE_TOO_LOW
    assert pool.submit(tx(addr(2), 0, addr(9)), now=2).reason is RejectReason.INSUFFICIENT_BALANCE
    assert pool.submit(tx(addr(1), 1, addr(9)), now=2).outcome == "accepted"


def test_retire_keeps_valid_entries(state):
    pool = Mempool(PoolConfig(), state)
    keep = tx(addr(1), 0, addr(9))
    pool.submit(keep, now=0)
    assert pool.retire(now=10, state=state) == []
    assert tx_hash(keep) in pool


def test_overflow_evicts_lowest_fee_queued(state):
    pool = Mempool(PoolConfig(max_queued=2), state)
    # Queued entries (nonce gaps) with different fees.
    cheap = tx(addr(1), 5, addr(9), max_fee=1)
    mid = tx(addr(2), 5, addr(9), max_fee=5)
    rich = tx(addr(3), 5, addr(9), max_fee=9)
    pool.submit(cheap, now=0)
    pool.submit(mid, now=1)
    result = pool.submit(rich, now=2)
    assert result.outcome == "accepted" and result.evicted == tx_hash(cheap)
    assert tx_hash(cheap) not in pool
    assert tx_hash(mid) in pool and tx_hash(rich) in pool


def test_overflow_rejects_incoming_if_cheapest(state):
    pool = Mempool(PoolConfig(max_queued=2), state)
    pool.submit(tx(addr(1), 5, addr(9), max_fee=5), now=0)
    pool.submit(tx(addr(2), 5, addr(9), max_fee=5), now=1)
    result = pool.submit(tx(addr(3), 5, addr(9), max_fee=1), now=2)
    assert result.outcome == "rejected" and result.reason is RejectReason.POOL_FULL
    assert result.evicted is None


def test_single_pending_per_sender_nonce(state):
    pool = Mempool(PoolConfig(), state)
    pool.submit(tx(addr(1), 0, addr(9), max_fee=100), now=0)
    pool.submit(tx(addr(1), 0, addr(9), max_fee=200), now=1)
    pending = [t for t in pool.pending_candidates(1) if t.sender == addr(1) and t.nonce == 0]
    assert len(pending) == 1


def test_candidates_deterministic(state):
    pool = Mempool(PoolConfig(), state)
    txs = [tx(addr(i), 0, addr(9), max_fee=10, priority_fee=i) for i in (1, 2, 3)]
    for i, t in enumerate(txs):
        pool.submit(t, now=0)
    first = pool.pending_candidates(1)
    assert first == pool.pending_candidates(1)
