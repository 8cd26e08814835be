"""Queued/pending transaction pool with replacement-by-fee and retirement.

Single-writer: one owner serializes all mutations. Ordering of candidates is
fully deterministic (effective tip desc, then arrival time, then hash) so the
whole pipeline replays bit-identically.

The pool keeps its own tip: it is built at the genesis state, and only
`retire`, which the sequencer calls with each sealed block's state, moves
it. Every submit is checked against the tip, so each pooled entry was
checked against its account there.

Every operation costs what changed, not what the pool holds. The pool keeps
a running pending count, each sender's contiguous-run length, the senders
with a nonzero run in address order, and the cut: the sender where
`max_pending` runs out and the run total before it. A refresh re-measures
only senders whose slots changed or, at a retire, whose account may differ
from the old tip, as `vm.changed_since` reports (every sender when it
cannot tell), walks the cut to its new place, and relabels those senders
and the ones the cut crossed. Each sender's eligible run is cached with its
sort keys, read at the tip, and every sender a refresh re-measured is
marked for a rebuild. The quarantine store
tells the pool which hashes it holds (`on_held`, `on_released`), so held
entries never enter the candidate cache. Lifetime expiry pops a heap keyed
on arrival time, and `max_queued` eviction a heap keyed on fee and arrival.
`submit` and `retire` report every removal once, as a `(hash, cause)` exit,
so the owner settles each in one place, and both end with both caps held.
"""
from __future__ import annotations

import bisect
import heapq
from enum import Enum
from typing import Collection, Dict, List, NamedTuple, Optional, Set, Tuple

from .core import Address, Record, SignedTransaction, TxHash, max_cost, tx_hash
from .vm import WorldState, changed_since


class PoolStatus(Enum):
    QUEUED = "queued"
    PENDING = "pending"


class RejectReason(Enum):
    NONCE_TOO_LOW = "nonce_too_low"
    INSUFFICIENT_BALANCE = "insufficient_balance"
    UNDERPRICED_REPLACEMENT = "underpriced_replacement"
    POOL_FULL = "pool_full"


class PoolConfig(Record):
    __slots__ = _fields = ("max_queued", "max_pending", "min_replacement_bump_percent", "tx_lifetime")

    def __init__(
        self, max_queued: int = 4096, max_pending: int = 1024, min_replacement_bump_percent: int = 10,
        tx_lifetime: int = 10800,
    ) -> None:
        if min(max_queued, max_pending, min_replacement_bump_percent, tx_lifetime) <= 0:
            raise ValueError("pool config values must be positive")
        self.max_queued = max_queued
        self.max_pending = max_pending
        self.min_replacement_bump_percent = min_replacement_bump_percent
        self.tx_lifetime = tx_lifetime


class PoolEntry:
    __slots__ = ("tx", "received_at", "status")

    def __init__(self, tx: SignedTransaction, received_at: int, status: PoolStatus) -> None:
        self.tx = tx
        self.received_at = received_at
        self.status = status


# One removal from the pool: (hash, cause). The cause is "retired" (nonce
# spent, included or not, or unaffordable at the new tip), "expired" (older
# than `tx_lifetime`), "replaced" (by a same-nonce fee bump) or "evicted"
# (the lowest-fee queued entry over `max_queued`).
PoolExit = Tuple[TxHash, str]


class SubmitResult(NamedTuple):
    outcome: str  # accepted | replaced | rejected
    reason: Optional[RejectReason] = None
    exits: Tuple[PoolExit, ...] = ()  # the entries this submit removed


ACCEPTED = SubmitResult("accepted")


class Mempool:
    def __init__(self, config: PoolConfig, state: WorldState):
        self.config = config
        self.tip = state  # the state submits are checked at; only `retire` moves it
        self.entries: Dict[TxHash, PoolEntry] = {}
        self.by_sender: Dict[Address, Dict[int, TxHash]] = {}
        self._pending = 0  # entries whose status is PENDING
        # Nonzero contiguous-run lengths, those senders in address order, and
        # the cut: the first of them whose run crosses max_pending (None when
        # every run fits) with the run total before it.
        self._runs: Dict[Address, int] = {}
        self._order: List[Address] = []
        self._cut: Optional[Address] = None
        self._cut_before = 0
        self._arrivals: List[Tuple[int, TxHash]] = []  # heap; stale items skipped
        # Eviction heap: (max_fee, -received_at, hash), pushed whenever an
        # entry becomes or is born QUEUED; items of entries gone or no longer
        # queued are skipped.
        self._queued: List[Tuple[int, int, TxHash]] = []
        self._held: Set[TxHash] = set()  # hashes the quarantine holds
        # Candidate cache: the (-tip, arrival, hash, tx) sort item of every
        # entry in a sender's eligible run at `tip` and `_eligible_fee`
        # that is not held, by hash, and each sender's run of hashes, except
        # for the senders in `_dirty`, whose slots, statuses or account
        # changed since.
        self._items: Dict[TxHash, Tuple[int, int, TxHash, SignedTransaction]] = {}
        self._eligible: Dict[Address, List[TxHash]] = {}
        self._eligible_fee: Optional[int] = None
        self._dirty: Set[Address] = set()

    def submit(self, tx: SignedTransaction, now: int) -> SubmitResult:
        """Validate a transaction at the tip and admit it, possibly replacing
        a same-nonce one, or refuse it and leave the pool as it was.

        A replacement must raise max_fee strictly, to at least old max_fee
        * (1 + bump%); anything else is rejected as underpriced, so a
        zero-fee transaction cannot replace itself. A replacement takes over its
        slot and status, so no count moves and nothing is evicted. A new
        slot can put the queued side one over `max_queued`: the lowest-fee
        queued entry is evicted, and if that is the incoming one, it is
        refused `POOL_FULL`.
        """
        account = self.tip.account(tx.sender)
        if tx.nonce < account.nonce:
            return SubmitResult("rejected", RejectReason.NONCE_TOO_LOW)
        if account.balance < max_cost(tx):
            return SubmitResult("rejected", RejectReason.INSUFFICIENT_BALANCE)

        old_hash = self.by_sender.get(tx.sender, {}).get(tx.nonce)
        if old_hash is not None:
            old_fee = self.entries[old_hash].tx.max_fee
            bump = self.config.min_replacement_bump_percent
            if tx.max_fee <= old_fee or tx.max_fee * 100 < old_fee * (100 + bump):
                return SubmitResult("rejected", RejectReason.UNDERPRICED_REPLACEMENT)
            self._drop(old_hash)

        h = tx_hash(tx)
        entry = self.entries[h] = PoolEntry(tx=tx, received_at=now, status=PoolStatus.QUEUED)
        self.by_sender.setdefault(tx.sender, {})[tx.nonce] = h
        heapq.heappush(self._arrivals, (now, h))
        self._refresh_statuses([tx.sender])
        if entry.status is PoolStatus.QUEUED:  # born queued: the refresh did not push it
            heapq.heappush(self._queued, (tx.max_fee, -now, h))

        if old_hash is not None:
            return SubmitResult("replaced", exits=((old_hash, "replaced"),))
        if len(self.entries) - self._pending > self.config.max_queued:
            victim = self._evict_lowest_queued()
            if victim == h:
                return SubmitResult("rejected", RejectReason.POOL_FULL)
            return SubmitResult("accepted", exits=((victim, "evicted"),))
        return ACCEPTED

    def pending_candidates(self, base_fee: int) -> List[SignedTransaction]:
        """Pending txs that bid at least the base fee, most generous tip first.

        Per sender, only the nonce-contiguous prefix starting at the account
        nonce is eligible (a fee-filtered middle nonce cuts off the rest).
        Entries the quarantine holds (see `on_held`) are skipped without
        cutting off later nonces. Ties break by arrival time, then hash.
        Nonces are read at the pool's tip, the last sealed block's state:
        the epoch's deposits run after it, but a deposit never writes a
        nonce. Runs are rebuilt only for senders marked since the last call
        (all of them when the base fee moved).
        """
        items, runs, held, state = self._items, self._eligible, self._held, self.tip
        if base_fee != self._eligible_fee:
            items.clear()
            runs.clear()
            senders: Collection[Address] = self.by_sender
        else:
            senders = self._dirty
        for sender in senders:
            for h in runs.pop(sender, ()):
                items.pop(h, None)
            slots = self.by_sender.get(sender)
            if not slots:
                continue
            run = []
            nonce = state.nonce_of(sender)
            while nonce in slots:
                h = slots[nonce]
                entry = self.entries[h]
                if entry.status is not PoolStatus.PENDING or entry.tx.max_fee < base_fee:
                    break
                if h not in held:
                    tip = min(entry.tx.priority_fee, entry.tx.max_fee - base_fee)
                    items[h] = (-tip, entry.received_at, tx_hash(entry.tx), entry.tx)
                    run.append(h)
                nonce += 1
            if run:
                runs[sender] = run
        self._dirty = set()
        self._eligible_fee = base_fee
        # Hashes are unique, so the sort never compares transactions.
        return [item[3] for item in sorted(items.values())]

    def on_held(self, h: TxHash) -> None:
        """The quarantine now holds `h`: it leaves the candidates."""
        self._held.add(h)
        self._items.pop(h, None)

    def on_released(self, h: TxHash) -> None:
        """The quarantine no longer holds `h`: its sender's run is rebuilt at
        the next candidate selection."""
        self._held.discard(h)
        entry = self.entries.get(h)
        if entry is not None:
            self._dirty.add(entry.tx.sender)

    def retire(self, now: int, state: WorldState) -> List[PoolExit]:
        """Move the tip to `state`, drop stale entries in hash order (dead
        nonce or unaffordable: "retired"; past their lifetime: "expired"),
        then evict down to `max_queued`, since a drop can turn a sender's
        later nonces queued. Each removal is reported as an exit.

        Nonce and balance are rechecked only for senders whose account may
        differ from the old tip's (every sender when the states are
        unrelated); lifetimes come off the arrival heap."""
        changed = changed_since(state, self.tip)
        stale = list(self.by_sender) if changed is None else self.by_sender.keys() & changed
        self.tip = state
        doomed: Dict[TxHash, str] = {}
        for sender in stale:
            account = state.account(sender)
            for nonce, h in self.by_sender[sender].items():
                if nonce < account.nonce or account.balance < max_cost(self.entries[h].tx):
                    doomed[h] = "retired"
        senders = set(stale)
        deadline = now - self.config.tx_lifetime  # expired: received_at < deadline
        while self._arrivals and self._arrivals[0][0] < deadline:
            received_at, h = heapq.heappop(self._arrivals)
            entry = self.entries.get(h)
            if entry is not None and entry.received_at == received_at:
                doomed.setdefault(h, "expired")
                senders.add(entry.tx.sender)
        exits = sorted(doomed.items())
        for h, _ in exits:
            self._drop(h)
        self._refresh_statuses(senders)
        while len(self.entries) - self._pending > self.config.max_queued:
            exits.append((self._evict_lowest_queued(), "evicted"))
        if len(self._arrivals) > 2 * len(self.entries) + 64:
            self._arrivals = [(e.received_at, h) for h, e in self.entries.items()]
            heapq.heapify(self._arrivals)
        if len(self._queued) > 2 * len(self.entries) + 64:
            self._queued = [
                (e.tx.max_fee, -e.received_at, h) for h, e in self.entries.items() if e.status is PoolStatus.QUEUED
            ]
            heapq.heapify(self._queued)
        return exits

    # -- internals --

    def _drop(self, h: TxHash) -> None:
        entry = self.entries.pop(h)
        if entry.status is PoolStatus.PENDING:
            self._pending -= 1
        sender = entry.tx.sender
        self._dirty.add(sender)
        slots = self.by_sender[sender]
        del slots[entry.tx.nonce]
        if not slots:
            del self.by_sender[sender]

    def _refresh_statuses(self, senders: Collection[Address]) -> None:
        """Re-measure the runs of `senders` at the tip, walk the cut to its
        new place, and relabel `senders` and every sender the cut crossed.

        Pending = nonce-contiguous from the account nonce, capped by
        max_pending over senders in address order: a sender before the cut
        has its whole run pending, the cut sender what the cap leaves, and
        a later sender none."""
        runs, order, cap, state = self._runs, self._order, self.config.max_pending, self.tip
        cut, before = self._cut, self._cut_before
        for sender in senders:
            slots = self.by_sender.get(sender, ())
            start = state.nonce_of(sender)
            run = 0
            while start + run in slots:
                run += 1
            old = runs.pop(sender, 0)
            if run:
                runs[sender] = run
            if run != old:
                if not old:
                    bisect.insort(order, sender)
                elif not run:
                    del order[bisect.bisect_left(order, sender)]
                if cut is None or sender < cut:
                    before += run - old
        relabel = senders
        if cut is not None or before > cap:  # else every run still fits
            i = was = len(order) if cut is None else bisect.bisect_left(order, cut)
            while before > cap:
                i -= 1
                before -= runs[order[i]]
            while i < len(order) and before + runs[order[i]] <= cap:
                before += runs[order[i]]
                i += 1
            cut = self._cut = order[i] if i < len(order) else None
            relabel = {*senders, *order[min(was, i) : max(was, i) + 1]}
        self._cut_before = before
        for sender in relabel:
            slots = self.by_sender.get(sender)
            if slots is None:
                continue
            self._dirty.add(sender)
            start = state.nonce_of(sender)
            if cut is None or sender < cut:
                end = start + runs.get(sender, 0)
            else:
                end = start + cap - before if sender == cut else start
            for nonce, h in slots.items():
                entry = self.entries[h]
                status = PoolStatus.PENDING if start <= nonce < end else PoolStatus.QUEUED
                if entry.status is not status:
                    entry.status = status
                    if status is PoolStatus.PENDING:
                        self._pending += 1
                    else:
                        self._pending -= 1
                        heapq.heappush(self._queued, (entry.tx.max_fee, -entry.received_at, h))

    def _evict_lowest_queued(self) -> TxHash:
        """Drop the lowest-fee queued entry (the latest arrival among equal
        fees) and re-measure its sender, whose run it may have sat in.
        Called only over the cap, each call lowers the queued count by one:
        whatever it cuts from a run sat past the pending cap too."""
        queued = self._queued
        while True:
            _, neg_received_at, h = heapq.heappop(queued)
            entry = self.entries.get(h)
            if entry is not None and entry.status is PoolStatus.QUEUED and entry.received_at == -neg_received_at:
                self._drop(h)
                self._refresh_statuses([entry.tx.sender])
                return h
