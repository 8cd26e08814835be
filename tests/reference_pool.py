"""Reference oracle for the incremental pool and quarantine upkeep.

These are the original full-walk implementations the indexed fast paths
replaced: every submit and retire re-walks all senders in address order and
counts every entry, retire re-checks every entry in hash order, candidates
are filtered for held entries after selection, and quarantine maintenance
and staking walk every key ever admitted. They are slow but
obviously right, and the differential tests hold the shipped pool and store
to them. Like the shipped pool, the reference keeps its own tip, which
only `retire` moves, reports every removal as a `(hash, cause)` exit, and
ends each submit and retire by evicting the lowest-fee queued entries down
to `max_queued`; a submit whose own transaction is evicted restores a copy
of the pool taken before it. A replacement must raise `max_fee` strictly.
"""
from __future__ import annotations

from typing import Dict, List

from rollupsim.core import Address, SignedTransaction, TxHash, max_cost, tx_hash
from rollupsim.mempool import (
    PoolConfig,
    PoolEntry,
    PoolExit,
    PoolStatus,
    RejectReason,
    SubmitResult,
)
from rollupsim.quarantine import AuditEvent, QuarantineStore
from rollupsim.vm import WorldState


class ReferenceMempool:
    def __init__(self, config: PoolConfig, state: WorldState):
        self.config = config
        self.entries: Dict[TxHash, PoolEntry] = {}
        self.by_sender: Dict[Address, Dict[int, TxHash]] = {}
        self.tip = state  # the state submits are checked at; only `retire` moves it

    def submit(self, tx: SignedTransaction, now: int) -> SubmitResult:
        """Admit the transaction, replacing a same-nonce one, then evict
        down to `max_queued`; if that evicts the transaction itself, put the
        pool back as it was and refuse it."""
        account = self.tip.account(tx.sender)
        if tx.nonce < account.nonce:
            return SubmitResult("rejected", RejectReason.NONCE_TOO_LOW)
        if account.balance < max_cost(tx):
            return SubmitResult("rejected", RejectReason.INSUFFICIENT_BALANCE)

        saved = dict(self.entries), {sender: dict(slots) for sender, slots in self.by_sender.items()}
        outcome, exits = "accepted", []
        sender_slots = self.by_sender.get(tx.sender, {})
        if tx.nonce in sender_slots:
            old_hash = sender_slots[tx.nonce]
            old_fee = self.entries[old_hash].tx.max_fee
            bump = self.config.min_replacement_bump_percent
            if tx.max_fee <= old_fee or tx.max_fee * 100 < old_fee * (100 + bump):
                return SubmitResult("rejected", RejectReason.UNDERPRICED_REPLACEMENT)
            self._drop(old_hash)
            outcome, exits = "replaced", [(old_hash, "replaced")]

        h = tx_hash(tx)
        self.entries[h] = PoolEntry(tx=tx, received_at=now, status=PoolStatus.QUEUED)
        self.by_sender.setdefault(tx.sender, {})[tx.nonce] = h
        self._refresh_statuses()
        exits += self._evict_over_cap()
        if h not in self.entries:
            self.entries, self.by_sender = saved
            self._refresh_statuses()
            return SubmitResult("rejected", RejectReason.POOL_FULL)
        return SubmitResult(outcome, exits=tuple(exits))

    def pending_candidates(self, base_fee: int, state: WorldState, held=()) -> List[SignedTransaction]:
        eligible: List[PoolEntry] = []
        for sender, slots in self.by_sender.items():
            nonce = state.nonce_of(sender)
            while nonce in slots:
                entry = self.entries[slots[nonce]]
                if entry.status is not PoolStatus.PENDING or entry.tx.max_fee < base_fee:
                    break
                eligible.append(entry)
                nonce += 1

        def sort_key(entry: PoolEntry):
            tip = min(entry.tx.priority_fee, entry.tx.max_fee - base_fee)
            return (-tip, entry.received_at, tx_hash(entry.tx))

        return [entry.tx for entry in sorted(eligible, key=sort_key) if tx_hash(entry.tx) not in held]

    # The reference filters candidates by its store's active entries (`held`),
    # so it ignores the notices a store sends its pool.
    def on_held(self, h: TxHash) -> None:
        pass

    def on_released(self, h: TxHash) -> None:
        pass

    def retire(self, now: int, state: WorldState) -> List[PoolExit]:
        self.tip = state
        exits: List[PoolExit] = []
        for h in sorted(self.entries):
            entry = self.entries[h]
            account = state.account(entry.tx.sender)
            if entry.tx.nonce < account.nonce or account.balance < max_cost(entry.tx):
                exits.append((h, "retired"))
            elif entry.received_at + self.config.tx_lifetime < now:
                exits.append((h, "expired"))
        for h, _ in exits:
            self._drop(h)
        self._refresh_statuses()
        return exits + self._evict_over_cap()

    def _drop(self, h: TxHash) -> None:
        entry = self.entries.pop(h, None)
        if entry is None:
            return
        slots = self.by_sender.get(entry.tx.sender)
        if slots and slots.get(entry.tx.nonce) == h:
            del slots[entry.tx.nonce]
            if not slots:
                del self.by_sender[entry.tx.sender]

    def _count(self, status: PoolStatus) -> int:
        return sum(1 for e in self.entries.values() if e.status is status)

    def _refresh_statuses(self) -> None:
        state = self.tip
        pending_total = 0
        for sender in sorted(self.by_sender):
            slots = self.by_sender[sender]
            nonce = state.nonce_of(sender)
            contiguous = set()
            while nonce in slots:
                contiguous.add(nonce)
                nonce += 1
            for tx_nonce in sorted(slots):
                entry = self.entries[slots[tx_nonce]]
                if tx_nonce in contiguous and pending_total < self.config.max_pending:
                    entry.status = PoolStatus.PENDING
                    pending_total += 1
                else:
                    entry.status = PoolStatus.QUEUED

    def _evict_over_cap(self) -> List[PoolExit]:
        """Evict the lowest-fee queued entry (the latest arrival among equal
        fees) and re-label every entry, until `max_queued` holds."""
        evicted: List[PoolExit] = []
        while self._count(PoolStatus.QUEUED) > self.config.max_queued:
            queued = [(e.tx.max_fee, -e.received_at, h) for h, e in self.entries.items() if e.status is PoolStatus.QUEUED]
            victim = min(queued)[2]
            self._drop(victim)
            self._refresh_statuses()
            evicted.append((victim, "evicted"))
        return evicted


class ReferenceStore(QuarantineStore):
    """QuarantineStore whose maintenance and staking walk every key ever
    admitted, in order of first admission (a readmitted key once)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admission_order: List[TxHash] = []

    def admit(self, tx, verdict, now, block_no):
        entry = super().admit(tx, verdict, now, block_no)
        if entry.key not in self.admission_order:
            self.admission_order.append(entry.key)
        return entry

    def per_block_maintenance(self, chain_state: WorldState, now: int) -> None:
        for key in list(self.admission_order):
            entry = self.active.get(key)
            if entry is None:
                continue
            if not entry.is_deposit and entry.tx.nonce < chain_state.nonce_of(entry.tx.sender):
                self._remove(key)
                self.audit.append(AuditEvent(key, now, "retired", detail="criterion=nonce"))
                continue
            if not entry.is_deposit and now >= entry.quarantined_at + self.config.time_criterion_period:
                self._release(entry, now, "time", "-")

    def stake(self, sender: Address, amount: int, now: int) -> None:
        self.ledger.stake(sender, amount)
        for key in list(self.admission_order):
            entry = self.active.get(key)
            if entry is not None and not entry.is_deposit and entry.tx.sender == sender:
                self.try_economic_release(key, now)
