"""Reference oracle for the incremental pool and quarantine upkeep.

These are the original full-walk implementations the indexed fast paths
replaced: every submit and retire re-walks all senders in address order and
counts every entry, retire re-checks every entry in hash order, candidates
are filtered for held entries after selection, and quarantine maintenance
and the stake handler walk every key ever admitted. They are slow but
obviously right, and the differential tests hold the shipped pool and store
to them.
"""
from __future__ import annotations

from typing import Dict, List, Optional

from rollupsim.core import Address, SignedTransaction, TxHash, tx_hash
from rollupsim.mempool import (
    ACCEPTED,
    PoolConfig,
    PoolEntry,
    PoolStatus,
    RejectReason,
    SubmitResult,
    _cost,
)
from rollupsim.quarantine import AuditEvent, CollateralLedger, MaintenanceReport, QuarantineStore
from rollupsim.vm import WorldState


class ReferenceMempool:
    def __init__(self, config: PoolConfig = PoolConfig()):
        self.config = config
        self.entries: Dict[TxHash, PoolEntry] = {}
        self.by_sender: Dict[Address, Dict[int, TxHash]] = {}
        self.refreshed = WorldState({})  # the state of the last status refresh

    def submit(self, tx: SignedTransaction, now: int, state: WorldState) -> SubmitResult:
        account = state.account(tx.sender)
        if tx.nonce < account.nonce:
            return SubmitResult("rejected", reason=RejectReason.NONCE_TOO_LOW)
        if account.balance < _cost(tx):
            return SubmitResult("rejected", reason=RejectReason.INSUFFICIENT_BALANCE)

        replaced_hash: Optional[TxHash] = None
        sender_slots = self.by_sender.setdefault(tx.sender, {})
        if tx.nonce in sender_slots:
            old_hash = sender_slots[tx.nonce]
            old_fee = self.entries[old_hash].tx.max_fee
            bump = self.config.min_replacement_bump_percent
            if tx.max_fee * 100 < old_fee * (100 + bump):
                return SubmitResult("rejected", reason=RejectReason.UNDERPRICED_REPLACEMENT)
            self._drop(old_hash)
            replaced_hash = old_hash

        h = tx_hash(tx)
        self.entries[h] = PoolEntry(tx=tx, received_at=now, status=PoolStatus.QUEUED)
        self.by_sender.setdefault(tx.sender, {})[tx.nonce] = h
        self._refresh_statuses(state)

        if self._count(PoolStatus.QUEUED) > self.config.max_queued:
            evicted = self._evict_lowest_queued()
            if evicted == h:
                self._refresh_statuses(state)
                return SubmitResult("rejected", reason=RejectReason.POOL_FULL)
        if replaced_hash is not None:
            return SubmitResult("replaced", replaced=replaced_hash)
        return ACCEPTED

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

    def retire(self, now: int, state: WorldState) -> List[TxHash]:
        removed: List[TxHash] = []
        for h in sorted(self.entries):
            entry = self.entries[h]
            account = state.account(entry.tx.sender)
            if (
                entry.tx.nonce < account.nonce
                or entry.received_at + self.config.tx_lifetime < now
                or account.balance < _cost(entry.tx)
            ):
                removed.append(h)
        for h in removed:
            self._drop(h)
        self._refresh_statuses(state)
        return removed

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

    def _refresh_statuses(self, state: WorldState) -> None:
        self.refreshed = state
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

    def _evict_lowest_queued(self) -> Optional[TxHash]:
        queued = [(e.tx.max_fee, -e.received_at, h) for h, e in self.entries.items() if e.status is PoolStatus.QUEUED]
        if not queued:
            return None
        _, _, victim = min(queued)
        self._drop(victim)
        return victim


class ReferenceStore(QuarantineStore):
    """QuarantineStore whose maintenance and stake handling walk every key
    ever admitted, in order of first admission (a readmitted key once)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admission_order: List[TxHash] = []

    def admit(self, tx, verdict, now, block_no, victim_admins=None):
        entry = super().admit(tx, verdict, now, block_no, victim_admins)
        if entry.key not in self.admission_order:
            self.admission_order.append(entry.key)
        return entry

    def per_block_maintenance(self, chain_state: WorldState, now: int) -> MaintenanceReport:
        report = MaintenanceReport([], [])
        for key in list(self.admission_order):
            entry = self.active.get(key)
            if entry is None:
                continue
            if not entry.is_deposit and entry.tx.nonce < chain_state.nonce_of(entry.tx.sender):
                self._remove(key)
                report.retired.append(key)
                self.audit.append(AuditEvent(key, now, "retired", detail="criterion=nonce"))
                continue
            if not entry.is_deposit and now >= entry.quarantined_at + self.config.time_criterion_period:
                self._release(entry, now, "time", "-")
                report.time_released.append(key)
        return report

    def on_stake(self, ledger: CollateralLedger, sender: Address, now: int) -> None:
        for key in list(self.admission_order):
            entry = self.active.get(key)
            if entry is not None and not entry.is_deposit and entry.tx.sender == sender:
                self.try_economic_release(ledger, key, now)
