"""Holding area for malicious-flagged transactions.

The store owns a held transaction's fate. An entry stays out of every
block until it retires (dead nonce, mempool exit) or is released
(re-simulation fails, administrative approval, staked collateral exceeding
the damage bound, or the configured time limit). The store holds the
`CollateralLedger` that stakes pay into and settles every pool exit in one
method, `settle`. It reads the chain through its pool, whose `tip` is the
chain tip: a failure release re-simulates there, and each victim's admin is
read there when an approval arrives (contract code never changes, so
neither does an admin).
Per-block maintenance touches only nonces and timestamps — it never
simulates, which is what keeps a quarantine flood from slowing the chain.
Its cost follows what changed, not what is held: held non-deposit keys are
indexed per sender, and only senders admitted since the last maintenance or
whose account may differ from the state it last checked (`vm.changed_since`)
are looked at; when the states are unrelated, every held sender is, which
is safe because the check is idempotent. Time-criterion deadlines sit
on a heap. The due set is processed in admission order, so the audit trail
matches a full walk.
A store tells its pool of every non-deposit key it starts or
stops holding (`Mempool.on_held`, `Mempool.on_released`): admission and
`_remove` are the only places the held set changes, so the pool's candidate
cache never sees a held entry.
Deposit entries never leave through any release path.
"""
from __future__ import annotations

import heapq
from collections import namedtuple
from typing import Collection, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .core import (
    Address,
    AnyTransaction,
    DepositTransaction,
    DuplicateKey,
    Record,
    SignedTransaction,
    TxHash,
    duplicate_key,
    tx_id,
)
from .detection import Verdict
from .mempool import Mempool, PoolExit
from .vm import (
    EMPTY_ACCOUNT, BlockContext, PreconditionFailed, TxStatus, WorldState, changed_since, execute_transaction,
)


class QuarantineError(Exception):
    pass


class AlreadyQuarantined(QuarantineError):
    pass


class EntryNotFound(QuarantineError):
    pass


class NotAuthorized(QuarantineError):
    pass


class DepositPermanence(QuarantineError):
    """Deposit entries are never released."""


class QuarantineConfig(Record):
    __slots__ = _fields = ("time_criterion_period", "operators")

    def __init__(self, time_criterion_period: int = 86400, operators: FrozenSet[Address] = frozenset()) -> None:
        if time_criterion_period <= 0:
            raise ValueError("time criterion period must be positive")
        self.time_criterion_period = time_criterion_period
        self.operators = operators


NO_APPROVALS: FrozenSet[Address] = frozenset()  # every entry's approvals until the first arrives


class QuarantineEntry:
    """A held transaction. Its `key` is its `tx_id`, computed once, at admission."""

    __slots__ = ("key", "tx", "verdict", "quarantined_at", "quarantined_block", "is_deposit", "approvals")

    def __init__(
        self, key: TxHash, tx: AnyTransaction, verdict: Verdict, quarantined_at: int, quarantined_block: int,
        is_deposit: bool,
    ) -> None:
        self.key = key
        self.tx = tx
        self.verdict = verdict
        self.quarantined_at = quarantined_at
        self.quarantined_block = quarantined_block
        self.is_deposit = is_deposit
        self.approvals = NO_APPROVALS


AuditEvent = namedtuple("AuditEvent", (
    "entry",  # TxHash
    "at",  # int
    "kind",  # str
    "actor",  # str
    "detail",  # str
), defaults=("-", "-"))


_new = tuple.__new__  # an event whose fields are in hand is built in C, every field given


# Release / hold outcomes for the trigger operations: `Record`s, so each is
# truthy and never equals an outcome of another kind.
class Released(Record):
    __slots__ = _fields = ("criterion",)

    def __init__(self, criterion: str) -> None:
        self.criterion = criterion


class StillHeld(Record):
    __slots__ = _fields = ("reason",)

    def __init__(self, reason: str = "exploit_still_viable") -> None:
        self.reason = reason


class PendingApprovals(Record):
    __slots__ = _fields = ("missing",)

    def __init__(self, missing: Tuple[Address, ...]) -> None:
        self.missing = missing


class InsufficientCollateral(Record):
    # Stake must strictly exceed this bound for the economic criterion.
    __slots__ = _fields = ("threshold",)

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold


class ReleasedRegistry:
    """Duplicate keys of everything ever released; grows monotonically.
    Indexed by sender, so a transaction whose sender never had a release is
    answered without building its key."""

    def __init__(self) -> None:
        self.keys: Set[DuplicateKey] = set()
        self.senders: Set[Address] = set()

    def note(self, tx: SignedTransaction) -> None:
        self.keys.add(duplicate_key(tx))
        self.senders.add(tx.sender)

    def is_released_duplicate(self, tx: SignedTransaction) -> bool:
        return tx.sender in self.senders and duplicate_key(tx) in self.keys


class CollateralLedger:
    """Stakes per account, with per-release locks held until the tx settles.

    An economic release locks as much stake as the damage estimate, keyed by
    the released transaction's hash. The lock settles, refunded in full,
    when that transaction leaves the pool, whatever the exit: its store
    settles every pool exit in one place (`QuarantineStore.settle`)."""

    def __init__(self) -> None:
        self.stakes: Dict[Address, int] = {}
        self.locked: Dict[TxHash, Tuple[Address, int]] = {}

    def stake(self, account: Address, amount: int) -> None:
        if amount < 0:
            raise ValueError("stake amount must be non-negative")
        self.stakes[account] = self.stakes.get(account, 0) + amount

    def available(self, account: Address) -> int:
        return self.stakes.get(account, 0)

    def lock(self, key: TxHash, account: Address, amount: int) -> None:
        if self.available(account) < amount:
            raise ValueError("lock exceeds available stake")
        self.stakes[account] -= amount
        self.locked[key] = (account, amount)

    def refund(self, key: TxHash) -> None:
        entry = self.locked.pop(key, None)
        if entry is not None:
            account, amount = entry
            self.stakes[account] = self.stakes.get(account, 0) + amount


class QuarantineStore:
    def __init__(self, config: QuarantineConfig, pool: Mempool):
        self.config = config
        self.pool = pool
        self.active: Dict[TxHash, QuarantineEntry] = {}
        self.registry = ReleasedRegistry()
        self.ledger = CollateralLedger()
        self.audit: List[AuditEvent] = []
        self._admissions = 0
        # First admission position of every key ever admitted: a readmitted
        # key keeps its place.
        self._positions: Dict[TxHash, int] = {}
        self._by_sender: Dict[Address, List[TxHash]] = {}  # held non-deposit keys
        self._admitted: Set[Address] = set()  # senders admitted since the last maintenance
        self._state: Optional[WorldState] = None  # state of the last maintenance
        self._deadlines: List[Tuple[int, TxHash]] = []  # time-criterion heap; stale items skipped

    # -- admission --

    def admit(self, tx: AnyTransaction, verdict: Verdict, now: int, block_no: int) -> QuarantineEntry:
        if not verdict.malicious:
            raise QuarantineError("only malicious-flagged transactions enter quarantine")
        key = tx_id(tx)
        if key in self.active:
            raise AlreadyQuarantined(key.hex0x())
        entry = QuarantineEntry(key, tx, verdict, now, block_no, isinstance(tx, DepositTransaction))
        self.active[key] = entry
        self._positions.setdefault(key, self._admissions)
        self._admissions += 1
        if not entry.is_deposit:
            self._by_sender.setdefault(tx.sender, []).append(key)
            self._admitted.add(tx.sender)
            heapq.heappush(self._deadlines, (now + self.config.time_criterion_period, key))
            self.pool.on_held(key)
        self.audit.append(_new(AuditEvent, (key, now, "admitted", "-", f"block={block_no}")))
        return entry

    def entry(self, key: TxHash) -> QuarantineEntry:
        if key not in self.active:
            raise EntryNotFound(key.hex0x())
        return self.active[key]

    # -- per-block maintenance: nonces and clocks only, never a simulation --

    def per_block_maintenance(self, chain_state: WorldState, now: int) -> None:
        """Retire dead-nonce entries and time-release overheld ones.

        Called exactly once per appended block. Deposits ignore the time
        criterion: they stay until their nonce-free existence ends the run.
        """
        dead: Set[TxHash] = set()
        changed = changed_since(chain_state, self._state)
        if changed is None:
            senders: Collection[Address] = self._by_sender.keys()
        else:
            senders = self._by_sender.keys() & (changed | self._admitted)
        accounts, active = chain_state.accounts, self.active
        for sender in senders:
            nonce = accounts.get(sender, EMPTY_ACCOUNT).nonce
            for key in self._by_sender[sender]:
                if active[key].tx.nonce < nonce:
                    dead.add(key)
        self._admitted.clear()
        self._state = chain_state
        due: Set[TxHash] = set()
        while self._deadlines and self._deadlines[0][0] <= now:
            deadline, key = heapq.heappop(self._deadlines)
            entry = self.active.get(key)
            if entry is not None and entry.quarantined_at + self.config.time_criterion_period == deadline:
                due.add(key)
        for key in sorted(dead | due, key=self._positions.__getitem__):
            if key in dead:
                self._remove(key)
                self.audit.append(_new(AuditEvent, (key, now, "retired", "-", "criterion=nonce")))
            else:
                self._release(self.active[key], now, "time", "-")

    def stake(self, sender: Address, amount: int, now: int) -> None:
        """`sender` stakes `amount`; then the economic criterion is tried
        once on each of its held entries, in order of first admission."""
        self.ledger.stake(sender, amount)
        for key in sorted(self._by_sender.get(sender, ()), key=self._positions.__getitem__):
            self.try_economic_release(key, now)

    def settle(self, exits: Sequence[PoolExit], now: int, new_tx: Optional[SignedTransaction] = None) -> None:
        """The one place pool exits settle. Each exit's lock is refunded
        first. A held entry replaced by `new_tx` stays held (the new tx is
        detected normally unless `registry` knows it as a released
        duplicate); any other exit (retired, expired or evicted) drops its
        entry as if never admitted. Neither the ledger nor the held entries
        are walked while they hold nothing to settle."""
        if self.ledger.locked:
            for key, _ in exits:
                self.ledger.refund(key)
        if self.active:
            for key, cause in exits:
                if key not in self.active:
                    continue
                if cause == "replaced":
                    self.audit.append(_new(AuditEvent, (key, now, "replaced", "-", f"new={tx_id(new_tx).hex0x()}")))
                else:
                    self._remove(key)
                    self.audit.append(_new(AuditEvent, (key, now, "retired", "-", "criterion=mempool")))

    # -- release triggers (pull-based; never run from maintenance) --

    def request_failure_release(self, key: TxHash, ctx: BlockContext, now: int) -> Union[Released, StillHeld]:
        """Re-simulate at the tip; release iff the tx now fails harmlessly."""
        entry = self._releasable(key)
        try:
            sim = execute_transaction(self.pool.tip, entry.tx, ctx)
            failed = sim.status is TxStatus.REVERT
        except PreconditionFailed as exc:
            failed = exc.reason == PreconditionFailed.INSUFFICIENT_BALANCE
        if not failed:
            self.audit.append(_new(AuditEvent, (key, now, "held", "-", "criterion=failure")))
            return StillHeld()
        self._release(entry, now, "failure", "-")
        return Released("failure")

    def approve_release(self, key: TxHash, approver: Address, now: int) -> Union[Released, PendingApprovals]:
        """One operator approval suffices; victim admins must be unanimous.
        Each victim's admin is read at the tip; a victim without code has
        none, so it is never approved."""
        entry = self._releasable(key)
        if approver in self.config.operators:
            self.audit.append(_new(AuditEvent, (key, now, "approval", approver.hex0x(), "role=operator")))
            self._release(entry, now, "administrative", approver.hex0x())
            return Released("administrative")
        tip = self.pool.tip
        codes = {victim: tip.code_of(victim) for victim in entry.verdict.victims}
        admins = {victim: code.admin for victim, code in codes.items() if code is not None}
        if approver not in admins.values():
            raise NotAuthorized(approver.hex0x())
        entry.approvals |= {approver}
        self.audit.append(_new(AuditEvent, (key, now, "approval", approver.hex0x(), "role=victim_admin")))
        missing = sorted(victim for victim in entry.verdict.victims if admins.get(victim) not in entry.approvals)
        if missing:
            return PendingApprovals(tuple(missing))
        self._release(entry, now, "administrative", approver.hex0x())
        return Released("administrative")

    def try_economic_release(self, key: TxHash, now: int) -> Union[Released, InsufficientCollateral]:
        """Release iff the sender's free stake strictly exceeds the damage bound."""
        entry = self._releasable(key)
        damage = entry.verdict.damage_estimate
        sender = entry.tx.sender
        if self.ledger.available(sender) <= damage:
            self.audit.append(_new(AuditEvent, (key, now, "held", "-", f"criterion=economic threshold={damage}")))
            return InsufficientCollateral(threshold=damage)
        self.ledger.lock(key, sender, damage)
        self._release(entry, now, "economic", sender.hex0x())
        return Released("economic")

    # -- internals --

    def _releasable(self, key: TxHash) -> QuarantineEntry:
        entry = self.entry(key)
        if entry.is_deposit:
            raise DepositPermanence(key.hex0x())
        return entry

    def _remove(self, key: TxHash) -> None:
        entry = self.active.pop(key)
        if not entry.is_deposit:
            keys = self._by_sender[entry.tx.sender]
            keys.remove(key)
            if not keys:
                del self._by_sender[entry.tx.sender]
            self.pool.on_released(key)

    def _release(self, entry: QuarantineEntry, now: int, criterion: str, actor: str) -> None:
        self._remove(entry.key)
        if isinstance(entry.tx, SignedTransaction):
            self.registry.note(entry.tx)
        self.audit.append(_new(AuditEvent, (entry.key, now, "released", actor, f"criterion={criterion}")))
