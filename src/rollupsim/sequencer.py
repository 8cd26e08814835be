"""Block production pipeline: candidate selection, detection, quarantine
routing, epoch-anchored deposits, batch posting, and the scenario driver.

Per block: the epoch's accepted deposits go first, regular candidates are
classified and the benign ones included in candidate order, flagged ones
enter quarantine, everything else stays pooled for the next round. After the
block is applied, the pool and the quarantine run their cheap per-block
hygiene (which provably performs zero simulations), and the batcher posts
the block's record — with the deposit acceptance bitmap on epoch heads — to
the L1 inbox.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .core import (
    Address,
    AnyTransaction,
    Block,
    DepositTransaction,
    SignedTransaction,
    StateRoot,
    TxHash,
    U64_MAX,
    ZERO_ADDRESS,
    block_hash,
    canonical_encode,
    deposit_id,
    tx_hash,
    tx_id,
)
from .detection import CandidateSet, Counters, InvariantDetector, InvariantSet, Verdict, hybrid_detect
from .l1da import EscrowStatus, L1Chain, L1History, L1Record, encode_bitmap, snapshot_history
from .mempool import Mempool, PoolConfig
from .quarantine import CollateralLedger, QuarantineConfig, QuarantineEntry, QuarantineError, QuarantineStore
from .vm import BlockContext, WorldState, state_root


class ScenarioError(Exception):
    def __init__(self, reason: str, line: Optional[int] = None, at: Optional[int] = None):
        where = f"line {line}: " if line is not None else (f"t={at}: " if at is not None else "")
        super().__init__(f"{where}{reason}")
        self.line = line
        self.at = at
        self.reason = reason


@dataclass(frozen=True)
class SequencerConfig:
    block_time: int = 2
    blocks_per_epoch: int = 4
    base_fee: int = 1
    detection_budget: Optional[int] = 16
    fee_recipient: Address = ZERO_ADDRESS
    workers: int = 1
    genesis_timestamp: int = 0

    def __post_init__(self) -> None:
        if self.block_time <= 0 or self.blocks_per_epoch < 1:
            raise ValueError("block_time must be positive and blocks_per_epoch >= 1")


@dataclass
class ChainView:
    blocks: List[Block] = field(default_factory=list)
    tip_state: WorldState = field(default_factory=WorldState)

    @property
    def tip_hash(self) -> bytes:
        return block_hash(self.blocks[-1]) if self.blocks else bytes(32)


# -- scenario events (parsed form; tx references already resolved to hashes) --

@dataclass(frozen=True)
class SubmitEvent:
    at: int
    tx: SignedTransaction


@dataclass(frozen=True)
class L1BlockEvent:
    at: int
    number: int
    deposits: Tuple[DepositTransaction, ...]


@dataclass(frozen=True)
class ApproveReleaseEvent:
    at: int
    key: TxHash
    approver: Address


@dataclass(frozen=True)
class StakeEvent:
    at: int
    account: Address
    amount: int


@dataclass(frozen=True)
class FailureReleaseEvent:
    at: int
    key: TxHash


@dataclass(frozen=True)
class SetBaseFeeEvent:
    at: int
    fee: int


@dataclass(frozen=True)
class AdvanceEvent:
    at: int
    seconds: int


Event = Union[
    SubmitEvent, L1BlockEvent, ApproveReleaseEvent, StakeEvent, FailureReleaseEvent, SetBaseFeeEvent, AdvanceEvent
]


@dataclass
class Scenario:
    name: str
    seq_config: SequencerConfig = field(default_factory=SequencerConfig)
    pool_config: PoolConfig = field(default_factory=PoolConfig)
    quarantine_config: QuarantineConfig = field(default_factory=QuarantineConfig)
    escape_timeout: int = 7 * 86400
    genesis: WorldState = field(default_factory=WorldState)
    invariants: List = field(default_factory=list)
    run_blocks: int = 1
    events: List[Event] = field(default_factory=list)


# -- run report --

@dataclass(frozen=True)
class BlockSummary:
    number: int
    timestamp: int
    base_fee: int
    epoch: int
    parent_hash: bytes
    deposit_ids: Tuple[TxHash, ...]
    tx_hashes: Tuple[TxHash, ...]
    state_root: StateRoot


@dataclass(frozen=True)
class EntrySummary:
    key: TxHash
    kind: str  # "tx" | "deposit"
    sender: Address
    sequence: int  # nonce for txs, l1_index for deposits
    admitted_at: int
    admitted_block: int
    violated: Tuple[str, ...]
    victims: Tuple[Address, ...]
    damage: int


@dataclass(frozen=True)
class PoolSummary:
    key: TxHash
    sender: Address
    nonce: int
    status: str
    received_at: int


@dataclass
class RunReport:
    scenario: str
    blocks: List[BlockSummary] = field(default_factory=list)
    entries: List[EntrySummary] = field(default_factory=list)
    audit: List = field(default_factory=list)
    pool: List[PoolSummary] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    final_root: StateRoot = StateRoot(bytes(32))
    l1_export: str = "-"


@dataclass
class RunOutcome:
    report: RunReport
    history: L1History
    sequencer: "Sequencer"


def summarize_block(block: Block) -> BlockSummary:
    return BlockSummary(
        number=block.number,
        timestamp=block.timestamp,
        base_fee=block.base_fee,
        epoch=block.epoch,
        parent_hash=block.parent_hash,
        deposit_ids=tuple(deposit_id(d) for d in block.deposits),
        tx_hashes=tuple(tx_hash(t) for t in block.transactions),
        state_root=block.state_root,
    )


def summarize_entry(entry: QuarantineEntry) -> EntrySummary:
    dep = isinstance(entry.tx, DepositTransaction)
    return EntrySummary(
        key=entry.key,
        kind="deposit" if dep else "tx",
        sender=entry.tx.sender,
        sequence=entry.tx.l1_index if dep else entry.tx.nonce,
        admitted_at=entry.quarantined_at,
        admitted_block=entry.quarantined_block,
        violated=entry.verdict.violated,
        victims=entry.verdict.victims,
        damage=entry.verdict.damage_estimate,
    )


class Sequencer:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.config = scenario.seq_config
        self.chain = ChainView(tip_state=scenario.genesis)
        self.mempool = Mempool(scenario.pool_config)
        self.store = QuarantineStore(scenario.quarantine_config, pool=self.mempool)
        self.ledger = CollateralLedger()
        self.detector = InvariantDetector()
        self.invariants = InvariantSet()
        for invariant in scenario.invariants:
            self.invariants.register(invariant, scenario.genesis)
        self.l1 = L1Chain(escape_timeout=scenario.escape_timeout)
        self.base_fee = self.config.base_fee
        self.records: List[QuarantineEntry] = []
        self.counters = Counters()
        self.minted: Set[TxHash] = set()  # ids of deposits included in any block

    # ------------------------------------------------------------------
    def _ctx(self, now: int) -> BlockContext:
        return BlockContext(base_fee=self.base_fee, timestamp=now, fee_recipient=self.config.fee_recipient)

    def _admins_of(self, verdict: Verdict, state: WorldState) -> Dict[Address, Address]:
        admins: Dict[Address, Address] = {}
        for victim in verdict.victims:
            code = state.account(victim).code
            if code is not None:
                admins[victim] = code.admin
        return admins

    def _admit(self, tx: AnyTransaction, verdict: Verdict, state: WorldState, now: int, block_no: int) -> None:
        entry = self.store.admit(tx, verdict, now, block_no, victim_admins=self._admins_of(verdict, state))
        self.records.append(entry)

    # ------------------------------------------------------------------
    def build_block(self, now: int, epoch_deposits: Optional[Sequence[DepositTransaction]]) -> Block:
        """Assemble, classify, execute and post one block."""
        number = len(self.chain.blocks)
        epoch = number // self.config.blocks_per_epoch
        ctx = self._ctx(now)
        tip = self.chain.tip_state

        # Epoch head: vet the deposits; refused ones are quarantined forever
        # and reported to the batcher bitmap.
        accepted_deposits: Tuple[DepositTransaction, ...] = ()
        deposit_flags: List[bool] = []
        state_after_deposits = tip
        if epoch_deposits:
            outcome = hybrid_detect(
                CandidateSet(tuple(epoch_deposits), tip, budget=None),
                self.invariants,
                self.detector,
                ctx,
                workers=self.config.workers,
            )
            if outcome.deferred:
                raise RuntimeError("deposits can never be deferred")
            self.counters.add(outcome.stats)
            accepted = {tx_id(d) for d in outcome.benign}
            for dep, verdict, _sim in outcome.malicious:
                self._admit(dep, verdict, tip, now, number)
            accepted_deposits = tuple(d for d in epoch_deposits if deposit_id(d) in accepted)
            deposit_flags = [deposit_id(d) in accepted for d in epoch_deposits]
            state_after_deposits = outcome.final_state

        # Regular candidates: pending, affordable, not currently held; txs
        # duplicating an already-released one skip detection entirely.
        candidates = self.mempool.pending_candidates(self.base_fee)
        preapproved = frozenset(
            tx_hash(tx) for tx in candidates if self.store.registry.is_released_duplicate(tx)
        )
        outcome = hybrid_detect(
            CandidateSet(tuple(candidates), state_after_deposits, budget=self.config.detection_budget),
            self.invariants,
            self.detector,
            ctx,
            workers=self.config.workers,
            preapproved=preapproved,
        )
        for tx, verdict, _sim in outcome.malicious:
            self._admit(tx, verdict, state_after_deposits, now, number)
        self.counters.add(outcome.stats)

        # The classifier's fold already applied the block: deposits, then the
        # benign candidates in order.
        final_state = outcome.final_state
        block = Block(
            number=number,
            parent_hash=self.chain.tip_hash,
            timestamp=now,
            base_fee=self.base_fee,
            epoch=epoch,
            deposits=accepted_deposits,
            transactions=tuple(outcome.benign),
            state_root=state_root(final_state),
        )

        # Batcher: one record per block; the epoch head carries the bitmap.
        is_epoch_head = number % self.config.blocks_per_epoch == 0
        record = L1Record(
            epoch=epoch,
            l2_number=number,
            l2_timestamp=now,
            l2_base_fee=self.base_fee,
            batch=tuple(canonical_encode(tx) for tx in block.transactions),
            deposit_count=len(deposit_flags) if is_epoch_head else None,
            bitmap=tuple(encode_bitmap(deposit_flags)) if is_epoch_head else (),
        )
        self.l1.post_batch(record)

        self.chain.blocks.append(block)
        self.chain.tip_state = final_state

        # Settled collateral locks: included transactions are final here.
        for tx in block.transactions:
            self.ledger.refund(tx_hash(tx))

        # Pool hygiene, then quarantine maintenance — exactly once per block,
        # with a measured guarantee that it performed zero simulations.
        removed = self.mempool.retire(now, final_state)
        self.store.on_mempool_retired(removed, now)
        for key in removed:
            self.ledger.refund(key)
        before = self.counters.simulations()
        self.store.per_block_maintenance(final_state, now)
        self.counters.maintenance_sims += self.counters.simulations() - before

        minted_now = [deposit_id(d) for d in block.deposits]
        self.minted.update(minted_now)
        self._check_deposit_conservation(minted_now + [deposit_id(d) for d in epoch_deposits or ()])
        return block

    def _check_deposit_conservation(self, keys: Sequence[TxHash]) -> None:
        """Each deposit is exactly one of: minted on L2, refunded on L1, escrowed.

        Escrow status moves only when an epoch head's bitmap settles its
        deposits (the sequencer never refunds), so only the deposits settled
        or minted in this block are checked."""
        for dep_key in keys:
            escrow = self.l1.escrow[dep_key]
            minted = dep_key in self.minted
            if escrow.status is EscrowStatus.ACCEPTED and not minted:
                raise RuntimeError(f"accepted deposit {dep_key.hex0x()} never minted")
            if escrow.status is not EscrowStatus.ACCEPTED and minted:
                raise RuntimeError(f"unaccepted deposit {dep_key.hex0x()} appears on L2")

    # ------------------------------------------------------------------
    def run(self) -> RunOutcome:
        """Drive the scenario: ingest events between blocks, build every block,
        and assemble the report plus the exportable L1 history."""
        scenario = self.scenario
        events = list(scenario.events)
        cursor = 0
        now = self.config.genesis_timestamp

        for _ in range(scenario.run_blocks):
            build_at = now + self.config.block_time
            while cursor < len(events) and events[cursor].at <= build_at:
                event = events[cursor]
                cursor += 1
                if isinstance(event, AdvanceEvent):
                    build_at += event.seconds
                    continue
                try:
                    self._apply_event(event)
                except QuarantineError as exc:
                    # A release asked of an entry that is not held, by someone
                    # not entitled to it, or of a deposit entry.
                    raise ScenarioError(f"{type(exc).__name__}: {exc}", at=event.at) from None
            epoch_deposits = None
            number = len(self.chain.blocks)
            # Once no event is left, later blocks are `block_time` apart, so
            # the first one past 2^64-1 is known now; do not build up to it.
            last = number if cursor < len(events) else scenario.run_blocks - 1
            step = self.config.block_time
            if build_at + (last - number) * step > U64_MAX:
                skip = max(0, (U64_MAX - build_at) // step + 1)
                raise ScenarioError(f"block {number + skip} time {build_at + skip * step} is past 2^64-1")
            if number % self.config.blocks_per_epoch == 0:
                epoch_deposits = self.l1.deposits_for_epoch(number // self.config.blocks_per_epoch)
            self.build_block(build_at, epoch_deposits)
            now = build_at

        if cursor < len(events):
            raise ScenarioError("event after the final block", at=events[cursor].at)
        if self.counters.maintenance_sims != 0:
            raise RuntimeError("quarantine maintenance performed simulations")

        pool_dump = [
            PoolSummary(
                key=h,
                sender=entry.tx.sender,
                nonce=entry.tx.nonce,
                status=entry.status.value,
                received_at=entry.received_at,
            )
            for h, entry in sorted(self.mempool.entries.items())
        ]
        report = RunReport(
            scenario=scenario.name,
            blocks=[summarize_block(b) for b in self.chain.blocks],
            entries=[summarize_entry(e) for e in self.records],
            audit=list(self.store.audit),
            pool=pool_dump,
            counters=self.counters,
            final_root=state_root(self.chain.tip_state),
        )
        history = snapshot_history(
            self.l1, self.config.fee_recipient, self.config.blocks_per_epoch, scenario.genesis
        )
        return RunOutcome(report=report, history=history, sequencer=self)

    def _apply_event(self, event: Event) -> None:
        if isinstance(event, SubmitEvent):
            result = self.mempool.submit(event.tx, event.at, self.chain.tip_state)
            if result.outcome == "replaced" and self.store.is_active(result.replaced):
                self.store.on_replacement(result.replaced, event.tx, event.at)
        elif isinstance(event, L1BlockEvent):
            head_block = event.number * self.config.blocks_per_epoch
            if len(self.chain.blocks) > head_block:
                raise ScenarioError(
                    f"L1 block {event.number} arrives after its epoch head was built", at=event.at
                )
            self.l1.add_block(event.at, event.deposits)
        elif isinstance(event, ApproveReleaseEvent):
            self.store.approve_release(event.key, event.approver, event.at)
        elif isinstance(event, StakeEvent):
            self.ledger.stake(event.account, event.amount)
            self.store.on_stake(self.ledger, event.account, event.at)
        elif isinstance(event, FailureReleaseEvent):
            self.store.request_failure_release(event.key, self.chain.tip_state, self._ctx(event.at), event.at)
            self.counters.release_sims += 1
        elif isinstance(event, SetBaseFeeEvent):
            self.base_fee = event.fee
        else:
            raise ScenarioError(f"unknown event {event!r}", at=getattr(event, "at", None))


def run(scenario: Scenario) -> RunOutcome:
    """Execute a scenario from genesis and return report, history, sequencer."""
    return Sequencer(scenario).run()
