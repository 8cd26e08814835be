"""Block production pipeline: candidate selection, detection, quarantine
routing, epoch-anchored deposits, batch posting, and the scenario driver.

Per block: the epoch's accepted deposits go first, regular candidates are
classified and the benign ones included in candidate order, flagged ones
enter quarantine, everything else stays pooled for the next round. The
batcher posts the block's record — with the deposit acceptance bitmap on
epoch heads — to the L1 inbox, and the block is sealed through the
`ChainView` the replica seals into. Then the pool and the quarantine run
their cheap per-block hygiene, which performs no simulation.
"""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

from .core import (
    Address,
    AnyTransaction,
    Block,
    DepositTransaction,
    Record,
    ScenarioError,
    SignedTransaction,
    StateRoot,
    TxHash,
    U64_MAX,
    ZERO_ADDRESS,
    canonical_encode,
    deposit_id,
    tx_hash,
    tx_id,
)
from .detection import CandidateSet, Counters, InvariantDetector, InvariantSet, Verdict, hybrid_detect
from .derivation import ChainView
from .l1da import EscrowStatus, L1Chain, L1History, L1Record, encode_bitmap, snapshot_history
from .mempool import Mempool, PoolConfig
from .quarantine import CollateralLedger, QuarantineConfig, QuarantineEntry, QuarantineError, QuarantineStore
from .vm import BlockContext, WorldState, state_root


class SequencerConfig(Record):
    __slots__ = _fields = (
        "block_time", "blocks_per_epoch", "base_fee", "detection_budget", "fee_recipient", "workers",
        "genesis_timestamp",
    )

    def __init__(
        self, block_time: int = 2, blocks_per_epoch: int = 4, base_fee: int = 1, detection_budget: Optional[int] = 16,
        fee_recipient: Address = ZERO_ADDRESS, workers: int = 1, genesis_timestamp: int = 0,
    ) -> None:
        if block_time <= 0 or blocks_per_epoch < 1:
            raise ValueError("block_time must be positive and blocks_per_epoch >= 1")
        self.block_time = block_time
        self.blocks_per_epoch = blocks_per_epoch
        self.base_fee = base_fee
        self.detection_budget = detection_budget
        self.fee_recipient = fee_recipient
        self.workers = workers
        self.genesis_timestamp = genesis_timestamp


# -- scenario events (parsed form; tx references already resolved to hashes) --

class SubmitEvent(NamedTuple):
    at: int
    tx: SignedTransaction


class L1BlockEvent(NamedTuple):
    at: int
    number: int
    deposits: Tuple[DepositTransaction, ...]


class ApproveReleaseEvent(NamedTuple):
    at: int
    key: TxHash
    approver: Address


class StakeEvent(NamedTuple):
    at: int
    account: Address
    amount: int


class FailureReleaseEvent(NamedTuple):
    at: int
    key: TxHash


class SetBaseFeeEvent(NamedTuple):
    at: int
    fee: int


class AdvanceEvent(NamedTuple):
    at: int
    seconds: int


Event = Union[
    SubmitEvent, L1BlockEvent, ApproveReleaseEvent, StakeEvent, FailureReleaseEvent, SetBaseFeeEvent, AdvanceEvent
]


class Scenario:
    __slots__ = (
        "name", "seq_config", "pool_config", "quarantine_config", "escape_timeout", "genesis", "invariants",
        "run_blocks", "events",
    )

    def __init__(
        self, name: str, seq_config: SequencerConfig = SequencerConfig(), pool_config: PoolConfig = PoolConfig(),
        quarantine_config: QuarantineConfig = QuarantineConfig(), escape_timeout: int = 7 * 86400,
        genesis: Optional[WorldState] = None, invariants: Optional[List] = None, run_blocks: int = 1,
        events: Optional[List[Event]] = None,
    ) -> None:
        self.name = name
        self.seq_config = seq_config
        self.pool_config = pool_config
        self.quarantine_config = quarantine_config
        self.escape_timeout = escape_timeout
        self.genesis = WorldState() if genesis is None else genesis
        self.invariants = [] if invariants is None else invariants
        self.run_blocks = run_blocks
        self.events = [] if events is None else events


# -- run report --

class BlockSummary(NamedTuple):
    number: int
    timestamp: int
    base_fee: int
    epoch: int
    parent_hash: bytes
    deposit_ids: Tuple[TxHash, ...]
    tx_hashes: Tuple[TxHash, ...]
    state_root: StateRoot


class EntrySummary(NamedTuple):
    key: TxHash
    kind: str  # "tx" | "deposit"
    sender: Address
    sequence: int  # nonce for txs, l1_index for deposits
    admitted_at: int
    admitted_block: int
    violated: Tuple[str, ...]
    victims: Tuple[Address, ...]
    damage: int


class PoolSummary(NamedTuple):
    key: TxHash
    sender: Address
    nonce: int
    status: str
    received_at: int


class RunReport:
    __slots__ = ("scenario", "blocks", "entries", "audit", "pool", "counters", "final_root", "l1_export")

    def __init__(
        self, scenario: str, blocks: Optional[List[BlockSummary]] = None, entries: Optional[List[EntrySummary]] = None,
        audit: Optional[List] = None, pool: Optional[List[PoolSummary]] = None, counters: Optional[Counters] = None,
        final_root: StateRoot = StateRoot(bytes(32)), l1_export: str = "-",
    ) -> None:
        self.scenario = scenario
        self.blocks = [] if blocks is None else blocks
        self.entries = [] if entries is None else entries
        self.audit = [] if audit is None else audit
        self.pool = [] if pool is None else pool
        self.counters = Counters() if counters is None else counters
        self.final_root = final_root
        self.l1_export = l1_export


class RunOutcome(NamedTuple):
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
        self.mempool = Mempool(scenario.pool_config, scenario.genesis)
        self.store = QuarantineStore(scenario.quarantine_config, self.mempool)
        self.ledger = CollateralLedger()
        self.detector = InvariantDetector()
        self.invariants = InvariantSet()
        for invariant in scenario.invariants:
            self.invariants.register(invariant, scenario.genesis)
        self.l1 = L1Chain(escape_timeout=scenario.escape_timeout)
        self.base_fee = self.config.base_fee
        self.records: List[QuarantineEntry] = []
        self.counters = Counters()

    # ------------------------------------------------------------------
    def _ctx(self) -> BlockContext:
        return BlockContext(base_fee=self.base_fee, fee_recipient=self.config.fee_recipient)

    def _admins_of(self, verdict: Verdict, state: WorldState) -> Dict[Address, Address]:
        admins: Dict[Address, Address] = {}
        for victim in verdict.victims:
            code = state.code_of(victim)
            if code is not None:
                admins[victim] = code.admin
        return admins

    def _admit(self, tx: AnyTransaction, verdict: Verdict, state: WorldState, now: int, block_no: int) -> None:
        entry = self.store.admit(tx, verdict, now, block_no, victim_admins=self._admins_of(verdict, state))
        self.records.append(entry)

    # ------------------------------------------------------------------
    def build_block(self, now: int) -> Block:
        """Assemble, classify, execute and post one block."""
        number = len(self.chain.blocks)
        epoch, offset = divmod(number, self.config.blocks_per_epoch)
        is_epoch_head = offset == 0
        ctx = self._ctx()
        tip = self.chain.tip_state

        # Epoch head: vet the deposits L1 holds for the epoch; refused ones
        # are quarantined forever and reported to the batcher bitmap.
        epoch_deposits = self.l1.deposits_for_epoch(epoch) if is_epoch_head else ()
        accepted: Set[TxHash] = set()
        deposit_flags: List[bool] = []
        state_after_deposits = tip
        if epoch_deposits:
            outcome = hybrid_detect(
                CandidateSet(epoch_deposits, tip, budget=None),
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
            deposit_flags = [deposit_id(d) in accepted for d in epoch_deposits]
            state_after_deposits = outcome.final_state

        # Regular candidates: pending, affordable, not currently held; txs
        # duplicating an already-released one skip detection entirely (none
        # can while nothing was ever released).
        candidates = self.mempool.pending_candidates(self.base_fee)
        registry = self.store.registry
        preapproved = frozenset(
            tx_hash(tx) for tx in candidates if registry.is_released_duplicate(tx)
        ) if registry.senders else frozenset()
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
        transactions = tuple(outcome.benign)

        # Batcher: one record per block; the epoch head carries the bitmap,
        # which settles the epoch's escrow. The head mints what L1 accepted,
        # the same rule the replica follows.
        record = L1Record(
            epoch=epoch,
            l2_number=number,
            l2_timestamp=now,
            l2_base_fee=self.base_fee,
            batch=tuple(canonical_encode(tx) for tx in transactions),
            deposit_count=len(deposit_flags) if is_epoch_head else None,
            bitmap=tuple(encode_bitmap(deposit_flags)) if is_epoch_head else (),
        )
        self.l1.post_batch(record)
        deposits = self.l1.accepted_deposits(epoch) if is_epoch_head else ()
        block = self.chain.seal(self.chain.draft(now, self.base_fee, epoch, deposits, transactions), final_state)

        # Pool hygiene, then quarantine maintenance, exactly once per block;
        # maintenance never simulates. A collateral lock settles when its
        # transaction leaves the pool: here, once included or otherwise
        # dead (an included transaction's nonce is spent, so this block
        # retires it), or on replacement or eviction, in `_apply_event`.
        removed = self.mempool.retire(now, final_state)
        self.store.on_mempool_retired(removed, now)
        if self.ledger.locked:
            for key in removed:
                self.ledger.refund(key)
        self.store.per_block_maintenance(final_state, now)

        # The state holds the deposits detection accepted; escrow must agree.
        self._check_deposit_conservation([deposit_id(d) for d in epoch_deposits], accepted)
        return block

    def _check_deposit_conservation(self, keys: Sequence[TxHash], accepted: Set[TxHash]) -> None:
        """Each deposit is exactly one of: minted on L2, refunded on L1, escrowed.

        Escrow status moves only when an epoch head's bitmap settles its
        deposits (the sequencer never refunds), so only the deposits settled
        in this block, `keys`, are checked. Of those, the ones minted are
        the ones detection accepted in this block, `accepted`."""
        for dep_key in keys:
            escrow = self.l1.escrow[dep_key]
            minted = dep_key in accepted
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
            number = len(self.chain.blocks)
            # Later blocks are at least `block_time` apart (an `advance` only
            # adds time), so a last block past 2^64-1 is known now, however
            # many events remain: do not build up to it. Without further
            # advances, the first block past it would be this one.
            step = self.config.block_time
            if build_at + (scenario.run_blocks - 1 - number) * step > U64_MAX:
                skip = max(0, (U64_MAX - build_at) // step + 1)
                raise ScenarioError(f"block {number + skip} time {build_at + skip * step} is past 2^64-1")
            self.build_block(build_at)
            now = build_at

        if cursor < len(events):
            raise ScenarioError("event after the final block", at=events[cursor].at)

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
            result = self.mempool.submit(event.tx, event.at)
            if result.outcome == "replaced":
                self.store.on_replacement(result.replaced, event.tx, event.at)
                self.ledger.refund(result.replaced)
            if result.evicted is not None:  # settled as a retirement
                self.ledger.refund(result.evicted)
                self.store.on_mempool_retired([result.evicted], event.at)
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
            self.store.request_failure_release(event.key, self.chain.tip_state, self._ctx(), event.at)
            self.counters.release_sims += 1
        elif isinstance(event, SetBaseFeeEvent):
            self.base_fee = event.fee
        else:
            raise ScenarioError(f"unknown event {event!r}", at=getattr(event, "at", None))


def run(scenario: Scenario) -> RunOutcome:
    """Execute a scenario from genesis and return report, history, sequencer."""
    return Sequencer(scenario).run()
