"""Block production pipeline: candidate selection, detection, quarantine
routing, epoch-anchored deposits, batch posting, and the scenario driver.

Per block: the epoch's accepted deposits go first, regular candidates are
classified and the benign ones included in candidate order, flagged ones
enter quarantine, everything else stays pooled for the next round. Both
classification rounds go through one helper, which counts the round and
admits what it flags. The batcher posts the block's record — with the
deposit acceptance bitmap on epoch heads — through `L1Chain.post_batch`,
which holds the replica's rules on a record's place and returns the
deposits the block mints: they must be the ones detection accepted. The
block is drafted from its record and sealed through the `ChainView` the
replica seals into. Then the pool and the quarantine run their cheap
per-block hygiene, which performs no simulation.

A held transaction's fate belongs to the quarantine store: the sequencer
admits what detection flags, forwards release and stake events, and hands
each pool operation's exits to `QuarantineStore.settle`, once per submit
that removed something and once per block.
"""
from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Optional, Tuple, Union

from .core import (
    Address,
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
)
from .detection import CandidateSet, Counters, DetectionOutcome, InvariantDetector, InvariantSet, hybrid_detect
from .derivation import ChainView
from .l1da import L1Chain, L1Error, L1History, L1Record, encode_bitmap, snapshot_history
from .mempool import Mempool, PoolConfig
from .quarantine import QuarantineConfig, QuarantineEntry, QuarantineError, QuarantineStore
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
        self.detector = InvariantDetector()
        self.invariants = InvariantSet()
        for invariant in scenario.invariants:
            self.invariants.register(invariant, scenario.genesis)
        self.l1 = L1Chain(self.config.blocks_per_epoch, escape_timeout=scenario.escape_timeout)
        self.base_fee = self.config.base_fee
        self.records: List[QuarantineEntry] = []
        self.counters = Counters()

    # ------------------------------------------------------------------
    def _ctx(self) -> BlockContext:
        return BlockContext(base_fee=self.base_fee, fee_recipient=self.config.fee_recipient)

    # ------------------------------------------------------------------
    def build_block(self, now: int) -> Block:
        """Assemble, classify, execute and post one block."""
        number = len(self.chain.blocks)
        epoch, offset = divmod(number, self.config.blocks_per_epoch)
        is_epoch_head = offset == 0

        # Epoch head: vet the deposits L1 holds for the epoch; refused ones
        # are quarantined forever and reported to the batcher bitmap.
        epoch_deposits = self.l1.deposits_for_epoch(epoch) if is_epoch_head else ()
        accepted: Tuple[DepositTransaction, ...] = ()
        deposit_flags: List[bool] = []
        state_after_deposits = self.chain.tip_state
        if epoch_deposits:
            outcome = self._classify(epoch_deposits, state_after_deposits, None, now)
            if outcome.deferred:
                raise RuntimeError("deposits can never be deferred")
            accepted, state_after_deposits = tuple(outcome.benign), outcome.final_state
            kept = set(accepted)
            deposit_flags = [dep in kept for dep in epoch_deposits]

        # Regular candidates: pending, affordable, not currently held; txs
        # duplicating an already-released one skip detection entirely (none
        # can while nothing was ever released).
        candidates = self.mempool.pending_candidates(self.base_fee)
        registry = self.store.registry
        preapproved = frozenset(
            tx_hash(tx) for tx in candidates if registry.is_released_duplicate(tx)
        ) if registry.senders else frozenset()
        budget = self.config.detection_budget
        outcome = self._classify(tuple(candidates), state_after_deposits, budget, now, preapproved)

        # The classifier's fold already applied the block: deposits, then the
        # benign candidates in order.
        final_state = outcome.final_state
        transactions = tuple(outcome.benign)

        # Batcher: one record per block; the epoch head carries the bitmap,
        # which settles the epoch's escrow. The block mints what L1 returns,
        # the same rule the replica follows, and the state holds what
        # detection accepted: the two must agree.
        record = L1Record(
            epoch=epoch,
            l2_number=number,
            l2_timestamp=now,
            l2_base_fee=self.base_fee,
            batch=tuple(canonical_encode(tx) for tx in transactions),
            deposit_count=len(deposit_flags) if is_epoch_head else None,
            bitmap=tuple(encode_bitmap(deposit_flags)) if is_epoch_head else (),
        )
        minted = self.l1.post_batch(record)
        if minted != accepted:
            unminted = [dep for dep in minted if dep not in accepted]
            if unminted:
                raise RuntimeError(f"accepted deposit {deposit_id(unminted[0]).hex0x()} never minted")
            stray = next(dep for dep in accepted if dep not in minted)
            raise RuntimeError(f"unaccepted deposit {deposit_id(stray).hex0x()} appears on L2")
        block = self.chain.seal(self.chain.draft(record, minted, transactions), final_state)

        # Pool hygiene, then quarantine maintenance, exactly once per block;
        # maintenance never simulates. An included transaction's nonce is
        # spent, so this block retires it from the pool.
        self.store.settle(self.mempool.retire(now, final_state), now)
        self.store.per_block_maintenance(final_state, now)
        return block

    def _classify(
        self, txs: tuple, state: WorldState, budget: Optional[int], now: int,
        preapproved: FrozenSet[TxHash] = frozenset(),
    ) -> DetectionOutcome:
        """One classification round of the next block, at `state`: count it, and admit what it flags."""
        outcome = hybrid_detect(
            CandidateSet(txs, state, budget=budget), self.invariants, self.detector, self._ctx(),
            workers=self.config.workers, preapproved=preapproved,
        )
        self.counters.add(outcome.stats)
        number = len(self.chain.blocks)
        for tx, verdict, _sim in outcome.malicious:
            self.records.append(self.store.admit(tx, verdict, now, number))
        return outcome

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
                except L1Error as exc:  # an L1 block that arrives after its epoch head was built
                    raise ScenarioError(str(exc), at=event.at) from None
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
        history = snapshot_history(self.l1, self.config.fee_recipient, scenario.genesis)
        return RunOutcome(report=report, history=history, sequencer=self)

    def _apply_event(self, event: Event) -> None:
        if isinstance(event, SubmitEvent):
            exits = self.mempool.submit(event.tx, event.at).exits
            if exits:
                self.store.settle(exits, event.at, event.tx)
        elif isinstance(event, L1BlockEvent):
            self.l1.add_block(event.number, event.at, event.deposits)
        elif isinstance(event, ApproveReleaseEvent):
            self.store.approve_release(event.key, event.approver, event.at)
        elif isinstance(event, StakeEvent):
            self.store.stake(event.account, event.amount, event.at)
        elif isinstance(event, FailureReleaseEvent):
            self.store.request_failure_release(event.key, self._ctx(), event.at)
            self.counters.release_sims += 1
        elif isinstance(event, SetBaseFeeEvent):
            self.base_fee = event.fee
        else:
            raise ScenarioError(f"unknown event {event!r}", at=getattr(event, "at", None))


def run(scenario: Scenario) -> RunOutcome:
    """Execute a scenario from genesis and return report, history, sequencer."""
    return Sequencer(scenario).run()
