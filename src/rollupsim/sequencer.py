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

from collections import namedtuple
from typing import FrozenSet, List, Optional, Tuple, Union

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

SubmitEvent = namedtuple("SubmitEvent", (
    "at",  # int
    "tx",  # SignedTransaction
))

L1BlockEvent = namedtuple("L1BlockEvent", (
    "at",  # int
    "number",  # int
    "deposits",  # Tuple[DepositTransaction, ...]
))

ApproveReleaseEvent = namedtuple("ApproveReleaseEvent", (
    "at",  # int
    "key",  # TxHash
    "approver",  # Address
))

StakeEvent = namedtuple("StakeEvent", (
    "at",  # int
    "account",  # Address
    "amount",  # int
))

FailureReleaseEvent = namedtuple("FailureReleaseEvent", (
    "at",  # int
    "key",  # TxHash
))

SetBaseFeeEvent = namedtuple("SetBaseFeeEvent", (
    "at",  # int
    "fee",  # int
))

AdvanceEvent = namedtuple("AdvanceEvent", (
    "at",  # int
    "seconds",  # int
))


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

BlockSummary = namedtuple("BlockSummary", (
    "number",  # int
    "timestamp",  # int
    "base_fee",  # int
    "epoch",  # int
    "parent_hash",  # bytes
    "deposit_ids",  # Tuple[TxHash, ...]
    "tx_hashes",  # Tuple[TxHash, ...]
    "state_root",  # StateRoot
))

EntrySummary = namedtuple("EntrySummary", (
    "key",  # TxHash
    "kind",  # str: "tx" | "deposit"
    "sender",  # Address
    "sequence",  # int: nonce for txs, l1_index for deposits
    "admitted_at",  # int
    "admitted_block",  # int
    "violated",  # Tuple[str, ...]
    "victims",  # Tuple[Address, ...]
    "damage",  # int
))

PoolSummary = namedtuple("PoolSummary", (
    "key",  # TxHash
    "sender",  # Address
    "nonce",  # int
    "status",  # str: a `PoolStatus`
    "received_at",  # int
))


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


RunOutcome = namedtuple("RunOutcome", (
    "report",  # RunReport
    "history",  # L1History
    "sequencer",  # Sequencer
))


# Records whose fields are in hand and already checked are built in C,
# positionally, as the replica builds its values.
_new = tuple.__new__


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
    def build_block(self, now: int) -> Block:
        """Assemble, classify, execute and post one block."""
        number = len(self.chain.blocks)
        epoch, offset = divmod(number, self.config.blocks_per_epoch)
        is_epoch_head = offset == 0
        ctx = _new(BlockContext, (self.base_fee, self.config.fee_recipient))  # both rounds run in this block

        # Epoch head: vet the deposits L1 holds for the epoch; refused ones
        # are quarantined forever and reported to the batcher bitmap.
        epoch_deposits = self.l1.deposits_for_epoch(epoch) if is_epoch_head else ()
        accepted: Tuple[DepositTransaction, ...] = ()
        deposit_flags: List[bool] = []
        state_after_deposits = self.chain.tip_state
        if epoch_deposits:
            outcome = self._classify(epoch_deposits, state_after_deposits, None, ctx, now)
            if outcome.deferred:
                raise RuntimeError("deposits can never be deferred")
            accepted, state_after_deposits = tuple(outcome.benign), outcome.final_state
            # `benign` keeps candidate order, so one walk flags the epoch's
            # deposits without hashing one; `post_batch`'s mints are checked
            # against `accepted` below.
            left = iter(accepted)
            next_accepted = next(left, None)
            for dep in epoch_deposits:
                flag = dep is next_accepted
                deposit_flags.append(flag)
                if flag:
                    next_accepted = next(left, None)

        # Regular candidates: pending, affordable, not currently held; txs
        # duplicating an already-released one skip detection entirely (none
        # can while nothing was ever released).
        candidates = self.mempool.pending_candidates(self.base_fee)
        registry = self.store.registry
        preapproved = frozenset(
            tx_hash(tx) for tx in candidates if registry.is_released_duplicate(tx)
        ) if registry.senders else frozenset()
        budget = self.config.detection_budget
        outcome = self._classify(tuple(candidates), state_after_deposits, budget, ctx, now, preapproved)

        # The classifier's fold already applied the block: deposits, then the
        # benign candidates in order.
        final_state = outcome.final_state
        transactions = tuple(outcome.benign)

        # Batcher: one record per block; the epoch head carries the bitmap,
        # which settles the epoch's escrow. The block mints what L1 returns,
        # the same rule the replica follows, and the state holds what
        # detection accepted: the two must agree.
        record = _new(L1Record, (
            epoch, number, now, self.base_fee, tuple(map(canonical_encode, transactions)),
            len(deposit_flags) if is_epoch_head else None, tuple(encode_bitmap(deposit_flags)) if is_epoch_head else (),
        ))  # `post_batch` holds the rules on a record
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
        self, txs: tuple, state: WorldState, budget: Optional[int], ctx: BlockContext, now: int,
        preapproved: FrozenSet[TxHash] = frozenset(),
    ) -> DetectionOutcome:
        """One classification round of the next block, at `state`: count it, and admit what it flags."""
        outcome = hybrid_detect(
            _new(CandidateSet, (txs, state, budget)), self.invariants, self.detector, ctx, self.config.workers,
            preapproved,
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
                try:
                    if type(event) is SubmitEvent:  # the event a run holds most of
                        exits = self.mempool.submit(event.tx, event.at).exits
                        if exits:
                            self.store.settle(exits, event.at, event.tx)
                    elif type(event) is AdvanceEvent:
                        build_at += event.seconds
                    else:
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

        blocks = [
            _new(BlockSummary, (
                b.number, b.timestamp, b.base_fee, b.epoch, b.parent_hash, tuple(map(deposit_id, b.deposits)),
                tuple(map(tx_hash, b.transactions)), b.state_root,
            ))
            for b in self.chain.blocks
        ]
        entries = [  # a deposit's sequence is its place in its L1 block, a transaction's its nonce
            _new(EntrySummary, (
                e.key, "deposit" if e.is_deposit else "tx", e.tx.sender, e.tx.l1_index if e.is_deposit else e.tx.nonce,
                e.quarantined_at, e.quarantined_block, e.verdict.violated, e.verdict.victims, e.verdict.damage_estimate,
            ))
            for e in self.records
        ]
        pool = [
            _new(PoolSummary, (h, entry.tx.sender, entry.tx.nonce, entry.status, entry.received_at))
            for h, entry in sorted(self.mempool.entries.items())
        ]
        report = RunReport(
            scenario.name, blocks, entries, list(self.store.audit), pool, self.counters,
            state_root(self.chain.tip_state),
        )
        history = snapshot_history(self.l1, self.config.fee_recipient, scenario.genesis)
        return RunOutcome(report=report, history=history, sequencer=self)

    def _apply_event(self, event: Event) -> None:
        """Apply one event other than a submit or an advance, which `run` applies itself."""
        if isinstance(event, L1BlockEvent):
            self.l1.add_block(event.number, event.at, event.deposits)
        elif isinstance(event, ApproveReleaseEvent):
            self.store.approve_release(event.key, event.approver, event.at)
        elif isinstance(event, StakeEvent):
            self.store.stake(event.account, event.amount, event.at)
        elif isinstance(event, FailureReleaseEvent):
            ctx = BlockContext(self.base_fee, self.config.fee_recipient)
            self.store.request_failure_release(event.key, ctx, event.at)
            self.counters.release_sims += 1
        elif isinstance(event, SetBaseFeeEvent):
            self.base_fee = event.fee
        else:
            raise ScenarioError(f"unknown event {event!r}", at=getattr(event, "at", None))


def run(scenario: Scenario) -> RunOutcome:
    """Execute a scenario from genesis and return report, history, sequencer."""
    return Sequencer(scenario).run()
