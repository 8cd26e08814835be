"""Malice detection and the two-mode candidate classification scheduler.

Every candidate is first simulated in isolation against the tip snapshot
(those runs may happen on a worker pool). Candidates that no earlier
*included* transaction can influence are judged straight from their isolated
run; influenced ones are re-simulated sequentially in block context, each
such re-simulation spending one unit of the round's budget. Candidates past
the budget, and candidates not yet executable, are deferred to the next
round in their original order.

The scheduler is a pure function of its inputs: worker count never changes
the outcome, only how the isolated runs are scheduled. Its outcome also
carries the fold's final state (the tip with every benign candidate applied
in order), so the caller never re-executes the block it just classified.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .core import Address, AnyTransaction, TxHash, tx_id
from .vm import (
    AccessKey,
    BlockContext,
    Expr,
    PreconditionFailed,
    SimulationResult,
    TxStatus,
    WorldState,
    eval_expr,
    execute_transaction,
)


class DetectionError(Exception):
    pass


class UnauthorizedInvariant(DetectionError):
    """Only the contract's admin may register an invariant for it."""


@dataclass(frozen=True)
class Invariant:
    id: str
    contract: Address
    predicate: Expr
    registered_by: Address


class InvariantSet:
    """Registered invariants, indexed by the contract they watch."""

    def __init__(self) -> None:
        self._by_contract: Dict[Address, List[Invariant]] = {}

    def register(self, invariant: Invariant, state: WorldState) -> None:
        code = state.account(invariant.contract).code
        admin = code.admin if code is not None else None
        if invariant.registered_by != admin:
            raise UnauthorizedInvariant(
                f"invariant {invariant.id!r} not registered by the admin of {invariant.contract.hex0x()}"
            )
        self._by_contract.setdefault(invariant.contract, []).append(invariant)

    def for_contract(self, contract: Address) -> Sequence[Invariant]:
        return self._by_contract.get(contract, ())

    def contracts(self) -> List[Address]:
        return sorted(self._by_contract)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_contract.values())


@dataclass(frozen=True)
class Verdict:
    malicious: bool
    violated: Tuple[str, ...]
    victims: Tuple[Address, ...]
    damage_estimate: int


BENIGN_VERDICT = Verdict(malicious=False, violated=(), victims=(), damage_estimate=0)


class _ProbeEnv:
    """Evaluates a predicate against one contract's post-state, recording reads."""

    def __init__(self, state: WorldState, contract: Address, reads: Set[AccessKey]):
        self.state = state
        self.self_addr = contract
        self.caller = bytes(20)
        self.callvalue = 0
        self.calldata = b""
        self.reads = reads

    def sload(self, key: bytes) -> int:
        self.reads.add(AccessKey.storage(self.self_addr, key))
        return int.from_bytes(self.state.account(self.self_addr).storage.get(key, bytes(32)), "big")

    def balance(self, addr: Address) -> int:
        self.reads.add(AccessKey.balance(addr))
        return self.state.balance_of(addr)


class InvariantDetector:
    """Flags a simulation as malicious when it leaves any watched contract it
    wrote in violation of a declared predicate. Reverted simulations change
    nothing and are always benign."""

    def assess(
        self, sim: SimulationResult, pre_state: WorldState, invariants: InvariantSet
    ) -> Tuple[Verdict, FrozenSet[AccessKey]]:
        """Return the verdict plus every state key the judgment depended on."""
        if sim.status is TxStatus.REVERT:
            return BENIGN_VERDICT, frozenset()
        touched = sorted({key.addr for key in sim.writes})
        reads: Set[AccessKey] = set()
        violated: List[str] = []
        victims: List[Address] = []
        for contract in touched:
            watching = invariants.for_contract(contract)
            if not watching:
                continue
            # The damage bound reads the contract balance even when the
            # predicate itself does not.
            reads.add(AccessKey.balance(contract))
            env = _ProbeEnv(sim.post_state, contract, reads)
            broken = False
            for invariant in sorted(watching, key=lambda inv: inv.id):
                if eval_expr(invariant.predicate, env) == 0:
                    violated.append(invariant.id)
                    broken = True
            if broken:
                victims.append(contract)
        if not violated:
            return Verdict(False, (), (), 0), frozenset(reads)
        damage = 0
        for victim in victims:
            damage += max(0, pre_state.balance_of(victim) - sim.post_state.balance_of(victim))
        return Verdict(True, tuple(violated), tuple(victims), damage), frozenset(reads)


@dataclass(frozen=True)
class CandidateSet:
    txs: Tuple[AnyTransaction, ...]
    tip_state: WorldState
    budget: Optional[int] = None  # None = unlimited contextual re-simulations


@dataclass
class Counters:
    """Simulation and verdict counts: one classification round's, or a run's
    (the sum of its rounds plus the sequencer's release and maintenance sims)."""

    isolated_sims: int = 0
    contextual_sims: int = 0
    maintenance_sims: int = 0
    release_sims: int = 0
    deferred_count: int = 0
    parallel_verdicts: int = 0
    sequential_verdicts: int = 0

    def add(self, other: "Counters") -> None:
        self.isolated_sims += other.isolated_sims
        self.contextual_sims += other.contextual_sims
        self.maintenance_sims += other.maintenance_sims
        self.release_sims += other.release_sims
        self.deferred_count += other.deferred_count
        self.parallel_verdicts += other.parallel_verdicts
        self.sequential_verdicts += other.sequential_verdicts

    def simulations(self) -> int:
        return self.isolated_sims + self.contextual_sims + self.release_sims


@dataclass
class DetectionOutcome:
    benign: List[AnyTransaction] = field(default_factory=list)
    malicious: List[Tuple[AnyTransaction, Verdict, SimulationResult]] = field(default_factory=list)
    deferred: List[AnyTransaction] = field(default_factory=list)
    stats: Counters = field(default_factory=Counters)
    final_state: Optional[WorldState] = None  # tip with `benign` applied in order


@dataclass
class _Slot:
    tx: AnyTransaction
    key: TxHash
    sim: Optional[SimulationResult] = None
    precond: Optional[str] = None
    reads: FrozenSet[AccessKey] = frozenset()
    isolated_verdict: Optional[Verdict] = None


def _isolated_run(state: WorldState, tx: AnyTransaction, ctx: BlockContext):
    try:
        return execute_transaction(state, tx, ctx)
    except PreconditionFailed as exc:
        return exc.reason


def _fold(state: WorldState, txs: Sequence[AnyTransaction], ctx: BlockContext) -> WorldState:
    """Apply candidates already judged uninfluenced, in order, in block context."""
    for tx in txs:
        try:
            state = execute_transaction(state, tx, ctx).post_state
        except PreconditionFailed as exc:
            # Cannot happen for a candidate already judged uninfluenced;
            # if it does, the access tracking is broken somewhere.
            raise RuntimeError("uninfluenced candidate diverged in block context") from exc
    return state


def _precondition_reads(tx: AnyTransaction, reason: str) -> FrozenSet[AccessKey]:
    # A not-yet-executable tx depends on whatever made the check fail, when an
    # earlier candidate could plausibly repair it.
    if reason == PreconditionFailed.NONCE_TOO_HIGH:
        return frozenset({AccessKey.nonce(tx.sender)})
    if reason == PreconditionFailed.INSUFFICIENT_BALANCE:
        return frozenset({AccessKey.nonce(tx.sender), AccessKey.balance(tx.sender)})
    return frozenset()


def hybrid_detect(
    cset: CandidateSet,
    invariants: InvariantSet,
    detector,
    ctx: BlockContext,
    workers: int = 1,
    preapproved: FrozenSet[TxHash] = frozenset(),
) -> DetectionOutcome:
    """Partition candidates into benign / malicious / deferred.

    Candidates in `preapproved` skip the detector (their verdict is forced
    benign) but still obey execution validity and still take part in
    dependency analysis. The benign list preserves candidate order; nothing
    is ever reordered.
    """
    outcome = DetectionOutcome(final_state=cset.tip_state)
    stats = outcome.stats
    txs = list(cset.txs)
    if not txs:
        return outcome

    def run_at_tip(tx):
        return _isolated_run(cset.tip_state, tx, ctx)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            isolated = list(pool.map(run_at_tip, txs))
    else:
        isolated = [run_at_tip(tx) for tx in txs]
    stats.isolated_sims += len(txs)

    slots: List[_Slot] = []
    for tx, result in zip(txs, isolated):
        slot = _Slot(tx=tx, key=tx_id(tx))
        if isinstance(result, str):
            slot.precond = result
            slot.reads = _precondition_reads(tx, result)
        else:
            slot.sim = result
            if slot.key in preapproved:
                slot.isolated_verdict = BENIGN_VERDICT
                slot.reads = result.reads
            else:
                verdict, probe_reads = detector.assess(result, cset.tip_state, invariants)
                slot.isolated_verdict = verdict
                slot.reads = result.reads | probe_reads
        slots.append(slot)

    # Sequential pass. The fold state materializes lazily: benign candidates
    # queue up and are executed in block context only when a dependent
    # candidate actually needs that context.
    fold_state = cset.tip_state
    fold_queue: List[AnyTransaction] = []
    benign_writes: List[FrozenSet[AccessKey]] = []
    budget_left = cset.budget

    def materialize() -> WorldState:
        nonlocal fold_state
        fold_state = _fold(fold_state, fold_queue, ctx)
        stats.contextual_sims += len(fold_queue)
        fold_queue.clear()
        return fold_state

    for slot in slots:
        influenced = any(writes & slot.reads for writes in benign_writes)

        if slot.precond is not None and not influenced:
            outcome.deferred.append(slot.tx)
            continue

        if not influenced:
            verdict = slot.isolated_verdict
            sim = slot.sim
            stats.parallel_verdicts += 1
        else:
            if budget_left is not None and budget_left <= 0:
                outcome.deferred.append(slot.tx)
                continue
            if budget_left is not None:
                budget_left -= 1
            state = materialize()
            stats.contextual_sims += 1
            try:
                sim = execute_transaction(state, slot.tx, ctx)
            except PreconditionFailed:
                outcome.deferred.append(slot.tx)
                continue
            if slot.key in preapproved:
                verdict = BENIGN_VERDICT
            else:
                verdict, _ = detector.assess(sim, state, invariants)
            stats.sequential_verdicts += 1

        if verdict.malicious:
            outcome.malicious.append((slot.tx, verdict, sim))
        else:
            outcome.benign.append(slot.tx)
            benign_writes.append(sim.writes)
            if influenced:
                # Already executed in context (the fold queue is drained), so
                # the fold advances directly to its post-state.
                fold_state = sim.post_state
            else:
                fold_queue.append(slot.tx)

    # Draining the rest of the queue is block application, not
    # classification, so it is not counted as a contextual simulation.
    outcome.final_state = _fold(fold_state, fold_queue, ctx)
    stats.deferred_count = len(outcome.deferred)
    return outcome
