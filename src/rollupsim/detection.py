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

The fold is one scratch over the tip. An uninfluenced benign candidate is
not executed again: once every key it read is checked to still hold its tip
value in the fold, its isolated write set is merged in. Influenced candidates
run on the fold itself, and a benign one is absorbed there. The fold builds
one post-state, at the end of the round.
"""
from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from .core import ZERO_ADDRESS, Address, AnyTransaction, TxHash, tx_id
from .vm import (
    AccessKey,
    BlockContext,
    Execution,
    Expr,
    PreconditionFailed,
    TxStatus,
    WorldState,
    _CallEnv,
    eval_expr,
    execute_transaction,
)

StateView = Union[WorldState, Execution]


class DetectionError(Exception):
    pass


class UnauthorizedInvariant(DetectionError):
    """Only the contract's admin may register an invariant for it."""


class Invariant(NamedTuple):
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


class Verdict(NamedTuple):
    malicious: bool
    violated: Tuple[str, ...]
    victims: Tuple[Address, ...]
    damage_estimate: int


BENIGN_VERDICT = Verdict(malicious=False, violated=(), victims=(), damage_estimate=0)


class InvariantDetector:
    """Flags an execution as malicious when it leaves any watched contract it
    wrote in violation of a declared predicate. Reverted executions change
    nothing and are always benign."""

    def assess(
        self, sim: Execution, pre_state: StateView, invariants: InvariantSet
    ) -> Tuple[Verdict, AbstractSet[AccessKey]]:
        """Return the verdict plus every state key the judgment depended on.
        Predicates run as calls on a child execution over `sim`, so the
        post-state is read through `sim`, not built, and the child records
        the probe's reads."""
        if sim.status is TxStatus.REVERT:
            return BENIGN_VERDICT, frozenset()
        probe: Optional[Execution] = None
        violated: List[str] = []
        victims: List[Address] = []
        for contract in sorted({key.addr for key in sim.writes}):
            watching = invariants.for_contract(contract)
            if not watching:
                continue
            if probe is None:
                probe = Execution(sim)
            # The damage bound reads the contract balance even when the
            # predicate itself does not.
            probe.reads.add(AccessKey.balance(contract))
            env = _CallEnv(probe, contract, ZERO_ADDRESS, 0, b"")
            broken = False
            for invariant in sorted(watching, key=lambda inv: inv.id):
                if eval_expr(invariant.predicate, env) == 0:
                    violated.append(invariant.id)
                    broken = True
            if broken:
                victims.append(contract)
        reads = frozenset() if probe is None else probe.reads
        if not violated:
            return BENIGN_VERDICT, reads
        damage = 0
        for victim in victims:
            damage += max(0, pre_state.balance_of(victim) - sim.balance_of(victim))
        return Verdict(True, tuple(violated), tuple(victims), damage), reads


class CandidateSet(NamedTuple):
    txs: Tuple[AnyTransaction, ...]
    tip_state: WorldState
    budget: Optional[int] = None  # None = unlimited contextual re-simulations


class Counters:
    """Simulation and verdict counts: one classification round's, or a run's
    (the sum of its rounds plus the sequencer's release and maintenance sims).

    `contextual_sims` counts candidates brought into block context, not
    `execute_transaction` calls: each influenced candidate run on the fold,
    and each queued candidate whose validated write set is merged into the
    fold before one. Merging what is still queued at the end of a round is
    block application and is not counted."""

    __slots__ = (
        "isolated_sims", "contextual_sims", "maintenance_sims", "release_sims", "deferred_count", "parallel_verdicts",
        "sequential_verdicts",
    )

    def __init__(
        self, isolated_sims: int = 0, contextual_sims: int = 0, maintenance_sims: int = 0, release_sims: int = 0,
        deferred_count: int = 0, parallel_verdicts: int = 0, sequential_verdicts: int = 0,
    ) -> None:
        self.isolated_sims = isolated_sims
        self.contextual_sims = contextual_sims
        self.maintenance_sims = maintenance_sims
        self.release_sims = release_sims
        self.deferred_count = deferred_count
        self.parallel_verdicts = parallel_verdicts
        self.sequential_verdicts = sequential_verdicts

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


class DetectionOutcome:
    __slots__ = ("benign", "malicious", "deferred", "stats", "final_state")

    def __init__(self, final_state: Optional[WorldState] = None) -> None:
        self.benign: List[AnyTransaction] = []
        self.malicious: List[Tuple[AnyTransaction, Verdict, Execution]] = []
        self.deferred: List[AnyTransaction] = []
        self.stats = Counters()
        self.final_state = final_state  # tip with `benign` applied in order


class _Slot:
    """One candidate's isolated run: its result or precondition failure, the
    keys its judgment read, and its isolated verdict."""

    __slots__ = ("tx", "key", "sim", "precond", "reads", "isolated_verdict")

    def __init__(self, tx: AnyTransaction, key: TxHash) -> None:
        self.tx = tx
        self.key = key
        self.sim: Optional[Execution] = None
        self.precond: Optional[str] = None
        self.reads: AbstractSet[AccessKey] = frozenset()
        self.isolated_verdict: Optional[Verdict] = None


def _isolated_run(state: WorldState, tx: AnyTransaction, ctx: BlockContext):
    try:
        return execute_transaction(state, tx, ctx)
    except PreconditionFailed as exc:
        return exc.reason


def _merge_validated(fold: Execution, queue: List[Tuple[AbstractSet[AccessKey], Execution]]) -> None:
    """Merge the isolated write sets of candidates already judged uninfluenced
    into the fold, in order, each after checking its reads in the fold."""
    for reads, sim in queue:
        if not fold.reads_as_base(reads):
            # Cannot happen for a candidate already judged uninfluenced;
            # if it does, the access tracking is broken somewhere.
            raise RuntimeError("uninfluenced candidate diverged in block context")
        fold.absorb(sim)
    queue.clear()


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
        # Imported here: concurrent.futures pulls in logging, which would
        # cost every process start.
        from concurrent.futures import ThreadPoolExecutor

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

    # Sequential pass. The fold is one scratch over the tip. Uninfluenced
    # benign candidates queue up, and their validated write sets are merged
    # only when an influenced candidate needs that context, or at the end.
    fold = Execution(cset.tip_state)
    fold_queue: List[Tuple[AbstractSet[AccessKey], Execution]] = []
    # Every key a benign candidate wrote, mapped to the index (in `benign`)
    # of its first writer: a candidate is influenced iff it read one of them.
    written: Dict[AccessKey, int] = {}
    budget_left = cset.budget

    for slot in slots:
        influenced = not written.keys().isdisjoint(slot.reads)

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
            stats.contextual_sims += len(fold_queue)
            _merge_validated(fold, fold_queue)
            stats.contextual_sims += 1
            try:
                sim = execute_transaction(fold, slot.tx, ctx)
            except PreconditionFailed:
                outcome.deferred.append(slot.tx)
                continue
            if slot.key in preapproved:
                verdict = BENIGN_VERDICT
            else:
                verdict, _ = detector.assess(sim, fold, invariants)
            stats.sequential_verdicts += 1

        if verdict.malicious:
            outcome.malicious.append((slot.tx, verdict, sim))
        else:
            for key in sim.writes:
                written.setdefault(key, len(outcome.benign))
            outcome.benign.append(slot.tx)
            if influenced:
                fold.absorb(sim)  # executed on the fold itself
            else:
                fold_queue.append((slot.reads, sim))

    # Merging the rest of the queue is block application, not
    # classification, so it is not counted as a contextual simulation.
    _merge_validated(fold, fold_queue)
    if outcome.benign:
        outcome.final_state = fold.post_state()
    stats.deferred_count = len(outcome.deferred)
    return outcome
