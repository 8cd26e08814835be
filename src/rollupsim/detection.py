"""Malice detection and the two-mode candidate classification scheduler.

Every candidate has an isolated run, as if it ran alone at the tip.
Candidates that no earlier *included* transaction can influence are judged
straight from that run; influenced ones from a run in block context, each
such run spending one unit of the round's budget. Candidates past the
budget, and candidates not yet executable, are deferred to the next round
in their original order. An isolated run is judged only when its verdict
can be used: once the pass finds that nothing included before it wrote a key
its execution read. The keys the judgement itself read then join the
influence test.

The scheduler is a pure function of its inputs: worker count never changes
the outcome, only where the runs are made. Its outcome also carries the
fold's final state (the tip with every benign candidate applied in order),
so the caller never re-executes the block it just classified.

The fold is one scratch over the tip, kept up to date by one pass over the
candidates. With several workers, a thread pool makes every isolated run at
the tip first. With one, a candidate whose sender or recipient an earlier
benign candidate touched runs on the fold instead, and only there: every key
the fold changed is in `written`, so a fold run that reads none of those
keys saw only tip values and is the isolated run, and one that reads any of
them is the run in block context, which the isolated run would have led to
as well. Only a fold run that fails a precondition is repeated at the tip.
An uninfluenced candidate's run at the tip is not executed again: once every
key it read is checked to still hold its tip value in the fold, its write
set is merged in. The fold builds one post-state, at the end of the round.
"""
from __future__ import annotations

from operator import itemgetter
from typing import AbstractSet, Dict, FrozenSet, List, NamedTuple, Optional, Set, Tuple, Union

from .core import ZERO_ADDRESS, Address, AnyTransaction, TxHash, tx_id
from .vm import (
    AccessKey,
    AccessKind,
    BlockContext,
    Execution,
    Expr,
    PreconditionFailed,
    TxStatus,
    WorldState,
    _CallEnv,
    _new_key,
    eval_expr,
    execute_transaction,
)

StateView = Union[WorldState, Execution]
_key_addr = itemgetter(1)  # an access key's address


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
    """Registered invariants, indexed by the contract they watch: `by_contract`
    maps each watched contract to its invariants, sorted by id (ties in
    registration order)."""

    def __init__(self) -> None:
        self.by_contract: Dict[Address, List[Invariant]] = {}

    def register(self, invariant: Invariant, state: WorldState) -> None:
        code = state.code_of(invariant.contract)
        admin = code.admin if code is not None else None
        if invariant.registered_by != admin:
            raise UnauthorizedInvariant(
                f"invariant {invariant.id!r} not registered by the admin of {invariant.contract.hex0x()}"
            )
        watching = self.by_contract.setdefault(invariant.contract, [])
        watching.append(invariant)
        watching.sort(key=lambda inv: inv.id)


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
        by_contract = invariants.by_contract
        if sim.status is TxStatus.REVERT or not by_contract:
            return BENIGN_VERDICT, frozenset()
        watched = by_contract.keys() & map(_key_addr, sim.writes)
        if not watched:
            return BENIGN_VERDICT, frozenset()
        probe = Execution(sim)
        violated: List[str] = []
        victims: List[Address] = []
        for contract in sorted(watched):
            # The damage bound reads the contract balance even when the
            # predicate itself does not.
            probe.reads.add(_new_key(AccessKey, (AccessKind.BALANCE, contract, b"")))
            env = _CallEnv(probe, contract, ZERO_ADDRESS, 0, b"")
            broken = False
            for invariant in by_contract[contract]:
                if eval_expr(invariant.predicate, env) == 0:
                    violated.append(invariant.id)
                    broken = True
            if broken:
                victims.append(contract)
        reads = probe.reads
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

    `isolated_sims` and `contextual_sims` count candidates, not
    `execute_transaction` calls. `isolated_sims` counts every candidate of a
    round. `contextual_sims` counts each influenced candidate run in block
    context, plus, at each such run, the benign uninfluenced candidates
    merged into the fold since the previous one: the context it needed.
    Those merged after a round's last such run are block application and
    are not counted."""

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


class DetectionOutcome:
    __slots__ = ("benign", "malicious", "deferred", "stats", "final_state")

    def __init__(self, final_state: Optional[WorldState] = None) -> None:
        self.benign: List[AnyTransaction] = []
        self.malicious: List[Tuple[AnyTransaction, Verdict, Execution]] = []
        self.deferred: List[AnyTransaction] = []
        self.stats = Counters()
        self.final_state = final_state  # tip with `benign` applied in order


def _run(state: StateView, tx: AnyTransaction, ctx: BlockContext):
    """The execution, or the name of the precondition it failed."""
    try:
        return execute_transaction(state, tx, ctx)
    except PreconditionFailed as exc:
        return exc.reason


def _merge_validated(fold: Execution, reads: AbstractSet[AccessKey], sim: Execution) -> None:
    """Merge the write set of a run at the tip, already judged uninfluenced,
    into the fold after checking that its reads still hold there."""
    if not fold.reads_as_base(reads):
        # Cannot happen for a candidate already judged uninfluenced;
        # if it does, the access tracking is broken somewhere.
        raise RuntimeError("uninfluenced candidate diverged in block context")
    fold.absorb(sim)


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
    txs = cset.txs
    if not txs:
        return outcome
    tip = cset.tip_state

    isolated = None
    if workers > 1:
        # Imported here: concurrent.futures pulls in logging, which would
        # cost every process start.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            isolated = list(pool.map(lambda tx: _run(tip, tx, ctx), txs))
    stats.isolated_sims += len(txs)

    # One pass. The fold is the tip with every earlier benign candidate
    # applied. `written` holds every key a benign candidate wrote, and
    # `touched` their addresses: a candidate is influenced iff it read a key
    # in `written`.
    fold = Execution(tip)
    written: Set[AccessKey] = set()
    touched: Set[Address] = set()
    merged = 0  # benign uninfluenced candidates since the last contextual run
    budget_left = cset.budget

    for i, tx in enumerate(txs):
        on_fold = None  # this candidate's run on the fold, once made
        if isolated is not None:
            result = isolated[i]
        else:
            if touched and (tx.sender in touched or tx.recipient in touched):
                # Contended: its run on the fold is its isolated run if it
                # reads no key in `written`, its run in context if it does.
                on_fold = _run(fold, tx, ctx)
            # A precondition failed on the fold says nothing of the tip
            # (NONCE_TOO_LOW reads nothing), so that candidate runs there too.
            result = on_fold if isinstance(on_fold, Execution) else _run(tip, tx, ctx)
        precond = isinstance(result, str)  # then `result` names the precondition it failed
        reads = _precondition_reads(tx, result) if precond else result.reads
        influenced = not written.isdisjoint(reads)

        if precond and not influenced:
            outcome.deferred.append(tx)
            continue

        if not influenced:
            sim = result
            if preapproved and tx_id(tx) in preapproved:
                verdict = BENIGN_VERDICT
            else:
                # Judged only now that its execution reads are uninfluenced;
                # the keys the judgement read join the test.
                verdict, probe_reads = detector.assess(sim, tip, invariants)
                if probe_reads:
                    reads = reads | probe_reads
                    influenced = not written.isdisjoint(probe_reads)

        if not influenced:
            stats.parallel_verdicts += 1
        else:
            if budget_left is not None and budget_left <= 0:
                outcome.deferred.append(tx)
                continue
            if budget_left is not None:
                budget_left -= 1
            stats.contextual_sims += merged + 1
            merged = 0
            if on_fold is None:
                on_fold = _run(fold, tx, ctx)
            if isinstance(on_fold, str):
                outcome.deferred.append(tx)
                continue
            sim = on_fold
            if preapproved and tx_id(tx) in preapproved:
                verdict = BENIGN_VERDICT
            else:
                verdict, _ = detector.assess(sim, fold, invariants)
            stats.sequential_verdicts += 1

        if verdict.malicious:
            outcome.malicious.append((tx, verdict, sim))
        else:
            writes = sim.writes
            written |= writes
            touched.update(map(_key_addr, writes))
            outcome.benign.append(tx)
            if sim is on_fold:
                fold.absorb(sim)  # executed on the fold itself
            else:
                _merge_validated(fold, reads, sim)
            if not influenced:
                merged += 1

    if outcome.benign:
        outcome.final_state = fold.post_state()
    stats.deferred_count = len(outcome.deferred)
    return outcome
