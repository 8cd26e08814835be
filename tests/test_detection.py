import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    ADMIN,
    ATTACKER,
    COUNT_KEY,
    COUNTER,
    FEE_SINK,
    LEDGERBOOK,
    VAULT,
    addr,
    counter_contract,
    ctx,
    exploit_tx,
    generator_candidates,
    generator_world,
    sequential_oracle,
    solvency_invariant,
    tx,
    unpause_tx,
    vault_state,
)
import rollupsim
from rollupsim import detection
from rollupsim.core import tx_hash
from rollupsim.detection import (
    CandidateSet,
    Counters,
    Invariant,
    InvariantDetector,
    InvariantSet,
    UnauthorizedInvariant,
    hybrid_detect,
)
from rollupsim.vm import (
    AccessKey,
    Account,
    Bin,
    CallData,
    Const,
    ContractCode,
    Execution,
    PreconditionFailed,
    SetSlot,
    SLoad,
    execute_transaction,
    make_state,
    slot_bytes,
    state_root,
)


def invariant_set(state, invariants):
    s = InvariantSet()
    for inv in invariants:
        s.register(inv, state)
    return s


@pytest.fixture
def detector():
    return InvariantDetector()


def vault_invariants(state):
    return invariant_set(state, [solvency_invariant()])


class TestDetect:
    def test_reverted_simulation_is_benign(self, detector):
        state = vault_state(paused=True)
        sim = execute_transaction(state, exploit_tx(), ctx())
        verdict = detector.assess(sim, state, vault_invariants(state))[0]
        assert not verdict.malicious and verdict.victims == ()

    def test_violation_reports_victim_and_damage(self, detector):
        state = vault_state(paused=False)
        sim = execute_transaction(state, exploit_tx(), ctx())
        verdict = detector.assess(sim, state, vault_invariants(state))[0]
        assert verdict.malicious
        assert verdict.victims == (VAULT,)
        assert verdict.violated == ("vault-solvent",)
        assert verdict.damage_estimate == 100  # pre 100 -> post 0

    def test_untouched_contracts_not_evaluated(self, detector):
        state = vault_state(paused=False)
        sim = execute_transaction(state, tx(ATTACKER, 0, addr(0x44), value=3), ctx())
        verdict = detector.assess(sim, state, vault_invariants(state))[0]
        assert not verdict.malicious

    def test_probe_reads_are_what_the_predicate_and_damage_bound_read(self, detector):
        # A blind write to slot 1, judged by a predicate over slot 2: the
        # probe reads slot 2 and the contract balance, the execution itself
        # never read either, and judging it records nothing on it.
        code = ContractCode(admin=ADMIN, statements=(SetSlot(Const(1), CallData()),))
        state = make_state({addr(1): Account(balance=1_000), COUNTER: Account(code=code, storage={slot_bytes(2): slot_bytes(5)})})
        low = Invariant("low", COUNTER, Bin("lt", SLoad(Const(2)), Const(9)), ADMIN)
        sim = execute_transaction(state, tx(addr(1), 0, COUNTER, data=bytes(31) + b"\x07"), ctx())
        own_reads = set(sim.reads)
        verdict, reads = detector.assess(sim, state, invariant_set(state, [low]))
        assert not verdict.malicious
        assert set(reads) == {AccessKey.storage(COUNTER, slot_bytes(2)), AccessKey.balance(COUNTER)}
        assert AccessKey.storage(COUNTER, slot_bytes(2)) not in own_reads and sim.reads == own_reads
        assert set(detector.assess(sim, state, InvariantSet())[1]) == set()

    def test_registration_requires_admin(self):
        state = vault_state()
        bogus = solvency_invariant(admin=ATTACKER)
        with pytest.raises(UnauthorizedInvariant):
            invariant_set(state, [bogus])


def overlap_edges(sims):
    """Pairs (i, j), i < j, where i's writes reach j's reads: the overlap
    `hybrid_detect` uses to decide that a candidate is influenced."""
    return {(i, j) for j in range(len(sims)) for i in range(j) if sims[i].writes & sims[j].reads}


class TestDependencyEdges:
    def test_pause_fixture_exact_edge(self):
        state = vault_state(paused=True)
        sims = [
            execute_transaction(state, unpause_tx(), ctx()),
            execute_transaction(state, exploit_tx(), ctx()),
        ]
        assert overlap_edges(sims) == {(0, 1)}

    def test_disjoint_transfers_no_edges(self):
        state = make_state({addr(i): Account(balance=1000) for i in (1, 2, 3)})
        sims = [execute_transaction(state, tx(addr(i), 0, addr(10 + i), value=1), ctx()) for i in (1, 2, 3)]
        assert overlap_edges(sims) == set()


class TestHybridFixture:
    def test_exploit_alone_is_benign(self, detector):
        state = vault_state(paused=True)
        outcome = hybrid_detect(
            CandidateSet((exploit_tx(),), state), vault_invariants(state), detector, ctx()
        )
        assert outcome.benign == [exploit_tx()]
        assert outcome.malicious == [] and outcome.deferred == []

    def test_unpause_then_exploit_flags_the_exploit(self, detector):
        state = vault_state(paused=True)
        a, b = unpause_tx(), exploit_tx()
        outcome = hybrid_detect(CandidateSet((a, b), state), vault_invariants(state), detector, ctx())
        assert outcome.benign == [a]
        assert len(outcome.malicious) == 1
        flagged, verdict, sim = outcome.malicious[0]
        assert flagged == b
        assert verdict.victims == (VAULT,)
        assert verdict.damage_estimate == 100
        assert outcome.stats.sequential_verdicts == 1  # b re-simulated in context

    def test_disjoint_transfers_zero_budget_all_parallel(self, detector):
        state = make_state({addr(i): Account(balance=1000) for i in (1, 2, 3)})
        txs = tuple(tx(addr(i), 0, addr(10 + i), value=1) for i in (1, 2, 3))
        outcome = hybrid_detect(CandidateSet(txs, state, budget=0), InvariantSet(), detector, ctx())
        assert outcome.benign == list(txs)
        assert outcome.deferred == []
        assert outcome.stats.contextual_sims == 0

    def test_budget_exhaustion_defers_dependents(self, detector):
        state = vault_state(paused=True)
        a, b = unpause_tx(), exploit_tx()
        outcome = hybrid_detect(
            CandidateSet((a, b), state, budget=0), vault_invariants(state), detector, ctx()
        )
        assert outcome.benign == [a]
        assert outcome.deferred == [b]
        assert outcome.malicious == []

    def test_precondition_failure_defers(self, detector):
        state = make_state({addr(1): Account(balance=1000)})
        gapped = tx(addr(1), 5, addr(2))
        outcome = hybrid_detect(CandidateSet((gapped,), state), InvariantSet(), detector, ctx())
        assert outcome.deferred == [gapped]

    def test_same_sender_nonce_chain_includes_both(self, detector):
        state = make_state({addr(1): Account(balance=1000)})
        first, second = tx(addr(1), 0, addr(2), value=1), tx(addr(1), 1, addr(3), value=1)
        outcome = hybrid_detect(CandidateSet((first, second), state), InvariantSet(), detector, ctx())
        assert outcome.benign == [first, second]
        assert outcome.deferred == []

    def test_funding_predecessor_enables_poor_sender(self, detector):
        state = make_state({addr(1): Account(balance=1000), addr(2): Account(balance=0)})
        fund = tx(addr(1), 0, addr(2), value=500)
        spend = tx(addr(2), 0, addr(3), value=100)
        outcome = hybrid_detect(CandidateSet((fund, spend), state), InvariantSet(), detector, ctx())
        assert outcome.benign == [fund, spend]

    def test_malicious_predecessor_excluded_from_context(self, detector):
        # Two drains against an unpaused vault: both judged on the tip state,
        # both flagged; the second one must not see a drained vault (which
        # would make it a harmless revert).
        state = vault_state(paused=False)
        b1 = exploit_tx(nonce=0)
        b2 = tx(addr(0x99), 0, VAULT)
        state = make_state({**state.accounts, addr(0x99): Account(balance=1000)})
        outcome = hybrid_detect(CandidateSet((b1, b2), state), vault_invariants(state), detector, ctx())
        flagged = [t for t, _, _ in outcome.malicious]
        assert flagged == [b1, b2]
        assert outcome.stats.contextual_sims == 0  # no benign influence anywhere

    def test_blind_writers_judged_through_invariant_reads(self, detector):
        # Neither write reads the other's slot; only the ledger invariant
        # couples them. The second write must be judged in context.
        state, invariants = generator_world(random.Random(0))
        invs = invariant_set(state, invariants)
        w1 = tx(addr(1), 0, LEDGERBOOK, data=b"\x01", value=8)
        w2 = tx(addr(2), 0, LEDGERBOOK, data=b"\x02", value=8)
        state = make_state(
            {**state.accounts, addr(1): Account(balance=5000), addr(2): Account(balance=5000), LEDGERBOOK: state.account(LEDGERBOOK)}
        )
        outcome = hybrid_detect(CandidateSet((w1, w2), state), invs, detector, ctx())
        benign_o, malicious_o, deferred_o, _ = sequential_oracle(
            [w1, w2], state, invs, detector, ctx()
        )
        assert outcome.benign == benign_o
        assert [t for t, _, _ in outcome.malicious] == [t for t, _ in malicious_o]
        assert outcome.deferred == deferred_o
        # 8 + 8 >= 15: second writer flagged only when first's effect is seen.
        assert [t for t, _, _ in outcome.malicious] == [w2]

    def test_preapproved_skips_detector_but_not_execution(self, detector):
        state = vault_state(paused=False)
        drain = exploit_tx()
        outcome = hybrid_detect(
            CandidateSet((drain,), state),
            vault_invariants(state),
            detector,
            ctx(),
            preapproved=frozenset({tx_hash(drain)}),
        )
        assert outcome.benign == [drain]
        gapped = tx(ATTACKER, 7, VAULT)
        outcome = hybrid_detect(
            CandidateSet((gapped,), state),
            vault_invariants(state),
            detector,
            ctx(),
            preapproved=frozenset({tx_hash(gapped)}),
        )
        assert outcome.deferred == [gapped]


def outcome_signature(outcome):
    stats = outcome.stats
    return (
        [tx_hash(t) for t in outcome.benign],
        [(tx_hash(t), v) for t, v, _ in outcome.malicious],
        [tx_hash(t) for t in outcome.deferred],
        {field: getattr(stats, field) for field in Counters.__slots__},
        state_root(outcome.final_state),
    )


def fold_hazard_candidates(rng, state):
    """Generated candidates plus what a run on the fold must get right: a
    priority fee on half of them (paid to the fee recipient, so each payer
    writes its balance), one sender's nonce chain threaded through the round,
    and a replacement that reuses a nonce the round already spent, which
    fails its precondition on the fold but not at the tip."""
    txs = []
    for t in generator_candidates(rng, state):
        if t.max_fee and rng.random() < 0.5:
            t = tx(t.sender, t.nonce, t.recipient, value=t.value, data=t.data, max_fee=2, priority_fee=1)
        txs.append(t)
    chain_sender = rng.choice([addr(i) for i in range(1, 5)] + [ADMIN])
    first = max([t.nonce + 1 for t in txs if t.sender == chain_sender], default=state.nonce_of(chain_sender))
    spots = sorted(rng.randrange(len(txs) + 1) for _ in range(3))
    for i, spot in enumerate(spots):
        txs.insert(spot + i, tx(chain_sender, first + i, COUNTER))
    spent = rng.choice(txs)
    at = txs.index(spent) + 1
    txs.insert(rng.randrange(at, len(txs) + 1), tx(spent.sender, spent.nonce, LEDGERBOOK, data=b"\x01", value=4))
    return txs


class TestOracleEquivalence:
    def test_matches_sequential_oracle_on_generated_sets(self, detector):
        rng = random.Random(20240)
        mismatches = 0
        for _ in range(300):
            state, invariants = generator_world(rng)
            invs = invariant_set(state, invariants)
            txs = generator_candidates(rng, state)
            outcome = hybrid_detect(CandidateSet(tuple(txs), state, budget=None), invs, detector, ctx())
            benign_o, malicious_o, deferred_o, _ = sequential_oracle(txs, state, invs, detector, ctx())
            same = (
                outcome.benign == benign_o
                and [(t, v) for t, v, _ in outcome.malicious] == malicious_o
                and outcome.deferred == deferred_o
            )
            mismatches += 0 if same else 1
        assert mismatches == 0

    @pytest.mark.parametrize("budget", range(5))
    def test_worker_count_never_changes_the_outcome(self, detector, budget, monkeypatch):
        # One worker runs a contended candidate on the fold first; more run
        # every candidate at the tip. Verdicts, counters and the fold's
        # state must agree, fold precondition failures included.
        real = detection.execute_transaction
        fold_failures = []

        def watched(state, t, context):
            try:
                return real(state, t, context)
            except PreconditionFailed as exc:
                if isinstance(state, Execution):
                    fold_failures.append(exc.reason)
                raise

        monkeypatch.setattr(detection, "execute_transaction", watched)
        rng = random.Random(555)
        for _ in range(60):
            state, invariants = generator_world(rng)
            invs = invariant_set(state, invariants)
            txs = tuple(fold_hazard_candidates(rng, state))
            context = ctx(fee_recipient=rng.choice([FEE_SINK, addr(4), VAULT, LEDGERBOOK]))
            results = [
                outcome_signature(
                    hybrid_detect(CandidateSet(txs, state, budget=budget), invs, detector, context, workers=w)
                )
                for w in (1, 2, 8)
            ]
            assert results[0] == results[1] == results[2]
        assert {PreconditionFailed.NONCE_TOO_LOW, PreconditionFailed.NONCE_TOO_HIGH} <= set(fold_failures)

    def test_finite_budget_equals_oracle_on_the_undeferred(self, detector):
        # Whatever a budget-limited round classifies must match the oracle run
        # on the same candidates with the round's deferrals removed.
        rng = random.Random(808)
        for _ in range(150):
            state, invariants = generator_world(rng)
            invs = invariant_set(state, invariants)
            txs = generator_candidates(rng, state)
            budget = rng.randrange(0, 4)
            outcome = hybrid_detect(CandidateSet(tuple(txs), state, budget=budget), invs, detector, ctx())
            deferred = set(map(id, outcome.deferred))
            kept = [t for t in txs if id(t) not in deferred]
            benign_o, malicious_o, deferred_o, _ = sequential_oracle(kept, state, invs, detector, ctx())
            assert deferred_o == []
            assert outcome.benign == benign_o
            assert [(t, v) for t, v, _ in outcome.malicious] == malicious_o

    def test_benign_order_preserved(self, detector):
        rng = random.Random(99)
        for _ in range(50):
            state, invariants = generator_world(rng)
            invs = invariant_set(state, invariants)
            txs = generator_candidates(rng, state)
            outcome = hybrid_detect(CandidateSet(tuple(txs), state, budget=None), invs, detector, ctx())
            positions = [txs.index(t) for t in outcome.benign]
            assert positions == sorted(positions)


class TestLazyJudgement:
    """An isolated run is judged only once the sequential pass finds its
    execution reads uninfluenced: an influenced candidate is judged once, in
    block context, and its isolated verdict is never computed."""

    def test_influenced_candidates_are_judged_only_in_context(self):
        senders = [addr(n) for n in (1, 2, 3)]
        state = vault_state(
            paused=False,
            extra={**{s: Account(balance=1_000) for s in senders}, COUNTER: Account(code=counter_contract())},
        )
        capped = Invariant("counter-capped", COUNTER, Bin("lt", SLoad(Const(COUNT_KEY)), Const(3)), ADMIN)
        invs = invariant_set(state, [solvency_invariant(), capped])
        bumps = [tx(s, 0, COUNTER) for s in senders]  # the third leaves the count at 3
        txs = (*bumps, exploit_tx())
        judged = []

        class Counting(InvariantDetector):
            def assess(self, sim, pre_state, invariants):
                judged.append(sim)
                return super().assess(sim, pre_state, invariants)

        outcomes = [hybrid_detect(CandidateSet(txs, state), invs, Counting(), ctx(), workers=w) for w in (1, 2)]
        # One isolated judgement for the first bump and one for the drain,
        # one contextual judgement each for the two influenced bumps; judging
        # every isolated run as well took six.
        assert len(judged) == 2 * 4
        for outcome in outcomes:
            assert outcome.benign == bumps[:2]
            assert [t for t, _, _ in outcome.malicious] == [bumps[2], txs[3]]
            assert outcome.malicious[0][1].violated == ("counter-capped",)
            assert outcome.deferred == []
            stats = outcome.stats
            assert (
                stats.isolated_sims, stats.contextual_sims, stats.parallel_verdicts, stats.sequential_verdicts,
                stats.deferred_count,
            ) == (4, 3, 2, 2, 0)
        benign_o, malicious_o, deferred_o, _ = sequential_oracle(list(txs), state, invs, InvariantDetector(), ctx())
        assert (outcomes[0].benign, [(t, v) for t, v, _ in outcomes[0].malicious], outcomes[0].deferred) == (
            benign_o, malicious_o, deferred_o
        )


class TestOneRunPerCandidate:
    """With one worker a contended candidate is executed once, on the fold:
    that run stands for its isolated run, or is its run in block context.
    Running it at the tip and again in context took 2k - 1 runs for k calls
    to one counter."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every transaction the classifier executes, in order."""
        real = detection.execute_transaction
        executed = []

        def counted(state, t, context):
            executed.append(t)
            return real(state, t, context)

        monkeypatch.setattr(detection, "execute_transaction", counted)
        return executed

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_a_round_of_counter_calls(self, runs, k):
        senders = [addr(0x100 + i) for i in range(k)]
        state = make_state({**{s: Account(balance=1_000) for s in senders}, COUNTER: Account(code=counter_contract())})
        capped = Invariant("counter-capped", COUNTER, Bin("lt", SLoad(Const(COUNT_KEY)), Const(100)), ADMIN)
        invs = invariant_set(state, [capped])
        txs = tuple(tx(s, 0, COUNTER, max_fee=2, priority_fee=1) for s in senders)
        one = hybrid_detect(CandidateSet(txs, state), invs, InvariantDetector(), ctx(), workers=1)
        assert len(runs) == k
        two = hybrid_detect(CandidateSet(txs, state), invs, InvariantDetector(), ctx(), workers=2)
        assert len(runs) == k + 2 * k - 1
        assert one.benign == two.benign == list(txs)
        assert outcome_signature(one) == outcome_signature(two)
        # The first call is judged at the tip; its merge counts as brought
        # into context once the second call needs it.
        stats = one.stats
        assert (stats.isolated_sims, stats.contextual_sims, stats.parallel_verdicts, stats.sequential_verdicts) == (
            k, k if k > 1 else 0, 1, k - 1
        )

    def test_a_nonce_chain_and_a_replacement(self, runs):
        # A sender's chain of k transfers runs k times. A replacement of an
        # included nonce fails on the fold, runs once at the tip to learn
        # what it read, and is deferred without a third run.
        k = 5
        sender = addr(0x100)
        state = make_state({sender: Account(balance=1_000)})
        chain = [tx(sender, n, addr(0x200 + n), value=1) for n in range(k)]
        replacement = tx(sender, 1, addr(0x300), value=2)
        outcome = hybrid_detect(CandidateSet((*chain, replacement), state), InvariantSet(), InvariantDetector(), ctx())
        assert (outcome.benign, outcome.deferred) == (chain, [replacement])
        assert runs == [*chain, replacement, replacement]


class TestLazyThreadPool:
    def test_import_leaves_the_thread_pool_unloaded(self):
        # concurrent.futures (and the logging it pulls in) is imported only
        # when a round actually runs with more than one worker. No record is
        # a dataclass, so neither dataclasses nor the inspect module it pulls
        # in is imported at all.
        src = Path(rollupsim.__file__).resolve().parent.parent
        probe = (
            "import sys, rollupsim, rollupsim.formats, rollupsim.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'dataclasses', 'inspect') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
