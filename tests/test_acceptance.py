"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them)."""
import random
from contextlib import contextmanager
from pathlib import Path

import pytest

from helpers import (
    ADMIN,
    ATTACKER,
    VAULT,
    addr,
    ctx,
    exploit_tx,
    generator_candidates,
    generator_world,
    sequential_oracle,
    solvency_invariant,
    unpause_tx,
    vault_state,
)
from rollupsim.core import deposit_id, encode_block, tx_hash
from rollupsim.detection import CandidateSet, InvariantDetector, InvariantSet, Verdict, hybrid_detect
from rollupsim.derivation import derive
from rollupsim.formats import parse_history, parse_scenario, render_history, render_report
from rollupsim.l1da import EscrowStatus, NotEligible, RefundResult, decode_bitmap, encode_bitmap
from rollupsim.sequencer import run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def load(name):
    return parse_scenario((SCENARIOS / f"{name}.scn").read_text(), default_name=name)


def corpus():
    return sorted(p.stem for p in SCENARIOS.glob("*.scn"))


def invariants_for(state, invs):
    s = InvariantSet()
    for inv in invs:
        s.register(inv, state)
    return s


def test_01_pause_exploit_reproduction():
    with criterion("pause-exploit-reproduction"):
        detector = InvariantDetector()
        state = vault_state(paused=True)
        invs = invariants_for(state, [solvency_invariant()])
        a, b = unpause_tx(), exploit_tx()

        # (a) the exploit alone, with the vault paused, is benign
        alone = hybrid_detect(CandidateSet((b,), state), invs, detector, ctx())
        assert alone.benign == [b] and alone.malicious == [] and alone.deferred == []

        # (b) unpause-then-exploit flags exactly the exploit
        both = hybrid_detect(CandidateSet((a, b), state), invs, detector, ctx())
        assert both.benign == [a]
        assert [t for t, _, _ in both.malicious] == [b]
        verdict = both.malicious[0][1]
        assert verdict.victims == (VAULT,)
        assert verdict.damage_estimate == state.balance_of(VAULT)  # the full balance

        # and the full pipeline agrees
        out = run(load("pause_exploit"))
        assert len(out.report.entries) == 1
        entry = out.report.entries[0]
        assert entry.victims == (VAULT,) and entry.damage == 100
        included = [h for blk in out.report.blocks for h in blk.tx_hashes]
        assert tx_hash(a) in included and tx_hash(b) not in included


def test_02_hybrid_matches_sequential_oracle():
    with criterion("hybrid-vs-sequential-oracle"):
        detector = InvariantDetector()
        rng = random.Random(91_552)
        mismatches = 0
        for _ in range(1000):
            state, invs_list = generator_world(rng)
            invs = invariants_for(state, invs_list)
            txs = generator_candidates(rng, state)
            outcome = hybrid_detect(CandidateSet(tuple(txs), state, budget=None), invs, detector, ctx())
            benign_o, malicious_o, deferred_o, _ = sequential_oracle(txs, state, invs, detector, ctx())
            same = (
                outcome.benign == benign_o
                and [(t, v) for t, v, _ in outcome.malicious] == malicious_o
                and outcome.deferred == deferred_o
            )
            if not same:
                mismatches += 1
        assert mismatches == 0


def test_03_derivation_round_trip():
    with criterion("derivation-round-trip"):
        names = corpus()
        assert len(names) >= 20
        for name in names:
            out = run(load(name))
            for history in (out.history, parse_history(render_history(out.history))):
                derived = derive(history)
                assert [encode_block(b) for b in derived.blocks] == [
                    encode_block(b) for b in out.sequencer.chain.blocks
                ], name
                assert derived.final_root == out.report.final_root, name


def _dos_scenario(with_flood: bool) -> str:
    lines = [
        "scenario v1 name=dos",
        "config fee_recipient=0xfe operators=0xee",
        "genesis contract 0xc3 admin=0xa1 balance=100 code={(pay caller (balance self))}",
        "genesis invariant id=vault-solvent contract=0xc3 registered_by=0xa1 predicate={(ge (balance self) 50)}",
    ]
    for i in range(10):
        lines.append(f"genesis account 0x{0x20 + i:02x} balance=10000")
    if with_flood:
        for i in range(1000):
            lines.append(f"genesis account 0x{0x100000 + i:06x} balance=1000")
    lines.append("run blocks=100")
    if with_flood:
        for i in range(1000):
            lines.append(f"event 1 submit sender=0x{0x100000 + i:06x} nonce=0 to=0xc3 gas_limit=30")
    for i in range(10):
        # a thin benign flow spread over the run
        lines.append(f"event {2 + 20 * i} submit sender=0x{0x20 + i:02x} nonce=0 to=0x05 value=3 gas_limit=21")
    return "\n".join(lines) + "\n"


def test_04_dos_resistance():
    with criterion("quarantine-flood-dos"):
        flooded = run(parse_scenario(_dos_scenario(True)))
        assert len(flooded.report.entries) == 1000
        assert len(flooded.report.blocks) == 100
        assert flooded.report.counters.maintenance_sims == 0
        # all thousand stay held for the whole run
        assert len(flooded.sequencer.store.active) == 1000
        clean = run(parse_scenario(_dos_scenario(False)))
        assert [b.tx_hashes for b in flooded.report.blocks] == [b.tx_hashes for b in clean.report.blocks]


def test_05_quarantine_criteria_suite():
    with criterion("quarantine-criteria"):
        # Nonce retirement via an included replacement.
        trail = [(a.kind, a.detail) for a in run(load("replacement_benign")).report.audit]
        assert trail[0] == ("admitted", "block=0")
        assert trail[-1] == ("retired", "criterion=nonce")

        # Time release at exactly admission + period (period 50, admitted t=2).
        out = run(load("time_release"))
        released = [a for a in out.report.audit if a.kind == "released"]
        assert [a.detail for a in released] == ["criterion=time"]
        entry = out.report.entries[0]
        assert released[0].at == entry.admitted_at + 50
        # the block before the threshold did not release (held at t=4)
        assert out.sequencer.chain.blocks[1].timestamp < entry.admitted_at + 50

        # Failure release after the victim is re-paused.
        out = run(load("failure_release"))
        assert [(a.kind, a.detail) for a in out.report.audit] == [
            ("admitted", "block=0"),
            ("released", "criterion=failure"),
        ]
        assert out.report.counters.release_sims == 1

        # Administrative: one operator approval suffices...
        out = run(load("admin_release_operator"))
        assert [(a.kind, a.detail) for a in out.report.audit] == [
            ("admitted", "block=0"),
            ("approval", "role=operator"),
            ("released", "criterion=administrative"),
        ]
        # ...while victim admins must be unanimous (two victims, two approvals).
        from rollupsim.mempool import Mempool, PoolConfig
        from rollupsim.quarantine import PendingApprovals, QuarantineConfig, QuarantineStore, Released
        from rollupsim.vm import WorldState

        store = QuarantineStore(QuarantineConfig(operators=frozenset()), Mempool(PoolConfig(), WorldState()))
        second_victim, second_admin = addr(0xD1), addr(0xD2)
        verdict = Verdict(True, ("a", "b"), (VAULT, second_victim), 10)
        held = exploit_tx()
        store.admit(held, verdict, now=0, block_no=0, victim_admins={VAULT: ADMIN, second_victim: second_admin})
        assert store.approve_release(tx_hash(held), ADMIN, now=1) == PendingApprovals((second_victim,))
        assert store.approve_release(tx_hash(held), second_admin, now=2) == Released("administrative")

        # Economic: stake == damage stays held, one more wei releases.
        out = run(load("economic_insufficient"))
        assert [(a.kind, a.detail) for a in out.report.audit] == [
            ("admitted", "block=0"),
            ("held", "criterion=economic threshold=100"),
        ]
        assert out.sequencer.store.is_active(out.report.entries[0].key)
        out = run(load("economic_release"))
        assert [(a.kind, a.detail) for a in out.report.audit] == [
            ("admitted", "block=0"),
            ("held", "criterion=economic threshold=100"),
            ("released", "criterion=economic"),
        ]
        assert out.sequencer.ledger.locked == {}  # refunded after inclusion


def test_06_deposit_permanence_and_escape_hatch():
    with criterion("deposit-permanence-escape-hatch"):
        out = run(load("deposit_refused"))
        refused_dep = out.history.blocks[0].deposits[1]
        refused_key = deposit_id(refused_dep)

        # never on L2, in any block of any corpus run
        for name in corpus():
            for block in run(load(name)).sequencer.chain.blocks:
                assert refused_key not in {deposit_id(d) for d in block.deposits}

        # held forever, refused in escrow, refundable exactly once
        assert out.sequencer.store.is_active(refused_key)
        l1 = out.sequencer.l1
        assert l1.escrow[refused_key].status is EscrowStatus.REFUSED
        assert l1.escape_withdraw(refused_key, now=10) == RefundResult(value=refused_dep.value)
        assert l1.escape_withdraw(refused_key, now=11) == NotEligible("already_refunded")

        # cross-layer conservation held at every block (checked in-run), and
        # still holds at the end across the whole corpus
        for name in corpus():
            result = run(load(name))
            included = {deposit_id(d) for b in result.sequencer.chain.blocks for d in b.deposits}
            for key, escrow in result.sequencer.l1.escrow.items():
                assert (escrow.status is EscrowStatus.ACCEPTED) == (key in included)


def test_07_bitmap_codec():
    with criterion("bitmap-codec"):
        assert encode_bitmap([True, False, True]) == [5]
        assert len(encode_bitmap([True] * 257)) == 2
        rng = random.Random(424242)
        for _ in range(10_000):
            flags = [rng.random() < 0.5 for _ in range(rng.randrange(0, 1025))]
            assert decode_bitmap(encode_bitmap(flags), len(flags)) == flags


def test_08_released_duplicate_passthrough():
    with criterion("released-duplicate-passthrough"):
        out = run(load("duplicate_passthrough"))
        admitted = [a for a in out.report.audit if a.kind == "admitted"]
        assert len(admitted) == 1  # the resubmission never re-enters
        resubmitted = [
            t for b in out.sequencer.chain.blocks for t in b.transactions if t.sender == ATTACKER
        ]
        assert len(resubmitted) == 1 and resubmitted[0].max_fee == 2  # the gas-bumped duplicate
        assert tx_hash(resubmitted[0]) != out.report.entries[0].key


def test_09_determinism_under_parallelism():
    with criterion("parallel-determinism"):
        for name in corpus():
            outputs = []
            for workers in (1, 2, 8):
                scenario = load(name)
                scenario.seq_config = scenario.seq_config._replace(workers=workers)
                out = run(scenario)
                outputs.append((render_report(out.report), render_history(out.history)))
            assert outputs[0] == outputs[1] == outputs[2], name
