import sys
from pathlib import Path

import pytest

from helpers import ADMIN, ATTACKER, VAULT, addr, python_calls, tx
from test_acceptance import _dos_scenario
from rollupsim.core import DuplicateKey, deposit_id, tx_hash
from rollupsim.derivation import DerivationGap, derive
from rollupsim.detection import BENIGN_VERDICT, DetectionOutcome, InvariantDetector
from rollupsim.formats import parse_scenario, render_report
from rollupsim.l1da import EscrowStatus, L1Chain
from rollupsim.mempool import Mempool, PoolStatus
from rollupsim.quarantine import QuarantineStore, ReleasedRegistry
from rollupsim.sequencer import Scenario, ScenarioError, Sequencer, SubmitEvent, run
from rollupsim.vm import Account, PreconditionFailed, execute_transaction, make_state

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return parse_scenario((SCENARIOS / f"{name}.scn").read_text(), default_name=name)


def run_named(name):
    return run(load(name))


# economic_release's vault and its solvency invariant.
VAULT_LINES = [line for line in (SCENARIOS / "economic_release.scn").read_text().splitlines()
               if line.startswith(("genesis contract", "genesis invariant"))]


class TestBuildBlock:
    def test_all_benign_included_in_pending_order(self):
        out = run_named("nonce_chain")
        assert [t.nonce for t in out.sequencer.chain.blocks[0].transactions] == [0, 1, 2]

    def test_flood_keeps_only_benign(self):
        out = run_named("flood")
        first = out.sequencer.chain.blocks[0]
        assert len(first.transactions) == 3
        assert all(t.recipient != VAULT for t in first.transactions)
        assert len(out.report.entries) == 30

    def test_refused_deposit_indices(self):
        out = run_named("deposit_refused")
        head = out.sequencer.chain.blocks[0]
        assert [d.l1_index for d in head.deposits] == [0, 2]
        dep_entries = [e for e in out.report.entries if e.kind == "deposit"]
        assert len(dep_entries) == 1 and dep_entries[0].sequence == 1
        record = out.sequencer.l1.inbox[0]
        assert record.bitmap == (5,)  # flags [1,0,1]
        assert record.deposit_count == 3

    def test_deposits_only_on_epoch_heads(self):
        out = run_named("multi_epoch_deposits")
        blocks = out.sequencer.chain.blocks
        assert [len(b.deposits) for b in blocks] == [1, 0, 1, 0]
        assert [b.epoch for b in blocks] == [0, 0, 1, 1]

    def test_quarantined_hash_never_included(self):
        out = run_named("pause_exploit")
        held = {e.key for e in out.report.entries}
        for block in out.report.blocks:
            assert held.isdisjoint(set(block.tx_hashes))

    def test_maintenance_runs_once_per_block_with_zero_sims(self):
        out = run_named("flood")
        assert out.report.counters.maintenance_sims == 0

    def test_economic_release_refunds_after_inclusion(self):
        out = run_named("economic_release")
        seq = out.sequencer
        assert seq.store.ledger.locked == {}
        assert seq.store.ledger.available(ATTACKER) == 101

    def test_a_fee_bump_of_a_released_tx_settles_its_lock(self):
        # The stake releases drain B and locks 100; the fee bump R replaces B
        # in the pool and is included as a released duplicate. B's hash
        # never retires, so its lock settles on the replacement.
        text = (SCENARIOS / "economic_release.scn").read_text().replace("run blocks=4", "run blocks=5")
        text += "event 5 submit sender=0xb2 nonce=0 to=0xc3 data=0x00 max_fee=2 gas_limit=30\n"
        seq = run(parse_scenario(text)).sequencer
        assert [t.max_fee for t in seq.chain.blocks[2].transactions] == [2]
        assert seq.store.ledger.locked == {}
        assert seq.store.ledger.available(ATTACKER) == 101

    def test_a_zero_fee_resubmission_keeps_the_lock_until_the_tx_leaves(self):
        """base_fee=0. The stake releases the zero-fee drain B at t=3 and
        locks 100; B is resubmitted at once. A replacement must raise
        max_fee, so the resubmission is refused and B, still pooled,
        keeps its lock until block 1 includes it."""
        drain = "sender=0xb2 nonce=0 to=0xc3 data=0x00 max_fee=0 gas_limit=30"
        lines = [
            "scenario v1",
            "config fee_recipient=0xfe operators=0xee base_fee=0",
            "genesis account 0xb2 balance=10000",
            *VAULT_LINES,
            "run blocks=2",
            f"event 1 submit {drain}",
            "event 3 stake account=0xb2 amount=101",
            f"event 3 submit {drain}",
        ]
        seq = Sequencer(parse_scenario("\n".join(lines) + "\n"))
        locks = []

        def checked(now, _build=seq.build_block):
            locks.append(dict(seq.store.ledger.locked))
            return _build(now)

        seq.build_block = checked
        out = seq.run()
        (entry,) = out.report.entries
        assert locks == [{}, {entry.key: (ATTACKER, 100)}]
        assert [tx_hash(t) for t in seq.chain.blocks[1].transactions] == [entry.key]
        assert seq.store.ledger.locked == {} and seq.store.ledger.available(ATTACKER) == 101

    @staticmethod
    def evicted_drain(stake: bool):
        """economic_release's drain B, pending alone at t=1, is queued behind
        0xa0's transfer at t=3 (max_pending=1), after the stake released it
        or while still held, and evicted at t=5 by 0xb3's richer submit
        (max_queued=1)."""
        lines = [
            "scenario v1",
            "config fee_recipient=0xfe operators=0xee max_pending=1 max_queued=1",
            *(f"genesis account {a} balance=10000" for a in ("0xa0", "0xb2", "0xb3")),
            *VAULT_LINES,
            "run blocks=5",
            "event 1 submit as=B sender=0xb2 nonce=0 to=0xc3 data=0x00 gas_limit=30",
            "event 3 submit sender=0xa0 nonce=0 to=0xa0 max_fee=0 gas_limit=21",
            *(["event 3 stake account=0xb2 amount=101"] if stake else []),
            "event 5 submit sender=0xb3 nonce=0 to=0xb3 max_fee=5 gas_limit=21",
        ]
        out = run(parse_scenario("\n".join(lines) + "\n"))
        (entry,) = out.report.entries
        assert entry.key not in out.sequencer.mempool.entries and not out.sequencer.mempool._held
        return out, entry.key

    def test_an_evicted_released_tx_settles_its_lock(self):
        out, key = self.evicted_drain(stake=True)
        assert [(a.kind, a.at) for a in out.report.audit if a.entry == key] == [("admitted", 2), ("released", 3)]
        assert out.sequencer.store.ledger.locked == {}
        assert out.sequencer.store.ledger.available(ATTACKER) == 101

    def test_an_evicted_held_tx_retires_from_quarantine(self):
        out, key = self.evicted_drain(stake=False)
        assert (out.report.audit[-1].entry, out.report.audit[-1].at) == (key, 5)
        assert [(a.kind, a.detail) for a in out.report.audit] == [
            ("admitted", "block=0"),
            ("retired", "criterion=mempool"),
        ]
        assert not out.sequencer.store.active and not out.sequencer.store.ledger.stakes

    def test_evicted_released_and_held_drains_settle_and_derive(self):
        """max_pending=2, max_queued=1. Drains B (fee 1) and C (fee 2) are
        held at block 0. At t=3 0xa0's zero-fee transfer takes a pending
        slot, the stake releases B (locking 100), and 0xa1's zero-fee
        transfer takes the other, which queues B beside C: B is evicted.
        At t=5 0xb3's richer transfer evicts the still-held C."""
        lines = [
            "scenario v1",
            "config fee_recipient=0xfe operators=0xee max_pending=2 max_queued=1",
            *(f"genesis account {a} balance=10000" for a in ("0xa0", "0xa1", "0xb2", "0xb3", "0xb4")),
            *VAULT_LINES,
            "run blocks=4",
            "event 1 submit as=B sender=0xb2 nonce=0 to=0xc3 data=0x00 gas_limit=30",
            "event 1 submit as=C sender=0xb4 nonce=0 to=0xc3 data=0x00 max_fee=2 gas_limit=30",
            "event 3 submit sender=0xa0 nonce=0 to=0xa0 max_fee=0 gas_limit=21",
            "event 3 stake account=0xb2 amount=101",
            "event 3 submit sender=0xa1 nonce=0 to=0xa1 max_fee=0 gas_limit=21",
            "event 5 submit sender=0xb3 nonce=0 to=0xb3 max_fee=5 gas_limit=21",
        ]
        out = run(parse_scenario("\n".join(lines) + "\n"))
        seq = out.sequencer
        b, c = (entry.key for entry in sorted(out.report.entries, key=lambda e: e.sender))
        assert b not in seq.mempool.entries and c not in seq.mempool.entries
        assert seq.store.ledger.locked == {} and seq.store.ledger.available(ATTACKER) == 101
        assert [(a.entry, a.kind, a.at, a.detail) for a in out.report.audit if a.kind != "admitted"] == [
            (b, "released", 3, "criterion=economic"),
            (c, "retired", 5, "criterion=mempool"),
        ]
        assert not seq.store.active and not seq.mempool._held
        assert derive(out.history).final_root == out.report.final_root

    def test_every_pool_exit_is_settled_and_the_queued_cap_holds(self):
        """max_queued=1. A pools nonces 0, 1 (value 9000) and 2; C pools a
        gapped nonce at fee 9. Block 0 includes nonce 0 and leaves A 500, so
        its retire drops nonce 1, and nonce 2 turns queued beside C's: one
        over the cap. Then A bumps nonce 2 at fee 2. After every event and
        every block, the entries that left the pool are the exits the
        sequencer settled, and the queued side holds at most one entry."""
        lines = [
            "scenario v1",
            "config fee_recipient=0xfe max_queued=1",
            *(f"genesis account {a} balance=10000" for a in ("0xa0", "0xc0")),
            "run blocks=2",
            "event 1 submit sender=0xa0 nonce=0 to=0xfe value=9479 gas_limit=21",
            "event 1 submit sender=0xa0 nonce=1 to=0xfe value=9000 gas_limit=21",
            "event 1 submit sender=0xa0 nonce=2 to=0xfe gas_limit=21",
            "event 1 submit sender=0xc0 nonce=1 to=0xfe max_fee=9 gas_limit=21",
            "event 3 submit sender=0xa0 nonce=2 to=0xfe max_fee=2 gas_limit=21",
        ]
        seq = Sequencer(parse_scenario("\n".join(lines) + "\n"))
        settled, settle = [], seq.store.settle
        seq.store.settle = lambda exits, *rest: settled.extend(h for h, _ in exits) or settle(exits, *rest)
        queued_sizes = []

        def checked(step):
            def run_step(*args):
                before = dict(seq.mempool.entries)
                settled.clear()
                step(*args)
                left = {h for h, e in before.items() if seq.mempool.entries.get(h) is not e}
                assert left == set(settled) and len(settled) == len(left), step.__name__
                queued_sizes.append(sum(e.status is PoolStatus.QUEUED for e in seq.mempool.entries.values()))

            return run_step

        seq._apply_event, seq.build_block = checked(seq._apply_event), checked(seq.build_block)
        seq.run()
        assert max(queued_sizes) == 1
        assert [t.nonce for t in seq.chain.blocks[0].transactions] == [0]
        (kept,) = seq.mempool.entries.values()  # A's bump was refused for the richer queued C
        assert (kept.tx.sender, kept.tx.nonce, kept.tx.max_fee) == (addr(0xC0), 1, 9)

    def test_every_included_tx_retires_from_the_pool_in_its_own_block(self, monkeypatch):
        # So a lock keyed by an included hash settles through `retire`.
        retired = []
        retire = Mempool.retire

        def recording(pool, now, state):
            exits = retire(pool, now, state)
            retired.append({h for h, _ in exits})
            return exits

        monkeypatch.setattr(Mempool, "retire", recording)
        for path in sorted(SCENARIOS.glob("*.scn")):
            retired.clear()
            blocks = run_named(path.stem).sequencer.chain.blocks
            assert len(retired) == len(blocks), path.stem
            for block, removed in zip(blocks, retired):
                assert {tx_hash(t) for t in block.transactions} <= removed, (path.stem, block.number)

    def test_replacement_keeps_old_entry_until_nonce_retires_it(self):
        out = run_named("replacement_benign")
        kinds = [(a.kind, a.detail) for a in out.report.audit]
        assert ("admitted", "block=0") in kinds
        assert any(k == "replaced" for k, _ in kinds)
        assert ("retired", "criterion=nonce") in kinds
        assert not out.sequencer.store.active

    def test_released_duplicate_not_requarantined(self):
        out = run_named("duplicate_passthrough")
        assert len(out.report.entries) == 1
        assert sum(1 for a in out.report.audit if a.kind == "admitted") == 1
        # the resubmission drained the vault after release
        assert out.sequencer.chain.tip_state.balance_of(VAULT) == 0

    def test_underpriced_released_tx_waits_for_base_fee(self):
        out = run_named("underpriced_release")
        blocks = out.sequencer.chain.blocks
        assert [len(b.transactions) for b in blocks] == [0, 0, 1]
        assert blocks[2].base_fee == 1

    def test_mempool_lifetime_drop_is_retirement_not_release(self):
        out = run_named("mempool_lifetime")
        assert any(a.kind == "retired" and a.detail == "criterion=mempool" for a in out.report.audit)
        assert not any(a.kind == "released" for a in out.report.audit)
        assert not out.sequencer.store.registry.keys

    def test_deferred_flow_rejoins_next_block(self):
        out = run_named("defer_budget")
        assert out.report.counters.deferred_count == 1
        admitted_blocks = sorted(e.admitted_block for e in out.report.entries)
        assert admitted_blocks == [0, 1]


class MaintenanceExecuted(BaseException):
    """Raised by any transaction execution during quarantine maintenance; a
    BaseException, so that no `except Exception` in the code can swallow it."""


def refuse_executions_during_maintenance(monkeypatch):
    """Make every transaction execution raise while
    `QuarantineStore.per_block_maintenance` runs; returns the list its calls
    are counted in."""
    calls = []
    maintain = QuarantineStore.per_block_maintenance

    def refuse(*args, **kwargs):
        raise MaintenanceExecuted("quarantine maintenance executed a transaction")

    def guarded(store, *args, **kwargs):
        calls.append(None)
        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.startswith("rollupsim") and hasattr(module, "execute_transaction"):
                    patch.setattr(module, "execute_transaction", refuse)
            return maintain(store, *args, **kwargs)

    monkeypatch.setattr(QuarantineStore, "per_block_maintenance", guarded)
    return calls


class TestMaintenanceNeverExecutes:
    """Quarantine maintenance runs once per block and executes no transaction."""

    def test_acceptance_flood(self, monkeypatch):
        calls = refuse_executions_during_maintenance(monkeypatch)
        out = run(parse_scenario(_dos_scenario(True)))
        assert len(out.sequencer.store.active) == 1000
        assert len(calls) == len(out.report.blocks) == 100

    @pytest.mark.parametrize("name", ["kitchen_sink", "flood"])
    def test_corpus(self, name, monkeypatch):
        calls = refuse_executions_during_maintenance(monkeypatch)
        out = run_named(name)
        assert len(calls) == len(out.report.blocks)

    def test_failure_releases_execute_outside_maintenance(self, monkeypatch):
        calls = refuse_executions_during_maintenance(monkeypatch)
        out = run_named("failure_release")
        assert len(calls) == len(out.report.blocks)
        assert out.report.counters.release_sims >= 1
        assert any(a.detail == "criterion=failure" for a in out.report.audit)


class TestValueConservation:
    def test_total_wei_accounts_for_mints_and_burns(self):
        # final supply = genesis supply + accepted-deposit mints - burned base fees,
        # recomputed by replaying every block independently of the pipeline.
        from rollupsim.vm import BlockContext

        for path in sorted(SCENARIOS.glob("*.scn")):
            scenario = load(path.stem)
            out = run(scenario)
            state = scenario.genesis
            minted = 0
            burned = 0
            for block in out.sequencer.chain.blocks:
                bctx = BlockContext(block.base_fee, scenario.seq_config.fee_recipient)
                for dep in block.deposits:
                    result = execute_transaction(state, dep, bctx)
                    minted += dep.value
                    state = result.post_state()
                for t in block.transactions:
                    result = execute_transaction(state, t, bctx)
                    burned += result.gas_used * block.base_fee
                    state = result.post_state()
            genesis_supply = sum(a.balance for a in scenario.genesis.accounts.values())
            final_supply = sum(a.balance for a in out.sequencer.chain.tip_state.accounts.values())
            assert final_supply == genesis_supply + minted - burned, path.stem
            assert state == out.sequencer.chain.tip_state, path.stem


def full_deposit_walk(seq: Sequencer) -> None:
    """The walk the per-block check replaced, as its oracle: every escrow
    entry ever posted is accepted exactly when the chain minted it."""
    minted = {deposit_id(d) for block in seq.chain.blocks for d in block.deposits}
    for key, escrow in seq.l1.escrow.items():
        assert (escrow.status is EscrowStatus.ACCEPTED) == (key in minted), key.hex0x()


class WalkingSequencer(Sequencer):
    def build_block(self, now):
        block = super().build_block(now)
        full_deposit_walk(self)
        self.walked = getattr(self, "walked", 0) + 1
        return block


class TestDepositConservation:
    def test_full_walk_holds_after_every_block_of_every_scenario(self):
        for path in sorted(SCENARIOS.glob("*.scn")):
            scenario = load(path.stem)
            seq = WalkingSequencer(scenario)
            seq.run()
            assert getattr(seq, "walked", 0) == scenario.run_blocks, path.stem

    @staticmethod
    def patch_mints(monkeypatch, change):
        """`post_batch` returns `change(its mints, the epoch's deposits)` on an epoch head."""
        post_batch = L1Chain.post_batch

        def patched(l1, record):
            minted = post_batch(l1, record)
            return change(minted, l1.deposits_for_epoch(record.epoch)) if record.has_bitmap else minted

        monkeypatch.setattr(L1Chain, "post_batch", patched)

    def test_build_block_refuses_mints_detection_did_not_accept(self, monkeypatch):
        # L1 mints every deposit, whatever the bitmap says: the refused one
        # is then accepted but never minted.
        refused = load("deposit_refused").events[0].deposits[1]
        self.patch_mints(monkeypatch, lambda minted, deposits: deposits)
        with pytest.raises(RuntimeError, match=f"^accepted deposit {deposit_id(refused).hex0x()} never minted$"):
            run_named("deposit_refused")

    def test_build_block_refuses_accepted_deposits_l1_does_not_mint(self, monkeypatch):
        first = load("deposits_benign").events[0].deposits[0]
        self.patch_mints(monkeypatch, lambda minted, deposits: minted[1:])
        with pytest.raises(RuntimeError, match=f"^unaccepted deposit {deposit_id(first).hex0x()} appears on L2$"):
            run_named("deposits_benign")


class TestBatcherFollowsTheReplicasRules:
    def test_a_block_not_after_its_parent_is_refused_when_posted(self):
        """Two blocks built at one time: the replica refuses such a history
        (exit 4), so the batcher refuses to post the second and L1 keeps one record."""
        seq = Sequencer(load("single_transfer"))
        seq.build_block(2)
        with pytest.raises(DerivationGap, match="epoch 0: block 1 time 2 is not after 2"):
            seq.build_block(2)
        assert len(seq.l1.inbox) == 1


class TestQuarantineLiveness:
    def test_every_entry_exits_within_period_plus_one_block(self):
        # Censorship bound: a held (non-deposit) tx leaves the quarantine, one
        # way or another, at most one block after its period elapses.
        for path in sorted(SCENARIOS.glob("*.scn")):
            scenario = load(path.stem)
            out = run(scenario)
            period = scenario.quarantine_config.time_criterion_period
            block_time = scenario.seq_config.block_time
            run_end = out.sequencer.chain.blocks[-1].timestamp if out.sequencer.chain.blocks else 0
            exits = {
                a.entry: a.at for a in out.report.audit if a.kind in ("released", "retired")
            }
            for entry in out.report.entries:
                if entry.kind == "deposit":
                    continue
                bound = entry.admitted_at + period + block_time
                if entry.key in exits:
                    assert exits[entry.key] <= bound, path.stem
                else:
                    assert run_end < bound, path.stem  # run ended before the bound


class TestEscrowWiring:
    def test_refused_deposit_refused_in_escrow(self):
        out = run_named("deposit_refused")
        statuses = sorted(e.status.value for e in out.sequencer.l1.escrow.values())
        assert statuses == ["accepted", "accepted", "refused"]

    def test_accepted_deposits_minted(self):
        out = run_named("deposits_benign")
        tip = out.sequencer.chain.tip_state
        assert tip.balance_of(addr(6)) == 30
        assert tip.balance_of(addr(7)) == 40


class TestScenarioDriver:
    def test_event_after_final_block_rejected(self):
        text = (SCENARIOS / "empty.scn").read_text() + "event 500 advance seconds=1\n"
        with pytest.raises(ScenarioError):
            run(parse_scenario(text))

    def test_l1_block_after_epoch_head_rejected(self):
        text = (
            "scenario v1\n"
            "config blocks_per_epoch=1\n"
            "genesis account 0x01 balance=10\n"
            "run blocks=3\n"
            "event 3 l1_block deposits=-\n"  # epoch 0 head built at t=2
        )
        with pytest.raises(ScenarioError):
            run(parse_scenario(text))

    def test_advance_shifts_the_clock(self):
        out = run_named("time_release")
        assert [b.timestamp for b in out.sequencer.chain.blocks] == [2, 4, 52, 54]


class TestThroughputNeutrality:
    """With nothing to flag, the guarded pipeline's blocks are byte-identical
    to a plain sequencer that includes every executable candidate."""

    BENIGN_SCENARIOS = [
        "empty",
        "single_transfer",
        "nonce_chain",
        "create_tx",
        "deposits_benign",
        "base_fee_gate",
        "multi_epoch_deposits",
        "replacement_underpriced",
    ]

    @pytest.mark.parametrize("name", BENIGN_SCENARIOS)
    def test_blocks_match_plain_sequencer(self, name, monkeypatch):
        guarded = run_named(name)

        def include_everything(cset, invariants, detector, ctx, workers=1, preapproved=frozenset()):
            outcome = DetectionOutcome()
            state = cset.tip_state
            for tx in cset.txs:
                try:
                    sim = execute_transaction(state, tx, ctx)
                except PreconditionFailed:
                    outcome.deferred.append(tx)
                    continue
                outcome.benign.append(tx)
                state = sim.post_state()
            outcome.final_state = state
            return outcome

        import rollupsim.sequencer as seq_mod

        monkeypatch.setattr(seq_mod, "hybrid_detect", include_everything)
        plain = run_named(name)
        assert [b.state_root for b in plain.report.blocks] == [b.state_root for b in guarded.report.blocks]
        assert [b.tx_hashes for b in plain.report.blocks] == [b.tx_hashes for b in guarded.report.blocks]
        assert [b.deposit_ids for b in plain.report.blocks] == [b.deposit_ids for b in guarded.report.blocks]
        assert plain.report.final_root == guarded.report.final_root


class TestScreeningCallCount:
    """A count, not a timer: the Python-level calls that building one block
    of plain transfers makes per candidate, with nothing ever released and
    no invariant registered, after one warm-up block on a twin sequencer.
    No candidate is screened for a released duplicate while nothing was
    released, judging it returns before any sort when nothing watches a
    contract, and its execution writes the envelope in one step, so a cost
    paid per candidate whatever it touched shows here."""

    CANDIDATES = 20

    def seeded(self) -> Sequencer:
        senders = [addr(0x100 + i) for i in range(self.CANDIDATES)]
        seq = Sequencer(Scenario(name="transfers", genesis=make_state({s: Account(balance=1_000) for s in senders})))
        for i, sender in enumerate(senders):
            transfer = tx(sender, 0, addr(0x200 + i), value=7, gas_limit=21)
            assert seq.mempool.submit(transfer, 1).outcome == "accepted"
        return seq

    def test_a_block_of_plain_transfers(self):
        self.seeded().build_block(2)  # the warm-up
        seq = self.seeded()
        counted = python_calls(seq.build_block, 2, warm_up=False)
        block, codes, names = counted.result, counted.calls, counted.names
        assess = InvariantDetector.assess.__code__
        sorts_in_assess = [1 for caller, fn in counted.c_calls if fn is sorted and caller is assess]
        assert len(block.transactions) == self.CANDIDATES and not seq.store.registry.keys
        assert DuplicateKey.__new__.__code__ not in codes, names
        assert ReleasedRegistry.is_released_duplicate.__code__ not in codes, names
        assert assess in codes and sorts_in_assess == []
        assert len(codes) <= 25 * self.CANDIDATES, len(codes) / self.CANDIDATES  # 24.3; 35.35 when the envelope ran its accessors; 38.5 before the checks seeded the scratch and an empty registry skipped the screen; 75.5 when every key took calls


class TestSubmitCallCount:
    """A count, not a timer: the Python-level calls one plain-transfer submit
    makes through `Sequencer._apply_event`, from a new sender and with a
    transaction not hashed before, after a warm-up on a twin sequencer. A
    submit that removes nothing settles nothing."""

    SUBMITS = 20

    def seeded(self):
        senders = [addr(0x100 + i) for i in range(self.SUBMITS)]
        seq = Sequencer(Scenario(name="transfers", genesis=make_state({s: Account(balance=1_000) for s in senders})))
        return seq, [SubmitEvent(1, tx(s, 0, addr(0x200 + i), value=7, gas_limit=21)) for i, s in enumerate(senders)]

    @staticmethod
    def submit_all(seq, events):
        for event in events:
            seq._apply_event(event)

    def test_a_plain_transfer_submit(self):
        self.submit_all(*self.seeded())  # the warm-up
        seq, events = self.seeded()
        counted = python_calls(self.submit_all, seq, events, warm_up=False)
        assert len(seq.mempool.entries) == self.SUBMITS
        per_submit = (len(counted.calls) - 1) / self.SUBMITS  # less `submit_all` itself
        assert per_submit <= 11, (per_submit, counted.names)  # 11.0
