"""Whole-pipeline fuzz: random scenarios must stay worker-invariant and
re-derivable byte for byte from their L1 export, and the replica must refuse
every history the sequencer could not have written."""
import functools
import random
from pathlib import Path

import pytest

from rollupsim.core import encode_block
from rollupsim.derivation import DerivationGap, derive
from rollupsim.formats import parse_history, parse_scenario, render_history, render_report
from rollupsim.l1da import L1Block, L1Chain, L1Error
from rollupsim.sequencer import run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GATED_VAULT = (
    "(set 'paused' (or (and (sload 'paused') (not (and (eq caller 0xa1) (eq calldata 1)))) "
    "(and (eq caller 0xa1) (eq calldata 2)))) "
    "(require (or (eq caller 0xa1) (not (sload 'paused')))) "
    "(pay caller (mul (balance self) (not (eq caller 0xa1))))"
)


def random_scenario_text(rng):
    lines = ["scenario v1 name=fuzz", "config fee_recipient=0xfe operators=0xee"]
    bpe = rng.choice([1, 2, 4])
    blocks = rng.randrange(2, 9)
    lines.append(f"config blocks_per_epoch={bpe} detection_budget={rng.choice(['2', '16', 'unlimited'])}")
    n_accounts = rng.randrange(3, 8)
    for i in range(n_accounts):
        lines.append(f"genesis account 0x{0x01 + i:02x} balance={rng.randrange(100, 20000)}")
    lines.append("genesis account 0xa1 balance=20000")
    storage = " storage='paused'=1" if rng.random() < 0.5 else ""
    lines.append(f"genesis contract 0xc3 admin=0xa1 balance={rng.choice([0, 60, 100])}{storage} code={{{GATED_VAULT}}}")
    lines.append("genesis invariant id=solvent contract=0xc3 registered_by=0xa1 predicate={(ge (balance self) 50)}")
    lines.append(f"run blocks={blocks}")
    nonces = {}
    l1_count = 0
    t = 0
    for _ in range(rng.randrange(1, 14)):
        t += rng.randrange(0, 3)
        if t > blocks * 2:
            break
        roll = rng.random()
        if roll < 0.5:
            sender = f"0x{0x01 + rng.randrange(n_accounts):02x}"
            nonce = nonces.get(sender, 0)
            nonces[sender] = nonce + 1
            if rng.random() < 0.4:
                data = rng.choice(["0x00", "0x00", "0x01", "0x02"])
                lines.append(
                    f"event {t} submit sender={sender} nonce={nonce} to=0xc3 data={data} "
                    f"max_fee={rng.randrange(1, 4)} gas_limit=30"
                )
            else:
                to = f"0x{0x01 + rng.randrange(n_accounts):02x}"
                lines.append(
                    f"event {t} submit sender={sender} nonce={nonce} to={to} "
                    f"value={rng.randrange(0, 40)} max_fee={rng.randrange(1, 4)} gas_limit=21"
                )
        elif roll < 0.65:
            head = l1_count * bpe
            if head < blocks and t <= (head + 1) * 2:
                deps = []
                for j in range(rng.randrange(0, 4)):
                    if rng.random() < 0.3:
                        deps.append(f"sender=0x{0xD0 + j:02x} recipient=0xc3 value=0 data=0x00 gas_limit=30")
                    else:
                        deps.append(
                            f"sender=0x{0xD0 + j:02x} recipient=0x{0x40 + j:02x} "
                            f"value={rng.randrange(1, 30)} gas_limit=21"
                        )
                body = f"deposits={{{' ; '.join(deps)}}}" if deps else "deposits=-"
                lines.append(f"event {t} l1_block {body}")
                l1_count += 1
        elif roll < 0.8:
            lines.append(f"event {t} set_base_fee fee={rng.randrange(1, 4)}")
        elif roll < 0.9:
            lines.append(f"event {t} stake account=0x{0x01 + rng.randrange(n_accounts):02x} amount={rng.randrange(0, 200)}")
        else:
            lines.append(f"event {t} advance seconds={rng.randrange(0, 30)}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def fuzz_cases():
    """The 60 random cases: (scenario text, single-worker run outcome)."""
    rng = random.Random(20_077)
    texts = [random_scenario_text(rng) for _ in range(60)]
    return tuple((text, run(parse_scenario(text))) for text in texts)


@functools.lru_cache(maxsize=None)
def sequencer_histories():
    """(label, L1 history) of every corpus scenario and every random case."""
    corpus = [
        (path.stem, run(parse_scenario(path.read_text(), default_name=path.stem)).history)
        for path in sorted(SCENARIOS.glob("*.scn"))
    ]
    return tuple(corpus + [(f"case {case}", out.history) for case, (_, out) in enumerate(fuzz_cases())])


def test_random_scenarios_worker_invariant_and_rederivable():
    for case, (text, out1) in enumerate(fuzz_cases()):
        scn = parse_scenario(text)
        scn.seq_config = scn.seq_config._replace(workers=4)
        out2 = run(scn)
        assert render_report(out1.report) == render_report(out2.report), f"case {case}"
        derived = derive(parse_history(render_history(out1.history)))
        assert [encode_block(b) for b in derived.blocks] == [
            encode_block(b) for b in out1.sequencer.chain.blocks
        ], f"case {case}"
        assert derived.final_root == out1.report.final_root, f"case {case}"


def replica_l1(history):
    """The L1 model a replica builds from a history's L1 blocks."""
    l1 = L1Chain()
    for block in history.blocks:
        l1.add_block(block.timestamp, block.deposits)
    return l1


def test_sequencer_histories_keep_the_timing_relations():
    """The relations the replica enforces hold on everything the sequencer writes:
    block times strictly increase, L1 block times never decrease, every L1
    block's epoch head is in the inbox, and no epoch head is earlier than its
    L1 block."""
    histories = sequencer_histories()
    assert len(histories) == 27 + 60
    for label, history in histories:
        times = [record.l2_timestamp for record in history.inbox]
        assert all(a < b for a, b in zip(times, times[1:])), label
        l1_times = [block.timestamp for block in history.blocks]
        assert all(a <= b for a, b in zip(l1_times, l1_times[1:])), label
        assert all(block.number * history.blocks_per_epoch < len(history.inbox) for block in history.blocks), label
        l1 = replica_l1(history)
        for record in history.inbox:
            if record.l2_number % history.blocks_per_epoch == 0 and record.epoch < len(l1.blocks):
                assert record.l2_timestamp >= l1.blocks[record.epoch].timestamp, label


# -- histories the sequencer cannot write: each mutation returns None where it does not fit --

def _with_record(history, index, record):
    return history._replace(inbox=history.inbox[:index] + (record,) + history.inbox[index + 1:])


def _with_block(history, index, block):
    return history._replace(blocks=history.blocks[:index] + (block,) + history.blocks[index + 1:])


def head_without_bitmap(history):
    """An epoch head with no deposits drops its empty bitmap."""
    for index, record in enumerate(history.inbox):
        if record.deposit_count == 0:
            return _with_record(history, index, record._replace(deposit_count=None, bitmap=()))
    return None


def l1block_out_of_place(history):
    """L1 blocks 0 and 1 swap their numbers."""
    if len(history.blocks) < 2:
        return None
    first, second = history.blocks[:2]
    swapped = (first._replace(number=second.number), second._replace(number=first.number))
    return history._replace(blocks=swapped + history.blocks[2:])


def deposit_out_of_place(history):
    """A deposit carries an index past its block's deposits."""
    for index, block in enumerate(history.blocks):
        if block.deposits:
            moved = block.deposits[0]._replace(l1_index=len(block.deposits))
            return _with_block(history, index, block._replace(deposits=(moved,) + block.deposits[1:]))
    return None


def time_not_after(history):
    """Block 1 takes block 0's time."""
    if len(history.inbox) < 2:
        return None
    return _with_record(history, 1, history.inbox[1]._replace(l2_timestamp=history.inbox[0].l2_timestamp))


def head_before_l1(history):
    """An L1 block is restamped to after the epoch head that settles it."""
    for index, block in enumerate(history.blocks):
        head = index * history.blocks_per_epoch
        if head < len(history.inbox):
            return _with_block(history, index, block._replace(timestamp=history.inbox[head].l2_timestamp + 1))
    return None


def l1_time_backwards(history):
    """An L1 block is restamped to just before the one it follows."""
    for index in range(1, len(history.blocks)):
        earlier = history.blocks[index - 1].timestamp
        if earlier > 0:
            return _with_block(history, index, history.blocks[index]._replace(timestamp=earlier - 1))
    return None


def l1block_past_inbox(history):
    """An L1 block without deposits is appended whose epoch head lies past the inbox."""
    number = len(history.blocks)
    if number * history.blocks_per_epoch < len(history.inbox):
        return None
    time = history.blocks[-1].timestamp if history.blocks else 0
    return history._replace(blocks=history.blocks + (L1Block(number, time, ()),))


@pytest.mark.parametrize(
    "mutate",
    [
        head_without_bitmap, l1block_out_of_place, deposit_out_of_place, time_not_after, head_before_l1,
        l1_time_backwards, l1block_past_inbox,
    ],
)
def test_derive_refuses_every_impossible_history(mutate):
    fitted = 0
    for label, history in sequencer_histories():
        broken = mutate(history)
        if broken is None:
            continue
        fitted += 1
        with pytest.raises((DerivationGap, L1Error)):
            derive(broken)
            pytest.fail(f"{label}: derive accepted it")
    assert fitted, "the mutation fits no history"
