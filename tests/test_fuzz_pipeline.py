"""Whole-pipeline fuzz: random scenarios must stay worker-invariant and
re-derivable byte for byte from their L1 export, and the replica must refuse
every history the sequencer could not have written, and every spelling of a
history other than the one the sequencer writes."""
import contextlib
import functools
import io
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from reference_formats import reference_read_history
from rollupsim.cli import main
from rollupsim.core import ScenarioError, encode_block
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
    l1 = L1Chain(history.blocks_per_epoch)
    for block in history.blocks:
        l1.add_block(*block)
    return l1


def test_sequencer_histories_keep_the_timing_relations():
    """The relations the replica enforces hold on everything the sequencer writes:
    block times strictly increase, L1 block times never decrease, every L1
    block's epoch head is in the inbox, and no epoch head is earlier than its
    L1 block."""
    histories = sequencer_histories()
    assert len(histories) == len(list(SCENARIOS.glob("*.scn"))) + 60
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


# -- respellings: each writes a history otherwise than `render_history` does, and returns
# (the text, the first line that differs), or None where it does not fit --

def _respell_first(text, test, edit):
    lines = text.split("\n")
    index = next((i for i, line in enumerate(lines) if test(line)), None)
    if index is None:
        return None
    return "\n".join(lines[:index] + [edit(lines[index])] + lines[index + 1:]), index + 1


def _moved_to_end(text, test):
    lines = text.split("\n")[:-1]
    moved = [i for i, line in enumerate(lines) if test(line)]
    if not moved:
        return None
    kept = [line for line in lines if not test(line)]
    return "\n".join(kept + [lines[i] for i in moved]) + "\n", moved[0] + 1


def hex_time(text):
    """`l2_time=0x2` for `l2_time=2`."""
    return _respell_first(text, lambda line: line.startswith("record "),
                          lambda line: re.sub(r"l2_time=(\d+)", lambda m: f"l2_time={hex(int(m[1]))}", line))


def decimal_bitmap(text):
    """`bitmap=5` for `bitmap=0x5`."""
    return _respell_first(text, lambda line: "bitmap=0x" in line,
                          lambda line: re.sub(r"bitmap=0x([0-9a-f]+)", lambda m: f"bitmap={int(m[1], 16)}", line))


def short_fee_recipient(text):
    """`fee_recipient=0xfe` for the full 40-digit address."""
    return _respell_first(text, lambda line: line.startswith("config fee_recipient=0x00"),
                          lambda line: re.sub(r"=0x(00)+", "=0x", line, count=1))


def record_fields_reordered(text):
    return _respell_first(text, lambda line: line.startswith("record "),
                          lambda line: re.sub(r"^record (\S+) (\S+)", r"record \2 \1", line))


def spaces_between_fields(text):
    return _respell_first(text, lambda line: line.startswith("record "), lambda line: line.replace(" ", "  ", 1))


def nonce_left_out(text):
    return _respell_first(text, lambda line: line.startswith("genesis account ") and line.endswith(" nonce=0"),
                          lambda line: line[:-len(" nonce=0")])


def blank_line(text):
    lines = text.split("\n")
    return "\n".join(lines[:2] + [""] + lines[2:]), 3


def trailing_space(text):
    return _respell_first(text, lambda line: line.startswith("config "), lambda line: line + " ")


def crlf_line_ends(text):
    return text.replace("\n", "\r\n"), 1


def genesis_after_records(text):
    return _moved_to_end(text, lambda line: line.startswith("genesis "))


def records_before_l1blocks(text):
    return _moved_to_end(text, lambda line: line.startswith("l1block "))


def derive_text(path, text):
    """`rollupsim derive` on `text`, written byte for byte: (exit code, stdout, stderr)."""
    path.write_bytes(text.encode("utf-8"))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["derive", "--l1", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_every_sequencer_history_derives_as_written(tmp_path):
    for label, history in sequencer_histories():
        code, out, err = derive_text(tmp_path / "run.l1", render_history(history))
        assert (code, err) == (0, ""), label
        assert out == f"final_root {derive(history).final_root.hex0x()}\n", label


@pytest.mark.parametrize(
    "respell",
    [
        hex_time, decimal_bitmap, short_fee_recipient, record_fields_reordered, spaces_between_fields,
        nonce_left_out, blank_line, trailing_space, crlf_line_ends, genesis_after_records, records_before_l1blocks,
    ],
)
def test_derive_refuses_every_respelled_history(tmp_path, respell):
    fitted = 0
    for label, history in sequencer_histories():
        text = render_history(history)
        respelled = respell(text)
        if respelled is None:
            continue
        fitted += 1
        bad, lineno = respelled
        assert bad != text and reference_read_history(bad) == history, label
        code, _, err = derive_text(tmp_path / "bad.l1", bad)
        assert code == 4, label
        assert err.startswith(f"error: unusable history: line {lineno}: not in canonical form, expected "), label
    assert fitted, "the respelling fits no history"


# Other spellings of one value: a decimal, a 0x-hex number, a bare hex blob or list.
_SPELLINGS = (
    (re.compile(r"\d+"), lambda v: [hex(int(v)), "0" + v, "+" + v]),
    (re.compile(r"0x[0-9a-f]+"), lambda v: ["0x" + v[2:].upper(), "0x" + v[2:].lstrip("0"), str(int(v, 16))]),
    (re.compile(r"[0-9a-f,]+"), lambda v: [v.upper()]),
)


def _spellings(value):
    return next((spell(value) for form, spell in _SPELLINGS if form.fullmatch(value)), [])


@pytest.fixture(scope="module")
def respell_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("respelled")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_single_field_respelling_is_refused_at_its_line(respell_dir, data):
    """A history with one field spelled otherwise, which the generic reader
    reads back as the same history, exits 4 naming that field's line."""
    label, history = data.draw(st.sampled_from(sequencer_histories()))
    lines = render_history(history).split("\n")[:-1]
    index = data.draw(st.integers(0, len(lines) - 1))
    words = lines[index].split(" ")
    spots = [(k, key + eq, value) for k, word in enumerate(words) for key, eq, value in [word.rpartition("=")]
             if _spellings(value)]
    assume(spots)
    k, prefix, value = data.draw(st.sampled_from(spots))
    words[k] = prefix + data.draw(st.sampled_from(_spellings(value)))
    bad = "\n".join(lines[:index] + [" ".join(words)] + lines[index + 1:]) + "\n"
    try:
        same = reference_read_history(bad) == history
    except ScenarioError:
        same = False
    assume(same and words[k] != prefix + value)
    code, _, err = derive_text(respell_dir / "bad.l1", bad)
    assert code == 4, label
    assert err.startswith(f"error: unusable history: line {index + 1}: not in canonical form, expected "), label
