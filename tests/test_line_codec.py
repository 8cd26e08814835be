"""The line declarations of `lines` and `formats`: every declared line reads back what
it writes, and every line keeps the same rules.

The round trips draw the line kinds from the files' declaration tables and
each value from its field's codec, so a new line kind or field is covered
without a new test."""
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from rollupsim import formats, lines, vm
from rollupsim.core import U32_MAX, U64_MAX, U128_MAX, Address, DepositTransaction, StateRoot, TxHash
from rollupsim.formats import Line
from rollupsim.l1da import L1Record

# Each file: its declaration table, its header line and its reader's options.
SCENARIO = (formats._SCENARIO_FILE, formats._SCENARIO, {"comments": True})
REPORT = (formats._REPORT_FILE, formats._REPORT, {"verbatim": formats._L1_EXPORT})
HISTORY = (lines._HISTORY_FILE, lines._HISTORY, {})


def declared(table):
    for entry in table.values():
        yield from entry[1].values() if isinstance(entry, tuple) else [entry]


# (file, line) for every declared line; a deposit group sits inside an `l1_block` event, in no file.
CASES = [(file, line) for file in (SCENARIO, REPORT, HISTORY) for line in declared(file[0])]
CASES.append((None, formats._DEPOSIT))


def test_the_cases_cover_every_line_kind():
    names = {(file[1].name if file else None, line.name) for file, line in CASES}
    assert {("scenario", name) for name in (
        "scenario", "config", "account", "contract", "invariant", "run", "submit", "l1_block", "approve_release",
        "stake", "request_failure_release", "set_base_fee", "advance",
    )} <= names
    assert {("report", name) for name in (
        "report", "block", "entry", "audit", "pool", "counters", "l1_export", "final_root",
    )} <= names
    history = ("l1history", "config", "account", "contract", "l1block", "record")
    assert {("l1history", name) for name in history} <= names
    assert (None, "deposit") in names


# --- values, drawn from the codecs ------------------------------------------

TEXT_ALPHABET = "abcxyz019_.:'"
addresses = st.binary(min_size=20, max_size=20).map(Address)
hashes = st.binary(min_size=32, max_size=32)
words = st.integers(0, 2**256 - 1)
exprs = st.recursive(
    st.one_of(words.map(vm.Const), st.sampled_from([vm.Caller(), vm.CallValue(), vm.CallData(), vm.SelfAddr()])),
    lambda inner: st.one_of(
        inner.map(vm.Not), inner.map(vm.SLoad), inner.map(vm.BalanceOf),
        st.builds(vm.Bin, st.sampled_from(vm.BIN_OPS), inner, inner),
    ),
    max_leaves=4,
)
statements = st.one_of(
    exprs.map(vm.Require), st.builds(vm.SetSlot, exprs, exprs),
    st.builds(vm.Pay, exprs, exprs),
)


def deposits(l1_block):
    group = st.fixed_dictionaries({
        "sender": addresses, "recipient": addresses, "value": st.integers(0, U128_MAX), "data": st.binary(max_size=4),
        "gas_limit": st.integers(21, U64_MAX),
    })
    return st.lists(group, max_size=3).map(
        lambda groups: tuple(DepositTransaction(l1_block, i, **fields) for i, fields in enumerate(groups))
    )


def integers(codec):
    """Any integer the codec reads, its bounds and 2^64-1 and 2^128-1 among them."""
    top = 2**256 if codec.top is None else codec.top
    bounds = sorted({codec.least, top} | {b for b in (U64_MAX, U128_MAX) if codec.least <= b <= top})
    return st.one_of(st.sampled_from(bounds), st.integers(codec.least, top))


STRATEGIES = {
    formats.TEXT: st.text(alphabet=TEXT_ALPHABET, min_size=1, max_size=8),
    formats.ADDRESS: addresses,
    formats.BYTES: st.binary(max_size=6),
    formats.HASH: hashes.map(TxHash),
    formats.TXREF: hashes.map(TxHash),
    formats.ROOT: hashes.map(StateRoot),
    lines.BLOB: st.binary(max_size=6),
    lines.DEPOSIT_BLOB: st.integers(0, U64_MAX).flatmap(deposits).filter(bool).map(lambda deps: deps[0]),
    formats.RECIPIENT: st.one_of(st.none(), addresses),
    formats.BUDGET: st.one_of(st.none(), integers(formats.BUDGET)),
    formats.OPERATORS: st.frozensets(addresses, max_size=3),
    lines.STORAGE: st.dictionaries(words.map(vm.slot_bytes), words.map(vm.slot_bytes), max_size=3),
    lines.CODE: st.lists(statements, max_size=3).map(tuple),
    formats.EXPR: exprs,
    formats.DETAIL: st.text(alphabet=TEXT_ALPHABET + " =,-", max_size=12).map(str.strip),
}
# `l1_export` holds its path verbatim: spaces, tabs and braces stay.
PATHS = st.text(alphabet="ab/.-_ {}\t", min_size=1, max_size=12)


def values_of(codec, number):
    if codec is formats.DEPOSITS:
        return deposits(number)
    if codec.item is not None:  # a list: empty, one item or more
        return st.lists(values_of(codec.item, number), max_size=3).map(tuple)
    if codec in STRATEGIES:
        return STRATEGIES[codec]
    assert codec.least is not None, f"no strategy for {codec}"
    return integers(codec)


def keyword(field):
    return field[1].rpartition(".")[2]


@st.composite
def line_cases(draw):
    """A line, its values by `make` keyword, and what it takes from outside
    the line: an L1 block's number, a deposit's place."""
    file, line = draw(st.sampled_from(CASES))
    number = draw(st.integers(0, U64_MAX))
    fixed = {"number": number} if line is formats._L1_BLOCK else {}
    if line is formats._DEPOSIT:
        fixed = {"l1_block": draw(st.integers(0, U64_MAX)), "l1_index": draw(st.integers(0, U32_MAX))}
    fields = line.fields if line._tail is None or draw(st.booleans()) else line.fields[:line._tail]
    values = {
        keyword(field): draw(PATHS if line is formats._L1_EXPORT else values_of(field[2], number)) for field in fields
    }
    return file, line, number, fixed, values


def namespace(line, values):
    """An object holding each value where the line's attribute path reads it
    (None for a tail left out)."""
    root = SimpleNamespace()
    for field in line.fields:
        *path, last = field[1].split(".")
        node = root
        for part in path:
            node = node.__dict__.setdefault(part, SimpleNamespace())
        setattr(node, last, values.get(last))
    return root


def reread(file, line, text, number, fixed):
    """Read one written line back as its file reads it."""
    ctx = SimpleNamespace(labels={}, l1_blocks=number)
    if file is None:
        return line.read(formats._split_fields(text, 1), 1, ctx, **fixed)
    table, header, options = file
    source = text if line.head == header.head else f"{header.head}\n{text}"
    *_, (lineno, read_line, words) = formats._lines(source + "\n", table, header, **options)
    assert read_line.head == line.head, text
    return line.read(words, lineno, ctx, **fixed)


@settings(max_examples=800, deadline=None)
@given(line_cases())
def test_every_line_reads_back_what_it_writes(case):
    file, line, number, fixed, values = case
    # Every field: a twin of the line whose record is the values it reads.
    twin = Line(line.name, lambda **read: read, *line.fields, head=line.head, once=line.once, tail=line._tail)
    text = line.render(namespace(line, values))
    assert reread(file, twin, text, number, fixed) == {**fixed, **values}, text
    # The record itself, for a line whose record is what it writes.
    try:
        record = line.make(**fixed, **values)
    except ValueError:  # a value the record refuses, such as a priority fee above the fee cap
        return
    if hasattr(record, "_fields"):
        text = line.render(record)
        assert reread(file, line, text, number, fixed) == record, text


def test_only_an_epoch_head_record_writes_the_pair():
    bitmap_head = L1Record(0, 0, 2, 1, (), deposit_count=300, bitmap=(2**256 - 1, 1))
    empty_head = L1Record(0, 0, 2, 1, (), deposit_count=0, bitmap=())
    plain = L1Record(0, 1, 4, 1, (b"\x01",))
    assert lines._RECORD.render(bitmap_head).endswith(f" batch=- deposit_count=300 bitmap={hex(2**256 - 1)},0x1")
    assert lines._RECORD.render(empty_head).endswith(" batch=- deposit_count=0 bitmap=-")
    assert lines._RECORD.render(plain) == "record epoch=0 l2_number=1 l2_time=4 l2_base_fee=1 batch=01"
    for record in (bitmap_head, empty_head, plain):
        assert reread(HISTORY, lines._RECORD, lines._RECORD.render(record), 0, {}) == record
