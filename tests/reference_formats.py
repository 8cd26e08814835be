"""Reference oracle for the line readers of `lines` and `formats`.

`reference_read` is the generic reader that served every `lines.Line`
before each line built its own: on every call it works out the line's bare
and keyed fields, the fields it must hold, its defaults and its all-or-none
tail from the declaration, and it reads each value through the plain checks
(`_parse_int` with the codec's range, the hex regex for addresses and byte
strings) with no fast path. It builds each record through its checked
constructors: an address through `Address`, a genesis pair and its account
through their `NamedTuple` constructors, where `lines` builds them in C. It
is slow but obviously right, and `test_reader_oracle.py` holds the built
readers to it record for record and refusal for refusal.

`reference_parse_history` is the rule `rollupsim derive` applied before
`parse_history` checked a history's spelling as it reads it: read every
line with the generic reader (`reference_read_history`, which skips blank
lines and takes any line end), refusing the first it cannot read, then
render what was read and refuse the first line of the text that differs,
naming the form expected. `parse_history` must accept exactly what it
accepts and refuse the rest at the same line with the same message.

`tree_height` is the walk that enforced `lines.MAX_NESTING` on every built
statement and predicate, a second pass over the tree, before the builders
returned each node's height as they built it; they must agree with it.

`reference_render` is the per-field writer every line had before each
growing kind compiled its own `Line.write`: it reads each field off the
record by its dotted attribute, writes it by its codec's `render` (`str`
when it has none), puts each bare field in the head's `{}` and writes the
others `key=value`, the tail only when its first value is not None.
`reference_render_report` and `reference_render_history` write whole files
through it, and `test_writer_oracle.py` holds `render_report`,
`render_history` and every `Line.write` to them.

`reference_expr_text` and `reference_statement_text` are the per-kind
writers of contract code that `vm.expr_text` replaced, one branch per node
kind with its head word spelled out. That text is hashed into every code
hash, and so into every state root: the one writer, which reads its head
words from `vm.SYNTAX`, must write exactly what they write.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from functools import partial
from itertools import zip_longest

from rollupsim import formats, lines
from rollupsim.vm import (
    Account, BalanceOf, Bin, CallData, Caller, CallValue, Const, ContractCode, Not, Pay, Require, SelfAddr,
    SetSlot, SLoad,
)
from rollupsim.core import U64_MAX, Address, Record, StateRoot, TxHash
from rollupsim.l1da import L1History
from rollupsim.vm import make_state
from rollupsim.sequencer import ScenarioError

_HEX_RE = re.compile(r"[0-9a-fA-F]*")


def tree_height(node: Record) -> int:
    """Levels of a built expression or statement: a leaf is 1 high."""
    return 1 + max((tree_height(child) for child in node._values() if isinstance(child, Record)), default=0)


def reference_expr_text(expr) -> str:
    """Canonical textual form of an expression (integers in lowercase hex)."""
    if isinstance(expr, Const):
        return f"(const {hex(expr.value)})"
    if isinstance(expr, SLoad):
        return f"(sload {reference_expr_text(expr.key)})"
    if isinstance(expr, BalanceOf):
        return f"(balance {reference_expr_text(expr.addr)})"
    if isinstance(expr, Caller):
        return "caller"
    if isinstance(expr, CallValue):
        return "callvalue"
    if isinstance(expr, CallData):
        return "calldata"
    if isinstance(expr, SelfAddr):
        return "self"
    if isinstance(expr, Bin):
        return f"({expr.op} {reference_expr_text(expr.left)} {reference_expr_text(expr.right)})"
    if isinstance(expr, Not):
        return f"(not {reference_expr_text(expr.inner)})"
    raise TypeError(f"not an expression: {expr!r}")


def reference_statement_text(stmt) -> str:
    if isinstance(stmt, Require):
        return f"(require {reference_expr_text(stmt.cond)})"
    if isinstance(stmt, SetSlot):
        return f"(set {reference_expr_text(stmt.key)} {reference_expr_text(stmt.value)})"
    if isinstance(stmt, Pay):
        return f"(pay {reference_expr_text(stmt.to)} {reference_expr_text(stmt.amount)})"
    raise TypeError(f"not a statement: {stmt!r}")


def reference_parse_address(value, lineno, what="", ctx=None):
    if not value.startswith("0x"):
        raise ScenarioError(f"address must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) > 40 or len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad address: {value!r}", line=lineno)
    return Address(bytes.fromhex(digits.rjust(40, "0")))


def reference_parse_bytes(value, lineno, what="", ctx=None):
    if not value.startswith("0x"):
        raise ScenarioError(f"byte string must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad byte string: {value!r}", line=lineno)
    return bytes.fromhex(digits)


def _reference_txref(text, lineno, what, ctx):
    if text.startswith("@") and text[1:] not in ctx.labels:
        raise ScenarioError(f"unknown label {text!r}", line=lineno)
    return ctx.labels[text[1:]] if text.startswith("@") else TxHash(reference_parse_bytes(text, lineno))


def _reference_deposits(text, lineno, what, ctx):
    body = formats._unbrace(text)
    groups = [] if body == "-" else [group for group in map(str.strip, body.split(";")) if group]
    return tuple(
        reference_read(
            formats._DEPOSIT, formats._split_fields(group, lineno), lineno, ctx, l1_block=ctx.l1_blocks, l1_index=index
        )
        for index, group in enumerate(groups)
    )


# How the generic reader built the records that `lines` now builds in C.
_MAKES = {
    lines._ACCOUNT: lambda address, balance, nonce: lines._Genesis(address, Account(balance, nonce)),
    lines._CONTRACT: lambda address, admin, balance, storage, statements: lines._Genesis(
        address, Account(balance, 0, ContractCode(admin, statements), storage)
    ),
}


def reference_parse(codec):
    """How the generic reader read a value of `codec`."""
    if codec is formats.TX_U64 or codec is formats.TX_U128:
        return lines._parse_int  # transactions and deposits check their own ranges
    special = {
        formats.ADDRESS: reference_parse_address,
        formats.BYTES: reference_parse_bytes,
        formats.HASH: lambda text, lineno, what, ctx: TxHash(reference_parse_bytes(text, lineno)),
        formats.ROOT: lambda text, lineno, what, ctx: StateRoot(reference_parse_bytes(text, lineno)),
        formats.TXREF: _reference_txref,
        formats.DEPOSITS: _reference_deposits,
        formats.RECIPIENT: lambda text, lineno, what, ctx: (
            None if text == "create" else reference_parse_address(text, lineno)
        ),
        formats.OPERATORS: lambda text, lineno, what, ctx: frozenset(
            reference_parse_address(a, lineno) for a in text.split(",") if a
        ),
        formats.BUDGET: lambda text, lineno, what, ctx: (
            None if text == "unlimited" else lines._parse_int(text, lineno, what, ctx, 0, U64_MAX)
        ),
    }
    if codec in special:
        return special[codec]
    if codec.item is not None:
        item = reference_parse(codec.item)
        return lambda text, lineno, what, ctx: tuple(
            [item(value, lineno, what, ctx) for value in lines._parse_list(text)]
        )
    if codec.least is not None:
        return partial(lines._parse_int, minimum=codec.least, maximum=codec.top)
    return codec.parse  # text, blobs, storage, code, expressions: read the one way they always were


def reference_read(line, words, lineno, ctx=None, **values):
    """The record of one line from its words, as the generic reader built it."""
    fields = line.fields
    slots = [i for i, word in enumerate(line._words) if word == "{}"]
    kws = [attr.rpartition(".")[2] for _key, attr, *_ in fields]
    reads = [
        (kw, reference_parse(codec), f"{line.name} {key}".rstrip()) for kw, (key, _attr, codec, _d) in zip(kws, fields)
    ]
    keyed = {field[0]: read for field, read in zip(fields[len(slots):], reads[len(slots):])}
    needed = [(f[0], kw) for kw, f in zip(kws[len(slots):], fields[len(slots):]) if f[3] is lines._REQUIRED]
    defaults = {kw: f[3] for kw, f in zip(kws, fields) if f[3] is not lines._REQUIRED and f[3] is not lines._ABSENT}
    tail_kws = frozenset(kws[line._tail:]) if line._tail else frozenset()
    if len(words) < len(line._words):
        raise ScenarioError(f"{reads[len(slots) - 1][2]} needs a value", line=lineno)
    try:
        for n, i in enumerate(slots):
            kw, parse, what = reads[n]
            values[kw] = parse(words[i], lineno, what, ctx)
        for word in words[len(line._words):]:
            key, eq, text = word.partition("=")
            if not eq:
                raise ScenarioError(f"expected key=value, got {word!r}", line=lineno)
            if key not in keyed:
                raise ScenarioError(f"unknown {line.name} field {key!r}", line=lineno)
            kw, parse, what = keyed[key]
            if kw in values:
                raise ScenarioError(f"duplicate field {key!r}", line=lineno)
            values[kw] = parse(text, lineno, what, ctx)
        for key, kw in needed:
            if kw not in values:
                raise ScenarioError(f"{line.name} missing field {key!r}", line=lineno)
        if tail_kws and not tail_kws.isdisjoint(values) and not tail_kws <= values.keys():
            raise ScenarioError(f"{line.name} needs all of {sorted(tail_kws)} or none", line=lineno)
        return _MAKES.get(line, line.make)(**{**defaults, **values})
    except ValueError as exc:
        raise ScenarioError(f"bad {line.name}: {exc}", line=lineno) from None


def reference_read_history(text):
    """The history the generic reader reads from `text`, spelled any way it reads."""
    config, accounts, blocks, inbox = None, {}, [], []
    for lineno, line, words in lines._lines(text, lines._HISTORY_FILE, lines._HISTORY):
        record = reference_read(line, words, lineno)
        if line is lines._RECORD:
            inbox.append(record)
        elif line is lines._L1BLOCK:
            blocks.append(record)
        elif line is lines._HISTORY_CONFIG:
            config = record
        elif line is not lines._HISTORY:
            if record.address in accounts:
                raise ScenarioError(f"genesis address {record.address.hex0x()} declared twice", line=lineno)
            accounts[record.address] = record.account
    if config is None:
        raise ScenarioError("history missing config line", line=1)
    return L1History(*config, make_state(accounts), tuple(blocks), tuple(inbox))


def reference_parse_history(text):
    """`reference_read_history`, then the render of what it read compared
    with `text` line by line."""
    history = reference_read_history(text)
    written = reference_render_history(history)
    for lineno, (line, form) in enumerate(zip_longest(text.splitlines(True), written.splitlines(True)), start=1):
        if line != form:
            expected = "the end of the file" if form is None else repr(form[:-1])
            raise ScenarioError(f"not in canonical form, expected {expected}", line=lineno)
    return history


def reference_render(line, record) -> str:
    """One line of `record`, written field by field from `line`'s declaration."""
    texts = []
    for _key, attr, codec, _default in line.fields:
        value = record
        for name in attr.split("."):
            value = getattr(value, name)
        texts.append(None if value is None else (codec.render or str)(value))
    bare, n_slots = iter(texts), line._words.count("{}")
    words = [next(bare) if word == "{}" else word for word in line._words]
    cut = len(texts) if line._tail is None or texts[line._tail] is not None else line._tail
    words += [f"{key}={text}" for (key, *_), text in zip(line.fields[n_slots:cut], texts[n_slots:cut])]
    return " ".join(words)


def reference_render_report(report) -> str:
    written = [reference_render(formats._REPORT, report)]
    for line, attr in formats._REPORT_BODY.items():
        records = [report] if line.once else getattr(report, attr)
        written += [reference_render(line, record) for record in records]
    return "\n".join(written) + "\n"


def reference_render_history(history) -> str:
    written = [reference_render(lines._HISTORY, history), reference_render(lines._HISTORY_CONFIG, history)]
    for address, account in sorted(history.genesis.accounts.items()):
        line = lines._ACCOUNT if account.code is None else lines._CONTRACT
        written.append(reference_render(line, lines._Genesis(address, account)))
    written += [reference_render(lines._L1BLOCK, block) for block in history.blocks]
    written += [reference_render(lines._RECORD, record) for record in history.inbox]
    return "\n".join(written) + "\n"


def shape(value):
    """`value` with the type of every part it holds, so that equal shapes are
    the same record down to each `bytes` subclass and each nested record."""
    if isinstance(value, Mapping):
        parts = tuple((shape(k), shape(v)) for k, v in value.items())
    elif isinstance(value, (tuple, list)):
        parts = tuple(map(shape, value))
    elif isinstance(value, frozenset):
        parts = tuple(map(shape, sorted(value)))
    elif isinstance(value, Record):
        parts = shape(value._values())
    elif hasattr(type(value), "__slots__") and not isinstance(value, (bytes, int, str)):
        parts = tuple(shape(getattr(value, name)) for name in type(value).__slots__)
    else:
        parts = value
    return type(value), parts
