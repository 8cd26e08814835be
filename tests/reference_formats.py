"""Reference oracle for the line readers of `lines` and `formats`.

`reference_read` is the generic reader that served every `lines.Line`
before each line built its own: on every call it works out the line's bare
and keyed fields, the fields it must hold, its defaults and its all-or-none
tail from the declaration, and it reads each value through the plain checks
(`_parse_int` with the codec's range, the hex regex for addresses and byte
strings) with no fast path. It is slow but obviously right, and
`test_reader_oracle.py` holds the built readers to it record for record and
refusal for refusal.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from functools import partial

from rollupsim import formats, lines
from rollupsim.core import U64_MAX, Address, Record, StateRoot, TxHash
from rollupsim.sequencer import ScenarioError

_HEX_RE = re.compile(r"[0-9a-fA-F]*")


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


def reference_parse(codec):
    """How the generic reader read a value of `codec`."""
    if codec is formats.TX_U64 or codec is formats.TX_U128:
        return lines._parse_int  # transactions and deposits check their own ranges
    special = {
        formats.ADDRESS: reference_parse_address,
        formats.BYTES: reference_parse_bytes,
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
    return codec.parse  # text, hashes, blobs, storage, code, expressions: read the one way they always were


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
        return line.make(**{**defaults, **values})
    except ValueError as exc:
        raise ScenarioError(f"bad {line.name}: {exc}", line=lineno) from None


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
