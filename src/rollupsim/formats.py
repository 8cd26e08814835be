"""Line-oriented text formats: scenario files, run reports, L1 history.

All three share one shape: a versioned header line, then one record per
line as `head key=value ...`. Values containing spaces or lists are wrapped
in braces; in scenarios `#` starts a comment; blank lines are ignored.

Each line kind is declared once, as a `Line`: the words that open it and
its ordered `(key, attribute, codec)` fields, where a `Codec` is how one
value is written and read. `Line.render` serves every declared line, and
each `Line` builds its reader once, from its fields' codecs, so the text
form of a record lives in its declaration alone and every line keeps the
same rules. A line is refused, with its number, when it:
- lacks a field, or has one its declaration does not name;
- holds a value its codec refuses (each integer has its range);
- repeats a line a file holds once: a header, `run` in a scenario, `config`
  in a history, `counters`, `l1_export` or `final_root` in a report;
- declares a genesis address a second time.

Contract code and invariant predicates use a small s-expression syntax:

    atoms       42, 0x2a, 'paused' (utf-8 bytes read as a big-endian int),
                caller, callvalue, calldata, self
    expressions (const X) (sload K) (balance A) (add|sub|mul|eq|lt|and|or L R)
                (not E); sugar: (ge a b) (gt a b) (le a b) (ne a b); a bare
                atom in expression position means (const atom)
    statements  (require E) (set K V) (pay TO AMOUNT) (pause-guard K)

Addresses are 0x-hex, left-padded to 20 bytes, so `0x0a` is a valid short
form. Scenario `submit` events may carry `as=<label>`; later events refer to
that transaction as `tx=@<label>`.
"""
from __future__ import annotations

import math
import re
import sys
from types import SimpleNamespace
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Address,
    DepositTransaction,
    SignedTransaction,
    StateRoot,
    TxHash,
    U64_MAX,
    U128_MAX,
    decode_deposit,
    encode_deposit,
    tx_hash,
)
from .detection import Counters, Invariant
from .l1da import WORD_BITS, L1Block, L1History, L1Record
from .mempool import PoolConfig
from .quarantine import AuditEvent, QuarantineConfig
from .sequencer import (
    AdvanceEvent,
    ApproveReleaseEvent,
    BlockSummary,
    EntrySummary,
    Event,
    FailureReleaseEvent,
    L1BlockEvent,
    PoolSummary,
    RunReport,
    Scenario,
    ScenarioError,
    SequencerConfig,
    SetBaseFeeEvent,
    StakeEvent,
    SubmitEvent,
)
from . import vm
from .vm import EMPTY_ACCOUNT, Account, ContractCode, Expr, Statement, make_state


# ---------------------------------------------------------------------------
# low-level line machinery
# ---------------------------------------------------------------------------

_MARK_RE = re.compile(r"[{}]|\s+")  # `\s` is `str.isspace`


def _split_fields(line: str, lineno: int) -> List[str]:
    """Split a line on whitespace, keeping {...} groups intact."""
    if "{" not in line and "}" not in line:
        return line.split()  # splits on exactly the characters `str.isspace` accepts
    fields: List[str] = []
    depth = start = 0
    for mark in _MARK_RE.finditer(line):
        if mark.group() == "{":
            depth += 1
        elif mark.group() == "}":
            depth -= 1
            if depth < 0:
                raise ScenarioError("unbalanced '}'", line=lineno)
        elif depth == 0:  # whitespace between fields
            if mark.start() > start:
                fields.append(line[start:mark.start()])
            start = mark.end()
    if depth != 0:
        raise ScenarioError("unbalanced '{'", line=lineno)
    if start < len(line):
        fields.append(line[start:])
    return fields


def _one_field(text: str) -> bool:
    """Whether `text` reads back as one field: not empty, no whitespace
    outside braces, braces balanced."""
    try:
        return _split_fields(text, 0) == [text]
    except ScenarioError:
        return False


def _unbrace(value: str) -> str:
    if value.startswith("{") and value.endswith("}"):
        return value[1:-1].strip()
    return value


def _parse_int(
    value: str, lineno: int, what: str = "integer", ctx: Any = None, minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> int:
    """The one integer reader of all three formats: decimal or 0x-hex. Like
    the two hex readers below, it takes a codec's arguments (see `Codec`)."""
    try:
        number = int(value, 16) if value.startswith("0x") else int(value)
    except ValueError:
        raise ScenarioError(f"{what} must be an integer, got {value!r}", line=lineno) from None
    if minimum is not None and number < minimum:
        raise ScenarioError(f"{what} must be at least {minimum}, got {number}", line=lineno)
    if maximum is not None and number > maximum:
        raise ScenarioError(f"{what} must be at most {maximum}, got {number}", line=lineno)
    return number


_HEX_RE = re.compile(r"[0-9a-fA-F]*")


def _parse_address(value: str, lineno: int, what: str = "", ctx: Any = None) -> Address:
    if len(value) == 42 and value.startswith("0x"):  # the full form: one `fromhex` checks all 40 digits
        try:
            return Address(bytes.fromhex(value[2:]))
        except ValueError:  # not 20 bytes of hex: the checks below word the refusal
            pass
    if not value.startswith("0x"):
        raise ScenarioError(f"address must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) > 40 or len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad address: {value!r}", line=lineno)
    return Address(bytes.fromhex(digits.rjust(40, "0")))


def _parse_bytes(value: str, lineno: int, what: str = "", ctx: Any = None) -> bytes:
    if not value.startswith("0x"):
        raise ScenarioError(f"byte string must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad byte string: {value!r}", line=lineno)
    return bytes.fromhex(digits)


def _fmt_bytes(blob: bytes) -> str:
    return "0x" + blob.hex()


def _parse_list(value: str) -> List[str]:
    return [] if value == "-" else value.split(",")


# ---------------------------------------------------------------------------
# s-expressions
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\(|\)|'[^']*'|[^\s()']+")


def _tokenize_sexpr(text: str, lineno: int) -> List[str]:
    tokens = _TOKEN_RE.findall(text)
    if "".join(tokens).replace("(", "").replace(")", "") == "" and text.strip():
        raise ScenarioError(f"cannot tokenize {text!r}", line=lineno)
    return tokens


def _read_form(tokens: List[str], pos: int, lineno: int):
    if pos >= len(tokens):
        raise ScenarioError("unexpected end of expression", line=lineno)
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_form(tokens, pos, lineno)
            items.append(item)
        if pos >= len(tokens):
            raise ScenarioError("missing ')'", line=lineno)
        return items, pos + 1
    if tok == ")":
        raise ScenarioError("unexpected ')'", line=lineno)
    return tok, pos + 1


def _atom_value(tok: str, lineno: int) -> int:
    if tok.startswith("'") and tok.endswith("'"):
        return int.from_bytes(tok[1:-1].encode("utf-8"), "big")
    return _parse_int(tok, lineno, "atom")


_ATOMS = {"caller": vm.Caller, "callvalue": vm.CallValue, "calldata": vm.CallData, "self": vm.SelfAddr}
# operator -> (arity, build from the built arguments); ge/gt/le/ne are sugar
_OPERATORS = {
    "sload": (1, vm.SLoad), "balance": (1, vm.BalanceOf), "not": (1, vm.Not),
    **{op: (2, lambda a, b, op=op: vm.Bin(op, a, b)) for op in vm.BIN_OPS},
    "ge": (2, lambda a, b: vm.Not(vm.Bin("lt", a, b))), "gt": (2, lambda a, b: vm.Bin("lt", b, a)),
    "le": (2, lambda a, b: vm.Not(vm.Bin("lt", b, a))), "ne": (2, lambda a, b: vm.Not(vm.Bin("eq", a, b))),
}
_STATEMENTS = {
    "require": (1, vm.Require), "pause-guard": (1, vm.PauseGuard), "set": (2, vm.SetSlot), "pay": (2, vm.Pay)
}


def _build_expr(form, lineno: int) -> Expr:
    if isinstance(form, str):
        return _ATOMS[form]() if form in _ATOMS else vm.Const(_atom_value(form, lineno))
    if not form:
        raise ScenarioError("empty expression", line=lineno)
    head, args = form[0], form[1:]
    if not isinstance(head, str):
        raise ScenarioError("expression head must be a symbol", line=lineno)
    arity, build = (1, None) if head == "const" else _OPERATORS.get(head, (None, None))
    if arity is None:
        raise ScenarioError(f"unknown operator {head!r}", line=lineno)
    if len(args) != arity:
        raise ScenarioError(f"{head} takes {arity} argument(s), got {len(args)}", line=lineno)
    if build is None:  # const
        if not isinstance(args[0], str):
            raise ScenarioError("const takes an atom", line=lineno)
        return vm.Const(_atom_value(args[0], lineno))
    return build(*[_build_expr(arg, lineno) for arg in args])


def _build_statement(form, lineno: int) -> Statement:
    if isinstance(form, str) or not form or not isinstance(form[0], str):
        raise ScenarioError("statement must be a (head ...) form", line=lineno)
    head, args = form[0], form[1:]
    arity, build = _STATEMENTS.get(head, (None, None))
    if len(args) != arity:
        raise ScenarioError(f"bad statement {head!r}", line=lineno)
    return build(*[_build_expr(arg, lineno) for arg in args])


def parse_expr(text: str, lineno: int = 0) -> Expr:
    tokens = _tokenize_sexpr(text, lineno)
    form, pos = _read_form(tokens, 0, lineno)
    if pos != len(tokens):
        raise ScenarioError("trailing tokens after expression", line=lineno)
    return _build_expr(form, lineno)


def parse_statements(text: str, lineno: int = 0) -> Tuple[Statement, ...]:
    tokens = _tokenize_sexpr(text, lineno)
    statements: List[Statement] = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read_form(tokens, pos, lineno)
        statements.append(_build_statement(form, lineno))
    return tuple(statements)


# ---------------------------------------------------------------------------
# codecs: how one value is written and read
# ---------------------------------------------------------------------------

class Codec(NamedTuple):
    """How one value is written and read back. `parse(text, lineno, what,
    ctx)` reads it, `what` naming the field in messages and `ctx` being a
    scenario's context (None elsewhere). `render` writes it; None writes
    it as `str.format` does (integers in decimal, text as it is). An integer
    codec reads `least..top`; a list codec names the codec of its `item`."""

    render: Optional[Callable[[Any], str]]
    parse: Callable[[str, int, str, Any], Any]
    least: Optional[int] = None
    top: Optional[int] = None
    item: Optional["Codec"] = None


def _int(least: Optional[int], top: Optional[int], render: Optional[Callable[[int], str]] = None) -> Codec:
    """Integers in `least..top` (None: unbounded); `_parse_int` reads what
    one `int` does not, and words every refusal."""
    low, high = -math.inf if least is None else least, math.inf if top is None else top

    def parse(text: str, lineno: int, what: str, ctx: Any = None) -> int:
        try:
            number = int(text)
            if low <= number <= high:
                return number
        except ValueError:
            pass
        return _parse_int(text, lineno, what, ctx, least, top)

    return Codec(render, parse, least, top)


def _list(item: Codec) -> Codec:
    """A comma-separated list of one codec's values, `-` when empty."""
    render, parse = item.render or str, item.parse
    return Codec(
        lambda values: ",".join(map(render, values)) if values else "-",
        lambda text, lineno, what, ctx: tuple([parse(value, lineno, what, ctx) for value in _parse_list(text)]),
        item=item,
    )


def _braced(render: Callable[[Any], str], parse: Callable[[str, int], Any]) -> Codec:
    """A value written inside braces, so that it may hold spaces."""
    return Codec(lambda value: "{" + render(value) + "}", lambda text, lineno, *_: parse(_unbrace(text), lineno))


def _parse_txref(text: str, lineno: int, what: str, ctx: Any) -> TxHash:
    """`@label` names an earlier labelled submit; anything else is a 0x-hex hash."""
    if text.startswith("@") and text[1:] not in ctx.labels:
        raise ScenarioError(f"unknown label {text!r}", line=lineno)
    return ctx.labels[text[1:]] if text.startswith("@") else TxHash(_parse_bytes(text, lineno))


def _parse_storage(text: str, lineno: int, what: str, ctx: Any) -> Dict[bytes, bytes]:
    storage: Dict[bytes, bytes] = {}
    for pair in _parse_list(text):
        if "=" not in pair:
            raise ScenarioError(f"bad storage pair {pair!r}", line=lineno)
        k, v = pair.split("=", 1)
        storage[vm.slot_bytes(_atom_value(k, lineno))] = vm.slot_bytes(_atom_value(v, lineno))
    return storage


def _parse_deposits(text: str, lineno: int, what: str, ctx: Any) -> Tuple[DepositTransaction, ...]:
    """`{group; group}`, each group one `_DEPOSIT` line: a deposit takes the
    number of the L1 block it arrives in and its place in that block."""
    body = _unbrace(text)
    groups = [] if body == "-" else [group for group in map(str.strip, body.split(";")) if group]
    return tuple(_DEPOSIT.read(_split_fields(group, lineno), lineno, ctx, l1_block=ctx.l1_blocks, l1_index=index)
                 for index, group in enumerate(groups))


U64, U128, POSITIVE = _int(0, U64_MAX), _int(0, U128_MAX), _int(1, U64_MAX)
# Transaction and deposit fields read any integer: those records check their own ranges.
TX_U64 = _int(None, None)._replace(least=0, top=U64_MAX)
TX_U128 = TX_U64._replace(top=U128_MAX)
TEXT = Codec(None, lambda text, *_: text)
ADDRESS, BYTES = Codec(_fmt_bytes, _parse_address), Codec(_fmt_bytes, _parse_bytes)
HASH = Codec(_fmt_bytes, lambda text, *_: TxHash.from_hex(text))
ROOT = Codec(_fmt_bytes, lambda text, lineno, *_: StateRoot(_parse_bytes(text, lineno)))
BLOB = Codec(bytes.hex, lambda text, *_: bytes.fromhex(text))  # a posted batch entry: bare hex
DEPOSIT_BLOB = Codec(lambda dep: encode_deposit(dep).hex(), lambda text, *_: decode_deposit(bytes.fromhex(text)))
WORD = _int(0, 2**WORD_BITS - 1, hex)
RECIPIENT = Codec(
    lambda to: "create" if to is None else _fmt_bytes(to),
    lambda text, lineno, *_: None if text == "create" else _parse_address(text, lineno),
)
TXREF = Codec(_fmt_bytes, _parse_txref)
BUDGET = Codec(
    lambda budget: "unlimited" if budget is None else str(budget),
    lambda text, lineno, what, ctx: None if text == "unlimited" else U64.parse(text, lineno, what, ctx),
    0, U64_MAX,
)
OPERATORS = Codec(
    lambda operators: ",".join(sorted(map(_fmt_bytes, operators))),
    lambda text, lineno, *_: frozenset(_parse_address(a, lineno) for a in text.split(",") if a),
)
STORAGE = Codec(
    lambda storage: ",".join(f"{hex(vm.slot_int(k))}={hex(vm.slot_int(v))}" for k, v in sorted(storage.items())) or "-",
    _parse_storage,
)
CODE = _braced(lambda statements: " ".join(map(vm.statement_text, statements)), parse_statements)
EXPR = _braced(vm.expr_text, parse_expr)
DETAIL = _braced(str, lambda text, lineno: text)
DEPOSITS = Codec(lambda deps: "{" + "; ".join(map(_DEPOSIT.render, deps)) + "}" if deps else "-", _parse_deposits)


# ---------------------------------------------------------------------------
# line declarations
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field a line must hold
_ABSENT = object()  # the default of a field that, left out, leaves the record's own default


class Line:
    """One line kind, declared once.

    `head` is the words that open the line (by default `name`); each `{}` in
    it holds one of the first fields, written bare. The other fields are
    written `key=value`, in order. A field is `(key, attribute, codec)`, or
    `(key, codec)` for an attribute named like its key, and may add the
    value read when a line leaves it out (else `default`). `attribute` reads
    the value off the record, dotted for a nested one; its last part names
    the value for `make`, which builds the record. The fields from index
    `tail` on are written when the first of them is not None, and read all
    or none. `once` marks a line a file holds at most once.

    `read(words, lineno, ctx=None, **values)`, built here from the fields'
    codecs, reads one line's words, the head's included; `values` holds what
    the record takes from outside the line."""

    __slots__ = ("name", "head", "make", "fields", "once", "read", "_tail", "_words", "_template", "_tail_template",
                 "_convert", "_get")

    def __init__(
        self, name: str, make: Callable[..., Any], *fields: tuple, head: Optional[str] = None, once: bool = False,
        tail: Optional[int] = None, default: Any = _REQUIRED,
    ) -> None:
        fields = tuple((f[0], f[0], *f[1:]) if isinstance(f[1], Codec) else f for f in fields)
        self.fields = fields = tuple((*f, default)[:4] for f in fields)
        self.name, self.make, self.once, self._tail, self.head = name, make, once, tail, name if head is None else head
        self._words = words = self.head.split()
        n_slots, n_words, n_fields = words.count("{}"), len(words), len(fields)
        # `make` binds an interned keyword by identity, any other by comparing text
        kws = [sys.intern(attr.rpartition(".")[2]) for _key, attr, *_ in fields]
        reads = [(kw, codec.parse, f"{name} {key}".rstrip()) for kw, (key, _attr, codec, _d) in zip(kws, fields)]
        slots = tuple((i, *reads[n]) for n, i in enumerate(i for i, word in enumerate(words) if word == "{}"))
        keyed = {field[0]: read for field, read in zip(fields[n_slots:], reads[n_slots:])}
        needed = {kw: f[0] for kw, f in zip(kws[n_slots:], fields[n_slots:]) if f[3] is _REQUIRED}  # keyword: key
        defaults = {kw: f[3] for kw, f in zip(kws, fields) if f[3] is not _REQUIRED and f[3] is not _ABSENT}
        tails = frozenset(kws[tail:]) if tail else None

        def read(words: List[str], lineno: int, ctx: Any = None, **values: Any) -> Any:
            if len(words) < n_words:
                raise ScenarioError(f"{slots[-1][3]} needs a value", line=lineno)
            given = len(values)
            try:
                for i, kw, parse, what in slots:
                    values[kw] = parse(words[i], lineno, what, ctx)
                for word in words[n_words:]:
                    key, eq, text = word.partition("=")
                    field = keyed.get(key)
                    if field is None or not eq:
                        message = f"unknown {name} field {key!r}" if eq else f"expected key=value, got {word!r}"
                        raise ScenarioError(message, line=lineno)
                    kw, parse, what = field
                    if kw in values:
                        raise ScenarioError(f"duplicate field {key!r}", line=lineno)
                    values[kw] = parse(text, lineno, what, ctx)
                if len(values) - given < n_fields:  # a field left out: what it lacks, and defaults
                    if not values.keys() >= needed.keys():
                        key = next(key for kw, key in needed.items() if kw not in values)
                        raise ScenarioError(f"{name} missing field {key!r}", line=lineno)
                    if tails is not None and not tails.isdisjoint(values) and not tails <= values.keys():
                        raise ScenarioError(f"{name} needs all of {sorted(tails)} or none", line=lineno)
                    if defaults:
                        values = {**defaults, **values}
                return make(**values)
            except ValueError as exc:
                raise ScenarioError(f"bad {name}: {exc}", line=lineno) from None

        self.read = read
        pairs = [f"{key}={{}}" for key, *_ in fields[n_slots:]]
        cut = len(pairs) if tail is None else tail - n_slots
        self._template, self._tail_template = " ".join(words + pairs[:cut]), "".join(" " + k for k in pairs[cut:])
        self._convert = tuple((n, field[2].render) for n, field in enumerate(fields) if field[2].render)
        attrs = [attr for _key, attr, *_ in fields]
        get = attrgetter(*attrs) if attrs else lambda record: ()
        self._get = (lambda record: (get(record),)) if len(attrs) == 1 else get  # always a tuple

    def render(self, record: Any) -> str:
        values = list(self._get(record))
        tail = self._tail is not None and values[self._tail] is not None
        for n, render in self._convert:
            values[n] = render(values[n])
        text = self._template.format(*values)  # `format` leaves the tail's values unused
        return text + self._tail_template.format(*values[self._tail:]) if tail else text


def _table(*lines: Line) -> Dict[str, Any]:
    """A file's lines by head word. A head word that several lines share
    maps to (the position of the word that tells them apart, {word: line})."""
    table: Dict[str, Any] = {}
    for line in lines:
        pos = next((i for i, word in enumerate(line._words) if i and word != "{}"), None)
        if pos is None:
            table[line._words[0]] = line
        else:
            table.setdefault(line._words[0], (pos, {}))[1][line._words[pos]] = line
    return table


def _lines(
    text: str, table: Dict[str, Any], header: Line, comments: bool = False, verbatim: Optional[Line] = None
) -> Iterator[Tuple[int, Line, List[str]]]:
    """Each line of a file as (line number, declaration, words): the header
    first, then one per non-blank line. A `verbatim` line's one value is the
    rest of the line after its head and one space or tab, as written."""
    lines = text.splitlines()
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        body = (raw.split("#", 1)[0] if comments else raw).strip()
        if not body:
            continue
        rest = raw.lstrip()[len(verbatim.name):] if seen and verbatim and body.startswith(verbatim.name) else "-"
        if rest[:1] in ("", " ", "\t"):  # a verbatim line ("-" stands for any other)
            line, words = verbatim, [verbatim.name, rest[1:]] if rest[1:] else [verbatim.name]
        elif not seen:
            words, line = _split_fields(body, lineno), header
            if words[:len(header._words)] != header._words:
                raise ScenarioError(f"{header.name} file must start with {header.head!r}", line=lineno)
        else:
            words = _split_fields(body, lineno)
            line = table.get(words[0])
            if type(line) is tuple:
                pos, kinds = line
                line = kinds.get(words[pos]) if pos < len(words) else None
                if line is None:
                    got = " ".join(words[pos:pos + 1])
                    raise ScenarioError(f"{words[0]} kind must be one of {', '.join(kinds)}, got {got!r}", line=lineno)
            if line is None:
                raise ScenarioError(f"unknown {header.name} directive {words[0]!r}", line=lineno)
        if line.once:
            if line in seen:
                raise ScenarioError(f"second {line.name!r} line", line=lineno)
            seen.add(line)
        yield lineno, line, words
    if not seen:
        raise ScenarioError(f"empty {header.name} file", line=len(lines) or 1)


# The records of genesis account and contract lines, and of submit lines (`as=NAME` names one for `tx=@NAME`).
_Genesis = NamedTuple("_Genesis", [("address", Address), ("account", Account)])
_Submit = NamedTuple("_Submit", [("event", SubmitEvent), ("label", Optional[str])])


def _event(kind: str, make: Callable[..., Any], *fields: tuple, at: str = "at", **options: Any) -> Line:
    return Line(kind, make, ("time", at, U64), *fields, head=f"event {{}} {kind}", **options)


# Genesis lines, shared by scenarios and L1 histories.
_ACCOUNT = Line(
    "account", lambda address, balance, nonce: _Genesis(address, Account(balance, nonce)),
    ("address", ADDRESS), ("balance", "account.balance", U128, 0), ("nonce", "account.nonce", U64, 0),
    head="genesis account {}",
)
_CONTRACT = Line(
    "contract",
    lambda address, admin, balance, storage, statements: _Genesis(
        address, Account(balance, 0, ContractCode(admin, statements), storage)
    ),
    ("address", ADDRESS), ("admin", "account.code.admin", ADDRESS), ("balance", "account.balance", U128, 0),
    ("storage", "account.storage", STORAGE, EMPTY_ACCOUNT.storage), ("code", "account.code.statements", CODE, ()),
    head="genesis contract {}",
)

# Scenario lines. Times, fees and block counts are hashed as 8 bytes, so
# nothing exceeds 2^64-1; a worker count is a thread count.
MAX_WORKERS = 256
_SCENARIO = Line("scenario", lambda name=None: name, ("name", TEXT, _ABSENT), head="scenario v1", once=True)
_CONFIG = Line(  # each `config` line sets any of these; a later line overrides an earlier one
    "config", lambda **settings: settings,
    ("block_time", "seq_config.block_time", POSITIVE), ("blocks_per_epoch", "seq_config.blocks_per_epoch", POSITIVE),
    ("base_fee", "seq_config.base_fee", U64), ("detection_budget", "seq_config.detection_budget", BUDGET),
    ("fee_recipient", "seq_config.fee_recipient", ADDRESS), ("workers", "seq_config.workers", _int(1, MAX_WORKERS)),
    ("genesis_timestamp", "seq_config.genesis_timestamp", U64), ("escape_timeout", U64),
    ("quarantine_period", "quarantine_config.time_criterion_period", POSITIVE),
    ("operators", "quarantine_config.operators", OPERATORS),
    ("max_queued", "pool_config.max_queued", POSITIVE), ("max_pending", "pool_config.max_pending", POSITIVE),
    ("replacement_bump", "pool_config.min_replacement_bump_percent", POSITIVE),
    ("tx_lifetime", "pool_config.tx_lifetime", POSITIVE), default=_ABSENT,
)
_INVARIANT = Line(
    "invariant", Invariant, ("id", TEXT), ("contract", ADDRESS), ("registered_by", ADDRESS), ("predicate", EXPR),
    head="genesis invariant",
)
_RUN = Line("run", lambda run_blocks: run_blocks, ("blocks", "run_blocks", _int(0, None)), once=True)
_SUBMIT = _event(
    "submit", lambda at, label=None, **tx: _Submit(SubmitEvent(at, SignedTransaction(**tx)), label),
    ("sender", "event.tx.sender", ADDRESS), ("nonce", "event.tx.nonce", TX_U64, 0),
    ("to", "event.tx.recipient", RECIPIENT), ("value", "event.tx.value", TX_U128, 0),
    ("data", "event.tx.data", BYTES, b""), ("max_fee", "event.tx.max_fee", TX_U64, 1),
    ("priority_fee", "event.tx.priority_fee", TX_U64, 0), ("gas_limit", "event.tx.gas_limit", TX_U64, 30),
    ("as", "label", TEXT, _ABSENT), at="event.at", tail=9,
)
_L1_BLOCK = _event("l1_block", L1BlockEvent, ("deposits", DEPOSITS, ()))
_DEPOSIT = Line(
    "deposit", DepositTransaction, ("sender", ADDRESS), ("recipient", ADDRESS), ("value", TX_U128, 0),
    ("data", BYTES, b""), ("gas_limit", TX_U64, 30), head="",
)
_SCENARIO_FILE = _table(
    _SCENARIO, _CONFIG, _ACCOUNT, _CONTRACT, _INVARIANT, _RUN, _SUBMIT, _L1_BLOCK,
    _event("approve_release", ApproveReleaseEvent, ("tx", "key", TXREF), ("approver", ADDRESS)),
    _event("stake", StakeEvent, ("account", ADDRESS), ("amount", U64)),
    _event("request_failure_release", FailureReleaseEvent, ("tx", "key", TXREF)),
    _event("set_base_fee", SetBaseFeeEvent, ("fee", U64)),
    _event("advance", AdvanceEvent, ("seconds", U64)),
)

# Report lines, in file order, each with the `RunReport` attribute it fills.
# `l1_export` holds the rest of its line as written, so that a path may hold
# spaces, tabs or braces.
_REPORT = Line("report", RunReport, ("scenario", TEXT, "?"), head="report v1", once=True)
_L1_EXPORT = Line("l1_export", lambda l1_export: l1_export, ("", "l1_export", TEXT), head="l1_export {}", once=True)
_REPORT_BODY = {
    Line(
        "block", BlockSummary, ("number", U64), ("time", "timestamp", U64), ("base_fee", U64), ("epoch", U64),
        ("parent", "parent_hash", BYTES), ("root", "state_root", ROOT), ("deposits", "deposit_ids", _list(HASH)),
        ("txs", "tx_hashes", _list(HASH)),
    ): "blocks",
    Line(
        "entry", EntrySummary, ("key", HASH), ("kind", TEXT), ("sender", ADDRESS), ("seq", "sequence", U64),
        ("admitted_at", U64), ("admitted_block", U64), ("violated", _list(TEXT)), ("victims", _list(ADDRESS)),
        ("damage", U128),
    ): "entries",
    Line(
        "audit", AuditEvent, ("entry", HASH), ("at", U64), ("kind", TEXT), ("actor", TEXT), ("detail", DETAIL)
    ): "audit",
    Line(
        "pool", PoolSummary, ("key", HASH), ("sender", ADDRESS), ("nonce", U64), ("status", TEXT), ("received_at", U64)
    ): "pool",
    Line("counters", Counters, *((name, f"counters.{name}", U64) for name in Counters.__slots__), once=True):
        "counters",
    _L1_EXPORT: "l1_export",
    Line("final_root", lambda final_root: final_root, ("", "final_root", ROOT), head="final_root {}", once=True):
        "final_root",
}
_REPORT_FILE = _table(_REPORT, *_REPORT_BODY)

# L1 history lines. An epoch head's record, and only it, carries the bitmap
# of its epoch's deposits.
_HISTORY = Line("l1history", lambda: None, head="l1history v1", once=True)
_HISTORY_CONFIG = Line(
    "config", lambda fee_recipient, blocks_per_epoch: (fee_recipient, blocks_per_epoch),
    ("fee_recipient", ADDRESS), ("blocks_per_epoch", POSITIVE), once=True,
)
_L1BLOCK = Line("l1block", L1Block, ("number", U64), ("time", "timestamp", U64), ("deposits", _list(DEPOSIT_BLOB)))
_RECORD = Line(
    "record", L1Record, ("epoch", U64), ("l2_number", U64), ("l2_time", "l2_timestamp", U64), ("l2_base_fee", U64),
    ("batch", _list(BLOB)), ("deposit_count", U64, _ABSENT), ("bitmap", _list(WORD), _ABSENT), tail=5,
)
_HISTORY_FILE = _table(_HISTORY, _HISTORY_CONFIG, _ACCOUNT, _CONTRACT, _L1BLOCK, _RECORD)


# ---------------------------------------------------------------------------
# the three files
# ---------------------------------------------------------------------------

def _add_genesis(accounts: Dict[Address, Account], record: _Genesis, lineno: int) -> None:
    if record.address in accounts:
        raise ScenarioError(f"genesis address {record.address.hex0x()} declared twice", line=lineno)
    accounts[record.address] = record.account


def parse_scenario(text: str, default_name: str = "scenario") -> Scenario:
    ctx = SimpleNamespace(labels={}, l1_blocks=0)  # the labels of earlier submits; the next L1 block's number
    name, run_blocks, settings = default_name, None, {}
    accounts: Dict[Address, Account] = {}
    invariants: List[Invariant] = []
    events: List[Event] = []
    l1_events: List[Tuple[int, L1BlockEvent]] = []  # with their line numbers
    for lineno, line, words in _lines(text, _SCENARIO_FILE, _SCENARIO, comments=True):
        extra = {"number": ctx.l1_blocks} if line is _L1_BLOCK else {}  # the L1 block's number, from its place
        record = line.read(words, lineno, ctx, **extra)
        if line is _SCENARIO:
            name = default_name if record is None else record
            if not _one_field(name):
                message = f"scenario name {name!r} must be one report field: not empty, no whitespace outside braces"
                raise ScenarioError(message, line=lineno)
        elif line is _CONFIG:
            settings.update(record)
        elif line is _RUN:
            run_blocks = record
        elif line is _INVARIANT:
            invariants.append(record)
        elif type(record) is _Genesis:
            _add_genesis(accounts, record, lineno)
        else:
            event = record.event if line is _SUBMIT else record
            if events and event.at < events[-1].at:
                raise ScenarioError(f"event timestamps must be non-decreasing (t={event.at})", line=lineno)
            events.append(event)
            if line is _L1_BLOCK:
                ctx.l1_blocks += 1
                l1_events.append((lineno, event))
            elif line is _SUBMIT and record.label is not None:
                if record.label in ctx.labels:
                    raise ScenarioError(f"duplicate label {record.label!r}", line=lineno)
                ctx.labels[record.label] = tx_hash(event.tx)
    if run_blocks is None:
        raise ScenarioError("missing 'run blocks=N' line", line=len(text.splitlines()))

    def pick(names: Sequence[str]) -> Dict[str, Any]:
        return {key: value for key, value in settings.items() if key in names}

    scenario = Scenario(
        name, SequencerConfig(**pick(SequencerConfig._fields)), PoolConfig(**pick(PoolConfig._fields)),
        QuarantineConfig(**pick(QuarantineConfig._fields)), **pick(Scenario.__slots__), genesis=make_state(accounts),
        invariants=invariants, run_blocks=run_blocks, events=events,
    )
    bpe = scenario.seq_config.blocks_per_epoch
    for lineno, event in l1_events:
        if event.number * bpe >= run_blocks:
            raise ScenarioError(
                f"L1 block {event.number} maps to epoch {event.number} whose first L2 block "
                f"{event.number * bpe} is outside the {run_blocks}-block run",
                line=lineno,
            )
    return scenario


def render_report(report: RunReport) -> str:
    lines = [_REPORT.render(report)]
    for line, attr in _REPORT_BODY.items():
        lines.extend([line.render(report)] if line.once else map(line.render, getattr(report, attr)))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> RunReport:
    for lineno, line, words in _lines(text, _REPORT_FILE, _REPORT, verbatim=_L1_EXPORT):
        record = line.read(words, lineno)
        if line is _REPORT:
            report = record
        elif line.once:
            setattr(report, _REPORT_BODY[line], record)
        else:
            getattr(report, _REPORT_BODY[line]).append(record)
    return report


def render_history(history: L1History) -> str:
    lines = [_HISTORY.render(history), _HISTORY_CONFIG.render(history)]
    lines.extend(
        (_ACCOUNT if account.code is None else _CONTRACT).render(_Genesis(address, account))
        for address, account in sorted(history.genesis.accounts.items())
    )
    lines.extend(map(_L1BLOCK.render, history.blocks))
    lines.extend(map(_RECORD.render, history.inbox))
    return "\n".join(lines) + "\n"


def parse_history(text: str) -> L1History:
    config = None
    accounts: Dict[Address, Account] = {}
    blocks: List[L1Block] = []
    inbox: List[L1Record] = []
    for lineno, line, words in _lines(text, _HISTORY_FILE, _HISTORY):
        record = line.read(words, lineno)
        if line is _RECORD:
            inbox.append(record)
        elif line is _L1BLOCK:
            blocks.append(record)
        elif line is _HISTORY_CONFIG:
            config = record
        elif line is not _HISTORY:
            _add_genesis(accounts, record, lineno)
    if config is None:
        raise ScenarioError("history missing config line", line=1)
    return L1History(*config, make_state(accounts), tuple(blocks), tuple(inbox))
