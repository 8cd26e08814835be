"""The line codec, and the genesis and L1-history lines a replica reads.

Every rollupsim text file has one shape: a versioned header line, then one
record per line as `head key=value ...`. Values containing spaces or lists
are wrapped in braces; blank lines are ignored, except in an L1 history,
which is read only as `render_history` writes it.

Each line kind is declared once, as a `Line`: the words that open it and
its ordered `(key, attribute, codec)` fields, where a `Codec` is how one
value is written and read. `Line.render` serves every declared line, and
each `Line` builds its reader once, from its fields' codecs, so the text
form of a record lives in its declaration alone and every line keeps the
same rules. A line is refused, with its number, when it:
- lacks a field, or has one its declaration does not name;
- holds a value its codec refuses (each integer has its range);
- repeats a line its file holds once: a header, or `config` in a history;
- declares a genesis address a second time.

Contract code and invariant predicates use a small s-expression syntax:

    atoms       42, 0x2a, 'paused' (utf-8 bytes read as a big-endian int),
                caller, callvalue, calldata, self
    expressions (const X) (sload K) (balance A) (add|sub|mul|eq|lt|and|or L R)
                (not E); sugar: (ge a b) (gt a b) (le a b) (ne a b); a bare
                atom in expression position means (const atom)
    statements  (require E) (set K V) (pay TO AMOUNT)

Its head words are declared once, in `vm.SYNTAX`, which `vm.expr_text`
writes from; the reader's tables are built from it, and this module adds
only the read-only sugar `ge`, `gt`, `le` and `ne`. A character no token
takes, such as a quote that opens no quoted atom, is refused.

Code may nest `MAX_NESTING` levels deep, counted on the built tree: a
statement or a predicate is level 1, each operand one level below its
operator, and sugar such as `ge` builds two levels. Deeper code is refused
with its line number, so every tree read can be rendered, read back, hashed
and compiled.

Addresses are 0x-hex, left-padded to 20 bytes, so `0x0a` is a valid short
form. This module imports only `core`, `vm` and `l1da`, so `derive` reads
its history without loading any pool, detector or sequencer code; `formats`
declares the scenario and report lines on the same codec.
"""
from __future__ import annotations

import math
import re
import sys
from itertools import repeat, zip_longest
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from .core import U64_MAX, U128_MAX, Address, ScenarioError, decode_deposits, encode_deposit
from .l1da import WORD_BITS, L1Block, L1History, L1Record
from . import vm
from .vm import EMPTY_ACCOUNT, ZERO_SLOT, Account, ContractCode, Expr, Statement, WorldState, make_state


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


def _unbrace(value: str) -> str:
    if value.startswith("{") and value.endswith("}"):
        return value[1:-1].strip()
    return value


def _parse_int(
    value: str, lineno: int, what: str = "integer", ctx: Any = None, minimum: Optional[int] = None,
    maximum: Optional[int] = None,
) -> int:
    """The one integer reader of all three formats: ASCII decimal digits,
    after a `-` that every range refuses, or `0x` and hex digits; no sign,
    underscore, whitespace or other script's digits that `int` would take.
    Like the two hex readers below, it takes a codec's arguments (see `Codec`)."""
    hexadecimal = value.startswith("0x")
    digits = value[2:] if hexadecimal else value[value.startswith("-"):]
    if not (digits and digits.isascii() and (_HEX_RE.fullmatch(digits) if hexadecimal else digits.isdigit())):
        raise ScenarioError(f"{what} must be an integer, got {value!r}", line=lineno)
    try:
        number = int(value, 16) if hexadecimal else int(value)
    except ValueError:  # more digits than `int` reads from text
        raise ScenarioError(f"{what} must be an integer, got {value!r}", line=lineno) from None
    if minimum is not None and number < minimum:
        raise ScenarioError(f"{what} must be at least {minimum}, got {number}", line=lineno)
    if maximum is not None and number > maximum:
        raise ScenarioError(f"{what} must be at most {maximum}, got {number}", line=lineno)
    return number


_HEX_RE = re.compile(r"[0-9a-fA-F]*")


def _parse_address(value: str, lineno: int, what: str = "", ctx: Any = None) -> Address:
    """An address is checked here, where it enters: each return builds it
    in C from 20 bytes the lines above have counted."""
    if len(value) == 42 and value.startswith("0x"):  # the full form: one `fromhex` checks all 40 digits
        try:
            raw = bytes.fromhex(value[2:])
        except ValueError:  # not hex: the checks below word the refusal
            raw = b""
        if len(raw) == 20:  # fewer when `fromhex` skipped whitespace, refused below
            return bytes.__new__(Address, raw)
    if not value.startswith("0x"):
        raise ScenarioError(f"address must be 0x-hex: {value!r}", line=lineno)
    digits = value[2:]
    if len(digits) > 40 or len(digits) % 2 != 0 or not _HEX_RE.fullmatch(digits):
        raise ScenarioError(f"bad address: {value!r}", line=lineno)
    return bytes.__new__(Address, bytes.fromhex(digits.rjust(40, "0")))  # 40 hex digits


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

# The last alternative is the one character no other consumes: a quote
# that opens no quoted atom, read as a token of its own so it is refused.
_TOKEN_RE = re.compile(r"\(|\)|'[^']*'|[^\s()']+|'")
MAX_NESTING = 64  # the corpus nests 6 levels deep


def _tokenize_sexpr(text: str, lineno: int) -> List[str]:
    tokens = _TOKEN_RE.findall(text)
    if "'" in tokens or ("".join(tokens).replace("(", "").replace(")", "") == "" and text.strip()):
        raise ScenarioError(f"cannot tokenize {text!r}", line=lineno)
    return tokens


def _too_deep(lineno: int) -> ScenarioError:
    return ScenarioError(f"code nested deeper than {MAX_NESTING} levels", line=lineno)


def _read_form(tokens: List[str], pos: int, lineno: int, depth: int = 1):
    """Read one form. A form `depth` parentheses deep builds a node at least
    that deep, so a form past `MAX_NESTING` is refused before it is read."""
    if pos >= len(tokens):
        raise ScenarioError("unexpected end of expression", line=lineno)
    tok = tokens[pos]
    if tok == "(":
        if depth > MAX_NESTING:
            raise _too_deep(lineno)
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_form(tokens, pos, lineno, depth + 1)
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


# The head words of `vm.SYNTAX`, by what they open: an atom (a field-less
# node), an operator or a statement. `const` is read by `_build_expr` itself.
_ATOMS = {word: node for word, node in vm.SYNTAX.items() if not node._fields}
_STATEMENTS = {word: (len(node._fields), node) for word, node in vm.SYNTAX.items() if issubclass(node, Statement)}
# operator -> (arity, build from the built arguments, levels it builds);
# ge/gt/le/ne are sugar, the only head words declared here
_OPERATORS = {
    **{word: (2, lambda a, b, op=word: vm.Bin(op, a, b), 1) if node is vm.Bin else (len(node._fields), node, 1)
       for word, node in vm.SYNTAX.items() if node._fields and node is not vm.Const and issubclass(node, Expr)},
    "ge": (2, lambda a, b: vm.Not(vm.Bin("lt", a, b)), 2), "gt": (2, lambda a, b: vm.Bin("lt", b, a), 1),
    "le": (2, lambda a, b: vm.Not(vm.Bin("lt", b, a)), 2), "ne": (2, lambda a, b: vm.Not(vm.Bin("eq", a, b)), 2),
}


def _build_expr(form, lineno: int) -> Tuple[Expr, int]:
    """The expression a form reads, and its height: a leaf is 1 high."""
    if isinstance(form, str):
        return (_ATOMS[form]() if form in _ATOMS else vm.Const(_atom_value(form, lineno))), 1
    if not form:
        raise ScenarioError("empty expression", line=lineno)
    head, args = form[0], form[1:]
    if not isinstance(head, str):
        raise ScenarioError("expression head must be a symbol", line=lineno)
    arity, build, levels = (1, None, 1) if head == "const" else _OPERATORS.get(head, (None, None, None))
    if arity is None:
        raise ScenarioError(f"unknown operator {head!r}", line=lineno)
    if len(args) != arity:
        raise ScenarioError(f"{head} takes {arity} argument(s), got {len(args)}", line=lineno)
    if build is None:  # const
        if not isinstance(args[0], str):
            raise ScenarioError("const takes an atom", line=lineno)
        return vm.Const(_atom_value(args[0], lineno)), 1
    nodes, heights = zip(*[_build_expr(arg, lineno) for arg in args])
    return build(*nodes), levels + max(heights)


def _build_statement(form, lineno: int) -> Tuple[Statement, int]:
    """The statement a form reads, and its height: the statement is level 1."""
    if isinstance(form, str) or not form or not isinstance(form[0], str):
        raise ScenarioError("statement must be a (head ...) form", line=lineno)
    head, args = form[0], form[1:]
    arity, build = _STATEMENTS.get(head, (None, None))
    if len(args) != arity:
        raise ScenarioError(f"bad statement {head!r}", line=lineno)
    nodes, heights = zip(*[_build_expr(arg, lineno) for arg in args])
    return build(*nodes), 1 + max(heights)


def parse_expr(text: str, lineno: int = 0) -> Expr:
    tokens = _tokenize_sexpr(text, lineno)
    form, pos = _read_form(tokens, 0, lineno)
    if pos != len(tokens):
        raise ScenarioError("trailing tokens after expression", line=lineno)
    expr, height = _build_expr(form, lineno)
    if height > MAX_NESTING:
        raise _too_deep(lineno)
    return expr


def parse_statements(text: str, lineno: int = 0) -> Tuple[Statement, ...]:
    tokens = _tokenize_sexpr(text, lineno)
    statements: List[Statement] = []
    pos = 0
    while pos < len(tokens):
        form, pos = _read_form(tokens, pos, lineno)
        statement, height = _build_statement(form, lineno)
        if height > MAX_NESTING:
            raise _too_deep(lineno)
        statements.append(statement)
    return tuple(statements)


# ---------------------------------------------------------------------------
# codecs: how one value is written and read
# ---------------------------------------------------------------------------

class Codec(NamedTuple):
    """How one value is written and read back. `parse(text, lineno, what,
    ctx)` reads it, `what` naming the field in messages and `ctx` being a
    scenario's context (None elsewhere). `render` writes it; None writes
    it as `str.format` does (integers in decimal, text as it is). An integer
    codec reads `least..top`; a list codec names the codec of its `item`.
    `pattern` is a regular expression, with no group of its own, that
    matches exactly the spellings `render` writes (None: no line that is
    read by a full match holds the codec)."""

    render: Optional[Callable[[Any], str]]
    parse: Callable[[str, int, str, Any], Any]
    least: Optional[int] = None
    top: Optional[int] = None
    item: Optional["Codec"] = None
    pattern: Optional[str] = None


DECIMAL = "0|[1-9][0-9]*"  # how `str` writes a natural number
# How a list of `bytes.hex` strings is written, `-` when empty: one class
# for digits and commas, as a group per entry is slower to match, and
# `bytes.fromhex` refuses an odd count of digits.
HEX_LIST = "-|[0-9a-f,]*"


def _int(
    least: Optional[int], top: Optional[int], render: Optional[Callable[[int], str]] = None, pattern: str = DECIMAL,
) -> Codec:
    """Integers in `least..top` (None: unbounded); `_parse_int` reads what
    is not plain ASCII decimal, and words every refusal."""
    low, high = -math.inf if least is None else least, math.inf if top is None else top

    def parse(text: str, lineno: int, what: str, ctx: Any = None) -> int:
        try:
            if text.isdigit() and text.isascii():  # `int` also takes "+5", "1_000", " 5" and other scripts' digits
                number = int(text)
                if low <= number <= high:
                    return number
        except ValueError:  # more digits than `int` reads from text
            pass
        return _parse_int(text, lineno, what, ctx, least, top)

    return Codec(render, parse, least, top, pattern=pattern)


def _list(item: Codec, pattern: Optional[str] = None) -> Codec:
    """A comma-separated list of one codec's values, `-` when empty;
    `pattern` may replace the one built from the item's."""
    render, parse = item.render or str, item.parse
    return Codec(
        lambda values: ",".join(map(render, values)) if values else "-",
        lambda text, lineno, what, ctx: tuple([parse(value, lineno, what, ctx) for value in _parse_list(text)]),
        item=item, pattern=pattern or item.pattern and f"-|(?:{item.pattern})(?:,(?:{item.pattern}))*",
    )


def _braced(render: Callable[[Any], str], parse: Callable[[str, int], Any]) -> Codec:
    """A value written inside braces, so that it may hold spaces."""
    return Codec(lambda value: "{" + render(value) + "}", lambda text, lineno, *_: parse(_unbrace(text), lineno))



def _parse_storage(text: str, lineno: int, what: str, ctx: Any) -> Dict[bytes, bytes]:
    storage: Dict[bytes, bytes] = {}
    for pair in _parse_list(text):
        if "=" not in pair:
            raise ScenarioError(f"bad storage pair {pair!r}", line=lineno)
        k, v = pair.split("=", 1)
        storage[vm.slot_bytes(_atom_value(k, lineno))] = vm.slot_bytes(_atom_value(v, lineno))
    return storage


U64, U128, POSITIVE = _int(0, U64_MAX), _int(0, U128_MAX), _int(1, U64_MAX)
ADDRESS = Codec(_fmt_bytes, _parse_address, pattern="0x[0-9a-f]{40}")
BLOB = Codec(bytes.hex, lambda text, *_: bytes.fromhex(text))  # a posted batch entry: bare hex
DEPOSIT_BLOB = Codec(lambda dep: encode_deposit(dep).hex(), lambda text, *_: decode_deposits((bytes.fromhex(text),))[0])
WORD = _int(0, 2**WORD_BITS - 1, hex, "0x(?:0|[1-9a-f][0-9a-f]*)")  # how `hex` writes a natural number
STORAGE = Codec(
    lambda storage: ",".join(f"{hex(vm.slot_int(k))}={hex(vm.slot_int(v))}" for k, v in sorted(storage.items())) or "-",
    _parse_storage,
)
CODE = _braced(lambda statements: " ".join(map(vm.expr_text, statements)), parse_statements)


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
    the record takes from outside the line.

    `grows` marks a line kind whose count grows with the size of a run. It
    gets `pattern`, one compiled regular expression that full-matches the
    line as `render` spells it, each field's value by its codec's `pattern`
    in one group, in declaration order. A field with a default may be left
    out, its group then None; `blanks` holds, per field, the text of its
    default as `render` writes it (None for a field without one). The file
    reader builds the record from the groups itself."""

    __slots__ = ("name", "head", "make", "fields", "once", "read", "pattern", "blanks", "_tail", "_words", "_template",
                 "_tail_template", "_convert", "_get")

    def __init__(
        self, name: str, make: Callable[..., Any], *fields: tuple, head: Optional[str] = None, once: bool = False,
        tail: Optional[int] = None, default: Any = _REQUIRED, grows: bool = False,
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
        self.pattern = self.blanks = None
        if grows:
            self.blanks = tuple(
                None if d is _REQUIRED or d is _ABSENT else (codec.render or str)(d) for _k, _a, codec, d in fields
            )
            values = iter(f"({codec.pattern})" for _key, _attr, codec, _d in fields)
            text = " ".join(next(values) if word == "{}" else re.escape(word) for word in words)
            for key, _attr, _codec, d in fields[n_slots:n_slots + cut]:
                text += f" {key}={next(values)}" if d is _REQUIRED else f"(?: {key}={next(values)})?"
            if tail is not None:  # all or none
                text += "(?:" + "".join(f" {key}={next(values)}" for key, *_ in fields[tail:]) + ")?"
            self.pattern = re.compile(text)

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
    text: str, table: Dict[str, Any], header: Line, comments: bool = False, verbatim: Optional[Line] = None,
    fast: Tuple[Line, ...] = (),
) -> Iterator[Tuple[int, Line, Any]]:
    """Each line of a file as (line number, declaration, words): the header
    first, then one per non-blank line. A `verbatim` line's one value is the
    rest of the line after its head and one space or tab, as written. A
    line of a `fast` kind that its `Line.pattern` full-matches comes with
    that `re.Match` in place of its words."""
    lines = text.splitlines()
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        body = (raw.split("#", 1)[0] if comments else raw).strip()
        if not body:
            continue
        if seen:
            match = None
            for line in fast:
                match = line.pattern.fullmatch(body)
                if match:
                    break
            if match:
                yield lineno, line, match
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


# Genesis lines, shared by scenarios and L1 histories, and the record they
# read. Each field is checked by its codec, so the pair and its `Account`
# are built in C, positionally, as `post_state` builds an account.
_Genesis = NamedTuple("_Genesis", [("address", Address), ("account", Account)])
_new = tuple.__new__
_NO_SLOTS = EMPTY_ACCOUNT.storage
_ACCOUNT = Line(
    "account",
    lambda address, balance, nonce: _new(_Genesis, (address, _new(Account, (balance, nonce, None, _NO_SLOTS)))),
    ("address", ADDRESS), ("balance", "account.balance", U128, 0), ("nonce", "account.nonce", U64, 0),
    head="genesis account {}", grows=True,
)
_CONTRACT = Line(
    "contract",
    lambda address, admin, balance, storage, statements: _new(
        _Genesis, (address, _new(Account, (balance, 0, ContractCode(admin, statements), storage)))
    ),
    ("address", ADDRESS), ("admin", "account.code.admin", ADDRESS), ("balance", "account.balance", U128, 0),
    ("storage", "account.storage", STORAGE, EMPTY_ACCOUNT.storage), ("code", "account.code.statements", CODE, ()),
    head="genesis contract {}",
)

# L1 history lines. An epoch head's record, and only it, carries the bitmap
# of its epoch's deposits.
_HISTORY = Line("l1history", lambda: None, head="l1history v1", once=True)
_HISTORY_CONFIG = Line(
    "config", lambda fee_recipient, blocks_per_epoch: (fee_recipient, blocks_per_epoch),
    ("fee_recipient", ADDRESS), ("blocks_per_epoch", POSITIVE), once=True,
)
_L1BLOCK = Line(
    "l1block", L1Block, ("number", U64), ("time", "timestamp", U64), ("deposits", _list(DEPOSIT_BLOB, HEX_LIST)),
    grows=True,
)
_RECORD = Line(
    "record", L1Record, ("epoch", U64), ("l2_number", U64), ("l2_time", "l2_timestamp", U64), ("l2_base_fee", U64),
    ("batch", _list(BLOB, HEX_LIST)), ("deposit_count", U64, _ABSENT), ("bitmap", _list(WORD), _ABSENT), tail=5,
    grows=True,
)
_HISTORY_FILE = _table(_HISTORY, _HISTORY_CONFIG, _ACCOUNT, _CONTRACT, _L1BLOCK, _RECORD)


# ---------------------------------------------------------------------------
# the history file
# ---------------------------------------------------------------------------

def _add_genesis(accounts: Dict[Address, Account], record: _Genesis, lineno: int) -> None:
    if record.address in accounts:
        raise ScenarioError(f"genesis address {record.address.hex0x()} declared twice", line=lineno)
    accounts[record.address] = record.account


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
    """The history `text` holds, spelled exactly as `render_history` writes
    it. A line of a growing kind (`genesis account`, `l1block`, `record`)
    is read by one full match of its `Line.pattern` and built in C, each of
    its fields' range checks inline; the header, `config` and `genesis
    contract` lines are read by their generic reader and must equal their
    own render. The order is checked as the lines are read: the header,
    `config`, the genesis lines by ascending address, the L1 blocks, then
    the records, each line ended by one `\\n`. A text that strays anywhere
    is handed to `_reread`, which refuses it at its first fault."""
    rows = text.split("\n")
    if rows.pop() or len(rows) < 2 or rows[0] != _HISTORY.head or not rows[1].startswith("config "):
        return _reread(text)  # no final newline, or not the header, then `config`
    account, l1block, record = _ACCOUNT.pattern.fullmatch, _L1BLOCK.pattern.fullmatch, _RECORD.pattern.fullmatch
    accounts: Dict[Address, Account] = {}
    blocks: List[L1Block] = []
    inbox: List[L1Record] = []
    n, end, last = 2, len(rows), b""
    try:
        config = _HISTORY_CONFIG.read(_split_fields(rows[1], 2), 2)
        while n < end:
            row = rows[n]
            match = account(row)
            if match is not None:
                address, balance, nonce = match.groups()
                if balance is None or nonce is None:  # left out: `render` writes both
                    return _reread(text)
                address, balance, nonce = bytes.__new__(Address, bytes.fromhex(address[2:])), int(balance), int(nonce)
                # U128 and U64; `make_state` drops an empty account, so none is written
                if balance > U128_MAX or nonce > U64_MAX or not (balance or nonce):
                    return _reread(text)
                acct = _new(Account, (balance, nonce, None, _NO_SLOTS))
            elif row.startswith("genesis contract "):
                genesis = _CONTRACT.read(_split_fields(row, n + 1), n + 1)
                address, acct = genesis
                # its own render, with no zero slot, which `make_state` drops and so `render_history` never writes
                if _CONTRACT.render(genesis) != row or ZERO_SLOT in acct.storage.values():
                    return _reread(text)
            else:  # the genesis ends
                break
            if address <= last:  # ascending, as `render_history` sorts them: no address twice
                return _reread(text)
            accounts[address] = acct
            last = address
            n += 1
        while n < end and (match := l1block(rows[n])) is not None:
            number, time, deposits = match.groups()
            number, time = int(number), int(time)
            if number > U64_MAX or time > U64_MAX:  # U64
                return _reread(text)
            deposits = () if deposits == "-" else decode_deposits(map(bytes.fromhex, deposits.split(",")))
            blocks.append(_new(L1Block, (number, time, deposits)))
            n += 1
        while n < end and (match := record(rows[n])) is not None:
            epoch, number, time, fee, batch, count, bitmap = match.groups()
            epoch, number, time, fee = int(epoch), int(number), int(time), int(fee)
            if count is None:  # not an epoch head
                bitmap = ()
            else:
                count = int(count)
                bitmap = () if bitmap == "-" else tuple(map(int, bitmap.split(","), repeat(16)))
                if count > U64_MAX or max(bitmap, default=0) > WORD.top:  # U64; each bitmap word a WORD
                    return _reread(text)
            if max(epoch, number, time, fee) > U64_MAX:  # U64
                return _reread(text)
            batch = () if batch == "-" else tuple(map(bytes.fromhex, batch.split(",")))
            inbox.append(_new(L1Record, (epoch, number, time, fee, batch, count, bitmap)))
            n += 1
    except (ScenarioError, ValueError):  # `_reread` words the refusal
        return _reread(text)
    history = L1History(*config, WorldState(accounts), tuple(blocks), tuple(inbox))
    if n < end or _HISTORY_CONFIG.render(history) != rows[1]:  # a line out of place, or a config spelled otherwise
        return _reread(text)
    return history


def _reread(text: str) -> L1History:
    """`parse_history`'s error path: every line read by its generic reader,
    the first it cannot read refused, then the render of what was read
    compared with the text, the first line spelled otherwise refused with
    the form expected. It returns the history only if `text` is written as
    `render_history` writes it."""
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
    history = L1History(*config, make_state(accounts), tuple(blocks), tuple(inbox))
    written = render_history(history)
    for lineno, (line, form) in enumerate(zip_longest(text.splitlines(True), written.splitlines(True)), start=1):
        if line != form:
            expected = "the end of the file" if form is None else repr(form[:-1])
            raise ScenarioError(f"not in canonical form, expected {expected}", line=lineno)
    return history
