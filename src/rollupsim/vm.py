"""Miniature deterministic account machine with read/write-set tracking.

Accounts hold balances, nonces and optionally a guarded-command program whose
statements run top to bottom on every call. There is no branching, no
cross-contract call and no code deployment; a failed REQUIRE (or an
overdrawn PAY, or running out of gas) reverts the whole transaction. Every
state location an execution touches is recorded as an access key so
callers can do dependency analysis between transactions; a block's replay
records none. A node holds its fields only: each contract program is
compiled on its first run into one straight-line Python function, memoized
on its `ContractCode` as its code hash is, and each invariant predicate
when its invariant is registered, so running either is one call, with no
per-node dispatch, and a program the run never calls is never compiled.
Each distinct program or predicate is compiled once per process, and every
holder of its text shares the one function.
The language's head words are declared once, in `SYNTAX`: `expr_text`
writes every node from it, and the `lines` reader builds its tables from it.

Cost model: 21 gas intrinsic plus 1 gas per executed statement. The base-fee
share of the fee is burned; the priority share goes to the block's fee
recipient. Deposits mint their value and pay no fee.

`execute_transaction` applies the transaction envelope (the nonce bump or
deposit mint, the value transfer, the code lookup and the fee) in one step,
writing the scratch and recording the envelope's fixed access keys directly;
only a contract program goes through the recording `read_*`/`write_*`
accessors. It returns the `Execution` itself: its outcome, its access sets
and a scratch of the accounts it touched over its base. Its post-state is
built only by `post_state()`: judging an execution reads its field views
(`balance_of`, `nonce_of`, `storage_of`, `code_of`) and builds no state. An
execution can itself be the base of further executions and absorb their
effects, as the classifier's fold does. A `Replay` scratch instead runs
each transaction in place, by its type alone: `apply_block` runs its block
on one, as go-ethereum's `StateDB` runs on its journal, with no child
execution, no absorb and no access key. Each balance and slot write of a
contract call, from its value transfer on, logs the value it replaces, and
a revert undoes the log newest-first. The block builds one account map, at
its end. No state read builds an
`Account`: only `post_state` does, for an address whose account changed.
An execution only ever mutates storage dicts it made itself.

World states are copy-on-write: a post-state shares every untouched `Account`
object with the state it came from. Nothing may therefore mutate an `Account`
or its `storage` in place; build a new `Account` instead. A post-state also
records its root lineage: the sorted digest table of its nearest ancestor
whose root was computed, and the addresses changed since. `state_root`
patches that table instead of re-sorting and re-hashing every account, and
`changed_since` answers one hop: which accounts a state may disagree on with
that rooted ancestor.
"""
from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from collections import namedtuple
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from .core import (
    BASE_TX_GAS,
    Address,
    AnyTransaction,
    Block,
    DepositTransaction,
    Record,
    StateRoot,
    U64_MAX,
)

WORD = 2**256
WORD_MAX = WORD - 1


# ---------------------------------------------------------------------------
# Expressions and statements
# ---------------------------------------------------------------------------
# Nodes are `Record`s, not named tuples: a field-less named tuple is falsy and
# equals (), and two named tuples of one arity compare equal across types. A
# node holds its fields and builds nothing it runs: a contract program is
# compiled on its first run, and a predicate when its invariant is registered
# (see "Compiled programs" below).


def _expr(child: object) -> "Expr":
    if not isinstance(child, Expr):
        raise TypeError(f"not an expression: {child!r}")
    return child


class Const(Record):
    _fields = ("value",)
    __slots__ = _fields

    def __init__(self, value: int) -> None:
        if not 0 <= value <= WORD_MAX:
            raise ValueError(f"constant out of word range: {value}")
        self.value = value


class SLoad(Record):
    _fields = ("key",)
    __slots__ = _fields

    def __init__(self, key: "Expr") -> None:
        self.key = _expr(key)


class BalanceOf(Record):
    _fields = ("addr",)
    __slots__ = _fields

    def __init__(self, addr: "Expr") -> None:
        self.addr = _expr(addr)


class Caller(Record):
    __slots__ = ()


class CallValue(Record):
    __slots__ = ()


class CallData(Record):
    """First 32 bytes of the call payload, read as a big-endian integer."""

    __slots__ = ()


class SelfAddr(Record):
    __slots__ = ()


# Operator -> the source of a `Bin` node's word, from its operands' locals.
# ADD and MUL wrap modulo 2**256, SUB saturates at 0, comparisons and logic
# yield 0 or 1 (any non-zero word is true). Both operands are evaluated, left
# first, before the operator: `and` and `or` never short-circuit, so a node
# reads the same keys whatever the words it reads.
_BIN_SOURCE = {
    "add": "({a} + {b}) % WORD",
    "sub": "{a} - {b} if {a} > {b} else 0",
    "mul": "({a} * {b}) % WORD",
    "eq": "1 if {a} == {b} else 0",
    "lt": "1 if {a} < {b} else 0",
    "and": "1 if {a} and {b} else 0",
    "or": "1 if {a} or {b} else 0",
}
BIN_OPS = tuple(_BIN_SOURCE)


class Bin(Record):
    _fields = ("op", "left", "right")
    __slots__ = _fields

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        if op not in BIN_OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = _expr(left)
        self.right = _expr(right)


class Not(Record):
    _fields = ("inner",)
    __slots__ = _fields

    def __init__(self, inner: "Expr") -> None:
        self.inner = _expr(inner)


Expr = Union[Const, SLoad, BalanceOf, Caller, CallValue, CallData, SelfAddr, Bin, Not]


class Require(Record):
    _fields = ("cond",)
    __slots__ = _fields

    def __init__(self, cond: Expr) -> None:
        self.cond = _expr(cond)


class SetSlot(Record):
    _fields = ("key", "value")
    __slots__ = _fields

    def __init__(self, key: Expr, value: Expr) -> None:
        self.key = _expr(key)
        self.value = _expr(value)


class Pay(Record):
    """Both balances are read before the overdraw check, so an overdrawn
    PAY reads the same keys as one that goes through."""

    _fields = ("to", "amount")
    __slots__ = _fields

    def __init__(self, to: Expr, amount: Expr) -> None:
        self.to = _expr(to)
        self.amount = _expr(amount)


Statement = Union[Require, SetSlot, Pay]


# The contract language's head words, each naming the node it builds: the
# one table `expr_text` writes and `lines` reads. A `Bin` is headed by its op.
SYNTAX = {
    "const": Const, "sload": SLoad, "balance": BalanceOf, "caller": Caller, "callvalue": CallValue,
    "calldata": CallData, "self": SelfAddr, **dict.fromkeys(BIN_OPS, Bin), "not": Not,
    "require": Require, "set": SetSlot, "pay": Pay,
}
_HEADS = {cls: head for head, cls in SYNTAX.items() if cls is not Bin}


def expr_text(node: Union[Expr, Statement]) -> str:
    """Canonical text of an expression or a statement (integers in lowercase
    hex): a field-less node is its bare head word, any other node
    `(head field ...)` with its fields in `_fields` order."""
    kind = type(node)
    if kind is Const:
        return f"(const {hex(node.value)})"
    if kind is Bin:
        return f"({node.op} {expr_text(node.left)} {expr_text(node.right)})"
    head = _HEADS.get(kind)
    if head is None:
        raise TypeError(f"not an expression or a statement: {node!r}")
    return f"({head} {' '.join(map(expr_text, node._values()))})" if node._fields else head


def code_text(code: "ContractCode") -> str:
    return " ".join(map(expr_text, code.statements))


# ---------------------------------------------------------------------------
# Accounts and world state
# ---------------------------------------------------------------------------

class ContractCode(Record):
    _fields = ("admin", "statements")
    # `_hash` memoizes code_hash, as `SignedTransaction._hash` memoizes
    # tx_hash: the program is rendered and hashed once per code object.
    # `_program` memoizes the compiled program, looked up or compiled by its
    # first run.
    __slots__ = (*_fields, "_hash", "_program")

    def __init__(self, admin: Address, statements: Tuple[Statement, ...]) -> None:
        for stmt in statements:
            if not isinstance(stmt, Statement):
                raise TypeError(f"not a statement: {stmt!r}")
        self.admin = admin
        self.statements = statements
        self._hash = None
        self._program = None


Account = namedtuple("Account", (
    "balance",  # int
    "nonce",  # int
    "code",  # Optional[ContractCode]
    "storage",  # Mapping[bytes, bytes]
), defaults=(0, 0, None, MappingProxyType({})))  # the default storage is shared, so read-only


def _is_empty(self: Account) -> bool:
    return self.balance == 0 and self.nonce == 0 and self.code is None and not self.storage


Account.is_empty = _is_empty


EMPTY_ACCOUNT = Account()


class WorldState(Record):
    """All accounts, stored canonically: empty accounts and zero slots are absent.

    `account` returns an address's `Account`; the field views `balance_of`,
    `nonce_of`, `storage_of` and `code_of`, which an `Execution` offers too,
    return one field of it."""

    _fields = ("accounts",)
    # Root bookkeeping, outside `_fields` (equality and repr ignore it), None
    # until set. `_table` is set once by `state_root`: (root, sorted
    # addresses, their 32-byte digests end to end in one `bytearray`); a
    # later table shares the address list while no account is added or
    # removed. `_lineage` is set by `Execution.post_state`
    # on a base with a table or a lineage: (the nearest rooted ancestor's
    # table, frozenset of the addresses changed since). It holds no state,
    # so no chain of old states stays alive. State roots are computed on one
    # thread; worker threads only execute. Tests hold states weakly.
    __slots__ = ("accounts", "_table", "_lineage", "__weakref__")

    def __init__(self, accounts: Optional[Mapping[Address, Account]] = None) -> None:
        self.accounts = {} if accounts is None else accounts
        self._table = None
        self._lineage = None

    def account(self, addr: Address) -> Account:
        return self.accounts.get(addr, EMPTY_ACCOUNT)

    def balance_of(self, addr: Address) -> int:
        return self.accounts.get(addr, EMPTY_ACCOUNT).balance

    def nonce_of(self, addr: Address) -> int:
        return self.accounts.get(addr, EMPTY_ACCOUNT).nonce

    def storage_of(self, addr: Address) -> Mapping[bytes, bytes]:
        return self.accounts.get(addr, EMPTY_ACCOUNT).storage

    def code_of(self, addr: Address) -> Optional[ContractCode]:
        return self.accounts.get(addr, EMPTY_ACCOUNT).code


ZERO_SLOT = bytes(32)


def make_state(accounts: Mapping[Address, Account]) -> WorldState:
    """Build a canonical WorldState, dropping empty accounts and zero slots."""
    pruned: Dict[Address, Account] = {}
    for addr, acct in accounts.items():
        if acct.storage:  # an account without slots is kept as it is, its storage shared like `EMPTY_ACCOUNT`'s
            acct = acct._replace(storage={k: v for k, v in acct.storage.items() if v != ZERO_SLOT})
        if not acct.is_empty():
            pruned[addr] = acct
    return WorldState(pruned)


def slot_bytes(value: int) -> bytes:
    return (value % WORD).to_bytes(32, "big")


def slot_int(value: bytes) -> int:
    return int.from_bytes(value, "big")


# ---------------------------------------------------------------------------
# Access keys and transaction status
# ---------------------------------------------------------------------------

class AccessKind:
    """Key kinds as plain ints: an `IntEnum` member in a key hashes in Python."""

    STORAGE = 0
    BALANCE = 1
    NONCE = 2
    CODE = 3


_new_key = tuple.__new__


AccessKey = namedtuple("AccessKey", (
    "kind",  # int, an `AccessKind`
    "addr",  # Address
    "slot",  # bytes
), defaults=(b"",))
AccessKey.__doc__ = """A recorded state location: a tuple, so it hashes, compares and sorts
by (kind, addr, slot) in C. Every key is built as
`_new_key(AccessKey, (kind, addr, slot))`, which skips the generated
Python-level `__new__`."""


class TxStatus:
    """An execution's outcome, as plain strings, compared by identity."""

    SUCCESS = "success"
    REVERT = "revert"


BlockContext = namedtuple("BlockContext", (
    "base_fee",  # int
    "fee_recipient",  # Address
))


class PreconditionFailed(Exception):
    """The transaction is not executable at this state (not a revert)."""

    NONCE_TOO_LOW = "nonce_too_low"
    NONCE_TOO_HIGH = "nonce_too_high"
    INSUFFICIENT_BALANCE = "insufficient_balance"
    FEE_BELOW_BASE = "fee_below_base"

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


class InvalidBlock(Exception):
    def __init__(self, index: int, reason: str):
        super().__init__(f"transaction {index}: {reason}")
        self.index = index
        self.reason = reason


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

class _Revert(Exception):
    pass


class Execution:
    """One execution: its outcome (`status`, `gas_used`), the access sets it
    recorded, and a scratch copy of the accounts it touched.

    Its base is a `WorldState` or another execution; either way it is read
    through the field views `balance_of`, `nonce_of`, `storage_of` and
    `code_of`, which an execution offers too, showing the accounts as it
    leaves them. No view builds an `Account`. `execute_transaction` returns
    one; the classifier's fold is one, with every benign candidate of the
    round absorbed into it. `apply_block` runs its block on a `Replay`,
    which records no access and absorbs nothing."""

    def __init__(self, base: Union[WorldState, "Execution"]):
        self.base = base
        self.status = TxStatus.SUCCESS
        self.balances: Dict[Address, int] = {}
        self.nonces: Dict[Address, int] = {}
        self.storage: Dict[Address, Dict[bytes, bytes]] = {}
        self.reads: set = set()
        self.writes: set = set()
        self.gas_used: int = BASE_TX_GAS

    # -- recorded accesses, the ones a contract program makes: each builds
    # its key in place and looks its scratch entry up once --
    def read_balance(self, addr: Address) -> int:
        self.reads.add(_new_key(AccessKey, (AccessKind.BALANCE, addr, b"")))
        balance = self.balances.get(addr)
        if balance is None:
            balance = self.balances[addr] = self.base.balance_of(addr)
        return balance

    def write_balance(self, addr: Address, value: int) -> None:
        self.writes.add(_new_key(AccessKey, (AccessKind.BALANCE, addr, b"")))
        self.balances[addr] = value

    def read_slot(self, addr: Address, key: bytes) -> bytes:
        self.reads.add(_new_key(AccessKey, (AccessKind.STORAGE, addr, key)))
        slots = self.storage.get(addr)
        if slots is None:
            slots = self.base.storage_of(addr)
        return slots.get(key, ZERO_SLOT)

    def write_slot(self, addr: Address, key: bytes, value: bytes) -> None:
        self.writes.add(_new_key(AccessKey, (AccessKind.STORAGE, addr, key)))
        slots = self.storage.get(addr)
        if slots is None:
            slots = self.storage[addr] = dict(self.base.storage_of(addr))
        if value == ZERO_SLOT:
            slots.pop(key, None)
        else:
            slots[key] = value

    # -- post-execution field views (no access recording) --
    def balance_of(self, addr: Address) -> int:
        balance = self.balances.get(addr)
        return self.base.balance_of(addr) if balance is None else balance

    def nonce_of(self, addr: Address) -> int:
        nonce = self.nonces.get(addr)
        return self.base.nonce_of(addr) if nonce is None else nonce

    def storage_of(self, addr: Address) -> Mapping[bytes, bytes]:
        slots = self.storage.get(addr)
        return self.base.storage_of(addr) if slots is None else slots

    def code_of(self, addr: Address) -> Optional[ContractCode]:
        return self.base.code_of(addr)

    # -- folding executions into one scratch --
    def reads_as_base(self, keys) -> bool:
        """Whether every key still holds its base value here. Only a key
        whose field the scratch holds can differ: any other key, and every
        code key, reads through to the base."""
        balances, nonces, storage, base = self.balances, self.nonces, self.storage, self.base
        for kind, addr, slot in keys:
            if kind == AccessKind.BALANCE:
                value = balances.get(addr)
                if value is not None and value != base.balance_of(addr):
                    return False
            elif kind == AccessKind.NONCE:
                value = nonces.get(addr)
                if value is not None and value != base.nonce_of(addr):
                    return False
            elif kind == AccessKind.STORAGE:
                slots = storage.get(addr)
                if slots is not None and slots.get(slot, ZERO_SLOT) != base.storage_of(addr).get(slot, ZERO_SLOT):
                    return False
        return True

    def absorb(self, other: "Execution") -> None:
        """Take over the effects of an execution that ran on this scratch, or
        of one whose reads still hold here (`reads_as_base`). Its storage
        dicts copy whole accounts, so only the slots it wrote are merged, one
        by one: a blind write never clobbers another slot of the contract."""
        self.balances.update(other.balances)
        self.nonces.update(other.nonces)
        for kind, addr, slot in other.writes:
            if kind == AccessKind.STORAGE:
                self.write_slot(addr, slot, other.storage[addr].get(slot, ZERO_SLOT))

    def post_state(self) -> WorldState:
        """Copy-on-write snapshot: share every account whose contents did not
        change, rebuild (and prune, if now empty) only the ones that did.
        Each field is read straight from the scratch or the base account, and
        an `Account` is built, as access keys are, only for a changed
        address. Built anew on every call."""
        base = self.base
        if not isinstance(base, WorldState):
            raise TypeError("an execution on a block scratch has no post-state of its own")
        accounts: Dict[Address, Account] = dict(base.accounts)
        prior = base.accounts.get
        balances, nonces, storage = self.balances, self.nonces, self.storage
        changed: List[Address] = []
        for addr in balances.keys() | nonces.keys() | storage.keys():
            prev_balance, prev_nonce, code, prev_slots = prior(addr, EMPTY_ACCOUNT)
            balance = balances.get(addr, prev_balance)
            nonce = nonces.get(addr, prev_nonce)
            slots = storage.get(addr, prev_slots)
            unchanged = slots is prev_slots or slots == prev_slots
            if unchanged and balance == prev_balance and nonce == prev_nonce:
                continue
            changed.append(addr)
            if balance == 0 and nonce == 0 and code is None and not slots:
                accounts.pop(addr, None)
            else:
                accounts[addr] = tuple.__new__(Account, (balance, nonce, code, slots))
        state = WorldState(accounts)
        if base._table is not None:
            state._lineage = (base._table, frozenset(changed))
        elif base._lineage is not None:
            table, earlier = base._lineage
            state._lineage = (table, earlier.union(changed))
        return state


class Replay(Execution):
    """A block scratch (`apply_block`) that `execute_transaction`, by its
    type, runs each transaction on in place, as go-ethereum's `StateDB`
    runs them on its journal: its accessors record no access key, and each
    write logs the value it replaces in `log`, so a revert can put it back.
    `log` is the running contract call's undo log, a list of (dict written,
    key, value replaced or None), which `execute_transaction` starts, with
    the call's value transfer, before the call's program runs.

    Its base is always a `WorldState`, so three field views (`balance_of`,
    `nonce_of`, `code_of`) and its accessors read the base's account map
    directly, with no call to the base's views. A replay never reads a
    whole storage map, so `storage_of` is the one `Execution` defines."""

    def balance_of(self, addr: Address) -> int:
        balance = self.balances.get(addr)
        return self.base.accounts.get(addr, EMPTY_ACCOUNT).balance if balance is None else balance

    def nonce_of(self, addr: Address) -> int:
        nonce = self.nonces.get(addr)
        return self.base.accounts.get(addr, EMPTY_ACCOUNT).nonce if nonce is None else nonce

    def code_of(self, addr: Address) -> Optional[ContractCode]:
        return self.base.accounts.get(addr, EMPTY_ACCOUNT).code

    def read_balance(self, addr: Address) -> int:
        balance = self.balances.get(addr)
        if balance is None:
            balance = self.balances[addr] = self.base.accounts.get(addr, EMPTY_ACCOUNT).balance
        return balance

    def write_balance(self, addr: Address, value: int) -> None:
        balances = self.balances
        self.log.append((balances, addr, balances.get(addr)))
        balances[addr] = value

    def read_slot(self, addr: Address, key: bytes) -> bytes:
        slots = self.storage.get(addr)
        if slots is None:
            slots = self.base.accounts.get(addr, EMPTY_ACCOUNT).storage
        return slots.get(key, ZERO_SLOT)

    def write_slot(self, addr: Address, key: bytes, value: bytes) -> None:
        slots = self.storage.get(addr)
        if slots is None:
            slots = self.storage[addr] = dict(self.base.accounts.get(addr, EMPTY_ACCOUNT).storage)
        self.log.append((slots, key, slots.get(key)))
        if value == ZERO_SLOT:
            slots.pop(key, None)
        else:
            slots[key] = value

    def undo(self) -> None:
        """Revert the running call: newest first, put back the value each
        logged write replaced, or drop the entry it added."""
        for entries, key, old in reversed(self.log):
            if old is None:
                entries.pop(key, None)
            else:
                entries[key] = old


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------
# A contract program is compiled on its first run into one straight-line
# Python function, memoized on its `ContractCode`; an invariant predicate is
# compiled when `InvariantSet.register` registers it. Programs the run never
# calls (a replica replays most contracts without calling them) are never
# compiled. Each function is compiled once per process: `_COMPILED` keeps it
# under its kind and the canonical text of what it runs, so every contract
# holding one program, every invariant repeating one predicate and the
# replica's own parsed copies share one function. The function itself is
# shared, not its code object run in a namespace of each holder's: CPython
# specializes a code object's instructions in place, and its global-load
# caches key on one globals dict. Two threads may both compile a function on
# its first run; `setdefault` keeps one, and both are the same program.
# The source is built from fixed templates: every value of the program (a
# constant word, a constant slot's bytes, a constant address) is bound in
# the function's namespace under a generated name, so no text of the
# program becomes source. Each composite node's word goes to a local of its
# own, so the source stays flat however deep the tree. The frame is the
# function's arguments: the execution, the contract's own address, its
# caller, the call value and the call data.

_FRAME = "exe, self_addr, caller, callvalue, calldata"
# A leaf that reads the frame as a word -> its local, computed once at the top.
_FRAME_WORDS = {
    Caller: ("caller_word", "from_bytes(caller, 'big')"),
    SelfAddr: ("self_word", "from_bytes(self_addr, 'big')"),
    CallData: ("calldata_word", "from_bytes(calldata[:32], 'big')"),
}


class _Source:
    """The source of one compiled function, and the namespace it runs in."""

    def __init__(self) -> None:
        self.namespace = {"WORD": WORD, "Revert": _Revert, "from_bytes": int.from_bytes, "to_address": Address.from_int}
        self.frame_words: Dict[str, str] = {}  # the frame words the body reads -> their source
        self.body: List[str] = []

    def bind(self, value: object) -> str:
        name = f"c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def local(self, source: str) -> str:
        name = f"v{len(self.body)}"
        self.body.append(f"{name} = {source}")
        return name

    def word(self, expr: Expr) -> str:
        """Emit the evaluation of `expr`; return the name that holds its word."""
        kind = type(expr)
        if kind is Const:
            return self.bind(expr.value)
        if kind is CallValue:
            return "callvalue"
        if kind in _FRAME_WORDS:
            name, source = _FRAME_WORDS[kind]
            self.frame_words[name] = source
            return name
        if kind is SLoad:
            return self.local(f"from_bytes(exe.read_slot(self_addr, {self.slot(expr.key)}), 'big')")
        if kind is BalanceOf:
            return self.local(f"exe.read_balance({self.address(expr.addr)})")
        if kind is Bin:
            left = self.word(expr.left)
            return self.local(_BIN_SOURCE[expr.op].format(a=left, b=self.word(expr.right)))
        if kind is Not:
            return self.local(f"0 if {self.word(expr.inner)} else 1")
        raise TypeError(f"not an expression: {expr!r}")

    def slot(self, key: Expr) -> str:
        """The name of the slot bytes `key` selects; a constant's is bound once."""
        if type(key) is Const:
            return self.bind(slot_bytes(key.value))
        return self.local(f"({self.word(key)} % WORD).to_bytes(32, 'big')")

    def address(self, expr: Expr) -> str:
        """The name of the address `expr` selects. The frame's own address and
        its caller's are used as they are: the word round trip is the
        identity on them."""
        if type(expr) is SelfAddr:
            return "self_addr"
        if type(expr) is Caller:
            return "caller"
        if type(expr) is Const:
            return self.bind(Address.from_int(expr.value))
        return self.local(f"to_address({self.word(expr)})")

    def statement(self, stmt: Statement, charged: int) -> None:
        """Emit a statement that charges the program's `charged`-th gas unit:
        out of gas, it charges the whole limit; a revert charges what the
        program has charged so far."""
        revert = f"exe.gas_used += {charged}; raise Revert"
        self.body.append(f"if left < {charged}: exe.gas_used = gas_limit; raise Revert")
        kind = type(stmt)
        if kind is Require:
            self.body.append(f"if not {self.word(stmt.cond)}: {revert}")
        elif kind is SetSlot:
            slot = self.slot(stmt.key)
            self.body.append(f"exe.write_slot(self_addr, {slot}, ({self.word(stmt.value)} % WORD).to_bytes(32, 'big'))")
        elif kind is Pay:
            to = self.address(stmt.to)
            amount = self.word(stmt.amount)
            self.body += (
                "balance = exe.read_balance(self_addr)",
                f"exe.read_balance({to})",
                f"if {amount} > balance: {revert}",
                f"exe.write_balance(self_addr, balance - {amount})",
                f"exe.write_balance({to}, exe.read_balance({to}) + {amount})",
            )
        else:
            raise TypeError(f"not a statement: {stmt!r}")

    def function(self, name: str, params: str) -> Callable:
        words = [f"{word} = {source}" for word, source in self.frame_words.items()]
        lines = [f"def {name}({params}):", *words, *self.body]
        exec(compile("\n    ".join(lines), "<rollupsim program>", "exec"), self.namespace)
        return self.namespace[name]


# (kind, canonical text) -> its function; a program's text is its `code_text`,
# a predicate's its `expr_text`.
_COMPILED: Dict[Tuple[str, str], Callable] = {}


def _compile_program(code: ContractCode) -> Callable[..., None]:
    key = ("program", " ".join(map(expr_text, code.statements)))  # the text `code_text` writes
    program = _COMPILED.get(key)
    if program is None:
        source = _Source()
        source.body.append("left = gas_limit - exe.gas_used")  # the statements the limit pays for
        for charged, stmt in enumerate(code.statements, 1):
            source.statement(stmt, charged)
        source.body.append(f"exe.gas_used += {len(code.statements)}")
        program = _COMPILED.setdefault(key, source.function("program", f"{_FRAME}, gas_limit"))
    return program


def compile_predicate(expr: Expr) -> Callable[..., int]:
    """The function that evaluates `expr` to a 256-bit word in a call frame
    (`exe, self_addr, caller, callvalue, calldata`); total and deterministic."""
    key = ("predicate", expr_text(expr))
    predicate = _COMPILED.get(key)
    if predicate is None:
        source = _Source()
        source.body.append(f"return {source.word(expr)}")
        predicate = _COMPILED.setdefault(key, source.function("predicate", _FRAME))
    return predicate


def _run_statements(
    code: ContractCode, exe: Execution, self_addr: Address, caller: Address, callvalue: int, calldata: bytes, gas_limit: int
) -> None:
    """Execute a contract body, charging one gas per statement; raises
    _Revert. Running out of gas reverts and charges the whole limit. The
    body is compiled on its first run."""
    program = code._program
    if program is None:
        program = code._program = _compile_program(code)
    program(exe, self_addr, caller, callvalue, calldata, gas_limit)


def _fresh_address(sender: Address, nonce: int) -> Address:
    digest = hashlib.sha256(bytes(sender) + nonce.to_bytes(8, "big")).digest()
    return bytes.__new__(Address, digest[:20])  # 20 bytes of a 32-byte digest


def execute_transaction(state: Union[WorldState, Execution], tx: AnyTransaction, ctx: BlockContext) -> Execution:
    """Run one transaction against a state snapshot or an execution; never
    mutates the input, unless it is a `Replay`.

    Regular transactions must match the sender nonce, afford their maximum
    cost (value + gas_limit * max_fee), and bid at least the base fee;
    otherwise PreconditionFailed is raised (the tx is unexecutable, which is
    different from a revert). On revert every effect is rolled back except
    the nonce bump and the gas charge. Deposits skip all precondition
    checks, mint their value, and pay no fee; a reverted deposit keeps the
    mint with the deposit's sender.

    The envelope is applied in one step: the kept effect (nonce bump or
    mint), the value transfer, the code lookup and the fee are written
    straight into the new execution's scratch, and their fixed access keys
    are recorded together. Only a contract program goes through the
    recording accessors.

    On a `Replay` (its exact type), the transaction is applied to it
    directly, as `apply_block` does: no child execution and no access key.
    From the value transfer on, each balance and slot write of a
    contract call logs the value it replaces, and a revert undoes the log
    newest-first; a plain transfer runs no program and logs nothing. The
    execution returned is then `state` itself.
    """
    sender, recipient, value = tx.sender, tx.recipient, tx.value
    deposit = isinstance(tx, DepositTransaction)
    # A `WorldState` base is read through its account map, one lookup each
    # for the sender and the recipient; any other base through its views.
    accounts = state.accounts if type(state) is WorldState else None
    if accounts is not None:
        account = accounts.get(sender, EMPTY_ACCOUNT)
        kept, nonce = account.balance, account.nonce
    else:
        kept = state.balance_of(sender)
    if deposit:
        kept += value  # the mint
    else:
        if accounts is None:
            nonce = state.nonce_of(sender)
        if tx.nonce < nonce:
            raise PreconditionFailed(PreconditionFailed.NONCE_TOO_LOW, f"account nonce {nonce}")
        if tx.nonce > nonce:
            raise PreconditionFailed(PreconditionFailed.NONCE_TOO_HIGH, f"account nonce {nonce}")
        cost = value + tx.gas_limit * tx.max_fee  # the most it can take: value and all its gas at `max_fee`
        if kept < cost:
            raise PreconditionFailed(PreconditionFailed.INSUFFICIENT_BALANCE, f"balance {kept} < {cost}")
        if tx.max_fee < ctx.base_fee:
            raise PreconditionFailed(PreconditionFailed.FEE_BELOW_BASE, f"base fee {ctx.base_fee}")
        if recipient is None:
            recipient = _fresh_address(sender, nonce)

    in_place = type(state) is Replay
    if in_place:
        exe = state
        exe.status, exe.gas_used = TxStatus.SUCCESS, BASE_TX_GAS
        balances = exe.balances
    else:
        exe = Execution(state)
        balances, reads, writes = exe.balances, exe.reads, exe.writes
        sender_balance = _new_key(AccessKey, (AccessKind.BALANCE, sender, b""))
        recipient_balance = _new_key(AccessKey, (AccessKind.BALANCE, recipient, b""))
        if deposit:
            kept_writes = (sender_balance,)
        else:
            kept_writes = (_new_key(AccessKey, (AccessKind.NONCE, sender, b"")), sender_balance)
        reads.update((*kept_writes, recipient_balance, _new_key(AccessKey, (AccessKind.CODE, recipient, b""))))
        writes.update((*kept_writes, recipient_balance))
    if not deposit:
        exe.nonces[sender] = nonce + 1
    if accounts is not None:
        target = accounts.get(recipient, EMPTY_ACCOUNT)
        code = target.code
    else:
        code = state.code_of(recipient)
    if in_place and code is not None:
        # The transfer's two writes. The sender's replaces the kept effect:
        # logged first, it is undone last, so a self-call ends on it too.
        exe.log = [(balances, sender, kept), (balances, recipient, balances.get(recipient))]
    if recipient == sender:
        balances[sender] = kept
    else:
        balances[sender] = kept - value
        balances[recipient] = (state.balance_of(recipient) if accounts is None else target.balance) + value
    if code is not None:
        try:
            _run_statements(code, exe, recipient, sender, value, tx.data, tx.gas_limit)
        except _Revert:
            # Keep the gas used (and a child's read trace), discard the
            # effects: only the kept effect and the fee survive a revert, so
            # only they count as writes.
            exe.status = TxStatus.REVERT
            if in_place:
                exe.undo()
            else:
                exe.balances = balances = {sender: kept}
                exe.storage = {}
                exe.writes = writes = set(kept_writes)

    if not deposit:
        base_fee, gas_used = ctx.base_fee, exe.gas_used
        effective_price = base_fee + min(tx.priority_fee, tx.max_fee - base_fee)
        balances[sender] -= gas_used * effective_price
        tip = gas_used * (effective_price - base_fee)
        if tip:
            fee_recipient = ctx.fee_recipient
            if not in_place:
                fee_key = _new_key(AccessKey, (AccessKind.BALANCE, fee_recipient, b""))
                reads.add(fee_key)
                writes.add(fee_key)
            held = balances.get(fee_recipient)
            balances[fee_recipient] = (state.balance_of(fee_recipient) if held is None else held) + tip
    return exe


# ---------------------------------------------------------------------------
# State commitment and block application
# ---------------------------------------------------------------------------

_NO_CODE_HASH = bytes(32)  # shared by every code-less account


def code_hash(code: Optional[ContractCode]) -> bytes:
    if code is None:
        return _NO_CODE_HASH
    h = code._hash
    if h is None:
        h = code._hash = hashlib.sha256(bytes(code.admin) + code_text(code).encode("utf-8")).digest()
    return h


class AccountOverflow(ValueError):
    """A balance past 2^128-1 or a nonce past 2^64-1, wider than the state
    root encodes it; `block` is the number of the block that holds it, once known."""

    def __init__(self, addr: Address, field: str, block: Optional[int] = None):
        where, limit = "" if block is None else f"block {block}: ", "2^128-1" if field == "balance" else "2^64-1"
        super().__init__(f"{where}account {addr.hex0x()} {field} is past {limit}")
        self.addr, self.field, self.block = addr, field, block


# The head of an account's digest input: address, balance as two u64 words
# (high, low), nonce, code hash. Storage pairs follow it, sorted by key.
_ACCOUNT_HEAD = struct.Struct(">20sQQQ32s")


def _account_digest(addr: Address, acct: Account) -> bytes:
    balance, nonce, code, storage = acct
    try:
        head = _ACCOUNT_HEAD.pack(
            addr, balance >> 64, balance & U64_MAX, nonce, _NO_CODE_HASH if code is None else code_hash(code)
        )
    except struct.error:
        raise AccountOverflow(addr, "balance" if balance >> 128 else "nonce") from None
    if storage:
        parts = [head]
        for key in sorted(storage):
            parts += key, storage[key]
        head = b"".join(parts)
    return hashlib.sha256(head).digest()


def state_root(state: WorldState) -> StateRoot:
    """Flat commitment: SHA-256 over per-account digests sorted by address.

    Account digest = SHA-256(address | balance 16 BE | nonce 8 BE | code hash
    | sorted storage pairs). Insertion order never matters; the empty state
    hashes the empty string. The sorted digest table is kept on the state, as
    one buffer hashed directly; a state with a lineage copies its rooted
    ancestor's buffer, re-hashes only the accounts changed since into it
    (a 32-byte slice each; an insert or delete moves the rest in C), and a
    state without one builds it in full. A balance or nonce too wide for its
    field raises `AccountOverflow`.
    """
    if state._table is not None:
        return state._table[0]
    accounts = state.accounts
    if state._lineage is None:
        addrs = sorted(accounts)
        digests = bytearray().join([_account_digest(addr, accounts[addr]) for addr in addrs])
    else:
        table, changed = state._lineage
        addrs, digests = table[1], bytearray(table[2])  # a stored table is never patched: patch a copy
        for addr in changed:
            i = bisect_left(addrs, addr)
            present = i < len(addrs) and addrs[i] == addr
            acct = accounts.get(addr)
            if present != (acct is not None) and addrs is table[1]:  # an insert or delete: own the list
                addrs = list(addrs)
            if acct is None:
                if present:
                    del addrs[i], digests[32 * i:32 * i + 32]
            elif present:
                digests[32 * i:32 * i + 32] = _account_digest(addr, acct)
            else:
                addrs.insert(i, addr)
                digests[32 * i:32 * i] = _account_digest(addr, acct)
    root = bytes.__new__(StateRoot, hashlib.sha256(digests).digest())  # a digest is 32 bytes
    state._table = (root, addrs, digests)
    return root


def changed_since(state: WorldState, earlier: Optional[WorldState]) -> Optional[FrozenSet[Address]]:
    """Addresses whose account may differ between `earlier` and `state`.

    Known for one hop only: when `earlier` is `state`, or is the nearest
    rooted ancestor `state` was executed from; every other address then maps
    to the very same `Account` object in both. Otherwise None: the caller
    must compare every account it cares about.
    """
    if state is earlier:
        return frozenset()
    lineage = state._lineage
    if lineage is not None and earlier is not None and lineage[0] is earlier._table:
        return lineage[1]
    return None


def apply_block(state: WorldState, block: Block, fee_recipient: Address) -> WorldState:
    """Fold every transaction of a block (deposits first) into a new state.

    Each transaction runs in block context straight on one `Replay` scratch,
    which `execute_transaction` runs in place; the block builds one account
    map, at its end."""
    txs = (*block.deposits, *block.transactions)
    if not txs:
        return state
    ctx = BlockContext(base_fee=block.base_fee, fee_recipient=fee_recipient)
    scratch = Replay(state)
    for index, tx in enumerate(txs):
        try:
            execute_transaction(scratch, tx, ctx)
        except PreconditionFailed as exc:
            raise InvalidBlock(index, exc.reason) from exc
    return scratch.post_state()
