"""Miniature deterministic account machine with read/write-set tracking.

Accounts hold balances, nonces and optionally a guarded-command program whose
statements run top to bottom on every call. There is no branching, no
cross-contract call and no code deployment; a failed REQUIRE (or an
overdrawn PAY, or running out of gas) reverts the whole transaction. Every
state location touched during execution is recorded as an access key so
callers can do dependency analysis between transactions. Each expression
and statement node builds its evaluator once, at construction, from its
children's: running a program is a chain of closure calls, with no per-call
dispatch on node type or operator.

Cost model: 21 gas intrinsic plus 1 gas per executed statement. The base-fee
share of the fee is burned; the priority share goes to the block's fee
recipient. Deposits mint their value and pay no fee.

`execute_transaction` returns the `Execution` itself: its outcome, its
access sets and a scratch of the accounts it touched over its base. Its
post-state is built only by `post_state()`: judging an execution reads its
field views (`balance_of`, `nonce_of`, `storage_of`, `code_of`) and builds
no state. An execution can itself be the base of further executions and
absorb their effects; `apply_block` runs a whole block on one such scratch
and builds one account map at the end. No state read builds an `Account`:
only `post_state` does, for an address whose account changed. An execution
only ever mutates storage dicts it made itself.

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
from enum import Enum
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple, Union

from .core import (
    BASE_TX_GAS,
    Address,
    AnyTransaction,
    Block,
    DepositTransaction,
    Record,
    StateRoot,
    U64_MAX,
    max_cost,
)

WORD = 2**256
WORD_MAX = WORD - 1


# ---------------------------------------------------------------------------
# Expressions and statements
# ---------------------------------------------------------------------------
# Nodes are `Record`s, not NamedTuples: a field-less NamedTuple is falsy and
# equals (), and two NamedTuples of one arity compare equal across types.
# An expression's `_eval(env)` returns its word, a statement's `_run(env)`
# performs it or raises `_Revert`; `env` is a `_CallEnv`. Children never
# change, so the evaluators are safe to share between threads.


def _evaluator(expr: "Expr") -> Callable[["_CallEnv"], int]:
    if not isinstance(expr, Expr):
        raise TypeError(f"not an expression: {expr!r}")
    return expr._eval


_self_addr, _caller = attrgetter("self_addr"), attrgetter("caller")


def _address_evaluator(expr: "Expr") -> Callable[["_CallEnv"], Address]:
    """The evaluator of an address operand. The frame's own address and its
    caller's are read as they are: the word round trip
    `Address.from_int(int.from_bytes(a, "big"))` is the identity on them."""
    if isinstance(expr, SelfAddr):
        return _self_addr
    if isinstance(expr, Caller):
        return _caller
    word_eval = _evaluator(expr)
    return lambda env: Address.from_int(word_eval(env))


class Const(Record):
    _fields = ("value",)
    __slots__ = (*_fields, "_eval")

    def __init__(self, value: int) -> None:
        if not 0 <= value <= WORD_MAX:
            raise ValueError(f"constant out of word range: {value}")
        self.value = value
        self._eval = lambda env: value


class SLoad(Record):
    _fields = ("key",)
    __slots__ = (*_fields, "_eval")

    def __init__(self, key: "Expr") -> None:
        self.key = key
        key_eval = _evaluator(key)
        if isinstance(key, Const):  # a constant key's slot is computed once
            slot = slot_bytes(key.value)
            self._eval = lambda env: slot_int(env.exe.read_slot(env.self_addr, slot))
        else:
            self._eval = lambda env: slot_int(env.exe.read_slot(env.self_addr, slot_bytes(key_eval(env))))


class BalanceOf(Record):
    _fields = ("addr",)
    __slots__ = (*_fields, "_eval")

    def __init__(self, addr: "Expr") -> None:
        self.addr = addr
        addr_of = _address_evaluator(addr)
        self._eval = lambda env: env.exe.read_balance(addr_of(env))


class Caller(Record):
    __slots__ = ()
    _eval = staticmethod(lambda env: int.from_bytes(env.caller, "big"))


class CallValue(Record):
    __slots__ = ()
    _eval = staticmethod(lambda env: env.callvalue)


class CallData(Record):
    """First 32 bytes of the call payload, read as a big-endian integer."""

    __slots__ = ()
    _eval = staticmethod(lambda env: int.from_bytes(env.calldata[:32], "big"))


class SelfAddr(Record):
    __slots__ = ()
    _eval = staticmethod(lambda env: int.from_bytes(env.self_addr, "big"))


# Operator -> the evaluator of a `Bin` node, built from its operands'
# evaluators. ADD and MUL wrap modulo 2**256, SUB saturates at 0,
# comparisons and logic yield 0 or 1 (any non-zero word is true). Both
# operands are evaluated, left first: `and` and `or` never short-circuit, so
# a node reads the same keys whatever the words it reads.
_BIN_EVALUATORS = {
    "add": lambda a, b: lambda env: (a(env) + b(env)) % WORD,
    "sub": lambda a, b: lambda env: max(a(env) - b(env), 0),
    "mul": lambda a, b: lambda env: (a(env) * b(env)) % WORD,
    "eq": lambda a, b: lambda env: 1 if a(env) == b(env) else 0,
    "lt": lambda a, b: lambda env: 1 if a(env) < b(env) else 0,
    "and": lambda a, b: lambda env: 1 if (a(env) != 0) & (b(env) != 0) else 0,
    "or": lambda a, b: lambda env: 1 if (a(env) != 0) | (b(env) != 0) else 0,
}
BIN_OPS = tuple(_BIN_EVALUATORS)


class Bin(Record):
    _fields = ("op", "left", "right")
    __slots__ = (*_fields, "_eval")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        if op not in BIN_OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._eval = _BIN_EVALUATORS[op](_evaluator(left), _evaluator(right))


class Not(Record):
    _fields = ("inner",)
    __slots__ = (*_fields, "_eval")

    def __init__(self, inner: "Expr") -> None:
        self.inner = inner
        inner_eval = _evaluator(inner)
        self._eval = lambda env: 1 if inner_eval(env) == 0 else 0


Expr = Union[Const, SLoad, BalanceOf, Caller, CallValue, CallData, SelfAddr, Bin, Not]


class Require(Record):
    _fields = ("cond",)
    __slots__ = (*_fields, "_run")

    def __init__(self, cond: Expr) -> None:
        self.cond = cond
        cond_eval = _evaluator(cond)

        def run(env) -> None:
            if cond_eval(env) == 0:
                raise _Revert()

        self._run = run


class SetSlot(Record):
    _fields = ("key", "value")
    __slots__ = (*_fields, "_run")

    def __init__(self, key: Expr, value: Expr) -> None:
        self.key = key
        self.value = value
        key_eval, value_eval = _evaluator(key), _evaluator(value)
        if isinstance(key, Const):  # a constant key's slot is computed once
            slot = slot_bytes(key.value)
            self._run = lambda env: env.exe.write_slot(env.self_addr, slot, slot_bytes(value_eval(env)))
        else:
            self._run = lambda env: env.exe.write_slot(env.self_addr, slot_bytes(key_eval(env)), slot_bytes(value_eval(env)))


class Pay(Record):
    """Both balances are read before the overdraw check, so an overdrawn
    PAY reads the same keys as one that goes through."""

    _fields = ("to", "amount")
    __slots__ = (*_fields, "_run")

    def __init__(self, to: Expr, amount: Expr) -> None:
        self.to = to
        self.amount = amount
        to_of, amount_eval = _address_evaluator(to), _evaluator(amount)

        def run(env) -> None:
            to = to_of(env)
            amount = amount_eval(env)
            exe = env.exe
            balance = exe.read_balance(env.self_addr)
            exe.read_balance(to)
            if amount > balance:
                raise _Revert()
            exe.transfer(env.self_addr, to, amount)

        self._run = run


class PauseGuard(Record):
    """Sugar for REQUIRE(SLOAD(key) == 0)."""

    _fields = ("key",)
    __slots__ = (*_fields, "_run")

    def __init__(self, key: Expr) -> None:
        self.key = key
        self._run = Require(Not(SLoad(key)))._run


Statement = Union[Require, SetSlot, Pay, PauseGuard]


def expr_text(expr: Expr) -> str:
    """Canonical textual form of an expression (integers in lowercase hex)."""
    if isinstance(expr, Const):
        return f"(const {hex(expr.value)})"
    if isinstance(expr, SLoad):
        return f"(sload {expr_text(expr.key)})"
    if isinstance(expr, BalanceOf):
        return f"(balance {expr_text(expr.addr)})"
    if isinstance(expr, Caller):
        return "caller"
    if isinstance(expr, CallValue):
        return "callvalue"
    if isinstance(expr, CallData):
        return "calldata"
    if isinstance(expr, SelfAddr):
        return "self"
    if isinstance(expr, Bin):
        return f"({expr.op} {expr_text(expr.left)} {expr_text(expr.right)})"
    if isinstance(expr, Not):
        return f"(not {expr_text(expr.inner)})"
    raise TypeError(f"not an expression: {expr!r}")


def statement_text(stmt: Statement) -> str:
    if isinstance(stmt, Require):
        return f"(require {expr_text(stmt.cond)})"
    if isinstance(stmt, SetSlot):
        return f"(set {expr_text(stmt.key)} {expr_text(stmt.value)})"
    if isinstance(stmt, Pay):
        return f"(pay {expr_text(stmt.to)} {expr_text(stmt.amount)})"
    if isinstance(stmt, PauseGuard):
        return f"(pause-guard {expr_text(stmt.key)})"
    raise TypeError(f"not a statement: {stmt!r}")


def code_text(code: "ContractCode") -> str:
    return " ".join(statement_text(s) for s in code.statements)


# ---------------------------------------------------------------------------
# Accounts and world state
# ---------------------------------------------------------------------------

class ContractCode(Record):
    _fields = ("admin", "statements")
    # `_hash` memoizes code_hash, as `SignedTransaction._hash` memoizes
    # tx_hash: the program is rendered and hashed once per code object.
    __slots__ = (*_fields, "_hash")

    def __init__(self, admin: Address, statements: Tuple[Statement, ...]) -> None:
        for stmt in statements:
            if not isinstance(stmt, Statement):
                raise TypeError(f"not a statement: {stmt!r}")
        self.admin = admin
        self.statements = statements
        self._hash = None


class Account(NamedTuple):
    balance: int = 0
    nonce: int = 0
    code: Optional[ContractCode] = None
    storage: Mapping[bytes, bytes] = MappingProxyType({})  # shared, so read-only

    def is_empty(self) -> bool:
        return self.balance == 0 and self.nonce == 0 and self.code is None and not self.storage


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


class AccessKey(NamedTuple):
    """A recorded state location: a tuple, so it hashes, compares and sorts
    by (kind, addr, slot) in C."""

    kind: int
    addr: Address
    slot: bytes = b""

    # The constructors skip the generated Python-level `__new__`, as the
    # `Execution` accessors do by building their keys in place.
    @staticmethod
    def storage(addr: Address, slot: bytes) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.STORAGE, addr, slot))

    @staticmethod
    def balance(addr: Address) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.BALANCE, addr, b""))

    @staticmethod
    def nonce(addr: Address) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.NONCE, addr, b""))


class TxStatus(Enum):
    SUCCESS = "success"
    REVERT = "revert"


class BlockContext(NamedTuple):
    base_fee: int
    timestamp: int
    fee_recipient: Address


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
    one; the classifier's fold and `apply_block` are one each, with every
    transaction of the round or block absorbed into it."""

    def __init__(self, base: Union[WorldState, "Execution"]):
        self.base = base
        self.status = TxStatus.SUCCESS
        self.balances: Dict[Address, int] = {}
        self.nonces: Dict[Address, int] = {}
        self.storage: Dict[Address, Dict[bytes, bytes]] = {}
        self.reads: set = set()
        self.writes: set = set()
        self.gas_used: int = BASE_TX_GAS

    # -- recorded accesses: each builds its key in place and looks its
    # scratch entry up once --
    def read_balance(self, addr: Address) -> int:
        self.reads.add(_new_key(AccessKey, (AccessKind.BALANCE, addr, b"")))
        balance = self.balances.get(addr)
        if balance is None:
            balance = self.balances[addr] = self.base.balance_of(addr)
        return balance

    def write_balance(self, addr: Address, value: int) -> None:
        self.writes.add(_new_key(AccessKey, (AccessKind.BALANCE, addr, b"")))
        self.balances[addr] = value

    def read_nonce(self, addr: Address) -> int:
        self.reads.add(_new_key(AccessKey, (AccessKind.NONCE, addr, b"")))
        nonce = self.nonces.get(addr)
        if nonce is None:
            nonce = self.nonces[addr] = self.base.nonce_of(addr)
        return nonce

    def write_nonce(self, addr: Address, value: int) -> None:
        self.writes.add(_new_key(AccessKey, (AccessKind.NONCE, addr, b"")))
        self.nonces[addr] = value

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

    def read_code(self, addr: Address) -> Optional[ContractCode]:
        self.reads.add(_new_key(AccessKey, (AccessKind.CODE, addr, b"")))
        return self.base.code_of(addr)

    def transfer(self, src: Address, dst: Address, amount: int) -> None:
        self.write_balance(src, self.read_balance(src) - amount)
        self.write_balance(dst, self.read_balance(dst) + amount)

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


class _CallEnv:
    """Binds expression evaluation to a running call frame."""

    def __init__(self, exe: Execution, self_addr: Address, caller: Address, callvalue: int, calldata: bytes):
        self.exe = exe
        self.self_addr = self_addr
        self.caller = caller
        self.callvalue = callvalue
        self.calldata = calldata


def eval_expr(expr: Expr, env: _CallEnv) -> int:
    """Evaluate an expression to a 256-bit word; total and deterministic."""
    return expr._eval(env)


def _run_statements(env: _CallEnv, code: ContractCode, gas_limit: int) -> None:
    """Execute a contract body, charging gas as it goes; raises _Revert.
    Running out of gas reverts and charges the whole limit."""
    exe = env.exe
    for stmt in code.statements:
        exe.gas_used += 1
        if exe.gas_used > gas_limit:
            exe.gas_used = gas_limit
            raise _Revert()
        stmt._run(env)


def _fresh_address(sender: Address, nonce: int) -> Address:
    digest = hashlib.sha256(bytes(sender) + nonce.to_bytes(8, "big")).digest()
    return Address(digest[:20])


def _lasting_effect(exe: Execution, tx: AnyTransaction, deposit: bool) -> None:
    """The one effect a revert keeps: a deposit's mint, a signed tx's nonce bump."""
    if deposit:
        exe.write_balance(tx.sender, exe.read_balance(tx.sender) + tx.value)
    else:
        exe.write_nonce(tx.sender, exe.read_nonce(tx.sender) + 1)


def execute_transaction(state: Union[WorldState, Execution], tx: AnyTransaction, ctx: BlockContext) -> Execution:
    """Run one transaction against a state snapshot or an execution; never
    mutates the input.

    Regular transactions must match the sender nonce, afford their maximum
    cost (value + gas_limit * max_fee), and bid at least the base fee;
    otherwise PreconditionFailed is raised (the tx is unexecutable, which is
    different from a revert). On revert every effect is rolled back except
    the nonce bump and the gas charge. Deposits skip all precondition
    checks, mint their value, and pay no fee; a reverted deposit keeps the
    mint with the deposit's sender.
    """
    deposit = isinstance(tx, DepositTransaction)
    if deposit:
        recipient = tx.recipient
    else:
        nonce = state.nonce_of(tx.sender)
        if tx.nonce < nonce:
            raise PreconditionFailed(PreconditionFailed.NONCE_TOO_LOW, f"account nonce {nonce}")
        if tx.nonce > nonce:
            raise PreconditionFailed(PreconditionFailed.NONCE_TOO_HIGH, f"account nonce {nonce}")
        cost = max_cost(tx)
        balance = state.balance_of(tx.sender)
        if balance < cost:
            raise PreconditionFailed(PreconditionFailed.INSUFFICIENT_BALANCE, f"balance {balance} < {cost}")
        if tx.max_fee < ctx.base_fee:
            raise PreconditionFailed(PreconditionFailed.FEE_BELOW_BASE, f"base fee {ctx.base_fee}")
        recipient = tx.recipient if tx.recipient is not None else _fresh_address(tx.sender, tx.nonce)

    exe = Execution(state)
    if not deposit:
        # Seed the scratch with what the checks read: the nonce bump and the
        # fee charge find it there. Reading it still records the key.
        exe.nonces[tx.sender] = nonce
        exe.balances[tx.sender] = balance
    _lasting_effect(exe, tx, deposit)
    try:
        exe.transfer(tx.sender, recipient, tx.value)
        code = exe.read_code(recipient)
        if code is not None:
            env = _CallEnv(exe, recipient, tx.sender, tx.value, tx.data)
            _run_statements(env, code, tx.gas_limit)
    except _Revert:
        # Keep the read trace and the gas used, discard the effects: only the
        # lasting effect and the gas charge survive a revert, so only they
        # count as writes.
        reverted = Execution(state)
        if not deposit:
            reverted.nonces[tx.sender] = nonce
            reverted.balances[tx.sender] = balance
        reverted.status = TxStatus.REVERT
        reverted.reads = exe.reads
        reverted.gas_used = exe.gas_used
        exe = reverted
        _lasting_effect(exe, tx, deposit)

    if not deposit:
        gas_used = exe.gas_used
        effective_price = ctx.base_fee + min(tx.priority_fee, tx.max_fee - ctx.base_fee)
        exe.write_balance(tx.sender, exe.read_balance(tx.sender) - gas_used * effective_price)
        tip = gas_used * (effective_price - ctx.base_fee)
        if tip:
            exe.write_balance(ctx.fee_recipient, exe.read_balance(ctx.fee_recipient) + tip)
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
    root = StateRoot(hashlib.sha256(digests).digest())
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

    Each transaction runs in block context on one scratch, which absorbs its
    effects; the block builds one account map, at its end."""
    txs = (*block.deposits, *block.transactions)
    if not txs:
        return state
    ctx = BlockContext(base_fee=block.base_fee, timestamp=block.timestamp, fee_recipient=fee_recipient)
    scratch = Execution(state)
    for index, tx in enumerate(txs):
        try:
            scratch.absorb(execute_transaction(scratch, tx, ctx))
        except PreconditionFailed as exc:
            raise InvalidBlock(index, exc.reason) from exc
    return scratch.post_state()
