"""Miniature deterministic account machine with read/write-set tracking.

Accounts hold balances, nonces and optionally a guarded-command program whose
statements run top to bottom on every call. There is no branching, no
cross-contract call and no code deployment; a failed REQUIRE (or an
overdrawn PAY, or running out of gas) reverts the whole transaction. Every
state location touched during execution is recorded as an access key so
callers can do dependency analysis between transactions.

Cost model: 21 gas intrinsic plus 1 gas per executed statement. The base-fee
share of the fee is burned; the priority share goes to the block's fee
recipient. Deposits mint their value and pay no fee.

`execute_transaction` returns the `Execution` itself: its outcome, its
access sets and a scratch of the accounts it touched over its base. Its
post-state is built only by `post_state()`: judging an execution reads its
views (`account`, `balance_of`, `nonce_of`) and builds no state. An
execution can itself be the base of further executions and absorb their
effects; `apply_block` runs a whole block on one such scratch and builds one
account map at the end. An execution only ever mutates storage dicts it
made itself.

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
from bisect import bisect_left
from enum import Enum
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Tuple, Union

from .core import (
    BASE_TX_GAS,
    Address,
    AnyTransaction,
    Block,
    DepositTransaction,
    Record,
    StateRoot,
    max_cost,
)

WORD = 2**256
WORD_MAX = WORD - 1


# ---------------------------------------------------------------------------
# Expressions and statements
# ---------------------------------------------------------------------------
# Nodes are `Record`s, not NamedTuples: a field-less NamedTuple is falsy and
# equals (), and two NamedTuples of one arity compare equal across types.

class Const(Record):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value <= WORD_MAX:
            raise ValueError(f"constant out of word range: {value}")
        self.value = value


class SLoad(Record):
    __slots__ = _fields = ("key",)

    def __init__(self, key: "Expr") -> None:
        self.key = key


class BalanceOf(Record):
    __slots__ = _fields = ("addr",)

    def __init__(self, addr: "Expr") -> None:
        self.addr = addr


class Caller(Record):
    __slots__ = ()


class CallValue(Record):
    __slots__ = ()


class CallData(Record):
    """First 32 bytes of the call payload, read as a big-endian integer."""

    __slots__ = ()


class SelfAddr(Record):
    __slots__ = ()


BIN_OPS = ("add", "sub", "mul", "eq", "lt", "and", "or")


class Bin(Record):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr") -> None:
        if op not in BIN_OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right


class Not(Record):
    __slots__ = _fields = ("inner",)

    def __init__(self, inner: "Expr") -> None:
        self.inner = inner


Expr = Union[Const, SLoad, BalanceOf, Caller, CallValue, CallData, SelfAddr, Bin, Not]


class Require(Record):
    __slots__ = _fields = ("cond",)

    def __init__(self, cond: Expr) -> None:
        self.cond = cond


class SetSlot(Record):
    __slots__ = _fields = ("key", "value")

    def __init__(self, key: Expr, value: Expr) -> None:
        self.key = key
        self.value = value


class Pay(Record):
    __slots__ = _fields = ("to", "amount")

    def __init__(self, to: Expr, amount: Expr) -> None:
        self.to = to
        self.amount = amount


class PauseGuard(Record):
    """Sugar for REQUIRE(SLOAD(key) == 0)."""

    __slots__ = _fields = ("key",)

    def __init__(self, key: Expr) -> None:
        self.key = key


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

class ContractCode(NamedTuple):
    admin: Address
    statements: Tuple[Statement, ...]


class Account(NamedTuple):
    balance: int = 0
    nonce: int = 0
    code: Optional[ContractCode] = None
    storage: Mapping[bytes, bytes] = MappingProxyType({})  # shared, so read-only

    def is_empty(self) -> bool:
        return self.balance == 0 and self.nonce == 0 and self.code is None and not self.storage


EMPTY_ACCOUNT = Account()


class WorldState(Record):
    """All accounts, stored canonically: empty accounts and zero slots are absent."""

    _fields = ("accounts",)
    # Root bookkeeping, outside `_fields` (equality and repr ignore it), None
    # until set. `_table` is set once by `state_root`: (root, sorted
    # addresses, their digests). `_lineage` is set by `Execution.post_state`
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


ZERO_SLOT = bytes(32)


def make_state(accounts: Mapping[Address, Account]) -> WorldState:
    """Build a canonical WorldState, dropping empty accounts and zero slots."""
    pruned: Dict[Address, Account] = {}
    for addr, acct in accounts.items():
        storage = {k: v for k, v in acct.storage.items() if v != ZERO_SLOT}
        acct = Account(balance=acct.balance, nonce=acct.nonce, code=acct.code, storage=storage)
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

    # The constructors skip the generated Python-level `__new__`.
    @staticmethod
    def storage(addr: Address, slot: bytes) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.STORAGE, addr, slot))

    @staticmethod
    def balance(addr: Address) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.BALANCE, addr, b""))

    @staticmethod
    def nonce(addr: Address) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.NONCE, addr, b""))

    @staticmethod
    def code(addr: Address) -> "AccessKey":
        return _new_key(AccessKey, (AccessKind.CODE, addr, b""))


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
    through `account`, `balance_of` and `nonce_of`, which an execution offers
    too, showing the accounts as it leaves them. `execute_transaction`
    returns one; the classifier's fold and `apply_block` are one each, with
    every transaction of the round or block absorbed into it."""

    def __init__(self, base: Union[WorldState, "Execution"]):
        self.base = base
        self.status = TxStatus.SUCCESS
        self.balances: Dict[Address, int] = {}
        self.nonces: Dict[Address, int] = {}
        self.storage: Dict[Address, Dict[bytes, bytes]] = {}
        self.reads: set = set()
        self.writes: set = set()
        self.gas_used: int = BASE_TX_GAS

    # -- scratch state accessors (no access recording) --
    def _balance(self, addr: Address) -> int:
        if addr not in self.balances:
            self.balances[addr] = self.base.balance_of(addr)
        return self.balances[addr]

    def _nonce(self, addr: Address) -> int:
        if addr not in self.nonces:
            self.nonces[addr] = self.base.nonce_of(addr)
        return self.nonces[addr]

    def _slots(self, addr: Address) -> Dict[bytes, bytes]:
        if addr not in self.storage:
            self.storage[addr] = dict(self.base.account(addr).storage)
        return self.storage[addr]

    # -- recorded accesses --
    def read_balance(self, addr: Address) -> int:
        self.reads.add(AccessKey.balance(addr))
        return self._balance(addr)

    def write_balance(self, addr: Address, value: int) -> None:
        self.writes.add(AccessKey.balance(addr))
        self.balances[addr] = value

    def read_nonce(self, addr: Address) -> int:
        self.reads.add(AccessKey.nonce(addr))
        return self._nonce(addr)

    def write_nonce(self, addr: Address, value: int) -> None:
        self.writes.add(AccessKey.nonce(addr))
        self.nonces[addr] = value

    def read_slot(self, addr: Address, key: bytes) -> bytes:
        self.reads.add(AccessKey.storage(addr, key))
        slots = self.storage.get(addr)
        if slots is None:
            slots = self.base.account(addr).storage
        return slots.get(key, ZERO_SLOT)

    def write_slot(self, addr: Address, key: bytes, value: bytes) -> None:
        self.writes.add(AccessKey.storage(addr, key))
        slots = self._slots(addr)
        if value == ZERO_SLOT:
            slots.pop(key, None)
        else:
            slots[key] = value

    def read_code(self, addr: Address) -> Optional[ContractCode]:
        self.reads.add(AccessKey.code(addr))
        return self.base.account(addr).code

    def transfer(self, src: Address, dst: Address, amount: int) -> None:
        self.write_balance(src, self.read_balance(src) - amount)
        self.write_balance(dst, self.read_balance(dst) + amount)

    # -- post-execution views (no access recording) --
    def account(self, addr: Address) -> Account:
        prev = self.base.account(addr)
        if addr not in self.balances and addr not in self.nonces and addr not in self.storage:
            return prev
        return Account(
            balance=self.balances.get(addr, prev.balance),
            nonce=self.nonces.get(addr, prev.nonce),
            code=prev.code,
            storage=self.storage.get(addr, prev.storage),
        )

    def balance_of(self, addr: Address) -> int:
        balance = self.balances.get(addr)
        return self.base.balance_of(addr) if balance is None else balance

    def nonce_of(self, addr: Address) -> int:
        nonce = self.nonces.get(addr)
        return self.base.nonce_of(addr) if nonce is None else nonce

    # -- folding executions into one scratch --
    def reads_as_base(self, keys) -> bool:
        """Whether every key still holds its base value here."""
        return all(_read_key(self, key) == _read_key(self.base, key) for key in keys)

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
        Built anew on every call."""
        base = self.base
        if not isinstance(base, WorldState):
            raise TypeError("an execution on a block scratch has no post-state of its own")
        accounts: Dict[Address, Account] = dict(base.accounts)
        changed: List[Address] = []
        for addr in self.balances.keys() | self.nonces.keys() | self.storage.keys():
            prev = base.account(addr)
            acct = self.account(addr)
            unchanged = acct.storage is prev.storage or acct.storage == prev.storage
            if unchanged and acct.balance == prev.balance and acct.nonce == prev.nonce:
                continue
            changed.append(addr)
            if acct.is_empty():
                accounts.pop(addr, None)
            else:
                accounts[addr] = acct
        state = WorldState(accounts)
        if base._table is not None:
            state._lineage = (base._table, frozenset(changed))
        elif base._lineage is not None:
            table, earlier = base._lineage
            state._lineage = (table, earlier.union(changed))
        return state


def _read_key(view: Union[WorldState, Execution], key: AccessKey):
    kind, addr, slot = key
    if kind == AccessKind.BALANCE:
        return view.balance_of(addr)
    if kind == AccessKind.NONCE:
        return view.nonce_of(addr)
    acct = view.account(addr)
    # Code objects are compared by identity: their `__eq__` runs in Python.
    return acct.storage.get(slot, ZERO_SLOT) if kind == AccessKind.STORAGE else id(acct.code)


class _CallEnv:
    """Binds expression evaluation to a running call frame."""

    def __init__(self, exe: Execution, self_addr: Address, caller: Address, callvalue: int, calldata: bytes):
        self.exe = exe
        self.self_addr = self_addr
        self.caller = caller
        self.callvalue = callvalue
        self.calldata = calldata

    def sload(self, key: bytes) -> int:
        return slot_int(self.exe.read_slot(self.self_addr, key))

    def balance(self, addr: Address) -> int:
        return self.exe.read_balance(addr)


def eval_expr(expr: Expr, env) -> int:
    """Evaluate an expression to a 256-bit word; total and deterministic.

    ADD and MUL wrap modulo 2**256, SUB saturates at 0, comparisons and logic
    yield 0 or 1 (any non-zero word is true).
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, SLoad):
        return env.sload(slot_bytes(eval_expr(expr.key, env)))
    if isinstance(expr, BalanceOf):
        return env.balance(Address.from_int(eval_expr(expr.addr, env)))
    if isinstance(expr, Caller):
        return int.from_bytes(env.caller, "big")
    if isinstance(expr, CallValue):
        return env.callvalue
    if isinstance(expr, CallData):
        return int.from_bytes(env.calldata[:32], "big")
    if isinstance(expr, SelfAddr):
        return int.from_bytes(env.self_addr, "big")
    if isinstance(expr, Bin):
        a = eval_expr(expr.left, env)
        b = eval_expr(expr.right, env)
        if expr.op == "add":
            return (a + b) % WORD
        if expr.op == "sub":
            return a - b if a >= b else 0
        if expr.op == "mul":
            return (a * b) % WORD
        if expr.op == "eq":
            return 1 if a == b else 0
        if expr.op == "lt":
            return 1 if a < b else 0
        if expr.op == "and":
            return 1 if a != 0 and b != 0 else 0
        if expr.op == "or":
            return 1 if a != 0 or b != 0 else 0
    if isinstance(expr, Not):
        return 1 if eval_expr(expr.inner, env) == 0 else 0
    raise TypeError(f"not an expression: {expr!r}")


def _run_statements(env: _CallEnv, code: ContractCode, gas_limit: int) -> None:
    """Execute a contract body, charging gas as it goes; raises _Revert.
    Running out of gas reverts and charges the whole limit."""
    exe = env.exe
    for stmt in code.statements:
        exe.gas_used += 1
        if exe.gas_used > gas_limit:
            exe.gas_used = gas_limit
            raise _Revert()
        if isinstance(stmt, Require):
            if eval_expr(stmt.cond, env) == 0:
                raise _Revert()
        elif isinstance(stmt, PauseGuard):
            if env.sload(slot_bytes(eval_expr(stmt.key, env))) != 0:
                raise _Revert()
        elif isinstance(stmt, SetSlot):
            key = slot_bytes(eval_expr(stmt.key, env))
            value = slot_bytes(eval_expr(stmt.value, env))
            env.exe.write_slot(env.self_addr, key, value)
        elif isinstance(stmt, Pay):
            to = Address.from_int(eval_expr(stmt.to, env))
            amount = eval_expr(stmt.amount, env)
            balance = env.exe.read_balance(env.self_addr)
            env.exe.read_balance(to)
            if amount > balance:
                raise _Revert()
            env.exe.transfer(env.self_addr, to, amount)
        else:
            raise TypeError(f"not a statement: {stmt!r}")


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
        sender_acct = state.account(tx.sender)
        if tx.nonce < sender_acct.nonce:
            raise PreconditionFailed(PreconditionFailed.NONCE_TOO_LOW, f"account nonce {sender_acct.nonce}")
        if tx.nonce > sender_acct.nonce:
            raise PreconditionFailed(PreconditionFailed.NONCE_TOO_HIGH, f"account nonce {sender_acct.nonce}")
        cost = max_cost(tx)
        if sender_acct.balance < cost:
            raise PreconditionFailed(PreconditionFailed.INSUFFICIENT_BALANCE, f"balance {sender_acct.balance} < {cost}")
        if tx.max_fee < ctx.base_fee:
            raise PreconditionFailed(PreconditionFailed.FEE_BELOW_BASE, f"base fee {ctx.base_fee}")
        recipient = tx.recipient if tx.recipient is not None else _fresh_address(tx.sender, tx.nonce)

    exe = Execution(state)
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

def code_hash(code: Optional[ContractCode]) -> bytes:
    if code is None:
        return bytes(32)
    return hashlib.sha256(bytes(code.admin) + code_text(code).encode("utf-8")).digest()


def _account_digest(addr: Address, acct: Account) -> bytes:
    ah = hashlib.sha256()
    ah.update(bytes(addr))
    ah.update(acct.balance.to_bytes(16, "big"))
    ah.update(acct.nonce.to_bytes(8, "big"))
    ah.update(code_hash(acct.code))
    for key in sorted(acct.storage):
        ah.update(key)
        ah.update(acct.storage[key])
    return ah.digest()


def state_root(state: WorldState) -> StateRoot:
    """Flat commitment: SHA-256 over per-account digests sorted by address.

    Account digest = SHA-256(address | balance 16 BE | nonce 8 BE | code hash
    | sorted storage pairs). Insertion order never matters; the empty state
    hashes the empty string. The sorted digest table is kept on the state; a
    state with a lineage copies its rooted ancestor's table and re-hashes only
    the accounts changed since, and a state without one builds it in full.
    """
    if state._table is not None:
        return state._table[0]
    accounts = state.accounts
    if state._lineage is None:
        addrs = sorted(accounts)
        digests = [_account_digest(addr, accounts[addr]) for addr in addrs]
    else:
        table, changed = state._lineage
        addrs, digests = list(table[1]), list(table[2])
        for addr in changed:
            i = bisect_left(addrs, addr)
            present = i < len(addrs) and addrs[i] == addr
            acct = accounts.get(addr)
            if acct is None:
                if present:
                    del addrs[i], digests[i]
            elif present:
                digests[i] = _account_digest(addr, acct)
            else:
                addrs.insert(i, addr)
                digests.insert(i, _account_digest(addr, acct))
    root = StateRoot(hashlib.sha256(b"".join(digests)).digest())
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
