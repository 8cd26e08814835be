"""Reference oracle for the copy-on-write world state and the block folds.

These are the original full-copy implementations the fast path replaced:
every execution rebuilds and re-canonicalizes every account through
`make_state`, and the state root re-hashes every account from scratch. They
are slow but obviously right, and the differential tests hold the shipped VM
to them. `reference_fold` and `reference_apply_block` re-execute every
transaction of a block on the previous transaction's post-state, as the
classifier's fold and `apply_block` did before they ran on one scratch.
`ReferenceAccessKey` is the original access key, a frozen ordered dataclass
over an `IntEnum`, which the tuple-based key must match in equality, hashing
and sort order. `reference_eval_expr` and `reference_run_statements` are the
original tree-walking interpreter, which picks each node's case and each
operator by comparison on every call; the evaluators the nodes build at
construction must match it value for value and read for read.
`reference_reads_as_base` is the original merge check, which reads every
key through the generic `_read_key` on both the scratch and its base; the
shipped check compares only the keys whose field the scratch holds.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Sequence, Tuple
from unittest import mock

from rollupsim import vm
from rollupsim.core import Address, AnyTransaction, Block, StateRoot
from rollupsim.vm import (
    WORD,
    Account,
    BalanceOf,
    Bin,
    BlockContext,
    CallData,
    Caller,
    CallValue,
    Const,
    ContractCode,
    Execution,
    Expr,
    InvalidBlock,
    Not,
    Pay,
    PauseGuard,
    PreconditionFailed,
    Require,
    SelfAddr,
    SetSlot,
    SLoad,
    ZERO_SLOT,
    WorldState,
    _CallEnv,
    _Revert,
    code_hash,
    execute_transaction,
    make_state,
    slot_bytes,
    slot_int,
)


def full_copy_post_state(exe: Execution) -> WorldState:
    """Copy every account, overlay the touched ones, re-canonicalize all."""
    accounts: Dict = dict(exe.base.accounts)
    touched = set(exe.balances) | set(exe.nonces) | set(exe.storage)
    for addr in touched:
        prev = exe.base.account(addr)
        accounts[addr] = Account(
            balance=exe.balances.get(addr, prev.balance),
            nonce=exe.nonces.get(addr, prev.nonce),
            code=prev.code,
            storage=exe.storage.get(addr, prev.storage),
        )
    return make_state(accounts)


def full_state_root(state: WorldState) -> StateRoot:
    """SHA-256 over per-account digests sorted by address, all recomputed."""
    h = hashlib.sha256()
    for addr in sorted(state.accounts):
        acct = state.accounts[addr]
        ah = hashlib.sha256()
        ah.update(bytes(addr))
        ah.update(acct.balance.to_bytes(16, "big"))
        ah.update(acct.nonce.to_bytes(8, "big"))
        ah.update(code_hash(acct.code))
        for key in sorted(acct.storage):
            ah.update(key)
            ah.update(acct.storage[key])
        h.update(ah.digest())
    return StateRoot(h.digest())


def _read_key(view, key):
    kind, addr, slot = key
    if kind == ReferenceAccessKind.BALANCE:
        return view.balance_of(addr)
    if kind == ReferenceAccessKind.NONCE:
        return view.nonce_of(addr)
    if kind == ReferenceAccessKind.STORAGE:
        return view.storage_of(addr).get(slot, ZERO_SLOT)
    return id(view.code_of(addr))


def reference_reads_as_base(exe: Execution, keys) -> bool:
    """Whether every key still holds its base value in `exe`."""
    return all(_read_key(exe, key) == _read_key(exe.base, key) for key in keys)


def reference_execute(state: WorldState, tx: AnyTransaction, ctx: BlockContext) -> Tuple[Execution, WorldState]:
    """Execute, and assemble the post-state by full copy instead of
    copy-on-write.

    The interpreter itself is shared; only how the post-state is assembled
    differs, which is exactly what the differential test compares.
    """
    result = execute_transaction(state, tx, ctx)
    return result, full_copy_post_state(result)


def reference_fold(state: WorldState, txs: Sequence[AnyTransaction], ctx: BlockContext) -> WorldState:
    """Apply candidates already judged uninfluenced, in order, in block context."""
    for tx in txs:
        try:
            state = execute_transaction(state, tx, ctx).post_state()
        except PreconditionFailed as exc:
            raise RuntimeError("uninfluenced candidate diverged in block context") from exc
    return state


def reference_apply_block(state: WorldState, block: Block, fee_recipient: Address) -> WorldState:
    """Fold every transaction of a block (deposits first) into a new state."""
    ctx = BlockContext(base_fee=block.base_fee, timestamp=block.timestamp, fee_recipient=fee_recipient)
    current = state
    for index, tx in enumerate(list(block.deposits) + list(block.transactions)):
        try:
            current = execute_transaction(current, tx, ctx).post_state()
        except PreconditionFailed as exc:
            raise InvalidBlock(index, exc.reason) from exc
    return current


class ReferenceAccessKind(IntEnum):
    STORAGE = 0
    BALANCE = 1
    NONCE = 2
    CODE = 3


@dataclass(frozen=True, order=True)
class ReferenceAccessKey:
    kind: ReferenceAccessKind
    addr: Address
    slot: bytes = b""

    @staticmethod
    def storage(addr: Address, slot: bytes) -> "ReferenceAccessKey":
        return ReferenceAccessKey(ReferenceAccessKind.STORAGE, addr, slot)

    @staticmethod
    def balance(addr: Address) -> "ReferenceAccessKey":
        return ReferenceAccessKey(ReferenceAccessKind.BALANCE, addr)

    @staticmethod
    def nonce(addr: Address) -> "ReferenceAccessKey":
        return ReferenceAccessKey(ReferenceAccessKind.NONCE, addr)

    @staticmethod
    def code(addr: Address) -> "ReferenceAccessKey":
        return ReferenceAccessKey(ReferenceAccessKind.CODE, addr)


def reference_eval_expr(expr: Expr, env: _CallEnv) -> int:
    """Evaluate an expression to a 256-bit word; total and deterministic.

    ADD and MUL wrap modulo 2**256, SUB saturates at 0, comparisons and logic
    yield 0 or 1 (any non-zero word is true).
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, SLoad):
        return slot_int(env.exe.read_slot(env.self_addr, slot_bytes(reference_eval_expr(expr.key, env))))
    if isinstance(expr, BalanceOf):
        return env.exe.read_balance(Address.from_int(reference_eval_expr(expr.addr, env)))
    if isinstance(expr, Caller):
        return int.from_bytes(env.caller, "big")
    if isinstance(expr, CallValue):
        return env.callvalue
    if isinstance(expr, CallData):
        return int.from_bytes(env.calldata[:32], "big")
    if isinstance(expr, SelfAddr):
        return int.from_bytes(env.self_addr, "big")
    if isinstance(expr, Bin):
        a = reference_eval_expr(expr.left, env)
        b = reference_eval_expr(expr.right, env)
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
        return 1 if reference_eval_expr(expr.inner, env) == 0 else 0
    raise TypeError(f"not an expression: {expr!r}")


def reference_run_statements(env: _CallEnv, code: ContractCode, gas_limit: int) -> None:
    """Execute a contract body, charging gas as it goes; raises _Revert.
    Running out of gas reverts and charges the whole limit."""
    exe = env.exe
    for stmt in code.statements:
        exe.gas_used += 1
        if exe.gas_used > gas_limit:
            exe.gas_used = gas_limit
            raise _Revert()
        if isinstance(stmt, Require):
            if reference_eval_expr(stmt.cond, env) == 0:
                raise _Revert()
        elif isinstance(stmt, PauseGuard):
            if slot_int(exe.read_slot(env.self_addr, slot_bytes(reference_eval_expr(stmt.key, env)))) != 0:
                raise _Revert()
        elif isinstance(stmt, SetSlot):
            key = slot_bytes(reference_eval_expr(stmt.key, env))
            value = slot_bytes(reference_eval_expr(stmt.value, env))
            exe.write_slot(env.self_addr, key, value)
        elif isinstance(stmt, Pay):
            to = Address.from_int(reference_eval_expr(stmt.to, env))
            amount = reference_eval_expr(stmt.amount, env)
            balance = exe.read_balance(env.self_addr)
            exe.read_balance(to)
            if amount > balance:
                raise _Revert()
            exe.transfer(env.self_addr, to, amount)
        else:
            raise TypeError(f"not a statement: {stmt!r}")


def reference_interpret(state: WorldState, tx: AnyTransaction, ctx: BlockContext) -> Execution:
    """`execute_transaction` with the contract body run by the reference
    interpreter instead of the nodes' own evaluators."""
    with mock.patch.object(vm, "_run_statements", reference_run_statements):
        return execute_transaction(state, tx, ctx)
