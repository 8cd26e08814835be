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
and sort order.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, Sequence

from rollupsim.core import Address, AnyTransaction, Block, StateRoot
from rollupsim.vm import (
    Account,
    BlockContext,
    InvalidBlock,
    PreconditionFailed,
    SimulationResult,
    WorldState,
    _Execution,
    code_hash,
    execute_transaction,
    make_state,
)


def full_copy_post_state(exe: _Execution) -> WorldState:
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


def reference_execute(state: WorldState, tx: AnyTransaction, ctx: BlockContext) -> SimulationResult:
    """Execute with the full-copy snapshot in place of the copy-on-write one.

    The interpreter itself is shared; only how the post-state is assembled
    differs, which is exactly what the differential test compares.
    """
    original = _Execution.post_state
    _Execution.post_state = full_copy_post_state
    try:
        result = execute_transaction(state, tx, ctx)
        result.post_state  # built now, while the full-copy snapshot is in place
        return result
    finally:
        _Execution.post_state = original


def reference_fold(state: WorldState, txs: Sequence[AnyTransaction], ctx: BlockContext) -> WorldState:
    """Apply candidates already judged uninfluenced, in order, in block context."""
    for tx in txs:
        try:
            state = execute_transaction(state, tx, ctx).post_state
        except PreconditionFailed as exc:
            raise RuntimeError("uninfluenced candidate diverged in block context") from exc
    return state


def reference_apply_block(state: WorldState, block: Block, fee_recipient: Address) -> WorldState:
    """Fold every transaction of a block (deposits first) into a new state."""
    ctx = BlockContext(base_fee=block.base_fee, timestamp=block.timestamp, fee_recipient=fee_recipient)
    current = state
    for index, tx in enumerate(list(block.deposits) + list(block.transactions)):
        try:
            current = execute_transaction(current, tx, ctx).post_state
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
