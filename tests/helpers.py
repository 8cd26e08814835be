"""Shared fixtures: hand-built contracts, states, the benchmark's workload
generator, the independent sequential classification oracle used to check
the scheduler, the one harness that counts Python-level calls and the one
that counts tracked objects."""
from __future__ import annotations

import functools
import gc
import importlib.util
import sys
from pathlib import Path
from types import CodeType, ModuleType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from rollupsim.core import Address, DepositTransaction, SignedTransaction
from rollupsim.detection import Invariant
from rollupsim.vm import (
    Account,
    BalanceOf,
    Bin,
    BlockContext,
    CallData,
    Caller,
    CallValue,
    Const,
    ContractCode,
    Expr,
    Not,
    Pay,
    PreconditionFailed,
    Require,
    SLoad,
    SelfAddr,
    SetSlot,
    WorldState,
    execute_transaction,
    make_state,
    slot_bytes,
)


# Every node class of the contract language, expressions then statements.
NODE_TYPES = (Const, SLoad, BalanceOf, Caller, CallValue, CallData, SelfAddr, Bin, Not, Require, SetSlot, Pay)


def balance_deltas(pre: WorldState, post: WorldState) -> Dict[Address, int]:
    """Every non-zero balance change from `pre` to `post`."""
    deltas = {a: post.balance_of(a) - pre.balance_of(a) for a in pre.accounts.keys() | post.accounts.keys()}
    return {a: d for a, d in deltas.items() if d != 0}


def addr(n: int) -> Address:
    return Address(n.to_bytes(20, "big"))


ADMIN = addr(0xA1)
ATTACKER = addr(0xB2)
VAULT = addr(0xC3)
FEE_SINK = addr(0xFEE)

PAUSED = int.from_bytes(b"paused", "big")
PAUSED_SLOT = slot_bytes(PAUSED)


def tx(sender: Address, nonce: int, to: Optional[Address], *, value=0, data=b"", max_fee=1, priority_fee=0, gas_limit=30) -> SignedTransaction:
    return SignedTransaction(
        sender=sender,
        nonce=nonce,
        recipient=to,
        value=value,
        data=data,
        max_fee=max_fee,
        priority_fee=priority_fee,
        gas_limit=gas_limit,
    )


def ctx(base_fee=1, fee_recipient=FEE_SINK) -> BlockContext:
    return BlockContext(base_fee=base_fee, fee_recipient=fee_recipient)


def guard_only_vault(admin: Address = ADMIN) -> ContractCode:
    """Minimal paying vault: refuse while the pause slot is set, then pay the
    caller the whole balance."""
    return ContractCode(
        admin=admin,
        statements=(
            Require(Not(SLoad(Const(PAUSED)))),
            Pay(Caller(), BalanceOf(SelfAddr())),
        ),
    )


def gated_vault(admin: Address = ADMIN) -> ContractCode:
    """Vault whose pause flag only the admin can flip.

    calldata 1 from the admin unpauses, calldata 2 re-pauses; anyone else
    leaves the flag alone. Non-admin calls revert while paused, and a
    successful non-admin call drains the whole balance to the caller (the
    admin's own calls never pay out).
    """
    admin_word = Const(int.from_bytes(admin, "big"))
    is_admin = Bin("eq", Caller(), admin_word)
    unpause = Bin("and", is_admin, Bin("eq", CallData(), Const(1)))
    repause = Bin("and", is_admin, Bin("eq", CallData(), Const(2)))
    next_flag = Bin("or", Bin("and", SLoad(Const(PAUSED)), Not(unpause)), repause)
    return ContractCode(
        admin=admin,
        statements=(
            SetSlot(Const(PAUSED), next_flag),
            Require(Bin("or", is_admin, Not(SLoad(Const(PAUSED))))),
            Pay(Caller(), Bin("mul", BalanceOf(SelfAddr()), Not(is_admin))),
        ),
    )


def solvency_invariant(contract: Address = VAULT, floor: int = 50, admin: Address = ADMIN) -> Invariant:
    return Invariant(
        id="vault-solvent",
        contract=contract,
        predicate=Not(Bin("lt", BalanceOf(SelfAddr()), Const(floor))),
        registered_by=admin,
    )


def vault_state(*, paused=True, vault_balance=100, code: Optional[ContractCode] = None, extra: Optional[Dict[Address, Account]] = None) -> WorldState:
    accounts: Dict[Address, Account] = {
        ADMIN: Account(balance=10_000),
        ATTACKER: Account(balance=10_000),
        VAULT: Account(
            balance=vault_balance,
            code=code if code is not None else gated_vault(),
            storage={PAUSED_SLOT: slot_bytes(1)} if paused else {},
        ),
    }
    if extra:
        accounts.update(extra)
    return make_state(accounts)


def unpause_tx(nonce=0, **kw) -> SignedTransaction:
    return tx(ADMIN, nonce, VAULT, data=b"\x01", **kw)


def repause_tx(nonce=0, **kw) -> SignedTransaction:
    return tx(ADMIN, nonce, VAULT, data=b"\x02", **kw)


def exploit_tx(nonce=0, **kw) -> SignedTransaction:
    return tx(ATTACKER, nonce, VAULT, **kw)


COUNTER = addr(0xC4)
LEDGERBOOK = addr(0xC5)
COUNT_KEY = int.from_bytes(b"count", "big")


def counter_contract(admin: Address = ADMIN) -> ContractCode:
    """Increments one slot on every call."""
    return ContractCode(
        admin=admin,
        statements=(SetSlot(Const(COUNT_KEY), Bin("add", SLoad(Const(COUNT_KEY)), Const(1))),),
    )


def blind_writer(admin: Address = ADMIN) -> ContractCode:
    """Writes callvalue into the slot named by calldata, reading nothing."""
    return ContractCode(admin=admin, statements=(SetSlot(CallData(), CallValue()),))


def generator_world(rng) -> Tuple[WorldState, List[Invariant]]:
    """A small world with three watched contracts and a handful of senders.

    Contract mix is chosen to exercise every scheduling hazard: caller-gated
    pause flips, read-modify-write counters, and blind writers whose only
    coupling is through the invariant predicate itself.
    """
    senders = {addr(i): Account(balance=rng.choice([0, 30, 200, 5_000, 5_000])) for i in range(1, 5)}
    senders[ADMIN] = Account(balance=5_000)
    accounts = dict(senders)
    accounts[VAULT] = Account(
        balance=rng.choice([0, 60, 100]),
        code=gated_vault(),
        storage={PAUSED_SLOT: slot_bytes(rng.choice([0, 1]))},
    )
    accounts[COUNTER] = Account(
        balance=0,
        code=counter_contract(),
        storage={slot_bytes(COUNT_KEY): slot_bytes(rng.choice([0, 1, 2]))},
    )
    accounts[LEDGERBOOK] = Account(balance=0, code=blind_writer())
    state = make_state(accounts)
    invariants = [
        solvency_invariant(VAULT, floor=rng.choice([10, 50])),
        Invariant(
            id="counter-capped",
            contract=COUNTER,
            predicate=Bin("lt", SLoad(Const(COUNT_KEY)), Const(3)),
            registered_by=ADMIN,
        ),
        Invariant(
            id="ledger-bounded",
            contract=LEDGERBOOK,
            predicate=Bin("lt", Bin("add", SLoad(Const(1)), SLoad(Const(2))), Const(15)),
            registered_by=ADMIN,
        ),
    ]
    return state, invariants


def generator_candidates(rng, state: WorldState, max_txs: int = 6) -> List[SignedTransaction]:
    """Random candidate list: transfers, contract pokes, nonce chains, and the
    occasional unexecutable or underpriced straggler."""
    nonces: Dict[Address, int] = {}
    txs: List[SignedTransaction] = []
    participants = [addr(i) for i in range(1, 5)] + [ADMIN]
    for _ in range(rng.randrange(1, max_txs + 1)):
        sender = rng.choice(participants)
        nonce = nonces.get(sender, state.nonce_of(sender))
        nonces[sender] = nonce + 1
        roll = rng.random()
        if roll < 0.25:
            target = rng.choice(participants + [VAULT])
            txs.append(tx(sender, nonce, target, value=rng.choice([0, 5, 40, 150])))
        elif roll < 0.45:
            txs.append(tx(sender, nonce, VAULT, data=bytes([rng.choice([0, 0, 1, 2])])))
        elif roll < 0.6:
            txs.append(tx(sender, nonce, COUNTER))
        elif roll < 0.8:
            txs.append(tx(sender, nonce, LEDGERBOOK, data=bytes([rng.choice([1, 2])]), value=rng.choice([0, 4, 8, 12])))
        elif roll < 0.9:
            txs.append(tx(sender, nonce, rng.choice(participants), value=rng.choice([0, 10]), max_fee=0, priority_fee=0))
        else:
            # a deliberate gap: skip one nonce for this sender
            nonces[sender] = nonce + 2
            txs.append(tx(sender, nonce + 1, rng.choice(participants), value=1))
    if len(txs) > 1 and rng.random() < 0.3:
        # candidate ordering is fee-driven, so a sender's higher nonce can
        # legitimately precede its lower one; cover that inversion
        i = rng.randrange(len(txs) - 1)
        txs[i], txs[i + 1] = txs[i + 1], txs[i]
    return txs


def sequential_oracle(txs, tip_state: WorldState, invariants, detector, context: BlockContext):
    """Ground truth: simulate every candidate in block context, skipping
    flagged ones from the fold; unexecutable candidates are deferred."""
    state = tip_state
    benign: List = []
    malicious: List[Tuple] = []
    deferred: List = []
    for t in txs:
        try:
            sim = execute_transaction(state, t, context)
        except PreconditionFailed:
            deferred.append(t)
            continue
        verdict, _ = detector.assess(sim, state, invariants)
        if verdict.malicious:
            malicious.append((t, verdict))
        else:
            benign.append(t)
            state = sim.post_state()
    return benign, malicious, deferred, state


class CallCount(NamedTuple):
    result: Any
    calls: List[CodeType]  # the code of every Python-level function called, in order
    c_calls: List[Tuple[CodeType, Any]]  # (calling code, C function) for every C-level call

    @property
    def names(self) -> List[str]:
        return [code.co_name for code in self.calls]


def compile_calls(fn: Callable, *args) -> Tuple[Any, int]:
    """`fn(*args)` and the `compile` calls it made, counted by `python_calls`
    with no warm-up run."""
    counted = python_calls(fn, *args, warm_up=False)
    return counted.result, sum(1 for _, called in counted.c_calls if called is compile)


def python_calls(fn: Callable, *args, warm_up: bool = True) -> CallCount:
    """A count, not a timer: call `fn(*args)` under `sys.setprofile` and
    record every call it makes. With `warm_up`, `fn(*args)` runs once
    before, outside the window, so memos filled on a first run (a program
    compiles on its first run) are not counted; `fn` must then leave its
    arguments as it found them. The garbage collector is off inside the
    window: a collection would finalize other tests' garbage (a suspended
    generator resumes to close), and each resumption counts as a call."""
    if warm_up:
        fn(*args)
    calls: List[CodeType] = []
    c_calls: List[Tuple[CodeType, Any]] = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code)
        elif event == "c_call":
            c_calls.append((frame.f_code, arg))

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return CallCount(result, calls, c_calls)


class ObjectCount(NamedTuple):
    result: Any
    added: int  # objects the collector tracks after `fn` less those before


def tracked_objects(fn: Callable, *args) -> ObjectCount:
    """A count, not a timer: the objects the garbage collector tracks that
    `fn(*args)` leaves alive. Collect and count `gc.get_objects()`, call
    `fn`, then collect and count again; the result is kept alive across the
    second count, so what it holds is counted."""
    gc.collect()
    before = len(gc.get_objects())
    result = fn(*args)
    gc.collect()
    return ObjectCount(result, len(gc.get_objects()) - before)


@functools.lru_cache(maxsize=None)
def bench_generate() -> ModuleType:
    """`perfbench/generate.py`, which turns a workload and a seed into the
    benchmark's scenario text; loaded once."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module
