"""The one-step transaction envelope, held to the accessor-based one in
`reference_vm`.

`execute_transaction` writes the kept effect (nonce bump or mint), the value
transfer, the code lookup and the fee straight into the new execution's
scratch; `reference_execute_transaction` makes each of those moves through
the recording accessors and reseeds a fresh execution on a revert. Drawn
signed transactions and deposits, creates, self-transfers, fee recipients
equal to the sender or the recipient, priority fees, reverts and out-of-gas
runs, on a world state and on a block scratch, give the same status, gas,
reads, writes, scratch fields and post-state, or the same precondition
failure.
"""
from hypothesis import example, given, settings, strategies as st

from helpers import ADMIN, COUNTER, FEE_SINK, VAULT, addr, counter_contract, gated_vault
from reference_vm import reference_execute_transaction
from rollupsim.core import DepositTransaction, SignedTransaction
from rollupsim.vm import (
    AccessKey,
    Account,
    Bin,
    BlockContext,
    CallData,
    Caller,
    CallValue,
    Const,
    ContractCode,
    Execution,
    Pay,
    PreconditionFailed,
    Require,
    SetSlot,
    WorldState,
    execute_transaction,
    make_state,
    slot_bytes,
)

ALICE, BOB, NOBODY = addr(0x11), addr(0x22), addr(0x33)  # NOBODY has no account
SPENDER = addr(0xC6)
# Pays the caller twice the call value, stores it, then requires empty call
# data: a revert after a payment, an overdraw, or out of gas at each of its
# three statements.
SPENDING = ContractCode(ADMIN, (
    Pay(Caller(), Bin("mul", CallValue(), Const(2))),
    SetSlot(Const(1), CallValue()),
    Require(Bin("eq", CallData(), Const(0))),
))
STATE = make_state({
    ALICE: Account(balance=10_000, nonce=3),
    BOB: Account(balance=60),
    FEE_SINK: Account(balance=7),
    VAULT: Account(balance=100, code=gated_vault(), storage={slot_bytes(int.from_bytes(b"paused", "big")): slot_bytes(1)}),
    COUNTER: Account(code=counter_contract()),
    SPENDER: Account(balance=50, code=SPENDING, storage={slot_bytes(1): slot_bytes(9)}),
})
TARGETS = ["create", "self", ALICE, BOB, NOBODY, FEE_SINK, VAULT, COUNTER, SPENDER]


def on_scratch(state: WorldState) -> Execution:
    """A block scratch that has absorbed two earlier transactions."""
    scratch = Execution(state)
    context = BlockContext(base_fee=1, fee_recipient=FEE_SINK)
    for earlier in (SignedTransaction(BOB, 0, SPENDER, 5, b"", 1, 1, 30), SignedTransaction(ALICE, 3, COUNTER, 0, b"", 1, 0, 30)):
        scratch.absorb(execute_transaction(scratch, earlier, context))
    return scratch


def outcome(execute, base, tx, context):
    try:
        exe = execute(base, tx, context)
    except PreconditionFailed as exc:
        return exc.reason, str(exc)
    post = exe.post_state().accounts if isinstance(base, WorldState) else None
    return exe.status, exe.gas_used, exe.reads, exe.writes, exe.balances, exe.nonces, exe.storage, post


@settings(max_examples=400, deadline=None)
@given(
    deposit=st.booleans(),
    sender=st.sampled_from([ALICE, BOB, NOBODY, SPENDER]),
    nonce_offset=st.sampled_from([0, 0, 0, -1, 1]),
    target=st.sampled_from(TARGETS),
    value=st.sampled_from([0, 1, 25, 10**6]),
    fees=st.sampled_from([(0, 0), (1, 0), (1, 1), (3, 2), (5, 5)]),
    gas_limit=st.integers(21, 26),
    data=st.sampled_from([b"", b"\x01", b"\x02"]),
    base_fee=st.sampled_from([0, 1, 2]),
    fee_to=st.sampled_from(["sink", "sender", "recipient", VAULT]),
    scratch=st.booleans(),
)
@example(True, BOB, 0, COUNTER, 5, (0, 0), 26, b"", 1, "sink", False)  # a deposit into a contract
@example(True, NOBODY, 0, "self", 5, (0, 0), 21, b"", 1, "sink", False)  # a deposit to its own sender
@example(True, BOB, 0, SPENDER, 40, (0, 0), 26, b"\x01", 1, "sink", False)  # a reverted deposit keeps its mint
@example(False, ALICE, 0, "create", 25, (3, 2), 21, b"", 1, "sender", False)  # a create, fees to the sender
@example(False, ALICE, 0, "self", 25, (3, 2), 21, b"", 1, "sink", False)  # a self-transfer
@example(False, ALICE, 0, BOB, 25, (3, 2), 21, b"", 1, "recipient", False)  # fees to the recipient
@example(False, ALICE, 0, SPENDER, 1, (3, 2), 26, b"\x01", 1, "recipient", False)  # a revert after a payment
@example(False, ALICE, 0, SPENDER, 1, (3, 2), 23, b"", 1, "sender", True)  # out of gas at the last statement
@example(False, BOB, 0, VAULT, 0, (1, 1), 26, b"", 1, "recipient", True)  # a paused vault reverts
def test_the_envelope_is_the_accessor_based_one(
    deposit, sender, nonce_offset, target, value, fees, gas_limit, data, base_fee, fee_to, scratch
):
    base = on_scratch(STATE) if scratch else STATE
    recipient = None if target == "create" else sender if target == "self" else target
    if deposit:
        tx = DepositTransaction(1, 0, sender, recipient if recipient is not None else NOBODY, value, data, gas_limit)
    else:
        max_fee, priority_fee = fees
        nonce = max(base.nonce_of(sender) + nonce_offset, 0)
        tx = SignedTransaction(sender, nonce, recipient, value, data, max_fee, priority_fee, gas_limit)
    fee_recipient = {"sink": FEE_SINK, "sender": sender, "recipient": tx.recipient or FEE_SINK}.get(fee_to, fee_to)
    context = BlockContext(base_fee=base_fee, fee_recipient=fee_recipient)
    fast = outcome(execute_transaction, base, tx, context)
    assert fast == outcome(reference_execute_transaction, base, tx, context)
    if len(fast) > 2:
        assert all(type(key) is AccessKey for key in fast[2] | fast[3])
