"""The evaluators the nodes build at construction, held to the tree-walking
interpreter in `reference_vm`.

Random expression trees of every kind and operator, the `formats` sugar
included, evaluate to the reference's word and read the same keys. Random
contract bodies, run out of gas at each statement, give the reference's
status, gas, reads, writes and post-state; each node shape whose evaluator
is specialised at construction (a constant slot key, the frame's own or its
caller's address) is drawn explicitly, and is the same record as the node
its fields alone define. Running and judging a vault drain builds no node
and makes a bounded number of Python-level calls, as does replaying a block
of counter calls, which builds no `Account` in Python; each program is
rendered for its code hash once.
"""
import contextlib
import gc
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ADMIN,
    COUNT_KEY,
    COUNTER,
    FEE_SINK,
    addr,
    counter_contract,
    ctx,
    exploit_tx,
    gated_vault,
    guard_only_vault,
    solvency_invariant,
    tx,
    vault_state,
)
from reference_vm import reference_eval_expr, reference_interpret
from rollupsim import vm
from rollupsim.core import BASE_TX_GAS, Address, Block, StateRoot
from rollupsim.derivation import derive
from rollupsim.detection import InvariantDetector, InvariantSet
from rollupsim.formats import parse_expr, parse_history, parse_scenario, render_history
from rollupsim.sequencer import run
from rollupsim.vm import (
    BIN_OPS,
    Account,
    BalanceOf,
    Bin,
    CallData,
    Caller,
    CallValue,
    Const,
    ContractCode,
    Execution,
    Not,
    Pay,
    PauseGuard,
    Require,
    SelfAddr,
    SetSlot,
    SLoad,
    _CallEnv,
    apply_block,
    code_hash,
    code_text,
    eval_expr,
    execute_transaction,
    expr_text,
    make_state,
    slot_bytes,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CONTRACT = addr(0xC7)
CALLER = addr(0x11)
TOP = 2**256 - 1
# The four edge words, plus words that name the contract, the caller and a
# stored slot, so that loads and balances land on state that is there.
EDGE_WORDS = [0, 1, 2**255, TOP]
WORDS = EDGE_WORDS + [int.from_bytes(CONTRACT, "big"), int.from_bytes(CALLER, "big"), 2]
CALLDATA = [b"", b"\x01", bytes(31) + b"\x02", bytes(range(1, 41))]  # the last is longer than a word
STATE = make_state({
    CALLER: Account(balance=10_000),
    CONTRACT: Account(balance=100, storage={
        slot_bytes(0): slot_bytes(TOP), slot_bytes(1): slot_bytes(7), slot_bytes(2): slot_bytes(1),
        slot_bytes(2**255): slot_bytes(int.from_bytes(CALLER, "big")),
    }),
    Address.from_int(1): Account(balance=5),
    Address.from_int(TOP): Account(balance=3),
})
NODE_TYPES = (Const, SLoad, BalanceOf, Caller, CallValue, CallData, SelfAddr, Bin, Not, Require, SetSlot, Pay, PauseGuard)


def sugar(op, left, right):
    """`formats`' ge/gt/le/ne, built the way a scenario file builds them."""
    return parse_expr(f"({op} {expr_text(left)} {expr_text(right)})")


LEAVES = st.one_of(st.sampled_from(WORDS).map(Const), st.sampled_from([Caller(), CallValue(), CallData(), SelfAddr()]))
EXPRS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        inner.map(SLoad), inner.map(BalanceOf), inner.map(Not),
        st.builds(Bin, st.sampled_from(BIN_OPS), inner, inner),
        st.builds(sugar, st.sampled_from(["ge", "gt", "le", "ne"]), inner, inner),
    ),
    max_leaves=10,
)
STATEMENTS = st.one_of(
    st.builds(Require, EXPRS), st.builds(PauseGuard, EXPRS), st.builds(SetSlot, EXPRS, EXPRS), st.builds(Pay, EXPRS, EXPRS)
)


def outcome(exe):
    return exe.status, exe.gas_used, exe.reads, exe.writes, exe.post_state().accounts


@settings(max_examples=400, deadline=None)
@given(EXPRS, st.sampled_from(EDGE_WORDS), st.sampled_from(CALLDATA))
@example(Bin("and", Const(0), SLoad(Const(1))), 0, b"")  # a short-circuit skips the right operand's read
@example(Bin("or", CallData(), BalanceOf(Caller())), 0, b"\x01")
@example(SLoad(Const(0)), 0, b"")  # the specialised shapes: slot 0 holds TOP
@example(SLoad(Const(2)), 0, b"")
@example(SLoad(Const(TOP)), 0, b"")  # an empty slot
@example(BalanceOf(SelfAddr()), 0, b"")
@example(BalanceOf(Caller()), 0, b"")
def test_an_expression_evaluates_as_the_tree_walk(expr, callvalue, calldata):
    fast, ref = Execution(STATE), Execution(STATE)
    value = eval_expr(expr, _CallEnv(fast, CONTRACT, CALLER, callvalue, calldata))
    assert value == reference_eval_expr(expr, _CallEnv(ref, CONTRACT, CALLER, callvalue, calldata))
    assert fast.reads == ref.reads and not fast.writes


@settings(max_examples=200, deadline=None)
@given(st.lists(STATEMENTS, min_size=1, max_size=6), st.sampled_from([0, 1, 60]), st.sampled_from(CALLDATA))
@example([Pay(Const(1), Const(2**255))], 0, b"")  # overdrawn, to an account nothing else reads
@example([PauseGuard(Const(1)), Pay(Caller(), Const(1))], 0, b"")  # paused: slot 1 holds 7
@example([PauseGuard(Const(3)), Pay(Caller(), Const(1)), SetSlot(Const(3), CallValue())], 1, b"")
@example([SetSlot(Const(0), CallValue()), SetSlot(Const(2), Const(0)), SetSlot(Const(TOP), SLoad(Const(1)))], 1, b"")
@example([Pay(Caller(), Const(101))], 0, b"")  # overdrawn: the contract holds 100
@example([Pay(Caller(), BalanceOf(SelfAddr()))], 0, b"")  # paid, the whole balance
def test_a_contract_body_runs_as_the_tree_walk(statements, value, calldata):
    code = ContractCode(ADMIN, tuple(statements))
    state = make_state({**STATE.accounts, CONTRACT: STATE.account(CONTRACT)._replace(code=code)})
    for gas_limit in range(BASE_TX_GAS, BASE_TX_GAS + len(statements) + 2):  # out of gas at each statement, then none
        call = tx(CALLER, 0, CONTRACT, value=value, data=calldata, gas_limit=gas_limit)
        assert outcome(execute_transaction(state, call, ctx())) == outcome(reference_interpret(state, call, ctx()))


def fields_only(cls, **fields):
    """The record `fields` define, built without `__init__`, so that no
    evaluator is built or specialised."""
    node = object.__new__(cls)
    for name, value in fields.items():
        setattr(node, name, value)
    return node


SPECIALISED = [
    (SLoad, {"key": Const(0)}),
    (SLoad, {"key": Const(2)}),
    (SLoad, {"key": Const(TOP)}),
    (BalanceOf, {"addr": SelfAddr()}),
    (BalanceOf, {"addr": Caller()}),
    (SetSlot, {"key": Const(0), "value": CallValue()}),
    (SetSlot, {"key": Const(TOP), "value": Const(2)}),
    (Pay, {"to": Caller(), "amount": Const(1)}),
]


@pytest.mark.parametrize("cls, fields", SPECIALISED, ids=lambda v: v.__name__ if isinstance(v, type) else " ".join(map(expr_text, v.values())))
def test_a_specialised_node_is_the_record_its_fields_define(cls, fields):
    node, generic = cls(**fields), fields_only(cls, **fields)
    assert type(node) is cls and node._fields == generic._fields == tuple(fields)
    assert node == generic and hash(node) == hash(generic) and repr(node) == repr(generic)
    stmt, generic_stmt = (node, generic) if cls in (SetSlot, Pay) else (Require(node), fields_only(Require, cond=generic))
    code, generic_code = ContractCode(ADMIN, (stmt,)), ContractCode(ADMIN, (generic_stmt,))
    assert code_text(code) == code_text(generic_code)
    assert code_hash(code) == code_hash(generic_code)


class TestDrainCallCount:
    """A count, not a timer: the Python-level calls that one vault drain
    makes while it is executed, and while it is judged. Each accessor builds
    its key in place, and constant slots and the frame's own and caller's
    addresses are resolved at construction, so a call made per access or
    per operand shows here."""

    @staticmethod
    def python_calls(fn, *args):
        calls = []

        def profile(frame, event, _arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        # A collection inside the window would finalize other tests' garbage
        # (a suspended generator resumes to close), and each resumption
        # counts as a call, so the count is taken with collection off.
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return result, calls

    def test_executing_and_judging_a_drain(self):
        state = vault_state(paused=False)
        invariants = InvariantSet()
        invariants.register(solvency_invariant(), state)
        drain, context = exploit_tx(), ctx()
        sim, executing = self.python_calls(execute_transaction, state, drain, context)
        (verdict, _), judging = self.python_calls(InvariantDetector().assess, sim, state, invariants)
        assert verdict.malicious and executing[0] == "execute_transaction"
        assert len(executing) <= 69, executing  # 71 before the checks seeded the scratch; 111 when each key and scratch entry took calls of its own
        assert len(judging) <= 18, judging  # 23


class TestReplayCallCount:
    """A count, not a timer: the Python-level calls that applying a block
    of calls to one shared counter makes, as a replica does. Storage and
    code are read through the field views, and the post-state builds each
    changed `Account` in C, so no generated `Account.__new__` runs and a
    view call made per access shows here."""

    CALLS = 20

    def test_applying_a_block_of_counter_calls(self):
        senders = [addr(0x100 + i) for i in range(self.CALLS)]
        counter = Account(code=counter_contract(), storage={slot_bytes(COUNT_KEY): slot_bytes(1)})
        state = make_state({**{s: Account(balance=10_000) for s in senders}, COUNTER: counter})
        calls = tuple(tx(s, 0, COUNTER, max_fee=2, priority_fee=1) for s in senders)
        block = Block(1, bytes(32), 1, 1, 0, (), calls, StateRoot(bytes(32)))
        codes = []

        def profile(frame, event, _arg):
            if event == "call":
                codes.append(frame.f_code)

        sys.setprofile(profile)
        try:
            post = apply_block(state, block, FEE_SINK)
        finally:
            sys.setprofile(None)
        assert post.accounts[COUNTER].storage == {slot_bytes(COUNT_KEY): slot_bytes(1 + self.CALLS)}
        names = [code.co_name for code in codes]
        assert Account.__new__.__code__ not in codes, names  # 79 when storage and code reads built accounts
        assert len(codes) <= 39 * self.CALLS, names  # 771; 851 before the checks seeded the scratch; 1055 when reads built accounts


@pytest.mark.parametrize("vault", [gated_vault, guard_only_vault])
def test_running_and_judging_a_drain_builds_no_node(vault):
    state = vault_state(paused=False, code=vault())
    invariants = InvariantSet()
    invariants.register(solvency_invariant(), state)
    built = []

    def counting(cls):
        original = cls.__init__

        def init(self, *args, **kwargs):
            built.append(cls)
            original(self, *args, **kwargs)

        return init

    with contextlib.ExitStack() as patches:
        for cls in NODE_TYPES:
            patches.enter_context(mock.patch.object(cls, "__init__", counting(cls)))
        Caller(), Not(Const(0))
        assert built == [Caller, Const, Not]  # the count sees every construction
        built.clear()
        sim = execute_transaction(state, exploit_tx(), ctx())
        verdict, _ = InvariantDetector().assess(sim, state, invariants)
    assert verdict.malicious and built == []


def test_each_program_is_rendered_once_for_its_code_hash():
    rendered = []
    render = vm.code_text

    def counting(code):
        rendered.append(code)  # holds the code objects, so no id is reused
        return render(code)

    scenario = parse_scenario((SCENARIOS / "kitchen_sink.scn").read_text())
    with mock.patch.object(vm, "code_text", counting):
        result = run(scenario)
        chain = derive(parse_history(render_history(result.history)))
    assert chain.final_root == result.report.final_root
    assert len(chain.blocks) > 2 and rendered
    assert len({id(code) for code in rendered}) == len(rendered)
