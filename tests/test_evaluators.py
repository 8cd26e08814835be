"""The straight-line functions that programs and predicates compile to,
held to the tree-walking interpreter in `reference_vm`.

Each contract program is compiled on its first run into one Python
function, memoized on its `ContractCode`, and each predicate once, when its
invariant is registered; no node carries an evaluator or a memo of its
own. Random expression trees of every kind and operator, the `formats` sugar
included, evaluate to the reference's word and read the same keys. Random
contract bodies, run out of gas at each statement, give the reference's
status, gas, reads, writes and post-state, and so does a program nested as
deep as a scenario may nest it; each node shape the compiler specialises (a
constant slot key, a constant address, the frame's own or its caller's
address) is drawn explicitly, and is the same record as the node its fields
alone define. Running and judging a vault drain builds no node and makes a
bounded number of Python-level calls, as does replaying a block of counter
calls, which builds no `Account` in Python; each program is rendered for its
code hash once and compiled once, on its first run, and each predicate is
compiled once, by `InvariantSet.register`. One process-wide table holds one
function per distinct program or predicate text: every contract and
invariant that repeats a text shares it, as does a replica in the same
process, and a shared function runs as one compiled afresh.
"""
import contextlib
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ADMIN,
    ATTACKER,
    COUNT_KEY,
    COUNTER,
    FEE_SINK,
    NODE_TYPES,
    VAULT,
    addr,
    bench_generate,
    compile_calls,
    counter_contract,
    ctx,
    exploit_tx,
    gated_vault,
    guard_only_vault,
    python_calls,
    solvency_invariant,
    tx,
    vault_state,
)
from reference_formats import tree_height as _height
from reference_vm import CallEnv, reference_eval_expr, reference_interpret
from rollupsim import lines, vm
from rollupsim.core import BASE_TX_GAS, Address, Block, ScenarioError, StateRoot
from rollupsim.derivation import derive
from rollupsim import detection
from rollupsim.detection import InvariantDetector, InvariantSet
from rollupsim.formats import parse_expr, parse_history, parse_scenario, parse_statements, render_history
from rollupsim.lines import MAX_NESTING
from rollupsim.sequencer import run
from rollupsim.vm import (
    BIN_OPS,
    AccessKey,
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
    Replay,
    Require,
    SelfAddr,
    SetSlot,
    SLoad,
    apply_block,
    code_hash,
    code_text,
    compile_predicate,
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
    st.builds(Require, EXPRS), st.builds(SetSlot, EXPRS, EXPRS), st.builds(Pay, EXPRS, EXPRS)
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
@example(BalanceOf(Const(1)), 0, b"")  # a constant address
@example(Bin("eq", CallData(), CallData()), 0, bytes(range(1, 41)))  # a frame word read twice
def test_an_expression_evaluates_as_the_tree_walk(expr, callvalue, calldata):
    fast, ref = Execution(STATE), Execution(STATE)
    predicate = compile_predicate(expr)
    value = predicate(fast, CONTRACT, CALLER, callvalue, calldata)
    assert value == reference_eval_expr(expr, CallEnv(ref, CONTRACT, CALLER, callvalue, calldata))
    assert fast.reads == ref.reads and not fast.writes
    assert predicate(Execution(STATE), CONTRACT, CALLER, callvalue, calldata) == value  # the same function, run again


@settings(max_examples=200, deadline=None)
@given(st.lists(STATEMENTS, min_size=1, max_size=6), st.sampled_from([0, 1, 60]), st.sampled_from(CALLDATA))
@example([Pay(Const(1), Const(2**255))], 0, b"")  # overdrawn, to an account nothing else reads
@example([Require(Not(SLoad(Const(1)))), Pay(Caller(), Const(1))], 0, b"")  # paused: slot 1 holds 7
@example([Require(Not(SLoad(Const(3)))), Pay(Caller(), Const(1)), SetSlot(Const(3), CallValue())], 1, b"")
@example([SetSlot(Const(0), CallValue()), SetSlot(Const(2), Const(0)), SetSlot(Const(TOP), SLoad(Const(1)))], 1, b"")
@example([Pay(Caller(), Const(101))], 0, b"")  # overdrawn: the contract holds 100
@example([Pay(Caller(), BalanceOf(SelfAddr()))], 0, b"")  # paid, the whole balance
def test_a_contract_body_runs_as_the_tree_walk(statements, value, calldata):
    code = ContractCode(ADMIN, tuple(statements))
    state = make_state({**STATE.accounts, CONTRACT: STATE.account(CONTRACT)._replace(code=code)})
    for gas_limit in range(BASE_TX_GAS, BASE_TX_GAS + len(statements) + 2):  # out of gas at each statement, then none
        call = tx(CALLER, 0, CONTRACT, value=value, data=calldata, gas_limit=gas_limit)
        assert outcome(execute_transaction(state, call, ctx())) == outcome(reference_interpret(state, call, ctx()))


@pytest.mark.parametrize("fold", ["not", "sub", "and"])
def test_a_program_at_the_nesting_bound_runs_as_the_tree_walk(fold):
    """Programs as deep as `MAX_NESTING` allows, read from text: nested
    `not`s, and left-leaning chains of a binary operator over loads and
    balances, both run out of gas and not."""
    inner = MAX_NESTING - 1  # the statement is level 1
    if fold == "not":
        expr = "(not " * (inner - 2) + "(sload 1)" + ")" * (inner - 2)
    else:
        expr = "(sload 2)"
        for i in range(inner - 2):
            expr = f"({fold} {expr} {'(balance caller)' if i % 2 else i})"
    statements = parse_statements(f"(set 3 {expr}) (require {expr})")
    assert max(map(_height, statements)) == MAX_NESTING
    with pytest.raises(ScenarioError, match="nested deeper"):
        parse_statements(f"(require (not {expr}))")
    code = ContractCode(ADMIN, statements)
    state = make_state({**STATE.accounts, CONTRACT: STATE.account(CONTRACT)._replace(code=code)})
    for gas_limit in (BASE_TX_GAS + 1, BASE_TX_GAS + 2):
        call = tx(CALLER, 0, CONTRACT, gas_limit=gas_limit)
        assert outcome(execute_transaction(state, call, ctx())) == outcome(reference_interpret(state, call, ctx()))


# Code text over every operator the reader knows, sugar included.
CODE_TEXTS = st.recursive(
    st.sampled_from(["7", "0x2a", "'paused'", "(const 1)", "caller", "callvalue", "calldata", "self"]),
    lambda inner: st.one_of(
        st.builds("({} {})".format, st.sampled_from(["sload", "balance", "not"]), inner),
        st.builds("({} {} {})".format, st.sampled_from([*BIN_OPS, "ge", "gt", "le", "ne"]), inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(CODE_TEXTS, st.sampled_from(["(require {})", "(set {} 1)", "(pay caller {})"]))
def test_code_is_read_as_high_as_its_built_tree(text, statement):
    """The builders return each node's height as they build it; the walk
    over the built tree is the oracle."""
    for source, build in ((text, lines._build_expr), (statement.format(text), lines._build_statement)):
        form, _ = lines._read_form(lines._tokenize_sexpr(source, 0), 0, 0)
        node, height = build(form, 0)
        assert height == _height(node), source


def fields_only(cls, **fields):
    """The record `fields` define, built without `__init__`, so that no
    specialisation made at construction can show."""
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
    makes while it is executed, and while it is judged, once its program
    and predicate are compiled. The envelope reads each account with one
    map lookup and writes the scratch in one step, the damage bound reads
    the base state's map, and the program and the predicate each run as one
    function, so a call made per access or per node shows here."""

    def test_executing_and_judging_a_drain(self):
        state = vault_state(paused=False)
        invariants = InvariantSet()
        invariants.register(solvency_invariant(), state)
        drain, context = exploit_tx(), ctx()
        executing = python_calls(execute_transaction, state, drain, context)
        judging = python_calls(InvariantDetector().assess, executing.result, state, invariants)
        verdict, _ = judging.result
        assert verdict.malicious and executing.names[0] == "execute_transaction"
        assert len(executing.calls) <= 15, executing.names  # 20 when the envelope read a `WorldState` through its view methods and `max_cost`; 69 when each node ran its own evaluator and the envelope its accessors
        assert len(judging.calls) <= 5, judging.names  # 7 when the damage bound read both states through `balance_of`; 9 when each evaluation looked its predicate up on its root node; 18


class TestReplayCallCount:
    """A count, not a timer: the Python-level calls that applying a block
    of calls to one shared counter makes, as a replica does, once the
    counter's program is compiled. Each call runs in place on the block's
    one scratch, with no child execution and no access key; storage and
    code are read through the scratch's field views, which read the base's
    account map directly, and the post-state builds each changed `Account`
    in C, so no generated `Account.__new__` runs and a view call made per
    access shows here."""

    CALLS = 20

    def test_applying_a_block_of_counter_calls(self):
        senders = [addr(0x100 + i) for i in range(self.CALLS)]
        counter = Account(code=counter_contract(), storage={slot_bytes(COUNT_KEY): slot_bytes(1)})
        state = make_state({**{s: Account(balance=10_000) for s in senders}, COUNTER: counter})
        calls = tuple(tx(s, 0, COUNTER, max_fee=2, priority_fee=1) for s in senders)
        block = Block(1, bytes(32), 1, 1, 0, (), calls, StateRoot(bytes(32)))
        replay = python_calls(apply_block, state, block, FEE_SINK)
        post = replay.result
        assert post.accounts[COUNTER].storage == {slot_bytes(COUNT_KEY): slot_bytes(1 + self.CALLS)}
        assert Account.__new__.__code__ not in replay.calls, replay.names  # 79 when storage and code reads built accounts
        keys = [code.co_name for code, fn in replay.c_calls if fn is tuple.__new__ and code.co_filename == vm.__file__
                and code is not Execution.post_state.__code__]  # only `post_state` builds a tuple record in `vm`: its accounts
        assert not keys and AccessKey.__new__.__code__ not in replay.calls, keys  # 8 access keys per call when each ran in a child execution
        assert len(replay.calls) / self.CALLS <= 10.3, replay.names  # 10.3; 13.5 when the views called the base's; 19.5 with a child execution absorbed per call; 38.5 when each node ran its own evaluator and the envelope its accessors; 52.75 when reads built accounts


def test_no_node_carries_an_evaluator():
    for cls in NODE_TYPES:
        assert not {"_eval", "_run"} & set(dir(cls)), cls
    program = gated_vault()
    for stmt in program.statements:
        assert not {"_eval", "_run"} & set(dir(stmt))


def test_a_program_compiles_on_its_first_run_and_a_predicate_once_in_register():
    state = vault_state(paused=False)
    code = state.code_of(VAULT)
    invariant = solvency_invariant()
    invariants = InvariantSet()
    with mock.patch.object(detection, "compile_predicate", side_effect=vm.compile_predicate) as predicate:
        invariants.register(invariant, state)
    ((registered_id, compiled_predicate),) = invariants.by_contract[VAULT]
    assert predicate.call_count == 1 and predicate.call_args.args == (invariant.predicate,)
    assert registered_id == invariant.id and callable(compiled_predicate)
    assert code._program is None  # built, not compiled
    compiled = []
    with mock.patch.object(vm, "_compile_program", side_effect=vm._compile_program) as program, \
            mock.patch.object(vm, "compile_predicate", side_effect=vm.compile_predicate) as vm_predicate, \
            mock.patch.object(detection, "compile_predicate", side_effect=vm.compile_predicate) as predicate:
        for _ in range(3):
            sim = execute_transaction(state, exploit_tx(), ctx())
            verdict, _ = InvariantDetector().assess(sim, state, invariants)
            assert verdict.malicious
            compiled.append((code._program, invariants.by_contract[VAULT][0][1]))
    assert program.call_count == 1 and predicate.call_count == 0 and vm_predicate.call_count == 0
    assert compiled[0] == compiled[1] == compiled[2] and None not in compiled[0]
    assert compiled[0][1] is compiled_predicate


# The process-wide table: one function per distinct program or predicate
# text. Each count below runs on an empty table of its own, so no count
# depends on what the tests before it compiled.

@pytest.fixture
def table(monkeypatch):
    fresh = {}
    monkeypatch.setattr(vm, "_COMPILED", fresh)
    return fresh


def test_contracts_and_invariants_that_repeat_a_text_share_one_function(table):
    """Four contracts, each its own code object with its own admin, hold
    one program, and eight invariants repeat one predicate: two compiles.
    One constant changed is a third."""
    admins = [addr(0xA0 + i) for i in range(4)]
    vaults = [addr(0xD0 + i) for i in range(4)]
    codes = [guard_only_vault(admin) for admin in admins]
    state = make_state({ATTACKER: Account(balance=10_000), **{v: Account(balance=100, code=c) for v, c in zip(vaults, codes)}})

    def drain_each():
        invariants = InvariantSet()
        for vault, admin in zip(vaults, admins):
            invariant = solvency_invariant(vault, admin=admin)
            invariants.register(invariant, state)
            invariants.register(invariant._replace(id="vault-solvent-again"), state)
        detector = InvariantDetector()
        verdicts = [detector.assess(execute_transaction(state, tx(ATTACKER, 0, v), ctx()), state, invariants)[0] for v in vaults]
        return verdicts, invariants

    (verdicts, invariants), compiles = compile_calls(drain_each)
    assert compiles == 2 and sorted(kind for kind, _ in table) == ["predicate", "program"]  # 12 when each code object and each registration compiled its own
    assert [verdict.victims for verdict in verdicts] == [(vault,) for vault in vaults]
    assert len({code._program for code in codes}) == 1
    assert len({predicate for watching in invariants.by_contract.values() for _, predicate in watching}) == 1
    assert verdicts[0].violated is verdicts[1].violated  # one detector shares its verdicts' tuples
    floor, compiles = compile_calls(compile_predicate, solvency_invariant(floor=51).predicate)
    assert compiles == 1 and len(table) == 3 and floor is not invariants.by_contract[vaults[0]][0][1]


def test_a_bench_run_compiles_each_text_once_and_its_replica_none(table):
    """The seed-1 `contract_contention` workload: four counters, two vaults
    and six registrations of one solvency predicate, then its replica."""
    text, _ = bench_generate().generate("contract_contention", 1)
    result, compiles = compile_calls(run, parse_scenario(text, default_name="contract_contention"))
    assert compiles == 3  # 12 when each code object and each registration compiled its own
    history = parse_history(render_history(result.history))
    chain, compiles = compile_calls(derive, history)
    assert compiles == 0 and chain.final_root == result.report.final_root  # 6 when the replica compiled its parsed copies
    table.clear()
    chain, compiles = compile_calls(derive, parse_history(render_history(result.history)))
    assert compiles == 2 and chain.final_root == result.report.final_root  # a lone replica: one per text it calls


@settings(max_examples=100, deadline=None)
@given(st.lists(STATEMENTS, min_size=1, max_size=6), st.sampled_from([0, 1, 60]), st.sampled_from(CALLDATA))
@example([Require(Not(SLoad(Const(1)))), Pay(Caller(), Const(1))], 0, b"")
@example([SetSlot(Const(0), CallValue()), Require(Bin("eq", CallData(), Const(2)))], 1, bytes(31) + b"\x02")
def test_a_shared_function_runs_as_a_fresh_one_and_as_the_tree_walk(statements, value, calldata):
    """A second code object of one text runs its first holder's function,
    on an execution and on a replay; it gives what a function compiled
    afresh gives, and what the tree walk gives."""

    def runs(code, execute=execute_transaction):
        state = make_state({**STATE.accounts, CONTRACT: STATE.account(CONTRACT)._replace(code=code)})
        return [
            outcome(execute(base(state), tx(CALLER, 0, CONTRACT, value=value, data=calldata, gas_limit=gas_limit), ctx()))
            for base in (lambda state: state, Replay)
            for gas_limit in range(BASE_TX_GAS, BASE_TX_GAS + len(statements) + 2)
        ]

    first, shared, fresh = (ContractCode(ADMIN, tuple(statements)) for _ in range(3))
    with mock.patch.object(vm, "_COMPILED", {}):
        runs(first)
        got = runs(shared)
    with mock.patch.object(vm, "_COMPILED", {}):
        assert runs(fresh) == got
    assert shared._program is first._program and fresh._program is not first._program
    assert runs(ContractCode(ADMIN, tuple(statements)), reference_interpret) == got


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
