import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import ADMIN, NODE_TYPES, VAULT, addr, gated_vault, vault_state
from reference_formats import reference_expr_text, reference_statement_text
from rollupsim import vm
from rollupsim.formats import (
    _split_fields,
    parse_expr,
    parse_history,
    parse_report,
    parse_scenario,
    parse_statements,
    render_history,
    render_report,
)
from rollupsim.sequencer import AdvanceEvent, ScenarioError, SubmitEvent, run
from rollupsim.vm import code_text, expr_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    path = SCENARIOS / f"{name}.scn"
    return parse_scenario(path.read_text(), default_name=name)


MINIMAL = """\
scenario v1 name=t
genesis account 0x01 balance=10
run blocks=1
"""


class TestSexpr:
    def test_parse_canonical_round_trip(self):
        code = gated_vault()
        text = code_text(code)
        assert parse_statements(text) == code.statements

    def test_atom_sugar_wraps_const(self):
        assert parse_expr("5") == vm.Const(5)
        assert parse_expr("(sload 'paused')") == vm.SLoad(vm.Const(int.from_bytes(b"paused", "big")))

    def test_comparison_sugar_desugars(self):
        assert parse_expr("(ge 1 2)") == vm.Not(vm.Bin("lt", vm.Const(1), vm.Const(2)))
        assert parse_expr("(gt 1 2)") == vm.Bin("lt", vm.Const(2), vm.Const(1))
        assert parse_expr("(ne 1 2)") == vm.Not(vm.Bin("eq", vm.Const(1), vm.Const(2)))

    def test_random_ast_round_trips(self):
        rng = random.Random(6)

        def gen_expr(depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(
                    [vm.Const(rng.randrange(2**32)), vm.Caller(), vm.CallValue(), vm.CallData(), vm.SelfAddr()]
                )
            op = rng.choice(["add", "sub", "mul", "eq", "lt", "and", "or", "not", "sload", "balance"])
            if op == "not":
                return vm.Not(gen_expr(depth - 1))
            if op == "sload":
                return vm.SLoad(gen_expr(depth - 1))
            if op == "balance":
                return vm.BalanceOf(gen_expr(depth - 1))
            return vm.Bin(op, gen_expr(depth - 1), gen_expr(depth - 1))

        for _ in range(200):
            expr = gen_expr(4)
            assert parse_expr(expr_text(expr)) == expr

    def test_statement_round_trips(self):
        stmts = (
            vm.Require(vm.Const(1)),
            vm.SetSlot(vm.Const(1), vm.CallValue()),
            vm.Pay(vm.Caller(), vm.Const(3)),
        )
        text = " ".join(expr_text(s) for s in stmts)
        assert parse_statements(text) == stmts

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ScenarioError):
            parse_expr("(add 1 (lt 2 3)")

    @pytest.mark.parametrize("text", ["(eq 1 ' 1)", "'", "(require (eq 'a' 1)) '", "(sload 'paused)"])
    def test_a_stray_quote_is_refused(self, text):
        """A quote that opens no quoted atom is no token: it is refused, not
        skipped, so `(eq 1 ' 1)` never reads as `(eq 1 1)`."""
        with pytest.raises(ScenarioError, match="line 7: cannot tokenize"):
            parse_statements(text, 7) if text.startswith("(require") else parse_expr(text, 7)


EXPRESSIONS = st.recursive(
    st.one_of(
        st.integers(0, 2**256 - 1).map(vm.Const),
        st.sampled_from([vm.Caller(), vm.CallValue(), vm.CallData(), vm.SelfAddr()]),
    ),
    lambda inner: st.one_of(
        inner.map(vm.SLoad), inner.map(vm.BalanceOf), inner.map(vm.Not),
        st.builds(vm.Bin, st.sampled_from(vm.BIN_OPS), inner, inner),
    ),
    max_leaves=12,
)
STATEMENTS = st.one_of(
    st.builds(vm.Require, EXPRESSIONS),
    st.builds(vm.SetSlot, EXPRESSIONS, EXPRESSIONS), st.builds(vm.Pay, EXPRESSIONS, EXPRESSIONS),
)
# One node of each kind, each binary operator included.
ONE_OF_EACH = (
    vm.Const(0x2A), vm.SLoad(vm.Const(1)), vm.BalanceOf(vm.SelfAddr()), vm.Caller(), vm.CallValue(), vm.CallData(),
    vm.SelfAddr(), *(vm.Bin(op, vm.Caller(), vm.Const(2)) for op in vm.BIN_OPS), vm.Not(vm.CallData()),
)
ONE_STATEMENT_OF_EACH = (
    vm.Require(vm.Const(1)), vm.SetSlot(vm.Const(3), vm.CallValue()), vm.Pay(vm.Caller(), vm.Const(5)),
)


class TestOneWriter:
    """`vm.expr_text` writes every node from `vm.SYNTAX`. Its text is hashed
    into every code hash and so every state root, so it must be the per-kind
    writers' text exactly (`reference_formats`), and the reader, whose
    tables `lines` builds from the same `SYNTAX`, must read it back."""

    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    def test_an_expression_is_written_as_the_per_kind_writer_wrote_it(self, expr):
        text = expr_text(expr)
        assert text == reference_expr_text(expr)
        assert parse_expr(text) == expr

    @settings(max_examples=200, deadline=None)
    @given(st.lists(STATEMENTS, max_size=5))
    def test_a_program_is_written_as_the_per_kind_writer_wrote_it(self, statements):
        code = vm.ContractCode(ADMIN, tuple(statements))
        assert [expr_text(s) for s in statements] == [reference_statement_text(s) for s in statements]
        assert code_text(code) == " ".join(map(reference_statement_text, statements))
        assert parse_statements(code_text(code)) == code.statements

    def test_each_node_class_is_declared_in_syntax(self):
        """Each class is named by one head word, `Bin` by each of its
        operators, and holds its fields and nothing else: no memo slot."""
        named = Counter(vm.SYNTAX.values())
        assert set(named) == set(NODE_TYPES) and len(NODE_TYPES) == 12
        assert {cls: count for cls, count in named.items() if count != 1} == {vm.Bin: len(vm.BIN_OPS)}
        assert [word for word, cls in vm.SYNTAX.items() if cls is vm.Bin] == list(vm.BIN_OPS)
        for cls in NODE_TYPES:
            assert cls.__slots__ == cls._fields, cls

    def test_pause_guard_is_no_statement(self):
        """`(pause-guard K)` left the language: it is `(require (not (sload
        K)))`, which reads the same slot and costs the same gas."""
        assert "pause-guard" not in vm.SYNTAX
        with pytest.raises(ScenarioError, match="line 3: bad statement 'pause-guard'"):
            parse_statements("(pause-guard 7) (pay caller 1)", 3)

    def test_the_reader_reads_back_one_node_of_each_kind(self):
        assert {type(node) for node in ONE_OF_EACH + ONE_STATEMENT_OF_EACH} == set(NODE_TYPES)
        for node in ONE_OF_EACH:
            assert parse_expr(expr_text(node)) == node, node
        text = " ".join(map(expr_text, ONE_STATEMENT_OF_EACH))
        assert text == "(require (const 0x1)) (set (const 0x3) callvalue) (pay caller (const 0x5))"
        assert parse_statements(text) == ONE_STATEMENT_OF_EACH

    @pytest.mark.parametrize("value", [42, "caller", (vm.Caller(),), ADMIN])
    def test_a_value_that_is_no_node_is_refused(self, value):
        with pytest.raises(TypeError, match="not an expression or a statement"):
            expr_text(value)


class TestScenarioParsing:
    def test_minimal(self):
        scn = parse_scenario(MINIMAL)
        assert scn.name == "t" and scn.run_blocks == 1
        assert scn.genesis.balance_of(addr(1)) == 10

    def test_missing_header(self):
        with pytest.raises(ScenarioError) as e:
            parse_scenario("run blocks=1\n")
        assert e.value.line == 1

    def test_missing_run_line(self):
        with pytest.raises(ScenarioError):
            parse_scenario("scenario v1\ngenesis account 0x01 balance=1\n")

    def test_event_order_violation_cites_line_and_timestamp(self):
        bad = MINIMAL + "event 5 advance seconds=1\nevent 3 advance seconds=1\n"
        with pytest.raises(ScenarioError) as e:
            parse_scenario(bad)
        assert e.value.line == 5
        assert "t=3" in str(e.value)

    def test_unknown_label_rejected(self):
        bad = MINIMAL + "event 1 approve_release tx=@nope approver=0x01\n"
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_label_resolves_to_hash(self):
        text = MINIMAL + (
            "event 1 submit as=x sender=0x01 nonce=0 to=0x02 value=1 gas_limit=21\n"
            "event 2 request_failure_release tx=@x\n"
        )
        scn = parse_scenario(text)
        submit = next(e for e in scn.events if isinstance(e, SubmitEvent))
        from rollupsim.core import tx_hash

        assert scn.events[-1].key == tx_hash(submit.tx)

    def test_l1_block_beyond_run_rejected(self):
        bad = MINIMAL + "event 1 l1_block deposits={sender=0xd1 recipient=0x02 value=1 gas_limit=21}\n"
        # epoch 0 head is block 0 < run_blocks=1, fine; epoch 1 is not
        parse_scenario(bad)
        worse = bad + "event 2 l1_block deposits={sender=0xd1 recipient=0x02 value=1 gas_limit=21}\n"
        with pytest.raises(ScenarioError) as e:
            parse_scenario(worse)
        assert "epoch 1" in str(e.value)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ScenarioError):
            parse_scenario("scenario v1\nconfig turbo=1\nrun blocks=1\n")

    def test_invariant_registration_checked_at_run(self):
        text = (
            "scenario v1\n"
            "genesis account 0x01 balance=10\n"
            "genesis contract 0xc3 admin=0xa1 balance=0 code={}\n"
            "genesis invariant id=i contract=0xc3 registered_by=0xb2 predicate={1}\n"
            "run blocks=1\n"
        )
        scn = parse_scenario(text)
        from rollupsim.detection import UnauthorizedInvariant

        with pytest.raises(UnauthorizedInvariant):
            run(scn)

    def test_whole_corpus_parses(self):
        names = sorted(p.stem for p in SCENARIOS.glob("*.scn"))
        assert len(names) >= 20
        for name in names:
            assert load(name).run_blocks >= 1


class TestReportRoundTrip:
    def test_report_round_trips_through_text(self):
        out = run(load("pause_exploit"))
        text = render_report(out.report)
        parsed = parse_report(text)
        assert render_report(parsed) == text

    @pytest.mark.parametrize("path", ["my dir/db.l1", "tab\there.l1", "a{b.l1"])
    def test_l1_export_path_round_trips_verbatim(self, path):
        report = run(load("deposits_benign")).report
        report.l1_export = path
        text = render_report(report)
        assert f"\nl1_export {path}\n" in text
        parsed = parse_report(text)
        assert parsed.l1_export == path
        assert render_report(parsed) == text

    @pytest.mark.parametrize(
        "line, path",
        [("  l1_export my dir/db.l1", "my dir/db.l1"), ("l1_export\tmy dir/db.l1", "my dir/db.l1"),
         ("\tl1_export\ttab\there.l1 ", "tab\there.l1 ")],
    )
    def test_indented_or_tab_separated_l1_export_is_read_verbatim(self, line, path):
        text = render_report(run(load("deposits_benign")).report)
        text = text.replace("\nl1_export -\n", f"\n{line}\n")
        assert parse_report(text).l1_export == path

    @pytest.mark.parametrize("line", ["l1_export", "  l1_export", "l1_export ", "l1_export\t"])
    def test_l1_export_without_a_value_is_refused(self, line):
        text = render_report(run(load("deposits_benign")).report)
        text = text.replace("\nl1_export -\n", f"\n{line}\n")
        with pytest.raises(ScenarioError, match="l1_export needs a value"):
            parse_report(text)

    def test_rendering_is_stable(self):
        a = render_report(run(load("pause_exploit")).report)
        b = render_report(run(load("pause_exploit")).report)
        assert a == b


class TestHistoryRoundTrip:
    def test_history_round_trips_through_text(self):
        out = run(load("deposit_refused"))
        text = render_history(out.history)
        parsed = parse_history(text)
        assert render_history(parsed) == text
        assert parsed.genesis == out.history.genesis

    def test_genesis_contracts_survive(self):
        out = run(load("pause_exploit"))
        parsed = parse_history(render_history(out.history))
        code = parsed.genesis.account(VAULT).code
        assert code is not None and code.admin == ADMIN
        assert code == gated_vault()


def reference_split_fields(line: str, lineno: int):
    """The original per-character splitter, kept as the oracle for the
    brace-free fast path of `formats._split_fields`."""
    fields = []
    buf = []
    depth = 0
    for ch in line:
        if ch == "{":
            depth += 1
            buf.append(ch)
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ScenarioError("unbalanced '}'", line=lineno)
            buf.append(ch)
        elif ch.isspace() and depth == 0:
            if buf:
                fields.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if depth != 0:
        raise ScenarioError("unbalanced '{'", line=lineno)
    if buf:
        fields.append("".join(buf))
    return fields


# Braces, nesting material, ASCII and Unicode whitespace (including the
# separators and NEL that `str.isspace` accepts), and ordinary text.
FIELD_ALPHABET = list("ab=x0;'(){}") + [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2003", "\u2028", "\u3000", "\u200b", "\xe9"]


class TestSplitFields:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(alphabet=FIELD_ALPHABET, max_size=40), st.text(max_size=40)))
    def test_matches_the_per_character_reference(self, line):
        def outcome(split):
            try:
                return split(line, 7)
            except ScenarioError as exc:
                return ("error", str(exc))

        assert outcome(_split_fields) == outcome(reference_split_fields)

    def test_every_corpus_line_splits_as_before(self):
        for path in sorted(SCENARIOS.glob("*.scn")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                assert _split_fields(line, lineno) == reference_split_fields(line, lineno), (path.name, lineno)
