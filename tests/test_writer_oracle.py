"""The writers of the growing lines: each kind whose count grows with a run
(the report's `block`, `entry`, `audit` and `pool` lines and the history's
`genesis account`, `l1block` and `record` lines) is written by its compiled
`Line.write`, one `%` format per line.

Each writer is held to the per-field render it replaced
(`reference_formats.reference_render`): whole reports and histories of the
corpus and of the seed-1 bench runs, and drawn records at the edges of
every field (empty and one-entry lists, transactions that create, the tail
present and absent, the U64 and U128 maxima, a `detail` that needs its
braces). `Line.render`, which still writes the rare lines, must agree too.
Writing a report or a history costs a bounded number of Python-level calls,
none per growing line.
"""
import functools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bench_generate, python_calls, tx
from reference_formats import reference_render, reference_render_history, reference_render_report
from rollupsim import formats, lines
from rollupsim.core import U64_MAX, U128_MAX, Address, DepositTransaction, StateRoot, TxHash, canonical_encode
from rollupsim.l1da import WORD_BITS, L1Block, L1Record
from rollupsim.quarantine import AuditEvent
from rollupsim.sequencer import BlockSummary, EntrySummary, PoolSummary, run
from rollupsim.vm import Account

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted((ROOT / "scenarios").glob("*.scn"))
BENCH = ("transfer_bulk", "quarantine_flood", "contract_contention")


@functools.lru_cache(maxsize=None)
def outcome(name: str):
    """The run of a corpus scenario, or of a seed-1 bench workload."""
    if name in BENCH:
        text = bench_generate().generate(name, 1)[0]
    else:
        text = (ROOT / "scenarios" / f"{name}.scn").read_text()
    result = run(formats.parse_scenario(text, default_name=name))
    result.report.l1_export = f"{name}.l1"  # as `rollupsim run` fills it
    return result


RUNS = [path.stem for path in CORPUS] + list(BENCH)


@pytest.mark.parametrize("name", RUNS)
def test_a_run_is_written_as_the_per_field_render_writes_it(name):
    result = outcome(name)
    assert formats.render_report(result.report) == reference_render_report(result.report)
    assert formats.render_history(result.history) == reference_render_history(result.history)


# The growing line kinds.
REPORT_LINES = {line.name: line for line in formats._REPORT_BODY if not line.once}


def u64():
    return st.one_of(st.integers(0, U64_MAX), st.sampled_from([0, 1, U64_MAX]))


def u128():
    return st.one_of(st.integers(0, U128_MAX), st.sampled_from([0, U64_MAX + 1, U128_MAX]))


ADDRESSES = st.binary(min_size=20, max_size=20).map(Address)
HASHES = st.binary(min_size=32, max_size=32).map(TxHash)
TEXTS = st.text(min_size=1)  # both writers write any text as it is
SMALL = {"max_size": 3}  # empty, one-entry and longer lists


def transactions():
    """Signed transactions, some of which create."""
    return st.builds(
        lambda sender, to, value, data, fee: tx(sender, 0, to, value=value, data=data, max_fee=fee, gas_limit=21),
        ADDRESSES, st.one_of(st.none(), ADDRESSES), u128(), st.binary(max_size=8), st.integers(0, U64_MAX),
    )


DEPOSITS = st.builds(
    DepositTransaction, st.integers(0, U64_MAX), st.integers(0, 2**32 - 1), ADDRESSES, ADDRESSES, u128(),
    st.binary(max_size=8), st.integers(21, U64_MAX),
)

RECORDS = {
    "block": st.builds(
        BlockSummary, u64(), u64(), u64(), u64(), st.binary(min_size=32, max_size=32),
        st.lists(HASHES, **SMALL).map(tuple), st.lists(HASHES, **SMALL).map(tuple),
        st.binary(min_size=32, max_size=32).map(StateRoot),
    ),
    "entry": st.builds(
        EntrySummary, HASHES, st.sampled_from(["tx", "deposit"]), ADDRESSES, u64(), u64(), u64(),
        st.lists(TEXTS, **SMALL).map(tuple), st.lists(ADDRESSES, **SMALL).map(tuple), u128(),
    ),
    "audit": st.builds(
        AuditEvent, HASHES, u64(), TEXTS, TEXTS,
        st.one_of(st.sampled_from(["-", "criterion=economic threshold=5", "{ }"]), st.text()),
    ),
    "pool": st.builds(PoolSummary, HASHES, ADDRESSES, u64(), st.sampled_from(["queued", "pending"]), u64()),
    "account": st.builds(
        lambda address, balance, nonce: lines._Genesis(address, Account(balance, nonce)), ADDRESSES, u128(), u64()
    ),
    "l1block": st.builds(L1Block, u64(), u64(), st.lists(DEPOSITS, **SMALL).map(tuple)),
    "record": st.builds(
        lambda head, batch, tail: L1Record(*head, tuple(map(canonical_encode, batch)), *tail),
        st.tuples(u64(), u64(), u64(), u64()),
        st.lists(transactions(), **SMALL),
        st.one_of(  # an epoch head's tail, or none
            st.just((None, ())),
            st.tuples(u64(), st.lists(st.sampled_from([0, 1, 2**WORD_BITS - 1]) | st.integers(0, 2**WORD_BITS - 1),
                                      **SMALL).map(tuple)),
        ),
    ),
}
LINES = {**REPORT_LINES, "account": lines._ACCOUNT, "l1block": lines._L1BLOCK, "record": lines._RECORD}


@pytest.mark.parametrize("kind", sorted(RECORDS))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_drawn_record_is_written_as_the_per_field_render_writes_it(kind, data):
    line = LINES[kind]
    records = data.draw(st.lists(RECORDS[kind], max_size=3))
    expected = [reference_render(line, record) for record in records]
    assert line.write(records) == expected
    assert [line.render(record) for record in records] == expected


def test_a_braced_detail_keeps_its_braces():
    event = AuditEvent(TxHash(bytes(32)), 3, "held", "-", "criterion=economic threshold=5")
    (written,) = REPORT_LINES["audit"].write([event])
    assert written.endswith(" detail={criterion=economic threshold=5}")
    assert written == reference_render(REPORT_LINES["audit"], event)


class TestWriterCallCount:
    """A count, not a timer: the Python-level calls that writing the seed-1
    `quarantine_flood` report and history makes, per line written. Each
    growing line is one `%` format in a compiled comprehension, so the
    calls are those of the rare lines and of the writers themselves."""

    @staticmethod
    def per_line(write, value):
        counted = python_calls(write, value)
        return len(counted.calls) / counted.result.count("\n"), counted.names

    def test_the_report(self):
        per_line, names = self.per_line(formats.render_report, outcome("quarantine_flood").report)
        assert per_line <= 0.02, (per_line, names)  # 0.016; 4.22 through `Line.render`

    def test_the_history(self):
        per_line, names = self.per_line(formats.render_history, outcome("quarantine_flood").history)
        # 0.159, most of them writing its one contract; 3.86 through `Line.render`
        assert per_line <= 0.2, (per_line, names)
