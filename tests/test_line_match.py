"""The match path: a line of a growing kind is read by one full match of its
declared spelling (`Line.pattern`), and `parse_history` checks a history's
spelling as it reads it.

`parse_history` is held to the render-and-compare rule it replaced
(`reference_formats.reference_parse_history`) on the histories the
sequencer writes, each damaged once: one field spelled otherwise, two lines
swapped, a line moved or repeated, a blank line added, a line end written
as another character that ends a line, the final newline dropped or
doubled. Both must give the same history, or refuse it at the same line
with the same message. Every history `run` writes is read without the
error path, `parse_scenario` makes a few calls per bench scenario line, and
importing the package compiles a bounded number of regular expressions.
"""
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bench_generate, python_calls
from reference_formats import reference_parse_history, shape
from rollupsim import lines
from rollupsim.core import ScenarioError
from rollupsim.formats import parse_history, parse_scenario, render_history
from rollupsim.sequencer import run
from test_fuzz_pipeline import _spellings, sequencer_histories
from test_input_fuzz import FIELD_VALUES

ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def bench_scenarios():
    """{workload: scenario text} of each seed-1 bench workload."""
    generate = bench_generate()
    return {workload: generate.generate(workload, 1)[0] for workload in generate.WORKLOADS}


@functools.lru_cache(maxsize=None)
def histories():
    """(label, history text) of every corpus scenario, every random case of
    `test_fuzz_pipeline` and every seed-1 bench workload."""
    written = [(label, render_history(history)) for label, history in sequencer_histories()]
    for workload, text in bench_scenarios().items():
        written.append((workload, render_history(run(parse_scenario(text, default_name=workload)).history)))
    return tuple(written)


def outcome(parse, text):
    try:
        return shape(parse(text)), None
    except ScenarioError as exc:
        return None, (str(exc), exc.line)


# Spellings of one value the generic reader may read, or refuse: other
# integer and hex spellings, and the bad values of the input fuzz.
INTEGER_SPELLINGS = ["1_000", "+5", "٥", "0x_5", " 5", "05"]
# Characters `str.splitlines` ends a line at; only "\n" is written.
LINE_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def damaged_histories(draw):
    """(label, text): a written history damaged once."""
    label, text = draw(st.sampled_from(histories()))
    rows = text.split("\n")[:-1]
    i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(["respell", "respell", "swap", "move", "repeat", "blank", "line end", "ending"]))
    if kind == "respell":
        words = rows[i].split(" ")
        k = draw(st.integers(0, len(words) - 1))
        key, eq, value = words[k].rpartition("=")
        spelling = draw(st.sampled_from(_spellings(value) + INTEGER_SPELLINGS + FIELD_VALUES))
        words[k] = key + eq + spelling
        rows[i] = " ".join(words)
    elif kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "move":
        rows.insert(j, rows.pop(i))
    elif kind == "repeat":
        rows.insert(j, rows[i])
    elif kind == "blank":
        rows.insert(i, draw(st.sampled_from(["", " ", "\t"])))
    elif kind == "line end":  # one line's end, or every line's
        end = draw(st.sampled_from(LINE_ENDS))
        ends = [end] * len(rows) if draw(st.booleans()) else ["\n"] * i + [end] + ["\n"] * (len(rows) - i - 1)
        return label, "".join(row + e for row, e in zip(rows, ends))
    else:
        return label, "\n".join(rows) + draw(st.sampled_from(["", "\n\n", " \n"]))
    return label, "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(damaged_histories())
def test_a_damaged_history_is_read_as_the_reference_reads_it(case):
    label, text = case
    assert outcome(parse_history, text) == outcome(reference_parse_history, text), label


def test_every_written_history_is_read_without_the_error_path(monkeypatch):
    def refused(text):
        raise AssertionError("the error path read a history the sequencer wrote")

    monkeypatch.setattr(lines, "_reread", refused)
    for label, text in histories():
        assert shape(parse_history(text)) == shape(reference_parse_history(text)), label


@pytest.mark.parametrize("workload", bench_generate().WORKLOADS)
def test_reading_a_bench_scenario(workload):
    """A count, not a timer: the Python-level calls `parse_scenario` makes
    per line. A `submit` or `genesis account` line in its declared spelling
    is built from its match, with no codec call per field and no
    `SignedTransaction.__init__` and its checks."""
    text = bench_scenarios()[workload]
    counted = python_calls(parse_scenario, text)
    per_line = len(counted.calls) / len(text.splitlines())
    assert per_line <= 8, counted.names  # 2.7-4.8; 16.4-22.5 when every line went through its `Line.read`


def test_import_compiles_few_regular_expressions():
    """A fresh interpreter imports every module and counts the `re.compile`
    calls made from the package: one per growing line kind, and the three
    the readers use. A pattern for each rare line kind would land in the
    time every command takes to start."""
    script = (
        "import re, sys\n"
        "count, compile = [0], re.compile\n"
        "def counting(*args, **kwargs):\n"
        "    count[0] += 'rollupsim' in sys._getframe(1).f_code.co_filename\n"
        "    return compile(*args, **kwargs)\n"
        "re.compile = counting\n"
        "import rollupsim.cli, rollupsim.formats\n"
        "print(count[0])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    assert int(out) <= 7  # 3 readers' expressions, and submit, genesis account, l1block and record
