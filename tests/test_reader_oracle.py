"""The reader each `formats.Line` builds, held to the generic reader in
`reference_formats`.

Every line read while parsing a file goes through both readers, which must
give the same record (`reference_formats.shape`: equal values of the same
types) or the same refusal (text and line number). The files are the 27
corpus scenarios, their reports and L1 histories, the seeded mutations of
`test_input_fuzz`, and word-level damage to one line of each shape: a word
dropped, repeated or cut short, a value swapped for a bad one, an unknown
field. That damage reaches the rules whole-line mutations rarely do: a
repeated field, a missing one, half of an all-or-none tail.
"""
import functools
import random
from contextlib import contextmanager

import pytest

from reference_formats import reference_read, shape
from rollupsim import formats, lines
from rollupsim.formats import parse_history, parse_report, parse_scenario, render_history, render_report
from rollupsim.sequencer import ScenarioError, run
from test_input_fuzz import CASES_PER_FILE, FIELD_VALUES, NAMES, SCENARIOS, mutate

# suffix: (parser, declaration table, header line, reader options, seed offset of its mutations in `test_input_fuzz`)
FILES = {
    ".scn": (parse_scenario, formats._SCENARIO_FILE, formats._SCENARIO, {"comments": True}, 0),
    ".report": (parse_report, formats._REPORT_FILE, formats._REPORT, {"verbatim": formats._L1_EXPORT}, 1000),
    ".l1": (parse_history, lines._HISTORY_FILE, lines._HISTORY, {}, 2000),
}
DECLARED = [
    line for _parse, table, *_ in FILES.values() for entry in table.values()
    for line in (entry[1].values() if isinstance(entry, tuple) else [entry])
] + [formats._DEPOSIT]


def attempt(read, *args, **values):
    try:
        return read(*args, **values), None
    except ScenarioError as exc:
        return None, exc


@contextmanager
def both_readers():
    """Every declared line reads through both readers while the block runs;
    yields the list of disagreements and a count of the lines compared."""
    found, compared = [], [0]

    def checked(line, built):
        def read(words, lineno, ctx=None, **values):
            got = attempt(built, words, lineno, ctx, **values)
            want = attempt(reference_read, line, words, lineno, ctx, **values)
            compared[0] += 1
            if got[1] or want[1]:
                agree = got[1] is not None and want[1] is not None and (str(got[1]), got[1].line) == (
                    str(want[1]), want[1].line)
            else:
                agree = shape(got[0]) == shape(want[0])
            if not agree:
                found.append((line.name, lineno, words, got, want))
            if got[1] is not None:
                raise got[1]
            return got[0]

        return read

    built = {line: line.read for line in DECLARED}
    for line in DECLARED:
        line.read = checked(line, built[line])
    try:
        yield found, compared
    finally:
        for line in DECLARED:
            line.read = built[line]


def read_both_ways(text, suffix):
    """Parse `text` with both readers; the disagreements and the lines compared."""
    with both_readers() as (found, compared):
        try:
            FILES[suffix][0](text)
        except (ScenarioError, ValueError):
            pass
    return found, compared[0]


@functools.lru_cache(maxsize=None)
def corpus():
    """{(name, suffix): text} of every corpus scenario, its report and its history."""
    texts = {}
    for name in NAMES:
        texts[name, ".scn"] = (SCENARIOS / f"{name}.scn").read_text()
        outcome = run(parse_scenario(texts[name, ".scn"], default_name=name))
        texts[name, ".report"] = render_report(outcome.report)
        texts[name, ".l1"] = render_history(outcome.history)
    return texts


@pytest.mark.parametrize("suffix", FILES)
def test_corpus_files_read_the_same(suffix):
    for (name, file_suffix), text in corpus().items():
        if file_suffix == suffix:
            found, compared = read_both_ways(text, suffix)
            assert not found, (name, found[:3])
            _parse, table, header, options, _seed = FILES[suffix]
            assert compared >= len(list(formats._lines(text, table, header, **options))), name


@pytest.mark.parametrize("suffix", FILES)
def test_fuzzed_files_read_the_same(suffix):
    """The mutations `test_input_fuzz` sends through the command line, seed for seed."""
    for index, name in enumerate(NAMES):
        rng = random.Random(FILES[suffix][4] + index)
        lines = corpus()[name, suffix].splitlines()
        for case in range(CASES_PER_FILE):
            text = "\n".join(mutate(lines, rng)) + "\n"
            found, _ = read_both_ways(text, suffix)
            assert not found, (name, case, found[:3])


def damaged(words):
    """One line's words under every single damage: each word dropped,
    repeated or its line cut after it, each value swapped for each bad
    value, and an unknown field or a bare word added."""
    for i in range(1, len(words)):
        yield words[:i] + words[i + 1:]
        yield words[:i + 1] + [words[i]] + words[i + 1:]
        yield words[:i]
        key, eq, _value = words[i].partition("=")
        for bad in FIELD_VALUES:
            yield words[:i] + [f"{key}={bad}" if eq else bad] + words[i + 1:]
    yield words + ["colour=red"]
    yield words + ["x"]


def shapes_of_lines():
    """(suffix, header line, words) for the first line of each kind and set
    of keys in the corpus files; the header line is "" for a header."""
    seen = set()
    for (_name, suffix), text in corpus().items():
        _parse, table, header, options, _seed = FILES[suffix]
        lines = list(formats._lines(text, table, header, **options))
        for _lineno, line, words in lines:
            key = (suffix, line.name, tuple(word.partition("=")[0] for word in words[len(line._words):]))
            if key not in seen:
                seen.add(key)
                yield suffix, "" if line is header else text.splitlines()[lines[0][0] - 1] + "\n", words


def test_damaged_lines_read_the_same():
    cases = 0
    for suffix, header, words in shapes_of_lines():
        for variant in damaged(words):
            found, _ = read_both_ways(f"{header}{' '.join(variant)}\n", suffix)
            assert not found, found[:3]
            cases += 1
    assert cases > 1000


@pytest.mark.parametrize("text, message", [
    ("genesis account 0x01 balance=1 balance=2", "duplicate field 'balance'"),
    ("genesis account 0x01 colour=red", "unknown account field 'colour'"),
    ("genesis account 0x01 balance", "expected key=value, got 'balance'"),
    ("genesis account", "account address needs a value"),
    ("genesis contract 0x01", "contract missing field 'admin'"),
    ("record epoch=0 l2_number=0 l2_time=1 l2_base_fee=1 batch=- deposit_count=0",
     "record needs all of ['bitmap', 'deposit_count'] or none"),
    ("config fee_recipient=0xfe blocks_per_epoch=0", "config blocks_per_epoch must be at least 1, got 0"),
    (f"genesis account 0x01 balance={2**128}", f"account balance must be at most {2**128 - 1}, got {2**128}"),
    ("genesis account 0x" + "0g" * 20, "bad address: '0x" + "0g" * 20 + "'"),
])
def test_each_rule_is_refused_the_same(text, message):
    """Each rule once by name, in a history, with its exact message."""
    with both_readers() as (found, compared):
        with pytest.raises(ScenarioError) as refused:
            parse_history(f"l1history v1\n{text}\n")
    assert not found and compared[0] == 2
    assert str(refused.value) == f"line 2: {message}"
