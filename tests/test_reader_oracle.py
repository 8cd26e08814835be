"""The reader each `formats.Line` builds, and the match path of the growing
line kinds, held to the generic reader in `reference_formats`.

Every line read while parsing a file goes through both readers, which must
give the same record (`reference_formats.shape`: equal values of the same
types) or the same refusal (text and line number). A line of a growing kind
that its `Line.pattern` matches is built from the match, by no `Line.read`:
so each file is parsed a second time with no line read by a match and every
line read by `reference_read` alone, and both parses must give the same
result, or the same refusal. Every record the match path builds is in the
result, so each is held to `reference_read` too. The files are the
corpus scenarios, their reports and L1 histories, the seeded mutations of
`test_input_fuzz`, and word-level damage to one line of each shape: a word
dropped, repeated or cut short, a value swapped for a bad one, an unknown
field. That damage reaches the rules whole-line mutations rarely do: a
repeated field, a missing one, half of an all-or-none tail. The three
seed-1 bench scenarios and the histories their runs write, whole and under
the same seeded mutations, add the genesis-heavy and batch-heavy files the
built readers are fastest on.
"""
import functools
import random
import re
from contextlib import contextmanager

import pytest

from helpers import bench_generate
from reference_formats import reference_parse_address, reference_read, shape
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
    yields the list of disagreements and the set of (line number, words)
    compared. A line may be read twice: a history that strays is read again
    by the generic reader from its first line."""
    found, compared = [], set()

    def checked(line, built):
        def read(words, lineno, ctx=None, **values):
            got = attempt(built, words, lineno, ctx, **values)
            want = attempt(reference_read, line, words, lineno, ctx, **values)
            compared.add((lineno, tuple(words)))
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


NEVER = re.compile(r"(?!)")  # matches no text


@contextmanager
def reference_only():
    """While the block runs, no line is read by a match (each growing line's
    pattern matches nothing) and every line is read by `reference_read`;
    yields a count of the lines it read."""
    read = [0]

    def reading(line):
        def reference(words, lineno, ctx=None, **values):
            read[0] += 1
            return reference_read(line, words, lineno, ctx, **values)

        return reference

    saved = {line: (line.read, line.pattern) for line in DECLARED}
    for line in DECLARED:
        line.read, line.pattern = reading(line), line.pattern and NEVER
    try:
        yield read
    finally:
        for line, (built, pattern) in saved.items():
            line.read, line.pattern = built, pattern


def outcome(parse, text):
    """What `parse` makes of `text`: (its result's shape, None) or (None, its refusal)."""
    try:
        return shape(parse(text)), None
    except (ScenarioError, ValueError) as exc:
        return None, (type(exc), str(exc), getattr(exc, "line", None))


def read_both_ways(text, suffix):
    """Parse `text` as the parser does, each line a `Line.read` reads going
    through both readers, then with every line read by `reference_read`
    alone; the disagreements, a whole-file one included, and the lines the
    reference read."""
    parse = FILES[suffix][0]
    with both_readers() as (found, _compared):
        got = outcome(parse, text)
    with reference_only() as read:
        want = outcome(parse, text)
    if got != want:
        found.append(("whole file", None, text[:120], got, want))
    return found, read[0]


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


@functools.lru_cache(maxsize=None)
def bench_files():
    """{(workload, suffix): text} of each seed-1 bench scenario and the L1 history its run writes."""
    generate, texts = bench_generate(), {}
    for workload in generate.WORKLOADS:
        texts[workload, ".scn"] = generate.generate(workload, 1)[0]
        outcome = run(parse_scenario(texts[workload, ".scn"], default_name=workload))
        texts[workload, ".l1"] = render_history(outcome.history)
    return texts


@pytest.mark.parametrize("workload, suffix", [(w, s) for w in bench_generate().WORKLOADS for s in (".scn", ".l1")])
def test_bench_files_read_the_same(workload, suffix):
    """A bench file whole, then under the mutations `test_input_fuzz` makes
    of a corpus file, seeded by workload; some mutations are refused, and
    both readers refuse each the same."""
    text = bench_files()[workload, suffix]
    found, compared = read_both_ways(text, suffix)
    parse, table, header, options, seed = FILES[suffix]
    assert not found and compared >= len(list(formats._lines(text, table, header, **options))), found[:3]
    rng, refused = random.Random(seed + 100 + bench_generate().WORKLOADS.index(workload)), 0
    rows = text.splitlines()
    for case in range(CASES_PER_FILE):
        mutated = "\n".join(mutate(rows, rng)) + "\n"
        found, _ = read_both_ways(mutated, suffix)
        assert not found, (case, found[:3])
        refused += attempt(parse, mutated)[1] is not None
    assert refused, "no mutation was refused"


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
    assert not found and {lineno for lineno, _words in compared} == {1, 2}
    assert str(refused.value) == f"line 2: {message}"


@pytest.mark.parametrize("word", [
    "0x" + "ab" * 20, "0x" + "AB" * 20, "0x0a", "0X" + "ab" * 20, "ab" * 21, "0x" + "zz" * 20, "0x" + "ab" * 21,
    "0x" + "ab" * 19 + "  ", "0x" + "ab" * 19 + " a", "0x" + "ab" * 19 + "\t\n",
])
def test_an_address_reads_as_the_checked_reader_reads_it(word):
    """`_parse_address` builds an address in C from the 20 bytes it has
    counted; each word reads as the reader that builds through `Address`
    reads it, or is refused the same. A 42-character word that `fromhex`
    reads short, by skipping whitespace, is refused; no word of a line is
    one, as whitespace splits words outside braces and `fromhex` refuses a
    brace."""
    got, want = attempt(lines._parse_address, word, 3), attempt(reference_parse_address, word, 3)
    assert shape(got[0]) == shape(want[0]) and str(got[1]) == str(want[1])
