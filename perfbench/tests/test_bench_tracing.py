import dataclasses
import importlib

import pytest

import tracing
from generate import SIZES, quarantine_flood
import rollupsim.cli  # noqa: F401  (binds derive and the format functions by name)
from rollupsim import formats, sequencer


def test_self_time_subtracts_direct_children():
    names = ["root", "a", "b"]
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child b [2, 3].
    spans = [
        [0, 0.0, 10.0, -1, 0],
        [1, 1.0, 4.0, 0, 0],
        [2, 2.0, 3.0, 1, 0],
        [2, 5.0, 9.0, 0, 0],
    ]
    stats, by_parent = tracing.aggregate(names, spans)
    assert stats["root"].total == 10.0 and stats["root"].self_time == 3.0
    assert stats["a"].calls == 1 and stats["a"].self_time == 2.0
    assert stats["b"].calls == 2 and stats["b"].total == 5.0 and stats["b"].self_time == 5.0
    assert by_parent == {("root", "-"): 10.0, ("a", "root"): 3.0, ("b", "a"): 1.0, ("b", "root"): 4.0}


def _bindings():
    """Every attribute of every rollupsim module and of every traced class."""
    owners = list(tracing.rollupsim_modules())
    owners += [getattr(importlib.import_module(t.module), t.attr.split(".")[0]) for t in tracing.LAYER_TARGETS if "." in t.attr]
    return {(owner.__name__, key): value for owner in owners for key, value in vars(owner).items()}


@pytest.fixture
def small_flood():
    text, _ = quarantine_flood(2, dataclasses.replace(SIZES["quarantine_flood"], blocks=12, actors=10))
    return text


def test_every_wrapper_is_restored(small_flood):
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_TARGETS)
    try:
        assert _bindings() != before
        formats.render_report(sequencer.run(formats.parse_scenario(small_flood)).report)
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans


def test_functions_imported_by_name_are_traced_everywhere(small_flood):
    tracer = tracing.Tracer()
    tracer.install(tracing.LAYER_TARGETS)
    try:
        traced_report = formats.render_report(sequencer.run(formats.parse_scenario(small_flood)).report)
    finally:
        tracer.restore()
    stats, by_parent = tracing.aggregate(tracer.names, tracer.spans)
    # tx_hash is bound by name in mempool and sequencer; both copies report.
    assert ("core.tx_hash", "mempool.pending_candidates") in by_parent
    assert ("core.tx_hash", "sequencer.build_block") in by_parent
    # execute_transaction is bound by name in detection.
    assert ("vm.execute_transaction", "detection.hybrid_detect") in by_parent
    assert stats["sequencer.build_block"].calls == 12
    # Tracing leaves the output bytes alone.
    assert traced_report == formats.render_report(sequencer.run(formats.parse_scenario(small_flood)).report)
