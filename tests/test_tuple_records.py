"""The tuple records keep the interface they were declared with.

Every record below is a named tuple. Its declaration is held here as data:
module, name, fields in order, defaults, and whether it has a docstring of
its own. For each record the test checks `_fields` and `_field_defaults`,
construction by position, by keyword and from defaults, `_replace`,
equality and hashing with the plain tuple of its values, the `repr` text,
and that an instance has no `__dict__`. It also checks the two methods
records carry, `Account.is_empty` and `L1Record.has_bitmap`."""
import importlib
from types import MappingProxyType

import pytest

from helpers import addr
from rollupsim.l1da import L1Record
from rollupsim.vm import Account, ContractCode

# (module, name, fields, defaults, documented)
DECLARATIONS = [
    ("core", "DuplicateKey", "sender recipient data value", {}, True),
    ("core", "Block", "number parent_hash timestamp base_fee epoch deposits transactions state_root", {}, False),
    ("vm", "Account", "balance nonce code storage",
     {"balance": 0, "nonce": 0, "code": None, "storage": MappingProxyType({})}, False),
    ("vm", "AccessKey", "kind addr slot", {"slot": b""}, True),
    ("vm", "BlockContext", "base_fee fee_recipient", {}, False),
    ("l1da", "L1Block", "number timestamp deposits", {}, False),
    ("l1da", "L1Record", "epoch l2_number l2_timestamp l2_base_fee batch deposit_count bitmap",
     {"deposit_count": None, "bitmap": ()}, True),
    ("l1da", "RefundResult", "value", {}, False),
    ("l1da", "NotEligible", "reason", {}, False),
    ("l1da", "L1History", "fee_recipient blocks_per_epoch genesis blocks inbox", {}, True),
    ("derivation", "DerivedChain", "blocks final_root", {}, False),
    ("lines", "Codec", "render parse least top item pattern spec",
     {"least": None, "top": None, "item": None, "pattern": None, "spec": None}, True),
    ("lines", "_Genesis", "address account", {}, False),
    ("detection", "Invariant", "id contract predicate registered_by", {}, False),
    ("detection", "Verdict", "malicious violated victims damage_estimate", {}, False),
    ("detection", "CandidateSet", "txs tip_state budget", {"budget": None}, False),
    ("mempool", "SubmitResult", "outcome reason exits", {"reason": None, "exits": ()}, False),
    ("quarantine", "AuditEvent", "entry at kind actor detail", {"actor": "-", "detail": "-"}, False),
    ("sequencer", "SubmitEvent", "at tx", {}, False),
    ("sequencer", "L1BlockEvent", "at number deposits", {}, False),
    ("sequencer", "ApproveReleaseEvent", "at key approver", {}, False),
    ("sequencer", "StakeEvent", "at account amount", {}, False),
    ("sequencer", "FailureReleaseEvent", "at key", {}, False),
    ("sequencer", "SetBaseFeeEvent", "at fee", {}, False),
    ("sequencer", "AdvanceEvent", "at seconds", {}, False),
    ("sequencer", "BlockSummary", "number timestamp base_fee epoch parent_hash deposit_ids tx_hashes state_root",
     {}, False),
    ("sequencer", "EntrySummary", "key kind sender sequence admitted_at admitted_block violated victims damage",
     {}, False),
    ("sequencer", "PoolSummary", "key sender nonce status received_at", {}, False),
    ("sequencer", "RunOutcome", "report history sequencer", {}, False),
    ("formats", "_Submit", "event label", {}, False),
]


@pytest.fixture(params=DECLARATIONS, ids=lambda d: f"{d[0]}.{d[1]}")
def declaration(request):
    module, name, fields, defaults, documented = request.param
    cls = getattr(importlib.import_module(f"rollupsim.{module}"), name)
    assert (cls.__name__, cls.__module__) == (name, f"rollupsim.{module}")
    return cls, name, tuple(fields.split()), defaults, documented


def test_the_declaration_is_kept(declaration):
    cls, name, fields, defaults, documented = declaration
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    assert list(cls._field_defaults) == list(fields[len(fields) - len(defaults):])
    generated = cls.__doc__.startswith(f"{name}(")
    assert generated != documented, cls.__doc__


def test_construction_replace_equality_and_repr(declaration):
    cls, name, fields, defaults, _ = declaration
    values = tuple(range(100, 100 + len(fields)))
    positional, keyword = cls(*values), cls(**dict(zip(fields, values)))
    for record in (positional, keyword, cls._make(values)):
        assert type(record) is cls and record == values and values == record and hash(record) == hash(values)
        assert not hasattr(record, "__dict__")
        assert repr(record) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"
    required = values[:len(fields) - len(defaults)]
    assert cls(*required) == required + tuple(defaults.values())
    replaced = positional._replace(**{fields[-1]: "new"})
    assert type(replaced) is cls and replaced == values[:-1] + ("new",) and positional == values
    assert positional._asdict() == dict(zip(fields, values))
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(ValueError):
        positional._replace(not_a_field=0)


def test_an_account_is_empty_only_without_balance_nonce_code_and_slots():
    assert Account().is_empty() and Account(storage={}).is_empty()
    assert not Account(balance=1).is_empty()
    assert not Account(nonce=1).is_empty()
    assert not Account(code=ContractCode(addr(1), ())).is_empty()
    assert not Account(storage={bytes(32): (1).to_bytes(32, "big")}).is_empty()
    assert Account().storage is Account().storage  # the default is one shared read-only mapping


def test_a_record_has_a_bitmap_exactly_when_it_counts_deposits():
    plain = L1Record(0, 1, 2, 1, ())
    assert not plain.has_bitmap and plain._replace(deposit_count=0, bitmap=()).has_bitmap
