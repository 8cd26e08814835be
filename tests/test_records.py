"""The hand-written records keep the contract callers rely on.

Expression nodes, statement nodes and release outcomes are always truthy and
equal only a record of their own type. Validated records raise the same
exception and message whichever way they are built: positionally, by
keyword, through `_replace`, or by a decoder."""
from itertools import combinations

import pytest

from helpers import addr, tx
from rollupsim import core, vm
from rollupsim.core import DepositTransaction, EncodingError, SignedTransaction
from rollupsim.mempool import PoolConfig
from rollupsim.quarantine import InsufficientCollateral, PendingApprovals, QuarantineConfig, Released, StillHeld
from rollupsim.sequencer import SequencerConfig

ONE, TWO = vm.Const(1), vm.Const(2)
NODES_AND_OUTCOMES = [
    vm.Const(1),
    vm.SLoad(ONE),
    vm.BalanceOf(ONE),
    vm.Caller(),
    vm.CallValue(),
    vm.CallData(),
    vm.SelfAddr(),
    vm.Bin("add", ONE, TWO),
    vm.Not(ONE),
    vm.Require(ONE),
    vm.SetSlot(ONE, TWO),
    vm.Pay(ONE, TWO),
    Released(ONE),
    StillHeld(ONE),
    PendingApprovals(ONE),
    InsufficientCollateral(ONE),
]


def fields(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


class TestNodesAndOutcomes:
    @pytest.mark.parametrize("record", NODES_AND_OUTCOMES, ids=lambda r: type(r).__name__)
    def test_truthy_and_equal_only_to_its_own_type(self, record):
        assert bool(record) is True
        twin = type(record)(*fields(record))
        assert twin == record and hash(twin) == hash(record) and repr(twin) == repr(record)
        assert record != fields(record)  # not a tuple either

    def test_siblings_with_the_same_values_never_compare_equal(self):
        pairs = 0
        for a, b in combinations(NODES_AND_OUTCOMES, 2):
            if fields(a) == fields(b):
                pairs += 1
                assert a != b and b != a and not a == b
                assert len({a, b}) == 2
        assert pairs == 6 + 28 + 1  # 4 field-less nodes, 8 one-field records holding ONE, 2 two-field nodes

    @pytest.mark.parametrize("build", [
        vm.SLoad, vm.BalanceOf, vm.Not, vm.Require,
        lambda child: vm.Bin("add", child, ONE), lambda child: vm.Bin("add", ONE, child),
        lambda child: vm.SetSlot(ONE, child), lambda child: vm.Pay(child, ONE),
    ], ids=["SLoad", "BalanceOf", "Not", "Require", "Bin.left", "Bin.right", "SetSlot", "Pay"])
    @pytest.mark.parametrize("child", [1, None, vm.Require(ONE), vm.Caller], ids=["int", "None", "statement", "class"])
    def test_a_node_refuses_a_child_that_is_no_expression(self, build, child):
        with pytest.raises(TypeError, match="not an expression"):
            build(child)

    @pytest.mark.parametrize("stmt", [ONE, None, vm.Require])
    def test_a_program_refuses_what_is_no_statement(self, stmt):
        with pytest.raises(TypeError, match="not a statement"):
            vm.ContractCode(addr(1), (vm.Require(ONE), stmt))

    def test_a_node_tree_compares_by_value(self):
        make = lambda: vm.Not(vm.Bin("lt", vm.SLoad(vm.Const(7)), vm.BalanceOf(vm.SelfAddr())))
        assert make() == make() and hash(make()) == hash(make())
        assert make() != vm.Not(vm.Bin("lt", vm.SLoad(vm.Const(7)), vm.BalanceOf(vm.Caller())))


def expect_error(exc_type, message, build):
    with pytest.raises(exc_type) as info:
        build()
    assert type(info.value) is exc_type and str(info.value) == message


SENDER, TO = addr(1), addr(2)
TX_ARGS = dict(sender=SENDER, nonce=0, recipient=TO, value=5, data=b"", max_fee=3, priority_fee=1, gas_limit=30)
DEP_ARGS = dict(l1_block=0, l1_index=0, sender=SENDER, recipient=TO, value=5, data=b"", gas_limit=30)

# (record type, valid fields, a bad change, the exception, its message)
VALIDATED = [
    (vm.Const, dict(value=1), dict(value=-1), ValueError, "constant out of word range: -1"),
    (vm.Const, dict(value=1), dict(value=vm.WORD), ValueError, f"constant out of word range: {vm.WORD}"),
    (vm.Bin, dict(op="add", left=vm.Const(1), right=vm.Const(2)), dict(op="div"), ValueError, "unknown operator 'div'"),
    (SignedTransaction, TX_ARGS, dict(nonce=-1), EncodingError, "nonce out of range: -1"),
    (SignedTransaction, TX_ARGS, dict(value=2**128), EncodingError, f"value out of range: {2**128}"),
    (SignedTransaction, TX_ARGS, dict(max_fee=2**64), EncodingError, f"max_fee out of range: {2**64}"),
    (SignedTransaction, TX_ARGS, dict(priority_fee=4), EncodingError, "priority_fee exceeds max_fee"),
    (SignedTransaction, TX_ARGS, dict(gas_limit=20), EncodingError, "gas_limit below intrinsic cost 21"),
    # `struct`'s `20s` zero-pads a short address: it would share its hash with the padded one.
    (SignedTransaction, TX_ARGS, dict(sender=b"\x01" * 19), EncodingError, "sender must be 20 bytes, got 19"),
    (SignedTransaction, TX_ARGS, dict(recipient=bytes(21)), EncodingError, "recipient must be 20 bytes, got 21"),
    # `struct` cannot pack None: only a signed create leaves an address out, its recipient.
    (SignedTransaction, TX_ARGS, dict(sender=None), EncodingError, "sender is missing"),
    (DepositTransaction, DEP_ARGS, dict(l1_block=-1), EncodingError, "l1_block out of range: -1"),
    (DepositTransaction, DEP_ARGS, dict(l1_index=2**32), EncodingError, f"l1_index out of range: {2**32}"),
    (DepositTransaction, DEP_ARGS, dict(value=-5), EncodingError, "value out of range: -5"),
    (DepositTransaction, DEP_ARGS, dict(gas_limit=20), EncodingError, "gas_limit below intrinsic cost 21"),
    (DepositTransaction, DEP_ARGS, dict(sender=b"\x01" * 19), EncodingError, "sender must be 20 bytes, got 19"),
    (DepositTransaction, DEP_ARGS, dict(recipient=b""), EncodingError, "recipient must be 20 bytes, got 0"),
    (DepositTransaction, DEP_ARGS, dict(sender=None), EncodingError, "sender is missing"),
    (DepositTransaction, DEP_ARGS, dict(recipient=None), EncodingError, "recipient is missing"),
    (SequencerConfig, {}, dict(block_time=0), ValueError, "block_time must be positive and blocks_per_epoch >= 1"),
    (SequencerConfig, {}, dict(blocks_per_epoch=0), ValueError, "block_time must be positive and blocks_per_epoch >= 1"),
    (PoolConfig, {}, dict(max_queued=0), ValueError, "pool config values must be positive"),
    (PoolConfig, {}, dict(tx_lifetime=-1), ValueError, "pool config values must be positive"),
    (QuarantineConfig, {}, dict(time_criterion_period=0), ValueError, "time criterion period must be positive"),
]


class TestValidatedRecords:
    @pytest.mark.parametrize("cls, valid, bad, exc_type, message", VALIDATED, ids=lambda v: getattr(v, "__name__", None))
    def test_every_construction_path_validates(self, cls, valid, bad, exc_type, message):
        good = cls(**valid)
        args = {**dict(zip(cls._fields, fields(good))), **bad}
        expect_error(exc_type, message, lambda: cls(**args))
        expect_error(exc_type, message, lambda: cls(*args.values()))
        expect_error(exc_type, message, lambda: good._replace(**bad))
        assert good._replace() == good and good._replace() is not good

    def test_decoders_validate_like_the_constructor(self):
        blob = bytearray(core.canonical_encode(tx(SENDER, 0, TO, max_fee=3, priority_fee=1)))
        blob[73:81] = (4).to_bytes(8, "big")  # priority_fee above max_fee
        expect_error(EncodingError, "priority_fee exceeds max_fee", lambda: core.canonical_decode(bytes(blob)))
        blob = bytearray(core.encode_deposit(DepositTransaction(**DEP_ARGS)))
        blob[68:76] = (20).to_bytes(8, "big")  # gas_limit below the intrinsic cost
        expect_error(EncodingError, "gas_limit below intrinsic cost 21", lambda: core.decode_deposit(bytes(blob)))

    def test_a_changed_copy_has_its_own_memo(self):
        t = tx(SENDER, 0, TO, value=3)
        first = core.tx_hash(t)
        bumped = t._replace(value=4)
        assert core.tx_hash(bumped) != first and core.tx_hash(t) is first
