import random

import pytest
from hypothesis import given, strategies as st

from helpers import addr
from rollupsim.core import DepositTransaction, deposit_id
from rollupsim.l1da import (
    BitmapMismatch,
    BitmapTooShort,
    DepositNotFound,
    DerivationGap,
    EscrowStatus,
    L1Chain,
    L1Error,
    L1Record,
    NotEligible,
    RefundResult,
    decode_bitmap,
    encode_bitmap,
)


def deposit(block, index, value=10):
    return DepositTransaction(
        l1_block=block, l1_index=index, sender=addr(1 + index), recipient=addr(50), value=value, data=b"", gas_limit=21
    )


class TestBitmapCodec:
    def test_three_flags_encode_to_word_five(self):
        assert encode_bitmap([True, False, True]) == [5]

    def test_256_ones_is_one_full_word(self):
        words = encode_bitmap([True] * 256)
        assert words == [2**256 - 1]

    def test_257_flags_use_two_words(self):
        words = encode_bitmap([True] * 257)
        assert len(words) == 2
        assert words == [2**256 - 1, 1]

    def test_empty(self):
        assert encode_bitmap([]) == []
        assert decode_bitmap([], 0) == []

    def test_decode_too_short(self):
        with pytest.raises(BitmapTooShort):
            decode_bitmap([0], 257)

    @given(st.lists(st.booleans(), max_size=1024))
    def test_round_trip(self, flags):
        assert decode_bitmap(encode_bitmap(flags), len(flags)) == flags

    def test_words_match_arithmetic_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            flags = [rng.random() < 0.5 for _ in range(rng.randrange(0, 600))]
            words = encode_bitmap(flags)
            for w, chunk_start in zip(words, range(0, len(flags), 256)):
                chunk = flags[chunk_start : chunk_start + 256]
                assert w == sum(2**i for i, f in enumerate(chunk) if f)


def record(epoch, number, batch=(), count=None, bitmap=()):
    return L1Record(
        epoch=epoch,
        l2_number=number,
        l2_timestamp=100 + number * 2,
        l2_base_fee=1,
        batch=tuple(batch),
        deposit_count=count,
        bitmap=tuple(bitmap),
    )


class TestPostBatch:
    def chain_with_deposits(self):
        l1 = L1Chain(2)
        l1.add_block(0, 0, [deposit(0, 0), deposit(0, 1)])
        return l1

    def test_bitmap_settles_escrow(self):
        l1 = self.chain_with_deposits()
        minted = l1.post_batch(record(0, 0, count=2, bitmap=encode_bitmap([True, False])))
        statuses = [l1.escrow[deposit_id(d)].status for d in l1.blocks[0].deposits]
        assert statuses == [EscrowStatus.ACCEPTED, EscrowStatus.REFUSED]
        assert minted == l1.blocks[0].deposits[:1]
        assert l1.post_batch(record(0, 1)) == ()

    def test_count_mismatch(self):
        l1 = self.chain_with_deposits()
        with pytest.raises(BitmapMismatch):
            l1.post_batch(record(0, 0, count=3, bitmap=encode_bitmap([True, False, True])))

    def test_word_count_mismatch(self):
        l1 = self.chain_with_deposits()
        with pytest.raises(BitmapMismatch):
            l1.post_batch(record(0, 0, count=2, bitmap=(1, 0)))

    def test_zero_deposit_epoch_empty_bitmap_ok(self):
        l1 = L1Chain(1)
        l1.add_block(0, 0, [])
        assert l1.post_batch(record(0, 0, count=0, bitmap=())) == ()
        assert len(l1.inbox) == 1

    def test_refunded_deposit_is_not_settled_again(self):
        l1 = L1Chain(1, escape_timeout=1000)
        dep = deposit(0, 0)
        l1.add_block(0, 0, [dep])
        assert l1.escape_withdraw(deposit_id(dep), now=1000) == RefundResult(value=10)
        with pytest.raises(L1Error, match="already refunded"):
            l1.post_batch(record(0, 0, count=1, bitmap=encode_bitmap([True])))
        assert l1.escrow[deposit_id(dep)].status is EscrowStatus.REFUNDED
        assert l1.inbox == []

    def test_second_bitmap_for_an_epoch_is_refused(self):
        l1 = self.chain_with_deposits()
        l1.post_batch(record(0, 0, count=2, bitmap=encode_bitmap([True, False])))
        with pytest.raises(DerivationGap, match="epoch 0: bitmap on non-head block 1"):
            l1.post_batch(record(0, 1, count=2, bitmap=encode_bitmap([False, True])))
        statuses = [l1.escrow[deposit_id(d)].status for d in l1.blocks[0].deposits]
        assert statuses == [EscrowStatus.ACCEPTED, EscrowStatus.REFUSED]

    def test_misplaced_deposit_rejected(self):
        l1 = L1Chain(1)
        with pytest.raises(L1Error, match=r"deposit labeled \(3,0\) placed at \(0,0\)"):
            l1.add_block(0, 0, [deposit(3, 0)])


class TestPlaces:
    """The rules on where an L1 block or a record sits, which the batcher's
    posts and the replica's reads both pass."""

    def test_l1_block_out_of_place_backwards_or_late(self):
        l1 = L1Chain(2)
        with pytest.raises(DerivationGap, match="epoch 0: l1block 0 carries number 1"):
            l1.add_block(1, 0, [])
        l1.add_block(0, 10, [])
        with pytest.raises(DerivationGap, match="epoch 1: l1block 1 time 9 is before l1block 0's time 10"):
            l1.add_block(1, 9, [])
        for number in range(3):  # epoch 1's head, block 2, is posted before L1 block 1
            l1.post_batch(record(number // 2, number, count=None if number % 2 else 0))
        with pytest.raises(L1Error, match="^L1 block 1 arrives after its epoch head was built$"):
            l1.add_block(1, 10, [])
        assert len(l1.blocks) == 1

    @pytest.mark.parametrize(
        "posted, bad, message",
        [
            (1, record(0, 2), "epoch 0: expected block 1, record carries 2"),
            (1, record(1, 1), "epoch 1: block 1 belongs to epoch 0"),
            (1, record(0, 1)._replace(l2_timestamp=100), "epoch 0: block 1 time 100 is not after 100"),
            (1, record(0, 1, count=0), "epoch 0: bitmap on non-head block 1"),
            (2, record(1, 2), "epoch 1: head block 2 posts no bitmap"),
        ],
    )
    def test_record_out_of_place(self, posted, bad, message):
        l1 = L1Chain(2)
        for number in range(posted):
            l1.post_batch(record(0, number, count=None if number else 0))
        with pytest.raises(DerivationGap, match=f"^{message}$"):
            l1.post_batch(bad)
        assert len(l1.inbox) == posted

    def test_epoch_head_before_its_l1_block(self):
        l1 = L1Chain(1)
        l1.add_block(0, 101, [])
        with pytest.raises(DerivationGap, match="^epoch 0: head block 0 time 100 is before its L1 block's time 101$"):
            l1.post_batch(record(0, 0, count=0))
        assert l1.inbox == []


class TestEscapeHatch:
    def make_chain(self, timeout=1000):
        l1 = L1Chain(1, escape_timeout=timeout)
        l1.add_block(0, 100, [deposit(0, 0, value=77), deposit(0, 1, value=88)])
        return l1

    def test_refused_deposit_refunds_immediately(self):
        l1 = self.make_chain()
        l1.post_batch(record(0, 0, count=2, bitmap=encode_bitmap([True, False])))
        refused = deposit_id(l1.blocks[0].deposits[1])
        assert l1.escape_withdraw(refused, now=101) == RefundResult(value=88)

    def test_refund_happens_exactly_once(self):
        l1 = self.make_chain()
        l1.post_batch(record(0, 0, count=2, bitmap=encode_bitmap([True, False])))
        refused = deposit_id(l1.blocks[0].deposits[1])
        l1.escape_withdraw(refused, now=101)
        assert l1.escape_withdraw(refused, now=102) == NotEligible("already_refunded")

    def test_pending_deposit_waits_for_timeout(self):
        l1 = self.make_chain(timeout=1000)
        key = deposit_id(l1.blocks[0].deposits[0])
        assert l1.escape_withdraw(key, now=1099) == NotEligible("too_early")
        assert l1.escape_withdraw(key, now=1100) == RefundResult(value=77)

    def test_accepted_deposit_never_refundable(self):
        l1 = self.make_chain()
        l1.post_batch(record(0, 0, count=2, bitmap=encode_bitmap([True, True])))
        key = deposit_id(l1.blocks[0].deposits[0])
        assert l1.escape_withdraw(key, now=10**9) == NotEligible("already_accepted")

    def test_unknown_deposit(self):
        l1 = self.make_chain()
        with pytest.raises(DepositNotFound):
            l1.escape_withdraw(deposit_id(deposit(5, 5)), now=0)
