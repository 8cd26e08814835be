"""Simulated L1: deposit escrow, batch inbox, acceptance bitmaps, escape hatch.

Each L1 block carries the deposits escrowed in it; the batcher appends one
record per L2 block to the inbox. The record for an epoch's first L2 block
also carries a bitmap marking which of that epoch's deposits were included,
which is what lets a replica re-derive the chain without running detection.
`L1Chain` holds every rule about where an L1 block or a record sits, and a
replica replays an exported history through its own `L1Chain`, so the
batcher and the replica follow one set of L1 rules: a record the batcher
could post is one the replica takes.
"""
from __future__ import annotations

from collections import namedtuple
from typing import Dict, List, Sequence, Tuple

from .core import Address, DepositTransaction, TxHash, deposit_id
from .vm import WorldState

WORD_BITS = 256


class L1Error(Exception):
    pass


class BitmapMismatch(L1Error):
    pass


class DepositNotFound(L1Error):
    pass


class DerivationGap(L1Error):
    """An L1 block or a record out of its place, or a block the replica cannot rebuild."""

    def __init__(self, epoch: int, reason: str):
        super().__init__(f"epoch {epoch}: {reason}")
        self.epoch = epoch
        self.reason = reason


def encode_bitmap(flags: Sequence[bool]) -> List[int]:
    """Pack flags into 256-bit words; flag i is bit (i mod 256) of word i//256,
    least-significant bit first. Unused high bits stay zero."""
    words = [0] * ((len(flags) + WORD_BITS - 1) // WORD_BITS)
    for i, flag in enumerate(flags):
        if flag:
            words[i // WORD_BITS] |= 1 << (i % WORD_BITS)
    return words


def decode_bitmap(words: Sequence[int], count: int) -> List[bool]:
    """The first `count` flags of `words`, which `bitmap_flags` has checked
    hold exactly the words `count` needs."""
    return [bool(words[i // WORD_BITS] >> (i % WORD_BITS) & 1) for i in range(count)]


def bitmap_flags(record: L1Record, deposits: Sequence[DepositTransaction]) -> List[bool]:
    """Check an epoch-head record's bitmap against its epoch's deposits (same
    count, exactly the words that count needs) and decode the flags."""
    if record.deposit_count != len(deposits):
        raise BitmapMismatch(f"bitmap covers {record.deposit_count} deposits, epoch {record.epoch} has {len(deposits)}")
    expected_words = (record.deposit_count + WORD_BITS - 1) // WORD_BITS
    if len(record.bitmap) != expected_words:
        raise BitmapMismatch(
            f"bitmap has {len(record.bitmap)} words, {record.deposit_count} deposits need {expected_words}"
        )
    return decode_bitmap(record.bitmap, record.deposit_count)


class EscrowStatus:
    """A deposit's escrow state, as plain strings, compared by identity."""

    PENDING = "pending"
    ACCEPTED = "accepted"
    REFUSED = "refused"
    REFUNDED = "refunded"


class EscrowEntry:
    __slots__ = ("deposit", "status", "refundable_at")

    def __init__(self, deposit: DepositTransaction, status: EscrowStatus, refundable_at: int) -> None:
        self.deposit = deposit
        self.status = status
        self.refundable_at = refundable_at


L1Block = namedtuple("L1Block", (
    "number",  # int
    "timestamp",  # int
    "deposits",  # Tuple[DepositTransaction, ...]
))

L1Record = namedtuple("L1Record", (
    "epoch",  # int
    "l2_number",  # int
    "l2_timestamp",  # int
    "l2_base_fee",  # int
    "batch",  # Tuple[bytes, ...]
    "deposit_count",  # Optional[int]
    "bitmap",  # Tuple[int, ...]
), defaults=(None, ()))
L1Record.__doc__ = """One batch posting. Records for an epoch's first L2 block also carry the
deposit acceptance bitmap (bitmap plus the count it covers)."""
L1Record.has_bitmap = property(lambda record: record.deposit_count is not None)

RefundResult = namedtuple("RefundResult", (
    "value",  # int
))
NotEligible = namedtuple("NotEligible", (
    "reason",  # str: already_accepted | too_early | already_refunded
))


class L1Chain:
    """The simulated settlement layer, advanced on the same clock as L2.

    Each L1 block opens the epoch of its number, and that epoch's head (its
    first L2 block) settles the block's escrow with its bitmap. So L1 blocks
    come in number order, never earlier than the one before, and before
    their epoch head is posted. Records come in block order, each later than
    the one before, and an epoch head no earlier than its L1 block."""

    def __init__(self, blocks_per_epoch: int, escape_timeout: int = 7 * 86400):
        self.blocks: List[L1Block] = []
        self.inbox: List[L1Record] = []
        self.escrow: Dict[TxHash, EscrowEntry] = {}
        self.blocks_per_epoch = blocks_per_epoch
        self.escape_timeout = escape_timeout

    def add_block(self, number: int, timestamp: int, deposits: Sequence[DepositTransaction]) -> None:
        place = len(self.blocks)
        if number != place:
            raise DerivationGap(place, f"l1block {place} carries number {number}")
        if self.blocks and timestamp < self.blocks[-1].timestamp:
            raise DerivationGap(place, f"l1block {place} time {timestamp} is before l1block "
                                       f"{place - 1}'s time {self.blocks[-1].timestamp}")
        if number * self.blocks_per_epoch < len(self.inbox):
            raise L1Error(f"L1 block {number} arrives after its epoch head was built")
        for idx, dep in enumerate(deposits):
            if dep.l1_block != number or dep.l1_index != idx:
                raise L1Error(
                    f"deposit labeled ({dep.l1_block},{dep.l1_index}) placed at ({number},{idx})"
                )
        self.blocks.append(L1Block(number=number, timestamp=timestamp, deposits=tuple(deposits)))
        for dep in deposits:
            self.escrow[deposit_id(dep)] = EscrowEntry(
                deposit=dep,
                status=EscrowStatus.PENDING,
                refundable_at=timestamp + self.escape_timeout,
            )

    def deposits_for_epoch(self, epoch: int) -> Tuple[DepositTransaction, ...]:
        if epoch < len(self.blocks):
            return self.blocks[epoch].deposits
        return ()

    def post_batch(self, record: L1Record) -> Tuple[DepositTransaction, ...]:
        """Append the next block's record to the inbox and return the deposits
        its block mints: on an epoch head, the ones its bitmap accepts, which
        settles the epoch's escrow. A record out of its place, or escrow that
        is not pending, is refused (a batcher bug: raise, change nothing)."""
        number, time = len(self.inbox), record.l2_timestamp
        epoch, offset = divmod(number, self.blocks_per_epoch)
        if record.l2_number != number:
            raise DerivationGap(record.epoch, f"expected block {number}, record carries {record.l2_number}")
        if record.epoch != epoch:
            raise DerivationGap(record.epoch, f"block {number} belongs to epoch {epoch}")
        if self.inbox and time <= self.inbox[-1].l2_timestamp:
            raise DerivationGap(epoch, f"block {number} time {time} is not after {self.inbox[-1].l2_timestamp}")
        head = record.has_bitmap
        if head != (offset == 0):
            rule = f"bitmap on non-head block {number}" if offset else f"head block {number} posts no bitmap"
            raise DerivationGap(epoch, rule)
        minted = ()
        if head:
            l1_time = self.blocks[epoch].timestamp if epoch < len(self.blocks) else 0
            if time < l1_time:
                raise DerivationGap(epoch, f"head block {number} time {time} is before its L1 block's time {l1_time}")
            deposits = self.deposits_for_epoch(epoch)
            entries = [self.escrow[deposit_id(dep)] for dep in deposits]
            for entry in entries:
                if entry.status is not EscrowStatus.PENDING:
                    raise L1Error(f"deposit {deposit_id(entry.deposit).hex0x()} is already {entry.status}")
            flags = bitmap_flags(record, deposits)
            for entry, accepted in zip(entries, flags):
                entry.status = EscrowStatus.ACCEPTED if accepted else EscrowStatus.REFUSED
            minted = tuple(dep for dep, accepted in zip(deposits, flags) if accepted)
        self.inbox.append(record)
        return minted

    def escape_withdraw(self, dep_id: TxHash, now: int):
        """Refund a refused deposit, or a pending one after the timeout.

        Accepted deposits minted on L2 and can never be refunded; each escrow
        entry pays out at most once.
        """
        entry = self.escrow.get(dep_id)
        if entry is None:
            raise DepositNotFound(dep_id.hex0x())
        if entry.status is EscrowStatus.ACCEPTED:
            return NotEligible("already_accepted")
        if entry.status is EscrowStatus.REFUNDED:
            return NotEligible("already_refunded")
        if entry.status is EscrowStatus.PENDING and now < entry.refundable_at:
            return NotEligible("too_early")
        entry.status = EscrowStatus.REFUNDED
        return RefundResult(value=entry.deposit.value)


L1History = namedtuple("L1History", (
    "fee_recipient",  # Address
    "blocks_per_epoch",  # int
    "genesis",  # WorldState
    "blocks",  # Tuple[L1Block, ...]
    "inbox",  # Tuple[L1Record, ...]
))
L1History.__doc__ = """Everything a replica needs: chain config, genesis, deposits, inbox."""


def snapshot_history(l1: L1Chain, fee_recipient: Address, genesis: WorldState) -> L1History:
    return L1History(
        fee_recipient=fee_recipient,
        blocks_per_epoch=l1.blocks_per_epoch,
        genesis=genesis,
        blocks=tuple(l1.blocks),
        inbox=tuple(l1.inbox),
    )
