"""Simulated L1: deposit escrow, batch inbox, acceptance bitmaps, escape hatch.

Each L1 block carries the deposits escrowed in it; the batcher appends one
record per L2 block to the inbox. The record for an epoch's first L2 block
also carries a bitmap marking which of that epoch's deposits were included,
which is what lets a replica re-derive the chain without running detection.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .core import Address, DepositTransaction, TxHash, deposit_id
from .vm import WorldState

WORD_BITS = 256


class L1Error(Exception):
    pass


class BitmapTooShort(L1Error):
    pass


class BitmapMismatch(L1Error):
    pass


class DepositNotFound(L1Error):
    pass


def encode_bitmap(flags: Sequence[bool]) -> List[int]:
    """Pack flags into 256-bit words; flag i is bit (i mod 256) of word i//256,
    least-significant bit first. Unused high bits stay zero."""
    words = [0] * ((len(flags) + WORD_BITS - 1) // WORD_BITS)
    for i, flag in enumerate(flags):
        if flag:
            words[i // WORD_BITS] |= 1 << (i % WORD_BITS)
    return words


def decode_bitmap(words: Sequence[int], count: int) -> List[bool]:
    if count > len(words) * WORD_BITS:
        raise BitmapTooShort(f"{count} flags need {(count + WORD_BITS - 1) // WORD_BITS} words, got {len(words)}")
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


class EscrowStatus(Enum):
    PENDING = "pending"
    ACCEPTED = "accepted"
    REFUSED = "refused"
    REFUNDED = "refunded"


@dataclass
class EscrowEntry:
    deposit: DepositTransaction
    status: EscrowStatus
    refundable_at: int


@dataclass
class L1Block:
    number: int
    timestamp: int
    deposits: Tuple[DepositTransaction, ...]


@dataclass(frozen=True)
class L1Record:
    """One batch posting. Records for an epoch's first L2 block also carry the
    deposit acceptance bitmap (bitmap plus the count it covers)."""

    epoch: int
    l2_number: int
    l2_timestamp: int
    l2_base_fee: int
    batch: Tuple[bytes, ...]
    deposit_count: Optional[int] = None
    bitmap: Tuple[int, ...] = ()

    @property
    def has_bitmap(self) -> bool:
        return self.deposit_count is not None


@dataclass(frozen=True)
class RefundResult:
    value: int


@dataclass(frozen=True)
class NotEligible:
    reason: str  # already_accepted | too_early | already_refunded


class L1Chain:
    """The simulated settlement layer, advanced on the same clock as L2."""

    def __init__(self, escape_timeout: int = 7 * 86400):
        self.blocks: List[L1Block] = []
        self.inbox: List[L1Record] = []
        self.escrow: Dict[TxHash, EscrowEntry] = {}
        self.escape_timeout = escape_timeout

    def add_block(self, timestamp: int, deposits: Sequence[DepositTransaction]) -> L1Block:
        number = len(self.blocks)
        for idx, dep in enumerate(deposits):
            if dep.l1_block != number or dep.l1_index != idx:
                raise L1Error(
                    f"deposit labeled ({dep.l1_block},{dep.l1_index}) placed at ({number},{idx})"
                )
        block = L1Block(number=number, timestamp=timestamp, deposits=tuple(deposits))
        self.blocks.append(block)
        for dep in deposits:
            self.escrow[deposit_id(dep)] = EscrowEntry(
                deposit=dep,
                status=EscrowStatus.PENDING,
                refundable_at=timestamp + self.escape_timeout,
            )
        return block

    def deposits_for_epoch(self, epoch: int) -> Tuple[DepositTransaction, ...]:
        if epoch < len(self.blocks):
            return self.blocks[epoch].deposits
        return ()

    def post_batch(self, record: L1Record) -> None:
        """Append a record to the inbox; the epoch-head bitmap settles escrow."""
        if record.has_bitmap:
            deposits = self.deposits_for_epoch(record.epoch)
            for dep, accepted in zip(deposits, bitmap_flags(record, deposits)):
                entry = self.escrow[deposit_id(dep)]
                entry.status = EscrowStatus.ACCEPTED if accepted else EscrowStatus.REFUSED
        self.inbox.append(record)

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


@dataclass(frozen=True)
class L1History:
    """Everything a replica needs: chain config, genesis, deposits, inbox."""

    fee_recipient: Address
    blocks_per_epoch: int
    genesis: WorldState
    blocks: Tuple[L1Block, ...]
    inbox: Tuple[L1Record, ...]


def snapshot_history(
    l1: L1Chain, fee_recipient: Address, blocks_per_epoch: int, genesis: WorldState
) -> L1History:
    return L1History(
        fee_recipient=fee_recipient,
        blocks_per_epoch=blocks_per_epoch,
        genesis=genesis,
        blocks=tuple(l1.blocks),
        inbox=tuple(l1.inbox),
    )
