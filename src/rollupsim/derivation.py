"""Replica-side chain reconstruction from L1 history alone.

Derivation trusts the posted acceptance bitmaps (classification is sequencer
policy; replay is consensus), decodes the batched transactions, re-executes
every block, and recomputes every state root. A replica without any detector
must land on exactly the sequencer's bytes. Records the sequencer could not
have posted (wrong block number or epoch, time going backwards, a batch that
cannot execute) are gaps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .core import Block, DepositTransaction, StateRoot, block_hash, canonical_decode
from .l1da import L1History, bitmap_flags
from .vm import InvalidBlock, apply_block, state_root


class DerivationGap(Exception):
    def __init__(self, epoch: int, reason: str):
        super().__init__(f"epoch {epoch}: {reason}")
        self.epoch = epoch
        self.reason = reason


@dataclass(frozen=True)
class DerivedChain:
    blocks: Tuple[Block, ...]
    final_root: StateRoot


def derive(history: L1History) -> DerivedChain:
    """Rebuild the chain: per epoch, bitmap-selected deposits open the first
    block, then the batched transactions replay in posted order."""
    state = history.genesis
    blocks: List[Block] = []
    parent = bytes(32)
    epochs_with_bitmap = set()

    for record in history.inbox:
        number = len(blocks)
        if record.l2_number != number:
            raise DerivationGap(record.epoch, f"expected block {number}, record carries {record.l2_number}")
        if record.epoch != number // history.blocks_per_epoch:
            raise DerivationGap(
                record.epoch, f"block {number} belongs to epoch {number // history.blocks_per_epoch}"
            )
        if blocks and record.l2_timestamp < blocks[-1].timestamp:
            raise DerivationGap(
                record.epoch, f"block {number} time {record.l2_timestamp} is before {blocks[-1].timestamp}"
            )
        is_epoch_head = number % history.blocks_per_epoch == 0

        deposits: Tuple[DepositTransaction, ...] = ()
        if record.has_bitmap:
            if not is_epoch_head:
                raise DerivationGap(record.epoch, f"bitmap on non-head block {number}")
            if record.epoch in epochs_with_bitmap:
                raise DerivationGap(record.epoch, "duplicate bitmap for epoch")
            epochs_with_bitmap.add(record.epoch)
            declared = (
                history.blocks[record.epoch].deposits if record.epoch < len(history.blocks) else ()
            )
            deposits = tuple(dep for dep, accepted in zip(declared, bitmap_flags(record, declared)) if accepted)
        elif is_epoch_head and record.epoch < len(history.blocks) and history.blocks[record.epoch].deposits:
            raise DerivationGap(record.epoch, "epoch has deposits but its head record posts no bitmap")

        # One field list for the root-less block `apply_block` executes and
        # the sealed block (`dataclasses.replace` costs more per block).
        header = dict(
            number=number,
            parent_hash=parent,
            timestamp=record.l2_timestamp,
            base_fee=record.l2_base_fee,
            epoch=record.epoch,
            deposits=deposits,
            transactions=tuple(canonical_decode(blob) for blob in record.batch),
        )
        try:
            state = apply_block(state, Block(**header, state_root=StateRoot(bytes(32))), history.fee_recipient)
        except InvalidBlock as exc:
            raise DerivationGap(record.epoch, f"block {number} cannot execute: {exc}") from None
        block = Block(**header, state_root=state_root(state))
        blocks.append(block)
        parent = block_hash(block)

    # Every epoch that escrowed deposits must have posted exactly one bitmap.
    for l1_block in history.blocks:
        if l1_block.deposits and l1_block.number not in epochs_with_bitmap:
            raise DerivationGap(l1_block.number, "no bitmap-bearing record for an epoch with deposits")

    return DerivedChain(blocks=tuple(blocks), final_root=state_root(state))
