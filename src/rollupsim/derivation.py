"""Replica-side chain reconstruction from L1 history alone, on the sequencer's
own L1 model and sealing path.

The history's L1 blocks go through `L1Chain.add_block` and every record
through `post_batch`, which checks each epoch head's bitmap and settles
escrow. A head mints its epoch's accepted deposits, every block replays its
batch, and `ChainView.seal` roots and links it, as it does for the sequencer.
A replica without any detector must land on exactly the sequencer's bytes.
A history the sequencer could not have written is a gap or an `L1Error`.
As in a scenario, L1 block times never go backwards and every L1 block opens
an epoch whose head is in the inbox, so each head's bitmap settles all the
escrow its L1 block holds.
"""
from __future__ import annotations

from typing import List, NamedTuple, Tuple

from .core import Block, StateRoot, block_hash, canonical_decode
from .l1da import L1Chain, L1History
from .vm import AccountOverflow, InvalidBlock, WorldState, apply_block, state_root


class DerivationGap(Exception):
    def __init__(self, epoch: int, reason: str):
        super().__init__(f"epoch {epoch}: {reason}")
        self.epoch = epoch
        self.reason = reason


class DerivedChain(NamedTuple):
    blocks: Tuple[Block, ...]
    final_root: StateRoot


_UNSEALED = StateRoot(bytes(32))


class ChainView:
    """The sealed blocks, and the tip's state and hash."""

    __slots__ = ("blocks", "tip_state", "tip_hash")

    def __init__(self, tip_state: WorldState) -> None:
        self.blocks: List[Block] = []
        self.tip_state = tip_state
        self.tip_hash = bytes(32)

    def draft(self, timestamp: int, base_fee: int, epoch: int, deposits: tuple, transactions: tuple) -> Block:
        """The block after the tip, unsealed: zero parent hash and state root."""
        return Block(len(self.blocks), _UNSEALED, timestamp, base_fee, epoch, deposits, transactions, _UNSEALED)

    def seal(self, block: Block, state: WorldState) -> Block:
        """Link `block` to the tip, root it in `state` (the state after it), and make it the tip.
        A state the root cannot encode is refused with the block's number."""
        try:
            root = state_root(state)
        except AccountOverflow as exc:
            raise AccountOverflow(exc.addr, exc.field, block.number) from None
        block = block._replace(parent_hash=self.tip_hash, state_root=root)
        self.blocks.append(block)
        self.tip_state, self.tip_hash = state, block_hash(block)
        return block


def derive(history: L1History) -> DerivedChain:
    """Rebuild the chain: per epoch, the head's bitmap settles escrow and the
    accepted deposits open the head block, then the batched transactions
    replay in posted order."""
    l1 = L1Chain()
    for place, l1_block in enumerate(history.blocks):
        if l1_block.number != place:
            raise DerivationGap(place, f"l1block {place} carries number {l1_block.number}")
        if l1.blocks and l1_block.timestamp < l1.blocks[-1].timestamp:
            raise DerivationGap(place, f"l1block {place} time {l1_block.timestamp} is before l1block "
                                       f"{place - 1}'s time {l1.blocks[-1].timestamp}")
        if place * history.blocks_per_epoch >= len(history.inbox):
            raise DerivationGap(place, f"l1block {place}'s epoch head, block {place * history.blocks_per_epoch}, "
                                       f"is past the {len(history.inbox)}-block inbox")
        l1.add_block(l1_block.timestamp, l1_block.deposits)

    chain = ChainView(history.genesis)
    for record in history.inbox:
        number, time = len(chain.blocks), record.l2_timestamp
        epoch, offset = divmod(number, history.blocks_per_epoch)
        if record.l2_number != number:
            raise DerivationGap(record.epoch, f"expected block {number}, record carries {record.l2_number}")
        if record.epoch != epoch:
            raise DerivationGap(record.epoch, f"block {number} belongs to epoch {epoch}")
        if chain.blocks and time <= chain.blocks[-1].timestamp:
            raise DerivationGap(epoch, f"block {number} time {time} is not after {chain.blocks[-1].timestamp}")
        if record.has_bitmap != (offset == 0):
            rule = f"bitmap on non-head block {number}" if offset else f"head block {number} posts no bitmap"
            raise DerivationGap(epoch, rule)
        l1_time = l1.blocks[epoch].timestamp if offset == 0 and epoch < len(l1.blocks) else 0
        if time < l1_time:
            raise DerivationGap(epoch, f"head block {number} time {time} is before its L1 block's time {l1_time}")
        l1.post_batch(record)
        deposits = l1.accepted_deposits(epoch) if record.has_bitmap else ()
        transactions = tuple(canonical_decode(blob) for blob in record.batch)
        block = chain.draft(time, record.l2_base_fee, epoch, deposits, transactions)
        try:
            state = apply_block(chain.tip_state, block, history.fee_recipient)
        except InvalidBlock as exc:
            raise DerivationGap(epoch, f"block {number} cannot execute: {exc}") from None
        chain.seal(block, state)
    return DerivedChain(blocks=tuple(chain.blocks), final_root=state_root(chain.tip_state))
