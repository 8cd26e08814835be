"""Replica-side chain reconstruction from L1 history alone, on the sequencer's
own L1 model and sealing path.

The history's L1 blocks go through `L1Chain.add_block` and every record
through `post_batch`: the batcher's own rules, which refuse an L1 block or a
record out of its place, check each epoch head's bitmap, settle escrow and
return the deposits the record's block mints. Each block is drafted from its
record, replays its batch, and `ChainView.seal` roots and links it, as it
does for the sequencer. A replica without any detector must land on exactly
the sequencer's bytes. A history the sequencer could not have written is a
gap or an `L1Error`. The one rule only a whole history shows is checked
here: every L1 block opens an epoch whose head is in the inbox, so each
head's bitmap settles all the escrow its L1 block holds.
"""
from __future__ import annotations

from collections import namedtuple
from typing import List

from .core import Block, EncodingError, StateRoot, block_hash, canonical_decode
from .l1da import DerivationGap, L1Chain, L1History, L1Record  # DerivationGap: also for callers
from .vm import AccountOverflow, InvalidBlock, WorldState, apply_block, state_root


DerivedChain = namedtuple("DerivedChain", (
    "blocks",  # Tuple[Block, ...]
    "final_root",  # StateRoot
))


_UNSEALED = StateRoot(bytes(32))
# A block is built in one C call from fields already in hand, each checked
# where it entered: the record's by `L1Chain.post_batch`, the transactions
# by their decoder or constructor, the root by `state_root`. The generated
# constructor would check nothing more.
_new_block = tuple.__new__


class ChainView:
    """The sealed blocks, and the tip's state and hash."""

    __slots__ = ("blocks", "tip_state", "tip_hash")

    def __init__(self, tip_state: WorldState) -> None:
        self.blocks: List[Block] = []
        self.tip_state = tip_state
        self.tip_hash = bytes(32)

    def draft(self, record: L1Record, deposits: tuple, transactions: tuple) -> Block:
        """The block `record` posts, unsealed: zero parent hash and state root."""
        return _new_block(Block, (record.l2_number, _UNSEALED, record.l2_timestamp, record.l2_base_fee, record.epoch,
                                  deposits, transactions, _UNSEALED))

    def seal(self, block: Block, state: WorldState) -> Block:
        """Link `block` to the tip, root it in `state` (the state after it), and make it the tip.
        A state the root cannot encode is refused with the block's number."""
        try:
            root = state_root(state)
        except AccountOverflow as exc:
            raise AccountOverflow(exc.addr, exc.field, block.number) from None
        number, _parent, timestamp, base_fee, epoch, deposits, transactions, _root = block
        block = _new_block(Block, (number, self.tip_hash, timestamp, base_fee, epoch, deposits, transactions, root))
        self.blocks.append(block)
        self.tip_state, self.tip_hash = state, block_hash(block)
        return block


def derive(history: L1History) -> DerivedChain:
    """Rebuild the chain: per epoch, the head's bitmap settles escrow and the
    accepted deposits open the head block, then the batched transactions
    replay in posted order."""
    l1 = L1Chain(history.blocks_per_epoch)
    for l1_block in history.blocks:
        l1.add_block(*l1_block)
        place = l1_block.number
        if place * history.blocks_per_epoch >= len(history.inbox):
            raise DerivationGap(place, f"l1block {place}'s epoch head, block {place * history.blocks_per_epoch}, "
                                       f"is past the {len(history.inbox)}-block inbox")

    chain = ChainView(history.genesis)
    for record in history.inbox:
        deposits = l1.post_batch(record)
        number, epoch = record.l2_number, record.epoch
        transactions = []
        for index, blob in enumerate(record.batch):
            try:
                transactions.append(canonical_decode(blob))
            except EncodingError as exc:
                raise DerivationGap(epoch, f"block {number} batch entry {index} cannot be decoded: {exc}") from None
        block = chain.draft(record, deposits, tuple(transactions))
        try:
            state = apply_block(chain.tip_state, block, history.fee_recipient)
        except InvalidBlock as exc:
            raise DerivationGap(epoch, f"block {number} cannot execute: {exc}") from None
        chain.seal(block, state)
    return DerivedChain(blocks=tuple(chain.blocks), final_root=state_root(chain.tip_state))
