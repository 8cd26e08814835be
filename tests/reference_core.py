"""Reference oracle for the byte codecs of `rollupsim.core`.

These are the original decoders, which read each field of the fixed head
with its own slice and `int.from_bytes`, and build the transaction through
its validating constructor. The shipped decoders read the head with one
precompiled `struct.Struct` and run only the checks that unpacked fields
can fail; the differential test holds them to these, record for record and
error message for error message. `reference_canonical_encode` is the
original encoder, which joins each field's bytes anew on every call; the
shipped one packs the head with the same `struct.Struct` and memoizes the
blob on the transaction. `reference_encode_deposit` is likewise the original
joining deposit encoder, which the shipped one replaced by packing the head
with the `struct.Struct` its decoder reads. `reference_block_hash` and
`reference_encode_block` are the original block hash and image, which write
the head field by field; the shipped ones pack it with one `struct.Struct`
they share.
"""
from __future__ import annotations

import hashlib

from rollupsim.core import (
    Address, Block, DepositTransaction, EncodingError, SignedTransaction, TxHash, deposit_id, tx_hash,
)


def reference_canonical_encode(tx: SignedTransaction) -> bytes:
    create = tx.recipient is None
    recipient = bytes(20) if create else bytes(tx.recipient)
    return b"".join(
        (
            tx.nonce.to_bytes(8, "big"),
            b"\x01" if create else b"\x00",
            bytes(tx.sender),
            recipient,
            tx.value.to_bytes(16, "big"),
            tx.max_fee.to_bytes(8, "big"),
            tx.priority_fee.to_bytes(8, "big"),
            tx.gas_limit.to_bytes(8, "big"),
            len(tx.data).to_bytes(4, "big"),
            tx.data,
        )
    )


def reference_canonical_decode(blob: bytes) -> SignedTransaction:
    if len(blob) < 93:
        raise EncodingError(f"encoded transaction too short: {len(blob)} bytes")
    nonce = int.from_bytes(blob[0:8], "big")
    tag = blob[8]
    if tag not in (0, 1):
        raise EncodingError(f"bad recipient tag {tag:#x}")
    if tag == 1 and blob[29:49] != bytes(20):
        raise EncodingError("create transaction carries a recipient")
    sender = Address(blob[9:29])
    recipient = None if tag == 1 else Address(blob[29:49])
    value = int.from_bytes(blob[49:65], "big")
    max_fee = int.from_bytes(blob[65:73], "big")
    priority_fee = int.from_bytes(blob[73:81], "big")
    gas_limit = int.from_bytes(blob[81:89], "big")
    data_len = int.from_bytes(blob[89:93], "big")
    if len(blob) != 93 + data_len:
        raise EncodingError(f"encoded transaction length mismatch: {len(blob)} != {93 + data_len}")
    tx = SignedTransaction(
        sender=sender,
        nonce=nonce,
        recipient=recipient,
        value=value,
        data=blob[93 : 93 + data_len],
        max_fee=max_fee,
        priority_fee=priority_fee,
        gas_limit=gas_limit,
    )
    tx._hash = TxHash(hashlib.sha256(blob).digest())
    return tx


def reference_decode_deposit(blob: bytes) -> DepositTransaction:
    if len(blob) < 80:
        raise EncodingError(f"encoded deposit too short: {len(blob)} bytes")
    data_len = int.from_bytes(blob[76:80], "big")
    if len(blob) != 80 + data_len:
        raise EncodingError(f"encoded deposit length mismatch: {len(blob)} != {80 + data_len}")
    return DepositTransaction(
        l1_block=int.from_bytes(blob[0:8], "big"),
        l1_index=int.from_bytes(blob[8:12], "big"),
        sender=Address(blob[12:32]),
        recipient=Address(blob[32:52]),
        value=int.from_bytes(blob[52:68], "big"),
        data=blob[80 : 80 + data_len],
        gas_limit=int.from_bytes(blob[68:76], "big"),
    )


def reference_encode_deposit(dep: DepositTransaction) -> bytes:
    return b"".join(
        (
            dep.l1_block.to_bytes(8, "big"),
            dep.l1_index.to_bytes(4, "big"),
            bytes(dep.sender),
            bytes(dep.recipient),
            dep.value.to_bytes(16, "big"),
            dep.gas_limit.to_bytes(8, "big"),
            len(dep.data).to_bytes(4, "big"),
            dep.data,
        )
    )


def reference_block_hash(block: Block) -> bytes:
    h = hashlib.sha256()
    h.update(block.number.to_bytes(8, "big"))
    h.update(block.parent_hash)
    h.update(block.timestamp.to_bytes(8, "big"))
    h.update(block.base_fee.to_bytes(8, "big"))
    h.update(block.epoch.to_bytes(8, "big"))
    h.update(len(block.deposits).to_bytes(4, "big"))
    for dep in block.deposits:
        h.update(deposit_id(dep))
    h.update(len(block.transactions).to_bytes(4, "big"))
    for tx in block.transactions:
        h.update(tx_hash(tx))
    h.update(block.state_root)
    return h.digest()


def reference_encode_block(block: Block) -> bytes:
    parts = [
        block.number.to_bytes(8, "big"),
        block.parent_hash,
        block.timestamp.to_bytes(8, "big"),
        block.base_fee.to_bytes(8, "big"),
        block.epoch.to_bytes(8, "big"),
        len(block.deposits).to_bytes(4, "big"),
    ]
    for dep in block.deposits:
        enc = reference_encode_deposit(dep)
        parts.append(len(enc).to_bytes(4, "big"))
        parts.append(enc)
    parts.append(len(block.transactions).to_bytes(4, "big"))
    for tx in block.transactions:
        enc = reference_canonical_encode(tx)
        parts.append(len(enc).to_bytes(4, "big"))
        parts.append(enc)
    parts.append(block.state_root)
    return b"".join(parts)
