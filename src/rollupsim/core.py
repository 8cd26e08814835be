"""Canonical transaction, block, and identity types shared by every module.

The byte encodings defined here are normative: hashing, batch export, and the
L1 history file all go through them, so two runs agree on identity exactly
when they agree on these bytes.
"""
from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional, Tuple, Union

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
U128_MAX = 2**128 - 1

# Intrinsic gas cost of any transaction, before any contract statement runs.
BASE_TX_GAS = 21


class EncodingError(ValueError):
    pass


class Address(bytes):
    """20-byte account identifier; compares and sorts as raw bytes."""

    def __new__(cls, value: bytes) -> "Address":
        if len(value) != 20:
            raise EncodingError(f"address must be 20 bytes, got {len(value)}")
        return super().__new__(cls, value)

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        text = text[2:] if text.startswith("0x") else text
        return cls(bytes.fromhex(text))

    @classmethod
    def from_int(cls, value: int) -> "Address":
        return cls((value & (2**160 - 1)).to_bytes(20, "big"))

    def hex0x(self) -> str:
        return "0x" + self.hex()


ZERO_ADDRESS = Address(bytes(20))


class TxHash(bytes):
    """32-byte transaction digest."""

    def __new__(cls, value: bytes) -> "TxHash":
        if len(value) != 32:
            raise EncodingError(f"tx hash must be 32 bytes, got {len(value)}")
        return super().__new__(cls, value)

    @classmethod
    def from_hex(cls, text: str) -> "TxHash":
        text = text[2:] if text.startswith("0x") else text
        return cls(bytes.fromhex(text))

    def hex0x(self) -> str:
        return "0x" + self.hex()


class StateRoot(bytes):
    """32-byte state commitment; equal iff the observable state is equal."""

    def __new__(cls, value: bytes) -> "StateRoot":
        if len(value) != 32:
            raise EncodingError(f"state root must be 32 bytes, got {len(value)}")
        return super().__new__(cls, value)

    def hex0x(self) -> str:
        return "0x" + self.hex()


def _check_range(name: str, value: int, maximum: int) -> None:
    if not 0 <= value <= maximum:
        raise EncodingError(f"{name} out of range: {value}")


class Record:
    """Base of the hand-written records a `NamedTuple` cannot express: ones
    that validate their fields, keep a memo slot, or must be truthy and never
    equal a record of another type holding the same values.

    A subclass names its fields in `_fields` and its slots (the fields plus
    any memo) in `__slots__`, and `__init__` assigns every slot. Nothing
    assigns a field afterwards. Equality, hashing and repr read the type and
    the fields only; `_replace` builds the copy through `__init__`, so a copy
    is validated like the original.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((type(self), self._values()))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({args})"

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


class SignedTransaction(Record):
    """A user transaction. recipient=None requests creation of a fresh account."""

    _fields = ("sender", "nonce", "recipient", "value", "data", "max_fee", "priority_fee", "gas_limit")
    # `_hash` memoizes tx_hash; fields never change, so it stays valid for
    # the object's lifetime.
    __slots__ = (*_fields, "_hash")

    def __init__(
        self, sender: Address, nonce: int, recipient: Optional[Address], value: int, data: bytes, max_fee: int,
        priority_fee: int, gas_limit: int,
    ) -> None:
        _check_range("nonce", nonce, U64_MAX)
        _check_range("value", value, U128_MAX)
        _check_range("max_fee", max_fee, U64_MAX)
        _check_range("priority_fee", priority_fee, U64_MAX)
        _check_range("gas_limit", gas_limit, U64_MAX)
        if priority_fee > max_fee:
            raise EncodingError("priority_fee exceeds max_fee")
        if gas_limit < BASE_TX_GAS:
            raise EncodingError(f"gas_limit below intrinsic cost {BASE_TX_GAS}")
        self.sender = sender
        self.nonce = nonce
        self.recipient = recipient
        self.value = value
        self.data = data
        self.max_fee = max_fee
        self.priority_fee = priority_fee
        self.gas_limit = gas_limit
        self._hash = None


class DepositTransaction(Record):
    """An L2 transaction originated by an L1 event; (l1_block, l1_index) is unique."""

    _fields = ("l1_block", "l1_index", "sender", "recipient", "value", "data", "gas_limit")
    # `_id` memoizes deposit_id, as SignedTransaction memoizes tx_hash.
    __slots__ = (*_fields, "_id")

    def __init__(
        self, l1_block: int, l1_index: int, sender: Address, recipient: Address, value: int, data: bytes, gas_limit: int
    ) -> None:
        _check_range("l1_block", l1_block, U64_MAX)
        _check_range("l1_index", l1_index, U32_MAX)
        _check_range("value", value, U128_MAX)
        _check_range("gas_limit", gas_limit, U64_MAX)
        if gas_limit < BASE_TX_GAS:
            raise EncodingError(f"gas_limit below intrinsic cost {BASE_TX_GAS}")
        self.l1_block = l1_block
        self.l1_index = l1_index
        self.sender = sender
        self.recipient = recipient
        self.value = value
        self.data = data
        self.gas_limit = gas_limit
        self._id = None


AnyTransaction = Union[SignedTransaction, DepositTransaction]


class DuplicateKey(NamedTuple):
    """Gas-free transaction identity: unchanged by nonce or fee bumps."""

    sender: Address
    recipient: Optional[Address]
    data: bytes
    value: int


class Block(NamedTuple):
    number: int
    parent_hash: bytes
    timestamp: int
    base_fee: int
    epoch: int
    deposits: Tuple[DepositTransaction, ...]
    transactions: Tuple[SignedTransaction, ...]
    state_root: StateRoot


def canonical_encode(tx: SignedTransaction) -> bytes:
    """Fixed-layout byte encoding of a transaction.

    Layout: nonce (8 BE) | recipient tag (1: 0x01 = create) | sender (20) |
    recipient (20, zeros for create) | value (16 BE) | max_fee (8 BE) |
    priority_fee (8 BE) | gas_limit (8 BE) | data length (4 BE) | data.
    """
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


def canonical_decode(blob: bytes) -> SignedTransaction:
    """Inverse of canonical_encode; rejects trailing or missing bytes."""
    if len(blob) < 93:
        raise EncodingError(f"encoded transaction too short: {len(blob)} bytes")
    nonce = int.from_bytes(blob[0:8], "big")
    tag = blob[8]
    if tag not in (0, 1):
        raise EncodingError(f"bad recipient tag {tag:#x}")
    sender = Address(blob[9:29])
    recipient = None if tag == 1 else Address(blob[29:49])
    value = int.from_bytes(blob[49:65], "big")
    max_fee = int.from_bytes(blob[65:73], "big")
    priority_fee = int.from_bytes(blob[73:81], "big")
    gas_limit = int.from_bytes(blob[81:89], "big")
    data_len = int.from_bytes(blob[89:93], "big")
    if len(blob) != 93 + data_len:
        raise EncodingError(f"encoded transaction length mismatch: {len(blob)} != {93 + data_len}")
    return SignedTransaction(
        sender=sender,
        nonce=nonce,
        recipient=recipient,
        value=value,
        data=blob[93 : 93 + data_len],
        max_fee=max_fee,
        priority_fee=priority_fee,
        gas_limit=gas_limit,
    )


def encode_deposit(dep: DepositTransaction) -> bytes:
    """Fixed-layout byte encoding of a deposit.

    Layout: l1_block (8 BE) | l1_index (4 BE) | sender (20) | recipient (20) |
    value (16 BE) | gas_limit (8 BE) | data length (4 BE) | data.
    """
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


def decode_deposit(blob: bytes) -> DepositTransaction:
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


def tx_hash(tx: SignedTransaction) -> TxHash:
    """SHA-256 of the canonical encoding; any field change changes the hash.
    Computed once per transaction object and memoized on it."""
    h = tx._hash
    if h is None:
        h = tx._hash = TxHash(hashlib.sha256(canonical_encode(tx)).digest())
    return h


# Deposits are identified in a separate hash domain so a deposit id can never
# collide with a regular transaction hash.
_DEPOSIT_DOMAIN = b"\x01"


def deposit_id(dep: DepositTransaction) -> TxHash:
    h = dep._id
    if h is None:
        h = dep._id = TxHash(hashlib.sha256(_DEPOSIT_DOMAIN + encode_deposit(dep)).digest())
    return h


def tx_id(tx: AnyTransaction) -> TxHash:
    return deposit_id(tx) if isinstance(tx, DepositTransaction) else tx_hash(tx)


def max_cost(tx: SignedTransaction) -> int:
    """The most a transaction can take from its sender: value + gas_limit * max_fee."""
    return tx.value + tx.gas_limit * tx.max_fee


def duplicate_key(tx: SignedTransaction) -> DuplicateKey:
    """Project a transaction onto the identity used to recognize resubmissions."""
    return DuplicateKey(sender=tx.sender, recipient=tx.recipient, data=tx.data, value=tx.value)


def block_hash(block: Block) -> bytes:
    """Digest linking blocks into a chain (the next block's parent_hash)."""
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


def encode_block(block: Block) -> bytes:
    """Full byte image of a block, used to compare chains bit-exactly."""
    parts = [
        block.number.to_bytes(8, "big"),
        block.parent_hash,
        block.timestamp.to_bytes(8, "big"),
        block.base_fee.to_bytes(8, "big"),
        block.epoch.to_bytes(8, "big"),
        len(block.deposits).to_bytes(4, "big"),
    ]
    for dep in block.deposits:
        enc = encode_deposit(dep)
        parts.append(len(enc).to_bytes(4, "big"))
        parts.append(enc)
    parts.append(len(block.transactions).to_bytes(4, "big"))
    for tx in block.transactions:
        enc = canonical_encode(tx)
        parts.append(len(enc).to_bytes(4, "big"))
        parts.append(enc)
    parts.append(block.state_root)
    return b"".join(parts)
