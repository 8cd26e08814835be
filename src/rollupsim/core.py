"""Canonical transaction, block, and identity types shared by every module.

The byte encodings defined here are normative: hashing, batch export, and the
L1 history file all go through them, so two runs agree on identity exactly
when they agree on these bytes. Each is declared once: the fixed head of the
transaction, deposit and block layouts is one `struct.Struct`, used by the
writer and the reader (or, for a block, by the hash and the image) alike, and
the identifiers `Address`, `TxHash` and `StateRoot` share one fixed-width
base that holds the length check and the hex forms. The check runs where a
value enters the program; a value whose width its source already fixes (a
field unpacked by its layout, a SHA-256 digest, `int.to_bytes(20)`) is built
with `bytes.__new__`, and the site says which source fixes it.
"""
from __future__ import annotations

import hashlib
import struct
from typing import Iterable, NamedTuple, Optional, Tuple, Union

U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
U128_MAX = 2**128 - 1

# Intrinsic gas cost of any transaction, before any contract statement runs.
BASE_TX_GAS = 21


class EncodingError(ValueError):
    pass


class ScenarioError(Exception):
    """A refused input: a scenario, report or history line, by number, or a scenario event, by time."""

    def __init__(self, reason: str, line: Optional[int] = None, at: Optional[int] = None):
        where = f"line {line}: " if line is not None else (f"t={at}: " if at is not None else "")
        super().__init__(f"{where}{reason}")
        self.line = line
        self.at = at
        self.reason = reason


class _FixedWidth(bytes):
    """Base of the fixed-width identifiers, which compare and sort as raw
    bytes: a subclass sets its byte `_size` and the `_label` that opens its
    length error."""

    _size = 0
    _label = ""

    def __new__(cls, value: bytes):
        if len(value) != cls._size:
            raise EncodingError(f"{cls._label} must be {cls._size} bytes, got {len(value)}")
        return super().__new__(cls, value)

    @classmethod
    def from_hex(cls, text: str):
        return cls(bytes.fromhex(text[2:] if text.startswith("0x") else text))

    def hex0x(self) -> str:
        return "0x" + self.hex()


class Address(_FixedWidth):
    """20-byte account identifier."""

    _size, _label = 20, "address"

    @classmethod
    def from_int(cls, value: int) -> "Address":
        # `to_bytes(20)` fixes the length, so the check in `__new__` is skipped.
        return bytes.__new__(cls, (value & (2**160 - 1)).to_bytes(20, "big"))


ZERO_ADDRESS = Address(bytes(20))


class TxHash(_FixedWidth):
    """32-byte transaction digest."""

    _size, _label = 32, "tx hash"


class StateRoot(_FixedWidth):
    """32-byte state commitment; equal iff the observable state is equal."""

    _size, _label = 32, "state root"


def _check_range(name: str, value: int, maximum: int) -> None:
    if not 0 <= value <= maximum:
        raise EncodingError(f"{name} out of range: {value}")


def _check_addresses(sender: bytes, recipient: Optional[bytes], create: bool) -> None:
    """Both address fields hold 20 bytes, but for a signed create's
    recipient, which is None: `struct`'s `20s` would zero-pad a shorter
    one, and cannot pack None."""
    for name, value in (("sender", sender), ("recipient", recipient)):
        if value is None:
            if name == "sender" or not create:
                raise EncodingError(f"{name} is missing")
        elif len(value) != 20:
            raise EncodingError(f"{name} must be 20 bytes, got {len(value)}")


class Record:
    """Base of the hand-written records a `NamedTuple` cannot express: ones
    that validate their fields, keep a memo slot, or must be truthy and never
    equal a record of another type holding the same values.

    A subclass names its fields in `_fields` and its slots (the fields plus
    any memo or evaluator) in `__slots__`, and `__init__` assigns every
    slot. Nothing assigns a field afterwards. Equality, hashing and repr read
    the type and the fields only; `_replace` builds the copy through
    `__init__`, so a copy is validated like the original.
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
    # `_hash` memoizes tx_hash and `_blob` canonical_encode; fields never
    # change, so both stay valid for the object's lifetime.
    __slots__ = (*_fields, "_hash", "_blob")

    def __init__(
        self, sender: Address, nonce: int, recipient: Optional[Address], value: int, data: bytes, max_fee: int,
        priority_fee: int, gas_limit: int,
    ) -> None:
        _check_addresses(sender, recipient, create=True)
        _check_range("nonce", nonce, U64_MAX)
        _check_range("value", value, U128_MAX)
        _check_range("max_fee", max_fee, U64_MAX)
        _check_range("priority_fee", priority_fee, U64_MAX)
        _check_range("gas_limit", gas_limit, U64_MAX)
        _check_fees(max_fee, priority_fee, gas_limit)
        self.sender = sender
        self.nonce = nonce
        self.recipient = recipient
        self.value = value
        self.data = data
        self.max_fee = max_fee
        self.priority_fee = priority_fee
        self.gas_limit = gas_limit
        self._hash = None
        self._blob = None


def _check_fees(max_fee: int, priority_fee: int, gas_limit: int) -> None:
    """The checks of a transaction's fields that hold across fields, in range."""
    if priority_fee > max_fee:
        raise EncodingError("priority_fee exceeds max_fee")
    _check_intrinsic_gas(gas_limit)


def _check_intrinsic_gas(gas_limit: int) -> None:
    """Either kind of transaction pays at least the intrinsic cost."""
    if gas_limit < BASE_TX_GAS:
        raise EncodingError(f"gas_limit below intrinsic cost {BASE_TX_GAS}")


class DepositTransaction(Record):
    """An L2 transaction originated by an L1 event; (l1_block, l1_index) is unique."""

    _fields = ("l1_block", "l1_index", "sender", "recipient", "value", "data", "gas_limit")
    # `_id` memoizes deposit_id, as SignedTransaction memoizes tx_hash.
    __slots__ = (*_fields, "_id")

    def __init__(
        self, l1_block: int, l1_index: int, sender: Address, recipient: Address, value: int, data: bytes, gas_limit: int
    ) -> None:
        _check_addresses(sender, recipient, create=False)
        _check_range("l1_block", l1_block, U64_MAX)
        _check_range("l1_index", l1_index, U32_MAX)
        _check_range("value", value, U128_MAX)
        _check_range("gas_limit", gas_limit, U64_MAX)
        _check_intrinsic_gas(gas_limit)
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


# The fixed heads of the three layouts, each declared once and packed, or
# unpacked, with one call. An address field unpacks to exactly 20 bytes and
# a digest is 32, so they become an `Address` and a `TxHash` without the
# length check, as in `Address.from_int`. The block head's parent hash is
# always 32 bytes, the zero hash or a block digest, so `32s` never pads it.
_TX_HEAD = struct.Struct(">QB20s20s16sQQQI")  # 93 bytes
_DEPOSIT_HEAD = struct.Struct(">QI20s20s16sQI")  # 80 bytes
_BLOCK_HEAD = struct.Struct(">Q32sQQQI")  # 68 bytes


def canonical_encode(tx: SignedTransaction) -> bytes:
    """Fixed-layout byte encoding of a transaction, memoized on it.

    Layout: nonce (8 BE) | recipient tag (1: 0x01 = create) | sender (20) |
    recipient (20, zeros for create) | value (16 BE) | max_fee (8 BE) |
    priority_fee (8 BE) | gas_limit (8 BE) | data length (4 BE) | data.
    """
    blob = tx._blob
    if blob is None:
        create, data = tx.recipient is None, tx.data
        blob = tx._blob = _TX_HEAD.pack(
            tx.nonce, create, tx.sender, ZERO_ADDRESS if create else tx.recipient, tx.value.to_bytes(16, "big"),
            tx.max_fee, tx.priority_fee, tx.gas_limit, len(data),
        ) + data
    return blob


def canonical_decode(blob: bytes) -> SignedTransaction:
    """Inverse of canonical_encode; rejects trailing or missing bytes and any
    blob canonical_encode would not write, so decoding is one-to-one. The
    blob is the transaction's encoding and its digest the transaction's hash:
    both are memoized here. Every field unpacks in its range, so only the
    checks across fields are run, inline; `_check_fees` is called only to
    word a refusal. The transaction, its addresses and its hash are built
    in C, each from a value its layout has already checked."""
    if len(blob) < 93:
        raise EncodingError(f"encoded transaction too short: {len(blob)} bytes")
    nonce, tag, sender, recipient, value, max_fee, priority_fee, gas_limit, data_len = _TX_HEAD.unpack_from(blob)
    if tag > 1:
        raise EncodingError(f"bad recipient tag {tag:#x}")
    if tag == 1 and recipient != ZERO_ADDRESS:
        raise EncodingError("create transaction carries a recipient")
    if len(blob) != 93 + data_len:
        raise EncodingError(f"encoded transaction length mismatch: {len(blob)} != {93 + data_len}")
    if priority_fee > max_fee or gas_limit < BASE_TX_GAS:  # `_check_fees`'s rules, inline
        _check_fees(max_fee, priority_fee, gas_limit)  # words the refusal
    tx = object.__new__(SignedTransaction)
    tx.sender = bytes.__new__(Address, sender)
    tx.nonce = nonce
    tx.recipient = None if tag == 1 else bytes.__new__(Address, recipient)
    tx.value = int.from_bytes(value, "big")
    tx.data = blob[93:]
    tx.max_fee = max_fee
    tx.priority_fee = priority_fee
    tx.gas_limit = gas_limit
    tx._blob = blob = bytes(blob)
    tx._hash = bytes.__new__(TxHash, hashlib.sha256(blob).digest())
    return tx


def encode_deposit(dep: DepositTransaction) -> bytes:
    """Fixed-layout byte encoding of a deposit.

    Layout: l1_block (8 BE) | l1_index (4 BE) | sender (20) | recipient (20) |
    value (16 BE) | gas_limit (8 BE) | data length (4 BE) | data.
    """
    data = dep.data
    return _DEPOSIT_HEAD.pack(
        dep.l1_block, dep.l1_index, dep.sender, dep.recipient, dep.value.to_bytes(16, "big"), dep.gas_limit, len(data),
    ) + data


def decode_deposits(blobs: Iterable[bytes]) -> Tuple[DepositTransaction, ...]:
    """Inverse of encode_deposit, for each blob in turn, with no call per
    blob. `_DEPOSIT_HEAD` fixes every range `DepositTransaction.__init__`
    checks (a u64 block, a u32 index, 20-byte addresses, a u128 value, a u64
    gas limit), so only the intrinsic-gas check runs, inline, and
    `_check_intrinsic_gas` is called only to word a refusal. Each deposit
    and its addresses are built in C."""
    deposits = []
    for blob in blobs:
        if len(blob) < 80:
            raise EncodingError(f"encoded deposit too short: {len(blob)} bytes")
        l1_block, l1_index, sender, recipient, value, gas_limit, data_len = _DEPOSIT_HEAD.unpack_from(blob)
        if len(blob) != 80 + data_len:
            raise EncodingError(f"encoded deposit length mismatch: {len(blob)} != {80 + data_len}")
        if gas_limit < BASE_TX_GAS:  # `_check_intrinsic_gas`'s rule, inline
            _check_intrinsic_gas(gas_limit)  # words the refusal
        dep = object.__new__(DepositTransaction)
        dep.l1_block = l1_block
        dep.l1_index = l1_index
        dep.sender = bytes.__new__(Address, sender)
        dep.recipient = bytes.__new__(Address, recipient)
        dep.value = int.from_bytes(value, "big")
        dep.data = blob[80:]
        dep.gas_limit = gas_limit
        dep._id = None
        deposits.append(dep)
    return tuple(deposits)


def tx_hash(tx: SignedTransaction) -> TxHash:
    """SHA-256 of the canonical encoding; any field change changes the hash.
    Computed once per transaction object and memoized on it."""
    h = tx._hash
    if h is None:
        h = tx._hash = bytes.__new__(TxHash, hashlib.sha256(canonical_encode(tx)).digest())  # a digest is 32 bytes
    return h


# Deposits are identified in a separate hash domain so a deposit id can never
# collide with a regular transaction hash.
_DEPOSIT_DOMAIN = b"\x01"


def deposit_id(dep: DepositTransaction) -> TxHash:
    h = dep._id
    if h is None:
        h = dep._id = bytes.__new__(TxHash, hashlib.sha256(_DEPOSIT_DOMAIN + encode_deposit(dep)).digest())
    return h


def tx_id(tx: AnyTransaction) -> TxHash:
    return deposit_id(tx) if isinstance(tx, DepositTransaction) else tx_hash(tx)


def max_cost(tx: SignedTransaction) -> int:
    """The most a transaction can take from its sender: value + gas_limit * max_fee."""
    return tx.value + tx.gas_limit * tx.max_fee


def duplicate_key(tx: SignedTransaction) -> DuplicateKey:
    """Project a transaction onto the identity used to recognize resubmissions."""
    return DuplicateKey(sender=tx.sender, recipient=tx.recipient, data=tx.data, value=tx.value)


def _block_head(block: Block) -> bytes:
    """The head `block_hash` and `encode_block` open with: the block's first
    five fields (number, parent hash, timestamp, base fee, epoch) and its
    deposit count."""
    return _BLOCK_HEAD.pack(*block[:5], len(block.deposits))


def block_hash(block: Block) -> bytes:
    """Digest linking blocks into a chain (the next block's parent_hash): of
    the head, each deposit id, the transaction count, each transaction hash
    and the state root."""
    txs = block.transactions
    return hashlib.sha256(b"".join((
        _block_head(block), *map(deposit_id, block.deposits), len(txs).to_bytes(4, "big"), *map(tx_hash, txs),
        block.state_root,
    ))).digest()


def encode_block(block: Block) -> bytes:
    """Full byte image of a block, used to compare chains bit-exactly: the
    head, each deposit's encoding, the transaction count, each transaction's
    encoding, each encoding after its 4-byte length, and the state root."""
    parts = [_block_head(block)]
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
