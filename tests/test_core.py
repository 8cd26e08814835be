import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from reference_core import (
    reference_block_hash, reference_canonical_decode, reference_canonical_encode, reference_decode_deposit,
    reference_encode_block, reference_encode_deposit,
)
from rollupsim.core import (
    Address,
    Block,
    DepositTransaction,
    EncodingError,
    SignedTransaction,
    StateRoot,
    TxHash,
    ZERO_ADDRESS,
    block_hash,
    canonical_decode,
    canonical_encode,
    decode_deposits,
    deposit_id,
    duplicate_key,
    encode_block,
    encode_deposit,
    tx_hash,
)

@st.composite
def encoded_blobs(draw):
    """Blobs in the canonical layout with every field drawn at random: any
    tag byte, a recipient of zeros or not, and a data length that may lie."""
    field = lambda size: draw(st.one_of(st.just(bytes(size)), st.binary(min_size=size, max_size=size)))
    max_fee = field(8)
    priority_fee = draw(st.sampled_from([bytes(8), max_fee, field(8)]))
    data = draw(st.binary(max_size=8))
    length = len(data) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return b"".join((
        field(8), bytes([draw(st.sampled_from([0, 1, 1, 2]))]), field(20), field(20), field(16),
        max_fee, priority_fee, draw(st.binary(min_size=8, max_size=8)), max(length, 0).to_bytes(4, "big"), data,
    ))


@st.composite
def encoded_deposit_blobs(draw):
    """Blobs in the deposit layout, drawn like `encoded_blobs`: a gas limit
    that may sit below the intrinsic cost and a data length that may lie."""
    data = draw(st.binary(max_size=8))
    length = len(data) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return b"".join((
        draw(st.binary(min_size=32, max_size=32)), draw(st.binary(min_size=20, max_size=20)),
        draw(st.binary(min_size=16, max_size=16)), draw(st.sampled_from([bytes(8), (21).to_bytes(8, "big"), b"\xff" * 8])),
        max(length, 0).to_bytes(4, "big"), data,
    ))


@st.composite
def damaged(draw, blobs):
    """A drawn blob as it is, cut short, or with one byte replaced."""
    blob = draw(blobs)
    how = draw(st.sampled_from(["whole", "truncated", "mutated"]))
    if how == "truncated" and blob:
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif how == "mutated" and blob:
        i = draw(st.integers(0, len(blob) - 1))
        blob = blob[:i] + bytes([draw(st.integers(0, 255))]) + blob[i + 1:]
    return blob


# Golden values derived by hand from the documented layout: the minimal
# all-zeros transaction (gas_limit 21) is 93 bytes, all zero except the
# gas_limit field.
GOLDEN_MINIMAL_LEN = 93
GOLDEN_MINIMAL_DIGEST = "fe443483038d08dd849fa08a91bccac172c2f767fc676c795f36af1e339bf362"


def minimal_tx(**overrides):
    fields = dict(
        sender=ZERO_ADDRESS,
        nonce=0,
        recipient=ZERO_ADDRESS,
        value=0,
        data=b"",
        max_fee=0,
        priority_fee=0,
        gas_limit=21,
    )
    fields.update(overrides)
    return SignedTransaction(**fields)


def addr(n: int) -> Address:
    return Address(n.to_bytes(20, "big"))


addresses = st.integers(min_value=0, max_value=2**160 - 1).map(addr)
u64 = st.integers(min_value=0, max_value=2**64 - 1)
u128 = st.integers(min_value=0, max_value=2**128 - 1)


@st.composite
def transactions(draw):
    max_fee = draw(u64)
    return SignedTransaction(
        sender=draw(addresses),
        nonce=draw(u64),
        recipient=draw(st.one_of(st.none(), addresses)),
        value=draw(u128),
        data=draw(st.binary(max_size=40)),
        max_fee=max_fee,
        priority_fee=draw(st.integers(min_value=0, max_value=max_fee)),
        gas_limit=draw(st.integers(min_value=21, max_value=2**64 - 1)),
    )


@st.composite
def deposits(draw, max_data=600):
    """Deposits over every field's full range, with data empty or long."""
    return DepositTransaction(
        l1_block=draw(u64),
        l1_index=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        sender=draw(addresses),
        recipient=draw(addresses),
        value=draw(u128),
        data=draw(st.one_of(st.just(b""), st.binary(max_size=max_data))),
        gas_limit=draw(st.integers(min_value=21, max_value=2**64 - 1)),
    )


@st.composite
def blocks(draw):
    """Blocks with 0-3 deposits and 0-3 transactions, a 32-byte parent and
    every head field over its full range."""
    digest = st.binary(min_size=32, max_size=32)
    return Block(
        number=draw(u64),
        parent_hash=draw(digest),
        timestamp=draw(u64),
        base_fee=draw(u64),
        epoch=draw(u64),
        deposits=tuple(draw(st.lists(deposits(max_data=40), max_size=3))),
        transactions=tuple(draw(st.lists(transactions(), max_size=3))),
        state_root=StateRoot(draw(digest)),
    )


class TestAddress:
    def test_rejects_wrong_length(self):
        with pytest.raises(EncodingError):
            Address(b"\x00" * 19)


class TestIdentifiers:
    @pytest.mark.parametrize("kind, width, message", [
        (Address, 20, "address must be 20 bytes, got {}"),
        (TxHash, 32, "tx hash must be 32 bytes, got {}"),
        (StateRoot, 32, "state root must be 32 bytes, got {}"),
    ])
    def test_identifiers_check_their_width_in_their_own_words(self, kind, width, message):
        for size in (0, width - 1, width + 1):
            with pytest.raises(EncodingError) as err:
                kind(bytes(size))
            assert str(err.value) == message.format(size)
        value = kind.from_hex("0x" + "ab" * width)
        assert type(value) is kind and value == kind.from_hex("ab" * width) == b"\xab" * width
        assert value.hex0x() == "0x" + "ab" * width

    def test_orders_lexicographically(self):
        assert addr(1) < addr(2) < addr(256)


class TestCanonicalEncode:
    def test_minimal_tx_golden_layout(self):
        expected = bytearray(GOLDEN_MINIMAL_LEN)
        expected[81:89] = (21).to_bytes(8, "big")
        assert canonical_encode(minimal_tx()) == bytes(expected)

    def test_identical_txs_encode_identically(self):
        assert canonical_encode(minimal_tx()) == canonical_encode(minimal_tx())

    def test_priority_fee_is_encoded(self):
        a = minimal_tx(max_fee=5, priority_fee=1)
        b = minimal_tx(max_fee=5, priority_fee=2)
        assert canonical_encode(a) != canonical_encode(b)

    def test_create_marker_differs_from_zero_recipient(self):
        assert canonical_encode(minimal_tx(recipient=None)) != canonical_encode(minimal_tx())

    @given(transactions())
    def test_round_trip(self, tx):
        assert canonical_decode(canonical_encode(tx)) == tx

    def test_decode_rejects_trailing_bytes(self):
        with pytest.raises(EncodingError):
            canonical_decode(canonical_encode(minimal_tx()) + b"\x00")

    def test_decode_rejects_a_create_that_carries_recipient_bytes(self):
        blob = bytearray(canonical_encode(minimal_tx(recipient=None)))
        blob[29:49] = b"\xab" * 20
        with pytest.raises(EncodingError, match="create transaction carries a recipient"):
            canonical_decode(bytes(blob))

    @given(encoded_blobs())
    def test_decoding_is_one_to_one(self, blob):
        """Every blob the decoder accepts is the one encoding of what it
        decodes to, so the blob's digest is the transaction's hash."""
        try:
            tx = canonical_decode(blob)
        except EncodingError:
            return
        assert canonical_encode(tx) == blob
        assert tx_hash(tx) == hashlib.sha256(blob).digest()


def decode_deposit(blob):
    """One blob through `decode_deposits`, which decodes a list of them."""
    return decode_deposits((blob,))[0]


def decoded(decode, blob):
    """What a decoder makes of a blob: the record with its field types and
    hash memo, or the message of the `EncodingError` it raises."""
    try:
        record = decode(blob)
    except EncodingError as exc:
        return "error", str(exc)
    memo = record._hash if isinstance(record, SignedTransaction) else record._id
    return record, [type(v) for v in record._values()], memo, type(memo)


def tx_blob(**fields) -> bytes:
    return canonical_encode(minimal_tx(**fields))


class TestDecodeOracle:
    """The one-struct decoders against the slicing ones in `reference_core`:
    an equal record with an equal hash memo, or the same error message."""

    @settings(max_examples=500, deadline=None)
    @given(damaged(encoded_blobs()))
    @example(tx_blob())
    @example(tx_blob(recipient=None, data=b"\x01\x02"))
    @example(tx_blob()[:92])
    @example(tx_blob()[:8] + b"\x02" + tx_blob()[9:])  # a bad recipient tag
    @example(tx_blob(recipient=None)[:29] + b"\xab" * 20 + tx_blob()[49:])  # a create that carries a recipient
    @example(tx_blob(max_fee=1)[:73] + (2).to_bytes(8, "big") + tx_blob()[81:])  # priority fee above max fee
    @example(tx_blob()[:81] + (20).to_bytes(8, "big") + tx_blob()[89:])  # gas below the intrinsic cost
    @example(tx_blob(data=b"\x01") + b"\x00")
    def test_canonical_decode_matches_reference(self, blob):
        assert decoded(canonical_decode, blob) == decoded(reference_canonical_decode, blob)

    @settings(max_examples=300, deadline=None)
    @given(damaged(encoded_deposit_blobs()))
    @example(bytes(79))
    @example(bytes(68) + (21).to_bytes(8, "big") + (1).to_bytes(4, "big") + b"\x07")
    def test_decode_deposit_matches_reference(self, blob):
        assert decoded(decode_deposit, blob) == decoded(reference_decode_deposit, blob)


class TestEncodingMemo:
    """The memoized encoder against `reference_core.reference_canonical_encode`,
    which joins every field anew: for a fresh transaction, a decoded one
    (whose memo the decoder seeds with its blob) and a `_replace`d copy of
    either (which starts without one)."""

    @settings(max_examples=300, deadline=None)
    @given(transactions(), u64)
    @example(minimal_tx(recipient=None, data=b"\x01\x02"), 0)
    def test_matches_the_reference(self, tx, fee):
        expected = reference_canonical_encode(tx)
        assert tx._blob is None
        assert canonical_encode(tx) == expected and type(canonical_encode(tx)) is bytes
        assert canonical_encode(tx) is canonical_encode(tx)
        assert tx_hash(tx) == hashlib.sha256(expected).digest()
        for blob in (expected, bytearray(expected)):
            decoded = canonical_decode(blob)
            assert decoded._blob == expected and type(decoded._blob) is bytes
            assert canonical_encode(decoded) == expected and decoded == tx
        for original in (tx, decoded):
            bumped = original._replace(max_fee=max(fee, tx.priority_fee), nonce=fee)
            assert bumped._blob is None
            assert canonical_encode(bumped) == reference_canonical_encode(bumped)
            assert tx_hash(bumped) == hashlib.sha256(reference_canonical_encode(bumped)).digest()


class TestTxHash:
    def test_golden_digest(self):
        assert tx_hash(minimal_tx()).hex() == GOLDEN_MINIMAL_DIGEST

    def test_sha256_of_encoding(self):
        tx = minimal_tx(nonce=7, value=123)
        assert tx_hash(tx) == hashlib.sha256(canonical_encode(tx)).digest()

    def test_fee_bump_changes_hash(self):
        assert tx_hash(minimal_tx(max_fee=1)) != tx_hash(minimal_tx(max_fee=2))

    def test_distinct_field_tuples_distinct_hashes(self):
        rng = random.Random(1234)
        seen = {}
        for _ in range(10_000):
            tx = minimal_tx(
                sender=addr(rng.randrange(2**160)),
                nonce=rng.randrange(2**32),
                value=rng.randrange(2**64),
                max_fee=rng.randrange(2**32),
                gas_limit=21 + rng.randrange(100),
            )
            key = (tx.sender, tx.nonce, tx.value, tx.max_fee, tx.gas_limit)
            h = tx_hash(tx)
            if h in seen:
                assert seen[h] == key
            seen[h] = key


class TestDuplicateKey:
    @given(transactions(), u64, u64)
    def test_invariant_under_nonce_and_fees(self, tx, nonce, fee):
        bumped = SignedTransaction(
            sender=tx.sender,
            nonce=nonce,
            recipient=tx.recipient,
            value=tx.value,
            data=tx.data,
            max_fee=fee,
            priority_fee=0,
            gas_limit=tx.gas_limit,
        )
        assert duplicate_key(tx) == duplicate_key(bumped)

    def test_differs_on_data(self):
        assert duplicate_key(minimal_tx(data=b"\x01")) != duplicate_key(minimal_tx(data=b"\x02"))

    def test_differs_on_recipient(self):
        assert duplicate_key(minimal_tx(recipient=addr(1))) != duplicate_key(minimal_tx(recipient=addr(2)))

    def test_nonce_excluded(self):
        assert duplicate_key(minimal_tx(nonce=1)) == duplicate_key(minimal_tx(nonce=2))


class TestValidation:
    def test_priority_above_max_rejected(self):
        with pytest.raises(EncodingError):
            minimal_tx(max_fee=1, priority_fee=2)

    def test_gas_below_intrinsic_rejected(self):
        with pytest.raises(EncodingError):
            minimal_tx(gas_limit=20)


class TestDeposits:
    def deposit(self, **overrides):
        fields = dict(
            l1_block=0,
            l1_index=0,
            sender=addr(5),
            recipient=addr(6),
            value=100,
            data=b"",
            gas_limit=21,
        )
        fields.update(overrides)
        return DepositTransaction(**fields)

    def test_round_trip(self):
        dep = self.deposit(data=b"\x01\x02")
        assert decode_deposit(encode_deposit(dep)) == dep

    def test_id_depends_on_position(self):
        assert deposit_id(self.deposit(l1_index=0)) != deposit_id(self.deposit(l1_index=1))

    def test_id_domain_separated_from_tx_hashes(self):
        dep = self.deposit()
        assert deposit_id(dep) != hashlib.sha256(encode_deposit(dep)).digest()


class TestLayoutOracle:
    """The deposit and block layouts, each packed through one `struct.Struct`,
    against the joining encoders and the field-by-field block hash kept in
    `reference_core`."""

    @settings(max_examples=300, deadline=None)
    @given(deposits())
    def test_encode_deposit_matches_reference(self, dep):
        blob = encode_deposit(dep)
        assert blob == reference_encode_deposit(dep) and type(blob) is bytes
        assert decode_deposit(blob) == dep

    @settings(max_examples=200, deadline=None)
    @given(blocks())
    def test_block_hash_and_image_match_reference(self, block):
        assert block_hash(block) == reference_block_hash(block)
        assert encode_block(block) == reference_encode_block(block)
