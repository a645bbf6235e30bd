import pytest

from ledgersim.transaction import Transaction, TxId, canonical_encode


def test_txid_orders_by_initiator_then_seq():
    ids = [TxId(2, 1), TxId(1, 2), TxId(1, 1)]
    assert sorted(ids) == [TxId(1, 1), TxId(1, 2), TxId(2, 1)]


def test_canonical_encoding_layout():
    raw = canonical_encode(1, 2, 5, 1, [], [])
    # four u64 fields then two empty u32-counted id lists
    assert len(raw) == 32 + 4 + 4
    assert raw[:8] == (1).to_bytes(8, "little")
    assert raw[8:16] == (2).to_bytes(8, "little")
    assert raw[16:24] == (5).to_bytes(8, "little")
    assert raw[24:32] == (1).to_bytes(8, "little")


def test_encoding_sorts_reference_sets():
    a = canonical_encode(1, 2, 5, 1, [TxId(3, 1), TxId(2, 9)], [])
    b = canonical_encode(1, 2, 5, 1, [TxId(2, 9), TxId(3, 1)], [])
    assert a == b


def test_digest_changes_with_any_field():
    base = Transaction(1, 2, 5, 1)
    assert base.digest != Transaction(1, 3, 5, 1).digest
    assert base.digest != Transaction(1, 2, 6, 1).digest
    assert base.digest != Transaction(1, 2, 5, 2).digest
    assert base.digest != Transaction(1, 2, 5, 1, deps=frozenset({TxId(3, 1)})).digest
    assert base.digest != Transaction(1, 2, 5, 1, fees=frozenset({TxId(3, 1)})).digest


def test_equal_content_hashes_equal():
    a = Transaction(1, 2, 5, 1, deps=frozenset({TxId(3, 1), TxId(4, 2)}))
    b = Transaction(1, 2, 5, 1, deps=frozenset({TxId(4, 2), TxId(3, 1)}))
    assert a.digest == b.digest
    assert a == b


def test_txid_property():
    tx = Transaction(3, 1, 0, 7)
    assert tx.id == TxId(3, 7)
    assert tx.digest_hex == tx.digest.hex()[:16]


def test_txid_is_built_once_and_left_out_of_equality():
    a, b = Transaction(3, 1, 0, 7), Transaction(3, 1, 0, 7)
    assert a.id is a.id
    assert a.id == TxId(3, 7) and type(a.id) is TxId
    assert a.id is not b.id
    assert a == b and hash(a) == hash(b)
    assert "id=" not in repr(a)


def test_rejects_nothing_but_is_plain_data():
    tx = Transaction(1, 2, 0, 1)
    with pytest.raises(Exception):
        tx.value = 5  # frozen
