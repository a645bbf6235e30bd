"""Line-delimited run records: the format every checker consumes.

Records are JSON objects, one per line, strictly ordered by (tick, idx).
A CONFIG record opens every trace and an END record closes it, so a trace
file is self-describing for offline checking. All other kinds are events:

    SEND / RECV        network traffic (loopback self-messages are not traced)
    RRB_DELIVER        broadcast layer handed a payload to the ledger
    EXECUTE            ledger applied a transaction (carries the full payload)
    COMMIT             value moved into the recipient's payment buffer
    FEE_CREDIT         fee credits granted to every agent's buffer
    FEE_CONVERT        credits turned into balance for the initiator
    RETAL_BLOCK/UNBLOCK  outgoing gate closed/reopened toward a peer
    SNAPSHOT           full balance/sequence vectors of one agent
    BYZ_EVIDENCE       observed deviation, logged and never acted on
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from .transaction import Transaction, TxId

# json.dumps with non-default arguments builds a new encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def txid_field(txid: TxId | tuple) -> list[int]:
    return [int(txid[0]), int(txid[1])]


def tx_fields(tx: Transaction) -> dict:
    return {
        "initiator": tx.initiator,
        "recipient": tx.recipient,
        "value": tx.value,
        "seq": tx.seq,
        "deps": [txid_field(t) for t in sorted(tx.deps)],
        "fees": [txid_field(t) for t in sorted(tx.fees)],
    }


class TraceRecorder:
    """Appends records with a shared monotonic index; tick set by the loop."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.tick = 0
        self._idx = 0

    def emit(self, kind: str, **fields) -> dict:
        record = {"tick": self.tick, "idx": self._idx, "kind": kind}
        record.update(fields)
        self._idx += 1
        self.records.append(record)
        return record


def dump_record(record: dict) -> str:
    return _ENCODER.encode(record)


def write_trace(records: Iterable[dict], fp: IO[str]) -> None:
    for record in records:
        fp.write(dump_record(record))
        fp.write("\n")


def read_trace(fp: IO[str]) -> list[dict]:
    return [json.loads(line) for line in fp if line.strip()]
