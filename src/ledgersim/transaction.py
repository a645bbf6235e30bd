"""Wire-level transaction types and their canonical byte encoding.

The digest of the canonical encoding identifies a payload inside the
broadcast layer, so two transactions with the same (initiator, seq) but
different content hash differently.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

AgentId = int
Money = int
WIRE_MAX = 2**64 - 1  # the largest value an encoded 64-bit field holds


class TxId(NamedTuple):
    """(initiator, seq) pair; at most one executed transaction carries it."""

    initiator: AgentId
    seq: int


def canonical_encode(
    initiator: AgentId,
    recipient: AgentId,
    value: Money,
    seq: int,
    deps: Iterable[TxId],
    fees: Iterable[TxId],
) -> bytes:
    # Fixed field order, little-endian fixed-width integers, id sets sorted.
    parts = [struct.pack("<QQQQ", initiator, recipient, value, seq)]
    for group in (sorted(deps), sorted(fees)):
        parts.append(struct.pack("<I", len(group)))
        parts.extend(struct.pack("<QQ", p, s) for p, s in group)
    return b"".join(parts)


@dataclass(frozen=True)
class Transaction:
    initiator: AgentId
    recipient: AgentId
    value: Money
    seq: int
    deps: frozenset[TxId] = frozenset()
    fees: frozenset[TxId] = frozenset()
    digest: bytes = field(init=False, repr=False, compare=False)
    # the 16-hex-digit digest prefix every SEND, RECV and RRB_DELIVER record carries
    digest_hex: str = field(init=False, repr=False, compare=False)
    # (initiator, seq), built once: every agent's fee-credit set holds this object
    id: TxId = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "deps", frozenset(TxId(*t) for t in self.deps))
        object.__setattr__(self, "fees", frozenset(TxId(*t) for t in self.fees))
        raw = canonical_encode(
            self.initiator, self.recipient, self.value, self.seq, self.deps, self.fees
        )
        digest = hashlib.sha256(raw).digest()
        object.__setattr__(self, "digest", digest)
        object.__setattr__(self, "digest_hex", digest[:8].hex())
        object.__setattr__(self, "id", TxId(self.initiator, self.seq))
