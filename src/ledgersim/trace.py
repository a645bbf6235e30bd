"""Line-delimited run records: the format every checker consumes.

Records are JSON objects, one per line, strictly ordered by (tick, idx).
A CONFIG record opens every trace and an END record closes it, so a trace
file is self-describing for offline checking. `read_trace` streams a written
file back one record at a time, so a reader never holds more of it than it
keeps. All other kinds are events, each written by the module named after
it, where it is decided (netsim writes CONFIG and END):

    SEND / RECV        network traffic, loopback self-messages untraced (netsim)
    RRB_DELIVER        broadcast layer handed a payload to the ledger (strategy)
    EXECUTE            ledger applied a transaction; payload, verdict,
                       dep_credit and converted state all that it did (ledger)
    RETAL_BLOCK/UNBLOCK  outgoing gate closed/reopened toward a peer (broadcast)
    SNAPSHOT           full balance/sequence vectors of one agent, at the start
                       and right after each EXECUTE (ledger)
    BYZ_EVIDENCE       observed deviation, logged and never acted on (broadcast;
                       strategy for a payload on another's channel or to no agent)
"""

from __future__ import annotations

import json
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import IO, Callable, Iterable, Iterator

from .transaction import Transaction, TxId

# json.dumps with non-default arguments builds a new encoder on every call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_DECODER = json.JSONDecoder()
# the whitespace JSON allows around a value; any other character is an error
_JSON_SPACE = " \t\n\r"
_MARKERS: dict = {}
# the C encoder `_ENCODER.encode` builds per call; None without the C extension
_NESTED = c_make_encoder and c_make_encoder(
    _MARKERS, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator,
    _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)


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

    def emit(self, kind: str, **fields) -> dict:
        """Record `fields` plus tick, idx and kind; the record is the `fields` dict.

        Its keys come in call order with tick, idx and kind last. Written
        traces sort keys, so that order never reaches a file.
        """
        fields["tick"] = self.tick
        fields["idx"] = len(self.records)
        fields["kind"] = kind
        self.records.append(fields)
        return fields


def _encode_value(value) -> str:
    """`_ENCODER.encode(value)` without building a C encoder per call.

    A failed call leaves its circular-reference markers behind, and a stale
    marker reads as a cycle later, so a cycle error clears them and leaves
    the verdict, and any error, to `_ENCODER.encode`.
    """
    try:
        return "".join(_NESTED(value, 0))
    except ValueError:
        _MARKERS.clear()
        return _ENCODER.encode(value)


@lru_cache(maxsize=256)
def _shape_encoder(shape: tuple) -> Callable[[dict], str]:
    """Compile `_ENCODER.encode` for dicts whose keys, in iteration order, are `shape`.

    The compiled function writes the keys sorted. Each call checks each value's
    type: an exact int is formatted inline, an exact str is escaped, and any
    other value goes through `_encode_value`, so a shape holds no assumption about
    its values. Keys and their encoded prefixes reach the code as arguments and
    never as source text, because records read back from a file also get here.
    A shape with a key that is not exactly a str keeps `_ENCODER.encode`.
    """
    if any(type(key) is not str for key in shape):
        return _ENCODER.encode
    args = {"esc": encode_basestring_ascii, "enc": _encode_value if _NESTED else _ENCODER.encode}
    lines, fields = [], ""
    for i, key in enumerate(sorted(shape)):
        args[f"k{i}"] = key
        args[f"p{i}"] = ("," if i else "") + encode_basestring_ascii(key) + ":"
        lines += [
            f"        v{i} = record[k{i}]",
            f"        if type(v{i}) is not int:",
            f"            v{i} = esc(v{i}) if type(v{i}) is str else enc(v{i})",
        ]
        fields += f"{{p{i}}}{{v{i}}}"
    source = "\n".join([
        f"def make({', '.join(args)}):",
        "    def encode(record):",
        *lines,
        f'        return f"{{{{{fields}}}}}"',  # the record's own braces, escaped
        "    return encode",
    ])
    namespace: dict = {}
    exec(source, {"__builtins__": {"type": type, "int": int, "str": str}}, namespace)
    return namespace["make"](**args)


def dump_record(record: dict) -> str:
    """One record as sorted-key compact JSON, the same text `_ENCODER.encode` gives."""
    return _shape_encoder(tuple(record))(record)


def write_trace(records: Iterable[dict], fp: IO[str]) -> None:
    # a line and its newline in two writes: one concatenated write per record
    # raised the benchmark's peak RSS by 2 MB on wide_n16
    write = fp.write
    for record in records:
        write(dump_record(record))
        write("\n")


def read_trace(fp: IO[str]) -> Iterator[dict]:
    """Yield the records of a written trace, one per non-blank line, lazily.

    Each line must hold exactly one JSON object, as `json.loads` would accept
    it; anything else raises ValueError naming the 1-based line number when
    the iteration reaches that line. Records before it have been yielded by
    then. A caller that needs a list writes `list(read_trace(fp))`.
    """
    decode = _DECODER.raw_decode
    for lineno, line in enumerate(fp, 1):
        text = line.strip(_JSON_SPACE)
        if not text:
            continue
        try:
            record, end = decode(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{exc.msg}: line {lineno} column {exc.colno}") from exc
        if end != len(text):
            raise ValueError(f"Extra data: line {lineno} column {end + 1}")
        if type(record) is not dict:
            raise ValueError(f"not a JSON object: line {lineno}")
        yield record
