"""The trace writer and the streaming reader: the compiled encoder against the
stdlib encoder, round trips, malformed lines, laziness."""

import io
import json
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ledgersim.broadcast import MessageKind
from ledgersim.checker import run_all_checks
from ledgersim.cli import build_config, load_scenario
from ledgersim.netsim import run
from ledgersim.trace import _shape_encoder, dump_record, read_trace, write_trace

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))


def scenario_records(path):
    return run(build_config(load_scenario(str(path)))).records


def written(records):
    buf = io.StringIO()
    write_trace(records, buf)
    return buf.getvalue()


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_written_trace_reads_back_as_the_records(path):
    records = scenario_records(path)
    assert list(read_trace(io.StringIO(written(records)))) == records


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_streamed_check_matches_the_in_memory_check(path):
    records = scenario_records(path)
    streamed = run_all_checks(read_trace(io.StringIO(written(records))))
    assert streamed == run_all_checks(records)


A = '{"kind":"CONFIG","n":4}'
B = '{"idx":1,"kind":"END"}'


@pytest.mark.parametrize(
    "text,expected",
    [
        (f"{A}\n\n{B}\n", [json.loads(A), json.loads(B)]),
        (f"{A}\n  \t \n\n{B}", [json.loads(A), json.loads(B)]),
        (f"{A}   \n\t{B}  \r\n", [json.loads(A), json.loads(B)]),
        ("", []),
    ],
    ids=["blank-line", "whitespace-only-line", "padded-lines", "empty"],
)
def test_reader_skips_blank_lines_and_accepts_padding(text, expected):
    assert list(read_trace(io.StringIO(text))) == expected


@pytest.mark.parametrize(
    "line,phrase",
    [
        (A + B, "Extra data: line 2 column 24"),
        (A + " " + B, "Extra data: line 2 column 24"),
        ('{"kind":"CONFIG",\n"n":4}', "Expecting property name .*: line 2 column 18"),
        (A[:-3], "Expecting ':' delimiter: line 2 column 21"),
        ("1", "not a JSON object: line 2"),
        ("[1,2]", "not a JSON object: line 2"),
        ('"CONFIG"', "not a JSON object: line 2"),
        ("null", "not a JSON object: line 2"),
        ("\f" + A, "Expecting value: line 2 column 1"),
        ("not json", "Expecting value: line 2 column 1"),
    ],
    ids=["two-objects", "two-objects-spaced", "split-object", "truncated", "number",
         "array", "string", "null", "form-feed", "not-json"],
)
def test_reader_rejects_a_malformed_line(line, phrase):
    with pytest.raises(ValueError, match=phrase):
        list(read_trace(io.StringIO(f"{B}\n{line}\n{B}\n")))


def test_reader_is_lazy():
    lines = io.StringIO(f"{A}\n{B}\n{{oops\n{B}\n")
    records = read_trace(lines)
    assert next(records) == json.loads(A)
    assert next(records) == json.loads(B)
    with pytest.raises(ValueError, match="line 3 column 2"):
        next(records)


# The reference: what a written trace line must equal, byte for byte.
REFERENCE = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class Level(IntEnum):
    LOW = -1
    HIGH = 2**70


class LoudInt(int):
    def __str__(self):
        return "loud"

    __repr__ = __str__


class LoudStr(str):
    def __str__(self):
        return "loud"


TRICKY_KEYS = [
    "", '"', "\\", "{", "}", "{}", '"}', ":", ",", "\u00e9", "\u65e5\u672c", "\U0001f600",
    "\n", "\x00", "\x7f", "tick", "p0", "k0", "v0", "record", "{p0}", "{k0!r}",
    "') or __import__('os').system('true') #", "\"; raise SystemExit; \"", "lambda: 0",
]
keys = st.one_of(st.sampled_from(TRICKY_KEYS), st.text(max_size=6))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1f)),
    st.sampled_from(list(MessageKind) + list(Level)),
    st.builds(LoudInt, st.integers()),
    st.builds(LoudStr, st.text(max_size=4)),
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=8,
)
records = st.dictionaries(keys, values, max_size=8)


def encoded_or_error(encode, record):
    try:
        return encode(record)
    except (TypeError, ValueError) as exc:
        return type(exc)


@settings(deadline=None)
@given(st.lists(records, max_size=6))
def test_writer_matches_the_stdlib_encoder(batch):
    for record in batch:
        assert dump_record(record) == REFERENCE.encode(record)
    buf = io.StringIO()
    write_trace(batch, buf)
    assert buf.getvalue() == "".join(REFERENCE.encode(r) + "\n" for r in batch)


@settings(deadline=None)
@given(st.dictionaries(st.one_of(keys, st.integers(), st.booleans(), st.none(),
                                 st.floats()), values, max_size=4))
def test_non_string_keys_encode_or_fail_like_the_stdlib(record):
    assert encoded_or_error(dump_record, record) == encoded_or_error(REFERENCE.encode, record)


@settings(deadline=None)
@given(st.lists(keys, min_size=1, max_size=4, unique=True),
       st.lists(st.lists(values, min_size=4, max_size=4), min_size=2, max_size=6))
def test_a_shape_assumes_nothing_about_its_values(shape, rows):
    for row in rows:
        record = dict(zip(shape, row))
        assert dump_record(record) == REFERENCE.encode(record)


odd_ints = st.one_of(
    st.booleans(), st.sampled_from(list(Level)), st.builds(LoudInt, st.integers()),
    st.floats(allow_nan=True, allow_infinity=True), st.none(), st.text(max_size=3),
)
int_lists = st.lists(st.integers(), max_size=6)
# lists of exact ints and lists of them, with now and then one odd item or
# level of nesting; nested dicts with keys the encoder must sort or reject
list_values = st.one_of(
    int_lists,
    st.lists(int_lists, max_size=4),
    st.lists(st.one_of(st.integers(), odd_ints), max_size=6),
    st.lists(st.one_of(int_lists, st.lists(st.one_of(st.integers(), odd_ints), max_size=3),
                       st.lists(int_lists, max_size=2), st.integers()), max_size=4),
    st.dictionaries(st.one_of(st.text(max_size=2), st.integers(), st.none(), st.booleans()),
                    st.one_of(int_lists, st.integers()), max_size=3),
    st.lists(st.builds(object), min_size=1, max_size=1),
)


@settings(deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(["B", "S", "txid", "converted"]),
                                list_values, max_size=4), max_size=6))
def test_list_values_match_the_stdlib_encoder(batch):
    for record in batch:
        assert encoded_or_error(dump_record, record) == encoded_or_error(REFERENCE.encode, record)


def test_a_failed_value_does_not_spoil_the_next():
    # each failure leaves the encoder marking `value` as being encoded
    value = [[1, [2, 3]], [object()]]
    with pytest.raises(TypeError):
        dump_record({"v": value})
    value[1] = {1: 2, "a": 3}  # keys that cannot be sorted
    with pytest.raises(TypeError):
        dump_record({"v": value})
    value[1] = [4]
    assert dump_record({"v": value}) == REFERENCE.encode({"v": value})
    value.append(value)
    with pytest.raises(ValueError, match="Circular reference"):
        dump_record({"v": value})
    value.pop()
    assert dump_record({"v": value}) == REFERENCE.encode({"v": value})


def test_more_shapes_than_the_cache_holds():
    count = 2 * _shape_encoder.cache_info().maxsize + 1
    batch = [{f"k{i}": i, "kind": "SEND", "v": [i, None]} for i in range(count)]
    for _ in range(2):
        buf = io.StringIO()
        write_trace(batch, buf)
        assert buf.getvalue() == "".join(REFERENCE.encode(r) + "\n" for r in batch)
    assert _shape_encoder.cache_info().currsize <= _shape_encoder.cache_info().maxsize
