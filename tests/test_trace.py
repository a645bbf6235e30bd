"""The streaming trace reader: round trips, malformed lines, laziness."""

import io
import json
from pathlib import Path

import pytest

from ledgersim.checker import run_all_checks
from ledgersim.cli import build_config, load_scenario
from ledgersim.netsim import run
from ledgersim.trace import read_trace, write_trace

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
