"""Pinned trace digests: a refactor must leave every shipped scenario's trace
byte-identical, RETAL_BLOCK/UNBLOCK events and their order included.

A change that alters a trace on purpose must say why and re-pin the digest
with `ledgersim run scenarios/<name>.json --trace out.jsonl; sha256sum out.jsonl`.
"""

import hashlib
from pathlib import Path

import pytest

from ledgersim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    "allgood.json": "bdc6207dc84d1cd8ae610f0cdf1fa1be8e4594d611e8e78ad8990357b99ef453",
    "allgood_n7.json": "ffc03186a6c9453e25ef3203482bef7e464d39aea5ac66d66cd5d7b7f9ba76da",
    "bad_deps.json": "28e11e4e4f8d91ae112f2a1b40804607ab35bce452a5281178560c65d8aef456",
    "equivocate.json": "64fd73354c640334cc18214804d095866aa1b01711a2e71030cb2690479d8c99",
    "freerider.json": "7b9e4a8eaa27d394ff2a6bac73901b9deed8e298f725e4eca411050c61b68062",
    "freerider_utility.json": "b33bb9adece31f4456f5b1642cc0d241a72120c00bfaf6c6a2458a380ef38c0a",
    "lazy_exec.json": "98c596bf30794b88ecd82f5e338a4bc55a0b68e2ebdb6d31b7c3160923633586",
    "overdraft.json": "db5d5a25f50c6cb3899849ce9f10bb6aa843e8a7406db40cee95e6989ea7fc20",
    "silent.json": "62f2ad1f2a1686708a8db99843a48a756edd56b7be058d6a09027132ace2ed68",
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden_digest(name, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    main(["run", str(SCENARIOS / name), "--trace", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
