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
    "allgood.json": "6f3c76445544d9ea40eb69100e21502dce372d1d0418939e7d0f4907cc692602",
    "allgood_n7.json": "ee1ed12677168c38a20842519dbd391ab72f51662bbb7229c9b798e0b435837a",
    "bad_deps.json": "a05df0dca5f0a5751316e951afdab05157524d89624043f371831e45ada238c3",
    "equivocate.json": "613158bda639368345dde6a90301ec3a55a542c5882abe2820989ff18b36a65a",
    "freerider.json": "e6ff6a468f915d44a8f07c2da8821f887f8a7766758b2d71594eece941e687a5",
    "freerider_utility.json": "8ba79436687d6a43cd5069061bd963e8613f8428c3f59a5b64b43e04d4aecd9b",
    "lazy_exec.json": "13a1ce7c769cc9f66a9ce99230fc430b5d72d02fcc4e77d57020ef05701b77d7",
    "overdraft.json": "265e869b2ddfc300447c88734794cf83b0a0c846183a53190567ae228bd6f728",
    "silent.json": "069efc2816f728569641b76207e58ebb020027333a806c8614010c94a779e82e",
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden_digest(name, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    main(["run", str(SCENARIOS / name), "--trace", str(out)])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]
