"""Pinned trace digests of the benchmark workloads' seeded runs.

Each benchmark round runs fixed scenarios, built by `bench/workloads.py`:
wide_n16 seeds 1..3, long_n7 seeds 1..2 and hostile_n7 seeds 1..20. A
refactor must leave all of their traces byte-identical, as it must the
shipped scenarios' (`test_trace_golden.py`). The module is loaded from its
file and only read.

A change that alters a trace on purpose must say why and re-pin it with
`python3 bench/workloads.py NAME SEED > s.json; ledgersim run s.json --trace out.jsonl;
sha256sum out.jsonl`.

The format changed once on purpose: an EXECUTE is no longer followed by
COMMIT, FEE_CREDIT and FEE_CONVERT records, which only restated its fields.
`test_the_old_format_is_the_new_one_with_restated_records` shows that no fact
was lost by rebuilding the old traces from the new ones.
"""

import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from ledgersim.checker import run_all_checks
from ledgersim.cli import build_config, load_scenario
from ledgersim.netsim import run
from ledgersim.trace import write_trace
from test_trace_golden import GOLDEN as SCENARIO_GOLDEN, SCENARIOS

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN = {
    ("wide_n16", 1): "87bf58efc349fe42bf5fac605b6eb44fabd20b7e37bf0ccb8828792d67368bd8",
    ("wide_n16", 2): "b9c5efc575581ab79c260919c84a822ba0d52b6b109e43d1815af65cddb25c64",
    ("wide_n16", 3): "1a2bced285f376a7e33c16cde8457051bd3732eea2d3bd080e10f715499cc8f2",
    ("long_n7", 1): "b085381a1c97c175d683bdd7a7c684d200dc0b79e532822cfacc746240e35cbe",
    ("long_n7", 2): "949facb80f5c21d858ffb21731dc9c9d6575bdefab0ced81c7bdecf712ceff1e",
    ("hostile_n7", 1): "a12eb69baa948ff54a8e8d1c91a0ca172fabc88f1c849cdb504eabf3e5d0f81b",
    ("hostile_n7", 2): "77bb2d3923a49975440b615e53eeb27e591ece60928c967dad9a1b3f49f216a5",
    ("hostile_n7", 3): "3e87cef837f7042458626758d457b09071fbe576b3f1320c15a0f5148de20d0f",
    ("hostile_n7", 4): "793b01317772601a7666b916a567302f99de26888acefb133725c9211ba133ba",
    ("hostile_n7", 5): "c37b62050f925854a5f2aafdc2d8b735ed20c0459aa0a6c4cb82e66c317e81cd",
    ("hostile_n7", 6): "7aaf46f9b6913724d0267636f108df7d6f8c6f687097435efa68b465ee4de10d",
    ("hostile_n7", 7): "c5e59af8b4571173d17e85a9193bed98c88ca24c5c64aa910d9c10be3d54e4b5",
    ("hostile_n7", 8): "a51dbb51544f3a27a1547dbfcd4aea6a761b5475573049ffde5317169d2a7de3",
    ("hostile_n7", 9): "9f6e3bdca6c966b3d685492d78326ce7e7b8088f7007338b970b8726f1d837b5",
    ("hostile_n7", 10): "f9f34ae0e10c182cbfff3922983a1daeae2bb95b9e9bdfd437ade99a75f86102",
    ("hostile_n7", 11): "291283af3955f7ed083b200d72a22a3aadd2e46f65c2e224609eff461c6f0474",
    ("hostile_n7", 12): "c5c50a3f5bf69a4ccad53726e1a247997e8191ad7daaa27121cad2bad9870770",
    ("hostile_n7", 13): "87baf4ca42250860d9ecd8c855c9cc679e823e38759c6af044d89ee139a815df",
    ("hostile_n7", 14): "9b8e024d45e7c0074a35f39cc7c14868bd2f41e6b3d0900221e4fc96cbb7f792",
    ("hostile_n7", 15): "c346283e73b50e529e0afbf9749e5b6abaf906d045b81bf5b87af2bcf86ce161",
    ("hostile_n7", 16): "847a6431b626358c82f98dcf9353c82ff33ee5218dce1abf656393054e84173f",
    ("hostile_n7", 17): "ceecc8a654ec92ab8f6d84f926d36839feead460058b05bef2c12478bdbad0a6",
    ("hostile_n7", 18): "235aba3aa47ac1cf9ff6f79c2b2b357bb5c0467addd7f2df68de8fcec3843285",
    ("hostile_n7", 19): "24fb4ad5c741a2b1a5a818a2488b55a0a232d7e9768cd50a8e616bb0711368bb",
    ("hostile_n7", 20): "96b82fa8093c49e15e30788d1a856ccbfdfa47870468222d5f7110d1c052e428",
}

# SHA-256 over the raw digests of the shipped scenarios (sorted by name), then
# of the workload runs above, in that order: one figure for all 34 traces
COMBINED = "1cda51b19feaf116aa609c1d5fed915eae97a6c64a2c6daaefe8365133ee9c3d"
# the same digest over the 34 traces in the format before COMMIT, FEE_CREDIT
# and FEE_CONVERT were dropped
OLD_FORMAT_COMBINED = "356503ebb2e41357482cf63858c82f0c434b3ad8cac96327d588a45ff17864a4"


def trace_digest(records) -> bytes:
    buf = io.StringIO()
    write_trace(records, buf)
    return hashlib.sha256(buf.getvalue().encode()).digest()


def combined(digests) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()


def test_every_workload_run_is_pinned():
    assert list(GOLDEN) == [
        (name, seed)
        for name, (_n, _t, _payments, runs) in workloads.WORKLOADS.items()
        for seed in range(1, runs + 1)
    ]


def test_the_pins_give_the_combined_digest():
    digests = [SCENARIO_GOLDEN[name] for name in sorted(SCENARIO_GOLDEN)] + list(GOLDEN.values())
    assert combined(map(bytes.fromhex, digests)) == COMBINED


@pytest.mark.parametrize("workload,seed", list(GOLDEN), ids=[f"{w}-{s}" for w, s in GOLDEN])
def test_workload_trace_matches_golden_digest(workload, seed):
    records = run(build_config(workloads.scenario(workload, seed))).records
    assert trace_digest(records).hex() == GOLDEN[(workload, seed)]


def with_restated_records(records: list[dict]) -> list[dict]:
    """`records` in the old format: after each EXECUTE, the records it implies,
    at its tick, and every `idx` renumbered.

        COMMIT       agent, txid, recipient, value; committed verdicts only
        FEE_CREDIT   agent, txid, count = n
        FEE_CONVERT  agent, initiator, txid, converted; non-empty converted only
    """
    n = records[0]["n"]
    out = []
    for rec in records:
        out.append(rec)
        if rec["kind"] != "EXECUTE":
            continue
        tx = rec["tx"]
        base = {"agent": rec["agent"], "txid": rec["txid"], "tick": rec["tick"]}
        if rec["verdict"] == "committed":
            out.append(dict(base, kind="COMMIT", recipient=tx["recipient"], value=tx["value"]))
        out.append(dict(base, kind="FEE_CREDIT", count=n))
        if rec["converted"]:
            out.append(dict(base, kind="FEE_CONVERT", initiator=tx["initiator"],
                            converted=rec["converted"]))
    return [dict(rec, idx=idx) for idx, rec in enumerate(out)]


def test_the_old_format_is_the_new_one_with_restated_records():
    scenarios = [load_scenario(str(SCENARIOS / name)) for name in sorted(SCENARIO_GOLDEN)]
    scenarios += [workloads.scenario(workload, seed) for workload, seed in GOLDEN]
    new, old = [], []
    for raw in scenarios:
        records = run(build_config(raw)).records
        restated = with_restated_records(records)
        assert run_all_checks(restated) == run_all_checks(records)
        new.append(trace_digest(records))
        old.append(trace_digest(restated))
    assert combined(new) == COMBINED
    assert combined(old) == OLD_FORMAT_COMBINED
