"""Pinned trace digests of the benchmark workloads' seeded runs.

Each benchmark round runs fixed scenarios, built by `bench/workloads.py`:
wide_n16 seeds 1..3, long_n7 seeds 1..2 and hostile_n7 seeds 1..20. A
refactor must leave all of their traces byte-identical, as it must the
shipped scenarios' (`test_trace_golden.py`). The module is loaded from its
file and only read.

A change that alters a trace on purpose must say why and re-pin it with
`python3 bench/workloads.py NAME SEED > s.json; ledgersim run s.json --trace out.jsonl;
sha256sum out.jsonl`.
"""

import hashlib
import importlib.util
import io
from pathlib import Path

import pytest

from ledgersim.cli import build_config
from ledgersim.netsim import run
from ledgersim.trace import write_trace
from test_trace_golden import GOLDEN as SCENARIO_GOLDEN

_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN = {
    ("wide_n16", 1): "2799101bab3d803551e7ce8d425e2bced39680651f1f566412dfee0c3d46bf6d",
    ("wide_n16", 2): "4158b120ed1accc89bc1037fb979a925b11cda31c68edc781552d1468d1ded62",
    ("wide_n16", 3): "bda27b28a320baa4f858682e51a3668dc0d49164f071d4043895b4b5cf1a81d7",
    ("long_n7", 1): "c904589acd7d85108e60457a3fa7e7af850754713e230dc43e258a5846cfe0bf",
    ("long_n7", 2): "b2d9a1e75199127d03361099dfa98a88f11e743b324ab4be846df52802b94d6f",
    ("hostile_n7", 1): "1a26f8a78ce3bb3b01aa8f848aa589ae42d4bdde5110309afe93b4776c7f7fdc",
    ("hostile_n7", 2): "02e7c6e19afcd9ec23f527371f48040b25df121b46d457df1a77b04e5f1c79c9",
    ("hostile_n7", 3): "ae31a006ee10f6a4311424fc276fbcec4d797f878cd90666c24ae7f7fbc9d427",
    ("hostile_n7", 4): "bd507b818071fd886847b35a6891d9043e0b039ce67b7b13dcca0291bf5ae556",
    ("hostile_n7", 5): "814c5360331472d767bf887abcdd3a5ad772fca5a4aff3f281f4558731f3a196",
    ("hostile_n7", 6): "3dc22a9748ac3868d2cef7b2c358626405b41f4cbf1c48f01d3768225035b2bc",
    ("hostile_n7", 7): "2f39ba23bbd81c45723f9af61591f1f3c98e8309bd8de0827371684254583c59",
    ("hostile_n7", 8): "b7d1cdc6887b8949f6c0a36e2c0c1dcc955da542868f1392a31cb26e5644e428",
    ("hostile_n7", 9): "d9b6812abffc8c13388db9f9a24caa5a7dfa47fdede14d8622d25102ea5ed1f9",
    ("hostile_n7", 10): "4d1e469fc91a0a765d7420045a1e9de93505b28a84c3f5cedcca0ef2c0025e2d",
    ("hostile_n7", 11): "659a96c3ddad2f5e4ebd504d6e9226cf7f1d2d27cab84b9177ec5d3792ef3173",
    ("hostile_n7", 12): "be3a2dc81da120ac9494f618c0f90a493b7f4b1529aa4726836dae3bd264766c",
    ("hostile_n7", 13): "dafd47102c1137419525d6d2a9ccf4e6b1e495c39c2e88d5d3e3da851126c29f",
    ("hostile_n7", 14): "dee0b34d0586088f77c4ea2789b19f0958f4828af5f58364f7e15c7fea8554a2",
    ("hostile_n7", 15): "be20eee17e2322455323cbb8b9337491943efcf5b42d484e2e7b8303bcbba5cc",
    ("hostile_n7", 16): "184101529ad522ddb540a24df67ae7dc5e783cfd1d1e98d740f375ffcfdddb8e",
    ("hostile_n7", 17): "99529fac815e88e46efba11d8ad4b1a9397d6121b0207dcbf6e0e6bb9392a59b",
    ("hostile_n7", 18): "e8a3ee6a90e1e6c751b1a9d00d213fe43aef7172ff655df6136c4c286037e437",
    ("hostile_n7", 19): "8b6d5f2d57b0d62f387388f738190a76275e43f2919e0c9ea7606e3a09d97491",
    ("hostile_n7", 20): "730183c1fd812ee83af214d8920fedda6b3c3e0ecfa4c720ae273ece1754b424",
}

# SHA-256 over the raw digests of the shipped scenarios (sorted by name), then
# of the workload runs above, in that order: one figure for all 34 traces
COMBINED = "356503ebb2e41357482cf63858c82f0c434b3ad8cac96327d588a45ff17864a4"


def test_every_workload_run_is_pinned():
    assert list(GOLDEN) == [
        (name, seed)
        for name, (_n, _t, _payments, runs) in workloads.WORKLOADS.items()
        for seed in range(1, runs + 1)
    ]


def test_the_pins_give_the_combined_digest():
    digests = [SCENARIO_GOLDEN[name] for name in sorted(SCENARIO_GOLDEN)] + list(GOLDEN.values())
    raw = b"".join(bytes.fromhex(d) for d in digests)
    assert hashlib.sha256(raw).hexdigest() == COMBINED


@pytest.mark.parametrize("workload,seed", list(GOLDEN), ids=[f"{w}-{s}" for w, s in GOLDEN])
def test_workload_trace_matches_golden_digest(workload, seed):
    buf = io.StringIO()
    write_trace(run(build_config(workloads.scenario(workload, seed))).records, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN[(workload, seed)]
