"""The shipped scenarios' traces hash to `GOLDEN` under every CPython 3.10+
on the machine and under any hash seed. With LEDGERSIM_WORKLOAD_TRACES=1
set, so do the 25 benchmark workload traces, against
`test_workload_golden.GOLDEN`; they take a few seconds per interpreter and
hash seed, so they are opt-in.

The interpreters are the paths in LEDGERSIM_PYTHONS (separated by
os.pathsep), else every build under ~/.pyenv/versions; the ones older than
CPython 3.10 are left out. Each subprocess imports ledgersim from this
checkout and nothing outside the stdlib.
"""

import os
import subprocess
from pathlib import Path

import pytest

from test_trace_golden import GOLDEN, SCENARIOS
from test_workload_golden import GOLDEN as WORKLOAD_GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
PYENV = Path.home() / ".pyenv" / "versions"

ELIGIBLE = "import sys; print(sys.implementation.name == 'cpython' and sys.version_info >= (3, 10))"
# argv: a scratch trace path, then the scenarios; prints "<name> <sha256>" per scenario
HASH_TRACES = """
import hashlib, sys
from pathlib import Path
from ledgersim.cli import main
out = sys.argv[1]
for scenario in sys.argv[2:]:
    main(["run", scenario, "--trace", out])
    print(Path(scenario).name, hashlib.sha256(Path(out).read_bytes()).hexdigest())
"""
# argv: bench/workloads.py, then "<workload>:<seed>" keys; prints "<key> <sha256>" per key
HASH_WORKLOADS = """
import hashlib, importlib.util, io, sys
from ledgersim.cli import build_config
from ledgersim.netsim import run
from ledgersim.trace import write_trace
spec = importlib.util.spec_from_file_location("workloads", sys.argv[1])
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
for key in sys.argv[2:]:
    name, seed = key.split(":")
    buf = io.StringIO()
    write_trace(run(build_config(workloads.scenario(name, int(seed)))).records, buf)
    print(key, hashlib.sha256(buf.getvalue().encode()).hexdigest())
"""


def candidates() -> list[str]:
    listed = os.environ.get("LEDGERSIM_PYTHONS")
    if listed is not None:
        return [p for p in listed.split(os.pathsep) if p]
    return [str(p) for p in sorted(PYENV.glob("*/bin/python3"))]


@pytest.fixture(scope="module")
def interpreters() -> list[str]:
    found = []
    for python in candidates():
        try:
            out = subprocess.run([python, "-c", ELIGIBLE], capture_output=True, text=True,
                                 timeout=60).stdout
        except OSError:
            continue
        if out.strip() == "True":
            found.append(python)
    if not found:
        pytest.skip(f"no CPython 3.10+ in LEDGERSIM_PYTHONS or under {PYENV}")
    return found


def differing_digests(interpreters, hash_seed, program, args, golden) -> dict:
    """Per interpreter, the "<key> <sha256>" lines `program` prints under
    `hash_seed` that differ from `golden`; interpreters that match are left out."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    differing = {}
    for python in interpreters:
        done = subprocess.run([python, "-c", program, *args], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, f"{python}: {done.stderr}"
        digests = dict(line.split() for line in done.stdout.splitlines())
        if digests != golden:
            differing[python] = {k: v for k, v in digests.items() if golden.get(k) != v}
    return differing


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_shipped_traces_hash_the_same_under_every_interpreter(interpreters, hash_seed, tmp_path):
    scenarios = [str(SCENARIOS / name) for name in sorted(GOLDEN)]
    args = [str(tmp_path / "trace.jsonl"), *scenarios]
    assert differing_digests(interpreters, hash_seed, HASH_TRACES, args, GOLDEN) == {}


@pytest.mark.skipif(os.environ.get("LEDGERSIM_WORKLOAD_TRACES") != "1",
                    reason="set LEDGERSIM_WORKLOAD_TRACES=1 to hash the 25 workload traces")
@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_workload_traces_hash_the_same_under_every_interpreter(interpreters, hash_seed):
    golden = {f"{name}:{seed}": digest for (name, seed), digest in WORKLOAD_GOLDEN.items()}
    args = [str(WORKLOADS), *golden]
    assert differing_digests(interpreters, hash_seed, HASH_WORKLOADS, args, golden) == {}
