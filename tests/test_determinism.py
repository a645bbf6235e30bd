"""The shipped scenarios' traces hash to `GOLDEN` under every CPython 3.10+
on the machine and under any hash seed.

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

SRC = Path(__file__).resolve().parents[1] / "src"
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


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_shipped_traces_hash_the_same_under_every_interpreter(interpreters, hash_seed, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    scenarios = [str(SCENARIOS / name) for name in sorted(GOLDEN)]
    differing = {}
    for python in interpreters:
        done = subprocess.run([python, "-c", HASH_TRACES, str(tmp_path / "trace.jsonl"),
                               *scenarios], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, f"{python}: {done.stderr}"
        digests = dict(line.split() for line in done.stdout.splitlines())
        if digests != GOLDEN:
            differing[python] = {k: v for k, v in digests.items() if GOLDEN.get(k) != v}
    assert differing == {}
