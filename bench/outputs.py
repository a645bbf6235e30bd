"""Output checks that the benchmark applies to every seeded run.

They are computed apart from `ledgersim.checker`: from the in-memory ledgers
of the `RunResult`, from record counts, or by comparing the checker's own
verdicts on the in-memory and the re-read trace. Each returns a list of
problems; an empty list means the run's output is correct.
"""

from __future__ import annotations

import re

# The one checker failure the benchmark expects: the snapshot fault, where a
# delivery that executes several transactions is snapshotted only afterwards.
SNAPSHOT_FAULT = re.compile(
    r"agent (\d+): executing \(\d+, \d+\) changed balances beyond the initiator delta"
)


def compliant(result) -> list[int]:
    return sorted(i for i, a in result.agents.items() if a.spec.kind.value == "COMPLIANT")


def money_identity(result, n: int, initial_balance: int, epsilon: int) -> list[str]:
    """sum(B) + pending payments + epsilon * live fee credits == n * initial balance."""
    problems = []
    for i in compliant(result):
        led = result.agents[i].ledger
        pending = sum(led.executed[t].tx.value for q in led.Q.values() for t in q)
        credits = sum(len(f) for f in led.F.values())
        total = sum(led.B.values()) + pending + epsilon * credits
        if total != n * initial_balance:
            problems.append(f"agent {i}: money identity gives {total}, not {n * initial_balance}")
    return problems


def compliant_agree(result) -> list[str]:
    """All compliant agents end with equal balance and sequence vectors."""
    ids = compliant(result)
    problems = []
    for i in ids[1:]:
        for field in ("B", "S"):
            if getattr(result.agents[i].ledger, field) != getattr(result.agents[ids[0]].ledger, field):
                problems.append(f"agents {ids[0]}/{i} end with different {field}")
    return problems


def quiescent(result) -> list[str]:
    return [] if result.quiescent else [f"not quiescent after {result.steps} steps"]


def same_verdicts(in_memory, offline) -> list[str]:
    """The re-read trace checks exactly as the in-memory records do."""
    a = [(r.name, r.status, r.detail) for r in in_memory]
    b = [(r.name, r.status, r.detail) for r in offline]
    return [] if a == b else [f"offline verdicts {b} differ from in-memory {a}"]


def send_count(records, n: int) -> list[str]:
    """Every broadcast costs (n-1)(2n+1) sends when all agents comply."""
    sends = 0
    initials = set()
    for rec in records:
        if rec["kind"] == "SEND":
            sends += 1
            if rec["mkind"] == "INITIAL":
                initials.add((rec["channel"], rec["seq"]))
    expected = len(initials) * (n - 1) * (2 * n + 1)
    return [] if sends == expected else [f"{sends} sends, expected {expected}"]


def check_run(config, result, in_memory, offline) -> list[str]:
    problems = (
        quiescent(result)
        + money_identity(result, config.n, config.initial_balance, config.epsilon)
        + compliant_agree(result)
        + same_verdicts(in_memory, offline)
    )
    if len(compliant(result)) == config.n:
        problems += send_count(result.records, config.n)
    return problems


def checker_failures(result, reports) -> tuple[list[str], list[str]]:
    """Split the checker's non-PASS reports into the known fault and the rest.

    The snapshot fault is expected only on agents that are not compliant;
    anything else the checker rejects is a fault the benchmark does not know.
    """
    known, unknown = [], []
    kinds = {i: a.spec.kind.value for i, a in result.agents.items()}
    for r in reports:
        if r.status == "PASS":
            continue
        line = f"{r.name}: {r.status} {r.detail}"
        m = SNAPSHOT_FAULT.fullmatch(r.detail or "")
        if r.name == "conservation" and m and kinds[int(m.group(1))] != "COMPLIANT":
            known.append(line)
        else:
            unknown.append(line)
    return known, unknown
