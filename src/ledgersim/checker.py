"""Offline oracles over trace records.

Every check consumes the parsed record list and nothing else, so a trace
written to disk and read back verifies identically, and any other
implementation emitting the same record format can be validated against the
same checks. Liveness-flavored checks report UNKNOWN on non-quiescent runs
instead of failing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .transaction import Transaction, TxId

PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"


class MissingTx(Exception):
    pass


class CyclicDependency(Exception):
    pass


def dependency_closure(root: TxId, universe: Mapping[TxId, Transaction]) -> set[TxId]:
    """Everything that must execute before (or with) root.

    Least fixed point of: the root is in; for every member, its referenced
    payment/fee ids are in; and every same-initiator transaction with a lower
    or equal sequence number is in.
    """
    root = TxId(*root)
    if root not in universe:
        raise MissingTx(root)
    members = {root}
    frontier = [root]
    while frontier:
        vid = frontier.pop()
        v = universe[vid]
        required = set(v.deps) | set(v.fees)
        required.update(TxId(vid.initiator, k) for k in range(1, vid.seq))
        for t in required:
            if t not in universe:
                raise MissingTx(t)
            if t not in members:
                members.add(t)
                frontier.append(t)
    return members


def chain_height(root: TxId, universe: Mapping[TxId, Transaction]) -> int:
    """Length of the longest must-precede chain ending at root (1 if isolated)."""
    memo: dict[TxId, int] = {}

    def rec(t: TxId, active: set[TxId]) -> int:
        if t in memo:
            return memo[t]
        if t in active:
            raise CyclicDependency(t)
        active.add(t)
        members = dependency_closure(t, universe)
        if members == {t}:
            h = 1
        else:
            h = 1 + max(rec(u, active) for u in sorted(members - {t}))
        active.discard(t)
        memo[t] = h
        return h

    return rec(TxId(*root), set())


# -- trace access -------------------------------------------------------------


def _txid(raw) -> TxId:
    return TxId(int(raw[0]), int(raw[1]))


class TraceView:
    """Index over one run's records, built in one pass; checks share it.

    Every index holds references to the records, never copies.
    """

    def __init__(self, records: list[dict]):
        config = next((r for r in records if r["kind"] == "CONFIG"), None)
        if config is None:
            raise ValueError("trace has no CONFIG record")
        self.config = config
        self.n: int = config["n"]
        self.epsilon: int = config["epsilon"]
        self.initial_balance: int = config["initial_balance"]
        self.agent_kinds = {a["id"]: a["kind"] for a in config["agents"]}
        self.compliant = sorted(
            i for i, kind in self.agent_kinds.items() if kind == "COMPLIANT"
        )
        self.quiescent = False
        self.executes: dict[int, list[dict]] = {i: [] for i in self.agent_kinds}
        self.snapshots: dict[int, list[dict]] = {i: [] for i in self.agent_kinds}
        # each agent's EXECUTE and SNAPSHOT records, in trace order
        self.ledger_events: dict[int, list[dict]] = {i: [] for i in self.agent_kinds}
        # seqs each agent sent INITIALs for on its own channel
        self.own_initials: dict[int, set[int]] = {i: set() for i in self.agent_kinds}
        self.delivers: list[dict] = []
        for rec in records:
            kind = rec["kind"]
            if kind == "EXECUTE":
                self.executes[rec["agent"]].append(rec)
                self.ledger_events[rec["agent"]].append(rec)
            elif kind == "SNAPSHOT":
                self.snapshots[rec["agent"]].append(rec)
                self.ledger_events[rec["agent"]].append(rec)
            elif kind == "RRB_DELIVER":
                self.delivers.append(rec)
            elif kind == "SEND":
                if rec["mkind"] == "INITIAL" and rec["channel"] == rec["agent"]:
                    self.own_initials[rec["agent"]].add(rec["seq"])
            elif kind == "END":
                self.quiescent = bool(rec["quiescent"])

    def verdicts(self, agent: int) -> dict[TxId, str]:
        return {_txid(r["txid"]): r["verdict"] for r in self.executes[agent]}

    def final_balances(self, agent: int) -> list[int]:
        snaps = self.snapshots[agent]
        if snaps:
            return snaps[-1]["B"]
        return [self.initial_balance] * self.n


@dataclass(frozen=True)
class CheckReport:
    name: str
    status: str
    detail: str | None = None


def check_validity(view: TraceView) -> CheckReport:
    """Each compliant agent eventually executes every transaction it broadcast."""
    if not view.quiescent:
        return CheckReport("validity", UNKNOWN, "run not quiescent")
    for agent in view.compliant:
        executed = {
            r["tx"]["seq"] for r in view.executes[agent] if r["tx"]["initiator"] == agent
        }
        for seq in sorted(view.own_initials[agent]):
            if seq not in executed:
                return CheckReport(
                    "validity", FAIL, f"agent {agent} never executed own seq {seq}"
                )
    return CheckReport("validity", PASS)


def check_agreement(view: TraceView) -> CheckReport:
    """Compliant agents end with identical executions, verdicts, and balances."""
    if not view.quiescent:
        return CheckReport("agreement", UNKNOWN, "run not quiescent")
    if not view.compliant:
        return CheckReport("agreement", PASS)
    ref_agent = view.compliant[0]
    ref_verdicts = view.verdicts(ref_agent)
    ref_balances = view.final_balances(ref_agent)
    for agent in view.compliant[1:]:
        verdicts = view.verdicts(agent)
        for txid in sorted(set(ref_verdicts) | set(verdicts)):
            a = ref_verdicts.get(txid)
            b = verdicts.get(txid)
            if a != b:
                return CheckReport(
                    "agreement",
                    FAIL,
                    f"agents {ref_agent}/{agent} diverge on {tuple(txid)}: {a} vs {b}",
                )
        if view.final_balances(agent) != ref_balances:
            return CheckReport(
                "agreement", FAIL, f"agents {ref_agent}/{agent} hold different balances"
            )
    return CheckReport("agreement", PASS)


def check_integrity(view: TraceView) -> CheckReport:
    """At most one executed transaction per (initiator, seq), with one content."""
    content: dict[TxId, dict] = {}
    for agent in view.compliant:
        seen: set[TxId] = set()
        for rec in view.executes[agent]:
            txid = _txid(rec["txid"])
            if txid in seen:
                return CheckReport(
                    "integrity", FAIL, f"agent {agent} executed {tuple(txid)} twice"
                )
            seen.add(txid)
            known = content.setdefault(txid, rec["tx"])
            if known != rec["tx"]:
                return CheckReport(
                    "integrity", FAIL, f"two payloads executed for {tuple(txid)}"
                )
    return CheckReport("integrity", PASS)


def check_source_order(view: TraceView) -> CheckReport:
    """Every agent executes each initiator's transactions as seq 1, 2, 3, ..."""
    for agent in view.compliant:
        progress: dict[int, int] = {}
        for rec in view.executes[agent]:
            initiator = rec["tx"]["initiator"]
            expected = progress.get(initiator, 0) + 1
            if rec["tx"]["seq"] != expected:
                return CheckReport(
                    "source_order",
                    FAIL,
                    f"agent {agent} executed ({initiator},{rec['tx']['seq']}) "
                    f"but expected seq {expected}",
                )
            progress[initiator] = expected
    return CheckReport("source_order", PASS)


def check_no_debt(view: TraceView) -> CheckReport:
    for agent in sorted(view.agent_kinds):
        for snap in view.snapshots[agent]:
            low = min(snap["B"])
            if low < 0:
                return CheckReport(
                    "no_debt",
                    FAIL,
                    f"agent {agent} snapshot at tick {snap['tick']} holds balance {low}",
                )
    return CheckReport("no_debt", PASS)


def check_conservation(view: TraceView) -> CheckReport:
    """Replay every agent's balance updates and hold the money identity exact.

    At every snapshot: sum(B) + pending committed value + epsilon * live fee
    credits == n * initial_balance. Also re-derives each execution's balance
    delta and confirms it touched only the initiator's entry.
    """
    eps = view.epsilon
    total0 = view.n * view.initial_balance
    for agent in sorted(view.agent_kinds):
        pending_value = 0
        credit_count = 0
        prev_b = [view.initial_balance] * view.n
        pending_exec: dict | None = None
        for rec in view.ledger_events[agent]:
            if rec["kind"] == "EXECUTE":
                if pending_exec is not None:
                    return CheckReport(
                        "conservation", FAIL, f"agent {agent}: execute without snapshot"
                    )
                pending_exec = rec
                committed = rec["verdict"] == "committed"
                pending_value += (rec["tx"]["value"] if committed else 0) - rec["dep_credit"]
                credit_count += view.n - len(rec["converted"])
            else:
                balances = rec["B"]
                if pending_exec is None:
                    if balances != prev_b:
                        return CheckReport(
                            "conservation",
                            FAIL,
                            f"agent {agent}: balance change without execution",
                        )
                else:
                    tx = pending_exec["tx"]
                    delta = (
                        pending_exec["dep_credit"]
                        + len(pending_exec["converted"]) * eps
                        - (tx["value"] if pending_exec["verdict"] == "committed" else 0)
                        - view.n * eps
                    )
                    expected = list(prev_b)
                    expected[tx["initiator"] - 1] += delta
                    if balances != expected:
                        return CheckReport(
                            "conservation",
                            FAIL,
                            f"agent {agent}: executing {tuple(_txid(pending_exec['txid']))} "
                            f"changed balances beyond the initiator delta",
                        )
                    pending_exec = None
                if sum(balances) + pending_value + eps * credit_count != total0:
                    return CheckReport(
                        "conservation",
                        FAIL,
                        f"agent {agent}: identity broken at tick {rec['tick']}",
                    )
                prev_b = balances
    return CheckReport("conservation", PASS)


def check_rrb_uniqueness(view: TraceView) -> CheckReport:
    """Across compliant agents, one delivered digest per (channel, seq)."""
    seen: dict[tuple[int, int], str] = {}
    for rec in view.delivers:
        if view.agent_kinds.get(rec["agent"]) != "COMPLIANT":
            continue
        key = (rec["channel"], rec["seq"])
        digest = seen.setdefault(key, rec["digest"])
        if digest != rec["digest"]:
            return CheckReport(
                "rrb_uniqueness", FAIL, f"two digests delivered for {key}"
            )
    return CheckReport("rrb_uniqueness", PASS)


def check_dependency_closure(view: TraceView) -> CheckReport:
    """Each compliant agent's executed set is closed at every prefix.

    Checks each execution's direct requirements (its deps, its fees and the
    initiator's previous seq) against the executed prefix. That prefix is
    closed by induction, so this equals checking the full dependency_closure
    of every execution, in time linear in the trace.
    """
    for agent in view.compliant:
        executes = view.executes[agent]
        executed = {_txid(r["txid"]) for r in executes}
        done: set[TxId] = set()
        for rec in executes:
            txid = _txid(rec["txid"])
            required = rec["tx"]["deps"] + rec["tx"]["fees"]
            if txid.seq > 1:
                required = required + [(txid.initiator, txid.seq - 1)]
            for t in map(_txid, required):
                if t not in done:
                    # a transaction listing its own id lands here too: it
                    # can never be in the prefix that precedes it
                    why = f"with {t} missing" if t not in executed else f"before {tuple(t)}"
                    return CheckReport(
                        "dependency_closure", FAIL, f"agent {agent} executed {tuple(txid)} {why}"
                    )
            done.add(txid)
    return CheckReport("dependency_closure", PASS)


ALL_CHECKS = (
    check_validity,
    check_agreement,
    check_integrity,
    check_source_order,
    check_no_debt,
    check_conservation,
    check_rrb_uniqueness,
    check_dependency_closure,
)


def run_all_checks(records: list[dict]) -> list[CheckReport]:
    view = TraceView(records)
    return [check(view) for check in ALL_CHECKS]
