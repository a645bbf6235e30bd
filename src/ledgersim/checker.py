"""Offline oracles over trace records.

`TraceView` folds one pass over any iterable of records, a list in memory or
`trace.read_trace` streaming a file. It keeps no record: of each EXECUTE,
SNAPSHOT and RRB_DELIVER it keeps the fields the oracles read, column by
column, with each distinct payload stored once. Each field's rule sits where
the fold reads it, and a record that breaks one is rejected there, naming the
record and the field. Every check reads that view and nothing else, so a
trace written to disk and read back verifies identically, and any other
implementation emitting the same record format can be validated against the
same checks. Liveness-flavored checks report UNKNOWN on non-quiescent runs
instead of failing them. The utility accounting reads the same view.
"""

from __future__ import annotations

import hashlib
import reprlib
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .strategy import StrategyKind
from .transaction import AgentId, Transaction, TxId, canonical_encode

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


# a kind no strategy has would exempt its agent from the compliant-only checks
_STRATEGY_KINDS = frozenset(StrategyKind)  # str-valued, so a JSON string finds its member


class _BadField(Exception):
    """A field the fold read breaks its rule: (field, what it must be, value)."""


def _pair(raw) -> tuple[int, int]:
    """An EXECUTE's `txid`, a JSON [int, int], as a tuple."""
    if type(raw) is list and len(raw) == 2:
        a, b = raw
        if type(a) is int and type(b) is int:
            return a, b
    raise _BadField("txid", "an [int, int] pair", raw)


def _pairs(raw) -> tuple[tuple[int, int], ...]:
    """An EXECUTE's `converted`, a JSON list of [int, int] pairs, as a tuple."""
    try:
        if type(raw) is list:
            return tuple(map(_pair, raw))
    except _BadField:  # an entry is no pair
        pass
    raise _BadField("converted", "a list of [int, int] pairs", raw)


def _payload(tx, n: int) -> tuple:
    """An EXECUTE's `tx` as (initiator, recipient, value, seq, deps, fees).

    It must have exactly these six fields: a seventh would be dropped here,
    and two payloads that differ in it would compare equal. Its initiator
    must be an agent, 1..n, because conservation indexes balances by it.
    """
    try:
        if type(tx) is dict and len(tx) == 6:
            initiator, recipient, value, seq = (
                tx["initiator"], tx["recipient"], tx["value"], tx["seq"])
            if type(initiator) is int and 0 < initiator <= n and type(recipient) is int \
                    and type(value) is int and type(seq) is int:
                return initiator, recipient, value, seq, _pairs(tx["deps"]), _pairs(tx["fees"])
    except (KeyError, _BadField):  # other fields than these six, or deps or fees no pairs
        pass
    raise _BadField("tx", "six fields: integer initiator, recipient, value and seq, and deps and "
                    f"fees as lists of [int, int] pairs, with initiator in 1..{n}", tx)


class Facts:
    """Facts of one kind, stored as parallel lists, one per field, so that
    keeping a fact allocates no object of its own. Iterating yields each fact
    as a tuple of its fields, in the order they were added."""

    __slots__ = ("columns",)

    def __init__(self, width: int):
        self.columns = tuple([] for _ in range(width))

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return zip(*self.columns)


class Snapshots(Facts):
    """(tick, B) facts; the balances of all snapshots sit in one flat list."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        super().__init__(2)
        self.n = n

    def __iter__(self):
        ticks, balances = self.columns
        return zip(ticks, zip(*[iter(balances)] * self.n))


class TraceView:
    """Facts from one run's records, folded in one pass; the checks share them.

    The first record must be CONFIG, with one agent object per id 1..n. The
    view keeps no record and no list or dict from one: each record it indexes
    becomes a fact of exactly the fields the checks read, and every other
    record (RECV, RETAL_BLOCK, ...) is dropped as soon as it is read, a SEND
    after moving its agent's count.

        EXECUTE      (idx, txid, verdict, dep_credit, converted, payload)
        SNAPSHOT     (tick, B)
        RRB_DELIVER  (idx, agent, channel, seq, digest)

    A payload is (initiator, recipient, value, seq, deps, fees). A txid and
    each entry of converted, deps and fees is an (initiator, seq) pair, and
    B is a tuple of one balance per agent. `executes`, `snapshots` and
    `delivers` store the facts column by column (see `Facts`) and yield them
    as these tuples. Each distinct pair, converted tuple, payload, verdict
    and digest is stored once and shared by every agent that executes or
    delivers it.

    Each field's rule is tested where the fold reads it, so every value a
    check indexes by is known good: a missing field, a field of the wrong
    type or shape, an agent absent from CONFIG, an agent kind that names no
    `StrategyKind` or a payload initiator outside 1..n raises ValueError
    naming the record, by its place in the stream, and the field. `kind` and a
    SEND's `mkind` only choose what the fold does: a kind it does not index is
    skipped and a SEND that is no INITIAL only counted, whatever the value.
    """

    def __init__(self, records: Iterable[dict]):
        records = iter(records)
        rec = next(records, None)
        if rec is None:
            raise ValueError("trace is empty")
        if rec.get("kind") != "CONFIG":
            raise ValueError(f"record 0 ({rec.get('kind')}) comes first, not CONFIG")
        # every rule below raises _BadField, and only a field read raises KeyError
        pos = 0  # the record's place in the stream, which is its idx in a well-formed trace
        try:
            if type(n := rec["n"]) is not int:
                raise _BadField("n", "an integer", n)
            if type(epsilon := rec["epsilon"]) is not int:
                raise _BadField("epsilon", "an integer", epsilon)
            if type(initial_balance := rec["initial_balance"]) is not int:
                raise _BadField("initial_balance", "an integer", initial_balance)
            self.n, self.epsilon, self.initial_balance = n, epsilon, initial_balance
            if type(agents := rec["agents"]) is not list or not set(map(type, agents)) <= {dict}:
                raise _BadField("agents", "a list of objects", agents)
            self.agent_kinds: dict[int, str] = {}
            for k, a in enumerate(agents):
                if type(agent := a["id"]) is not int:
                    raise _BadField(f"agents[{k}].id", "an integer", agent)
                if type(kind := a["kind"]) is not str or kind not in _STRATEGY_KINDS:
                    raise _BadField(f"agents[{k}].kind", "one of " + ", ".join(StrategyKind), kind)
                self.agent_kinds[agent] = kind
            if len(agents) != n or sorted(self.agent_kinds) != list(range(1, n + 1)):
                raise _BadField("agents[].id", f"1..{n}, each once", [a["id"] for a in agents])
            self.compliant = sorted(
                i for i, kind in self.agent_kinds.items() if kind == "COMPLIANT")
            self.quiescent = False
            self.executes: dict[int, Facts] = {i: Facts(6) for i in self.agent_kinds}
            self.snapshots: dict[int, Snapshots] = {i: Snapshots(n) for i in self.agent_kinds}
            # per agent, True for each EXECUTE and False for each SNAPSHOT, in trace order
            self._ledger_order: dict[int, list[bool]] = {i: [] for i in self.agent_kinds}
            # seqs each agent sent INITIALs for on its own channel
            self.own_initials: dict[int, set[int]] = {i: set() for i in self.agent_kinds}
            self.sends: dict[int, int] = dict.fromkeys(self.agent_kinds, 0)
            self.delivers = Facts(5)
            agent_kinds, sends, own_initials = self.agent_kinds, self.sends, self.own_initials
            executes, snapshots, ledger_order = self.executes, self.snapshots, self._ledger_order
            deliver_idxs, deliver_agents, deliver_channels, deliver_seqs, deliver_digests = \
                self.delivers.columns
            share = {}.setdefault  # share(v, v) is the first stored value equal to v
            for pos, rec in enumerate(records, 1):
                kind = rec["kind"]
                if kind == "RECV":
                    continue
                if kind == "SEND":
                    if type(agent := rec["agent"]) is not int:
                        raise _BadField("agent", "an agent id", agent)
                    try:  # the count's own lookup tests that the agent is in CONFIG
                        sends[agent] += 1
                    except KeyError:
                        raise _BadField("agent", "an agent id", agent) from None
                    if rec["mkind"] == "INITIAL":
                        if type(channel := rec["channel"]) is not int:
                            raise _BadField("channel", "an integer", channel)
                        if channel == agent:
                            if type(seq := rec["seq"]) is not int:
                                raise _BadField("seq", "an integer", seq)
                            own_initials[agent].add(seq)
                elif kind == "EXECUTE":
                    if type(agent := rec["agent"]) is not int or agent not in agent_kinds:
                        raise _BadField("agent", "an agent id", agent)
                    if type(idx := rec["idx"]) is not int:
                        raise _BadField("idx", "an integer", idx)
                    txid = _pair(rec["txid"])
                    if type(verdict := rec["verdict"]) is not str:
                        raise _BadField("verdict", "a string", verdict)
                    if type(credit := rec["dep_credit"]) is not int:
                        raise _BadField("dep_credit", "an integer", credit)
                    converted, payload = _pairs(rec["converted"]), _payload(rec["tx"], n)
                    idxs, txids, verdicts, credits, converteds, payloads = executes[agent].columns
                    idxs.append(idx)
                    txids.append(share(txid, txid))
                    verdicts.append(share(verdict, verdict))
                    credits.append(credit)
                    converteds.append(share(converted, converted))
                    payloads.append(share(payload, payload))
                    ledger_order[agent].append(True)
                elif kind == "SNAPSHOT":
                    if type(agent := rec["agent"]) is not int or agent not in agent_kinds:
                        raise _BadField("agent", "an agent id", agent)
                    if type(tick := rec["tick"]) is not int:
                        raise _BadField("tick", "an integer", tick)
                    if type(balances := rec["B"]) is not list or len(balances) != n \
                            or not set(map(type, balances)) <= {int}:
                        raise _BadField("B", "a list of one integer per agent", balances)
                    ticks, flat = snapshots[agent].columns
                    flat.extend(balances)
                    ticks.append(tick)
                    ledger_order[agent].append(False)
                elif kind == "RRB_DELIVER":
                    if type(agent := rec["agent"]) is not int or agent not in agent_kinds:
                        raise _BadField("agent", "an agent id", agent)
                    if type(idx := rec["idx"]) is not int:
                        raise _BadField("idx", "an integer", idx)
                    if type(channel := rec["channel"]) is not int:
                        raise _BadField("channel", "an integer", channel)
                    if type(seq := rec["seq"]) is not int:
                        raise _BadField("seq", "an integer", seq)
                    if type(digest := rec["digest"]) is not str:
                        raise _BadField("digest", "a string", digest)
                    deliver_idxs.append(idx)
                    deliver_agents.append(agent)
                    deliver_channels.append(channel)
                    deliver_seqs.append(seq)
                    deliver_digests.append(share(digest, digest))
                elif kind == "END":
                    if type(quiescent := rec["quiescent"]) is not bool:
                        raise _BadField("quiescent", "true or false", quiescent)
                    self.quiescent = quiescent
        except (KeyError, _BadField) as exc:
            where = f"record {pos} ({rec.get('kind')})"
            if type(exc) is KeyError:
                raise ValueError(f"{where} has no field {exc.args[0]!r}") from None
            field, what, value = exc.args
            if field != "agent":
                raise ValueError(
                    f"{where} field {field!r} must be {what}, got {reprlib.repr(value)}"
                ) from None
            why = "absent from CONFIG" if type(value) is int else "not an agent id"
            raise ValueError(f"{where} names agent {value!r}, {why}") from None

    def ledger_events(self, agent: int) -> Iterator[tuple]:
        """The agent's EXECUTE (six fields) and SNAPSHOT (two) facts, in trace order."""
        executes, snapshots = iter(self.executes[agent]), iter(self.snapshots[agent])
        for is_execute in self._ledger_order[agent]:
            yield next(executes) if is_execute else next(snapshots)

    def verdicts(self, agent: int) -> dict[tuple[int, int], str]:
        _, txids, verdicts, _, _, _ = self.executes[agent].columns
        return dict(zip(txids, verdicts))

    def final_balances(self, agent: int) -> tuple[int, ...]:
        balances = self.snapshots[agent].columns[1]
        return tuple(balances[-self.n:]) if balances else (self.initial_balance,) * self.n


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
        executed = {tx[3] for _, _, _, _, _, tx in view.executes[agent] if tx[0] == agent}
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
                    "agreement", FAIL, f"agents {ref_agent}/{agent} diverge on {txid}: {a} vs {b}"
                )
        if view.final_balances(agent) != ref_balances:
            return CheckReport(
                "agreement", FAIL, f"agents {ref_agent}/{agent} hold different balances"
            )
    return CheckReport("agreement", PASS)


def check_integrity(view: TraceView) -> CheckReport:
    """At most one executed transaction per (initiator, seq), with one content."""
    content: dict[tuple[int, int], tuple] = {}
    for agent in view.compliant:
        seen: set[tuple[int, int]] = set()
        for _, txid, _, _, _, tx in view.executes[agent]:
            if txid in seen:
                return CheckReport("integrity", FAIL, f"agent {agent} executed {txid} twice")
            seen.add(txid)
            if content.setdefault(txid, tx) != tx:
                return CheckReport("integrity", FAIL, f"two payloads executed for {txid}")
    return CheckReport("integrity", PASS)


def check_source_order(view: TraceView) -> CheckReport:
    """Every agent executes each initiator's transactions as seq 1, 2, 3, ..."""
    for agent in view.compliant:
        progress: dict[int, int] = {}
        for _, _, _, _, _, (initiator, _, _, seq, _, _) in view.executes[agent]:
            expected = progress.get(initiator, 0) + 1
            if seq != expected:
                return CheckReport(
                    "source_order",
                    FAIL,
                    f"agent {agent} executed ({initiator},{seq}) but expected seq {expected}",
                )
            progress[initiator] = expected
    return CheckReport("source_order", PASS)


def check_no_debt(view: TraceView) -> CheckReport:
    for agent in sorted(view.agent_kinds):
        for tick, balances in view.snapshots[agent]:
            low = min(balances)
            if low < 0:
                return CheckReport(
                    "no_debt", FAIL, f"agent {agent} snapshot at tick {tick} holds balance {low}"
                )
    return CheckReport("no_debt", PASS)


def check_conservation(view: TraceView) -> CheckReport:
    """Replay every agent's balance updates exactly.

    Each agent's expected balances start at initial_balance. Each execution
    adds its delta, dep_credit + epsilon * (len(converted) - n) - value if
    committed, to its initiator's entry alone; every snapshot must equal
    that vector, and one must follow every execution, the last included.

    That holds the money identity, sum(B) + pending committed value +
    epsilon * live fee credits == n * initial_balance, at every snapshot
    without summing it: an execution adds value if committed - dep_credit
    to the pending value and n - len(converted) to the live credits, which
    is exactly what its delta takes from sum(B).
    """
    eps, n = view.epsilon, view.n
    for agent in sorted(view.agent_kinds):
        expected = [view.initial_balance] * n
        pending_exec: tuple | None = None
        for event in view.ledger_events(agent):
            if len(event) == 6:  # an EXECUTE
                if pending_exec is not None:
                    break
                pending_exec = event
                _, _, verdict, dep_credit, converted, tx = event
                expected[tx[0] - 1] += (dep_credit + (len(converted) - n) * eps
                                        - (tx[2] if verdict == "committed" else 0))
            elif event[1] != tuple(expected):
                why = ("balance change without execution" if pending_exec is None else
                       f"executing {pending_exec[1]} changed balances beyond the initiator delta")
                return CheckReport("conservation", FAIL, f"agent {agent}: {why}")
            else:
                pending_exec = None
        if pending_exec is not None:  # followed by another execution, or by nothing
            return CheckReport("conservation", FAIL, f"agent {agent}: execute without snapshot")
    return CheckReport("conservation", PASS)


def check_rrb_uniqueness(view: TraceView) -> CheckReport:
    """Across compliant agents, one delivered digest per (channel, seq)."""
    seen: dict[tuple[int, int], str] = {}
    kinds = view.agent_kinds
    for _, agent, channel, seq, digest in view.delivers:
        if kinds[agent] != "COMPLIANT":
            continue
        key = (channel, seq)
        if seen.setdefault(key, digest) != digest:
            return CheckReport("rrb_uniqueness", FAIL, f"two digests delivered for {key}")
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
        executed = {txid for _, txid, _, _, _, _ in executes}
        done: set[tuple[int, int]] = set()
        for _, txid, _, _, _, tx in executes:
            initiator, seq = txid
            required = tx[4] + tx[5]
            if seq > 1:
                required += ((initiator, seq - 1),)
            for t in required:
                if t not in done:
                    # a transaction listing its own id lands here too: it
                    # can never be in the prefix that precedes it
                    why = f"with {TxId(*t)} missing" if t not in executed else f"before {t}"
                    return CheckReport(
                        "dependency_closure", FAIL, f"agent {agent} executed {txid} {why}"
                    )
            done.add(txid)
    return CheckReport("dependency_closure", PASS)


def _payload_digest(tx: tuple) -> str | None:
    """The RRB_DELIVER digest of an executed payload; None if it cannot encode."""
    try:
        raw = canonical_encode(*tx)
    except struct.error:
        return None
    return hashlib.sha256(raw).digest()[:8].hex()


def check_delivery_provenance(view: TraceView) -> CheckReport:
    """Each compliant agent executes (i, s) only after its own RRB_DELIVER on
    channel i, seq s, and executes the payload whose digest it delivered."""
    first: dict[tuple[int, int, int], tuple] = {}
    for idx, agent, channel, seq, digest in view.delivers:
        first.setdefault((agent, channel, seq), (idx, digest))
    digests: dict[tuple[int, int], tuple] = {}  # one hash per payload
    for agent in view.compliant:
        for idx, txid, _, _, _, tx in view.executes[agent]:
            known = digests.get(txid)
            if known is None or known[0] != tx:
                known = digests[txid] = (tx, _payload_digest(tx))
            deliver = first.get((agent, *txid))
            if deliver is None or deliver[0] > idx:
                why = "without delivering it first"
            elif deliver[1] != known[1]:
                why = "with a payload it did not deliver"
            else:
                continue
            return CheckReport("delivery_provenance", FAIL, f"agent {agent} executed {txid} {why}")
    return CheckReport("delivery_provenance", PASS)


ALL_CHECKS = (
    check_validity,
    check_agreement,
    check_integrity,
    check_source_order,
    check_no_debt,
    check_conservation,
    check_rrb_uniqueness,
    check_dependency_closure,
    check_delivery_provenance,
)


def run_all_checks(records: Iterable[dict]) -> list[CheckReport]:
    view = TraceView(records)
    return [check(view) for check in ALL_CHECKS]


# -- utility accounting -------------------------------------------------------


def as_fraction(c) -> Fraction:
    """c exactly: a string as a fraction, a float through its shortest repr.
    A bool is no number here, although Fraction(True) is 1."""
    if isinstance(c, bool):
        raise TypeError(f"not a number: {c!r}")
    return Fraction(str(c) if isinstance(c, float) else c)


def utility_breakdown(view: TraceView, agent: AgentId) -> dict:
    """Fee income, net usable payments and send count, from the agent's own
    executions of its own transactions and its SENDs."""
    fee_income = payments_net = 0
    for _, _, verdict, dep_credit, converted, tx in view.executes[agent]:
        if tx[0] == agent:
            fee_income += len(converted) * view.epsilon
            payments_net += dep_credit
            if verdict == "committed":
                payments_net -= tx[2]
    return {"fee_income": fee_income, "payments_net": payments_net,
            "messages_sent": view.sends[agent]}


def utility(view: TraceView, agent: AgentId, c) -> Fraction:
    """Fee income plus net payments, minus c per message sent."""
    parts = utility_breakdown(view, agent)
    return parts["fee_income"] + parts["payments_net"] - as_fraction(c) * parts["messages_sent"]


def converted_credits(view: TraceView, agent: AgentId) -> set[TxId]:
    """Fee credits the agent turned into balance: the `converted` lists of its
    own executions of its own transactions."""
    return {
        TxId(*t)
        for _, _, _, _, converted, tx in view.executes[agent]
        if tx[0] == agent
        for t in converted
    }
