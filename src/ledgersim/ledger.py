"""Replicated per-agent account state: payments, buffered execution, fees.

Each agent holds one LedgerState and applies every delivered transaction to
it. Execution is gated by three checks: source order (the initiator's
previous transaction executed), dependency closure (every referenced id
executed), and fee cover (the initiator's balance exceeds n*epsilon, or the
transaction converts enough live fee credits to pay the fee). A transaction
that executes but cannot fund its own transfer, or that references a bad
dependency, is marked bad: the fee is still charged, the value never moves.
It writes its own records: a SNAPSHOT when built, an EXECUTE then a SNAPSHOT per execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .trace import tx_fields, txid_field
from .transaction import AgentId, Money, Transaction, TxId


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of executing one transaction on one agent's ledger."""

    tx: Transaction
    bad: bool
    dep_credit: Money  # value credited from referenced incoming payments
    converted: tuple[TxId, ...]  # fee credits turned into balance

    @property
    def verdict(self) -> str:
        return "bad" if self.bad else "committed"


class LedgerState:
    def __init__(
        self,
        self_id: AgentId,
        n: int,
        epsilon: Money,
        initial_balance: Money,
        emit: Callable,
        condition3_strict: bool = False,
    ):
        agents = range(1, n + 1)
        self.self_id = self_id
        self.emit = emit  # emit(kind, **fields) appends one trace record
        self.n = n
        self.epsilon = epsilon
        self.condition3_strict = condition3_strict
        self.B: dict[AgentId, Money] = {i: initial_balance for i in agents}
        self.S: dict[AgentId, int] = {i: 0 for i in agents}
        self.F: dict[AgentId, set[TxId]] = {i: set() for i in agents}
        self.Q: dict[AgentId, set[TxId]] = {i: set() for i in agents}
        self.exec_buffer: dict[TxId, Transaction] = {}
        self.executed: dict[TxId, ExecutionReport] = {}
        emit("SNAPSHOT", **self.snapshot())

    # -- initiating ---------------------------------------------------------

    def pay(self, recipient: AgentId, amount: Money, seq: int,
            convert_fees: bool = False) -> Transaction | None:
        """The transaction `seq` paying `amount`, or None where it would not commit.

        It references every payment in Q and, with `convert_fees`, every fee
        credit in F; the funds are the balance plus their value. A payload
        whose fee-cover check fails would stall the channel. The prediction is
        exact: the previous own transaction has executed, so until this one
        executes B stays put and Q and F keep every id it references. execute
        consumes them then; consuming them here would skip its own credits.
        """
        me = self.self_id
        deps = frozenset(self.Q[me])
        fees = frozenset(self.F[me]) if convert_fees else frozenset()
        funds = (self.B[me] + sum(self.executed[t].tx.value for t in deps)
                 + len(fees) * self.epsilon)
        if funds < amount + self.n * self.epsilon or not self.fee_covered(me, fees):
            return None
        return Transaction(me, recipient, amount, seq, deps, fees)

    # -- execution ----------------------------------------------------------

    def on_rrb_deliver(self, tx: Transaction) -> list[ExecutionReport]:
        """Buffer a delivered transaction and drain whatever became executable;
        each execution writes its EXECUTE and SNAPSHOT records as it happens."""
        self.exec_buffer[tx.id] = tx
        return self.try_execute()

    def conditions_met(self, tx: Transaction) -> bool:
        if self.S[tx.initiator] != tx.seq - 1:
            return False
        done = self.executed.keys()
        if not (done >= tx.deps and done >= tx.fees):
            return False
        return self.fee_covered(tx.initiator, tx.fees)

    def fee_covered(self, initiator: AgentId, fees: Iterable[TxId]) -> bool:
        """The initiator's balance exceeds n*epsilon, or converting `fees` pays the fee.

        Only credits still live in the initiator's buffer count: an
        already-converted reference credits nothing at execution, so counting
        it could let the fee charge push the balance negative.
        """
        if self.B[initiator] > self.n * self.epsilon:
            return True
        live = len(self.F[initiator].intersection(fees))
        return live >= (self.n + 1 if self.condition3_strict else self.n)

    def execute(self, tx: Transaction) -> ExecutionReport:
        """Apply `tx`, which has just passed conditions_met."""
        init = tx.initiator
        credited = tx.deps & self.Q[init]  # payments to init that no execution credited yet
        self.Q[init] -= credited
        dep_credit = sum(self.executed[t].tx.value for t in credited)
        converted = tuple(sorted(tx.fees & self.F[init]))  # live fee credits, ascending
        self.F[init].difference_update(converted)
        self.B[init] += dep_credit + len(converted) * self.epsilon
        bad = (self.B[init] < tx.value + self.n * self.epsilon
               or any(self.executed[t].bad for t in tx.deps))
        if not bad:
            self.commit(tx)
        self.B[init] -= self.n * self.epsilon  # fee charged either way
        for credits in self.F.values():
            credits.add(tx.id)
        self.S[init] += 1
        self.exec_buffer.pop(tx.id, None)
        report = ExecutionReport(tx, bad, dep_credit, converted)
        self.executed[tx.id] = report
        self.emit("EXECUTE", agent=self.self_id, verdict=report.verdict, dep_credit=dep_credit,
                  converted=[txid_field(t) for t in converted], txid=txid_field(tx.id),
                  tx=tx_fields(tx))
        # the SNAPSHOT right after each EXECUTE is what check_conservation replays
        self.emit("SNAPSHOT", **self.snapshot())
        return report

    def commit(self, tx: Transaction) -> None:
        """Move the value out of the initiator and buffer it for the recipient."""
        self.B[tx.initiator] -= tx.value
        self.Q[tx.recipient].add(tx.id)

    def try_execute(self) -> list[ExecutionReport]:
        """Execute buffered transactions to a fixpoint, ascending (initiator, seq)."""
        reports: list[ExecutionReport] = []
        progress = True
        while progress:
            progress = False
            for txid in sorted(self.exec_buffer):
                tx = self.exec_buffer[txid]
                if self.conditions_met(tx):
                    reports.append(self.execute(tx))
                    progress = True
        return reports

    # -- reporting ----------------------------------------------------------

    def pending_value(self) -> Money:
        """The committed value in Q, moved out of its initiator and not yet credited."""
        return sum(self.executed[t].tx.value for q in self.Q.values() for t in q)

    def live_credits(self) -> int:
        """The fee credits in F, each worth epsilon once converted."""
        return sum(map(len, self.F.values()))

    def snapshot(self) -> dict:
        # every map was filled in agent order, 1..n, and never loses or gains a key
        return {
            "agent": self.self_id,
            "B": list(self.B.values()),
            "S": list(self.S.values()),
            "f_counts": list(map(len, self.F.values())),
            "q_counts": list(map(len, self.Q.values())),
        }
