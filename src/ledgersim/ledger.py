"""Replicated per-agent account state: payments, buffered execution, fees.

Each agent holds one LedgerState and applies every delivered transaction to
it. Execution is gated by three checks: source order (the initiator's
previous transaction executed), dependency closure (every referenced id
executed), and fee cover (the initiator's balance exceeds n*epsilon, or the
transaction converts enough live fee credits to pay the fee). A transaction
that executes but cannot fund its own transfer, or that references a bad
dependency, is marked bad: the fee is still charged, the value never moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .transaction import AgentId, Money, Transaction, TxId


class LedgerError(Exception):
    pass


class InsufficientBalance(LedgerError):
    pass


class AlreadyExecuted(LedgerError):
    pass


class ConditionsNotMet(LedgerError):
    pass


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
        condition3_strict: bool = False,
    ):
        agents = range(1, n + 1)
        self.self_id = self_id
        self.n = n
        self.epsilon = epsilon
        self.condition3_strict = condition3_strict
        self.B: dict[AgentId, Money] = {i: initial_balance for i in agents}
        self.S: dict[AgentId, int] = {i: 0 for i in agents}
        self.F: dict[AgentId, set[TxId]] = {i: set() for i in agents}
        self.Q: dict[AgentId, set[TxId]] = {i: set() for i in agents}
        self.ctr = 1
        self.exec_buffer: dict[TxId, Transaction] = {}
        self.executed: dict[TxId, ExecutionReport] = {}

    # -- initiating ---------------------------------------------------------

    def pay(self, recipient: AgentId, amount: Money, convert_fees: bool = False) -> Transaction:
        """Mint the next outgoing transaction; the caller broadcasts it.

        The referenced payment/fee buffers are consumed when the transaction
        executes (the membership guards in execute), not here: consuming them
        at mint time would skip the credits on this agent's own execution and
        leave its balance view below every peer's.
        """
        me = self.self_id
        if recipient == me:
            raise ValueError("self-payments are rejected")
        if recipient not in self.B:
            raise ValueError(f"unknown recipient {recipient}")
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if self.B[me] < amount + self.n * self.epsilon:
            raise InsufficientBalance(
                f"balance {self.B[me]} < {amount} + {self.n}*{self.epsilon}"
            )
        fees = frozenset(self.F[me]) if convert_fees else frozenset()
        tx = Transaction(me, recipient, amount, self.ctr, frozenset(self.Q[me]), fees)
        self.ctr += 1
        return tx

    # -- execution ----------------------------------------------------------

    def on_rrb_deliver(
        self, tx: Transaction, on_execute: Callable[[ExecutionReport], None] | None = None
    ) -> list[ExecutionReport]:
        """Buffer a delivered transaction and drain whatever became executable.

        on_execute, when given, sees each report right after its execution,
        while the ledger still shows that execution and none after it.
        """
        self.exec_buffer[tx.id] = tx
        return self.try_execute(on_execute)

    def conditions_met(self, tx: Transaction) -> bool:
        if self.S[tx.initiator] != tx.seq - 1:
            return False
        if any(t not in self.executed for t in tx.deps | tx.fees):
            return False
        # Fee cover counts only credits still live in the initiator's buffer:
        # an already-converted reference credits nothing at execution, so
        # counting it here could let the fee charge push the balance negative.
        live = sum(1 for t in tx.fees if t in self.F[tx.initiator])
        floor = self.n + 1 if self.condition3_strict else self.n
        return self.B[tx.initiator] > self.n * self.epsilon or live >= floor

    def execute(self, tx: Transaction) -> ExecutionReport:
        if tx.id in self.executed:
            raise AlreadyExecuted(tx.id)
        if not self.conditions_met(tx):
            raise ConditionsNotMet(tx.id)
        init = tx.initiator
        dep_credit = 0
        for t in sorted(tx.deps):
            if t in self.Q[init]:
                dep_credit += self.executed[t].tx.value
                self.Q[init].discard(t)
        self.B[init] += dep_credit
        converted = []
        for t in sorted(tx.fees):
            if t in self.F[init]:
                converted.append(t)
                self.F[init].discard(t)
        self.B[init] += len(converted) * self.epsilon
        bad = self.B[init] < tx.value + self.n * self.epsilon or any(
            self.executed[t].bad for t in tx.deps
        )
        if not bad:
            self.commit(tx)
        self.B[init] -= self.n * self.epsilon  # fee charged either way
        for j in self.F:
            self.F[j].add(tx.id)
        self.S[init] += 1
        self.exec_buffer.pop(tx.id, None)
        report = ExecutionReport(tx, bad, dep_credit, tuple(converted))
        self.executed[tx.id] = report
        return report

    def commit(self, tx: Transaction) -> None:
        """Move the value out of the initiator and buffer it for the recipient."""
        self.B[tx.initiator] -= tx.value
        self.Q[tx.recipient].add(tx.id)

    def try_execute(
        self, on_execute: Callable[[ExecutionReport], None] | None = None
    ) -> list[ExecutionReport]:
        """Execute buffered transactions to a fixpoint, ascending (initiator, seq)."""
        reports: list[ExecutionReport] = []
        progress = True
        while progress:
            progress = False
            for txid in sorted(self.exec_buffer):
                tx = self.exec_buffer[txid]
                if self.conditions_met(tx):
                    report = self.execute(tx)
                    reports.append(report)
                    if on_execute is not None:
                        on_execute(report)
                    progress = True
        return reports

    # -- reporting ----------------------------------------------------------

    def snapshot(self) -> dict:
        ids = sorted(self.B)
        return {
            "agent": self.self_id,
            "B": [self.B[i] for i in ids],
            "S": [self.S[i] for i in ids],
            "f_counts": [len(self.F[i]) for i in ids],
            "q_counts": [len(self.Q[i]) for i in ids],
        }
