"""Seeded simulation lab for a consensus-free money-transfer protocol.

Agents exchange transactions over per-initiator reliable-broadcast channels
that retaliate against peers withholding echo/ready traffic; a replicated
fee-charging ledger executes what gets delivered. The simulator is fully
deterministic per (config, seed), every run yields a line-delimited trace,
and offline checkers verify validity, agreement, integrity, source order,
no-debt, conservation, delivery uniqueness, dependency closure and delivery
provenance over that trace; each agent's utility is read from it too.
"""

from .broadcast import (
    BroadcastMessage,
    ChannelState,
    MessageKind,
    NotOwner,
    SeqMismatch,
    Thresholds,
    WrongChannel,
)
from .checker import (
    CheckReport,
    CyclicDependency,
    MissingTx,
    chain_height,
    converted_credits,
    dependency_closure,
    run_all_checks,
    utility,
    utility_breakdown,
)
from .ledger import ExecutionReport, LedgerState
from .netsim import ConfigInvalid, RunResult, ScriptAction, SimConfig, Simulator, run
from .strategy import AgentSpec, AgentStack, StrategyKind
from .transaction import AgentId, Money, Transaction, TxId

__all__ = [
    "AgentId",
    "AgentSpec",
    "AgentStack",
    "BroadcastMessage",
    "ChannelState",
    "CheckReport",
    "ConfigInvalid",
    "CyclicDependency",
    "ExecutionReport",
    "LedgerState",
    "MessageKind",
    "MissingTx",
    "Money",
    "NotOwner",
    "RunResult",
    "ScriptAction",
    "SeqMismatch",
    "SimConfig",
    "Simulator",
    "StrategyKind",
    "Thresholds",
    "Transaction",
    "TxId",
    "WrongChannel",
    "chain_height",
    "converted_credits",
    "dependency_closure",
    "run",
    "run_all_checks",
    "utility",
    "utility_breakdown",
]
