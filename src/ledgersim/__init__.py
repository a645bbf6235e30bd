"""Seeded simulation lab for a consensus-free money-transfer protocol.

Agents exchange transactions over per-initiator reliable-broadcast channels
that retaliate against peers withholding echo/ready traffic; a replicated
fee-charging ledger executes what gets delivered. The simulator is fully
deterministic per (config, seed), every run yields a line-delimited trace,
and offline checkers verify validity, agreement, integrity, source order,
no-debt, conservation, and delivery uniqueness over that trace.
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
    dependency_closure,
    run_all_checks,
)
from .ledger import (
    AlreadyExecuted,
    ConditionsNotMet,
    ExecutionReport,
    InsufficientBalance,
    LedgerState,
)
from .netsim import ConfigInvalid, RunResult, ScriptAction, SimConfig, Simulator, run
from .strategy import (
    AgentSpec,
    AgentStack,
    StrategyKind,
    converted_credits,
    utility,
    utility_breakdown,
)
from .transaction import AgentId, Money, Transaction, TxId

__all__ = [
    "AgentId",
    "AgentSpec",
    "AgentStack",
    "AlreadyExecuted",
    "BroadcastMessage",
    "ChannelState",
    "CheckReport",
    "ConditionsNotMet",
    "ConfigInvalid",
    "CyclicDependency",
    "ExecutionReport",
    "InsufficientBalance",
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
