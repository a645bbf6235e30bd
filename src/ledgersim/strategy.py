"""Pluggable agent behaviors.

The compliant behavior wires the broadcast layer and the ledger together
verbatim. Byzantine variants craft deviant traffic (equivocation, overdraft,
bad dependency references, silence); the rational variants deviate exactly
where a self-interested agent might: withholding echo/ready forwards on a
channel, or skipping execution of other agents' transactions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Mapping

from .broadcast import BroadcastMessage, ChannelState, MessageKind, Thresholds
from .ledger import InsufficientBalance, LedgerState
from .trace import TraceRecorder, txid_field
from .transaction import WIRE_MAX, AgentId, Transaction, TxId


class StrategyKind(str, Enum):
    COMPLIANT = "COMPLIANT"
    BYZ_SILENT = "BYZ_SILENT"
    BYZ_EQUIVOCATE = "BYZ_EQUIVOCATE"
    BYZ_OVERDRAFT = "BYZ_OVERDRAFT"
    BYZ_BAD_DEPS = "BYZ_BAD_DEPS"
    RATIONAL_FREERIDER = "RATIONAL_FREERIDER"
    RATIONAL_LAZY_EXEC = "RATIONAL_LAZY_EXEC"


@dataclass(frozen=True)
class AgentSpec:
    id: AgentId
    kind: StrategyKind
    params: Mapping = field(default_factory=dict)


class AgentStack:
    """One simulated agent: ledger, one channel state per agent, a behavior."""

    def __init__(self, spec: AgentSpec, config, thresholds: Thresholds, recorder: TraceRecorder):
        self.id = spec.id
        self.spec = spec
        self.recorder = recorder
        self.ledger = LedgerState(
            spec.id, config.n, config.epsilon, config.initial_balance, recorder.emit,
            condition3_strict=config.condition3_strict,
        )
        self.channels = {
            owner: ChannelState(owner, spec.id, thresholds, recorder.emit)
            for owner in range(1, config.n + 1)
        }
        self.behavior = make_behavior(spec)
        self.pending: deque[dict] = deque()

    def on_action(self, action: dict) -> list[tuple[AgentId, BroadcastMessage]]:
        return self.behavior.on_action(self, action)

    def on_message(self, frm: AgentId, msg: BroadcastMessage) -> list[tuple[AgentId, BroadcastMessage]]:
        return self.behavior.on_message(self, frm, msg)

    # -- shared plumbing used by the behaviors ------------------------------

    def channel_free(self) -> bool:
        own = self.channels[self.id]
        return own.initiated < own.next_seq

    def issue_pending(self) -> list:
        """Mint and broadcast pending pays while the own channel is free; nothing else sends one."""
        own = self.channels[self.id]
        outputs: list = []
        while self.pending and self.channel_free():
            tx = self.behavior.mint(self, self.pending.popleft(), own.next_seq)
            if tx is not None:
                outputs.extend(own.broadcast(tx))
        return outputs

    def record_deliver(self, channel: AgentId, seq: int, tx: Transaction) -> None:
        self.recorder.emit(
            "RRB_DELIVER",
            agent=self.id,
            channel=channel,
            seq=seq,
            digest=tx.digest_hex,
            txid=txid_field(tx.id),
        )


def _natural(value) -> int:
    """An exact integer that fits the wire encoding's unsigned 64-bit fields;
    a bool, float or string is rejected, not rounded."""
    if type(value) is not int:
        raise TypeError("must be an integer")
    if not 0 <= value <= WIRE_MAX:
        raise ValueError("must be in 0..2**64-1")
    return value


def _naturals(value) -> set[int]:
    if not isinstance(value, (list, tuple)):
        raise TypeError("must be a list of integers")
    return {_natural(v) for v in value}


def _txid(value) -> TxId:
    initiator, seq = value
    return TxId(_natural(initiator), _natural(seq))


def _param(params: dict, key: str, convert, default=None):
    """params[key] through `convert`; `default` when absent or null. The key
    is popped, so what is left once the behavior is built was never read.

    Raises ValueError naming the key, so a scenario's bad params fail when
    the behavior is built, not mid-run.
    """
    value = params.pop(key, None)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}={value!r}: {exc}") from None


class CompliantBehavior:
    """Follows the protocol exactly; every other behavior derives from it."""

    def __init__(self, params: dict):
        """Convert the params the behavior reads; this one reads none."""

    # hooks the deviations override
    def executes(self, stack: AgentStack, tx: Transaction) -> bool:
        return True

    def filter_outbound(self, stack: AgentStack, outputs: list) -> list:
        return outputs

    def mint(self, stack: AgentStack, action: dict, seq: int) -> Transaction | None:
        """The payload to send as `seq` for a pay action, or None to drop it."""
        ledger = stack.ledger
        convert = bool(action.get("convert_fees", False))
        # never mint a transaction whose fee-cover check can never pass: it
        # would stall the channel
        if not ledger.fee_covered(stack.id, ledger.F[stack.id] if convert else ()):
            return None
        try:
            return ledger.pay(action["to"], int(action["amount"]), seq, convert)
        except InsufficientBalance:
            return None

    def on_action(self, stack: AgentStack, action: dict) -> list:
        outputs: list = []
        if action.get("type", "pay") == "pay":
            stack.pending.append(action)
            outputs = stack.issue_pending()
        return self.filter_outbound(stack, outputs)

    def on_message(self, stack: AgentStack, frm: AgentId, msg: BroadcastMessage) -> list:
        channel = stack.channels[msg.channel]
        outcome = channel.on_receive(frm, msg)
        outputs = outcome.outbound  # a fresh list per receipt, ours to extend
        if not outcome.delivered:
            return self.filter_outbound(stack, outputs)
        for seq, tx in outcome.delivered:
            stack.record_deliver(msg.channel, seq, tx)
            if tx.initiator != msg.channel or tx.seq != seq:
                fault = "payload-identity-mismatch"
            elif tx.recipient not in stack.channels:
                fault = "unknown-recipient"  # no ledger holds an account for it
            else:
                if self.executes(stack, tx):
                    stack.ledger.on_rrb_deliver(tx)
                continue
            stack.recorder.emit("BYZ_EVIDENCE", agent=stack.id, channel=msg.channel, seq=seq,
                                reason=fault)
        outputs.extend(stack.issue_pending())
        return self.filter_outbound(stack, outputs)


class SilentBehavior(CompliantBehavior):
    """Sends nothing, ever; the network still delivers what others send."""

    def on_action(self, stack, action):
        return []

    def on_message(self, stack, frm, msg):
        return []


class EquivocateBehavior(CompliantBehavior):
    """Emits two INITIALs with the same seq and different recipients/values.

    params: alt_to, alt_amount (the second payload's recipient and value;
    by default another agent and amount + 1, or amount - 1 where amount + 1
    would not fit the 64-bit wire field), alt_targets (the agents sent
    the second payload; by default the last third of the others). A pay
    that finds the channel busy is dropped, not queued.
    """

    def __init__(self, params):
        super().__init__(params)
        self.alt_to = _param(params, "alt_to", _natural)
        self.alt_amount = _param(params, "alt_amount", _natural)
        self.alt_targets = _param(params, "alt_targets", _naturals)

    def on_action(self, stack, action):
        return super().on_action(stack, action) if stack.channel_free() else []

    def mint(self, stack, action, seq):
        return Transaction(stack.id, int(action["to"]), int(action["amount"]), seq)

    def filter_outbound(self, stack, outputs):
        """Swap the second payload into the own INITIAL wave for alt_targets."""
        if not outputs or outputs[0][1].kind is not MessageKind.INITIAL:
            return outputs
        honest = outputs[0][1].payload
        others = [i for i in sorted(stack.channels) if i != stack.id]
        alt_to = self.alt_to
        if alt_to is None:
            alt_to = next(i for i in others if i != honest.recipient)
        alt_amount = self.alt_amount
        if alt_amount is None:
            alt_amount = honest.value + 1 if honest.value < WIRE_MAX else honest.value - 1
        alt_targets = self.alt_targets
        if alt_targets is None:
            alt_targets = set(others[len(others) - len(others) // 3:])
        alt = replace(outputs[0][1], payload=Transaction(stack.id, alt_to, alt_amount, honest.seq))
        return [(target, alt if target in alt_targets else msg) for target, msg in outputs]


class OverdraftBehavior(CompliantBehavior):
    """Broadcasts a payment its balance cannot cover; executes everywhere as bad.

    params: extra (how far the value exceeds the balance; default 100). The
    value is capped at WIRE_MAX, which still overdraws: SimConfig bounds the
    money supply, so no balance exceeds WIRE_MAX.
    """

    def __init__(self, params):
        super().__init__(params)
        self.extra = _param(params, "extra", _natural, 100)

    def mint(self, stack, action, seq):
        value = min(stack.ledger.B[stack.id] + self.extra, WIRE_MAX)
        return Transaction(stack.id, int(action["to"]), value, seq)


class BadDepsBehavior(CompliantBehavior):
    """References a known-bad transaction in its dependency set.

    params: bad_ref ([initiator, seq] to reference; by default the lowest
    transaction the agent has executed as bad).
    """

    def __init__(self, params):
        super().__init__(params)
        self.bad_ref = _param(params, "bad_ref", _txid)

    def mint(self, stack, action, seq):
        bad_ref = self.bad_ref
        if bad_ref is None:
            bad = sorted(t for t, r in stack.ledger.executed.items() if r.bad)
            bad_ref = bad[0] if bad else None
        if bad_ref is None:
            return super().mint(stack, action, seq)
        deps = frozenset({bad_ref})
        return Transaction(stack.id, int(action["to"]), int(action["amount"]), seq, deps=deps)


class FreeriderBehavior(CompliantBehavior):
    """Consumes broadcast results but withholds echo/ready forwards.

    params: channels (required, list of channel ids), seqs (optional list;
    all sequences when absent). Withheld messages are stashed so a scripted
    backfill action can still satisfy the peers later.
    """

    def __init__(self, params):
        super().__init__(params)
        self.channels = _param(params, "channels", _naturals, set())
        self.seqs = _param(params, "seqs", _naturals)
        self.stash: list[tuple[AgentId, BroadcastMessage]] = []

    def filter_outbound(self, stack, outputs):
        kept = []
        for to, msg in outputs:
            if (
                to != stack.id
                and msg.channel in self.channels
                and msg.kind in (MessageKind.ECHO, MessageKind.READY)
                and (self.seqs is None or msg.seq in self.seqs)
            ):
                self.stash.append((to, msg))
            else:
                kept.append((to, msg))
        return kept

    def on_action(self, stack, action):
        if action.get("type") == "backfill":
            released, self.stash = self.stash, []
            return released
        return super().on_action(stack, action)


class LazyExecBehavior(CompliantBehavior):
    """Skips executing other agents' transactions; its own view goes stale."""

    def executes(self, stack, tx):
        return tx.initiator == stack.id


_BEHAVIORS = {
    StrategyKind.COMPLIANT: CompliantBehavior,
    StrategyKind.BYZ_SILENT: SilentBehavior,
    StrategyKind.BYZ_EQUIVOCATE: EquivocateBehavior,
    StrategyKind.BYZ_OVERDRAFT: OverdraftBehavior,
    StrategyKind.BYZ_BAD_DEPS: BadDepsBehavior,
    StrategyKind.RATIONAL_FREERIDER: FreeriderBehavior,
    StrategyKind.RATIONAL_LAZY_EXEC: LazyExecBehavior,
}


def make_behavior(spec: AgentSpec) -> CompliantBehavior:
    """The behavior of `spec`; ValueError naming the param if one is bad or unknown."""
    params = dict(spec.params)  # each param the behavior reads is popped
    behavior = _BEHAVIORS[spec.kind](params)
    if params:
        raise ValueError(f"unknown params: {', '.join(sorted(params))}")
    return behavior

