"""Pluggable agent behaviors and the utility accounting built over traces.

The compliant behavior wires the broadcast layer and the ledger together
verbatim. Byzantine variants craft deviant traffic (equivocation, overdraft,
bad dependency references, silence); the rational variants deviate exactly
where a self-interested agent might: withholding echo/ready forwards on a
channel, or skipping execution of other agents' transactions.

Utility is recomputed purely from trace records: converted fee credits plus
net usable payments, minus a per-message cost for network sends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .broadcast import BroadcastMessage, ChannelState, MessageKind, SeqMismatch, Thresholds
from .ledger import ExecutionReport, InsufficientBalance, LedgerState
from .trace import TraceRecorder, tx_fields, txid_field
from .transaction import AgentId, Transaction, TxId


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
            spec.id, config.n, config.epsilon, config.initial_balance,
            condition3_strict=config.condition3_strict,
        )
        self.channels = {
            owner: ChannelState(owner, spec.id, thresholds)
            for owner in range(1, config.n + 1)
        }
        self.behavior = _BEHAVIORS[spec.kind](spec.params)
        self.pending: deque[dict] = deque()

    def on_action(self, action: dict) -> list[tuple[AgentId, BroadcastMessage]]:
        return self.behavior.on_action(self, action)

    def on_message(self, frm: AgentId, msg: BroadcastMessage) -> list[tuple[AgentId, BroadcastMessage]]:
        return self.behavior.on_message(self, frm, msg)

    # -- shared plumbing used by the behaviors ------------------------------

    def own_channel(self):
        return self.channels[self.id]

    def channel_free(self) -> bool:
        own = self.own_channel()
        return own.next_seq not in own.initial_sent

    def issue_pending(self, behavior: "CompliantBehavior") -> list:
        outputs: list = []
        while self.pending and self.channel_free():
            action = self.pending.popleft()
            minted = behavior.mint(self, action)
            if minted:
                outputs.extend(minted)
        return outputs

    def flush_channel_events(self, channel: AgentId) -> None:
        for event in self.channels[channel].drain_events():
            kind = event.pop("kind")
            self.recorder.emit(kind, agent=self.id, channel=channel, **event)

    def record_deliver(self, channel: AgentId, seq: int, tx: Transaction) -> None:
        self.recorder.emit(
            "RRB_DELIVER",
            agent=self.id,
            channel=channel,
            seq=seq,
            digest=tx.digest_hex,
            txid=txid_field(tx.id),
        )

    def record_execution(self, report: ExecutionReport) -> None:
        tx = report.tx
        self.recorder.emit(
            "EXECUTE",
            agent=self.id,
            verdict=report.verdict,
            dep_credit=report.dep_credit,
            converted=[txid_field(t) for t in report.converted],
            txid=txid_field(tx.id),
            tx=tx_fields(tx),
        )
        if not report.bad:
            self.recorder.emit(
                "COMMIT",
                agent=self.id,
                txid=txid_field(tx.id),
                recipient=tx.recipient,
                value=tx.value,
            )
        self.recorder.emit(
            "FEE_CREDIT", agent=self.id, txid=txid_field(tx.id), count=self.ledger.n
        )
        if report.converted:
            self.recorder.emit(
                "FEE_CONVERT",
                agent=self.id,
                initiator=tx.initiator,
                txid=txid_field(tx.id),
                converted=[txid_field(t) for t in report.converted],
            )
        self.recorder.emit("SNAPSHOT", **self.ledger.snapshot())


class CompliantBehavior:
    """Follows the protocol exactly; every other behavior derives from it."""

    def __init__(self, params: Mapping):
        self.params = dict(params)

    # hooks the deviations override
    def executes(self, stack: AgentStack, tx: Transaction) -> bool:
        return True

    def filter_outbound(self, stack: AgentStack, outputs: list) -> list:
        return outputs

    def mint(self, stack: AgentStack, action: dict):
        ledger = stack.ledger
        amount = int(action["amount"])
        convert = bool(action.get("convert_fees", False))
        if not self._viable(ledger, amount, convert):
            return None
        try:
            tx = ledger.pay(action["to"], amount, convert)
        except InsufficientBalance:
            return None
        return stack.own_channel().broadcast(tx)

    @staticmethod
    def _viable(ledger: LedgerState, amount: int, convert: bool) -> bool:
        # the protocol's own balance guard, plus: never mint a transaction
        # whose fee-cover check can never pass (it would stall the channel)
        me = ledger.self_id
        fee = ledger.n * ledger.epsilon
        if ledger.B[me] < amount + fee:
            return False
        live = len(ledger.F[me]) if convert else 0
        floor = ledger.n + 1 if ledger.condition3_strict else ledger.n
        return ledger.B[me] > fee or live >= floor

    def on_action(self, stack: AgentStack, action: dict) -> list:
        outputs: list = []
        if action.get("type", "pay") == "pay":
            stack.pending.append(action)
            outputs = stack.issue_pending(self)
        return self.filter_outbound(stack, outputs)

    def on_message(self, stack: AgentStack, frm: AgentId, msg: BroadcastMessage) -> list:
        channel = stack.channels[msg.channel]
        outcome = channel.on_receive(frm, msg)
        stack.flush_channel_events(msg.channel)
        outputs = list(outcome.outbound)
        for seq, tx in outcome.delivered:
            stack.record_deliver(msg.channel, seq, tx)
            if tx.initiator != msg.channel or tx.seq != seq:
                stack.recorder.emit(
                    "BYZ_EVIDENCE",
                    agent=stack.id,
                    channel=msg.channel,
                    seq=seq,
                    reason="payload-identity-mismatch",
                )
                continue
            if self.executes(stack, tx):
                # one delivery can execute several buffered transactions;
                # each SNAPSHOT must show the ledger right after its own
                stack.ledger.on_rrb_deliver(tx, stack.record_execution)
        if outcome.delivered:
            outputs.extend(stack.issue_pending(self))
        return self.filter_outbound(stack, outputs)


class SilentBehavior(CompliantBehavior):
    """Sends nothing, ever; the network still delivers what others send."""

    def on_action(self, stack, action):
        return []

    def on_message(self, stack, frm, msg):
        return []


class EquivocateBehavior(CompliantBehavior):
    """Emits two INITIALs with the same seq and different recipients/values."""

    def on_action(self, stack, action):
        if action.get("type", "pay") != "pay":
            return []
        own = stack.own_channel()
        seq = own.next_seq
        if seq in own.initial_sent:
            return []
        me = stack.id
        to = int(action["to"])
        amount = int(action["amount"])
        others = [i for i in sorted(stack.channels) if i != me]
        alt_to = int(self.params.get("alt_to", next(i for i in others if i != to)))
        alt_amount = int(self.params.get("alt_amount", amount + 1))
        tx_a = Transaction(me, to, amount, seq)
        tx_b = Transaction(me, alt_to, alt_amount, seq)
        alt_targets = self.params.get("alt_targets")
        if alt_targets is None:
            alt_targets = others[len(others) - len(others) // 3:]
        alt_targets = set(int(i) for i in alt_targets)
        own.initial_sent.add(seq)
        outputs = []
        for target in sorted(stack.channels):
            tx = tx_b if target in alt_targets else tx_a
            outputs.append((target, BroadcastMessage(me, MessageKind.INITIAL, seq, tx)))
        return outputs


class OverdraftBehavior(CompliantBehavior):
    """Broadcasts a payment its balance cannot cover; executes everywhere as bad."""

    def mint(self, stack, action):
        extra = int(self.params.get("extra", 100))
        value = stack.ledger.B[stack.id] + extra
        tx = Transaction(stack.id, int(action["to"]), value, stack.own_channel().next_seq)
        try:
            return stack.own_channel().broadcast(tx)
        except SeqMismatch:
            return None


class BadDepsBehavior(CompliantBehavior):
    """References a known-bad transaction in its dependency set."""

    def mint(self, stack, action):
        bad_ref = self.params.get("bad_ref")
        if bad_ref is not None:
            bad_ref = TxId(int(bad_ref[0]), int(bad_ref[1]))
        else:
            bad = sorted(t for t, r in stack.ledger.executed.items() if r.bad)
            bad_ref = bad[0] if bad else None
        if bad_ref is None:
            return super().mint(stack, action)
        tx = Transaction(
            stack.id,
            int(action["to"]),
            int(action["amount"]),
            stack.own_channel().next_seq,
            deps=frozenset({bad_ref}),
        )
        try:
            return stack.own_channel().broadcast(tx)
        except SeqMismatch:
            return None


class FreeriderBehavior(CompliantBehavior):
    """Consumes broadcast results but withholds echo/ready forwards.

    params: channels (required, list of channel ids), seqs (optional list;
    all sequences when absent). Withheld messages are stashed so a scripted
    backfill action can still satisfy the peers later.
    """

    def __init__(self, params):
        super().__init__(params)
        self.channels = set(int(c) for c in params.get("channels", []))
        seqs = params.get("seqs")
        self.seqs = None if seqs is None else set(int(s) for s in seqs)
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


# -- utility accounting ------------------------------------------------------


def as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, float):
        return Fraction(str(c))
    return Fraction(c)


def utility_breakdown(records: list[dict], agent: AgentId) -> dict:
    """Fee income, net usable payments, and send count, from the trace alone."""
    epsilon = 1
    fee_income = 0
    dep_credit = 0
    value_out = 0
    sends = 0
    for rec in records:
        kind = rec["kind"]
        if kind == "CONFIG":
            epsilon = rec["epsilon"]
        elif kind == "SEND" and rec["agent"] == agent:
            sends += 1
        elif (
            kind == "EXECUTE"
            and rec["agent"] == agent
            and rec["tx"]["initiator"] == agent
        ):
            dep_credit += rec["dep_credit"]
            fee_income += len(rec["converted"]) * epsilon
            if rec["verdict"] == "committed":
                value_out += rec["tx"]["value"]
    return {
        "fee_income": fee_income,
        "payments_net": dep_credit - value_out,
        "messages_sent": sends,
    }


def utility(records: list[dict], agent: AgentId, c) -> Fraction:
    parts = utility_breakdown(records, agent)
    return (
        Fraction(parts["fee_income"] + parts["payments_net"])
        - as_fraction(c) * parts["messages_sent"]
    )


def converted_credits(records: list[dict], agent: AgentId) -> set[TxId]:
    """Fee credits the agent turned into balance, per its own execution records."""
    out: set[TxId] = set()
    for rec in records:
        if (
            rec["kind"] == "FEE_CONVERT"
            and rec["agent"] == agent
            and rec["initiator"] == agent
        ):
            out.update(TxId(p, s) for p, s in rec["converted"])
    return out
