"""Deterministic seeded discrete-event loop over reliable point-to-point links.

The network never loses, duplicates, or corrupts anything: every scheduled
message is delivered exactly once, between d_min and d_max virtual ticks
after it was sent. All misbehavior lives in agent strategies. Per-message
delays come from a keyed hash of the message identity, so one extra or
missing send never perturbs any other draw and same-seed counterfactual runs
stay comparable. Self-addressed messages loop back on the same tick.

Pending events live in a calendar queue: a FIFO list per tick plus a heap of
the ticks that have one. Script actions are queued first, a loopback joins
the end of the tick being run, and nothing is scheduled before `now`, so
events run in (tick, order of scheduling) without a per-event heap entry.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import dataclass, field, fields

from .broadcast import BroadcastMessage, MessageKind, Thresholds
from .checker import as_fraction
from .strategy import AgentSpec, AgentStack
from .trace import TraceRecorder
from .transaction import WIRE_MAX, AgentId, Money

_KIND_CODE = {MessageKind.INITIAL: 0, MessageKind.ECHO: 1, MessageKind.READY: 2}
# a plain dict lookup; the Enum `value` property runs Python code on every SEND and RECV
_MKIND = {kind: kind.value for kind in MessageKind}
_DELAY_FIELDS = struct.Struct("<QQQQB")


class ConfigInvalid(Exception):
    pass


def check_seed(seed: int) -> None:
    """A seed keys the delay hash as 8 bytes, so it must fit in 64 bits."""
    if not 0 <= seed < 2**64:
        raise ConfigInvalid(f"seed {seed} must fit in 64 bits")


@dataclass(frozen=True)
class ScriptAction:
    tick: int
    agent: AgentId
    action: dict


@dataclass
class SimConfig:
    n: int
    t: int
    epsilon: Money = 1
    initial_balance: Money = 1000
    seed: int = 0
    d_min: int = 1
    d_max: int = 1
    fifo_channels: bool = False
    condition3_strict: bool = False
    msg_cost_c: str | int | float = 0
    agents: list[AgentSpec] = field(default_factory=list)
    script: list[ScriptAction] = field(default_factory=list)
    max_steps: int = 1_000_000

    def validate(self) -> None:
        def fail(rule: str) -> None:
            raise ConfigInvalid(rule)

        if self.n < 1:
            fail("n must be positive")
        if self.t < 0 or 3 * self.t >= self.n:
            fail(f"need 3t < n, got n={self.n} t={self.t}")
        if self.epsilon < 1:
            fail("epsilon must be at least 1")
        if self.initial_balance <= self.n * self.epsilon:
            fail("initial_balance must exceed n*epsilon")
        if self.n * self.initial_balance > WIRE_MAX:  # then every balance fits the wire
            fail(f"n*initial_balance is {self.n * self.initial_balance}, beyond the wire's 2**64-1")
        check_seed(self.seed)
        if self.d_min < 1:
            fail("d_min must be at least 1")
        if self.d_min > self.d_max:
            fail("d_min must not exceed d_max")
        if self.max_steps < 1:
            fail("max_steps must be positive")
        ids = sorted(spec.id for spec in self.agents)
        if ids != list(range(1, self.n + 1)):
            fail("agents must cover ids 1..n exactly once")
        byz = sum(1 for spec in self.agents if spec.kind.name.startswith("BYZ_"))
        if byz > self.t:
            fail(f"{byz} Byzantine agents exceed the bound t={self.t}")
        for item in self.script:
            if item.tick < 0:
                fail("script ticks must be non-negative")
            if not 1 <= item.agent <= self.n:
                fail(f"script names unknown agent {item.agent}")
            if item.action.get("type", "pay") == "pay":
                to, amount = item.action["to"], item.action["amount"]
                if not 1 <= to <= self.n:
                    fail(f"agent {item.agent} pays unknown agent {to}")
                if to == item.agent:
                    fail(f"agent {item.agent} pays itself")
                if amount < 0:
                    fail(f"agent {item.agent} pays a negative amount {amount}")
                if amount > WIRE_MAX:
                    fail(f"agent {item.agent} pays {amount}, beyond the 64-bit wire field")
        try:
            as_fraction(self.msg_cost_c)
        except (TypeError, ValueError, ZeroDivisionError):
            fail(f"msg_cost_c must be a number or a fraction string, got {self.msg_cost_c!r}")


@dataclass
class RunResult:
    records: list[dict]
    agents: dict[AgentId, AgentStack]
    quiescent: bool
    steps: int


class Simulator:
    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self.recorder = TraceRecorder()
        self.thresholds = Thresholds(config.n, config.t)
        self.now = 0
        # tick -> events in scheduling order: a ScriptAction or (frm, to, msg)
        self._calendar: dict[int, list] = {}
        self._fifo_floor: dict[tuple[AgentId, AgentId], int] = {}
        # keyed once; each SEND hashes on a copy
        self._delay_hash = hashlib.blake2b(digest_size=8, key=config.seed.to_bytes(8, "little"))
        self._d_min, self._span = config.d_min, config.d_max - config.d_min + 1
        # every field but the script, whose actions the records that follow show
        settings = {f.name: getattr(config, f.name) for f in fields(config) if f.name != "script"}
        settings["agents"] = [{"id": s.id, "kind": s.kind.value, "params": dict(s.params)}
                              for s in sorted(config.agents, key=lambda s: s.id)]
        self.recorder.emit("CONFIG", **settings)
        self.agents = {
            spec.id: AgentStack(spec, config, self.thresholds, self.recorder)
            for spec in sorted(config.agents, key=lambda s: s.id)
        }
        for item in config.script:
            self._calendar.setdefault(item.tick, []).append(item)
        self._ticks: list[int] = sorted(self._calendar)  # heap of the calendar's ticks

    def run(self) -> RunResult:
        steps, max_steps = 0, self.config.max_steps
        calendar, ticks, agents = self._calendar, self._ticks, self.agents
        recorder, emit = self.recorder, self.recorder.emit
        while ticks and steps < max_steps:
            self.now = recorder.tick = tick = ticks[0]
            bucket = calendar[tick]
            first = steps
            for event in bucket:  # a loopback appended here runs this tick
                if steps == max_steps:
                    del bucket[: steps - first]  # a later run() resumes here
                    break
                if type(event) is ScriptAction:
                    stack = agents[event.agent]
                    outputs = stack.on_action(event.action)
                else:
                    frm, to, msg = event
                    stack = agents[to]
                    if frm != to:
                        emit("RECV", agent=to, frm=frm, channel=msg.channel,
                             mkind=_MKIND[msg.kind], seq=msg.seq, digest=msg.payload.digest_hex)
                    outputs = stack.on_message(frm, msg)
                if outputs:
                    self._schedule(stack.id, outputs)
                steps += 1
            else:
                heapq.heappop(ticks)
                del calendar[tick]
        quiescent = not ticks
        emit("END", quiescent=quiescent, steps=steps)
        return RunResult(recorder.records, agents, quiescent, steps)

    def _schedule(self, frm: AgentId, outputs: list[tuple[AgentId, BroadcastMessage]]) -> None:
        now, emit, fifo = self.now, self.recorder.emit, self.config.fifo_channels
        calendar, ticks, delay = self._calendar, self._ticks, self._delay
        wave = None
        for to, msg in outputs:
            if to == frm:
                calendar[now].append((frm, to, msg))  # loopback, later this tick
                continue
            if msg is not wave:  # a wave is one message fanned out to n-1 peers
                wave, channel, seq = msg, msg.channel, msg.seq
                mkind, digest = _MKIND[msg.kind], msg.payload.digest_hex
            emit("SEND", agent=frm, to=to, channel=channel, mkind=mkind, seq=seq, digest=digest)
            deliver_at = now + delay(frm, to, msg)
            if fifo:
                deliver_at = max(deliver_at, self._fifo_floor.get((frm, to), 0))
                self._fifo_floor[(frm, to)] = deliver_at
            bucket = calendar.get(deliver_at)
            if bucket is None:
                calendar[deliver_at] = [(frm, to, msg)]
                heapq.heappush(ticks, deliver_at)
            else:
                bucket.append((frm, to, msg))

    def _delay(self, frm: AgentId, to: AgentId, msg: BroadcastMessage) -> int:
        h = self._delay_hash.copy()
        h.update(_DELAY_FIELDS.pack(frm, to, msg.channel, msg.seq, _KIND_CODE[msg.kind])
                 + msg.payload.digest)
        return self._d_min + int.from_bytes(h.digest(), "little") % self._span


def run(config: SimConfig) -> RunResult:
    """Run one scenario to quiescence (or max_steps) and return its trace."""
    return Simulator(config).run()
