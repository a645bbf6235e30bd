"""Deterministic seeded discrete-event loop over reliable point-to-point links.

The network never loses, duplicates, or corrupts anything: every scheduled
message is delivered exactly once, between d_min and d_max virtual ticks
after it was sent. All misbehavior lives in agent strategies. Per-message
delays come from a keyed hash of the message identity, so one extra or
missing send never perturbs any other draw and same-seed counterfactual runs
stay comparable. Self-addressed messages loop back on the same tick.
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import dataclass, field
from itertools import count

from .broadcast import BroadcastMessage, MessageKind, Thresholds
from .strategy import AgentSpec, AgentStack
from .trace import TraceRecorder
from .transaction import AgentId, Money

_KIND_CODE = {MessageKind.INITIAL: 0, MessageKind.ECHO: 1, MessageKind.READY: 2}


class ConfigInvalid(Exception):
    pass


@dataclass(frozen=True)
class ScriptAction:
    tick: int
    agent: AgentId
    action: dict


@dataclass(frozen=True)
class ScheduledMessage:
    frm: AgentId
    to: AgentId
    msg: BroadcastMessage


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
        if not 0 <= self.seed < 2**64:
            fail("seed must fit in 64 bits")
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
        self.thresholds = Thresholds.for_system(config.n, config.t)
        self.now = 0
        self._heap: list = []
        self._seq = count()
        self._fifo_floor: dict[tuple[AgentId, AgentId], int] = {}
        self._seed_key = config.seed.to_bytes(8, "little")
        self.recorder.emit(
            "CONFIG",
            n=config.n,
            t=config.t,
            epsilon=config.epsilon,
            initial_balance=config.initial_balance,
            seed=config.seed,
            d_min=config.d_min,
            d_max=config.d_max,
            fifo_channels=config.fifo_channels,
            condition3_strict=config.condition3_strict,
            msg_cost_c=config.msg_cost_c,
            max_steps=config.max_steps,
            agents=[
                {"id": s.id, "kind": s.kind.value, "params": dict(s.params)}
                for s in sorted(config.agents, key=lambda s: s.id)
            ],
        )
        self.agents = {
            spec.id: AgentStack(spec, config, self.thresholds, self.recorder)
            for spec in sorted(config.agents, key=lambda s: s.id)
        }
        for agent in self.agents.values():
            self.recorder.emit("SNAPSHOT", **agent.ledger.snapshot())
        for item in config.script:
            heapq.heappush(self._heap, (item.tick, next(self._seq), item))

    def run(self) -> RunResult:
        steps = 0
        while self._heap and steps < self.config.max_steps:
            tick, _, item = heapq.heappop(self._heap)
            self.now = tick
            self.recorder.tick = tick
            if isinstance(item, ScriptAction):
                stack = self.agents[item.agent]
                outputs = stack.on_action(item.action)
            else:
                stack = self.agents[item.to]
                if item.frm != item.to:
                    self.recorder.emit(
                        "RECV",
                        agent=item.to,
                        frm=item.frm,
                        channel=item.msg.channel,
                        mkind=item.msg.kind.value,
                        seq=item.msg.seq,
                        digest=item.msg.payload.digest_hex,
                    )
                outputs = stack.on_message(item.frm, item.msg)
            self._schedule(stack.id, outputs)
            steps += 1
        quiescent = not self._heap
        self.recorder.emit("END", quiescent=quiescent, steps=steps)
        return RunResult(self.recorder.records, self.agents, quiescent, steps)

    def _schedule(self, frm: AgentId, outputs: list[tuple[AgentId, BroadcastMessage]]) -> None:
        for to, msg in outputs:
            if to == frm:
                deliver_at = self.now  # loopback, same tick, later index
            else:
                self.recorder.emit(
                    "SEND",
                    agent=frm,
                    to=to,
                    channel=msg.channel,
                    mkind=msg.kind.value,
                    seq=msg.seq,
                    digest=msg.payload.digest_hex,
                )
                deliver_at = self.now + self._delay(frm, to, msg)
                if self.config.fifo_channels:
                    floor = self._fifo_floor.get((frm, to), 0)
                    deliver_at = max(deliver_at, floor)
                    self._fifo_floor[(frm, to)] = deliver_at
            heapq.heappush(
                self._heap,
                (deliver_at, next(self._seq), ScheduledMessage(frm, to, msg)),
            )

    def _delay(self, frm: AgentId, to: AgentId, msg: BroadcastMessage) -> int:
        h = hashlib.blake2b(digest_size=8, key=self._seed_key)
        h.update(struct.pack("<QQQQB", frm, to, msg.channel, msg.seq, _KIND_CODE[msg.kind]))
        h.update(msg.payload.digest)
        span = self.config.d_max - self.config.d_min + 1
        return self.config.d_min + int.from_bytes(h.digest(), "little") % span


def run(config: SimConfig) -> RunResult:
    """Run one scenario to quiescence (or max_steps) and return its trace."""
    return Simulator(config).run()
