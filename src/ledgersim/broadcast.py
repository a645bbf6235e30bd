"""One reliable-broadcast channel with sequenced queues and peer retaliation.

Every agent keeps one ChannelState per channel; the channel's owner is the
only agent allowed to initiate broadcasts on it. Incoming echo/ready traffic
is consumed strictly in sequence order per peer, outgoing echo/ready traffic
is withheld from any peer that still owes its own echo and ready for an
earlier sequence, and a payload is delivered once 2t+1 distinct peers have
signalled ready for the same (seq, digest).

Each tally counts the votes consumed per (seq, digest). A count equals the
number of distinct peers behind it, because each peer's votes of one kind
are consumed strictly in seq order: consuming seq s moves last[peer] to s,
an arrival at or below last[peer] is dropped, and the first arrival per seq
wins. So a peer adds at most one vote of each kind per seq, for one digest.

A receipt costs only what it changed. An ECHO or READY at the sender's
last + 1 is counted at once and drains what queued behind it; only an
arrival past a gap waits in an in-queue. Each (seq, digest) key so consumed
is judged as its vote is counted, and only the sender is re-gated, unless
the receipt enqueued a new wave, and only when something is held back from
it. Every quorum condition is monotone in the vote counts and every other
queue and key was settled when it last changed, so this equals draining,
rescanning and gating everything. Per-peer state lives only while it holds
something: an in-queue while a vote waits behind a gap, an out-queue while
the gate withholds an entry, a `_blocked_at` entry while the peer is blocked.

The channel writes BYZ_EVIDENCE, RETAL_BLOCK and RETAL_UNBLOCK records itself
through the recorder's `emit`. Quorums read the payloads the drain consumed,
so no side table copies them: the canonical encoding is injective, so an
equal (seq, digest) key means an equal transaction.

State transitions are pure functions of (state, input); nothing here touches
a clock or a socket. The simulator feeds messages in and schedules whatever
comes out.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .transaction import AgentId, Transaction


class BroadcastError(Exception):
    pass


class NotOwner(BroadcastError):
    pass


class SeqMismatch(BroadcastError):
    pass


class WrongChannel(BroadcastError):
    pass


class MessageKind(str, Enum):
    INITIAL = "INITIAL"
    ECHO = "ECHO"
    READY = "READY"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BroadcastMessage:
    channel: AgentId
    kind: MessageKind
    seq: int
    payload: Transaction


@dataclass(frozen=True)
class Thresholds:
    """Quorum sizes for a system of n agents tolerating t Byzantine ones.

    3t < n also keeps the delivery quorum reachable with every Byzantine
    agent silent: 2t+1 <= n-t.
    """

    n: int
    t: int
    echo_quorum: int = field(init=False)  # smallest integer > (n+t)/2
    ready_init: int = field(init=False)
    deliver_quorum: int = field(init=False)
    peers: tuple[AgentId, ...] = field(init=False, repr=False, compare=False)  # 1..n, shared

    def __post_init__(self) -> None:
        if not 3 * self.t < self.n:
            raise ValueError(f"need 3t < n, got n={self.n} t={self.t}")
        object.__setattr__(self, "echo_quorum", (self.n + self.t) // 2 + 1)
        object.__setattr__(self, "ready_init", self.t + 1)
        object.__setattr__(self, "deliver_quorum", 2 * self.t + 1)
        object.__setattr__(self, "peers", tuple(range(1, self.n + 1)))


@dataclass(slots=True)
class ReceiveOutcome:
    """What a single on_receive call produced.

    outbound holds exactly the messages the retaliation gate released during
    this call; delivered holds (seq, payload) pairs in ascending seq order.
    """

    outbound: list[tuple[AgentId, BroadcastMessage]]
    delivered: list[tuple[int, Transaction]]


class ChannelState:
    """One agent's view of one broadcast channel."""

    def __init__(self, owner: AgentId, self_id: AgentId, thresholds: Thresholds, emit: Callable):
        self.owner = owner
        self.self_id = self_id
        self.thresholds = thresholds
        self.emit = emit  # emit(kind, **fields) appends one trace record
        self.next_seq = 1  # meaningful on the owner only
        self.initiated = 0  # the owner's highest broadcast seq; each is next_seq when sent
        self.last_echo: list[int] = [0] * (thresholds.n + 1)  # by agent id
        self.last_ready: list[int] = [0] * (thresholds.n + 1)
        # peer -> {seq: payload} queued behind a gap, first arrival wins
        self.in_echo_queues: dict[AgentId, dict] = {}
        self.in_ready_queues: dict[AgentId, dict] = {}
        # peer -> heap of the withheld (seq, is READY, msg); keys never tie
        self.out_queues: dict[AgentId, list] = {}
        self._fresh: list = []  # this receipt's new wave entries; on_receive flushes all
        self.echo_sent: set[int] = set()
        self.ready_sent: set[int] = set()
        # (seq, digest) -> votes consumed; see the module docstring
        self.echo_tally: dict[tuple[int, bytes], int] = {}
        self.ready_tally: dict[tuple[int, bytes], int] = {}
        self.delivered: set[int] = set()
        self._initial_digest: dict[int, bytes] = {}
        self._blocked_at: dict[AgentId, int] = {}  # blocked peer -> seq withheld

    # -- initiation ---------------------------------------------------------

    def broadcast(self, payload: Transaction) -> list[tuple[AgentId, BroadcastMessage]]:
        """Fan an INITIAL for the next sequence number out to every agent.

        INITIAL messages bypass the outgoing gate: the owner owes nobody
        anything at the moment it starts a new sequence.
        """
        if self.self_id != self.owner:
            raise NotOwner(f"agent {self.self_id} does not own channel {self.owner}")
        if payload.seq != self.next_seq or payload.seq <= self.initiated:
            raise SeqMismatch(
                f"channel {self.owner}: broadcast seq {payload.seq}, expected {self.next_seq}"
            )
        self.initiated = payload.seq
        msg = BroadcastMessage(self.owner, MessageKind.INITIAL, payload.seq, payload)
        return [(to, msg) for to in self.thresholds.peers]

    # -- receipt ------------------------------------------------------------

    def on_receive(self, frm: AgentId, msg: BroadcastMessage) -> ReceiveOutcome:
        if msg.channel != self.owner:
            raise WrongChannel(f"message for channel {msg.channel} on {self.owner}")
        if msg.kind is MessageKind.INITIAL:
            if frm != self.owner:
                self._evidence("initial-from-non-owner", frm, msg.seq)
                return ReceiveOutcome([], [])
            seen = self._initial_digest.setdefault(msg.seq, msg.payload.digest)
            if seen != msg.payload.digest:
                self._evidence("conflicting-initial", frm, msg.seq)
            if msg.seq not in self.echo_sent:
                self._enqueue_wave(MessageKind.ECHO, msg.seq, msg.payload)
            delivered = []
        else:
            delivered = self.flush_in_queues(frm, msg)
        # a new wave reaches every peer; else only what frm's gate holds back may pass
        peers = self.thresholds.peers if self._fresh else (frm,) if frm in self.out_queues else ()
        return ReceiveOutcome(self.flush_out_queue(peers) if peers else [], delivered)

    # -- queue machinery ----------------------------------------------------

    def flush_in_queues(
        self, peer: AgentId, msg: BroadcastMessage
    ) -> list[tuple[int, Transaction]]:
        """Take peer's ECHO or READY `msg`, consuming votes strictly in seq order.

        An arrival at last + 1 is counted at once, then drains what queued
        behind it; one past a gap is queued (first arrival per seq wins); one
        at or below last is a duplicate and dropped. The other kind's queue
        was drained to its gap when that kind last arrived. Each consumed
        vote's (seq, digest) key is judged right after it is counted: the echo
        or ready quorum enqueues the seq's unsent waves, ECHO before READY, and
        the deliver quorum (2t+1 readies, so also the ready one, t+1) delivers.
        Returns the new deliveries as (seq, payload) pairs, ascending.
        """
        if msg.kind is MessageKind.ECHO:
            queues, last, tally = self.in_echo_queues, self.last_echo, self.echo_tally
        else:
            queues, last, tally = self.in_ready_queues, self.last_ready, self.ready_tally
        seq = msg.seq
        if seq != last[peer] + 1:
            if seq > last[peer]:
                queues.setdefault(peer, {}).setdefault(seq, msg.payload)
            return []
        th, queue, payload, delivered = self.thresholds, queues.get(peer), msg.payload, []
        while payload is not None:
            key = (seq, payload.digest)
            tally[key] = tally.get(key, 0) + 1
            readies = self.ready_tally.get(key, 0)
            if readies >= th.ready_init or self.echo_tally.get(key, 0) >= th.echo_quorum:
                if seq not in self.echo_sent:
                    self._enqueue_wave(MessageKind.ECHO, seq, payload)
                if seq not in self.ready_sent:
                    self._enqueue_wave(MessageKind.READY, seq, payload)
                if readies >= th.deliver_quorum and self.deliver(payload, seq) is not None:
                    delivered.append((seq, payload))
            seq += 1
            payload = queue.pop(seq, None) if queue else None
        if queue is not None and not queue:
            del queues[peer]
        last[peer] = seq - 1
        return delivered

    def flush_out_queue(
        self, peers: tuple[AgentId, ...]
    ) -> list[tuple[AgentId, BroadcastMessage]]:
        """Release outgoing messages to peers that pass the retaliation gate.

        A message with sequence s is released to peer j only once j has
        completed s-1 (sent both its echo and its ready); the first withheld
        entry starts j's heap, and everything behind it waits there too.
        """
        released: list[tuple[AgentId, BroadcastMessage]] = []
        fresh, self._fresh = self._fresh, []
        queues, blocked = self.out_queues, self._blocked_at
        for peer in peers:
            passes = min(self.last_echo[peer], self.last_ready[peer]) + 1  # highest seq let out
            queue = queues.get(peer)
            if queue is None:  # so not blocked either: nothing unblocks
                for k, entry in enumerate(fresh):
                    if entry[0] > passes:
                        queue = queues[peer] = fresh[k:]  # ascending, so a heap
                        break
                    released.append((peer, entry[2]))
                else:
                    continue
            while queue:
                seq, _ready, msg = queue[0]
                if seq > passes:
                    if blocked.get(peer) != seq:
                        blocked[peer] = seq
                        self.emit("RETAL_BLOCK", agent=self.self_id, channel=self.owner,
                                  peer=peer, seq=seq)
                    break
                heapq.heappop(queue)
                if blocked.get(peer) == seq:
                    del blocked[peer]
                    self.emit("RETAL_UNBLOCK", agent=self.self_id, channel=self.owner,
                              peer=peer, seq=seq)
                released.append((peer, msg))
            else:
                del queues[peer]
        return released

    # -- delivery -------------------------------------------------------------

    def deliver(self, payload: Transaction, seq: int) -> Transaction | None:
        """Record the first delivery for seq; repeat quorum events yield nothing."""
        if seq in self.delivered:
            return None
        self.delivered.add(seq)
        if self.self_id == self.owner and seq >= self.next_seq:
            self.next_seq = seq + 1
        return payload

    def _evidence(self, reason: str, frm: AgentId, seq: int) -> None:
        self.emit("BYZ_EVIDENCE", agent=self.self_id, channel=self.owner,
                  reason=reason, frm=frm, seq=seq)

    def _enqueue_wave(self, kind: MessageKind, seq: int, payload: Transaction) -> None:
        # one echo and one ready per sequence, for every agent. A receipt adds one ECHO, or
        # per consumed seq, ascending, ECHO then READY, so `_fresh` stays sorted
        (self.echo_sent if kind is MessageKind.ECHO else self.ready_sent).add(seq)
        entry = (seq, kind is MessageKind.READY, BroadcastMessage(self.owner, kind, seq, payload))
        self._fresh.append(entry)  # for the peers with nothing held back
        for queue in self.out_queues.values():
            heapq.heappush(queue, entry)
