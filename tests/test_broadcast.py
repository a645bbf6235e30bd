import bisect
import copy
import heapq
import random
from itertools import count

import pytest

from ledgersim.broadcast import (
    BroadcastMessage,
    ChannelState,
    MessageKind,
    NotOwner,
    ReceiveOutcome,
    SeqMismatch,
    Thresholds,
    WrongChannel,
)
from ledgersim.netsim import Simulator
from ledgersim.transaction import Transaction
from helpers import make_config

N4 = Thresholds(4, 1)
N7 = Thresholds(7, 2)


class Records(list):
    """Stands in for `TraceRecorder.emit`: keeps each record as a dict, kind
    first, then the fields in call order."""

    def __call__(self, kind, **fields):
        self.append({"kind": kind, **fields})


def evidence(agent, reason, frm, seq):
    """A BYZ_EVIDENCE record of channel 1, in the field order the trace has."""
    return [("kind", "BYZ_EVIDENCE"), ("agent", agent), ("channel", 1),
            ("reason", reason), ("frm", frm), ("seq", seq)]


def tx(seq: int, value: int = 5, recipient: int = 2) -> Transaction:
    return Transaction(1, recipient, value, seq)


def echo(seq, payload):
    return BroadcastMessage(1, MessageKind.ECHO, seq, payload)


def ready(seq, payload):
    return BroadcastMessage(1, MessageKind.READY, seq, payload)


def initial(seq, payload):
    return BroadcastMessage(1, MessageKind.INITIAL, seq, payload)


# -- thresholds ---------------------------------------------------------------


def smallest_int_above_half(n, t):
    k = 0
    while not k > (n + t) / 2:
        k += 1
    return k


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2), (10, 3), (5, 1), (13, 4)])
def test_quorum_sizes_match_bruteforce(n, t):
    th = Thresholds(n, t)
    assert th.echo_quorum == smallest_int_above_half(n, t)
    assert th.ready_init == t + 1
    assert th.deliver_quorum == 2 * t + 1
    assert th.deliver_quorum <= n - t


def test_known_quorum_sizes():
    assert (N4.echo_quorum, N4.ready_init, N4.deliver_quorum) == (3, 2, 3)
    assert (N7.echo_quorum, N7.ready_init, N7.deliver_quorum) == (5, 3, 5)


@pytest.mark.parametrize("n,t", [(3, 1), (6, 2), (1, 1)])
def test_thresholds_reject_too_many_byzantine(n, t):
    with pytest.raises(ValueError):
        Thresholds(n, t)


# -- broadcast ----------------------------------------------------------------


def test_broadcast_fans_out_to_all_agents_including_self():
    owner = ChannelState(1, 1, N4, Records())
    out = owner.broadcast(tx(1))
    assert [to for to, _ in out] == [1, 2, 3, 4]
    for _, msg in out:
        assert (msg.channel, msg.kind, msg.seq) == (1, MessageKind.INITIAL, 1)
        assert msg.payload == tx(1)


def test_broadcast_requires_ownership():
    other = ChannelState(1, 2, N4, Records())
    with pytest.raises(NotOwner):
        other.broadcast(tx(1))


def test_broadcast_requires_current_sequence():
    owner = ChannelState(1, 1, N4, Records())
    owner.next_seq = 3
    with pytest.raises(SeqMismatch):
        owner.broadcast(tx(2))


def test_rebroadcast_of_inflight_sequence_rejected():
    owner = ChannelState(1, 1, N4, Records())
    owner.broadcast(tx(1))
    with pytest.raises(SeqMismatch):
        owner.broadcast(tx(1))


def test_wrong_channel_rejected():
    ch = ChannelState(1, 2, N4, Records())
    with pytest.raises(WrongChannel):
        ch.on_receive(3, BroadcastMessage(3, MessageKind.ECHO, 1, tx(1)))


# -- receive paths --------------------------------------------------------------


def test_initial_from_owner_echoes_to_everyone():
    ch = ChannelState(1, 2, N4, Records())
    outcome = ch.on_receive(1, initial(1, tx(1)))
    # seq-1 traffic passes the gate for every peer immediately
    assert [(to, m.kind) for to, m in outcome.outbound] == [
        (i, MessageKind.ECHO) for i in (1, 2, 3, 4)
    ]
    assert outcome.delivered == []


def test_initial_from_non_owner_is_evidence_only():
    ch = ChannelState(1, 2, N4, Records())
    outcome = ch.on_receive(3, initial(1, tx(1)))
    assert outcome.outbound == []
    assert [list(r.items()) for r in ch.emit] == [evidence(2, "initial-from-non-owner", 3, 1)]


def test_duplicate_initial_same_seq_ignored():
    ch = ChannelState(1, 2, N4, Records())
    first = ch.on_receive(1, initial(1, tx(1)))
    assert len(first.outbound) == 4
    again = ch.on_receive(1, initial(1, tx(1, value=9)))
    assert again.outbound == []
    assert [list(r.items()) for r in ch.emit] == [evidence(2, "conflicting-initial", 1, 1)]


def test_echo_quorum_triggers_ready():
    # three distinct echoes reach the n=4 quorum of 3
    ch = ChannelState(1, 2, N4, Records())
    payload = tx(1)
    assert ch.on_receive(1, echo(1, payload)).outbound == []
    assert ch.on_receive(3, echo(1, payload)).outbound == []
    out = ch.on_receive(4, echo(1, payload)).outbound
    kinds = [(to, m.kind) for to, m in out]
    assert (2, MessageKind.ECHO) in kinds and (2, MessageKind.READY) in kinds
    assert len([k for _, k in kinds if k is MessageKind.READY]) == 4


def test_two_readys_trigger_echo_and_ready():
    # ready_init = t+1 = 2 suffices without any echo quorum
    ch = ChannelState(1, 2, N4, Records())
    payload = tx(1)
    assert ch.on_receive(3, ready(1, payload)).outbound == []
    out = ch.on_receive(4, ready(1, payload)).outbound
    kinds = {(to, m.kind) for to, m in out}
    assert (1, MessageKind.ECHO) in kinds and (1, MessageKind.READY) in kinds


def test_duplicate_echo_from_same_peer_ignored():
    ch = ChannelState(1, 2, N4, Records())
    payload = tx(1)
    ch.on_receive(3, echo(1, payload))
    ch.on_receive(3, echo(1, payload))
    assert ch.echo_tally[(1, payload.digest)] == 1


def test_conflicting_payloads_tally_separately():
    ch = ChannelState(1, 2, N4, Records())
    a, b = tx(1, value=5), tx(1, value=6)
    ch.on_receive(1, echo(1, a))
    ch.on_receive(3, echo(1, a))
    ch.on_receive(4, echo(1, b))
    # 2 + 1 echoes for different digests never reach the quorum of 3
    assert 1 not in ch.ready_sent
    assert ch.echo_tally[(1, a.digest)] == 2
    assert ch.echo_tally[(1, b.digest)] == 1


# -- in-queue sequencing --------------------------------------------------------


def test_flush_consumes_in_order():
    ch = ChannelState(1, 2, N4, Records())
    ch.on_receive(3, echo(1, tx(1)))
    ch.on_receive(3, echo(2, tx(2)))
    assert ch.last_echo[3] == 2


def test_gap_blocks_until_filled():
    ch = ChannelState(1, 2, N4, Records())
    ch.on_receive(3, echo(2, tx(2)))
    assert ch.last_echo[3] == 0
    assert ch.echo_tally == {}
    ch.on_receive(3, echo(1, tx(1)))
    assert ch.last_echo[3] == 2
    assert ch.echo_tally[(1, tx(1).digest)] == 1
    assert ch.echo_tally[(2, tx(2).digest)] == 1


def test_first_entry_wins_for_a_sequence():
    # a queued duplicate with different content is discarded unconsumed
    ch = ChannelState(1, 2, N4, Records())
    blocked, second = tx(1, value=5), tx(1, value=6)
    ch.on_receive(3, echo(2, tx(2)))  # force queueing behind a gap
    ch.in_echo_queues[3].clear()
    ch.on_receive(3, echo(1, blocked))
    ch.on_receive(3, echo(1, second))
    assert ch.echo_tally[(1, blocked.digest)] == 1
    assert (1, second.digest) not in ch.echo_tally


@pytest.mark.parametrize("vote", [echo, ready])
def test_in_order_vote_is_counted_without_queueing(vote):
    ch = ChannelState(1, 2, N4, Records())
    payload = tx(1)
    assert ch.flush_in_queues(3, vote(1, payload)) == []  # one vote reaches no quorum at N4
    tally, last, queues = ((ch.echo_tally, ch.last_echo, ch.in_echo_queues) if vote is echo
                           else (ch.ready_tally, ch.last_ready, ch.in_ready_queues))
    assert tally == {(1, payload.digest): 1}
    assert last[3] == 1
    assert queues == {}


@pytest.mark.parametrize("vote", [echo, ready])
def test_missing_seq_drains_what_queued_behind_it_ascending(vote):
    ch = ChannelState(1, 2, N4, Records())
    one, two, three = tx(1), tx(2), tx(3)
    assert ch.flush_in_queues(3, vote(3, three)) == []
    assert ch.flush_in_queues(3, vote(2, two)) == []
    queues = ch.in_echo_queues if vote is echo else ch.in_ready_queues
    assert queues[3] == {2: two, 3: three}
    assert ch.flush_in_queues(3, vote(1, one)) == []  # one vote per seq delivers nothing
    assert (ch.echo_tally if vote is echo else ch.ready_tally) == {
        (1, one.digest): 1, (2, two.digest): 1, (3, three.digest): 1}
    assert queues == {}  # a drained in-queue is dropped
    assert (ch.last_echo if vote is echo else ch.last_ready)[3] == 3


def test_repeat_at_or_below_last_changes_nothing():
    ch = ChannelState(1, 2, N4, Records())
    for seq in (1, 2):
        ch.on_receive(3, echo(seq, tx(seq)))
    ch.on_receive(3, echo(4, tx(4)))  # queued behind the gap at 3
    before = copy.deepcopy((channel_state(ch), ch.in_echo_queues, ch.in_ready_queues))
    for seq in (1, 2):
        assert ch.flush_in_queues(3, echo(seq, tx(seq, value=9))) == []
        assert ch.on_receive(3, echo(seq, tx(seq))) == ReceiveOutcome([], [])
    assert (channel_state(ch), ch.in_echo_queues, ch.in_ready_queues) == before
    assert ch.emit == []


def test_receipt_from_a_peer_with_nothing_queued_releases_and_emits_nothing():
    ch = ChannelState(1, 3, N4, Records())
    for frm in (1, 2):
        ch.on_receive(frm, ready(1, tx(1)))  # both waves of seq 1, released to everyone
    assert ch.out_queues == {} and ch._blocked_at == {}
    ch.emit.clear()
    first = ch.on_receive(4, echo(1, tx(1)))
    second = ch.on_receive(4, echo(2, tx(2)))
    assert first.outbound == [] and second.outbound == []
    # each outbound is a fresh list, which its caller may extend in place
    assert first.outbound is not second.outbound
    assert ch.emit == []


# -- outgoing gate and retaliation ---------------------------------------------


def seed_outqueue(ch):
    """Queue echo+ready waves for seqs 1 and 2 via the protocol itself."""
    released = []
    for s in (1, 2):
        released += ch.on_receive(3, ready(s, tx(s))).outbound
        released += ch.on_receive(4, ready(s, tx(s))).outbound
    return released


def test_gate_releases_seq1_and_withholds_seq2():
    # agent 3's view of channel 1: a record swapping agent and channel shows
    ch = ChannelState(1, 3, N4, Records())
    released = seed_outqueue(ch)
    # peers 1 and 2 have sent nothing; their seq-1 messages flow, seq-2 wait
    sent_to_2 = [(m.seq, m.kind) for to, m in released if to == 2]
    assert (1, MessageKind.ECHO) in sent_to_2 and (1, MessageKind.READY) in sent_to_2
    assert all(seq == 1 for seq, _ in sent_to_2)
    assert {r["kind"] for r in ch.emit} == {"RETAL_BLOCK"}
    assert {r["peer"] for r in ch.emit} >= {1, 2}
    assert all(list(r) == ["kind", "agent", "channel", "peer", "seq"] for r in ch.emit)
    assert {(r["agent"], r["channel"], r["seq"]) for r in ch.emit} == {(3, 1, 2)}


def test_backfill_reopens_gate_in_order():
    ch = ChannelState(1, 3, N4, Records())
    seed_outqueue(ch)
    ch.emit.clear()
    # peer 2 completes seq 1
    out = []
    out += ch.on_receive(2, echo(1, tx(1))).outbound
    out += ch.on_receive(2, ready(1, tx(1))).outbound
    to_2 = [(m.seq, m.kind) for to, m in out if to == 2]
    assert to_2 == [(2, MessageKind.ECHO), (2, MessageKind.READY)]
    assert ch.emit == [{"kind": "RETAL_UNBLOCK", "agent": 3, "channel": 1, "peer": 2, "seq": 2}]


# -- per-peer state on first use -----------------------------------------------


def release_order(heap):
    heap = list(heap)
    return [heapq.heappop(heap)[:2] for _ in range(len(heap))]


def test_in_order_traffic_leaves_no_per_peer_state():
    ch = ChannelState(1, 2, N4, Records())
    for s in (1, 2, 3):
        ch.on_receive(1, initial(s, tx(s)))
        for vote in (echo, ready):
            for frm in N4.peers:
                ch.on_receive(frm, vote(s, tx(s)))
                assert ch.in_echo_queues == {} and ch.in_ready_queues == {}
                assert ch.out_queues == {} and ch._blocked_at == {}
    assert sorted(ch.delivered) == [1, 2, 3]
    assert ch.emit == []


def test_a_withholding_peer_s_heap_holds_exactly_the_withheld_entries():
    # agent 3's view of channel 1: readies from 3 and 4 start both waves of
    # seqs 1-3, and no peer has echoed, so every peer gets seq 1 only
    ch = ChannelState(1, 3, N4, Records())
    for s in (1, 2, 3):
        for frm in (3, 4):
            ch.on_receive(frm, ready(s, tx(s)))
    withheld = [(2, False), (2, True), (3, False), (3, True)]
    assert {peer: release_order(q) for peer, q in ch.out_queues.items()} == {
        peer: withheld for peer in N4.peers
    }
    assert ch._blocked_at == {peer: 2 for peer in N4.peers}
    ch.emit.clear()
    # peer 2 backfills seqs 1 and 2, which releases its heap in order
    out = []
    for s in (1, 2):
        out += ch.on_receive(2, echo(s, tx(s))).outbound
        out += ch.on_receive(2, ready(s, tx(s))).outbound
    assert [(m.seq, m.kind is MessageKind.READY) for to, m in out if to == 2] == withheld
    assert [(r["kind"], r["seq"]) for r in ch.emit] == [
        ("RETAL_UNBLOCK", 2), ("RETAL_BLOCK", 3), ("RETAL_UNBLOCK", 3)]
    assert set(ch.out_queues) == set(ch._blocked_at) == {1, 3, 4}


def test_a_simulator_builds_no_per_peer_state_before_traffic():
    sim = Simulator(make_config(n=46, t=15))
    peers = sim.thresholds.peers
    assert peers == tuple(range(1, 47))
    for stack in sim.agents.values():
        for ch in stack.channels.values():
            assert ch.thresholds.peers is peers
            assert ch.in_echo_queues == {} and ch.in_ready_queues == {}
            assert ch.out_queues == {} and ch._blocked_at == {}


class SortedFreshChannel(ChannelState):
    """Checks, as each flush starts, that the receipt's new wave entries
    arrive in release order, which lets the gate walk them without a heap."""

    def flush_out_queue(self, peers):
        keys = [entry[:2] for entry in self._fresh]
        assert keys == sorted(set(keys))
        return super().flush_out_queue(peers)


@pytest.mark.parametrize("th", [N4, N7])
@pytest.mark.parametrize("seed", range(3))
def test_new_wave_entries_arrive_in_release_order(th, seed):
    ch = SortedFreshChannel(1, 2, th, Records())
    for frm, msg in storm(random.Random(seed), th.n, 150 * th.n):
        ch.on_receive(frm, msg)
    assert ch.delivered


# -- delivery -------------------------------------------------------------------


def test_delivery_happens_once():
    ch = ChannelState(1, 2, N4, Records())
    payload = tx(1)
    ch.on_receive(1, ready(1, payload))
    ch.on_receive(3, ready(1, payload))
    outcome = ch.on_receive(4, ready(1, payload))
    assert outcome.delivered == [(1, payload)]
    # a late ready re-reaches the quorum; nothing is delivered again
    ch.last_ready[2] = 0
    outcome = ch.on_receive(2, ready(1, payload))
    assert outcome.delivered == []


def test_owner_sequence_advances_on_delivery():
    owner = ChannelState(1, 1, N4, Records())
    owner.broadcast(tx(1))
    payload = tx(1)
    for frm in (2, 3, 4):
        outcome = owner.on_receive(frm, ready(1, payload))
    assert outcome.delivered == [(1, payload)]
    assert owner.next_seq == 2


def test_non_owner_sequence_untouched_by_delivery():
    ch = ChannelState(1, 2, N4, Records())
    for frm in (1, 3, 4):
        ch.on_receive(frm, ready(1, tx(1)))
    assert ch.next_seq == 1


# -- randomized invariants -------------------------------------------------------


def assert_counts_match_lasts(ch):
    """Per seq, a kind's counts across digests sum to the number of peers
    whose last of that kind has reached it: one vote per peer per seq."""
    for tally, last in ((ch.echo_tally, ch.last_echo), (ch.ready_tally, ch.last_ready)):
        votes = {}
        for (seq, _dig), count in tally.items():
            votes[seq] = votes.get(seq, 0) + count
        peers = {s: sum(l >= s for l in last[1:]) for s in range(1, max(last) + 1)}
        assert votes == peers


@pytest.mark.parametrize("seed", range(20))
def test_random_storm_preserves_instance_invariants(seed):
    rng = random.Random(seed)
    ch = ChannelState(1, 2, N4, Records())
    payloads = {s: tx(s) for s in range(1, 6)}
    fakes = {s: tx(s, value=90 + s) for s in range(1, 6)}
    waves = 0
    prev_echo, prev_ready = list(ch.last_echo), list(ch.last_ready)
    for _ in range(300):
        frm = rng.choice([1, 3, 4])
        seq = rng.randrange(1, 6)
        payload = fakes[seq] if rng.random() < 0.2 else payloads[seq]
        kind = rng.choice([MessageKind.ECHO, MessageKind.READY, MessageKind.INITIAL])
        msg = BroadcastMessage(1, kind, seq, payload)
        if kind is MessageKind.INITIAL and frm != 1:
            continue
        ch.on_receive(frm, msg)
        # last vectors only move forward
        for peer in N4.peers:
            assert ch.last_echo[peer] >= prev_echo[peer]
            assert ch.last_ready[peer] >= prev_ready[peer]
        prev_echo, prev_ready = list(ch.last_echo), list(ch.last_ready)
        # every queued in-entry waits behind a gap; out-queues are heaps keyed
        # (seq, is READY), and no key repeats; a queue exists only while it
        # holds something, and only a peer with a heap is blocked
        for queues, last in ((ch.in_echo_queues, ch.last_echo),
                             (ch.in_ready_queues, ch.last_ready)):
            for peer, entries in queues.items():
                assert entries and all(seq > last[peer] + 1 for seq in entries)
        assert set(ch._blocked_at) <= set(ch.out_queues)
        for entries in ch.out_queues.values():
            assert entries
            keys = [e[:2] for e in entries]
            assert all(keys[(k - 1) // 2] <= keys[k] for k in range(1, len(keys)))
            assert len(set(keys)) == len(keys)
        waves = len(ch.echo_sent) + len(ch.ready_sent)
        assert waves <= 2 * 5
        assert_counts_match_lasts(ch)
    assert len(ch.delivered) == len(set(ch.delivered))


# -- incremental receive path against the full rescan ------------------------------


class FullRescanChannel(ChannelState):
    """The reference receive path: sorted-list in- and out-queues with an
    arrival counter breaking ties, voter sets instead of vote counts, a
    (seq, digest) -> payload table, every peer drained, every voted key
    rescanned and every peer gated on each receipt. It overrides every path
    that writes a record and keeps its records in `events`, in the shape
    `Records` keeps them."""

    def __init__(self, owner, self_id, thresholds):
        super().__init__(owner, self_id, thresholds, emit=None)
        self.peers = thresholds.peers
        self.events = []
        self._payloads = {}
        # its own eager queues and blocked slots, one per peer from the start
        self.in_echo_queues = {i: [] for i in self.peers}
        self.in_ready_queues = {i: [] for i in self.peers}
        self.out_queues = {i: [] for i in self.peers}
        self._blocked_at = {i: None for i in self.peers}
        self.echo_voters = {}
        self.ready_voters = {}
        self._arrivals = count()

    def on_receive(self, frm, msg):
        if msg.channel != self.owner:
            raise WrongChannel(f"message for channel {msg.channel} on {self.owner}")
        delivered = []
        if msg.kind is MessageKind.INITIAL:
            if frm != self.owner:
                self._record("BYZ_EVIDENCE", reason="initial-from-non-owner",
                             frm=frm, seq=msg.seq)
                return ReceiveOutcome([], [])
            seen = self._initial_digest.setdefault(msg.seq, msg.payload.digest)
            if seen != msg.payload.digest:
                self._record("BYZ_EVIDENCE", reason="conflicting-initial", frm=frm, seq=msg.seq)
            self._payloads.setdefault((msg.seq, msg.payload.digest), msg.payload)
            if msg.seq not in self.echo_sent:
                self._enqueue_wave(MessageKind.ECHO, msg.seq, msg.payload)
        else:
            queues = (
                self.in_echo_queues if msg.kind is MessageKind.ECHO else self.in_ready_queues
            )
            entry = (msg.seq, next(self._arrivals), msg.payload.digest, msg.payload)
            bisect.insort(queues[frm], entry)
            for peer in self.peers:
                self._drain_list(self.in_echo_queues[peer], self.last_echo, peer, self.echo_voters)
                self._drain_list(
                    self.in_ready_queues[peer], self.last_ready, peer, self.ready_voters
                )
            delivered = self._rescan_quorums()
        return ReceiveOutcome(self.flush_out_queue(self.peers), delivered)

    def _record(self, kind, **fields):
        self.events.append({"kind": kind, "agent": self.self_id, "channel": self.owner, **fields})

    def _rescan_quorums(self):
        th = self.thresholds
        delivered = []
        for key in sorted(set(self.echo_voters) | set(self.ready_voters)):
            seq = key[0]
            echoes = len(self.echo_voters.get(key, ()))
            readies = len(self.ready_voters.get(key, ()))
            if echoes >= th.echo_quorum or readies >= th.ready_init:
                if seq not in self.echo_sent:
                    self._enqueue_wave(MessageKind.ECHO, seq, self._payloads[key])
                if seq not in self.ready_sent:
                    self._enqueue_wave(MessageKind.READY, seq, self._payloads[key])
            if readies >= th.deliver_quorum:
                out = self.deliver(self._payloads[key], seq)
                if out is not None:
                    delivered.append((seq, out))
        return delivered

    def _drain_list(self, queue, last, peer, voters):
        while queue:
            seq, _arr, dig, payload = queue[0]
            if seq <= last[peer]:
                queue.pop(0)  # duplicate for a consumed sequence
                continue
            if seq == last[peer] + 1:
                queue.pop(0)
                last[peer] = seq
                voters.setdefault((seq, dig), set()).add(peer)
                self._payloads.setdefault((seq, dig), payload)
                continue
            break

    def _enqueue_wave(self, kind, seq, payload):
        (self.echo_sent if kind is MessageKind.ECHO else self.ready_sent).add(seq)
        msg = BroadcastMessage(self.owner, kind, seq, payload)
        for peer in self.peers:
            bisect.insort(self.out_queues[peer], (seq, next(self._arrivals), msg))

    def flush_out_queue(self, peers):
        released = []
        for peer in peers:
            queue = self.out_queues[peer]
            while queue:
                seq, _arr, msg = queue[0]
                if min(self.last_echo[peer], self.last_ready[peer]) >= seq - 1:
                    queue.pop(0)
                    if self._blocked_at[peer] == seq:
                        self._blocked_at[peer] = None
                        self._record("RETAL_UNBLOCK", peer=peer, seq=seq)
                    released.append((peer, msg))
                else:
                    if self._blocked_at[peer] != seq:
                        self._blocked_at[peer] = seq
                        self._record("RETAL_BLOCK", peer=peer, seq=seq)
                    break
        return released


def storm(rng, n, steps):
    """Echo/ready/initial traffic for channel 1 with gaps, duplicates,
    conflicting payloads, initials from non-owners and far-future seqs."""
    honest = {s: tx(s) for s in range(1, 61)}
    for _ in range(steps):
        frm = rng.randrange(1, n + 1)
        r = rng.random()
        seq = rng.randrange(50, 61) if r < 0.03 else rng.randrange(1, 9)
        payload = tx(seq, value=90 + rng.randrange(3)) if r > 0.85 else honest[seq]
        kind = rng.choice((MessageKind.ECHO, MessageKind.ECHO, MessageKind.READY,
                           MessageKind.READY, MessageKind.INITIAL))
        yield frm, BroadcastMessage(1, kind, seq, payload)


def channel_state(ch):
    # pending out-queue entries per peer in release order, from a heap or
    # from a sorted list; an empty queue and an absent one both hold nothing
    out = {peer: [(e[0], e[-1]) for e in sorted(q, key=lambda e: e[:2])]
           for peer, q in ch.out_queues.items() if q}
    blocked = {peer: seq for peer, seq in ch._blocked_at.items() if seq is not None}
    # vote counts, or the size of each of the reference's voter sets
    if isinstance(ch, FullRescanChannel):
        tallies = tuple({key: len(peers) for key, peers in voters.items()}
                        for voters in (ch.echo_voters, ch.ready_voters))
    else:
        tallies = (ch.echo_tally, ch.ready_tally)
    return (*tallies, ch.last_echo, ch.last_ready, ch.delivered,
            ch.echo_sent, ch.ready_sent, out, blocked, ch.next_seq)


@pytest.mark.parametrize("th,self_id", [(N4, 1), (N4, 2), (N7, 1), (N7, 5)])
@pytest.mark.parametrize("seed", range(6))
def test_incremental_receive_matches_full_rescan(th, self_id, seed):
    rng = random.Random(seed)
    fast, ref = ChannelState(1, self_id, th, Records()), FullRescanChannel(1, self_id, th)
    seen = {"deliveries": 0, "blocks": 0}
    for frm, msg in storm(rng, th.n, 150 * th.n):
        got, want = fast.on_receive(frm, msg), ref.on_receive(frm, msg)
        assert got == want
        # the same records, fields in the same order, after every receipt
        assert [list(r.items()) for r in fast.emit] == [list(r.items()) for r in ref.events]
        assert channel_state(fast) == channel_state(ref)
        assert_counts_match_lasts(fast)
        seen["deliveries"] += len(got.delivered)
        seen["blocks"] += sum(r["kind"] == "RETAL_BLOCK" for r in fast.emit)
        fast.emit.clear()
        ref.events.clear()
    # the storm reaches delivery and the retaliation gate, not only queueing
    assert seen["deliveries"] > 0 and seen["blocks"] > 0
