from fractions import Fraction

import pytest

import ledgersim as L
from helpers import backfill, incentive_script, make_config, pay, run_records
from ledgersim.broadcast import BroadcastMessage, ChannelState, MessageKind, Thresholds
from ledgersim.checker import (
    TraceView,
    check_conservation,
    converted_credits,
    utility,
    utility_breakdown,
)
from ledgersim.ledger import LedgerState
from ledgersim.trace import TraceRecorder
from ledgersim.transaction import Transaction, TxId


def kinds_of(records, **match):
    out = []
    for r in records:
        if all(r.get(k) == v for k, v in match.items()):
            out.append(r)
    return out


# -- silent ---------------------------------------------------------------------


def test_silent_agent_sends_nothing_but_others_converge():
    overrides = {4: (L.StrategyKind.BYZ_SILENT, {})}
    records = run_records(
        make_config(seed=3, d_max=10, overrides=overrides, script=[pay(0, 1, 2, 5)])
    )
    assert not kinds_of(records, kind="SEND", agent=4)
    delivered = {r["agent"] for r in kinds_of(records, kind="RRB_DELIVER", seq=1)}
    assert delivered == {1, 2, 3}
    view = TraceView(records)
    parts = utility_breakdown(view, 4)
    assert parts == {"fee_income": 0, "payments_net": 0, "messages_sent": 0}
    assert utility(view, 4, "1/100") <= 0


# -- equivocation -----------------------------------------------------------------


def test_equivocator_emits_two_digests_same_seq():
    overrides = {1: (L.StrategyKind.BYZ_EQUIVOCATE, {})}
    records = run_records(
        make_config(seed=8, d_max=5, overrides=overrides, script=[pay(0, 1, 2, 10)])
    )
    initials = {
        r["digest"] for r in kinds_of(records, kind="SEND", agent=1, mkind="INITIAL", seq=1)
    }
    assert len(initials) == 2
    delivered = {r["digest"] for r in kinds_of(records, kind="RRB_DELIVER", seq=1)}
    assert len(delivered) <= 1


def test_equivocator_can_stall_the_sequence_entirely():
    # an even split leaves both payloads short of the echo quorum
    overrides = {1: (L.StrategyKind.BYZ_EQUIVOCATE, {"alt_targets": [3, 4]})}
    records = run_records(
        make_config(seed=8, d_max=5, overrides=overrides, script=[pay(0, 1, 2, 10)])
    )
    assert not kinds_of(records, kind="RRB_DELIVER")
    assert not kinds_of(records, kind="EXECUTE")


# -- overdraft --------------------------------------------------------------------


def test_overdrafter_is_punished_by_fee_only():
    overrides = {2: (L.StrategyKind.BYZ_OVERDRAFT, {"extra": 100})}
    records = run_records(
        make_config(seed=6, d_max=4, overrides=overrides, script=[pay(0, 2, 3, 1)])
    )
    executes = kinds_of(records, kind="EXECUTE")
    assert executes and all(r["verdict"] == "bad" for r in executes)
    assert all(r["txid"] == [2, 1] for r in executes)
    final = [r for r in kinds_of(records, kind="SNAPSHOT", agent=1)][-1]
    assert final["B"] == [1000, 996, 1000, 1000]  # initiator pays n*epsilon, nothing else moves


# -- bad dependency references ------------------------------------------------------


def test_bad_deps_agent_discovers_and_references_a_bad_tx():
    overrides = {
        1: (L.StrategyKind.BYZ_OVERDRAFT, {}),
        2: (L.StrategyKind.BYZ_BAD_DEPS, {}),  # no explicit ref: discovers (1,1)
    }
    records = run_records(
        make_config(
            n=7, t=2, seed=2, d_max=4, overrides=overrides,
            script=[pay(0, 1, 3, 1), pay(60, 2, 3, 2)],
        )
    )
    tainted = kinds_of(records, kind="EXECUTE", agent=3, txid=[2, 1])
    assert tainted and tainted[0]["verdict"] == "bad"
    assert tainted[0]["tx"]["deps"] == [[1, 1]]


# -- freerider and retaliation --------------------------------------------------------


def freerider_config(seed=5, seqs=(1,)):
    overrides = {4: (L.StrategyKind.RATIONAL_FREERIDER, {"channels": [1], "seqs": list(seqs)})}
    script = [
        pay(0, 1, 2, 5),
        pay(25, 1, 3, 5),
        pay(30, 2, 3, 2),
        backfill(90, 4),
    ]
    return make_config(seed=seed, d_max=3, overrides=overrides, script=script)


def test_freerider_withholds_then_backfills():
    records = run_records(freerider_config())
    fr_sends = kinds_of(records, kind="SEND", agent=4, channel=1, seq=1)
    assert fr_sends, "backfill must put the withheld messages on the wire"
    assert min(r["tick"] for r in fr_sends) >= 90
    blocked = kinds_of(records, kind="RETAL_BLOCK", peer=4, channel=1)
    unblocked = kinds_of(records, kind="RETAL_UNBLOCK", peer=4, channel=1)
    assert {r["agent"] for r in blocked} == {1, 2, 3}
    assert {r["agent"] for r in unblocked} == {1, 2, 3}
    assert max(r["idx"] for r in unblocked) > max(r["idx"] for r in blocked)
    # after the backfill the freerider catches up on the channel
    assert kinds_of(records, kind="EXECUTE", agent=4, txid=[1, 2])


def test_batched_execution_snapshots_after_each_execute():
    """The backfill lets one delivery execute buffered transactions; every
    SNAPSHOT shows the ledger right after its own EXECUTE."""
    overrides = {4: (L.StrategyKind.RATIONAL_FREERIDER, {"channels": [1]})}
    script = [pay(0, 1, 2, 5), pay(10, 1, 3, 5), pay(30, 2, 3, 2), pay(40, 3, 2, 2), backfill(80, 4)]
    records = run_records(make_config(seed=1, d_max=10, overrides=overrides, script=script))
    batch, largest = 0, 0
    for r in kinds_of(records, agent=4):
        if r["kind"] == "RRB_DELIVER":
            batch = 0
        elif r["kind"] == "EXECUTE":
            batch += 1
            largest = max(largest, batch)
    assert largest >= 2
    # the opening SNAPSHOT, then EXECUTE/SNAPSHOT pairs
    events = [r for r in kinds_of(records, agent=4) if r["kind"] in ("EXECUTE", "SNAPSHOT")]
    seqs = [0] * 4
    for execute, snap in zip(events[1::2], events[2::2]):
        assert (execute["kind"], snap["kind"]) == ("EXECUTE", "SNAPSHOT")
        seqs[execute["tx"]["initiator"] - 1] += 1
        assert snap["S"] == seqs
    view = TraceView(records)
    # the view keeps them in the same order: six-field EXECUTE, two-field SNAPSHOT facts
    assert [len(fact) for fact in view.ledger_events(4)] == [
        6 if r["kind"] == "EXECUTE" else 2 for r in events
    ]
    assert check_conservation(view).status == "PASS"


def test_retaliation_is_scoped_to_the_one_channel():
    records = run_records(freerider_config())
    assert not [
        r for r in records if r["kind"] == "RETAL_BLOCK" and r["channel"] != 1
    ]
    # channel-2 traffic to the freerider flows before the backfill
    early = [
        r
        for r in kinds_of(records, kind="SEND", to=4, channel=2)
        if r["tick"] < 90 and r["mkind"] != "INITIAL"
    ]
    assert early


@pytest.mark.parametrize("seed", range(4))
def test_withholding_the_last_seq_goes_unpunished(seed):
    """A known limit of the model, not a protocol fault: the retaliation gate
    withholds only traffic for seq s+1, so the final seq of a finite run
    (seq 5 on channel 1 here) can be withheld for free. This is the
    last-round effect of finite repeated games, which BAR fault tolerance
    (Aiyer et al., SOSP 2005) also faces."""
    def run_agent_4(overrides):
        config = make_config(seed=seed, d_min=1, d_max=10, script=incentive_script(),
                             overrides=overrides)
        return run_records(config)

    withhold_last = {"channels": [1], "seqs": [5]}
    deviant = run_agent_4({4: (L.StrategyKind.RATIONAL_FREERIDER, withhold_last)})
    twin = run_agent_4({})
    assert utility(TraceView(deviant), 4, "1/100") > utility(TraceView(twin), 4, "1/100")
    assert [r.status for r in L.run_all_checks(deviant)] == ["PASS"] * len(L.checker.ALL_CHECKS)


# -- lazy execution -------------------------------------------------------------------


def test_lazy_agent_never_uses_its_incoming_payment():
    overrides = {4: (L.StrategyKind.RATIONAL_LAZY_EXEC, {})}
    script = [pay(0, 1, 4, 12), pay(40, 4, 2, 3)]
    records = run_records(make_config(seed=4, overrides=overrides, script=script))
    own = kinds_of(records, kind="EXECUTE", agent=4)
    assert [r["txid"] for r in own] == [[4, 1]]
    # its own payment references no deps: the received 12 stays unusable
    assert own[0]["tx"]["deps"] == []
    compliant_view = kinds_of(records, kind="SNAPSHOT", agent=1)[-1]
    assert compliant_view["B"][3] == 1000 - 3 - 4
    assert compliant_view["q_counts"][3] == 1  # the stranded payment


# -- minting ---------------------------------------------------------------------------


MINT_ROWS = [  # balance, amount, live credits, convert, mints, value of an incoming payment
    (10, 6, 0, False, True, 0),
    (10, 7, 0, False, False, 0),  # the balance guard: 7 + n*epsilon > 10
    (4, 0, 0, False, False, 0),  # balance n*epsilon, and no fee credits: stalls
    (4, 0, 4, False, False, 0),  # credits it does not convert do not count
    (4, 0, 4, True, True, 0),  # n live credits cover the fee
    (4, 0, 3, True, False, 0),
    # the pay references the incoming payment, and its execution credits it
    (10, 7, 0, False, True, 1),
    (5, 50, 0, False, True, 49),  # 5 + 49 == 50 + n*epsilon
    (5, 50, 0, False, False, 48),
    (4, 0, 0, False, False, 50),  # received money does not pay the fee: stalls
    (4, 50, 4, True, True, 46),  # 4 + 46 + 4 converted credits == 50 + n*epsilon
    (4, 50, 4, True, False, 45),
]


@pytest.mark.parametrize("balance,amount,live,convert,mints,incoming", MINT_ROWS,
                         ids=["-".join(map(str, row[:5])) + (f"-in{row[5]}" if row[5] else "")
                              for row in MINT_ROWS])
def test_mint_only_what_can_execute(balance, amount, live, convert, mints, incoming):
    config = make_config()
    stack = L.AgentStack(config.agents[0], config, Thresholds(4, 1), TraceRecorder())
    ledger = stack.ledger
    for seq in range(1, live + 1):
        ledger.on_rrb_deliver(Transaction(2, 3, 0, seq))  # each grants every agent a fee credit
    if incoming:
        ledger.on_rrb_deliver(Transaction(3, 1, incoming, 1))
    ledger.B[1] = balance
    ledger.F[1] = {TxId(2, seq) for seq in range(1, live + 1)}
    out = stack.behavior.mint(stack, {"to": 2, "amount": amount, "convert_fees": convert}, 1)
    assert (out is not None) == mints
    if mints:  # it executes at once, and commits
        [report] = ledger.on_rrb_deliver(out)
        assert report.verdict == "committed" and report.dep_credit == incoming
        assert len(report.converted) == (live if convert else 0)


def run_all_passing(script):
    """The records of a run of `script` on four compliant agents holding 100 each,
    after asserting that all nine oracles PASS on them."""
    records = run_records(make_config(initial_balance=100, seed=5, script=script))
    reports = L.run_all_checks(records)
    assert len(reports) == 9 and all(r.status == "PASS" for r in reports), reports
    return records


def test_a_pay_is_funded_by_the_payment_it_references():
    # agent 1 pays down to 6, below 10 + n*epsilon, then receives 20
    records = run_all_passing([pay(0, 1, 2, 90), pay(50, 3, 1, 20), pay(100, 1, 2, 10)])
    own = kinds_of(records, kind="EXECUTE", agent=1, txid=[1, 2])
    assert own and own[0]["verdict"] == "committed" and own[0]["dep_credit"] == 20
    assert kinds_of(records, kind="SNAPSHOT", agent=1)[-1]["B"][0] == 6 + 20 - 10 - 4


def test_a_pay_at_the_fee_floor_is_funded_by_converted_credits():
    # agent 1 ends at exactly n*epsilon, then receives 10 and four fee credits
    # (its own, agent 3's, agent 2's and agent 4's executions)
    script = [pay(0, 1, 2, 92), pay(50, 3, 1, 10), pay(60, 2, 3, 3), pay(70, 4, 3, 3),
              pay(150, 1, 2, 5, convert_fees=True)]
    records = run_all_passing(script)
    own = kinds_of(records, kind="EXECUTE", agent=1, txid=[1, 2])
    assert own and own[0]["verdict"] == "committed"
    assert own[0]["dep_credit"] == 10 and len(own[0]["converted"]) == 4
    assert kinds_of(records, kind="SNAPSHOT", agent=1)[-1]["B"][0] == 4 + 10 + 4 - 5 - 4


def test_a_payload_delivered_on_a_channel_not_its_own_is_evidence_not_executed():
    config = make_config()
    recorder = TraceRecorder()
    stack = L.AgentStack(config.agents[3], config, Thresholds(4, 1), recorder)
    foreign = Transaction(2, 3, 5, 1)  # agent 2's seq 1, sent on agent 1's channel
    stack.on_message(1, BroadcastMessage(1, MessageKind.INITIAL, 1, foreign))
    for frm in (1, 2, 3):
        stack.on_message(frm, BroadcastMessage(1, MessageKind.READY, 1, foreign))
    assert [r["kind"] for r in recorder.records] == ["SNAPSHOT", "RRB_DELIVER", "BYZ_EVIDENCE"]
    assert recorder.records[2]["reason"] == "payload-identity-mismatch"
    assert stack.ledger.executed == {} and stack.ledger.exec_buffer == {}


def test_a_payload_paying_an_unknown_agent_is_evidence_not_executed():
    config = make_config()
    recorder = TraceRecorder()
    stack = L.AgentStack(config.agents[3], config, Thresholds(4, 1), recorder)
    stray = Transaction(1, 99, 5, 1)  # no ledger holds an account for agent 99
    stack.on_message(1, BroadcastMessage(1, MessageKind.INITIAL, 1, stray))
    for frm in (1, 2, 3):
        stack.on_message(frm, BroadcastMessage(1, MessageKind.READY, 1, stray))
    assert [r["kind"] for r in recorder.records] == ["SNAPSHOT", "RRB_DELIVER", "BYZ_EVIDENCE"]
    assert recorder.records[2]["reason"] == "unknown-recipient"
    assert stack.ledger.executed == {} and stack.ledger.exec_buffer == {}


def equivocator(params=None):
    config = make_config(overrides={1: (L.StrategyKind.BYZ_EQUIVOCATE, params or {})})
    return L.AgentStack(config.agents[0], config, Thresholds(4, 1), TraceRecorder())


def test_an_equivocator_drops_a_pay_that_finds_its_channel_busy():
    stack = equivocator()
    wave = stack.on_action({"type": "pay", "to": 2, "amount": 5})
    assert [(to, msg.kind, msg.seq) for to, msg in wave] == [
        (to, MessageKind.INITIAL, 1) for to in (1, 2, 3, 4)]
    assert stack.on_action({"type": "pay", "to": 3, "amount": 7}) == []
    assert not stack.pending
    honest = wave[0][1].payload
    outputs = []
    for frm in (2, 3, 4):  # its own seq 1 delivers, freeing the channel
        outputs += stack.on_message(frm, BroadcastMessage(1, MessageKind.READY, 1, honest))
    assert stack.channel_free() and stack.channels[1].initiated == 1
    assert MessageKind.INITIAL not in {msg.kind for _, msg in outputs}


@pytest.mark.parametrize("kind", [MessageKind.ECHO, MessageKind.READY])
def test_an_equivocator_splits_only_its_initial_wave(kind):
    stack = equivocator({"alt_to": 3, "alt_amount": 6, "alt_targets": [4]})
    honest = Transaction(1, 2, 5, 1)
    for channel in (1, 2):
        outputs = [(to, BroadcastMessage(channel, kind, 1, honest)) for to in (1, 2, 3, 4)]
        assert stack.behavior.filter_outbound(stack, list(outputs)) == outputs
    initial = BroadcastMessage(1, MessageKind.INITIAL, 1, honest)
    split = stack.behavior.filter_outbound(stack, [(to, initial) for to in (1, 2, 3, 4)])
    assert [msg.payload for _, msg in split] == [honest] * 3 + [Transaction(1, 3, 6, 1)]


@pytest.mark.parametrize("kind,params", [(kind, {}) for kind in L.StrategyKind]
                         + [(L.StrategyKind.BYZ_BAD_DEPS, {"bad_ref": [2, 1]})],
                         ids=[kind.value for kind in L.StrategyKind] + ["BYZ_BAD_DEPS-bad_ref"])
def test_mint_returns_the_payload_at_the_seq_it_is_given(kind, params):
    config = make_config(overrides={1: (kind, params)})
    stack = L.AgentStack(config.agents[0], config, Thresholds(4, 1), TraceRecorder())
    tx = stack.behavior.mint(stack, {"type": "pay", "to": 2, "amount": 5}, 3)
    assert isinstance(tx, Transaction) and tx.id == TxId(1, 3) and tx.recipient == 2
    assert stack.channels[1].initiated == 0 and stack.channels[1].next_seq == 1


# -- utility accounting ----------------------------------------------------------------


def test_utility_matches_hand_arithmetic():
    agents = [{"id": i, "kind": "COMPLIANT"} for i in range(1, 10)]
    records = [
        {"tick": 0, "idx": 0, "kind": "CONFIG", "n": 9, "epsilon": 1,
         "initial_balance": 1000, "agents": agents}
    ]
    records.append(
        {
            "tick": 1,
            "idx": 1,
            "kind": "EXECUTE",
            "agent": 9,
            "verdict": "committed",
            "dep_credit": 0,
            "converted": [[k, 1] for k in range(1, 9)],
            "txid": [9, 1],
            "tx": {"initiator": 9, "recipient": 2, "value": 0, "seq": 1, "deps": [], "fees": []},
        }
    )
    for k in range(120):
        records.append({"tick": 2, "idx": 2 + k, "kind": "SEND", "agent": 9, "to": 1,
                        "channel": 1, "mkind": "ECHO", "seq": 1})
    # 8 credits at epsilon=1 minus 120 messages at 1/100 each
    view = TraceView(records)
    assert utility(view, 9, "1/100") == Fraction(8) - Fraction(120, 100)
    assert utility(view, 9, "1/100") == Fraction(34, 5)


def test_converted_credit_sets_come_from_own_records():
    records = run_records(
        make_config(
            seed=12,
            script=[pay(0, 1, 2, 5), pay(20, 1, 3, 5), pay(60, 2, 3, 1, convert_fees=True)],
        )
    )
    credits = converted_credits(TraceView(records), 2)
    assert credits == {TxId(1, 1), TxId(1, 2)}


# -- compliant bisimulation --------------------------------------------------------------


def test_compliant_stack_matches_raw_replica():
    assert_matches_raw_replica(
        d_min=5,
        script=[pay(0, 1, 2, 5), pay(30, 2, 3, 4), pay(70, 3, 4, 2, convert_fees=True)],
        gated=False,
    )


def test_compliant_stack_matches_raw_replica_through_the_gate():
    # back-to-back seqs on channels 1 and 2 close agent 4's gate twice
    assert_matches_raw_replica(
        d_min=1,
        script=[pay(0, 1, 2, 5), pay(1, 1, 3, 4), pay(2, 1, 2, 3), pay(3, 2, 3, 4),
                pay(4, 2, 1, 1)],
        gated=True,
    )


def assert_matches_raw_replica(d_min, script, gated):
    """Replay one agent's inbound traffic through bare channel+ledger state and
    compare every outbound message, execution and channel record with the
    simulator's trace."""
    config = make_config(seed=17, d_min=d_min, d_max=9, script=script)
    records = run_records(config)
    agent = 4  # never acts, only reacts
    thresholds = Thresholds(4, 1)
    recorder = TraceRecorder()
    channels = {c: ChannelState(c, agent, thresholds, recorder.emit) for c in range(1, 5)}
    ledger = LedgerState(agent, 4, 1, 1000, lambda kind, **fields: None)

    inbound: dict[int, list] = {}
    for r in records:
        if r["kind"] == "RECV" and r["agent"] == agent:
            inbound.setdefault(r["tick"], []).append(r)

    sent = []
    executed = []
    payloads = {}  # digest -> payload, reconstructed from EXECUTE records
    for r in records:
        if r["kind"] == "EXECUTE":
            tx = r["tx"]
            from ledgersim.transaction import Transaction

            obj = Transaction(
                tx["initiator"], tx["recipient"], tx["value"], tx["seq"],
                frozenset(TxId(*d) for d in tx["deps"]),
                frozenset(TxId(*f) for f in tx["fees"]),
            )
            payloads[obj.digest_hex] = obj

    from ledgersim.broadcast import BroadcastMessage

    for tick in sorted(inbound):
        recorder.tick = tick
        queue = [
            BroadcastMessage(
                r["channel"], MessageKind(r["mkind"]), r["seq"], payloads[r["digest"]]
            )
            for r in inbound[tick]
        ]
        frms = [r["frm"] for r in inbound[tick]]
        while queue:
            msg = queue.pop(0)
            frm = frms.pop(0)
            outcome = channels[msg.channel].on_receive(frm, msg)
            for seq, tx_obj in outcome.delivered:
                for report in ledger.on_rrb_deliver(tx_obj):
                    executed.append((report.tx.id, report.verdict))
            for to, out in outcome.outbound:
                if to == agent:
                    queue.append(out)
                    frms.append(agent)
                else:
                    sent.append((to, out.channel, out.kind.value, out.seq))

    trace_sent = [
        (r["to"], r["channel"], r["mkind"], r["seq"])
        for r in records
        if r["kind"] == "SEND" and r["agent"] == agent
    ]
    trace_executed = [
        (TxId(*r["txid"]), r["verdict"])
        for r in records
        if r["kind"] == "EXECUTE" and r["agent"] == agent
    ]
    assert sent == trace_sent
    assert executed == trace_executed
    # the channels' own records: evidence and retaliation, fields in order
    def fields(rec):
        return [(k, v) for k, v in rec.items() if k != "idx"]

    channel_kinds = {"BYZ_EVIDENCE", "RETAL_BLOCK", "RETAL_UNBLOCK"}
    assert [fields(r) for r in recorder.records] == [
        fields(r) for r in records if r["kind"] in channel_kinds and r["agent"] == agent
    ]
    assert any(r["kind"] == "RETAL_BLOCK" for r in recorder.records) == gated
