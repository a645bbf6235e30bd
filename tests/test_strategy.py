from fractions import Fraction

import ledgersim as L
from helpers import backfill, make_config, pay, run_records
from ledgersim.broadcast import ChannelState, MessageKind, Thresholds
from ledgersim.checker import TraceView, check_conservation
from ledgersim.ledger import LedgerState
from ledgersim.strategy import converted_credits, utility, utility_breakdown
from ledgersim.transaction import TxId


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
    parts = utility_breakdown(records, 4)
    assert parts == {"fee_income": 0, "payments_net": 0, "messages_sent": 0}
    assert utility(records, 4, "1/100") <= 0


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
    assert not kinds_of(records, kind="COMMIT")
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
    view = TraceView(records)
    events = view.ledger_events[4]  # the opening SNAPSHOT, then EXECUTE/SNAPSHOT pairs
    seqs = [0] * 4
    for execute, snap in zip(events[1::2], events[2::2]):
        assert (execute["kind"], snap["kind"]) == ("EXECUTE", "SNAPSHOT")
        seqs[execute["tx"]["initiator"] - 1] += 1
        assert snap["S"] == seqs
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


# -- utility accounting ----------------------------------------------------------------


def test_utility_matches_hand_arithmetic():
    records = [{"tick": 0, "idx": 0, "kind": "CONFIG", "epsilon": 1}]
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
        records.append({"tick": 2, "idx": 2 + k, "kind": "SEND", "agent": 9, "to": 1})
    # 8 credits at epsilon=1 minus 120 messages at 1/100 each
    assert utility(records, 9, "1/100") == Fraction(8) - Fraction(120, 100)
    assert utility(records, 9, "1/100") == Fraction(34, 5)


def test_converted_credit_sets_come_from_own_records():
    records = run_records(
        make_config(
            seed=12,
            script=[pay(0, 1, 2, 5), pay(20, 1, 3, 5), pay(60, 2, 3, 1, convert_fees=True)],
        )
    )
    credits = converted_credits(records, 2)
    assert credits == {TxId(1, 1), TxId(1, 2)}


# -- compliant bisimulation --------------------------------------------------------------


def test_compliant_stack_matches_raw_replica():
    """Replay one agent's inbound traffic through bare channel+ledger state and
    compare every outbound message and execution with the simulator's trace."""
    config = make_config(
        seed=17, d_min=5, d_max=9,
        script=[pay(0, 1, 2, 5), pay(30, 2, 3, 4), pay(70, 3, 4, 2, convert_fees=True)],
    )
    records = run_records(config)
    agent = 4  # never acts, only reacts
    thresholds = Thresholds.for_system(4, 1)
    channels = {c: ChannelState(c, agent, thresholds) for c in range(1, 5)}
    ledger = LedgerState(agent, 4, 1, 1000)

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
