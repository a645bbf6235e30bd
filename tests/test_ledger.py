import random

import pytest

import ledgersim as L
from helpers import make_config, random_payment_script
from ledgersim.ledger import LedgerState
from ledgersim.transaction import Transaction, TxId


def ledger(self_id=1, n=4, epsilon=1, balance=100, strict=False, emit=lambda kind, **fields: None):
    return LedgerState(self_id, n, epsilon, balance, emit, condition3_strict=strict)


def seed_executed(led, initiator, seq, recipient, value):
    """Run a well-formed foreign transaction through the normal delivery path."""
    tx = Transaction(initiator, recipient, value, seq)
    reports = led.on_rrb_deliver(tx)
    assert any(r.tx.id == tx.id for r in reports)
    return tx


# -- pay ----------------------------------------------------------------------


def test_pay_snapshots_payment_buffer_into_deps():
    led = ledger(self_id=1)
    seed_executed(led, 3, 1, recipient=1, value=7)
    tx = led.pay(2, 5, 1)
    assert tx.initiator == 1 and tx.recipient == 2 and tx.value == 5
    assert tx.seq == 1
    assert tx.deps == frozenset({TxId(3, 1)})
    assert tx.fees == frozenset()
    # the referenced entry is consumed at execution, not at mint time,
    # so this agent's execution credits it exactly like every peer's does
    assert TxId(3, 1) in led.Q[1]
    led.on_rrb_deliver(tx)
    assert TxId(3, 1) not in led.Q[1]
    assert led.executed[tx.id].dep_credit == 7


def test_pay_refuses_below_fee_headroom():
    led = ledger(self_id=1, balance=8)
    assert led.pay(2, 5, 1) is None  # 8 < 5 + 4*1


def test_pay_boundary_is_inclusive():
    led = ledger(self_id=1, balance=9)
    assert led.pay(2, 5, 1).value == 5  # 9 == 5 + 4*1 is allowed


def test_pay_with_conversion_references_all_credits():
    led = ledger(self_id=1)
    for seq in (1, 2, 3):
        seed_executed(led, 2, seq, recipient=3, value=1)
    assert len(led.F[1]) == 3
    tx = led.pay(2, 0, 1, convert_fees=True)
    assert tx.fees == frozenset({TxId(2, 1), TxId(2, 2), TxId(2, 3)})
    led.on_rrb_deliver(tx)
    assert led.F[1] == {tx.id}  # own execution granted a fresh credit
    assert led.executed[tx.id].converted == (TxId(2, 1), TxId(2, 2), TxId(2, 3))


def test_pay_without_conversion_leaves_credits():
    led = ledger(self_id=1)
    seed_executed(led, 2, 1, recipient=3, value=1)
    tx = led.pay(2, 5, 1, convert_fees=False)
    assert tx.fees == frozenset()
    assert TxId(2, 1) in led.F[1]


# -- execution gate -------------------------------------------------------------


def test_gate_requires_source_order():
    led = ledger()
    tx = Transaction(3, 2, 1, 2)  # seq 2 while S[3] == 0
    assert not led.conditions_met(tx)
    led.on_rrb_deliver(tx)
    assert led.executed == {}  # buffered, not executed


def test_gate_requires_executed_references():
    led = ledger()
    tx = Transaction(3, 2, 1, 1, deps=frozenset({TxId(2, 1)}))
    assert not led.conditions_met(tx)


def test_gate_passes_with_balance_above_fee_floor():
    led = ledger(n=4, epsilon=1, balance=5)  # 5 > 4
    assert led.conditions_met(Transaction(3, 2, 1, 1))


def test_gate_fails_at_exact_fee_floor():
    led = ledger(n=4, epsilon=1, balance=4)  # 4 is not > 4
    assert not led.conditions_met(Transaction(3, 2, 1, 1))


def test_gate_accepts_enough_live_fee_credits():
    led = ledger(n=4, epsilon=1, balance=100)
    for seq in range(1, 5):
        seed_executed(led, 2, seq, recipient=4, value=1)
    led.B[3] = 0
    tx = Transaction(3, 2, 0, 1, fees=frozenset(TxId(2, s) for s in range(1, 5)))
    assert led.conditions_met(tx)  # four live credits meet the n=4 floor


def test_gate_strict_variant_needs_more_than_n():
    led = ledger(strict=True)
    for seq in range(1, 5):
        seed_executed(led, 2, seq, recipient=4, value=1)
    led.B[3] = 0
    tx = Transaction(3, 2, 0, 1, fees=frozenset(TxId(2, s) for s in range(1, 5)))
    assert not led.conditions_met(tx)


def test_gate_ignores_already_converted_credits():
    led = ledger(self_id=1)
    for seq in (1, 2, 3, 4):
        seed_executed(led, 2, seq, recipient=3, value=1)
    fees = frozenset(TxId(2, s) for s in (1, 2, 3, 4))
    first = Transaction(3, 2, 0, 1, fees=fees)
    led.on_rrb_deliver(first)
    assert led.executed[first.id].converted == tuple(sorted(fees))
    led.B[3] = 0
    second = Transaction(3, 2, 0, 2, fees=fees)  # replays spent credits
    assert not led.conditions_met(second)


# -- execute ------------------------------------------------------------------


def test_execute_commits_and_charges_fee():
    led = ledger(n=4, epsilon=1)
    led.B[3] = 10
    tx = Transaction(3, 2, 5, 1)
    report = led.on_rrb_deliver(tx)[0]
    assert not report.bad
    assert led.B[3] == 10 - 5 - 4 == 1
    assert TxId(3, 1) in led.Q[2]
    assert all(TxId(3, 1) in led.F[j] for j in (1, 2, 3, 4))
    assert led.S[3] == 1


def test_execute_overdraft_charges_fee_without_transfer():
    led = ledger(n=4, epsilon=1)
    led.B[3] = 6
    tx = Transaction(3, 2, 5, 1)
    report = led.on_rrb_deliver(tx)[0]
    assert report.bad  # 6 < 5 + 4
    assert led.B[3] == 2
    assert TxId(3, 1) not in led.Q[2]
    assert all(TxId(3, 1) in led.F[j] for j in (1, 2, 3, 4))


def test_execute_marks_bad_dependency_contagion():
    led = ledger(n=4, epsilon=1)
    led.B[3] = 6
    bad = Transaction(3, 2, 5, 1)
    assert led.on_rrb_deliver(bad)[0].bad
    led.B[3] = 100
    follow = Transaction(3, 2, 1, 2, deps=frozenset({bad.id}))
    report = led.on_rrb_deliver(follow)[0]
    assert report.bad  # bad dep taints it regardless of balance


def test_commit_zero_value_moves_only_the_reference():
    led = ledger(n=4, epsilon=1)
    before = led.B[3]
    tx = Transaction(3, 2, 0, 1)
    report = led.on_rrb_deliver(tx)[0]
    assert not report.bad
    assert led.B[3] == before - 4
    assert TxId(3, 1) in led.Q[2]


def test_a_second_delivery_of_an_executed_transaction_executes_nothing():
    led = ledger()
    tx = Transaction(3, 2, 1, 1)
    assert len(led.on_rrb_deliver(tx)) == 1
    balances, seqs = dict(led.B), dict(led.S)
    assert led.on_rrb_deliver(tx) == []
    assert led.B == balances and led.S == seqs


def test_fee_credit_granted_even_to_initiator_of_bad_tx():
    led = ledger(n=4, epsilon=1)
    led.B[3] = 6
    bad = Transaction(3, 2, 5, 1)
    led.on_rrb_deliver(bad)
    assert bad.id in led.F[3]


# -- try_execute fixpoint --------------------------------------------------------


def test_fixpoint_drains_same_initiator_chain():
    led = ledger()
    led.exec_buffer[TxId(3, 2)] = Transaction(3, 2, 1, 2)
    reports = led.on_rrb_deliver(Transaction(3, 2, 1, 1))
    assert [r.tx.seq for r in reports] == [1, 2]


def test_fixpoint_gap_executes_nothing():
    led = ledger()
    assert led.on_rrb_deliver(Transaction(3, 2, 1, 2)) == []


def test_fixpoint_cascades_across_initiators():
    led = ledger()
    first = Transaction(3, 4, 1, 1)
    second = Transaction(4, 2, 1, 1, deps=frozenset({first.id}))
    led.exec_buffer[second.id] = second
    reports = led.on_rrb_deliver(first)
    assert [r.tx.id for r in reports] == [first.id, second.id]


def test_ledger_records_each_execution_before_the_next():
    seen = []
    led = ledger(emit=lambda kind, **fields: seen.append((kind, fields)))
    first = Transaction(3, 4, 1, 1)
    second = Transaction(4, 2, 1, 1, deps=frozenset({first.id}))
    led.exec_buffer[second.id] = second
    reports = led.on_rrb_deliver(first)
    summary = [(kind, f["txid"] if kind == "EXECUTE" else f["S"]) for kind, f in seen]
    assert summary == [
        ("SNAPSHOT", [0, 0, 0, 0]),
        ("EXECUTE", [3, 1]), ("SNAPSHOT", [0, 0, 1, 0]),
        ("EXECUTE", [4, 1]), ("SNAPSHOT", [0, 0, 1, 1]),
    ]
    assert [r.tx.id for r in reports] == [first.id, second.id]


def test_snapshot_shape():
    led = ledger(n=4, balance=100)
    snap = led.snapshot()
    assert snap == {
        "agent": 1,
        "B": [100, 100, 100, 100],
        "S": [0, 0, 0, 0],
        "f_counts": [0, 0, 0, 0],
        "q_counts": [0, 0, 0, 0],
    }


# -- money identity -------------------------------------------------------------


@pytest.mark.parametrize("discard", [False, True], ids=["kept", "one-credit-discarded"])
def test_money_identity_holds_at_every_snapshot(discard):
    """sum(B) + pending value + epsilon * live credits is the money supply on
    every ledger at every SNAPSHOT it writes; one discarded credit breaks it."""
    n = 7
    script = random_payment_script(n, 60, random.Random(7))
    config = make_config(n=n, t=2, seed=7, d_max=9, script=script)
    sim = L.Simulator(config)
    totals = []

    def checking(led, emit):
        def stand_in(kind, **fields):
            if kind == "SNAPSHOT":
                if discard and len(totals) == 100:
                    led.F[1].discard(min(led.F[1]))
                totals.append(sum(led.B.values()) + led.pending_value()
                              + config.epsilon * led.live_credits())
            return emit(kind, **fields)
        return stand_in

    for stack in sim.agents.values():
        stack.ledger.emit = checking(stack.ledger, stack.ledger.emit)
    sim.run()
    supply = n * config.initial_balance
    assert len(totals) == sum(len(stack.ledger.executed) for stack in sim.agents.values()) > 100
    if discard:
        assert set(totals[:100]) == {supply} and totals[100] == supply - config.epsilon
    else:
        assert set(totals) == {supply}
