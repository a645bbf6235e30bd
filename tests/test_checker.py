import copy
import random

import pytest

import ledgersim as L
from helpers import make_config, naive_closure, oracle_height, pay, random_history, run_records
from ledgersim.checker import (
    CyclicDependency,
    MissingTx,
    TraceView,
    chain_height,
    check_agreement,
    check_conservation,
    check_dependency_closure,
    check_no_debt,
    check_rrb_uniqueness,
    check_source_order,
    check_validity,
    dependency_closure,
)
from ledgersim.trace import tx_fields, txid_field
from ledgersim.transaction import Transaction, TxId


def tx(initiator, seq, deps=(), fees=(), recipient=None, value=1):
    recipient = recipient or (initiator % 3) + 1
    return Transaction(
        initiator, recipient, value, seq,
        frozenset(TxId(*d) for d in deps), frozenset(TxId(*f) for f in fees),
    )


def universe_of(*txs):
    return {t.id: t for t in txs}


# -- closure -----------------------------------------------------------------


def test_closure_base_case_is_the_root_alone():
    uni = universe_of(tx(1, 1))
    assert dependency_closure(TxId(1, 1), uni) == {TxId(1, 1)}


def test_closure_pulls_deps_and_source_prefix():
    uni = universe_of(tx(2, 1), tx(1, 1), tx(1, 2, deps=[(2, 1)]))
    got = dependency_closure(TxId(1, 2), uni)
    assert got == {TxId(1, 2), TxId(1, 1), TxId(2, 1)}


def test_closure_follows_fee_references():
    uni = universe_of(tx(2, 1), tx(1, 1, fees=[(2, 1)]))
    assert dependency_closure(TxId(1, 1), uni) == {TxId(1, 1), TxId(2, 1)}


def test_closure_missing_reference_raises():
    uni = universe_of(tx(1, 1, deps=[(9, 1)]))
    with pytest.raises(MissingTx):
        dependency_closure(TxId(1, 1), uni)
    with pytest.raises(MissingTx):
        dependency_closure(TxId(5, 1), uni)


@pytest.mark.parametrize("seed", range(25))
def test_closure_matches_naive_oracle(seed):
    rng = random.Random(1000 + seed)
    uni = random_history(rng, max_txs=25)
    for root in uni:
        assert dependency_closure(root, uni) == naive_closure(root, uni)


def test_closure_is_monotone():
    rng = random.Random(77)
    uni = random_history(rng)
    for root in uni:
        members = dependency_closure(root, uni)
        for member in members:
            assert dependency_closure(member, uni) <= members


# -- height -----------------------------------------------------------------


def test_height_of_isolated_tx_is_one():
    uni = universe_of(tx(1, 1))
    assert chain_height(TxId(1, 1), uni) == 1


def test_height_counts_longest_chain():
    uni = universe_of(tx(2, 1), tx(1, 1), tx(1, 2, deps=[(2, 1)]))
    assert chain_height(TxId(1, 2), uni) == 2
    assert chain_height(TxId(1, 1), uni) == 1


def test_height_of_same_initiator_chain_is_its_length():
    k = 5
    uni = universe_of(*[tx(1, s) for s in range(1, k + 1)])
    assert chain_height(TxId(1, k), uni) == k


def test_height_detects_byzantine_cycles():
    a = tx(1, 1, deps=[(2, 1)])
    b = tx(2, 1, deps=[(1, 1)])
    uni = universe_of(a, b)
    with pytest.raises(CyclicDependency):
        chain_height(TxId(1, 1), uni)


@pytest.mark.parametrize("seed", range(15))
def test_height_matches_longest_path_oracle(seed):
    rng = random.Random(2000 + seed)
    uni = random_history(rng, max_txs=20)
    for root in uni:
        assert chain_height(root, uni) == oracle_height(root, uni)


# -- trace check sensitivity -----------------------------------------------------


def good_records():
    return run_records(
        make_config(
            seed=15,
            script=[pay(0, 1, 2, 5), pay(20, 2, 3, 4), pay(60, 3, 1, 2, convert_fees=True)],
        )
    )


def test_all_checks_pass_on_reference_run():
    reports = L.run_all_checks(good_records())
    assert [r.status for r in reports] == ["PASS"] * len(reports)


def mutate(records, predicate, change):
    records = copy.deepcopy(records)
    for r in records:
        if predicate(r):
            change(r)
            return records
    raise AssertionError("fixture found nothing to corrupt")


def test_agreement_names_the_flipped_verdict():
    records = mutate(
        good_records(),
        lambda r: r["kind"] == "EXECUTE" and r["agent"] == 2 and r["txid"] == [1, 1],
        lambda r: r.update(verdict="bad"),
    )
    report = check_agreement(TraceView(records))
    assert report.status == "FAIL"
    assert "(1, 1)" in report.detail


def test_validity_spots_a_dropped_execution():
    records = good_records()
    records = copy.deepcopy(records)
    records = [
        r
        for r in records
        if not (r["kind"] == "EXECUTE" and r["agent"] == 1 and r["txid"] == [1, 1])
    ]
    report = check_validity(TraceView(records))
    assert report.status == "FAIL"
    assert "agent 1" in report.detail


def test_no_debt_spots_a_negative_snapshot():
    records = mutate(
        good_records(),
        lambda r: r["kind"] == "SNAPSHOT" and r["tick"] > 0,
        lambda r: r["B"].__setitem__(0, -1),
    )
    assert check_no_debt(TraceView(records)).status == "FAIL"


def test_conservation_spots_a_skimmed_balance():
    records = mutate(
        good_records(),
        lambda r: r["kind"] == "SNAPSHOT" and r["tick"] > 0,
        lambda r: r["B"].__setitem__(1, r["B"][1] + 1),
    )
    assert check_conservation(TraceView(records)).status == "FAIL"


def test_uniqueness_spots_a_second_digest():
    records = good_records()
    double = copy.deepcopy(records)
    for r in double:
        if r["kind"] == "RRB_DELIVER" and r["agent"] == 2:
            clone = dict(r, agent=3, digest="f" * 16)
            double.append(clone)
            break
    assert check_rrb_uniqueness(TraceView(double)).status == "FAIL"


def test_source_order_spots_a_swapped_sequence():
    records = good_records()
    records = copy.deepcopy(records)
    execs = [r for r in records if r["kind"] == "EXECUTE" and r["agent"] == 4]
    first = next(r for r in execs if r["txid"] == [1, 1])
    first["txid"] = [1, 2]
    first["tx"] = dict(first["tx"], seq=2)
    assert check_source_order(TraceView(records)).status == "FAIL"


def test_checks_are_pure_functions_of_the_records():
    records = good_records()
    before = copy.deepcopy(records)
    L.run_all_checks(records)
    assert records == before


# -- mutations: one corrupted field per case, and the matching check FAILs ---------


def find(records, kind, agent, txid=None):
    """Index of the first `kind` record of `agent` (for `txid`, if given)."""
    for k, r in enumerate(records):
        if r["kind"] == kind and r["agent"] == agent and (txid is None or r["txid"] == txid):
            return k
    raise AssertionError("fixture found nothing to corrupt")


def skim_balance(records):
    snap = records[find(records, "SNAPSHOT", 3)]
    snap["B"][2] -= 1


def flip_verdict(records):
    records[find(records, "EXECUTE", 4, [3, 1])]["verdict"] = "bad"


def change_digest(records):
    records[find(records, "RRB_DELIVER", 3)]["digest"] = "f" * 16


def swap_dependent_executions(records):
    # agent 3's (2, 1) lists (1, 1) among its deps
    a = find(records, "EXECUTE", 3, [1, 1])
    b = find(records, "EXECUTE", 3, [2, 1])
    assert records[b]["tx"]["deps"] == [[1, 1]]
    records[a], records[b] = records[b], records[a]


def reference_unexecuted(records):
    # nobody ever executes (4, 1): agent 4 makes no payment
    records[find(records, "EXECUTE", 2, [3, 1])]["tx"]["deps"].append([4, 1])


def reference_itself(records):
    records[find(records, "EXECUTE", 1, [2, 1])]["tx"]["deps"].append([2, 1])


MUTATIONS = {
    "snapshot_balance": (skim_balance, check_conservation, "agent 3"),
    "execute_verdict": (flip_verdict, check_agreement, "(3, 1)"),
    "deliver_digest": (change_digest, check_rrb_uniqueness, "two digests"),
    "swapped_executions": (
        swap_dependent_executions, check_dependency_closure, "executed (2, 1) before (1, 1)"
    ),
    "missing_dependency": (
        reference_unexecuted, check_dependency_closure,
        "agent 2 executed (3, 1) with TxId(initiator=4, seq=1) missing",
    ),
    "self_reference": (reference_itself, check_dependency_closure, "executed (2, 1) before (2, 1)"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_trace_fails_its_check(name):
    corrupt, check, detail = MUTATIONS[name]
    records = good_records()
    assert check(TraceView(records)).status == "PASS"
    corrupt(records)
    report = check(TraceView(records))
    assert report.status == "FAIL"
    assert detail in report.detail


# -- the direct-requirement check equals the full-closure check ---------------------


def full_closure_status(view):
    """The dependency check by full closure of every execution: the reference."""
    for agent in view.compliant:
        universe = {
            TxId(*r["txid"]): Transaction(
                r["tx"]["initiator"], r["tx"]["recipient"], r["tx"]["value"], r["tx"]["seq"],
                frozenset(TxId(*t) for t in r["tx"]["deps"]),
                frozenset(TxId(*t) for t in r["tx"]["fees"]),
            )
            for r in view.executes[agent]
        }
        done = set()
        for rec in view.executes[agent]:
            txid = TxId(*rec["txid"])
            try:
                needed = dependency_closure(txid, universe)
            except MissingTx:
                return "FAIL"
            if not needed <= done | {txid}:
                return "FAIL"
            done.add(txid)
    return "PASS"


def execute_records(order, n):
    config = {
        "kind": "CONFIG", "n": n, "epsilon": 1, "initial_balance": 1000,
        "agents": [{"id": i, "kind": "COMPLIANT"} for i in range(1, n + 1)],
    }
    return [config] + [
        {"kind": "EXECUTE", "agent": 1, "txid": txid_field(t.id), "tx": tx_fields(t)}
        for t in order
    ]


@pytest.mark.parametrize("seed", range(30))
def test_direct_check_matches_full_closure(seed):
    rng = random.Random(3000 + seed)
    history = list(random_history(rng, max_txs=25).values())
    n = max(t.initiator for t in history)
    swapped = list(history)
    k = rng.randrange(len(history) - 1)
    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
    dropped = list(history)
    del dropped[rng.randrange(len(history))]
    orders = [history, swapped, dropped, rng.sample(history, len(history))]
    statuses = []
    for order in orders:
        view = TraceView(execute_records(order, n))
        status = check_dependency_closure(view).status
        assert status == full_closure_status(view)
        statuses.append(status)
    assert statuses[0] == "PASS"
