"""Acceptance suite: desk-scale property sweeps, one test per criterion.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s); the asserts
carry the actual tolerances, all of which are exact unless stated otherwise.
"""

import functools
import json
import sys
import time
from pathlib import Path

import pytest

import ledgersim as L
from helpers import (
    backfill,
    incentive_config,
    make_config,
    naive_closure,
    oracle_height,
    pay,
    random_history,
    random_payment_script,
    run_records,
)
from ledgersim.checker import (
    TraceView,
    check_dependency_closure,
    check_no_debt,
    check_rrb_uniqueness,
    dependency_closure,
    chain_height,
    converted_credits,
    utility,
)
from ledgersim.cli import build_config
from ledgersim.trace import dump_record

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.json"))
SWEEP_SEEDS = 1000
SUITE_SEEDS = 250  # per system size; 500 seed-runs across N in {4, 7}
PAIR_SEEDS = 200


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}", file=sys.stderr)
                raise
            print(f"[PASS] {label}")

        return wrapper

    return decorate


def equivocate_config(n, t, seed):
    overrides = {1: (L.StrategyKind.BYZ_EQUIVOCATE, {})}
    script = [pay(0, 1, 2, 5), pay(8, 2, 3, 1)]
    return make_config(n=n, t=t, seed=seed, d_min=1, d_max=10,
                       overrides=overrides, script=script)


def silent_config(n, t, seed):
    overrides = {n - k: (L.StrategyKind.BYZ_SILENT, {}) for k in range(t)}
    script = [pay(0, 1, 2, 5), pay(10, 1, 3, 2)]
    return make_config(n=n, t=t, seed=seed, d_min=1, d_max=10,
                       overrides=overrides, script=script)


@criterion("criterion 1: delivery uniqueness under equivocation, 1000 seeds per size, < 60 s")
def test_criterion_1_uniqueness_sweep():
    started = time.time()
    for n, t in ((4, 1), (7, 2)):
        passed = 0
        for seed in range(SWEEP_SEEDS):
            result = L.run(equivocate_config(n, t, seed))
            assert result.quiescent
            report = check_rrb_uniqueness(TraceView(result.records))
            passed += report.status == "PASS"
        assert passed == SWEEP_SEEDS, f"N={n}: {passed}/{SWEEP_SEEDS}"
    elapsed = time.time() - started
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"


@criterion("criterion 2: every broadcast delivered by all rational agents despite t silent")
def test_criterion_2_validity_liveness_sweep():
    for n, t in ((4, 1), (7, 2)):
        rational = [i for i in range(1, n + 1) if i <= n - t]
        for seed in range(SWEEP_SEEDS):
            result = L.run(silent_config(n, t, seed))
            assert result.quiescent, f"N={n} seed={seed} not quiescent"
            delivered = {
                (r["seq"], r["agent"])
                for r in result.records
                if r["kind"] == "RRB_DELIVER" and r["channel"] == 1
            }
            for seq in (1, 2):
                for agent in rational:
                    assert (seq, agent) in delivered, (
                        f"N={n} seed={seed}: agent {agent} missed seq {seq}"
                    )


@criterion("criterion 3: validity/agreement/integrity/source order on 500 compliant runs")
def test_criterion_3_core_properties_suite():
    import random

    wanted = {"validity", "agreement", "integrity", "source_order"}
    for n, t in ((4, 1), (7, 2)):
        for seed in range(SUITE_SEEDS):
            rng = random.Random(9000 + seed)
            config = make_config(
                n=n, t=t, seed=seed, d_min=1, d_max=10,
                script=random_payment_script(n, 50, rng),
            )
            result = L.run(config)
            assert result.quiescent
            reports = {r.name: r for r in L.run_all_checks(result.records)}
            for name in wanted:
                assert reports[name].status == "PASS", (
                    f"N={n} seed={seed}: {name}: {reports[name].detail}"
                )
            balances = {a: result.agents[a].ledger.B for a in result.agents}
            first = balances[1]
            assert all(b == first for b in balances.values()), (
                f"N={n} seed={seed}: balance vectors diverge"
            )


@criterion("criterion 4: overdraft punished by the fee alone, no debt")
def test_criterion_4_overdraft_punishment():
    overrides = {2: (L.StrategyKind.BYZ_OVERDRAFT, {"extra": 100})}
    config = make_config(
        n=4, t=1, seed=13, d_min=1, d_max=4,
        initial_balance=1000, overrides=overrides, script=[pay(0, 2, 3, 1)],
    )
    result = L.run(config)
    assert result.quiescent
    view = TraceView(result.records)
    executes = [r for r in result.records if r["kind"] == "EXECUTE"]
    rational = [1, 3, 4]
    for agent in rational:
        mine = [r for r in executes if r["agent"] == agent]
        assert [r["txid"] for r in mine] == [[2, 1]]
        assert mine[0]["verdict"] == "bad"
    for agent in rational:
        final = result.agents[agent].ledger.B
        assert final[2] == 1000 - 4 * 1  # exactly n * epsilon
        assert final[3] == 1000  # recipient untouched
    assert check_no_debt(view).status == "PASS"


@criterion("criterion 5: conservation identity exact after every execution, all scenarios")
def test_criterion_5_conservation_everywhere():
    assert SCENARIOS, "shipped scenario suite missing"
    for path in SCENARIOS:
        config = build_config(json.loads(path.read_text()))
        result = L.run(config)
        assert result.quiescent, path.name
        reports = {r.name: r for r in L.run_all_checks(result.records)}
        assert reports["conservation"].status == "PASS", (
            f"{path.name}: {reports['conservation'].detail}"
        )
        assert reports["no_debt"].status == "PASS", path.name


def retaliation_config(seed, with_freerider):
    overrides = {}
    if with_freerider:
        overrides[4] = (L.StrategyKind.RATIONAL_FREERIDER, {"channels": [1], "seqs": [1]})
    script = [
        pay(0, 1, 2, 5),
        pay(25, 1, 4, 8),
        pay(30, 2, 3, 2),
        backfill(90, 4),
    ]
    return make_config(n=4, t=1, seed=seed, d_min=1, d_max=3,
                       overrides=overrides, script=script)


@criterion("criterion 6: retaliation blocks before gated seq-2 traffic, unblocks on backfill")
def test_criterion_6_retaliation_mechanics():
    records = run_records(retaliation_config(seed=5, with_freerider=True))
    compliant = (1, 2, 3)
    for agent in compliant:
        blocks = [
            r for r in records
            if r["kind"] == "RETAL_BLOCK" and r["agent"] == agent
            and r["peer"] == 4 and r["channel"] == 1
        ]
        assert blocks, f"agent {agent} never retaliated"
        gated_sends = [
            r for r in records
            if r["kind"] == "SEND" and r["agent"] == agent and r["to"] == 4
            and r["channel"] == 1 and r["seq"] >= 2 and r["mkind"] != "INITIAL"
        ]
        assert gated_sends, f"agent {agent} never resumed channel-1 traffic"
        assert min(b["idx"] for b in blocks) < min(s["idx"] for s in gated_sends)
        unblocks = [
            r for r in records
            if r["kind"] == "RETAL_UNBLOCK" and r["agent"] == agent and r["peer"] == 4
        ]
        assert unblocks and min(u["tick"] for u in unblocks) >= 90
    # other channels to the freerider are untouched: counts match the twin run
    twin = run_records(retaliation_config(seed=5, with_freerider=False))

    def channel_counts(recs):
        counts = {}
        for r in recs:
            if r["kind"] == "SEND" and r["to"] == 4 and r["channel"] != 1:
                counts[r["channel"]] = counts.get(r["channel"], 0) + 1
        return counts

    assert channel_counts(records) == channel_counts(twin)


@criterion("criterion 7: freeriding loses utility and forfeits fee conversions")
def test_criterion_7_incentive_ordering():
    c = "1/100"
    ordered = 0
    fired = 0
    missed_conversion = 0
    for seed in range(PAIR_SEEDS):
        fr_records = run_records(incentive_config(seed, freerider=True))
        fr_view = TraceView(fr_records)
        tw_view = TraceView(run_records(incentive_config(seed, freerider=False)))
        fr_util = utility(fr_view, 4, c)
        tw_util = utility(tw_view, 4, c)
        ordered += fr_util < tw_util
        retaliated = any(
            r["kind"] == "RETAL_BLOCK" and r["peer"] == 4 and r["channel"] == 1
            for r in fr_records
        )
        if retaliated:
            fired += 1
            fr_converted = converted_credits(fr_view, 4)
            tw_converted = converted_credits(tw_view, 4)
            missed_conversion += bool(tw_converted - fr_converted)
    assert fired > 0
    assert missed_conversion == fired, f"{missed_conversion}/{fired} seeds missed a credit"
    assert ordered >= 0.95 * PAIR_SEEDS, f"ordering held on {ordered}/{PAIR_SEEDS}"


@criterion("criterion 8: closure and height match brute-force oracles; prefixes closed")
def test_criterion_8_closure_and_height_oracles():
    import random

    for seed in range(100):
        rng = random.Random(3000 + seed)
        universe = random_history(rng, max_txs=40)
        for root in universe:
            assert dependency_closure(root, universe) == naive_closure(root, universe)
            assert chain_height(root, universe) == oracle_height(root, universe)
    for n, t in ((4, 1), (7, 2)):
        for seed in range(5):
            rng = random.Random(8800 + seed)
            config = make_config(
                n=n, t=t, seed=seed, d_min=1, d_max=10,
                script=random_payment_script(n, 40, rng),
            )
            records = run_records(config)
            assert check_dependency_closure(TraceView(records)).status == "PASS"


@criterion("criterion 9: every scenario replays byte-identically")
def test_criterion_9_determinism():
    for path in SCENARIOS:
        raw = json.loads(path.read_text())
        first = L.run(build_config(raw)).records
        second = L.run(build_config(raw)).records
        a = "\n".join(dump_record(r) for r in first)
        b = "\n".join(dump_record(r) for r in second)
        assert a == b, f"{path.name} diverged between runs"
