import io
import json
import os
import shlex
import subprocess
import sys
from collections.abc import Sequence
from dataclasses import fields
from pathlib import Path

import pytest

from ledgersim.checker import FAIL, CheckReport, TraceView
from ledgersim.cli import build_config, main
from ledgersim.netsim import SimConfig, run
from ledgersim.strategy import AgentSpec, StrategyKind
from ledgersim.trace import write_trace
from ledgersim.transaction import Transaction

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def minimal_scenario(**over):
    body = {
        "n": 4,
        "t": 1,
        "epsilon": 1,
        "initial_balance": 100,
        "seed": 3,
        "d_min": 1,
        "d_max": 3,
        "agents": [{"id": i, "kind": "COMPLIANT"} for i in range(1, 5)],
        "script": [
            {"tick": 0, "agent": 1, "action": {"pay": {"to": 2, "amount": 5}}},
            {"tick": 10, "agent": 2, "action": {"pay": {"to": 3, "amount": 2}}},
        ],
    }
    body.update(over)
    return body


def test_run_with_checks_passes_on_shipped_scenario(capsys):
    code = main(["run", str(SCENARIOS / "allgood.json"), "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == len([l for l in out.splitlines() if l.startswith("[")])
    assert "[PASS] validity" in out and "[PASS] conservation" in out


def test_run_with_a_failing_check_exits_one(monkeypatch, capsys):
    monkeypatch.setattr("ledgersim.cli.ALL_CHECKS", (lambda view: CheckReport("x", FAIL, "y"),))
    assert main(["run", str(SCENARIOS / "allgood.json"), "--check"]) == 1
    assert capsys.readouterr().out == "[FAIL] x: y\n"


def test_run_summary_prints_balances_and_utility(capsys):
    code = main(["run", str(SCENARIOS / "overdraft.json"), "--check", "--summary"])
    out = capsys.readouterr().out
    assert code == 0
    # the overdrafter loses exactly n*epsilon
    assert "2:996" in out
    assert "BYZ_OVERDRAFT" in out


def test_run_check_summary_folds_the_records_once(monkeypatch, capsys):
    builds = []
    init = TraceView.__init__

    def counted(self, records):
        builds.append(1)
        init(self, records)

    monkeypatch.setattr(TraceView, "__init__", counted)
    assert main(["run", str(SCENARIOS / "allgood.json"), "--check", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] conservation" in out and "balances (view of agent 1)" in out
    assert len(builds) == 1


def test_malformed_scenario_names_the_invariant(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario(t=2))  # 3t >= n
    code = main(["run", path, "--check"])
    err = capsys.readouterr().err
    assert code == 2
    assert "3t < n" in err


def test_unparseable_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["run", str(path)]) == 2


def test_missing_file_exits_two(capsys):
    assert main(["run", "/nonexistent/path.json"]) == 2


def test_unwritable_trace_path_exits_two_before_simulating(tmp_path, capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("simulated although the trace cannot be written")

    monkeypatch.setattr("ledgersim.cli.run", no_run)
    trace = tmp_path / "no" / "such" / "dir" / "t.jsonl"
    assert main(["run", str(SCENARIOS / "allgood.json"), "--trace", str(trace)]) == 2
    assert "error: cannot write trace: " in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_trace_that_cannot_be_written_in_full_exits_two(capsys):
    assert main(["run", str(SCENARIOS / "allgood.json"), "--trace", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write trace: ") and "No space left on device" in err


def test_nonquiescent_exits_three(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario(max_steps=4))
    code = main(["run", path])
    assert code == 3
    assert "max_steps" in capsys.readouterr().err


def test_trace_roundtrip_reports_match(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    code = main(["run", str(SCENARIOS / "allgood.json"), "--check", "--trace", str(trace)])
    run_report = capsys.readouterr().out
    assert code == 0
    code = main(["check", str(trace)])
    check_report = capsys.readouterr().out
    assert code == 0
    assert check_report == run_report


def test_check_flags_a_corrupted_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    main(["run", str(SCENARIOS / "allgood.json"), "--trace", str(trace)])
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "EXECUTE" and rec["agent"] == 2:
            rec["verdict"] = "bad"
            lines[i] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
            break
    trace.write_text("\n".join(lines) + "\n")
    code = main(["check", str(trace)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] agreement" in out


def test_check_unreadable_trace_exits_two(tmp_path, capsys):
    trace = tmp_path / "junk.jsonl"
    trace.write_text("not json\n")
    assert main(["check", str(trace)]) == 2


def test_check_names_the_record_with_an_unknown_agent(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    main(["run", str(SCENARIOS / "allgood.json"), "--trace", str(trace)])
    capsys.readouterr()
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "EXECUTE":
            rec["agent"] = 9
            lines[i] = json.dumps(rec)
            break
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"record {rec['idx']} (EXECUTE) names agent 9, absent from CONFIG" in err


def written_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    main(["run", str(SCENARIOS / "allgood.json"), "--trace", str(trace)])
    capsys.readouterr()
    return trace


def test_check_rejects_a_deliver_by_an_unknown_agent(tmp_path, capsys):
    trace = written_trace(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec["kind"] == "RRB_DELIVER":
            rec["agent"] = 9
            lines[i] = json.dumps(rec)
            break
    trace.write_text("\n".join(lines) + "\n")
    assert main(["check", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "record 52 (RRB_DELIVER) names agent 9, absent from CONFIG" in err


def set_first(kind, key, value):
    """An edit that sets `key` on the first record of `kind`."""

    def edit(lines):
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["kind"] == kind:
                rec[key] = value
                lines[i] = json.dumps(rec)
                return
        raise AssertionError(f"no {kind} record")

    return edit


def edit_first_tx(change):
    """An edit that applies `change` to the payload of the first EXECUTE."""

    def edit(lines):
        for i, line in enumerate(lines):
            rec = json.loads(line)
            if rec["kind"] == "EXECUTE":
                change(rec["tx"])
                lines[i] = json.dumps(rec)
                return
        raise AssertionError("no EXECUTE record")

    return edit


INITIATOR_OUTSIDE_N = (
    "record 53 (EXECUTE) field 'tx' must be six fields: integer initiator, recipient, value "
    "and seq, and deps and fees as lists of [int, int] pairs, with initiator in 1..4, got"
)


@pytest.mark.parametrize(
    "edit,phrase",
    [
        (lambda lines: lines.insert(3, "1"), "not a JSON object: line 4"),
        (lambda lines: lines.insert(3, "[1,2]"), "not a JSON object: line 4"),
        (lambda lines: lines.insert(3, lines[3] + lines[4]), "Extra data: line 4 column"),
        (lambda lines: lines.__setitem__(3, lines[3][:-5]), "Unterminated string starting at: line 4"),
        (lambda lines: lines.pop(0), "record 0 (SNAPSHOT) comes first, not CONFIG"),
        (lambda lines: lines.clear(), "trace is empty"),
        (set_first("EXECUTE", "agent", [1]),
         "record 53 (EXECUTE) names agent [1], not an agent id"),
        (set_first("SEND", "agent", [1]),
         "record 5 (SEND) names agent [1], not an agent id"),
        (set_first("EXECUTE", "txid", [1]),
         "record 53 (EXECUTE) field 'txid' must be an [int, int] pair, got [1]"),
        (set_first("EXECUTE", "converted", None),
         "record 53 (EXECUTE) field 'converted' must be a list of [int, int] pairs, got None"),
        (set_first("SNAPSHOT", "B", "abc"),
         "record 1 (SNAPSHOT) field 'B' must be a list of one integer per agent, got 'abc'"),
        (set_first("RRB_DELIVER", "seq", [1]),
         "record 52 (RRB_DELIVER) field 'seq' must be an integer, got [1]"),
        (edit_first_tx(lambda tx: tx.update(memo=1)), "record 53 (EXECUTE) field 'tx' must be six"),
        (edit_first_tx(lambda tx: tx.update(deps=[[1, 1, 1]])),
         "record 53 (EXECUTE) field 'tx' must be six"),
        (set_first("CONFIG", "agents", None),
         "record 0 (CONFIG) field 'agents' must be a list of objects, got None"),
        (set_first("CONFIG", "epsilon", 1.5),
         "record 0 (CONFIG) field 'epsilon' must be an integer, got 1.5"),
        (set_first("CONFIG", "initial_balance", "1000"),
         "record 0 (CONFIG) field 'initial_balance' must be an integer, got '1000'"),
        (set_first("CONFIG", "n", "4"), "record 0 (CONFIG) field 'n' must be an integer, got '4'"),
        (set_first("CONFIG", "agents", [{"id": str(i), "kind": "COMPLIANT"} for i in range(1, 5)]),
         "record 0 (CONFIG) field 'agents[0].id' must be an integer, got '1'"),
        (set_first("EXECUTE", "agent", True),
         "record 53 (EXECUTE) names agent True, not an agent id"),
        (set_first("EXECUTE", "agent", 1.0),
         "record 53 (EXECUTE) names agent 1.0, not an agent id"),
        (set_first("SEND", "agent", True), "record 5 (SEND) names agent True, not an agent id"),
        (set_first("SNAPSHOT", "agent", 1.0),
         "record 1 (SNAPSHOT) names agent 1.0, not an agent id"),
        (set_first("RRB_DELIVER", "agent", True),
         "record 52 (RRB_DELIVER) names agent True, not an agent id"),
        # a value a check indexes by is tested where the fold reads it
        (edit_first_tx(lambda tx: tx.update(initiator=99)), INITIATOR_OUTSIDE_N),
        (edit_first_tx(lambda tx: tx.update(initiator=0)), INITIATOR_OUTSIDE_N),
        (edit_first_tx(lambda tx: tx.update(initiator=-1)), INITIATOR_OUTSIDE_N),
        (set_first("CONFIG", "agents", [{"id": i, "kind": "COMPLIANT"} for i in (1, 2, 3, 5)]),
         "record 0 (CONFIG) field 'agents[].id' must be 1..4, each once, got [1, 2, 3, 5]"),
        (set_first("CONFIG", "agents", [{"id": i, "kind": "COMPLIANT"} for i in (1, 2, 3, 3)]),
         "record 0 (CONFIG) field 'agents[].id' must be 1..4, each once, got [1, 2, 3, 3]"),
        (set_first("CONFIG", "agents", [1, 2]),
         "record 0 (CONFIG) field 'agents' must be a list of objects, got [1, 2]"),
        # a kind no strategy has would exempt its agent from the compliant-only checks
        (set_first("CONFIG", "agents", [{"id": i, "kind": "COMPLAINT" if i == 2 else "COMPLIANT"}
                                        for i in range(1, 5)]),
         "record 0 (CONFIG) field 'agents[1].kind' must be one of COMPLIANT, BYZ_SILENT,"),
    ],
    ids=["number-line", "array-line", "two-objects", "truncated", "no-leading-config", "empty",
         "execute-agent-list", "send-agent-list", "execute-txid-short", "execute-converted-null",
         "snapshot-balances-str", "deliver-seq-list", "execute-tx-seventh-field",
         "execute-deps-triple", "config-agents-null", "config-epsilon-float",
         "config-initial-balance-str", "config-n-str", "config-agent-id-str",
         "execute-agent-bool", "execute-agent-float", "send-agent-bool", "snapshot-agent-float",
         "deliver-agent-bool", "execute-initiator-beyond-n", "execute-initiator-zero",
         "execute-initiator-negative", "config-agent-ids-gap", "config-agent-ids-duplicate",
         "config-agents-ints", "config-agent-kind-typo"],
)
def test_check_malformed_trace_exits_two_with_a_message(tmp_path, capsys, edit, phrase):
    trace = written_trace(tmp_path, capsys)
    lines = trace.read_text().splitlines()
    edit(lines)
    trace.write_text("".join(line + "\n" for line in lines))
    assert main(["check", str(trace)]) == 2
    captured = capsys.readouterr()
    assert f"error: unreadable trace: {phrase}" in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def allgood_lines(tmp_path_factory):
    trace = tmp_path_factory.mktemp("allgood") / "run.jsonl"
    assert main(["run", str(SCENARIOS / "allgood.json"), "--trace", str(trace)]) == 0
    return trace.read_text().splitlines()


def read_field(kind, path, wrong):
    """A case for a top-level field: deleting it names it, and so does a wrong value."""
    if path == ("agent",):
        said = f"names agent {wrong!r}, not an agent id"
    else:
        said = f"field {path[0]!r} must be"
    return kind, path, wrong, f"has no field {path[-1]!r}", said


TX_MALFORMED = "field 'tx' must be six fields"
DELETE = object()

# Every field TraceView reads, on the first record of its kind in the
# allgood trace (the first SEND is agent 1's INITIAL on its own channel, so
# the fold reads its channel and seq too): (kind, path to the field, a value
# of the wrong type, what deleting it says, what the wrong value says).
# `kind` and a SEND's `mkind` have no wrong type, since they only choose
# what the fold does; deleting them is tested.
FOLD_FIELDS = [
    read_field("CONFIG", ("n",), "4"),
    read_field("CONFIG", ("epsilon",), 1.5),
    read_field("CONFIG", ("initial_balance",), None),
    read_field("CONFIG", ("agents",), {"id": 1}),
    ("CONFIG", ("agents", 0, "id"), "1", "has no field 'id'", "field 'agents[0].id' must be"),
    ("CONFIG", ("agents", 0, "kind"), 1, "has no field 'kind'", "field 'agents[0].kind' must be"),
    read_field("SEND", ("agent",), "1"),
    ("SEND", ("mkind",), None, "has no field 'mkind'", None),
    read_field("SEND", ("channel",), "1"),
    read_field("SEND", ("seq",), 1.0),
    ("SEND", ("kind",), None, "has no field 'kind'", None),
    read_field("EXECUTE", ("agent",), "4"),
    read_field("EXECUTE", ("idx",), "53"),
    read_field("EXECUTE", ("txid",), [1, "1"]),
    read_field("EXECUTE", ("verdict",), 1),
    read_field("EXECUTE", ("dep_credit",), 0.5),
    read_field("EXECUTE", ("converted",), [[1]]),
    read_field("EXECUTE", ("tx",), [1]),
    *[("EXECUTE", ("tx", key), wrong, TX_MALFORMED, TX_MALFORMED)
      for key, wrong in [("initiator", "1"), ("recipient", None), ("value", 25.0),
                         ("seq", True), ("deps", {}), ("fees", [[1, 1.0]])]],
    read_field("SNAPSHOT", ("agent",), None),
    read_field("SNAPSHOT", ("tick",), "0"),
    read_field("SNAPSHOT", ("B",), [1000, 1000, 1000]),
    read_field("RRB_DELIVER", ("agent",), "4"),
    read_field("RRB_DELIVER", ("idx",), None),
    read_field("RRB_DELIVER", ("channel",), "1"),
    read_field("RRB_DELIVER", ("seq",), 1.5),
    read_field("RRB_DELIVER", ("digest",), 7),
    read_field("END", ("quiescent",), 1),
]


@pytest.mark.parametrize(
    "kind,path,wrong,said",
    [pytest.param(kind, path, wrong if how == "wrong-type" else DELETE, said,
                  id=f"{kind}-{'.'.join(map(str, path))}-{how}")
     for kind, path, wrong, on_delete, on_wrong in FOLD_FIELDS
     for how, said in [("deleted", on_delete), ("wrong-type", on_wrong)] if said is not None],
)
def test_check_names_the_record_and_field_the_fold_rejects(
    tmp_path, capsys, allgood_lines, kind, path, wrong, said
):
    lines = list(allgood_lines)
    i = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    rec = json.loads(lines[i])
    *outer, last = path
    holder = rec
    for key in outer:
        holder = holder[key]
    if wrong is DELETE:
        del holder[last]
    else:
        holder[last] = wrong
    lines[i] = json.dumps(rec)
    trace = tmp_path / "run.jsonl"
    trace.write_text("".join(line + "\n" for line in lines))
    assert main(["check", str(trace)]) == 2
    captured = capsys.readouterr()
    # a record is named by its place in the stream, even without its idx or kind
    record = f"record {i} ({rec.get('kind')})"
    assert captured.err.startswith(f"error: unreadable trace: {record} {said}"), captured.err
    assert captured.out == ""


def with_agent(kind, params):
    agents = [{"id": i, "kind": "COMPLIANT"} for i in range(1, 5)]
    agents[3] = {"id": 4, "kind": kind, "params": params}
    return {"agents": agents}


@pytest.mark.parametrize(
    "kind,params,phrase",
    [
        ("RATIONAL_FREERIDER", {"channels": 5}, "channels=5: must be a list of integers"),
        ("RATIONAL_FREERIDER", {"channels": ["x"]}, "channels=['x']: must be an integer"),
        ("RATIONAL_FREERIDER", {"channels": [1.9]}, "channels=[1.9]: must be an integer"),
        ("RATIONAL_FREERIDER", {"channels": ["1"]}, "channels=['1']: must be an integer"),
        ("RATIONAL_FREERIDER", {"channels": [True]}, "channels=[True]: must be an integer"),
        ("RATIONAL_FREERIDER", {"channels": [1], "seqs": "1"}, "seqs='1': must be a list"),
        ("RATIONAL_FREERIDER", {"channels": [1], "seqs": [1.5]}, "seqs=[1.5]: must be an integer"),
        ("BYZ_EQUIVOCATE", {"alt_to": "two"}, "alt_to='two': must be an integer"),
        ("BYZ_EQUIVOCATE", {"alt_amount": -5}, "alt_amount=-5: must be in 0..2**64-1"),
        ("BYZ_EQUIVOCATE", {"alt_targets": 3}, "alt_targets=3: must be a list of integers"),
        ("BYZ_OVERDRAFT", {"extra": [100]}, "extra=[100]: must be an integer"),
        ("BYZ_OVERDRAFT", {"extra": "100"}, "extra='100': must be an integer"),
        ("BYZ_OVERDRAFT", {"extra": 99.9}, "extra=99.9: must be an integer"),
        ("BYZ_BAD_DEPS", {"bad_ref": [1, True]}, "bad_ref=[1, True]: must be an integer"),
        ("BYZ_BAD_DEPS", {"bad_ref": [1]}, "bad_ref=[1]: not enough values"),
        ("BYZ_BAD_DEPS", {"bad_ref": 7}, "bad_ref=7: cannot unpack"),
        # a misspelt param is no default: the free-rider would withhold nothing
        ("RATIONAL_FREERIDER", {"channel": [1]}, "unknown params: channel"),
        ("COMPLIANT", {"anything": 1}, "unknown params: anything"),
    ],
    ids=["channels-int", "channels-str-item", "channels-float-item", "channels-numeric-str-item",
         "channels-bool-item", "seqs-str", "seqs-float-item", "alt_to-str", "alt_amount-neg",
         "alt_targets-int", "extra-list", "extra-str", "extra-float", "bad_ref-bool-item",
         "bad_ref-short", "bad_ref-int", "freerider-channel-typo", "compliant-unknown-param"],
)
def test_malformed_behavior_param_exits_two(tmp_path, capsys, kind, params, phrase):
    path = write_scenario(tmp_path, minimal_scenario(**with_agent(kind, params)))
    assert main(["run", path, "--check"]) == 2
    err = capsys.readouterr().err
    assert f"error: agent 4: bad params: {phrase}" in err


def allgood(**over):
    body = json.loads((SCENARIOS / "allgood.json").read_text())
    body.update(over)
    return body


@pytest.mark.parametrize(
    "kind,params,amount",
    [("BYZ_OVERDRAFT", {"extra": 2**64 - 1}, 25), ("BYZ_EQUIVOCATE", {}, 2**64 - 1)],
    ids=["overdraft", "equivocate"],
)
def test_byzantine_mint_at_the_wire_limit_stays_wire_valid(
    tmp_path, capsys, kind, params, amount
):
    # the deviant value would be 1000 + 2**64 - 1 or 2**64; the equivocator
    # checks no funds, so a balance of 1000 still sends the 2**64 - 1 pay
    body = allgood()
    body["agents"][0].update(kind=kind, params=params)
    body["script"][0]["action"]["pay"]["amount"] = amount
    trace = tmp_path / "run.jsonl"
    code = main(["run", write_scenario(tmp_path, body), "--check", "--trace", str(trace)])
    verdicts = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[")]
    assert len(verdicts) == 9
    assert code == (0 if all(v.startswith("[PASS]") for v in verdicts) else 1)
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    if kind == "BYZ_OVERDRAFT":
        # capped at the wire field's largest value, which still overdraws
        own = [r for r in records if r["kind"] == "EXECUTE" and r["txid"][0] == 1]
        assert own and all(r["verdict"] == "bad" for r in own)
        assert {r["tx"]["value"] for r in own} == {2**64 - 1}
    else:
        # the alt payload pays amount - 1 where amount + 1 would overflow
        initials = {r["digest"] for r in records if r["kind"] == "SEND"
                    and r["mkind"] == "INITIAL" and r["channel"] == 1 and r["seq"] == 1}
        assert initials == {Transaction(1, 2, 2**64 - 1, 1).digest_hex,
                            Transaction(1, 3, 2**64 - 2, 1).digest_hex}


def test_an_alt_payload_paying_an_unknown_agent_is_evidence_not_a_crash(tmp_path, capsys):
    body = json.loads((SCENARIOS / "equivocate.json").read_text())
    body["agents"][0]["params"] = {"alt_to": 99, "alt_targets": [2, 3, 4]}
    trace = tmp_path / "run.jsonl"
    assert main(["run", write_scenario(tmp_path, body), "--check", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 9
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    evidence = [r["agent"] for r in records
                if r["kind"] == "BYZ_EVIDENCE" and r["reason"] == "unknown-recipient"]
    assert sorted(evidence) == [1, 2, 3, 4]


def pay_to(to, amount=5):
    return [{"tick": 0, "agent": 1, "action": {"pay": {"to": to, "amount": amount}}}]


def act(action):
    return [{"tick": 0, "agent": 4, "action": action}]


def freerider_with_params_as(key):
    body = json.loads((SCENARIOS / "freerider.json").read_text())
    body["agents"][3][key] = body["agents"][3].pop("params")
    return body


def minimal_without(*path):
    """A minimal scenario without the key at the end of `path`, e.g. ("agents", 3, "id")."""
    body = minimal_scenario()
    *outer, key = path
    holder = body
    for step in outer:
        holder = holder[step]
    del holder[key]
    return body


@pytest.mark.parametrize(
    "body,phrase",
    [
        (minimal_scenario(script=pay_to(9)), "pays unknown agent 9"),
        (minimal_scenario(script=pay_to(1)), "pays itself"),
        (minimal_scenario(script=pay_to(2, amount=-5)), "negative amount"),
        (minimal_scenario(script=pay_to(2, amount=2**64)),
         "pays 18446744073709551616, beyond the 64-bit wire field"),
        (minimal_scenario(msg_cost_c="abc"), "msg_cost_c"),
        (minimal_scenario(fifo_channels="false"), "fifo_channels must be true or false"),
        (minimal_scenario(d_mx=5), "unknown scenario keys: d_mx"),
        (minimal_scenario(agents=[{"id": i, "kind": "COMPLIANT", "params": [1]}
                                  for i in range(1, 5)]),
         "params must be an object"),
        (minimal_scenario(d_max=float("inf")), "d_max must be an integer, got inf"),
        # `seeds` and `seed_range` are unknown keys, whatever their value
        (minimal_scenario(seed_range=[3]), "unknown scenario keys: seed_range"),
        (minimal_scenario(seed_range=[1, 2, 3]), "unknown scenario keys: seed_range"),
        (minimal_scenario(seed_range=[5, 1]), "unknown scenario keys: seed_range"),
        (minimal_scenario(seeds=5), "unknown scenario keys: seeds"),
        (minimal_scenario(n="4"), "n must be an integer, got '4'"),
        (minimal_scenario(t=True), "t must be an integer, got True"),
        (minimal_scenario(epsilon=1.5), "epsilon must be an integer, got 1.5"),
        (minimal_scenario(initial_balance=1000.5),
         "initial_balance must be an integer, got 1000.5"),
        (minimal_scenario(d_min=1.0), "d_min must be an integer, got 1.0"),
        (minimal_scenario(d_max=3.5), "d_max must be an integer, got 3.5"),
        (minimal_scenario(max_steps=1e6), "max_steps must be an integer, got 1000000.0"),
        (minimal_scenario(seed="3"), "seed must be an integer, got '3'"),
        (minimal_scenario(seeds=[4, 9.5]), "unknown scenario keys: seeds"),
        (minimal_scenario(seed_range=[1, 2.5]), "unknown scenario keys: seed_range"),
        (minimal_scenario(agents=[{"id": i if i < 4 else "4", "kind": "COMPLIANT"}
                                  for i in range(1, 5)]),
         "agents[3].id must be an integer, got '4'"),
        (minimal_scenario(script=[dict(pay_to(2)[0], tick=1.5)]),
         "script[0].tick must be an integer, got 1.5"),
        (minimal_scenario(script=[dict(pay_to(2)[0], agent=False)]),
         "script[0].agent must be an integer, got False"),
        (minimal_scenario(script=pay_to("2")),
         "script[0].action.pay.to must be an integer, got '2'"),
        (minimal_scenario(script=pay_to(2, amount=2.5)),
         "script[0].action.pay.amount must be an integer, got 2.5"),
        (5, "scenario must be a JSON object"),
        (None, "scenario must be a JSON object"),
        ([1], "scenario must be a JSON object"),
        ("abc", "scenario must be a JSON object"),
        # a supply beyond the wire field would let a capped overdraft be funded
        (allgood(initial_balance=2**65,
                 agents=[{"id": 1, "kind": "BYZ_OVERDRAFT"}] + allgood()["agents"][1:]),
         f"n*initial_balance is {4 * 2**65}, beyond the wire's 2**64-1"),
        # a misspelt key in an object below the top level is no default
        (freerider_with_params_as("param"), "unknown agents[3] keys: param"),
        (minimal_scenario(agents=[1, 2, 3, 4]), "agents[0] must be an object, got 1"),
        (minimal_scenario(script=[dict(pay_to(2)[0], note="x")]), "unknown script[0] keys: note"),
        (minimal_scenario(script=[5]), "script[0] must be an object, got 5"),
        (minimal_scenario(script=act({"pay": {"to": 2, "amount": 5}, "memo": 1})),
         "unknown script[0].action keys: memo"),
        (minimal_scenario(script=act({"pay": {"to": 2, "amount": 5, "convertfees": True}})),
         "unknown script[0].action.pay keys: convertfees"),
        (minimal_scenario(script=act({"pay": 5})), "script[0].action.pay must be an object, got 5"),
        (minimal_scenario(script=act({"backfill": 5})),
         "script[0].action.backfill must be an object, got 5"),
        (minimal_scenario(script=act({"backfill": {"all": True}})),
         "unknown script[0].action.backfill keys: all"),
        (minimal_scenario(msg_cost_c=True),
         "msg_cost_c must be a number or a fraction string, got True"),
        # a missing required key is named by its path, as a wrong type is
        (minimal_scenario(script=act({"pay": {"to": 2}})),
         "script[0].action.pay.amount is required"),
        (minimal_scenario(script=act({"pay": None})), "script[0].action.pay.to is required"),
        (minimal_without("agents", 3, "id"), "agents[3].id is required"),
        (minimal_without("agents", 3, "kind"), "agents[3].kind is required"),
        (minimal_without("script", 0, "tick"), "script[0].tick is required"),
        (minimal_without("script", 0, "agent"), "script[0].agent is required"),
        (minimal_without("script", 0, "action"), "script[0].action is required"),
        (minimal_without("agents"), "agents is required"),
        (minimal_without("n"), "n is required"),
        (minimal_without("t"), "t is required"),
        # each rejection names the path of what it rejects
        (minimal_scenario(agents=[{"id": i, "kind": "COMPLAINT" if i == 2 else "COMPLIANT"}
                                  for i in range(1, 5)]),
         "agents[1].kind must be one of COMPLIANT, BYZ_SILENT, BYZ_EQUIVOCATE, BYZ_OVERDRAFT, "
         "BYZ_BAD_DEPS, RATIONAL_FREERIDER, RATIONAL_LAZY_EXEC, got 'COMPLAINT'"),
        (minimal_scenario(agents=[{"id": i, "kind": 3 if i == 2 else "COMPLIANT"}
                                  for i in range(1, 5)]),
         "agents[1].kind must be one of COMPLIANT, BYZ_SILENT,"),
        (minimal_scenario(agents=[{"id": i, "kind": [] if i == 2 else "COMPLIANT"}
                                  for i in range(1, 5)]),
         "agents[1].kind must be one of COMPLIANT, BYZ_SILENT,"),
        (minimal_scenario(agents=5), "agents must be a list, got 5"),
        (minimal_scenario(script=5), "script must be a list, got 5"),
        (minimal_scenario(script=act({})), "script[0].action must name exactly one verb, got []"),
        # a scenario names one seed; which others to run is said by --seeds
        (minimal_scenario(seeds=[1], seed="3"), "unknown scenario keys: seeds"),
        (minimal_scenario(seeds=[1], seed_range="x"), "unknown scenario keys: seed_range, seeds"),
        (minimal_scenario(d_min=5, d_max=3), "d_min must not exceed d_max"),
        (minimal_scenario(n=0, t=0, agents=[], script=[]), "n must be positive"),
        (minimal_scenario(script=[dict(pay_to(2)[0], tick=-1)]),
         "script ticks must be non-negative"),
        (minimal_scenario(script=[dict(pay_to(2)[0], agent=9)]), "script names unknown agent 9"),
    ],
    ids=["unknown-recipient", "self-pay", "negative-amount", "amount-over-64-bits", "bad-msg-cost",
         "string-boolean", "unknown-key", "params-not-object", "infinite-d_max",
         "seed_range-short", "seed_range-long", "seed_range-empty", "seeds-int",
         "n-str", "t-bool", "epsilon-float", "initial_balance-float", "d_min-float",
         "d_max-float", "max_steps-float", "seed-str", "seeds-float-item", "seed_range-float",
         "agent-id-str", "tick-float", "script-agent-bool", "to-str", "amount-float",
         "number", "null", "array", "string", "money-supply-over-64-bits",
         "agent-unknown-key", "agent-not-object", "script-unknown-key", "script-item-not-object",
         "action-unknown-key", "pay-unknown-key", "pay-not-object", "backfill-int",
         "backfill-unknown-key", "msg-cost-bool", "pay-no-amount", "pay-null", "agent-no-id",
         "agent-no-kind", "script-no-tick", "script-no-agent", "script-no-action", "no-agents",
         "no-n", "no-t", "agent-kind-typo", "agent-kind-int", "agent-kind-list", "agents-int",
         "script-int", "action-no-verb", "seed-str-under-seeds", "seed_range-str-under-seeds",
         "d_min-over-d_max", "n-zero", "tick-negative", "script-unknown-agent"],
)
def test_malformed_scenario_exits_two_with_a_message(tmp_path, capsys, body, phrase):
    path = write_scenario(tmp_path, body)
    assert main(["run", path, "--check", "--summary"]) == 2
    assert phrase in capsys.readouterr().err
    assert main(["sweep", path]) == 2
    assert phrase in capsys.readouterr().err


def test_a_scenario_that_omits_every_optional_key_gets_simconfigs_defaults():
    agents = [{"id": i, "kind": "COMPLIANT"} for i in range(1, 5)]
    config = build_config({"n": 4, "t": 1, "agents": agents})
    defaults = SimConfig(4, 1, agents=[AgentSpec(i, StrategyKind.COMPLIANT) for i in range(1, 5)])
    for field in fields(SimConfig):
        assert getattr(config, field.name) == getattr(defaults, field.name), field.name


@pytest.mark.parametrize("body", [{}, None], ids=["object", "null"])
def test_backfill_says_nothing_as_an_empty_object_or_null(tmp_path, capsys, body):
    scenario = json.loads((SCENARIOS / "freerider.json").read_text())
    scenario["script"][3]["action"]["backfill"] = body
    assert main(["run", write_scenario(tmp_path, scenario), "--check"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_run_check_and_a_serial_sweep_never_load_multiprocessing(tmp_path):
    scenario, trace = str(SCENARIOS / "allgood.json"), str(tmp_path / "run.jsonl")
    program = "\n".join([
        "import sys",
        "from ledgersim.cli import main",
        f"assert main(['run', {scenario!r}, '--check', '--trace', {trace!r}]) == 0",
        f"assert main(['check', {trace!r}]) == 0",
        f"assert main(['sweep', {scenario!r}, '--seeds', '1..2']) == 0",
        "assert 'multiprocessing' not in sys.modules, 'multiprocessing was imported'",
    ])
    path = [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_scenario_that_is_not_utf8_exits_two_with_a_message(tmp_path, capsys, verb):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main([verb, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode")


def test_empty_seed_list_exits_two(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario())
    assert main(["sweep", path, "--seeds", "5..1"]) == 2
    assert "no seeds to run" in capsys.readouterr().err
    assert main(["sweep", path, "--seeds", ""]) == 2  # an empty flag is no default
    assert "bad seeds: invalid literal for int()" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_workers_below_one_exits_two(tmp_path, capsys, workers):
    path = write_scenario(tmp_path, minimal_scenario())
    assert main(["sweep", path, "--seeds", "1..2", "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --workers must be at least 1, got {workers}\n"
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_infinite_seed_exits_two_with_a_message(tmp_path, capsys, verb):
    path = write_scenario(tmp_path, minimal_scenario(seed=float("inf")))
    assert "Infinity" in Path(path).read_text()
    assert main([verb, path]) == 2
    assert "seed must be an integer, got inf" in capsys.readouterr().err


@pytest.mark.parametrize(
    "seeds", ["1,18446744073709551616", "18446744073709551614..18446744073709551616"]
)
def test_sweep_names_a_later_seed_beyond_64_bits(capsys, seeds):
    assert main(["sweep", str(SCENARIOS / "allgood.json"), "--seeds", seeds]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed 18446744073709551616 must fit in 64 bits\n"
    assert captured.out == ""


def test_sweep_aggregates_seeds(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario())
    code = main(["sweep", path, "--seeds", "1..12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "12/12 PASS" in out


def test_sweep_parallel_matches_sequential(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario())
    main(["sweep", path, "--seeds", "1..8"])
    seq_out = capsys.readouterr().out
    main(["sweep", path, "--seeds", "1..8", "--workers", "2"])
    par_out = capsys.readouterr().out
    assert seq_out == par_out


def test_sweep_draws_each_seed_as_its_run_starts(tmp_path, capsys, monkeypatch):
    # a seed range of any length costs no memory up front
    runs = []

    class LazySeeds(Sequence):
        """Seeds 1..5 that fail when one is drawn before the previous run."""

        def __len__(self):
            return 5

        def __getitem__(self, i):
            return range(1, 6)[i]

        def __iter__(self):
            for seed in range(1, 6):
                assert len(runs) >= seed - 1, f"seed {seed} drawn after {len(runs)} runs"
                yield seed

    def counted_run(config):
        runs.append(config.seed)
        return run(config)

    monkeypatch.setattr("ledgersim.cli.parse_seeds", lambda flag: LazySeeds())
    monkeypatch.setattr("ledgersim.cli.run", counted_run)
    assert main(["sweep", write_scenario(tmp_path, minimal_scenario()), "--seeds", "1..5"]) == 0
    assert capsys.readouterr().out == "5/5 PASS\n"
    assert runs == [1, 2, 3, 4, 5]


def test_sweep_without_seeds_runs_the_scenarios_seed(tmp_path, capsys, monkeypatch):
    runs = []

    def counted_run(config):
        runs.append(config.seed)
        return run(config)

    monkeypatch.setattr("ledgersim.cli.run", counted_run)
    assert main(["sweep", write_scenario(tmp_path, minimal_scenario(seed=7))]) == 0
    assert capsys.readouterr().out == "1/1 PASS\n"
    assert runs == [7]


def test_run_seed_beyond_64_bits_exits_two(capsys):
    assert main(["run", str(SCENARIOS / "allgood.json"), "--seed", str(2**64)]) == 2
    assert capsys.readouterr().err == "error: seed 18446744073709551616 must fit in 64 bits\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_lists_failing_seeds_in_ascending_order(tmp_path, capsys, workers):
    path = write_scenario(tmp_path, minimal_scenario(max_steps=4), "short run.json")
    assert main(["sweep", path, "--seeds", "9,3,5,3", "--workers", workers]) == 1
    failures = "validity, agreement, quiescence"  # UNKNOWN counts as a failure
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0/4 PASS"] + [
        f"seed {seed}: {failures} (ledgersim run {shlex.quote(path)} --seed {seed} --check)"
        for seed in (3, 3, 5, 9)
    ]
    # each line ends with the command that reproduces its failure
    assert main(shlex.split(lines[-1].partition("(")[2].rstrip(")"))[1:]) == 3


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_a_sweep_seed_fails_exactly_when_run_with_that_seed_fails(capsys, name):
    path = str(SCENARIOS / name)
    main(["sweep", path, "--seeds", "1..3"])
    listed = {int(line.split(":")[0].split()[1])
              for line in capsys.readouterr().out.splitlines()[1:]}
    failing = {seed for seed in (1, 2, 3)
               if main(["run", path, "--seed", str(seed), "--check"]) != 0}
    capsys.readouterr()
    assert listed == failing


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_one_config_run_twice_gives_the_same_trace(name):
    # a sweep reseeds one config, so its runs share the scenario's agents and script
    config = build_config(json.loads((SCENARIOS / name).read_text()))
    traces = []
    for _ in range(2):
        out = io.StringIO()
        write_trace(run(config).records, out)
        traces.append(out.getvalue())
    assert traces[0] == traces[1]


def test_run_seed_override_changes_trace(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario())
    seeded = write_scenario(tmp_path, minimal_scenario(seed=99), "seeded.json")
    t1, t2, t3 = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    main(["run", path, "--trace", str(t1)])
    main(["run", path, "--trace", str(t2), "--seed", "99"])
    main(["run", seeded, "--trace", str(t3)])
    assert t1.read_text() != t2.read_text() == t3.read_text()


@pytest.mark.parametrize(
    "over,phrase",
    [
        ({"seed": "3"}, "seed must be an integer, got '3'"),
        ({"seed": 2**64}, "seed 18446744073709551616 must fit in 64 bits"),
        ({"seeds": [1], "seed": "3"}, "unknown scenario keys: seeds"),
        ({"seed_range": "x"}, "unknown scenario keys: seed_range"),
        ({"seeds": [2**64]}, "unknown scenario keys: seeds"),
    ],
    ids=["seed-str", "seed-over-64-bits", "seed-str-under-seeds", "seed_range-str",
         "seeds-over-64-bits"],
)
@pytest.mark.parametrize("argv", [["run", "--check", "--seed", "5"], ["sweep", "--seeds", "5"]],
                         ids=["run-seed", "sweep-seeds"])
def test_a_seed_flag_still_checks_the_scenarios_seed_keys(tmp_path, capsys, over, phrase, argv):
    verb, *flags = argv
    assert main([verb, write_scenario(tmp_path, minimal_scenario(**over)), *flags]) == 2
    assert phrase in capsys.readouterr().err
