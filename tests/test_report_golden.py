"""Pinned oracle output: every check's report, and each agent's utility,
converted credits, final balances and execution count, over the 34 pinned
traces (the shipped scenarios and the benchmark workload runs), read from
the records in memory and from the written trace read back.

A refactor of `checker.py` must leave these digests unchanged. Both pins
were computed while `TraceView` still kept whole records. The second, over
seeded corruptions of the shipped scenarios' traces, was re-pinned once, when
`check_conservation` began to FAIL an agent whose ledger events end on an
EXECUTE: that turned two corrupted traces (equivocate.json and lazy_exec.json,
corruption 4, each with an agent's final SNAPSHOT dropped) from PASS to FAIL,
and changed nothing else.
"""

import copy
import hashlib
import io
import json
import random

from ledgersim.checker import (
    ALL_CHECKS,
    PASS,
    TraceView,
    check_conservation,
    converted_credits,
    utility,
)
from ledgersim.cli import build_config, load_scenario
from ledgersim.netsim import run
from ledgersim.trace import read_trace, write_trace
from test_trace_golden import GOLDEN as SCENARIO_GOLDEN, SCENARIOS
from test_workload_golden import GOLDEN as WORKLOAD_GOLDEN, workloads

CORRUPTED_DIGEST = "1763ff562183874463f3e53f09f90f7c09c80d4efa72768c987e1e64a98d548d"
DIGEST = "0dbbaadc3f9f6712cb3f5b41245ffd8d8da971ed11f7d7ace875c3199494a1ef"


def oracle_output(records, msg_cost_c) -> list:
    view = TraceView(records)
    reports = [[r.name, r.status, r.detail] for r in (check(view) for check in ALL_CHECKS)]
    agents = [
        [agent, str(utility(view, agent, msg_cost_c)),
         sorted(map(list, converted_credits(view, agent))),
         list(view.final_balances(agent)), len(view.executes[agent])]
        for agent in sorted(view.agent_kinds)
    ]
    return [reports, agents]


def pinned_scenarios():
    for name in sorted(SCENARIO_GOLDEN):
        yield name, load_scenario(str(SCENARIOS / name))
    for workload, seed in WORKLOAD_GOLDEN:
        yield f"{workload}-{seed}", workloads.scenario(workload, seed)


def test_reports_match_golden_digest():
    out = []
    for name, raw in pinned_scenarios():
        config = build_config(raw)
        records = run(config).records
        buf = io.StringIO()
        write_trace(records, buf)
        buf.seek(0)
        in_memory = oracle_output(records, config.msg_cost_c)
        assert oracle_output(read_trace(buf), config.msg_cost_c) == in_memory, name
        out.append([name, in_memory])
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST


def corrupt(records, rng) -> list:
    """One seeded corruption of a copy of `records`, of each kind a check reads."""
    def pick(kind):
        return rng.choice([k for k, r in enumerate(records) if r["kind"] == kind])

    def edit(kind, change):
        out = copy.deepcopy(records)
        change(out, pick(kind))
        return out

    def bump(field, by=1):
        return lambda rs, k: rs[k].__setitem__(field, rs[k][field] + by)

    def swap_next_execute(rs, k):
        later = [j for j in range(k + 1, len(rs))
                 if rs[j]["kind"] == "EXECUTE" and rs[j]["agent"] == rs[k]["agent"]]
        if later:
            rs[k], rs[later[0]] = rs[later[0]], rs[k]

    return [
        edit("EXECUTE", lambda rs, k: rs[k].update(verdict="bad" if rs[k]["verdict"] ==
                                                   "committed" else "committed")),
        edit("SNAPSHOT", lambda rs, k: rs[k]["B"].__setitem__(0, rs[k]["B"][0] - 1)),
        edit("SNAPSHOT", lambda rs, k: rs[k]["B"].__setitem__(1, -rs[k]["B"][1])),
        edit("EXECUTE", lambda rs, k: rs.pop(k)),
        edit("SNAPSHOT", lambda rs, k: rs.pop(k)),
        edit("RRB_DELIVER", lambda rs, k: rs.pop(k)),
        edit("RRB_DELIVER", lambda rs, k: rs[k].update(digest="f" * 16)),
        edit("RRB_DELIVER", lambda rs, k: rs[k].update(seq=rs[k]["seq"] + 1)),
        edit("EXECUTE", swap_next_execute),
        edit("EXECUTE", lambda rs, k: rs[k]["tx"].update(value=rs[k]["tx"]["value"] + 1)),
        edit("EXECUTE", lambda rs, k: rs[k]["tx"]["deps"].append([1, 99])),
        edit("EXECUTE", lambda rs, k: rs[k]["tx"]["fees"].append(list(rs[k]["txid"]))),
        edit("EXECUTE", lambda rs, k: rs[k]["tx"].update(recipient=rs[k]["tx"]["initiator"])),
        edit("EXECUTE", bump("dep_credit")),
        edit("EXECUTE", lambda rs, k: rs[k]["converted"].append([2, 1])),
        edit("EXECUTE", lambda rs, k: rs[k].update(txid=[rs[k]["txid"][0], 7])),
        edit("EXECUTE", lambda rs, k: rs[k]["tx"].update(seq=rs[k]["tx"]["seq"] + 1)),
        edit("SEND", lambda rs, k: rs[k].update(mkind="INITIAL", seq=99, channel=rs[k]["agent"])),
        edit("END", lambda rs, k: rs[k].update(quiescent=False)),
    ]


def test_corrupted_trace_reports_match_golden_digest():
    rng = random.Random(14)
    out = []
    for name in sorted(SCENARIO_GOLDEN):
        config = build_config(load_scenario(str(SCENARIOS / name)))
        for k, records in enumerate(corrupt(run(config).records, rng)):
            buf = io.StringIO()
            write_trace(records, buf)
            buf.seek(0)
            in_memory = oracle_output(records, config.msg_cost_c)
            assert oracle_output(read_trace(buf), config.msg_cost_c) == in_memory, (name, k)
            out.append([name, k, in_memory])
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CORRUPTED_DIGEST


def money_identity_holds(records) -> bool:
    """At every SNAPSHOT of every agent: sum(B) + the committed value pending in
    its payment buffers + epsilon * its live fee credits == n * initial_balance."""
    config = records[0]
    n, eps, total = config["n"], config["epsilon"], config["n"] * config["initial_balance"]
    pending, credits = [0] * (n + 1), [0] * (n + 1)
    for r in records:
        if r["kind"] == "EXECUTE":
            committed = r["tx"]["value"] if r["verdict"] == "committed" else 0
            pending[r["agent"]] += committed - r["dep_credit"]
            credits[r["agent"]] += n - len(r["converted"])
        elif r["kind"] == "SNAPSHOT":
            if sum(r["B"]) + pending[r["agent"]] + eps * credits[r["agent"]] != total:
                return False
    return True


def test_money_identity_holds_wherever_conservation_passes():
    """check_conservation replays balances and never sums the identity; each
    trace it passes, pinned or corrupted, must hold the identity all the same."""
    rng = random.Random(14)  # the corruptions the corrupted-trace digest pins
    held = broken = 0
    for name in sorted(SCENARIO_GOLDEN):
        records = run(build_config(load_scenario(str(SCENARIOS / name)))).records
        for k, trace in enumerate([records, *corrupt(records, rng)]):
            if check_conservation(TraceView(trace)).status == PASS:
                assert money_identity_holds(trace), (name, k)
                held += 1
            else:
                broken += not money_identity_holds(trace)
    assert held > len(SCENARIO_GOLDEN) and broken > 0  # neither branch is vacuous
