"""Tests of the benchmark's own output checks and tracer.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)

Each output check must pass on a real run and fail once the run's result is
tampered with; the tracer must leave trace bytes unchanged and restore every
attribute it replaced.
"""

from __future__ import annotations

import copy
import io
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import outputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import ledgersim as L  # noqa: E402
from ledgersim import checker, cli, trace  # noqa: E402


def small_config(seed: int = 3):
    raw = {
        "n": 4, "t": 1, "seed": seed, "d_min": 1, "d_max": 10,
        "agents": [{"id": i, "kind": "COMPLIANT"} for i in range(1, 5)],
        "script": workloads.payment_script(random.Random(seed), 4, 12),
    }
    return cli.build_config(raw)


def text_of(records) -> str:
    buf = io.StringIO()
    trace.write_trace(records, buf)
    return buf.getvalue()


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.config = small_config()
        self.result = L.run(self.config)
        self.reports = checker.run_all_checks(self.result.records)
        self.offline = checker.run_all_checks(trace.read_trace(io.StringIO(text_of(self.result.records))))

    def problems(self, offline=None):
        return outputs.check_run(self.config, self.result, self.reports, offline or self.offline)

    def test_real_run_passes(self):
        self.assertEqual(self.problems(), [])
        self.assertEqual(outputs.checker_failures(self.result, self.reports), ([], []))

    def test_money_identity_fails_on_a_changed_balance(self):
        self.result.agents[2].ledger.B[1] += 1
        self.assertTrue(outputs.money_identity(self.result, 4, 1000, 1))

    def test_money_identity_fails_on_a_lost_fee_credit(self):
        credits = self.result.agents[3].ledger.F[2]
        credits.discard(next(iter(credits)))
        self.assertTrue(outputs.money_identity(self.result, 4, 1000, 1))

    def test_agreement_fails_on_a_changed_sequence_vector(self):
        self.result.agents[4].ledger.S[1] += 1
        self.assertTrue(outputs.compliant_agree(self.result))

    def test_agreement_fails_on_a_changed_balance_vector(self):
        led = self.result.agents[4].ledger
        led.B[1] += 5
        led.B[2] -= 5  # money still adds up, the views differ
        self.assertEqual(outputs.money_identity(self.result, 4, 1000, 1), [])
        self.assertTrue(outputs.compliant_agree(self.result))

    def test_quiescence_fails_on_a_truncated_run(self):
        self.result.quiescent = False
        self.assertTrue(outputs.quiescent(self.result))

    def test_verdicts_fail_when_the_offline_check_differs(self):
        offline = copy.copy(self.offline)
        offline[5] = checker.CheckReport(offline[5].name, checker.FAIL, "tampered")
        self.assertTrue(outputs.same_verdicts(self.reports, offline))
        self.assertTrue(self.problems(offline))

    def test_send_count_fails_on_a_dropped_send(self):
        records = list(self.result.records)
        records.remove(next(r for r in records if r["kind"] == "SEND" and r["mkind"] == "ECHO"))
        self.assertEqual(outputs.send_count(self.result.records, 4), [])
        self.assertTrue(outputs.send_count(records, 4))

    def test_only_the_snapshot_fault_on_a_deviating_agent_is_known(self):
        detail = "agent {}: executing (3, 2) changed balances beyond the initiator delta"
        self.result.agents[4].spec = L.AgentSpec(4, L.StrategyKind.RATIONAL_LAZY_EXEC)
        on_deviant = [checker.CheckReport("conservation", checker.FAIL, detail.format(4))]
        on_compliant = [checker.CheckReport("conservation", checker.FAIL, detail.format(1))]
        other = [checker.CheckReport("agreement", checker.FAIL, detail.format(4))]
        self.assertEqual(len(outputs.checker_failures(self.result, on_deviant)[0]), 1)
        self.assertEqual(len(outputs.checker_failures(self.result, on_compliant)[1]), 1)
        self.assertEqual(len(outputs.checker_failures(self.result, other)[1]), 1)


class TracerTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [["a", -1, 0.0, 10.0], ["b", 0, 1.0, 4.0], ["c", 1, 2.0, 3.0], ["b", 0, 5.0, 6.0]]
        agg = tracing.reduce_spans(spans)
        self.assertEqual(agg["a"], [10.0, 6.0, 1])
        self.assertEqual(agg["b"], [4.0, 3.0, 2])
        self.assertEqual(agg["c"], [1.0, 1.0, 1])

    def test_tracing_keeps_trace_bytes_and_restores_the_program(self):
        config = small_config(seed=11)
        plain = text_of(L.run(config).records)
        before = (L.broadcast.ChannelState.on_receive, checker.ALL_CHECKS, trace.write_trace)
        tracer = tracing.Tracer()
        tracer.install(L)
        try:
            result = L.netsim.run(config)
            traced = io.StringIO()
            trace.write_trace(result.records, traced)
            checker.run_all_checks(result.records)
        finally:
            tracer.uninstall()
        self.assertEqual(traced.getvalue(), plain)
        self.assertEqual(before, (L.broadcast.ChannelState.on_receive, checker.ALL_CHECKS, trace.write_trace))
        agg = tracing.reduce_spans(tracer.spans)
        self.assertEqual(agg["strategy.on_message"][2] + agg["strategy.on_action"][2], result.steps)
        self.assertEqual(agg["checker.dependency_closure"][2], 1)
        self.assertEqual(tracer.counts["SEND"], sum(r["kind"] == "SEND" for r in result.records))
        self.assertEqual(tracer.counts["executions"], sum(r["kind"] == "EXECUTE" for r in result.records))


if __name__ == "__main__":
    unittest.main()
