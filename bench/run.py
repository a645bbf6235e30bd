"""Benchmark ledgersim end to end, or per layer with --trace 1.

    python3 bench/run.py --workload wide_n16 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/`. One process, one client, no worker pool: each seeded run of the
workload's round (see workloads.py) starts after the previous one ends, and
whole rounds repeat until the time is up. The last line of standard output
is a JSON object with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics. --trace 1 runs every seeded run
twice, plain and with spans around each layer, checks that both give the
same trace bytes, and reports the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import outputs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
FIRST_SETUPS = 5  # set-ups before the first round; setup_s is the median of all
RERUN = "python3 bench/workloads.py {w} {s} | PYTHONPATH=src python3 -m ledgersim run /dev/stdin --check"
CHECKS = (
    "validity", "agreement", "integrity", "source_order",
    "no_debt", "conservation", "rrb_uniqueness", "dependency_closure",
)


def fresh_import():
    for name in [m for m in sys.modules if m == "ledgersim" or m.startswith("ledgersim.")]:
        del sys.modules[name]
    importlib.import_module("ledgersim.cli")
    return sys.modules["ledgersim"]


def set_up(workload: str, seed: int, times: list):
    """Import ledgersim afresh, generate the round's scenarios, build their configs.

    Appends (set-up seconds, build_config seconds) to `times`.
    """
    t0 = perf_counter()
    ls = fresh_import()
    scenarios = workloads.round_scenarios(workload, seed)
    t1 = perf_counter()
    configs = [(s, ls.cli.build_config(raw)) for s, raw in scenarios]
    t2 = perf_counter()
    times.append((t2 - t0, t2 - t1))
    return ls, configs


@dataclass
class SeededRun:
    result: object
    data: bytes  # the written trace
    reports: list
    offline: list | None
    sim_s: float
    run_s: float
    check_s: float


def seeded_run(ls, config, offline: bool = True) -> SeededRun:
    """`ledgersim run --trace --check` in memory, then the offline `check` path."""
    t0 = perf_counter()
    result = ls.netsim.run(config)
    t1 = perf_counter()
    buf = io.StringIO()
    ls.trace.write_trace(result.records, buf)
    reports = ls.checker.run_all_checks(result.records)
    t2 = perf_counter()
    data = buf.getvalue().encode()
    del buf
    offline_reports, check_s = None, 0.0
    if offline:
        # read like `ledgersim check` reads a file, a buffered chunk at a time
        fp = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        t3 = perf_counter()
        offline_reports = ls.checker.run_all_checks(ls.trace.read_trace(fp))
        check_s = perf_counter() - t3
    return SeededRun(result, data, reports, offline_reports, t1 - t0, t2 - t0, check_s)


def per_layer(tally, build_config_s):
    """Means per seeded run over whole rounds; peaks are maxima over all runs.

    A seeded run's figures cover everything the benchmark does for it: the
    simulation, the trace write, and both check passes with the trace read.
    """
    layer, counts, peaks, runs = tally.layer, tally.counts, tally.peaks, tally.attempted

    def total(name):
        return layer[name][0] / runs

    def self_time(name):
        return layer[name][1] / runs

    def calls(name):
        return layer[name][2] / runs

    receives = calls("broadcast.on_receive")
    traced, plain = statistics.median(tally.run_s), statistics.median(tally.plain_s)
    return {
        "netsim.loop_self_s": (self_time("netsim.loop"), "s"),
        "netsim.events": (calls("strategy.on_message") + calls("strategy.on_action"), "count"),
        "netsim.sends": (counts["SEND"] / runs, "count"),
        "strategy.on_message_self_s": (self_time("strategy.on_message"), "s"),
        "broadcast.on_receive_s": (total("broadcast.on_receive"), "s"),
        "broadcast.flush_in_s": (total("broadcast.flush_in"), "s"),
        "broadcast.flush_out_s": (total("broadcast.flush_out"), "s"),
        "broadcast.quorum_self_s": (self_time("broadcast.on_receive"), "s"),
        "broadcast.on_receive_calls": (receives, "count"),
        "broadcast.deliveries": (counts["deliveries"] / runs, "count"),
        "broadcast.retal_blocks": (counts["RETAL_BLOCK"] / runs, "count"),
        "broadcast.in_queue_peak": (peaks["in_queue"], "count"),
        "broadcast.deliver_per_receive": (counts["deliveries"] / runs / receives, "ratio"),
        "ledger.deliver_s": (total("ledger.deliver"), "s"),
        "ledger.snapshot_s": (total("ledger.snapshot"), "s"),
        "ledger.executions": (counts["executions"] / runs, "count"),
        "ledger.buffer_peak": (peaks["buffer"], "count"),
        "ledger.exec_per_deliver": (counts["executions"] / runs / calls("ledger.deliver"), "ratio"),
        "transaction.construct_s": (total("transaction.construct"), "s"),
        "transaction.constructs": (calls("transaction.construct"), "count"),
        "trace.emit_s": (total("trace.emit"), "s"),
        "trace.write_s": (total("trace.write"), "s"),
        "trace.read_s": (total("trace.read"), "s"),
        "trace.records": (tally.records / runs, "count"),
        "trace.bytes": (tally.trace_bytes / runs, "bytes"),
        "checker.view_s": (total("checker.view"), "s"),
        **{f"checker.{c}_s": (total(f"checker.{c}"), "s") for c in CHECKS},
        "checker.closure_calls": (calls("checker.closure"), "count"),
        "cli.build_config_s": (build_config_s, "s"),
        "tracing.run_s_plain": (plain, "s"),
        "tracing.run_s_traced": (traced, "s"),
        "tracing.overhead": (traced / plain, "ratio"),
    }


class Tally:
    """What the seeded runs of one benchmark run add up to."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.failing: dict[int, list[str]] = {}
        self.run_s: list[float] = []
        self.sim_rate: list[float] = []
        self.check_rate: list[float] = []
        self.records = self.steps = self.trace_bytes = 0
        self.sends = 0
        self.sim_s = self.check_s = 0.0
        # traced mode only
        self.plain_s: list[float] = []
        self.trace_mismatches = 0
        self.layer = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.kept_spans: list | None = None

    def add(self, scenario_seed: int, config, run: SeededRun) -> None:
        self.attempted += 1
        problems = outputs.check_run(config, run.result, run.reports, run.offline)
        known, unknown = outputs.checker_failures(run.result, run.reports)
        self.problems += [f"scenario seed {scenario_seed}: {p}" for p in problems + unknown]
        if known or unknown:
            self.failed += 1
            self.failing[scenario_seed] = known + unknown
        records = run.result.records
        sends = sum(1 for rec in records if rec["kind"] == "SEND")
        self.run_s.append(run.run_s)
        self.sim_rate.append(sends / run.sim_s)
        self.check_rate.append(len(records) / run.check_s)
        self.sends += sends
        self.sim_s += run.sim_s
        self.check_s += run.check_s
        self.records += len(records)
        self.steps += run.result.steps
        self.trace_bytes += len(run.data)

    def add_spans(self, tracer: tracing.Tracer) -> None:
        for name, agg in tracing.reduce_spans(tracer.spans).items():
            for k in range(3):
                self.layer[name][k] += agg[k]
        self.counts.update(tracer.counts)
        for key, value in tracer.peaks.items():
            self.peaks[key] = max(self.peaks[key], value)
        if self.kept_spans is None:
            self.kept_spans = tracer.spans


def traced_run(ls, config, tally: Tally, scenario_seed: int) -> SeededRun:
    """A plain run, then the same run with every layer wrapped; same trace bytes."""
    plain = seeded_run(ls, config, offline=False)
    tally.plain_s.append(plain.run_s)
    gc.collect()
    tracer = tracing.Tracer()
    tracer.install(ls)
    try:
        with tracer.span("bench.seeded_run"):
            run = seeded_run(ls, config)
    finally:
        tracer.uninstall()
    if hashlib.sha256(plain.data).digest() != hashlib.sha256(run.data).digest():
        tally.trace_mismatches += 1
        tally.problems.append(f"scenario seed {scenario_seed}: trace bytes change under tracing")
    tally.add_spans(tracer)
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "ledgersim" / "__init__.py").is_file():
        print(f"error: no ledgersim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setups: list[tuple[float, float]] = []
    for _ in range(FIRST_SETUPS):
        ls, configs = set_up(args.workload, args.seed, setups)
    if Path(ls.__file__).resolve().parent != SRC / "ledgersim":
        print(f"error: imported ledgersim from {ls.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tally = Tally()
    rounds = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for k in range(len(configs)):
            scenario_seed, config = configs[k]
            gc.collect()
            if args.trace:
                run = traced_run(ls, config, tally, scenario_seed)
            else:
                run = seeded_run(ls, config)
            tally.add(scenario_seed, config, run)
            del run
            # a set-up after every seeded run spreads setup_s samples over the
            # whole run, as the machine's speed drifts over tens of seconds;
            # it builds the same configs, so the round goes on with its k+1st
            gc.collect()
            ls, configs = set_up(args.workload, args.seed, setups)
        rounds += 1
        now = perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    elapsed = perf_counter() - start
    setup_s = statistics.median(s[0] for s in setups)
    build_config_s = statistics.median(s[1] for s in setups)

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s.p50": (statistics.median(tally.run_s), "s"),
            # rates over the whole run: totals of whole rounds, not a median of a few runs
            "sim_msgs_per_s": (tally.sends / tally.sim_s, "1/s"),
            "check_records_per_s": (tally.records / tally.check_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = per_layer(tally, build_config_s)
        agent_calls = tally.layer["strategy.on_message"][2] + tally.layer["strategy.on_action"][2]
        if agent_calls != tally.steps:
            tally.problems.append(f"traced agent calls disagree with the {tally.steps} loop steps")
        OUT.mkdir(exist_ok=True)
        tracing.write_spans(tally.kept_spans, OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{rounds} rounds of {len(configs)} seeded runs in {elapsed:.1f} s  {len(setups)} set-ups")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if args.trace:
        print(f"tracing overhead: traced run_s.p50 is {metrics['tracing.overhead'][0]:.3f} x the "
              f"untraced one; trace SHA-256 differs with tracing on and off in "
              f"{tally.trace_mismatches} of {tally.attempted} seeded runs")
    print(f"seeded runs attempted {tally.attempted}, failed {tally.failed}")
    for scenario_seed, lines in sorted(tally.failing.items()):
        print(f"  scenario seed {scenario_seed}: {'; '.join(lines)}")
    if tally.failing:
        print(f"rerun one: {RERUN.format(w=args.workload, s=min(tally.failing))}")
    for line in tally.problems[:20]:
        print(f"  OUTPUT CHECK FAILED {line}")

    summary = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  rounds=rounds, setup_s=[s[0] for s in setups], run_s=tally.run_s,
                  sim_rate=tally.sim_rate, check_rate=tally.check_rate,
                  failing=tally.failing, problems=tally.problems)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
