"""Scenario generators for the benchmark workloads.

Each workload is a round: a fixed list of (scenario seed, scenario dict)
pairs that one benchmark run repeats as many times as its time allows. The
dicts have the shape of a scenario file, so they go through the same
`cli.build_config` as `ledgersim run` does.

Run as a script to print one scenario, which reproduces a single seeded run:

    python3 bench/workloads.py hostile_n7 1 | PYTHONPATH=src python3 -m ledgersim run /dev/stdin --check
"""

from __future__ import annotations

import json
import random
import sys

# agent 1..7 of hostile_n7; agent 6 withholds echo/ready on channels 3 and 4
HOSTILE_KINDS = (
    "BYZ_EQUIVOCATE",
    "BYZ_OVERDRAFT",
    "COMPLIANT",
    "COMPLIANT",
    "COMPLIANT",
    "RATIONAL_FREERIDER",
    "RATIONAL_LAZY_EXEC",
)
FREERIDER = 6
BACKFILL_EVERY = 100

# name -> (n, t, payments per seeded run, seeded runs per round)
WORKLOADS = {
    "wide_n16": (16, 5, 50, 3),
    "long_n7": (7, 2, 200, 2),
    "hostile_n7": (7, 2, 60, 20),
}


def payment_script(rng: random.Random, n: int, count: int) -> list[dict]:
    """Payments at random ticks and amounts; every eighth converts fees."""
    script, tick = [], 0
    for k in range(count):
        tick += rng.randrange(1, 12)
        frm = rng.randrange(1, n + 1)
        to = rng.choice([i for i in range(1, n + 1) if i != frm])
        pay = {"to": to, "amount": rng.randrange(1, 21), "convert_fees": k % 8 == 7}
        script.append({"tick": tick, "agent": frm, "action": {"pay": pay}})
    return script


def scenario(workload: str, scenario_seed: int) -> dict:
    """One seeded run's scenario; the seed drives both the script and the delays."""
    n, t, payments, _ = WORKLOADS[workload]
    script = payment_script(random.Random(scenario_seed), n, payments)
    if workload == "hostile_n7":
        agents = [{"id": i, "kind": kind} for i, kind in enumerate(HOSTILE_KINDS, 1)]
        agents[FREERIDER - 1]["params"] = {"channels": [3, 4]}
        last = script[-1]["tick"]
        script += [
            {"tick": tick, "agent": FREERIDER, "action": {"backfill": {}}}
            for tick in range(BACKFILL_EVERY, last + BACKFILL_EVERY + 1, BACKFILL_EVERY)
        ]
    else:
        agents = [{"id": i, "kind": "COMPLIANT"} for i in range(1, n + 1)]
    return {
        "n": n,
        "t": t,
        "epsilon": 1,
        "initial_balance": 1000,
        "seed": scenario_seed,
        "d_min": 1,
        "d_max": 10,
        "agents": agents,
        "script": script,
    }


def round_seeds(workload: str, seed: int) -> list[int]:
    """Scenario seeds of one round: 1..runs, in an order shuffled by `seed`.

    Every workload runs the same scenarios on every benchmark seed. Payment
    scripts drawn from different seeds differ in cost per send and per record
    by more than 10% (two long_n7 scenarios run back to back in one process
    differ by 13% in SENDs per second), and a round holds too few of them to
    average that out, so drawing them from the seed would move every metric
    with the seed rather than with the code. The snapshot fault also fails
    a seed-dependent subset of hostile runs, and a fixed set keeps the failed
    share of every benchmark run exactly the same.
    """
    seeds = list(range(1, WORKLOADS[workload][3] + 1))
    random.Random(seed).shuffle(seeds)
    return seeds


def round_scenarios(workload: str, seed: int) -> list[tuple[int, dict]]:
    return [(s, scenario(workload, s)) for s in round_seeds(workload, seed)]


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SCENARIO_SEED")
    json.dump(scenario(sys.argv[1], int(sys.argv[2])), sys.stdout, indent=1)
    sys.stdout.write("\n")
