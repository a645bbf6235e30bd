"""Scenario runner: parse a scenario file, simulate, trace, check, summarize.

Verbs:
    run    simulate one scenario; optionally write the trace, run the
           checks, and print a summary
    check  re-run all checks offline against a written trace file
    sweep  run one scenario across many seeds and aggregate check results

Exit codes: 0 all good, 1 a check failed, 2 config or parse error,
3 the run hit max_steps before quiescence.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from contextlib import nullcontext
from dataclasses import fields, replace
from pathlib import Path
from typing import Sequence, get_type_hints

from .checker import ALL_CHECKS, PASS, TraceView, run_all_checks, utility
from .netsim import ConfigInvalid, ScriptAction, SimConfig, check_seed, run
from .strategy import AgentSpec, StrategyKind, make_behavior
from .trace import read_trace, write_trace

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NONQUIESCENT = 3
# bad scenario input; json's errors and UnicodeDecodeError are ValueErrors
SCENARIO_ERRORS = (OSError, ValueError, OverflowError, ConfigInvalid)


# a scenario's keys are SimConfig's fields; a scalar setting must be exactly its field's type
FIELD_TYPES = get_type_hints(SimConfig)
AGENT_KEYS = frozenset(f.name for f in fields(AgentSpec))
SCRIPT_KEYS = frozenset(f.name for f in fields(ScriptAction))
VERB_KEYS = {"pay": frozenset({"to", "amount", "convert_fees"}), "backfill": frozenset()}


def known_keys(raw, allowed, where: str) -> None:
    """Require a JSON object with no key outside `allowed`."""
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"{where} must be an object, got {raw!r}")
    if not raw.keys() <= allowed:
        unknown = ", ".join(sorted(set(raw) - allowed))
        raise ConfigInvalid(f"unknown {where} keys: {unknown}")


def array(value, name: str) -> list:
    """A JSON array; an object or a string is no list of items."""
    if type(value) is not list:
        raise ConfigInvalid(f"{name} must be a list, got {value!r}")
    return value


def flag(value, name: str) -> bool:
    """A JSON true or false; "false" is not a boolean."""
    if type(value) is not bool:
        raise ConfigInvalid(f"{name} must be true or false, got {value!r}")
    return value


def integer(value, name: str) -> int:
    """A JSON integer; a bool, float or string is rejected, not rounded."""
    if type(value) is not int:
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    return value


def required(raw: dict, path: str):
    """The value of the key that ends `path`, e.g. `script[0].action.pay.amount`."""
    key = path.rpartition(".")[2]
    if key not in raw:
        raise ConfigInvalid(f"{path} is required")
    return raw[key]


def parse_action(raw: dict, where: str) -> dict:
    known_keys(raw, VERB_KEYS.keys(), where)
    if len(raw) != 1:
        raise ConfigInvalid(f"{where} must name exactly one verb, got {sorted(raw)}")
    [(verb, body)] = raw.items()
    if body is None:  # `"backfill": null` says what `{}` says
        body = {}
    known_keys(body, VERB_KEYS[verb], f"{where}.{verb}")
    action = {"type": verb}
    if verb == "pay":
        action.update(
            to=integer(required(body, f"{where}.pay.to"), f"{where}.pay.to"),
            amount=integer(required(body, f"{where}.pay.amount"), f"{where}.pay.amount"),
            convert_fees=flag(body.get("convert_fees", False), "convert_fees"),
        )
    return action


def build_config(raw: dict) -> SimConfig:
    """The SimConfig a scenario describes, passing SimConfig only the keys it sets."""
    known_keys(raw, FIELD_TYPES.keys(), "scenario")
    settings = {"agents": []}
    try:
        for k, a in enumerate(array(required(raw, "agents"), "agents")):
            where = f"agents[{k}]"
            known_keys(a, AGENT_KEYS, where)
            agent = integer(required(a, f"{where}.id"), f"{where}.id")
            kind = required(a, f"{where}.kind")
            if kind not in tuple(StrategyKind):  # tested by ==, so a list is refused, not a TypeError
                raise ConfigInvalid(f"{where}.kind must be one of {', '.join(StrategyKind)}, "
                                    f"got {kind!r}")
            spec = AgentSpec(**{**a, "id": agent, "kind": StrategyKind(kind)})
            if not isinstance(spec.params, dict):
                raise ConfigInvalid(f"agent {spec.id}: params must be an object")
            try:
                make_behavior(spec)
            except ValueError as exc:
                raise ConfigInvalid(f"agent {spec.id}: bad params: {exc}") from None
            settings["agents"].append(spec)
        if "script" in raw:
            settings["script"] = []
            for k, s in enumerate(array(raw["script"], "script")):
                where = f"script[{k}]"
                known_keys(s, SCRIPT_KEYS, where)
                action = f"{where}.action"
                settings["script"].append(ScriptAction(
                    integer(required(s, f"{where}.tick"), f"{where}.tick"),
                    integer(required(s, f"{where}.agent"), f"{where}.agent"),
                    parse_action(required(s, action), action)))
        for key in ("n", "t"):  # the fields SimConfig gives no default
            required(raw, key)
        for key, value in raw.items():
            if key not in settings:
                check = {int: integer, bool: flag}.get(FIELD_TYPES[key])
                settings[key] = check(value, key) if check else value  # msg_cost_c: validate()
        config = SimConfig(**settings)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"bad scenario field: {exc}") from exc
    config.validate()
    return config


def parse_seeds(flag: str) -> Sequence[int]:
    """The seeds `--seeds` names: a list such as 3,5,8, run in ascending order,
    or an inclusive range such as 1..1000. A range stays a `range`, so each
    seed is drawn as its run starts, and checking its two ends checks all of
    it: every seed must fit in 64 bits before the first run.
    """
    try:
        if ".." in flag:
            lo, hi = flag.split("..")
            seeds = range(int(lo), int(hi) + 1)
        else:
            seeds = sorted(int(s) for s in flag.split(","))
    except ValueError as exc:
        raise ConfigInvalid(f"bad seeds: {exc}") from None
    if not seeds:
        raise ConfigInvalid("no seeds to run")
    for seed in (seeds[0], seeds[-1]) if isinstance(seeds, range) else seeds:
        check_seed(seed)
    return seeds


def load_scenario(path: str) -> dict:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ConfigInvalid("scenario must be a JSON object")
    return raw


def print_reports(reports) -> None:
    for report in reports:
        line = f"[{report.status}] {report.name}"
        if report.detail:
            line += f": {report.detail}"
        print(line)


def print_summary(view: TraceView, result, config: SimConfig) -> None:
    """Final balances, executions and utilities, all read from the run's view."""
    reference = (view.compliant or sorted(view.agent_kinds))[0]
    balances = view.final_balances(reference)
    print(f"quiescent: {result.quiescent}  steps: {result.steps}")
    print(f"balances (view of agent {reference}): "
          + " ".join(f"{i}:{b}" for i, b in enumerate(balances, 1)))
    print("agent  kind                executed  utility")
    for agent, kind in sorted(view.agent_kinds.items()):
        score = utility(view, agent, config.msg_cost_c)
        print(f"{agent:<6} {kind:<19} {len(view.executes[agent]):<9} {score}")


def cmd_run(args) -> int:
    try:
        config = build_config(load_scenario(args.scenario))
        if args.seed is not None:
            check_seed(args.seed)
            config = replace(config, seed=args.seed)
    except SCENARIO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.trace, "w") if args.trace else nullcontext() as trace_fp:
            result = run(config)
            if args.trace:
                write_trace(result.records, trace_fp)
    except OSError as exc:  # opening, a write, or the flush on close
        print(f"error: cannot write trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code = EXIT_OK
    # one fold of the records serves both the checks and the summary
    view = TraceView(result.records) if args.check or args.summary else None
    if args.check:
        reports = [check(view) for check in ALL_CHECKS]
        print_reports(reports)
        if any(r.status != PASS for r in reports):
            code = EXIT_CHECK_FAILED
    if args.summary:
        print_summary(view, result, config)
    if not result.quiescent:
        print("warning: run hit max_steps before quiescence", file=sys.stderr)
        return EXIT_NONQUIESCENT
    return code


def cmd_check(args) -> int:
    try:
        with open(args.trace) as fp:
            reports = run_all_checks(read_trace(fp))
    # TraceView tests every field it reads, and every value a check indexes
    # by, naming the record; the broad clause is the safety net for a fault
    # that no rule of the fold foresaw
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"error: unreadable trace: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print_reports(reports)
    return EXIT_OK if all(r.status == PASS for r in reports) else EXIT_CHECK_FAILED


def _sweep_one(config: SimConfig) -> tuple[int, list[str]]:
    result = run(config)
    failures = [r.name for r in run_all_checks(result.records) if r.status != PASS]
    if not result.quiescent:
        failures.append("quiescence")
    return config.seed, failures


def cmd_sweep(args) -> int:
    try:
        if args.workers < 1:
            raise ConfigInvalid(f"--workers must be at least 1, got {args.workers}")
        config = build_config(load_scenario(args.scenario))
        seeds = [config.seed] if args.seeds is None else parse_seeds(args.seeds)
    except SCENARIO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # one validated config, reseeded as each run starts; only failures are
    # kept, so a long range costs no memory up front
    configs = (replace(config, seed=seed) for seed in seeds)
    if args.workers > 1:
        import multiprocessing  # here, so that run, check and a serial sweep never load it
    with multiprocessing.Pool(args.workers) if args.workers > 1 else nullcontext() as pool:
        results = map(_sweep_one, configs) if pool is None else pool.imap(_sweep_one, configs)
        failed = [f"seed {seed}: {', '.join(why)} "
                  f"(ledgersim run {shlex.quote(args.scenario)} --seed {seed} --check)"
                  for seed, why in results if why]
    print(f"{len(seeds) - len(failed)}/{len(seeds)} PASS")
    for line in failed:
        print(line)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ledgersim",
        description="simulate a consensus-free money-transfer protocol and check its invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--trace", help="write line-delimited trace records here")
    p_run.add_argument("--check", action="store_true", help="run all checks on the trace")
    p_run.add_argument("--summary", action="store_true", help="print final balances and utility")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="re-check a written trace file")
    p_check.add_argument("trace")
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run a scenario across many seeds")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--seeds", help="e.g. 1..1000 or 3,5,8")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())
