import heapq
import json
import random
from dataclasses import fields
from itertools import count

import pytest

import ledgersim as L
from helpers import backfill, compliant_agents, make_config, pay, run_records
from ledgersim.netsim import SimConfig, Simulator
from ledgersim.trace import dump_record


def test_identical_config_gives_byte_identical_traces():
    script = [pay(0, 1, 2, 5), pay(9, 3, 4, 2)]
    a = run_records(make_config(seed=42, d_max=10, script=script))
    b = run_records(make_config(seed=42, d_max=10, script=script))
    assert [dump_record(r) for r in a] == [dump_record(r) for r in b]


def test_config_record_holds_every_field_but_the_script():
    config = make_config(seed=42, d_max=10, script=[pay(0, 1, 2, 5)])
    record = run_records(config)[0]
    names = {f.name for f in fields(SimConfig)} - {"script"}
    assert record.keys() == names | {"tick", "idx", "kind"}
    for name in names - {"agents"}:
        assert record[name] == getattr(config, name), name
    assert record["agents"] == [{"id": i, "kind": "COMPLIANT", "params": {}} for i in range(1, 5)]


def test_different_seed_changes_the_schedule():
    script = [pay(0, 1, 2, 5)]
    a = run_records(make_config(seed=1, d_max=10, script=script))
    b = run_records(make_config(seed=2, d_max=10, script=script))
    assert [dump_record(r) for r in a] != [dump_record(r) for r in b]


def test_unit_delay_payment_executes_by_tick_four():
    # initial, echo, and ready rounds take one tick each under d=1
    records = run_records(make_config(d_min=1, d_max=1, script=[pay(0, 1, 2, 5)]))
    ticks = [r["tick"] for r in records if r["kind"] == "EXECUTE"]
    assert len(ticks) == 4
    assert max(ticks) <= 4
    assert ticks == [3, 3, 3, 3]


def test_every_send_is_delivered_exactly_once_within_bounds():
    records = run_records(make_config(seed=5, d_min=2, d_max=7, script=[pay(0, 1, 2, 5)]))
    sends = {}
    for r in records:
        if r["kind"] == "SEND":
            key = (r["agent"], r["to"], r["channel"], r["mkind"], r["seq"], r["digest"])
            sends.setdefault(key, []).append(r["tick"])
    recvs = {}
    for r in records:
        if r["kind"] == "RECV":
            key = (r["frm"], r["agent"], r["channel"], r["mkind"], r["seq"], r["digest"])
            recvs.setdefault(key, []).append(r["tick"])
    assert sends.keys() == recvs.keys()
    for key, send_ticks in sends.items():
        assert len(send_ticks) == 1 and len(recvs[key]) == 1
        lag = recvs[key][0] - send_ticks[0]
        assert 2 <= lag <= 7


def test_loopback_messages_stay_off_the_wire_records():
    records = run_records(make_config(script=[pay(0, 1, 2, 5)]))
    assert all(r["agent"] != r["to"] for r in records if r["kind"] == "SEND")
    assert all(r["frm"] != r["agent"] for r in records if r["kind"] == "RECV")


def _pair_order(records, frm, to):
    return [
        (r["channel"], r["mkind"], r["seq"])
        for r in records
        if r["kind"] == "RECV" and r["frm"] == frm and r["agent"] == to
    ]


def _send_order(records, frm, to):
    return [
        (r["channel"], r["mkind"], r["seq"])
        for r in records
        if r["kind"] == "SEND" and r["agent"] == frm and r["to"] == to
    ]


def test_fifo_flag_preserves_pairwise_order():
    script = [pay(0, 1, 2, 5), pay(3, 1, 3, 4), pay(6, 2, 4, 2)]
    records = run_records(
        make_config(seed=9, d_max=10, fifo_channels=True, script=script)
    )
    for frm in range(1, 5):
        for to in range(1, 5):
            if frm != to:
                assert _pair_order(records, frm, to) == _send_order(records, frm, to)


def test_reordering_happens_without_fifo_and_protocol_still_converges():
    script = [pay(0, 1, 2, 5), pay(3, 1, 3, 4), pay(6, 2, 4, 2)]
    reordered = False
    for seed in range(30):
        records = run_records(make_config(seed=seed, d_max=10, script=script))
        assert L.run_all_checks(records)[0].status == "PASS"
        assert all(rep.status == "PASS" for rep in L.run_all_checks(records))
        for frm in range(1, 5):
            for to in range(1, 5):
                if frm != to and _pair_order(records, frm, to) != _send_order(records, frm, to):
                    reordered = True
    assert reordered, "expected at least one pairwise reordering across 30 seeds"


def test_insufficient_balance_pay_broadcasts_nothing():
    records = run_records(
        make_config(initial_balance=8, script=[pay(0, 1, 2, 5)])  # 8 < 5 + 4
    )
    assert not [r for r in records if r["kind"] == "SEND"]


def test_nonquiescent_run_is_reported_not_fatal():
    config = make_config(script=[pay(0, 1, 2, 5)], max_steps=5)
    result = L.run(config)
    assert not result.quiescent
    end = result.records[-1]
    assert end["kind"] == "END" and end["quiescent"] is False
    names = {rep.name: rep.status for rep in L.run_all_checks(result.records)}
    assert names["validity"] == "UNKNOWN"
    assert names["agreement"] == "UNKNOWN"


@pytest.mark.parametrize(
    "field,value,phrase",
    [
        ("t", 2, "3t < n"),
        ("epsilon", 0, "epsilon"),
        ("initial_balance", 4, "initial_balance"),
        ("d_min", 0, "d_min"),
        ("max_steps", 0, "max_steps"),
    ],
)
def test_config_validation_names_the_violated_rule(field, value, phrase):
    config = make_config()
    setattr(config, field, value)
    with pytest.raises(L.ConfigInvalid) as err:
        config.validate()
    assert phrase in str(err.value)


def test_config_bounds_the_money_supply_by_the_wire_field():
    # money is conserved, so with n*initial_balance <= 2**64-1 every balance fits
    config = make_config(n=5, initial_balance=(2**64 - 1) // 5)
    config.validate()
    config.initial_balance += 1
    with pytest.raises(L.ConfigInvalid, match=r"beyond the wire's 2\*\*64-1"):
        config.validate()


def test_config_rejects_wrong_agent_ids():
    config = make_config()
    config.agents = compliant_agents(3)
    with pytest.raises(L.ConfigInvalid):
        config.validate()


def test_config_rejects_too_many_byzantine():
    overrides = {
        2: (L.StrategyKind.BYZ_SILENT, {}),
        3: (L.StrategyKind.BYZ_OVERDRAFT, {}),
    }
    config = make_config(overrides=overrides)
    with pytest.raises(L.ConfigInvalid) as err:
        config.validate()
    assert "Byzantine" in str(err.value)


def test_trace_round_trips_through_json():
    records = run_records(make_config(script=[pay(0, 1, 2, 5)]))
    text = "\n".join(dump_record(r) for r in records)
    parsed = [json.loads(line) for line in text.splitlines()]
    assert parsed == records


# -- the calendar queue against the parent's heap loop --------------------------


class HeapSimulator(Simulator):
    """The reference event loop: one heap of (tick, arrival counter, event),
    script actions pushed first, every output pushed with the next counter."""

    def __init__(self, config):
        super().__init__(config)
        self._heap = [(item.tick, i, item) for i, item in enumerate(config.script)]
        heapq.heapify(self._heap)
        self._seq = count(len(self._heap))
        self.step_ticks = []

    def run(self):
        steps = 0
        while self._heap and steps < self.config.max_steps:
            tick, _, item = heapq.heappop(self._heap)
            self.now = self.recorder.tick = tick
            self.step_ticks.append(tick)
            if isinstance(item, L.ScriptAction):
                stack = self.agents[item.agent]
                outputs = stack.on_action(item.action)
            else:
                frm, to, msg = item
                stack = self.agents[to]
                if frm != to:
                    self.recorder.emit(
                        "RECV", agent=to, frm=frm, channel=msg.channel,
                        mkind=msg.kind.value, seq=msg.seq, digest=msg.payload.digest_hex,
                    )
                outputs = stack.on_message(frm, msg)
            self._schedule(stack.id, outputs)
            steps += 1
        quiescent = not self._heap
        self.recorder.emit("END", quiescent=quiescent, steps=steps)
        return L.RunResult(self.recorder.records, self.agents, quiescent, steps)

    def _schedule(self, frm, outputs):
        for to, msg in outputs:
            if to == frm:
                deliver_at = self.now
            else:
                self.recorder.emit(
                    "SEND", agent=frm, to=to, channel=msg.channel,
                    mkind=msg.kind.value, seq=msg.seq, digest=msg.payload.digest_hex,
                )
                deliver_at = self.now + self._delay(frm, to, msg)
                if self.config.fifo_channels:
                    deliver_at = max(deliver_at, self._fifo_floor.get((frm, to), 0))
                    self._fifo_floor[(frm, to)] = deliver_at
            heapq.heappush(self._heap, (deliver_at, next(self._seq), (frm, to, msg)))


HOSTILE = {
    2: (L.StrategyKind.BYZ_EQUIVOCATE, {}),
    3: (L.StrategyKind.BYZ_OVERDRAFT, {"extra": 7}),
    4: (L.StrategyKind.RATIONAL_FREERIDER, {"channels": [1, 5]}),
    5: (L.StrategyKind.RATIONAL_LAZY_EXEC, {}),
}


def crowded_script(n, count_, rng, span):
    """Payments on a few ticks, so several share a tick with each other and
    with message arrivals; a freerider backfill and a no-op action ride along."""
    script = [
        pay(rng.randrange(span), frm, rng.choice([i for i in range(1, n + 1) if i != frm]),
            rng.randrange(1, 30), rng.random() < 0.2)
        for frm in (rng.randrange(1, n + 1) for _ in range(count_))
    ]
    script.append(backfill(span + rng.randrange(5), 4))
    script.append(L.ScriptAction(rng.randrange(span), 1, {"type": "noop"}))
    rng.shuffle(script)  # ties keep script order, whatever that order is
    return script


CASES = {
    "fifo": dict(n=4, t=1, d_min=1, d_max=10, fifo_channels=True, span=40),
    "equal-delays": dict(n=4, t=1, d_min=2, d_max=2, span=6),
    "unit-delays-crowded": dict(n=7, t=2, d_min=1, d_max=1, span=4),
    "hostile": dict(n=7, t=2, d_min=1, d_max=4, span=12, overrides=HOSTILE),
    "hostile-fifo": dict(n=7, t=2, d_min=1, d_max=6, fifo_channels=True, span=12,
                         overrides=HOSTILE),
}


def _differential_config(case, seed, max_steps=1_000_000):
    kw = dict(CASES[case])
    n, span = kw["n"], kw.pop("span")
    script = crowded_script(n, 12, random.Random(seed), span)
    return make_config(seed=seed, script=script, max_steps=max_steps, **kw)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("case", CASES)
def test_calendar_queue_matches_the_heap_loop(case, seed):
    reference = HeapSimulator(_differential_config(case, seed))
    want = reference.run()
    got = L.run(_differential_config(case, seed))
    assert want.quiescent and want.steps > 0
    assert (got.records, got.steps, got.quiescent) == (want.records, want.steps, want.quiescent)

    ticks = reference.step_ticks
    mid_tick = [k for k in range(1, len(ticks)) if ticks[k - 1] == ticks[k]]
    assert mid_tick, "expected a tick with more than one event"
    rng = random.Random(seed)
    for cut in {1, mid_tick[len(mid_tick) // 2], rng.choice(mid_tick),
                rng.randrange(1, want.steps), want.steps - 1, want.steps}:
        reference = HeapSimulator(_differential_config(case, seed, cut))
        calendar = Simulator(_differential_config(case, seed, cut))
        want, got = reference.run(), calendar.run()
        assert want.steps == cut and want.quiescent == (cut == len(ticks))
        assert (got.records, got.steps, got.quiescent) == (want.records, want.steps, want.quiescent)
        # a second run resumes where the cut stopped
        reference.config.max_steps = calendar.config.max_steps = len(ticks)
        want, got = reference.run(), calendar.run()
        assert want.quiescent
        assert (got.records, got.steps, got.quiescent) == (want.records, want.steps, want.quiescent)
