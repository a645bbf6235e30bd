"""In-memory spans around ledgersim's layer boundaries, for the traced mode.

`Tracer.install` replaces public methods and functions of each layer with
wrappers that record a span (name, parent, start, end) and restores the
originals on `uninstall`; the program itself carries no instrumentation.
A few wrappers also count what the wrapped call returned or left behind, so
ratios are measured where the work happens. `reduce_spans` turns one seeded
run's spans into per-name totals, self times and call counts.
"""

from __future__ import annotations

import gzip
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        record = [name, self.stack[-1], perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[3] = perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            record = [name, stack[-1], perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def install(self, ls) -> None:
        """Wrap the layers of the imported ledgersim package `ls`."""
        counts, peaks = self.counts, self.peaks

        def count_kind(_result, args):
            counts[args[1]] += 1

        def count_deliveries(outcome, _args):
            counts["deliveries"] += len(outcome.delivered)

        def queue_peak(_result, args):
            chan = args[0]
            queued = sum(map(len, chan.in_echo_queues.values())) + sum(
                map(len, chan.in_ready_queues.values())
            )
            if queued > peaks["in_queue"]:
                peaks["in_queue"] = queued

        def count_executions(reports, args):
            counts["executions"] += len(reports)
            # each executed report was in the buffer right after the insert
            size = len(args[0].exec_buffer) + len(reports)
            if size > peaks["buffer"]:
                peaks["buffer"] = size

        self.patch(ls.netsim.Simulator, "run", "netsim.loop")
        self.patch(ls.strategy.AgentStack, "on_message", "strategy.on_message")
        self.patch(ls.strategy.AgentStack, "on_action", "strategy.on_action")
        chan = ls.broadcast.ChannelState
        self.patch(chan, "on_receive", "broadcast.on_receive", count_deliveries)
        self.patch(chan, "flush_in_queues", "broadcast.flush_in", queue_peak)
        self.patch(chan, "flush_out_queue", "broadcast.flush_out")
        self.patch(ls.ledger.LedgerState, "on_rrb_deliver", "ledger.deliver", count_executions)
        self.patch(ls.ledger.LedgerState, "snapshot", "ledger.snapshot")
        self.patch(ls.trace.TraceRecorder, "emit", "trace.emit", count_kind)
        self.patch(ls.transaction.Transaction, "__post_init__", "transaction.construct")
        self.patch(ls.trace, "write_trace", "trace.write")
        self.patch(ls.trace, "read_trace", "trace.read")
        checker = ls.checker
        self.patch(checker.TraceView, "__init__", "checker.view")
        self.patch(checker, "dependency_closure", "checker.closure")
        checks = tuple(
            self.wrap("checker." + fn.__name__.removeprefix("check_"), fn)
            for fn in checker.ALL_CHECKS
        )
        self.replace(checker, "ALL_CHECKS", checks)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)



def write_spans(spans: list[list], path) -> None:
    """One span per line: index, parent index, name, start and end in seconds."""
    with gzip.open(path, "wt") as fp:
        fp.write("index\tparent\tname\tstart\tend\n")
        for i, (name, parent, start, end) in enumerate(spans):
            fp.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")


def reduce_spans(spans: list[list]) -> dict[str, list]:
    """name -> [total seconds, self seconds, calls]; self excludes child spans."""
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for i, (name, parent, start, end) in enumerate(spans):
        agg = out[name]
        agg[0] += end - start
        agg[1] += end - start - child[i]
        agg[2] += 1
    return out
