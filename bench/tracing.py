"""Span and counter tracing installed around robustagg's public functions.

The wrappers are installed from the benchmark's own files by replacing
module and class attributes, so `src/` is never edited, and only in the
traced process: the untimed end-to-end run measures unmodified code.

Coarse functions (a protocol phase, a graph build, a report render) record
spans with name, start, end, parent span and run id.  High-frequency
primitives (framing, hashing, MACs, ledger charges) record counts only,
because a span per call would dominate what it measures.  Spans stay in
memory in flat arrays and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter_ns

# (owner, attribute, span name).  Several attributes may share a name.
SPAN_TARGETS = [
    ("orchestrator", "run_sessions", "orchestrator.run_sessions"),
    ("cli", "render_report", "cli.render_report"),
    ("scenario", "build_graph", "scenario.build_graph"),
    ("scenario.Scenario", "validate", "scenario.validate"),
    ("crypto.KeyStore", "register_node", "crypto.KeyStore.register"),
    ("crypto.KeyStore", "register_edge", "crypto.KeyStore.register"),
    ("shia", "run_shia", "shia.run_shia"),
    ("shia", "internal_label", "shia.internal_label"),
    ("shia", "recompute_root", "shia.recompute_root"),
    ("shia", "offpath_to_bytes", "shia.offpath_to_bytes"),
    ("shia", "offpath_from_bytes", "shia.offpath_from_bytes"),
    ("als", "als1_collect", "als.als1_collect"),
    ("als", "als1_process", "als.als1_process"),
    ("als", "als2_collect", "als.als2_collect"),
    ("als", "als2_process", "als.als2_process"),
    ("atr", "build_initial_tree", "atr.build_initial_tree"),
    ("atr", "atr_basic", "atr.atr_basic"),
    ("atr", "atr_resilient_init", "atr.atr_resilient_init"),
    ("atr", "atr_resilient_build", "atr.atr_resilient_build"),
]

# (owner, attribute, counter name, byte counter name, byte measure).  The
# byte measure maps (args, result) to the bytes the call accounts for.
COUNT_TARGETS = [
    ("wire", "frame", "wire.frame.calls", "wire.frame.bytes", lambda a, r: len(r)),
    ("wire", "unframe", "wire.unframe.calls", None, None),
    ("crypto", "hash_bytes", "crypto.hash_bytes.calls", None, None),
    ("crypto", "mac", "crypto.mac.calls", None, None),
    ("crypto", "xor_acks", "crypto.xor_acks.calls", None, None),
    ("shia.Label", "to_bytes", "shia.Label.to_bytes.calls", None, None),
    ("shia.Label", "from_bytes", "shia.Label.from_bytes.calls", None, None),
    ("netmodel.Network", "send_link", "netmodel.Network.send_link.calls", None, None),
    (
        "netmodel.CongestionLedger",
        "charge",
        "netmodel.CongestionLedger.charge.calls",
        "netmodel.ledger.bytes",
        lambda a, r: a[3],  # charge(self, a, b, nbytes, phase)
    ),
    ("adversary.Adversary", "action", "adversary.Adversary.action.calls", None, None),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"robustagg.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_run = array("q")
        self._stack = [-1]
        self.run_id = -1
        self.counters: dict[str, list[int]] = {}
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _counter(self, name: str) -> list[int]:
        return self.counters.setdefault(name, [0])

    def _open(self, name_id: int) -> int:
        i = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_run.append(self.run_id)
        self.span_end.append(0)
        self._stack.append(i)
        self.span_start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter_ns()
        self._stack.pop()

    def span_wrapper(self, name: str, fn):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return wrapper

    def count_wrapper(self, name: str, fn, bytes_name: str | None, measure):
        calls = self._counter(name)
        if bytes_name is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)

            return wrapper
        nbytes = self._counter(bytes_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            out = fn(*args, **kwargs)
            nbytes[0] += measure(args, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a benchmark-side block as a span."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    # -- installation ----------------------------------------------------
    def _patch(self, owner_name: str, attr: str, make) -> bool:
        owner = _resolve(owner_name)
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            return False
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return True

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is reported
        in `missing` and its metrics read zero."""
        for owner, attr, name in SPAN_TARGETS:
            if not self._patch(owner, attr, lambda fn, n=name: self.span_wrapper(n, fn)):
                self.missing.append(f"{owner}.{attr}")
            self._name_id(name)
        for owner, attr, name, bytes_name, measure in COUNT_TARGETS:
            make = lambda fn, n=name, b=bytes_name, m=measure: self.count_wrapper(n, fn, b, m)
            if not self._patch(owner, attr, make):
                self.missing.append(f"{owner}.{attr}")
            self._counter(name)
            if bytes_name:
                self._counter(bytes_name)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- analysis --------------------------------------------------------
    def snapshot_counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self.counters.items()}

    def reset_counts(self) -> None:
        for cell in self.counters.values():
            cell[0] = 0

    def self_times(self) -> array:
        """Per-span self time: duration minus the time its child spans cover."""
        n = len(self.span_start)
        child = array("q", bytes(8 * n))
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        return array("q", (ends[i] - starts[i] - child[i] for i in range(n)))

    def totals(self, runs: range, self_ns: array) -> dict[str, dict[str, float]]:
        """Per span name over the given run ids: calls, total and self seconds."""
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        lo, hi = runs.start, runs.stop
        for i in range(len(self.span_start)):
            if lo <= self.span_run[i] < hi:
                row = out[self.names[self.span_name[i]]]
                row["calls"] += 1
                row["s"] += (self.span_end[i] - self.span_start[i]) / 1e9
                row["self_s"] += self_ns[i] / 1e9
        return out

    def write_spans(self, path, self_ns: array) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_run[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{self_ns[i]}\n"
                )
