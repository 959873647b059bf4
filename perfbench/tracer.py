"""Outside-in layer tracing for the benchmark.

The program has no tracing of its own yet, so the benchmark times layers
from outside: :meth:`Tracer.install` replaces each layer's public
callables (see :func:`layer_targets`) with wrappers that keep a span
stack, and :meth:`Tracer.restore` puts every original back.  A layer's
self time is the duration of its spans minus the part covered by child
spans, so the self times of one pass add up to the pass's wall time minus
``unattributed_s`` (time spent outside every wrapped call).

Counters are taken at the same boundaries.  Nested calls of one layer
count once: ledger and tester counters are read at the outermost span of
their group, so a ledger that wraps another ledger (the Figure 4 count
harness does this) or a tester whose ``test_batch`` loops over ``test``
is not counted twice.

Spans are kept in memory (up to ``max_events``) and written at exit in
the Chrome trace-event format, which ``chrome://tracing`` and Perfetto
read.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

_MISSING = object()

#: Span layer -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "core": "core.self_s",
    "ci.query": "ci.query.make_s",
    "ci.ledger": "ci.ledger.self_s",
    "ci.executor": "ci.executor.self_s",
    "ci.gtest": "ci.gtest.self_s",
    "ci.rcit": "ci.rcit.self_s",
    "ci.oracle": "ci.oracle.self_s",
    "ci.store.save": "ci.store.save_s",
    "ci.store.load": "ci.store.load_s",
    "ci.store.get": "ci.store.get_s",
    "ci.store.put": "ci.store.put_s",
    "data.fingerprint": "data.fingerprint_s",
    "data.codes": "data.codes_s",
    "data.std_block": "data.std_block_s",
    "data.bandwidth": "data.bandwidth_s",
    "data.write": "data.write_s",
    "ml": "ml.fit_s",
    "fairness.cmi": "fairness.cmi_s",
}

#: Layers whose nested spans share one counting group.
_GROUPS = {"ci.gtest": "ci.tester", "ci.rcit": "ci.tester",
           "ci.oracle": "ci.tester"}
#: Groups whose open-span depth the counter hooks consult.
_DEPTH_GROUPS = {"ci.ledger", "ci.tester", "ci.executor"}


def layer_targets():
    """``(owner, attribute, layer, hook)`` for every wrapped callable.

    ``hook`` names the counter logic in :class:`Tracer` (or is None).
    """
    from repro.ci.base import CIQuery, CITestLedger
    from repro.ci.executor import BatchExecutor
    from repro.ci.gtest import GTestCI
    from repro.ci.oracle import OracleCI
    from repro.ci.rcit import RCIT
    from repro.ci.store import PersistentCICache
    from repro.core.grpsel import GrpSel
    from repro.core.online import OnlineSelector
    from repro.core.seqsel import SeqSel
    from repro.data.table import Table
    from repro.experiments import table2
    from repro.ml.base import Classifier

    targets = [
        (SeqSel, "select", "core", None),
        (GrpSel, "select", "core", None),
        (OnlineSelector, "observe", "core", None),
        (CIQuery, "make", "ci.query", None),
        (CITestLedger, "test_waves", "ci.ledger", "ledger"),
        (CITestLedger, "test_batch", "ci.ledger", "ledger_batch"),
        (CITestLedger, "credit_cache_hits", "ci.ledger", "credit"),
        (PersistentCICache, "__init__", "ci.store.load", None),
        (PersistentCICache, "get", "ci.store.get", None),
        (PersistentCICache, "put", "ci.store.put", None),
        (PersistentCICache, "save", "ci.store.save", "save"),
        (Table, "fingerprint", "data.fingerprint", None),
        (Table, "fingerprint_of", "data.fingerprint", None),
        (Table, "discrete_codes", "data.codes", None),
        (Table, "standardized_block", "data.std_block", None),
        (Table, "median_bandwidth", "data.bandwidth", None),
        (Table, "with_column", "data.write", None),
        (Table, "with_appended_rows", "data.write", None),
        (table2, "conditional_mutual_information", "fairness.cmi", None),
    ]
    for tester, layer in ((GTestCI, "ci.gtest"), (RCIT, "ci.rcit"),
                          (OracleCI, "ci.oracle")):
        targets.append((tester, "test", layer, "tester"))
        targets.append((tester, "test_batch", layer, "tester_batch"))
    for executor in _subclasses(BatchExecutor):
        if "run" in vars(executor):
            targets.append((executor, "run", "ci.executor", None))
    for classifier in _subclasses(Classifier):
        for name in ("fit", "predict"):
            if name in vars(classifier):
                targets.append((classifier, name, "ml", None))
    return targets


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Span stack, per-layer self time and counters for one process."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.events: list[tuple[str, float, float]] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        # Per layer [self seconds, calls]; wrappers hold these lists, so
        # reset() zeroes them in place.
        self._acc: dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.counts: dict[str, float] = defaultdict(float)

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        """Zero the per-pass accumulators (events are kept)."""
        for acc in self._acc.values():
            acc[0], acc[1] = 0.0, 0
        self.counts.clear()

    def mark(self, name: str, start: float, seconds: float) -> None:
        """Record a benchmark-level span (a pass) in the trace only."""
        if len(self.events) < self.max_events:
            self.events.append((name, start, seconds))

    def report(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything since the last :meth:`reset`."""
        acc = self._acc
        out = {metric: acc[layer][0]
               for layer, metric in SELF_TIME_METRICS.items()}
        out["unattributed_s"] = wall_s - sum(a[0] for a in acc.values())
        c = self.counts
        tests, hits = c["ledger.tests"], c["ledger.hits"]
        queries, groups = c["tester.queries"], c["tester.groups"]
        out.update({
            "core.select_calls": acc["core"][1],
            "ci.query.make_calls": acc["ci.query"][1],
            "ci.ledger.batches": int(c["ledger.batches"]),
            "ci.ledger.tests": int(tests),
            "ci.ledger.cache_hits": int(hits),
            "ci.ledger.hit_ratio": hits / (hits + tests) if hits + tests
            else 0.0,
            "ci.tester.queries": int(queries),
            "ci.tester.groups": int(groups),
            "ci.tester.fusion_ratio": queries / groups if groups else 0.0,
            "ci.store.saves": int(c["store.saves"]),
            "ci.store.bytes_written": int(c["store.bytes"]),
            "data.write_calls": acc["data.write"][1],
        })
        return out

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; :meth:`restore` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer, hook in layer_targets():
            original = vars(owner).get(attr, _MISSING)
            current = getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(layer, original.__func__,
                                                 hook))
            elif isinstance(original, property):
                patched = property(self._wrap(layer, original.fget, hook))
            else:
                patched = self._wrap(layer, current, hook)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, patched)

    def restore(self) -> None:
        """Put every original callable back, in reverse order."""
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
            restored.append((owner, attr, original))
        for owner, attr, original in restored:
            if vars(owner).get(attr, _MISSING) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} not restored")

    def _wrap(self, layer: str, fn, hook: str | None):
        stack, clock = self._stack, time.perf_counter
        acc, events, cap = self._acc[layer], self.events, self.max_events
        group = _GROUPS.get(layer, layer)
        depth = self._depth if group in _DEPTH_GROUPS else None
        before = getattr(self, f"_before_{hook}") if hook else None
        tracer = self

        def traced(*args, **kwargs):
            after = None
            if before is not None:
                args, after = before(args, kwargs)
            if depth is not None:
                depth[group] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += seconds
                acc[0] += seconds - frame[0]
                acc[1] += 1
                if len(events) < cap:
                    events.append((layer, start, seconds))
                else:
                    tracer.dropped += 1
                if depth is not None:
                    depth[group] -= 1
                if after is not None:
                    after()

        return functools.wraps(fn)(traced)

    # -- counter hooks: (args to call with, callback after the call or None)

    def _before_ledger(self, args, kwargs):
        if self._depth["ci.ledger"]:
            return args, None
        counts, ledger = self.counts, args[0]
        tests, hits = ledger.n_tests, ledger.cache_hits

        def after():
            counts["ledger.tests"] += ledger.n_tests - tests
            counts["ledger.hits"] += ledger.cache_hits - hits
        return args, after

    def _before_ledger_batch(self, args, kwargs):
        # A ledger nested inside another ledger's executor call sees the
        # same batch a second time.
        if not self._depth["ci.executor"]:
            self.counts["ledger.batches"] += 1
        return self._before_ledger(args, kwargs)

    def _before_credit(self, args, kwargs):
        if not self._depth["ci.ledger"]:
            n = args[1] if len(args) > 1 else kwargs["n"]
            self.counts["ledger.hits"] += n
        return args, None

    def _before_tester(self, args, kwargs):
        if not self._depth["ci.tester"]:
            self.counts["tester.queries"] += 1
            self.counts["tester.groups"] += 1
        return args, None

    def _before_tester_batch(self, args, kwargs):
        if self._depth["ci.tester"]:
            return args, None
        tester, table, queries = args
        if not isinstance(queries, (list, tuple)):
            queries = list(queries)
            args = (tester, table, queries)
        self.counts["tester.queries"] += len(queries)
        self.counts["tester.groups"] += len({
            (q.y, q.z) if hasattr(q, "z") else repr(q[1:]) for q in queries})
        return args, None

    def _before_save(self, args, kwargs):
        path = args[0].path
        before = _file_id(path)
        counts = self.counts

        def after():
            now = _file_id(path)
            if now is not None and now != before:
                counts["store.saves"] += 1
                counts["store.bytes"] += now[2]
        return args, after

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
                   "ts": round((start - self.origin) * 1e6, 3),
                   "dur": round(seconds * 1e6, 3), "pid": 1, "tid": 1}
                  for name, start, seconds in self.events]
        document = {"traceEvents": events, "displayTimeUnit": "ms",
                    "otherData": dict(metadata, dropped_events=self.dropped)}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _file_id(path: str):
    try:
        st = os.stat(path)
    except OSError:
        return None
    return (st.st_ino, st.st_mtime_ns, st.st_size)
