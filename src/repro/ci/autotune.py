"""Measured executor auto-tuning for the CI engine.

"More workers" is a pessimisation for some (tester, machine) pairs —
pool start-up and result shipping can outweigh a small burst — while a
genuine win for others (process pools on fused G-test bursts).
Guessing is the bug; this module replaces the guess with a
measurement:

* :func:`run_probe` times a small synthetic same-``(Y, Z)`` burst — the
  dominant selection workload shape — through each candidate executor,
  per tester method, on the active table backend, and records the
  timings in a :class:`Calibration`.
* :class:`Calibration` persists those measurements as a versioned JSON
  document (the :mod:`repro.ci.store` document format, merge-on-save,
  atomic rename) — by convention at
  ``<ExperimentStore root>/calibration.json``.
* :meth:`Calibration.choose` picks the executor for a tester by the
  **never-slower-than-serial rule**: a pooled executor is selected only
  when its measured time beats serial's on the same probe; anything
  unmeasured resolves to serial, so a path measured slower than serial
  cannot be chosen.
* :func:`~repro.ci.executor.default_executor` consults the active
  calibration (``REPRO_CI_CALIBRATION`` env var, or
  :func:`set_active_calibration`) when ``REPRO_CI_EXECUTOR`` is unset.
  No calibration data → serial, exactly the historical default; an
  explicit ``REPRO_CI_EXECUTOR`` always wins over measurements.

The choice is *mechanism only*: executors are bitwise-equivalent by the
executor contract, so calibration can never change verdicts or counts —
only wall-clock.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import env
from repro.ci.executor import EXECUTORS, executor_by_name
from repro.ci.store import _SAVE_LOCK, _read_document, _write_document
from repro.rng import as_generator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.ci.base import CITester

#: Path of the calibration document ``default_executor`` consults when
#: ``REPRO_CI_EXECUTOR`` is unset (typically an ``ExperimentStore``'s
#: ``calibration.json`` — see ``ExperimentStore.calibration_path``).
ENV_CALIBRATION = env.CI_CALIBRATION.name

CALIBRATION_TAG = "repro-ci-calibration"
CALIBRATION_VERSION = 1

#: Executor names the probe always measures, serial first (the baseline
#: of the never-slower-than-serial rule).
PROBE_EXECUTORS = ("serial", "process")


def probe_executors() -> tuple[str, ...]:
    """The candidate set for this machine's probe.

    ``remote`` joins the candidates only when ``REPRO_CI_REMOTE_QUEUE``
    names a live queue — measuring a transport nobody serves would just
    time the dispatch timeout — and is then subject to the same
    never-slower-than-serial rule as every pooled executor.
    """
    if env.CI_REMOTE_QUEUE.is_set():
        return PROBE_EXECUTORS + ("remote",)
    return PROBE_EXECUTORS


def _entry_key(method: str, backend: str, batch_size: int) -> str:
    return json.dumps([method, backend, int(batch_size)],
                      separators=(",", ":"))


class Calibration:
    """Per-(tester method, backend, batch size) executor timings.

    Entries map measurement keys to records
    ``{"seconds": {executor: best-of-repeats}, "chosen": name,
    "n_rows": int}``; ``chosen`` is precomputed by the
    never-slower-than-serial rule at record time so consumers need no
    policy of their own.  Persistence follows the store conventions:
    versioned document, merge with on-disk state under the save lock,
    atomic replace — concurrent probes on a shared store tree cannot
    clobber each other.
    """

    def __init__(self, path: str | os.PathLike | None = None,
                 entries: dict[str, dict] | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._entries: dict[str, dict] = dict(entries or {})
        self._dirty = False

    # -- persistence --------------------------------------------------------

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Calibration":
        """Read a calibration document (missing/alien files read empty)."""
        return cls(path, _read_document(os.fspath(path), CALIBRATION_TAG,
                                        CALIBRATION_VERSION))

    def save(self) -> None:
        """Merge-write to :attr:`path` (no-op when clean or pathless)."""
        if not self._dirty or self.path is None:
            return
        with _SAVE_LOCK:
            merged = _read_document(self.path, CALIBRATION_TAG,
                                    CALIBRATION_VERSION)
            merged.update(self._entries)
            self._entries = merged
            _write_document(self.path, CALIBRATION_TAG, CALIBRATION_VERSION,
                            merged)
            self._dirty = False

    # -- recording ----------------------------------------------------------

    def record(self, method: str, backend: str, batch_size: int,
               seconds: dict[str, float], n_rows: int) -> dict:
        """Store one probe measurement and its chosen executor."""
        entry = {
            "seconds": {name: float(value)
                        for name, value in seconds.items()},
            "chosen": _choose_from(seconds),
            "n_rows": int(n_rows),
        }
        self._entries[_entry_key(method, backend, batch_size)] = entry
        self._dirty = True
        return entry

    # -- lookup -------------------------------------------------------------

    def choose(self, method: str | None, backend: str | None = None,
               batch_size: int | None = None) -> str:
        """Executor name for a tester method under the active backend.

        Unmeasured configurations resolve to ``"serial"`` — the rule is
        *never slower than serial*, so absence of evidence means the
        safe baseline, not a guess.  So does a recorded choice that names
        no current executor (a document probed by an older release).
        With several probed batch sizes the nearest one wins; with none
        specified, the per-size choices must agree unanimously for a
        pooled executor to be returned.
        """
        if method is None:
            return "serial"
        if backend is None:
            from repro.data.backend import default_backend_kind
            backend = default_backend_kind()
        sized: dict[int, str] = {}
        for key, entry in self._entries.items():
            try:
                entry_method, entry_backend, entry_size = json.loads(key)
            except (json.JSONDecodeError, ValueError):
                continue
            if entry_method == method and entry_backend == backend:
                chosen = str(entry.get("chosen", "serial"))
                sized[int(entry_size)] = (chosen if chosen in EXECUTORS
                                          else "serial")
        if not sized:
            return "serial"
        if batch_size is not None:
            nearest = min(sized, key=lambda size: (abs(size - batch_size),
                                                   size))
            return sized[nearest]
        choices = set(sized.values())
        return choices.pop() if len(choices) == 1 else "serial"

    def rows(self) -> list[dict]:
        """Flat report rows (the CLI ``calibrate`` table)."""
        out = []
        for key, entry in sorted(self._entries.items()):
            try:
                method, backend, batch_size = json.loads(key)
            except (json.JSONDecodeError, ValueError):
                continue
            out.append({"method": method, "backend": backend,
                        "batch_size": batch_size, **entry})
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Calibration(path={self.path!r}, entries={len(self)})"


def _choose_from(seconds: dict[str, float]) -> str:
    """The never-slower-than-serial rule over one timing map.

    Serial missing → serial (no baseline, no evidence to leave it).  A
    pooled executor is chosen only with a *strictly* faster measurement
    than serial's; ties keep serial.
    """
    baseline = seconds.get("serial")
    if baseline is None:
        return "serial"
    chosen, best = "serial", float(baseline)
    for name, value in sorted(seconds.items()):
        if name != "serial" and float(value) < best:
            chosen, best = name, float(value)
    return chosen


# -- active calibration (what default_executor consults) --------------------

_ACTIVE: Calibration | None = None
_LOADED: dict[str, Calibration] = {}


def set_active_calibration(calibration: Calibration | None) -> None:
    """In-process override of the calibration ``default_executor`` sees
    (beats ``REPRO_CI_CALIBRATION``; ``None`` restores env resolution)."""
    global _ACTIVE
    _ACTIVE = calibration


def active_calibration() -> Calibration | None:
    """The calibration in force, or ``None`` (→ serial defaults).

    Resolution: the in-process override, else the ``REPRO_CI_CALIBRATION``
    file (memoised per path — probe data is append-only per machine, so a
    stale read can only miss a measurement, never serve a wrong one).
    """
    if _ACTIVE is not None:
        return _ACTIVE
    path = env.CI_CALIBRATION.read()
    if not path:
        return None
    cached = _LOADED.get(path)
    if cached is None:
        if not os.path.exists(path):
            return None
        cached = _LOADED[path] = Calibration.load(path)
    return cached


# -- the probe ---------------------------------------------------------------


def _probe_table(n_rows: int, n_candidates: int, seed: int):
    """Synthetic mixed-kind table shaped like the selection workload:
    discrete candidates ``d*``, continuous candidates ``c*``, a binary
    target and a two-column discrete conditioning block."""
    from repro.data.schema import Role
    from repro.data.table import Table

    rng = as_generator(seed)
    columns: dict[str, np.ndarray] = {
        "y": rng.integers(0, 2, size=n_rows),
        "z0": rng.integers(0, 3, size=n_rows),
        "z1": rng.integers(0, 2, size=n_rows),
    }
    for i in range(n_candidates):
        columns[f"d{i}"] = rng.integers(0, 4, size=n_rows)
        columns[f"c{i}"] = rng.normal(size=n_rows)
    return Table(columns, roles={"y": Role.TARGET})


def _candidate_names(tester: "CITester", n_candidates: int) -> list[str]:
    """Discrete or continuous candidate pool, by the tester's appetite."""
    discrete = tester.method in ("g-test", "chi2")
    prefix = "d" if discrete else "c"
    return [f"{prefix}{i}" for i in range(n_candidates)]


def run_probe(testers: Sequence["CITester"] | None = None,
              executors: Iterable[str] | None = None,
              batch_sizes: Sequence[int] = (4, 16),
              n_rows: int = 2000, repeats: int = 3, seed: int = 0,
              calibration: Calibration | None = None,
              n_workers: int | None = None) -> Calibration:
    """Measure per-(tester, backend, batch-size) executor throughput.

    Runs each tester's fused same-``(Y, Z)`` burst through every named
    executor on a synthetic table built with the *active* table backend,
    keeping the best of ``repeats`` wall-clock timings (min is the
    standard noise-robust estimator for deterministic kernels).  All
    executors compute bitwise-identical results by the executor
    contract; only time differs.  Measurements are recorded into
    ``calibration`` (a fresh pathless one by default) which is saved
    before returning when it has a path.  ``executors`` defaults to
    :func:`probe_executors` — the pools, plus ``remote`` when a work
    queue is configured.
    """
    from repro.ci import default_tester
    from repro.ci.base import CIQuery
    from repro.data.backend import default_backend_kind

    if executors is None:
        executors = probe_executors()
    if testers is None:
        testers = [default_tester(name="gtest", seed=seed),
                   default_tester(name="rcit", seed=seed)]
    if calibration is None:
        calibration = Calibration()
    backend = default_backend_kind()
    table = _probe_table(n_rows, max(batch_sizes), seed)
    table.warm_cache()
    # min_batch=2 so the pooled executors actually shard the small probe
    # bursts instead of silently falling back to their serial path.
    kwargs: dict = {"min_batch": 2}
    if n_workers:
        kwargs["n_workers"] = n_workers

    for tester in testers:
        names = _candidate_names(tester, max(batch_sizes))
        for batch_size in batch_sizes:
            queries = [CIQuery.make(name, "y", ("z0", "z1"))
                       for name in names[:batch_size]]
            seconds: dict[str, float] = {}
            for exec_name in executors:
                executor = executor_by_name(
                    exec_name, **(kwargs if exec_name != "serial" else {}))
                try:
                    # Untimed warm-up: pool spin-up and table shipping are
                    # one-off costs the steady-state burst never pays.
                    executor.run(tester, table, queries)
                    best = float("inf")
                    for _ in range(max(1, repeats)):
                        start = time.perf_counter()
                        executor.run(tester, table, queries)
                        best = min(best, time.perf_counter() - start)
                    seconds[exec_name] = best
                finally:
                    close = getattr(executor, "close", None)
                    if close is not None:
                        close()
            calibration.record(tester.method, backend, batch_size, seconds,
                               n_rows)
    calibration.save()
    return calibration
