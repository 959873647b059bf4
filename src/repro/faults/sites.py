"""Named injection sites and the zero-overhead runtime shim.

Every I/O boundary in the distributed/store stack calls one of three
shims at its site:

* :func:`inject` — control-flow faults (raise / delay / kill);
* :func:`inject_bytes` — same, plus byte-payload truncation;
* :func:`clock` — the site's notion of "now", skewable by a plan.

When no plan is active (``REPRO_FAULTS`` unset and no
:func:`use_plan` override), each shim is a single module-global load
plus a ``None`` check — no environment read, no allocation, no lock.
The environment is consulted exactly once, lazily, on the first shim
call; :func:`refresh_from_env` re-reads it (worker processes call this
after inheriting a dispatcher's environment).

Sites must be registered here before a plan may arm them —
``FaultPlan`` validates its specs against :data:`SITES`, so a typo in
``REPRO_FAULTS`` fails loudly at parse time instead of silently never
firing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.faults.plan import FaultPlan, FaultSpec

__all__ = [
    "SITES",
    "active_plan",
    "clock",
    "inject",
    "inject_bytes",
    "refresh_from_env",
    "use_plan",
    "validate_sites",
]

#: Registry of every injection site, with the boundary it guards.
SITES: dict[str, str] = {
    "queue.submit": "work-queue task submission",
    "queue.claim": "queue claim (pending -> claimed transition)",
    "queue.complete": "queue completion (result durably recorded)",
    "queue.extend": "lease extension heartbeat",
    "queue.clock.claim": "lease clock as seen by the claiming worker",
    "queue.clock.reclaim": "lease clock as seen by the reclaiming dispatcher",
    "queue.quarantine": "poison-task quarantine rename",
    "spool.write": "atomic spool-file write, tmp + rename (truncatable)",
    "dispatch.poll": "dispatcher result/reclaim poll iteration",
    "worker.execute": "worker task execution (post-claim, pre-result)",
    "worker.clock": "worker-side wall clock (deadline checks)",
    "store.load": "store document read",
    "store.save": "store document write (truncatable)",
    "store.quarantine": "corrupt-document quarantine rename",
}

#: Sentinel distinguishing "not yet resolved from env" from "resolved: no
#: plan".  Keeps the disabled fast path to one global load + identity check.
_UNRESOLVED = object()

_ACTIVE: object = _UNRESOLVED


def _resolve() -> FaultPlan | None:
    global _ACTIVE
    if _ACTIVE is _UNRESOLVED:
        _ACTIVE = FaultPlan.from_env()
    return _ACTIVE  # type: ignore[return-value]


def active_plan() -> FaultPlan | None:
    """The plan currently armed (env-derived or :func:`use_plan`), if any."""
    return _resolve()


def refresh_from_env() -> FaultPlan | None:
    """Discard any resolved/overridden plan and re-read ``REPRO_FAULTS``."""
    global _ACTIVE
    _ACTIVE = _UNRESOLVED
    return _resolve()


@contextmanager
def use_plan(plan: FaultPlan | None) -> Iterator[FaultPlan | None]:
    """Arm ``plan`` for the duration of the block (test harness hook).

    Overrides whatever the environment says; restores the previous
    resolution state on exit.  Not safe to nest across threads that
    expect different plans — the override is process-global, matching
    how ``REPRO_FAULTS`` itself behaves.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = previous


def validate_sites(specs: Iterable[FaultSpec]) -> None:
    """Reject specs whose site pattern matches no registered site."""
    for spec in specs:
        if not any(spec.matches(site) for site in SITES):
            raise ValueError(
                f"fault spec {spec.render()!r} matches no registered "
                f"injection site; known sites: {', '.join(sorted(SITES))}")


def inject(site: str) -> None:
    """Fire any control-flow faults armed at ``site``.

    May sleep (``delay``), raise :class:`~repro.exceptions.FaultInjected`
    (``raise``) or :class:`~repro.exceptions.InjectedKill` (``kill``).
    No-op with zero overhead when no plan is active.
    """
    plan = _ACTIVE
    if plan is None:
        return
    plan = _resolve()
    if plan is not None:
        plan.perform(site)


def inject_bytes(site: str, payload: bytes) -> bytes:
    """:func:`inject` at ``site``, then apply any armed truncation."""
    plan = _ACTIVE
    if plan is None:
        return payload
    plan = _resolve()
    if plan is None:
        return payload
    plan.perform(site)
    return plan.mangle(site, payload)


def clock(site: str) -> float:
    """``time.time()`` as observed at ``site`` (skewable by a plan)."""
    now = time.time()
    plan = _ACTIVE
    if plan is None:
        return now
    plan = _resolve()
    if plan is None:
        return now
    return now + plan.skew(site)
