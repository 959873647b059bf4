"""The :class:`FaultPlan`: a seed-derived, replayable fault schedule.

A plan is a list of :class:`FaultSpec` terms, each binding one injection
*site* (see :mod:`repro.faults.sites`) to one action:

=========  ==================================================================
Kind       Effect at the site
=========  ==================================================================
``raise``  raise :class:`~repro.exceptions.FaultInjected` (an ``OSError``
           subclass, so the site's real I/O-error hardening path runs)
``delay``  ``time.sleep(value)`` seconds (default 0.01)
``truncate``  keep only the first ``value`` fraction of a byte payload
           (default 0.5) — only sites that route bytes through
           :func:`repro.faults.inject_bytes` can be truncated
``kill``   raise :class:`~repro.exceptions.InjectedKill`; the worker loop
           turns it into process death (or an abandoned claim for
           in-process worker threads)
``skew``   shift :func:`repro.faults.clock` by ``value`` seconds at
           matching clock sites (never "fires" — it is a standing offset)
=========  ==================================================================

Spec grammar (the ``REPRO_FAULTS`` environment variable)::

    term      := site ":" kind ["=" value] ["@" rate] ["x" times]
    plan      := term (";" term)* [";" "seed=" N]

``site`` may be a literal site name or an ``fnmatch`` pattern
(``queue.*``); it must match at least one registered site.  ``rate`` is
the per-invocation firing probability (default 1.0); ``times`` caps the
total number of firings (default unlimited).  Example::

    REPRO_FAULTS="worker.execute:kill@0.1x1;spool.write:truncate=0.5@0.05x2;seed=11"

**Determinism.**  Every spec draws from its own generator, derived via
:func:`repro.rng.derive` from ``(seed, "faults", index, site, kind)`` —
so a plan's firing decisions are a pure function of its seed and the
sequence of site invocations.  With concurrent workers the interleaving
of invocations is scheduling-dependent, but each stream's decisions (and
any ``xN`` total-firing cap) are not; chaos tests therefore assert their
invariants for *any* schedule the seed produces, and
:meth:`FaultPlan.describe` round-trips the plan so a failing schedule is
replayable from its recorded spec + seed.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase

from repro import env, rng
from repro.exceptions import FaultInjected, InjectedKill

__all__ = ["FaultPlan", "FaultSpec", "parse_spec"]

KINDS = ("raise", "delay", "truncate", "kill", "skew")

#: Default ``value`` per kind (seconds for delay/skew, fraction kept for
#: truncate; raise/kill take no value).
_DEFAULT_VALUES = {"raise": 0.0, "delay": 0.01, "truncate": 0.5,
                   "kill": 0.0, "skew": 0.0}

#: A trailing ``xN`` firing cap — anchored so kind names containing an
#: ``x`` never shadow it.
_TIMES_SUFFIX = re.compile(r"x(\d+)$")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed plan term: ``site:kind[=value][@rate][xN]``."""

    site: str
    kind: str
    value: float
    rate: float = 1.0
    times: int | None = None

    def matches(self, site: str) -> bool:
        return self.site == site or fnmatchcase(site, self.site)

    def render(self) -> str:
        term = f"{self.site}:{self.kind}"
        if self.value != _DEFAULT_VALUES[self.kind]:
            term += f"={self.value:g}"
        if self.rate != 1.0:
            term += f"@{self.rate:g}"
        if self.times is not None:
            term += f"x{self.times}"
        return term


def _parse_term(term: str) -> FaultSpec:
    site, sep, action = term.partition(":")
    site = site.strip()
    if not sep or not site:
        raise ValueError(
            f"malformed fault term {term!r}; expected "
            "site:kind[=value][@rate][xN]")
    action = action.strip()
    times: int | None = None
    rate = 1.0
    cap = _TIMES_SUFFIX.search(action)
    if cap is not None:
        times = int(cap.group(1))
        action = action[:cap.start()]
    if "@" in action:
        action, _, raw_rate = action.partition("@")
        try:
            rate = float(raw_rate)
        except ValueError:
            raise ValueError(
                f"fault term {term!r}: @rate must be a number, "
                f"got {raw_rate!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"fault term {term!r}: @rate must be in [0, 1], got {rate}")
    kind, sep, raw_value = action.partition("=")
    kind = kind.strip()
    if kind not in KINDS:
        raise ValueError(
            f"fault term {term!r}: unknown kind {kind!r}; choose from "
            f"{', '.join(KINDS)}")
    value = _DEFAULT_VALUES[kind]
    if sep:
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"fault term {term!r}: value must be a number, "
                f"got {raw_value!r}") from None
    if kind == "truncate" and not 0.0 <= value <= 1.0:
        raise ValueError(
            f"fault term {term!r}: truncate keeps a fraction in [0, 1], "
            f"got {value}")
    if kind == "delay" and value < 0:
        raise ValueError(f"fault term {term!r}: delay must be >= 0")
    return FaultSpec(site=site, kind=kind, value=value, rate=rate,
                     times=times)


def parse_spec(text: str) -> tuple[list[FaultSpec], int | None]:
    """Parse a ``REPRO_FAULTS`` string into specs + an inline seed."""
    specs: list[FaultSpec] = []
    seed: int | None = None
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        if term.startswith("seed="):
            raw = term[len("seed="):]
            try:
                seed = int(raw)
            except ValueError:
                raise ValueError(
                    f"fault plan seed must be an integer, got {raw!r}"
                ) from None
            continue
        specs.append(_parse_term(term))
    return specs, seed


class FaultPlan:
    """A live, thread-safe fault schedule over a set of specs.

    Instances are cheap; construct one per chaos scenario.  Firing state
    (per-spec counters) lives on the instance, so replaying a schedule is
    just constructing a fresh plan from the same spec + seed.
    """

    def __init__(self, specs: list[FaultSpec] | str, seed: int = 0) -> None:
        if isinstance(specs, str):
            specs, inline_seed = parse_spec(specs)
            if inline_seed is not None:
                seed = inline_seed
        self.specs = list(specs)
        self.seed = int(seed)
        from repro.faults.sites import validate_sites
        validate_sites(self.specs)
        self._lock = threading.Lock()
        self._rngs = [rng.derive(self.seed, "faults", index, spec.site,
                                 spec.kind)
                      for index, spec in enumerate(self.specs)]
        self._fired = [0] * len(self.specs)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan ``REPRO_FAULTS`` describes (its seed is the inline
        ``seed=`` term, else 0), or ``None`` when injection is disabled."""
        text = env.FAULTS.read()
        return cls(text) if text else None

    def describe(self) -> str:
        """Canonical replay handle: a spec string embedding the seed."""
        terms = [spec.render() for spec in self.specs]
        terms.append(f"seed={self.seed}")
        return ";".join(terms)

    # -- firing --------------------------------------------------------------

    def _fires(self, index: int, spec: FaultSpec) -> bool:
        with self._lock:
            if spec.times is not None and self._fired[index] >= spec.times:
                return False
            if spec.rate < 1.0 and self._rngs[index].random() >= spec.rate:
                return False
            self._fired[index] += 1
            return True

    def fired(self) -> dict[str, int]:
        """Firing counts per spec term (diagnostics / test assertions)."""
        with self._lock:
            return {spec.render(): count
                    for spec, count in zip(self.specs, self._fired)}

    def perform(self, site: str) -> None:
        """Run every non-truncate action armed at ``site`` (may sleep or
        raise :class:`FaultInjected` / :class:`InjectedKill`)."""
        for index, spec in enumerate(self.specs):
            if spec.kind in ("skew", "truncate") or not spec.matches(site):
                continue
            if not self._fires(index, spec):
                continue
            if spec.kind == "delay":
                time.sleep(spec.value)
            elif spec.kind == "kill":
                raise InjectedKill(
                    f"injected kill at {site} (plan {self.describe()!r})")
            else:  # raise
                raise FaultInjected(
                    f"injected fault at {site} (plan {self.describe()!r})")

    def mangle(self, site: str, payload: bytes) -> bytes:
        """Apply armed ``truncate`` actions at ``site`` to ``payload``."""
        for index, spec in enumerate(self.specs):
            if spec.kind != "truncate" or not spec.matches(site):
                continue
            if self._fires(index, spec):
                payload = payload[:int(len(payload) * spec.value)]
        return payload

    def skew(self, site: str) -> float:
        """Total standing clock offset (seconds) armed at ``site``."""
        total = 0.0
        for spec in self.specs:
            if spec.kind == "skew" and spec.matches(site):
                total += spec.value
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.describe()!r})"
