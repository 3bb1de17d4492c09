"""Seeded, deterministic fault injection for the experiment pipeline.

Production experiment clusters prove their fault tolerance by
*injecting* faults, not by waiting for them.  This module is the
reproduction's chaos layer: a registry of named **injection sites**
threaded through the store and the harness, and a :class:`FaultPlan`
(seed + per-site specs) that decides -- deterministically -- which
calls fail and how.

Sites
-----

========================  ==================================================
``store.read``            a trace payload was read from disk (key: filename)
``store.write``           a trace payload is about to be written (key: filename)
``store.result_cache``    a sweep result-cache entry was read (key: result
                          key); a corrupt entry must be a clean miss
``worker.start``          a pool worker process initialized
``worker.task``           a pool task is about to run (key: experiment id)
``serve.request``         a serve front-end request arrived (key: request
                          sequence number); payload kinds mangle the raw
                          request bytes, so corruption exercises the
                          bad-request path, never a crash
========================  ==================================================

Kinds
-----

``io-error``   raise :class:`~repro.errors.InjectedIOError` (an OSError)
``corrupt``    flip a deterministic bit in the payload bytes
``truncate``   drop the second half of the payload bytes
``crash``      kill the worker process (``os._exit``); raises
               :class:`~repro.errors.WorkerCrash` outside a worker so
               serial runs exercise the retry path without dying
``slow``       sleep ``delay`` seconds (a hung-worker stand-in)
``error``      raise :class:`~repro.errors.InjectedTaskError`
               (a transient, retryable task failure)

Determinism
-----------

Every decision is a pure function of ``(seed, epoch, site, key,
call-counter)`` -- a SHA-256 roll compared against the spec's
probability -- so the same seed reproduces the same injection
sequence regardless of worker scheduling.  The **epoch** is bumped by
the harness each time it builds a fresh pool (or degrades to serial),
so a deterministic fault does not re-fire identically forever on the
retry path; with the epoch fixed, replays are exact.

The active plan travels through the environment
(``REPRO_FAULTS`` / ``REPRO_FAULTS_EPOCH``): pool children inherit it
automatically, and :func:`install` keeps the parent's module state
and the environment in sync.  ``times`` caps fires per ``(site,
key)`` per process, which is what makes "crash once, then succeed"
plans terminate.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro import telemetry
from repro.errors import (FaultInjected, InjectedIOError,
                          InjectedTaskError, WorkerCrash)

#: The named injection sites the pipeline is instrumented with.
SITES = ("store.read", "store.write", "store.result_cache",
         "worker.start", "worker.task", "serve.request")

#: Supported fault kinds (see module docstring).
KINDS = ("io-error", "corrupt", "truncate", "crash", "slow", "error")

#: Kinds that transform a byte payload instead of raising/sleeping.
_PAYLOAD_KINDS = ("corrupt", "truncate")

ENV_PLAN = "REPRO_FAULTS"
ENV_EPOCH = "REPRO_FAULTS_EPOCH"

#: Set (per process) by the pool initializer: ``crash`` faults only
#: ``os._exit`` inside a worker; in the parent they raise
#: :class:`WorkerCrash` so serial degradation stays survivable.
_IN_WORKER = False


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where, what, how often."""

    site: str
    kind: str
    probability: float = 1.0
    #: Max fires per (site, key) per process; None = unlimited.
    times: Optional[int] = None
    #: Sleep length for ``slow`` faults, seconds.
    delay: float = 0.25

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {SITES}")
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {KINDS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")
        if self.times is not None and self.times < 0:
            raise ValueError("fault times must be >= 0")
        if self.delay < 0:
            raise ValueError("fault delay must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the injection rules it drives.

    Serializes to canonical JSON (:meth:`to_json`) for the
    environment hand-off, and parses from the compact CLI syntax
    (:meth:`parse`)::

        site:kind[:p=0.5][:times=2][:delay=1.5][,site:kind...]
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def for_site(self, site: str) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.site == site)

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed,
             "specs": [{"site": s.site, "kind": s.kind,
                        "probability": s.probability, "times": s.times,
                        "delay": s.delay} for s in self.specs]},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        raw = json.loads(text)
        return cls(seed=int(raw.get("seed", 0)),
                   specs=tuple(FaultSpec(**spec)
                               for spec in raw.get("specs", ())))

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "FaultPlan":
        """Parse the CLI plan syntax (or a JSON plan) into a plan."""
        text = text.strip()
        if not text:
            return cls(seed=seed)
        if text.startswith("{"):
            plan = cls.from_json(text)
            return cls(seed=seed, specs=plan.specs) if seed else plan
        specs = []
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            parts = entry.split(":")
            if len(parts) < 2:
                raise ValueError(
                    f"fault spec {entry!r} is not site:kind[:k=v...]")
            kwargs: Dict[str, object] = {"site": parts[0],
                                         "kind": parts[1]}
            for option in parts[2:]:
                if "=" not in option:
                    raise ValueError(
                        f"fault option {option!r} is not key=value")
                key, value = option.split("=", 1)
                key = {"p": "probability"}.get(key, key)
                if key == "times":
                    kwargs[key] = int(value)
                elif key in ("probability", "delay"):
                    kwargs[key] = float(value)
                else:
                    raise ValueError(f"unknown fault option {key!r}")
            specs.append(FaultSpec(**kwargs))
        return cls(seed=seed, specs=tuple(specs))


class ActiveFaults:
    """A plan armed in this process: counters plus the decision rolls."""

    def __init__(self, plan: FaultPlan, epoch: int = 0) -> None:
        self.plan = plan
        self.epoch = epoch
        #: (site, key, spec-index) -> calls seen / fires so far.
        self._calls: Dict[Tuple[str, str, int], int] = {}
        self._fires: Dict[Tuple[str, str, int], int] = {}
        self.fired: int = 0

    def _roll(self, site: str, key: str, index: int, call: int) -> float:
        """A uniform [0, 1) draw, pure in (seed, epoch, site, key,
        spec index, call counter) -- scheduling cannot perturb it."""
        token = (f"{self.plan.seed}:{self.epoch}:{site}:{key}:"
                 f"{index}:{call}")
        digest = hashlib.sha256(token.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def pick(self, site: str, key: str) -> Optional[FaultSpec]:
        """The spec that fires for this call, or None.  Advances the
        per-(site, key) call counters either way."""
        chosen = None
        for index, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            slot = (site, key, index)
            call = self._calls.get(slot, 0)
            self._calls[slot] = call + 1
            if chosen is not None:
                continue  # still advance later specs' counters
            if spec.times is not None \
                    and self._fires.get(slot, 0) >= spec.times:
                continue
            if spec.probability < 1.0 \
                    and self._roll(site, key, index, call) >= spec.probability:
                continue
            self._fires[slot] = self._fires.get(slot, 0) + 1
            self.fired += 1
            chosen = spec
        return chosen


#: The process-wide armed plan; (env-plan, env-epoch) it was built
#: from, so env changes (a test's monkeypatch, an epoch bump) rebuild.
_ACTIVE: Optional[ActiveFaults] = None
_ACTIVE_SOURCE: Optional[Tuple[str, str]] = None


def install(plan: Optional[FaultPlan], *, epoch: int = 0) -> None:
    """Arm *plan* in this process and export it to child processes.

    ``install(None)`` disarms and clears the environment.
    """
    global _ACTIVE, _ACTIVE_SOURCE
    if plan is None or not plan.specs:
        _ACTIVE = None
        _ACTIVE_SOURCE = None
        os.environ.pop(ENV_PLAN, None)
        os.environ.pop(ENV_EPOCH, None)
        return
    os.environ[ENV_PLAN] = plan.to_json()
    os.environ[ENV_EPOCH] = str(epoch)
    _ACTIVE = ActiveFaults(plan, epoch)
    _ACTIVE_SOURCE = (os.environ[ENV_PLAN], os.environ[ENV_EPOCH])


def advance_epoch() -> int:
    """Bump the injection epoch (the harness calls this per fresh
    pool / serial degrade) so retries see fresh probability rolls.
    Returns the new epoch; a no-op 0 when no plan is armed."""
    active = _active()
    if active is None:
        return 0
    install(active.plan, epoch=active.epoch + 1)
    return active.epoch + 1


def ensure(plan_json: Optional[str]) -> None:
    """Arm a plan from its JSON form unless one is already armed.

    Pool workers call this with the plan threaded through the run
    context: normally the inherited ``REPRO_FAULTS`` environment has
    already armed it (and wins -- it carries the current epoch), but
    a scrubbed environment still gets the plan.
    """
    if not plan_json or _active() is not None:
        return
    try:
        epoch = int(os.environ.get(ENV_EPOCH, "0") or 0)
    except ValueError:
        epoch = 0
    install(FaultPlan.from_json(plan_json), epoch=epoch)


def mark_worker() -> None:
    """Record that this process is a pool worker (crash faults may
    really ``os._exit`` here)."""
    global _IN_WORKER
    _IN_WORKER = True


def _active() -> Optional[ActiveFaults]:
    """The armed plan, rebuilt lazily whenever the environment's
    (plan, epoch) pair changed -- which is how pool children arm
    themselves and how epoch bumps reach the parent's instance."""
    global _ACTIVE, _ACTIVE_SOURCE
    source = (os.environ.get(ENV_PLAN), os.environ.get(ENV_EPOCH))
    if source[0] is None:
        if _ACTIVE_SOURCE is not None:
            _ACTIVE = None
            _ACTIVE_SOURCE = None
        return _ACTIVE
    if source != _ACTIVE_SOURCE:
        try:
            plan = FaultPlan.from_json(source[0])
            epoch = int(source[1] or 0)
        except (ValueError, TypeError):
            return _ACTIVE
        _ACTIVE = ActiveFaults(plan, epoch)
        _ACTIVE_SOURCE = source
    return _ACTIVE


def active_plan() -> Optional[FaultPlan]:
    """The armed plan (module state or inherited environment)."""
    active = _active()
    return active.plan if active is not None else None


def fired_count() -> int:
    """Faults fired in this process so far (telemetry for summaries)."""
    active = _active()
    return active.fired if active is not None else 0


def _flip_bit(payload: bytes, roll: float) -> bytes:
    if not payload:
        return payload
    bit = int(roll * len(payload) * 8) % (len(payload) * 8)
    mutated = bytearray(payload)
    mutated[bit >> 3] ^= 1 << (bit & 7)
    return bytes(mutated)


def inject(site: str, key: str = "", payload: Optional[bytes] = None):
    """Maybe inject a fault at *site* for *key*.

    Returns *payload* (possibly corrupted/truncated) for byte-level
    sites; raises or sleeps for the others.  With no plan armed this
    is a near-free no-op, so production paths call it unconditionally.
    """
    active = _active()
    if active is None:
        return payload
    spec = active.pick(site, key)
    if spec is None:
        return payload
    # The fired log goes to telemetry BEFORE the fault acts: a
    # ``crash`` kind ``os._exit``s immediately, so the event (flushed
    # per record) and the flushed counters are all that survive it.
    # The event is the only record of the firing -- reports count
    # faults from it, so no counter can disagree with the log.
    telemetry.event("fault.fired", site=site, kind=spec.kind, key=key,
                    epoch=active.epoch)
    telemetry.flush()
    label = f"injected {spec.kind} at {site}" + (f" [{key}]" if key else "")
    if spec.kind == "io-error":
        raise InjectedIOError(label)
    if spec.kind == "error":
        raise InjectedTaskError(label)
    if spec.kind == "slow":
        time.sleep(spec.delay)
        return payload
    if spec.kind == "crash":
        if _IN_WORKER:
            os._exit(43)
        raise WorkerCrash(label)
    if payload is None:
        # A payload kind at a non-payload call: surface as IO error
        # rather than silently doing nothing.
        raise InjectedIOError(label + " (no payload to mutate)")
    if spec.kind == "truncate":
        return payload[:len(payload) // 2]
    # corrupt: flip one deterministic bit.
    roll = active._roll(site, key, -1, active.fired)
    return _flip_bit(payload, roll)


__all__ = ["SITES", "KINDS", "FaultSpec", "FaultPlan", "ActiveFaults",
           "install", "ensure", "advance_epoch", "mark_worker",
           "inject", "active_plan", "fired_count", "FaultInjected"]
