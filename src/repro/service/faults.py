"""Deterministic fault injection for the serving stack.

Recovery code that is only exercised by real outages is recovery code
that does not work.  This module turns failures into a reproducible
input: a :class:`FaultPlan` names *sites* in the request path and the
occurrence at which each should misbehave, e.g.::

    model:raise@2,snapshot:torn@1

reads "the 2nd model stage raises, the 1st snapshot write is torn".
Sites count their own invocations process-wide, so a plan is
deterministic for a fixed call sequence — which the chaos suite
(``tests/service/test_faults.py``) relies on to assert byte-exact
recovery.

Sites wired through the stack:

``model``
    top of :meth:`repro.engine.BatchExecutor.execute` (per-request model
    stage) and of :meth:`~repro.engine.BatchExecutor.run_model_packed`
    (a micro-batch's packed model stage, one firing per attempt);
    action ``raise``.
``drc``
    top of :meth:`repro.engine.BatchExecutor.check_batch`; ``raise``.
``admit``
    the commit stage's admission, inside
    :class:`~repro.service.GenerationService`; ``raise``.
``snapshot``
    :func:`repro.library.save_library`; ``torn`` promotes a truncated
    shard file (a kill -9 mid-write), ``crash`` dies before the manifest
    promotion, ``raise`` fails before writing anything.
``fleet``
    a fleet worker process's submit path
    (:mod:`repro.service.fleet`); ``kill`` makes the worker die with
    ``os._exit`` — the whole-process crash the front's dead-worker
    detection, in-flight failure and respawn machinery exist for
    (``raise`` also works and is recovered like any submit error).
    Respawned workers strip ``fleet``-site specs from the inherited
    plan (:func:`reset_faults_for_worker`), so a kill schedule crashes
    each worker at most once instead of crash-looping the respawn.

Plans install programmatically (:func:`install_faults` /
:func:`clear_faults`) or from the environment: ``$REPRO_FAULTS`` is
parsed at import, which is how the CI chaos job runs the whole service
suite under an injection schedule.  An injected ``raise`` throws
:class:`InjectedFault`, a :class:`~repro.engine.retry.TransientError`
subclass — i.e. exactly the kind of error the service's
:class:`~repro.engine.retry.RetryPolicy` retries.

Plans carry a *scope*.  ``scope="all"`` (the programmatic default)
fires at every site call — the chaos suite uses it to hit bare engine
and library paths directly.  ``scope="protected"`` (the env-autoload
default) fires only inside a :func:`protected` region — the service
marks its retry-covered stages with it — so an
environment schedule injects faults precisely where the serving stack
claims to recover, and never into plain ``run_generation`` reference
runs whose contract is to propagate errors.  Unprotected calls do not
advance a protected plan's occurrence counters, keeping schedules
deterministic over the *protected* call sequence.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass

from ..engine.retry import TransientError

__all__ = [
    "FAULT_ACTIONS",
    "FAULT_SITES",
    "FAULTS_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "clear_faults",
    "injection_stats",
    "install_faults",
    "maybe_fire",
    "protected",
    "reset_faults_for_worker",
]

#: Environment variable holding a fault plan, parsed at import.
FAULTS_ENV = "REPRO_FAULTS"

FAULT_SITES = ("model", "drc", "admit", "snapshot", "fleet")
FAULT_ACTIONS = ("raise", "crash", "torn", "kill")


class InjectedFault(TransientError):
    """Raised at a ``raise``-action site (retryable by construction)."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection: at ``site``'s ``occurrence``-th call, do ``action``."""

    site: str
    action: str
    occurrence: int = 1

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; sites: {FAULT_SITES}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"actions: {FAULT_ACTIONS}"
            )
        if not isinstance(self.occurrence, int) or self.occurrence < 1:
            raise ValueError("occurrence must be a positive integer")

    def __str__(self) -> str:
        return f"{self.site}:{self.action}@{self.occurrence}"


class FaultPlan:
    """An ordered set of :class:`FaultSpec`\\ s (parse or build directly)."""

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]" = ()):
        self.specs = tuple(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``site:action@occurrence`` entries, comma-separated.

        ``@occurrence`` defaults to 1 (the site's first call).  Empty
        entries are skipped, so a trailing comma is harmless.
        """
        specs: list[FaultSpec] = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            site, sep, rest = part.partition(":")
            if not sep or not rest:
                raise ValueError(
                    f"bad fault entry {part!r} (want site:action[@n])"
                )
            action, sep, occurrence = rest.partition("@")
            try:
                nth = int(occurrence) if sep else 1
            except ValueError:
                raise ValueError(
                    f"bad fault occurrence {occurrence!r} in {part!r}"
                ) from None
            specs.append(FaultSpec(site.strip(), action.strip(), nth))
        return cls(specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({','.join(str(s) for s in self.specs)!r})"


_PROTECTED = threading.local()


@contextlib.contextmanager
def protected():
    """Mark the enclosed calls as recovery-covered (thread-scoped).

    The service wraps its retried/supervised stage executions in this;
    a plan installed with ``scope="protected"`` only fires inside.
    Regions nest; the mark does not cross threads (each worker thread
    entering a covered stage takes its own region).
    """
    depth = getattr(_PROTECTED, "depth", 0)
    _PROTECTED.depth = depth + 1
    try:
        yield
    finally:
        _PROTECTED.depth = depth


def _in_protected_region() -> bool:
    return getattr(_PROTECTED, "depth", 0) > 0


class _Injector:
    """Counts site calls and hands out the planned actions (thread-safe)."""

    def __init__(self, plan: FaultPlan, scope: str = "all"):
        self.plan = plan
        self.scope = scope
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._pending: dict[tuple[str, int], str] = {}
        for spec in plan:
            # First spec wins when two name the same (site, occurrence).
            self._pending.setdefault((spec.site, spec.occurrence), spec.action)
        self.fired: list[FaultSpec] = []

    def fire(self, site: str) -> "str | None":
        with self._lock:
            count = self._calls.get(site, 0) + 1
            self._calls[site] = count
            action = self._pending.pop((site, count), None)
            if action is not None:
                self.fired.append(FaultSpec(site, action, count))
            return action

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "installed": True,
                "scope": self.scope,
                "plan": [str(s) for s in self.plan],
                "calls": dict(self._calls),
                "fired": [str(s) for s in self.fired],
                "pending": len(self._pending),
            }


_INSTALL_LOCK = threading.Lock()
_INJECTOR: "_Injector | None" = None


def install_faults(
    plan: "FaultPlan | str | None", *, scope: str = "all"
) -> "FaultPlan | None":
    """Install a fault plan (string form is parsed); ``None`` clears.

    Replaces any active plan — occurrence counters restart from zero.
    ``scope="all"`` fires at every site call; ``scope="protected"``
    fires (and counts) only inside :func:`protected` regions.  Returns
    the installed plan.
    """
    global _INJECTOR
    if scope not in ("all", "protected"):
        raise ValueError(
            f"unknown fault scope {scope!r}; scopes: ('all', 'protected')"
        )
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    with _INSTALL_LOCK:
        _INJECTOR = (
            _Injector(plan, scope)
            if plan is not None and len(plan) else None
        )
    return plan


def clear_faults() -> None:
    """Remove the active fault plan (sites all become no-ops again)."""
    install_faults(None)


def reset_faults_for_worker(*, drop_sites: "tuple[str, ...]" = ()) -> None:
    """Reinstall the active plan with fresh counters (same scope).

    Called in a freshly forked fleet worker's bootstrap: the child
    inherits the parent's injector *mid-count*, so without a reset a
    worker's fault schedule would depend on how many site calls the
    parent had already made — non-deterministic across runs.  Restarting
    the occurrence counters makes every worker see the plan from zero.

    ``drop_sites`` removes whole sites from the reinstalled plan; a
    respawned worker passes ``("fleet",)`` so a ``fleet:kill`` schedule
    crashes each worker slot once rather than killing every respawn.
    """
    with _INSTALL_LOCK:
        injector = _INJECTOR
    if injector is None:
        return
    specs = [
        spec for spec in injector.plan if spec.site not in drop_sites
    ]
    install_faults(FaultPlan(specs), scope=injector.scope)


def active_plan() -> "FaultPlan | None":
    """The installed plan, or ``None``."""
    injector = _INJECTOR
    return injector.plan if injector is not None else None


def injection_stats() -> dict:
    """Telemetry for the ``op: "stats"`` verb: plan, per-site call counts,
    which specs fired.  ``{"installed": False}`` without a plan."""
    injector = _INJECTOR
    if injector is None:
        return {"installed": False, "fired": []}
    return injector.snapshot()


def maybe_fire(site: str) -> "str | None":
    """The site hook: count this call; fire the planned action, if any.

    A planned ``raise`` action raises :class:`InjectedFault` here; other
    actions (``crash``, ``torn``) are returned for the site to interpret
    (the site knows how its own failure mode looks).  Without a plan
    this is one global read and a ``None`` — cheap enough for hot paths.
    """
    injector = _INJECTOR
    if injector is None:
        return None
    if injector.scope == "protected" and not _in_protected_region():
        return None
    action = injector.fire(site)
    if action == "raise":
        raise InjectedFault(f"injected fault at site {site!r}")
    return action


# Environment autoload: lets CI (and operators) chaos-test any workload
# without touching its code — REPRO_FAULTS=model:raise@2 pytest ...
# Env plans are scoped to the service's recovery-covered regions, so a
# schedule exercises the retry/supervision machinery without breaking
# bare engine paths whose contract is to propagate errors.
_env_plan = os.environ.get(FAULTS_ENV)
if _env_plan and _env_plan.strip():
    install_faults(_env_plan, scope="protected")
del _env_plan
