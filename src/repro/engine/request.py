"""Work units of the generation engine.

A :class:`GenerationRequest` describes *what* to generate — which backend,
how many attempts, under which deck, from which templates/masks and seed —
without saying anything about *how* (batching and caching live in
:class:`~repro.engine.executor.BatchExecutor`).  Backends answer a request
with a :class:`CandidateBatch` of raw proposals, and the executor turns
that into a :class:`GenerationBatch`: validated clips, a legality mask, a
deduplicated library and per-stage wall-clock timings.

Requests are also the unit the async service layer queues and coalesces:
every request carries a unique ``request_id``, a scheduling ``priority``
and a :meth:`~GenerationRequest.compatibility_key` — requests with equal
keys (same backend, deck and clip shape) may share one micro-batch in
:class:`repro.service.GenerationService`.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..drc.decks import RuleDeck
    from ..library import LibraryStore

__all__ = [
    "GenerationRequest",
    "CandidateBatch",
    "StageTimings",
    "GenerationBatch",
    "deck_key",
]


def deck_key(deck: "RuleDeck | None") -> tuple | None:
    """Hashable identity of a rule deck: geometry *and* rule content.

    The single definition of deck equality used by
    :meth:`GenerationRequest.compatibility_key` and by the service's
    per-deck executor map — two decks that merely share a name can never
    trade DRC verdicts or warm executors.
    """
    if deck is None:
        return None
    grid = deck.grid
    return (
        deck.name, grid.nm_per_px, grid.width_px, grid.height_px,
        repr(deck.rules),
    )


@dataclass(frozen=True)
class GenerationRequest:
    """One generation job, backend-agnostic.

    ``count`` is the number of *attempts*; backends that legalize
    internally (solver-based baselines) may propose fewer candidates.
    ``templates``/``masks`` seed inpainting-style backends and are ignored
    by the others; ``params`` carries backend-specific knobs.

    Three fields exist for the service layer.  ``request_id`` uniquely
    identifies the request end to end — queue entries and streamed wire
    events key on it (a fresh id is generated when not supplied, and a
    service refuses an id that is still in flight); inside
    a packed model stage, chunks are attributed by the request's
    *position* in its micro-batch plus the chunk index, with every rng
    child spawned from the request's own seeded stream.  ``priority``
    orders whole micro-batches
    in the scheduler: higher runs first, ties keep arrival order, and
    priority never reorders requests *inside* a batch.  Neither affects
    the generated patterns, which depend only on the seed and the
    generation parameters.  :meth:`compatibility_key` is the coalescing
    and packing boundary: only requests with equal keys (same backend,
    deck geometry *and* rule content, clip shape, params) may share a
    micro-batch and its packed model batches — requests that differ in
    any of those can never be served by one model invocation.

    Validation happens at construction: a non-positive ``count`` or a
    backend name that is not in the registry raises ``ValueError`` here,
    with the registered names in the message, instead of failing deep
    inside the executor.
    """

    backend: str
    count: int
    seed: int = 0
    deck: "RuleDeck | None" = None
    templates: tuple[np.ndarray, ...] | None = None
    masks: tuple[np.ndarray, ...] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    priority: int = 0
    request_id: str = ""
    #: Service-level deadline in seconds from submission, or ``None``
    #: for no deadline.  The service drops an expired request at the
    #: next stage boundary with a ``DeadlineExceeded`` error; like
    #: ``priority``/``request_id`` it never affects generated patterns
    #: and does not participate in :meth:`compatibility_key`.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ValueError("backend must be a non-empty string")
        # Late import: the registry imports this module at load time.
        from .registry import is_registered, list_backends

        if not is_registered(self.backend):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"registered: {list_backends()}"
            )
        if not isinstance(self.count, int) or self.count <= 0:
            raise ValueError(
                f"count must be a positive integer, got {self.count!r}"
            )
        if self.templates is not None:
            if len(self.templates) == 0:
                raise ValueError("templates must be non-empty when given")
            object.__setattr__(self, "templates", tuple(self.templates))
        if self.masks is not None:
            if len(self.masks) == 0:
                raise ValueError("masks must be non-empty when given")
            object.__setattr__(self, "masks", tuple(self.masks))
        if self.deadline_s is not None:
            if (
                isinstance(self.deadline_s, bool)
                or not isinstance(self.deadline_s, (int, float))
                or not np.isfinite(self.deadline_s)
                or self.deadline_s <= 0
            ):
                raise ValueError(
                    f"deadline_s must be a positive number of seconds, "
                    f"got {self.deadline_s!r}"
                )
            object.__setattr__(self, "deadline_s", float(self.deadline_s))
        if not self.request_id:
            object.__setattr__(self, "request_id", uuid.uuid4().hex[:12])

    def rng(self) -> np.random.Generator:
        """The request's root random generator."""
        return np.random.default_rng(self.seed)

    @property
    def clip_shape(self) -> tuple[int, ...] | None:
        """(H, W) implied by the request's templates, if any were given."""
        if self.templates:
            return tuple(np.asarray(self.templates[0]).shape)
        return None

    def compatibility_key(self) -> tuple:
        """Hashable coalescing key: equal keys may share a micro-batch.

        Two requests are compatible when they name the same backend, run
        under the same deck — geometry *and* rule content, so two decks
        that merely share a name can never trade DRC verdicts — and imply
        the same clip shape with the same backend params; i.e. they can
        be served by one shared backend instance and one warm executor.
        Seed, count, priority and id deliberately do not participate:
        those vary per client.
        """
        params_key = tuple(
            sorted((str(k), repr(v)) for k, v in self.params.items())
        )
        return (self.backend, deck_key(self.deck), self.clip_shape, params_key)


@dataclass
class CandidateBatch:
    """What a backend proposes for a request, before post-processing.

    ``raws`` may be float model outputs (paired with their ``templates``
    for template denoising) or already-binary clips (``templates`` entry
    ``None``; the executor only validates and DRC-checks them).
    ``attempts`` counts generation attempts, which can exceed
    ``len(raws)`` for backends whose legalization step already rejects.
    """

    raws: list[np.ndarray]
    templates: list[np.ndarray | None]
    attempts: int
    generate_seconds: float = 0.0

    def __post_init__(self) -> None:
        if len(self.raws) != len(self.templates):
            raise ValueError("raws and templates must pair up")
        if self.attempts < len(self.raws):
            raise ValueError("attempts cannot be fewer than proposed raws")

    @classmethod
    def from_clips(
        cls, clips: list[np.ndarray], *, attempts: int, generate_seconds: float = 0.0
    ) -> "CandidateBatch":
        """A proposal of ready-made binary clips (no denoise template)."""
        return cls(
            raws=list(clips),
            templates=[None] * len(clips),
            attempts=attempts,
            generate_seconds=generate_seconds,
        )


@dataclass
class StageTimings:
    """Wall-clock seconds per engine stage."""

    generate_seconds: float = 0.0
    denoise_seconds: float = 0.0
    drc_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.generate_seconds + self.denoise_seconds + self.drc_seconds

    def add(self, other: "StageTimings") -> None:
        self.generate_seconds += other.generate_seconds
        self.denoise_seconds += other.denoise_seconds
        self.drc_seconds += other.drc_seconds


@dataclass
class GenerationBatch:
    """Executor output: post-processed candidates plus accounting.

    ``clips`` are all validated candidates in proposal order, ``legal``
    the per-clip DRC verdict, ``library`` the store the clean+new clips
    were admitted to (it may have been pre-populated by the caller),
    ``admitted`` how many clips *this* run added to it, and
    ``library_size`` the store's length right after this run's
    admission.  A batch that crossed a fleet worker's pipe carries
    ``library=None``: the session store stays in the worker, and
    ``library_size`` is what the front reports.
    """

    request: GenerationRequest
    backend: str
    clips: list[np.ndarray]
    legal: np.ndarray
    library: "LibraryStore | None"
    attempts: int
    timings: StageTimings = field(default_factory=StageTimings)
    admitted: int = 0
    library_size: int = 0

    @property
    def legal_clips(self) -> list[np.ndarray]:
        """Legal candidates in proposal order (duplicates retained)."""
        return [clip for clip, ok in zip(self.clips, self.legal) if ok]

    @property
    def legal_count(self) -> int:
        return int(self.legal.sum())

    @property
    def legality_rate(self) -> float:
        return self.legal_count / self.attempts if self.attempts else 0.0

    @property
    def seconds_per_sample(self) -> float:
        return self.timings.total_seconds / max(self.attempts, 1)
