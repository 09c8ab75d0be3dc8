"""Session-scoped library stores for the generation service.

A *session* decides where a request's admitted patterns go and who they
dedup against:

* requests submitted **without** a session get a fresh per-request store,
  exactly like a one-shot :func:`repro.engine.run_generation` call;
* requests submitted **with** a session id share that session's store —
  every client in the session dedups against one growing population.

Sessions are tenant-shaped: :class:`SessionManager` materialises a store
per session id on first use.  When a ``snapshot_root`` is configured,
each session loads its store from ``<snapshot_root>/<session_id>`` if a
:mod:`repro.library` snapshot exists there (per-tenant snapshot-loaded
stores), and :meth:`Session.checkpoint` / ``checkpoint_every`` write the
grown store back with :func:`repro.library.save_library` between batches,
so a crashed or restarted service resumes from the last checkpoint.

Admission itself happens on the service's compute thread, one request
at a time in global arrival order — see
:meth:`repro.service.GenerationService._serve_window` — which is what
makes a session's final store deterministic for a fixed submission
order, and leaves that thread the only one that touches a session store.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from pathlib import Path

from ..core.library import PatternLibrary
from ..library import LibraryStore, is_library_dir, load_library, save_library

__all__ = ["SessionConfig", "Session", "SessionManager", "SHARED_SESSION"]

#: Conventional id for the one store every client may share.
SHARED_SESSION = "shared"

_SESSION_ID = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class SessionConfig:
    """How session stores are built and persisted.

    ``snapshot_root`` enables persistence: each session loads from / checkpoints to its own
    subdirectory.  ``checkpoint_every`` is the number of merged request
    batches between automatic :func:`~repro.library.save_library` calls
    (0 disables periodic checkpoints; a final checkpoint still happens at
    service shutdown when a snapshot root is set).
    """

    snapshot_root: "str | Path | None" = None
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")


class Session:
    """One client scope: a library store plus checkpoint bookkeeping."""

    def __init__(
        self,
        session_id: str,
        store: LibraryStore,
        *,
        snapshot_dir: "str | Path | None" = None,
        checkpoint_every: int = 0,
    ):
        self.session_id = session_id
        self.store = store
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir else None
        self.checkpoint_every = checkpoint_every
        self.merged_batches = 0
        self.checkpoints = 0
        self.last_checkpoint_error: Exception | None = None

    def record_batch(self) -> "Path | None":
        """Count one merged request batch; checkpoint on the interval.

        Called by the service after each request's admissions are merged
        into the store, i.e. checkpoints land *between* batches, never in
        the middle of one.  Checkpoint failures are recorded (the store
        itself is intact) rather than failing the request that happened
        to cross the interval.
        """
        self.merged_batches += 1
        due = (
            self.snapshot_dir is not None
            and self.checkpoint_every > 0
            and self.merged_batches % self.checkpoint_every == 0
        )
        if not due:
            return None
        try:
            return self.checkpoint()
        except Exception as error:  # noqa: BLE001 - recorded, not raised
            self.last_checkpoint_error = error
            return None

    def checkpoint(self) -> Path:
        """Write the session store to its snapshot directory now."""
        if self.snapshot_dir is None:
            raise ValueError(
                f"session {self.session_id!r} has no snapshot directory"
            )
        save_library(self.store, self.snapshot_dir)
        self.checkpoints += 1
        self.last_checkpoint_error = None
        return self.snapshot_dir


class SessionManager:
    """Materialises and tracks sessions by id (thread-safe)."""

    def __init__(self, config: SessionConfig | None = None):
        self.config = config or SessionConfig()
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        #: Sessions whose snapshot could not be loaded and started cold
        #: instead (every load attempt — current and previous manifest —
        #: failed).  Exported via ``op: "health"``.
        self.load_fallbacks = 0

    @staticmethod
    def validate_id(session_id: str) -> str:
        """Check a session id's syntax without materialising the session.

        Cheap enough for the submit path; the store itself (and any
        snapshot load) is built lazily on the service's worker thread.
        """
        if not isinstance(session_id, str) or not _SESSION_ID.fullmatch(
            session_id
        ):
            raise ValueError(
                f"invalid session id {session_id!r} (use letters, digits, "
                "'.', '_', '-'; must not start with a separator)"
            )
        return session_id

    def get(self, session_id: str) -> Session:
        """The session for ``session_id``, created on first use.

        First use loads the session's snapshot when one exists under the
        configured ``snapshot_root`` (cross-restart dedup); otherwise the
        session starts from an empty store.
        """
        self.validate_id(session_id)
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                session = self._create(session_id)
                self._sessions[session_id] = session
            return session

    def _create(self, session_id: str) -> Session:
        cfg = self.config
        snapshot_dir = None
        store: LibraryStore | None = None
        if cfg.snapshot_root is not None:
            snapshot_dir = Path(cfg.snapshot_root) / session_id
        if snapshot_dir is not None and is_library_dir(snapshot_dir):
            try:
                store = load_library(snapshot_dir, name=session_id)
            except Exception:  # noqa: BLE001 - cold start beats crash
                # Both the current and the previous-generation
                # manifest failed to load (torn beyond the last good
                # snapshot).  Serving an empty session is strictly
                # better than refusing to serve the tenant at all.
                self.load_fallbacks += 1
        if store is None:
            store = PatternLibrary(name=session_id)
        return Session(
            session_id,
            store,
            snapshot_dir=snapshot_dir,
            checkpoint_every=cfg.checkpoint_every,
        )

    def sessions(self) -> list[Session]:
        """Live sessions, in creation order."""
        with self._lock:
            return list(self._sessions.values())

    def checkpoint_all(self) -> list[Path]:
        """Checkpoint every session that has a snapshot directory.

        One session's write failure is recorded on that session
        (``last_checkpoint_error``) rather than raised, so a bad disk for
        one tenant never blocks the others' checkpoints — or, at service
        shutdown, the executor/backend teardown that follows.
        """
        written = []
        for session in self.sessions():
            if session.snapshot_dir is None:
                continue
            try:
                written.append(session.checkpoint())
            except Exception as error:  # noqa: BLE001 - recorded per session
                session.last_checkpoint_error = error
        return written
