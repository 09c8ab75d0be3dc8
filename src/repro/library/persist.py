"""Snapshot persistence for the library store.

A saved library is a directory::

    library.json             # manifest: name, shard count, clip count,
                             # generation number, shard files
    library.prev.json        # the previous generation's manifest
    shard-000002-0000.npz    # repro.io clip archive + sequence/hash meta

Each save writes one shard file per generation, with
:func:`repro.io.clips.save_clips`, so it is itself a valid clip archive
readable by ``repro drc`` / ``repro render``.  Per-clip sequence numbers
and content digests ride in its metadata.  The loader reads every file a
manifest lists and orders clips by sequence number, so snapshots that
older versions wrote across several hash-prefix shard files still load,
in their original order.  Loading re-admits the clips into a fresh
store with one batched ``admit_many``, which re-hashes them; reading
the archive costs more than that.

Snapshots merge deterministically (:func:`merge_libraries`): the first
source's store, then each later source's clips admitted in its own
insertion order, so later sources contribute only patterns not yet seen.

Snapshots are **crash-safe and generational**.  Every save writes a new
generation's shard file (atomically: tmp + fsync + rename), then
promotes the old manifest to ``library.prev.json`` and atomically
replaces ``library.json``; only after the new manifest is durable are
the now-unreferenced older shard files pruned.  A crash at any point —
including kill -9 mid shard write — therefore leaves either the new
generation complete or the previous one intact, and
:func:`load_library` falls back to the previous manifest when the
current generation will not load (torn shard, corrupt manifest).  At
most the single incomplete generation is ever lost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..io.clips import load_clips, save_clips
from .store import InMemoryStore

__all__ = [
    "MANIFEST_NAME",
    "PREVIOUS_MANIFEST_NAME",
    "ensure_snapshot_target",
    "save_library",
    "load_library",
    "merge_libraries",
    "is_library_dir",
    "snapshot_count",
]

MANIFEST_NAME = "library.json"
PREVIOUS_MANIFEST_NAME = "library.prev.json"
_FORMAT = 1


def _fault_action(site: str) -> "str | None":
    """Consult the fault-injection harness (lazy import; see executor.py)."""
    try:
        from ..service.faults import maybe_fire
    except ImportError:  # pragma: no cover - service layer not installed
        return None
    return maybe_fire(site)


def _shard_filename(generation: int, shard: int) -> str:
    return f"shard-{generation:06d}-{shard:04d}.npz"


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` durably: tmp sibling + fsync + rename + dir fsync."""
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    try:
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def _read_manifest(path: Path) -> "dict | None":
    """Parse a manifest file; ``None`` when missing or unparseable."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def _generation_of(manifest: "dict | None") -> int:
    if manifest is None:
        return 0
    try:
        return int(manifest.get("generation", 0))
    except (TypeError, ValueError):
        return 0


def is_library_dir(path: "str | Path") -> bool:
    """True when ``path`` holds a saved library snapshot (any generation)."""
    path = Path(path)
    return (path / MANIFEST_NAME).is_file() or (
        path / PREVIOUS_MANIFEST_NAME
    ).is_file()


def ensure_snapshot_target(path: "str | Path") -> Path:
    """Validate that ``path`` can receive a snapshot; raises ``ValueError``.

    Callers that will save only after expensive work (e.g. the CLI's
    ``generate --library-dir``) use this to fail before that work starts.
    Refuses a non-directory, and a directory that contains shard-like
    files but no manifest (it is not ours).
    """
    path = Path(path)
    if path.exists():
        if not path.is_dir():
            raise ValueError(f"{path} exists and is not a directory")
        if any(path.glob("shard-*.npz")) and not is_library_dir(path):
            raise ValueError(
                f"{path} holds shard files but no {MANIFEST_NAME}; refusing "
                "to overwrite a directory this module did not write"
            )
    return path


def snapshot_count(path: "str | Path") -> int:
    """Clip count promised by a snapshot's manifest (no shard loading)."""
    manifest = json.loads((Path(path) / MANIFEST_NAME).read_text())
    return int(manifest.get("count", 0))


def _prune_stale_files(path: Path) -> None:
    """Delete shard files no manifest references, and orphaned tmp files.

    Runs only after the new manifest is durable, so a crash before this
    point merely leaves extra files (reclaimed by the next save) — it
    never costs data.
    """
    referenced: set[str] = set()
    for name in (MANIFEST_NAME, PREVIOUS_MANIFEST_NAME):
        manifest = _read_manifest(path / name)
        if manifest is not None:
            shards = manifest.get("shards", {})
            if isinstance(shards, dict):
                referenced.update(str(filename) for filename in shards)
    for file in path.glob("shard-*.npz"):
        if file.name not in referenced:
            file.unlink(missing_ok=True)
    for file in path.glob(".tmp-*"):
        file.unlink(missing_ok=True)


def save_library(store: InMemoryStore, path: "str | Path") -> Path:
    """Write a store's contents as a new snapshot generation at ``path``.

    The generation is one shard file.  An existing snapshot at ``path``
    is superseded, its manifest kept as ``library.prev.json`` for one
    generation of load-time fallback (see
    :func:`ensure_snapshot_target` for what is refused).  All writes are
    atomic and the previous generation's files are only pruned after the
    new manifest is durable, so a crash anywhere inside this call leaves
    a loadable snapshot behind.
    """
    path = ensure_snapshot_target(path)
    path.mkdir(parents=True, exist_ok=True)

    manifest_path = path / MANIFEST_NAME
    current = _read_manifest(manifest_path)
    if current is None and not manifest_path.exists():
        # Bootstrap stub: shard files must never exist without a
        # manifest (ensure_snapshot_target would refuse the directory
        # after a crash mid first save).  Generation 0 marks it as
        # holding nothing worth promoting to a fallback.
        current = {
            "format": _FORMAT,
            "name": store.name,
            "num_shards": 1,
            "count": 0,
            "generation": 0,
            "shards": {},
        }
        _atomic_write_text(
            manifest_path, json.dumps(current, indent=2) + "\n"
        )
    previous = _read_manifest(path / PREVIOUS_MANIFEST_NAME)
    generation = 1 + max(_generation_of(current), _generation_of(previous))

    # Chaos hook: "raise" aborts here (nothing written), "crash" dies
    # after the shard writes but before the manifest promotion, "torn"
    # truncates a freshly-written shard — the kill -9 cases the
    # generational fallback exists for.
    action = _fault_action("snapshot")

    shard_files: dict[str, int] = {}
    if len(store):
        filename = _shard_filename(generation, 0)
        hashes, clips = zip(*store.items())
        # The shard/hash metadata keeps the file loadable by older
        # versions, which partitioned snapshots by hash prefix.
        save_clips(
            path / filename,
            list(clips),
            meta={
                "shard": 0,
                "num_shards": 1,
                "sequence": list(range(len(clips))),
                "hashes": list(hashes),
            },
        )
        shard_files[filename] = len(clips)

    if action == "crash":
        from ..service.faults import InjectedFault

        raise InjectedFault(
            f"injected crash before manifest promotion (generation "
            f"{generation})"
        )
    if action == "torn" and shard_files:
        # Truncate the first shard in place: the manifest below will
        # promise a generation whose data cannot load, exactly like a
        # kill -9 on a filesystem that reordered the writes.
        torn = path / next(iter(shard_files))
        data = torn.read_bytes()
        torn.write_bytes(data[: max(1, len(data) // 2)])

    manifest = {
        "format": _FORMAT,
        "name": store.name,
        "num_shards": 1,
        "count": len(store),
        "generation": generation,
        "shards": shard_files,
    }
    if _generation_of(current) > 0:
        _atomic_write_text(
            path / PREVIOUS_MANIFEST_NAME, json.dumps(current, indent=2) + "\n"
        )
    _atomic_write_text(manifest_path, json.dumps(manifest, indent=2) + "\n")
    if action == "torn":
        from ..service.faults import InjectedFault

        raise InjectedFault(
            f"injected torn shard write (generation {generation})"
        )
    _prune_stale_files(path)
    return path


def _load_clips(
    path: Path, manifest_name: str = MANIFEST_NAME
) -> tuple[dict, list[np.ndarray]]:
    """Manifest plus the snapshot's clips in insertion (sequence) order."""
    manifest_path = path / manifest_name
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no {manifest_name} under {path}")
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("format") != _FORMAT:
        raise ValueError(f"unsupported library format {manifest.get('format')!r}")
    entries: list[tuple[int, np.ndarray]] = []
    for filename in manifest.get("shards", {}):
        clips, meta = load_clips(path / filename)
        entries.extend(zip(meta["sequence"], clips))
    entries.sort(key=lambda entry: entry[0])
    if len(entries) != manifest.get("count", len(entries)):
        raise ValueError(
            f"{path}: manifest promises {manifest['count']} clips, "
            f"shards hold {len(entries)}"
        )
    return manifest, [clip for _, clip in entries]


def _load_snapshot(path: "str | Path") -> tuple[dict, list[np.ndarray]]:
    """Manifest and ordered clips of the newest generation that loads.

    When the current generation will not load — a torn shard file from a
    crash mid-checkpoint, a corrupt or lying manifest — and a previous
    generation's manifest exists, that generation is loaded instead.
    Only when every candidate fails does the *current* generation's
    error propagate (``FileNotFoundError`` when no manifest exists at
    all).
    """
    path = Path(path)
    errors: list[Exception] = []
    for manifest_name in (MANIFEST_NAME, PREVIOUS_MANIFEST_NAME):
        if not (path / manifest_name).is_file():
            continue
        try:
            return _load_clips(path, manifest_name)
        except Exception as error:
            errors.append(error)
    if errors:
        raise errors[0]
    raise FileNotFoundError(f"no {MANIFEST_NAME} under {path}")


def load_library(path: "str | Path", *, name: str | None = None) -> InMemoryStore:
    """Rebuild a store from a snapshot, preserving insertion order.

    The clips are re-admitted in sequence order, so a snapshot written in
    one file or (by older versions) across several shard files loads the
    same library.  Falls back to the previous generation when the
    current one will not load (see :func:`_load_snapshot`).
    """
    manifest, clips = _load_snapshot(path)
    store = InMemoryStore(name=name or manifest.get("name", "library"))
    store.admit_many(clips)
    return store


def merge_libraries(
    sources: "list[str | Path]", *, name: str = "merged"
) -> InMemoryStore:
    """Merge snapshot directories into one store, deterministically.

    The first source's store is the base; each later source's clips are
    admitted in that source's insertion order, so only not-yet-seen
    patterns are appended.  The result is therefore identical for a
    fixed source list regardless of where each snapshot was produced.
    """
    if not sources:
        raise ValueError("need at least one source library")
    merged = load_library(sources[0], name=name)
    for source in sources[1:]:
        merged.admit_many(_load_snapshot(source)[1])
    return merged
