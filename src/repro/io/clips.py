"""Bulk clip-library persistence (compressed ``.npz``)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

__all__ = ["save_clips", "load_clips"]


def save_clips(
    path: "str | Path", clips: list[np.ndarray], *, meta: dict | None = None
) -> Path:
    """Save a clip list (uniform shape) with optional JSON metadata.

    The archive is written atomically — to a temporary sibling first,
    fsynced, then renamed over the destination — so a crash mid-write
    (power loss, kill -9) leaves either the previous archive or none,
    never a torn one.  Like ``np.savez``, a ``path`` without a ``.npz``
    suffix gets one appended; the return value is ``path`` as given.
    """
    if not clips:
        raise ValueError("refusing to save an empty clip library")
    stack = np.stack([np.asarray(c, dtype=np.uint8) for c in clips])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    target = path if str(path).endswith(".npz") else path.with_name(path.name + ".npz")
    tmp = target.with_name(f".tmp-{os.getpid()}-{target.name}")
    try:
        with open(tmp, "wb") as handle:
            np.savez_compressed(
                handle,
                clips=np.packbits(stack, axis=-1),
                shape=np.asarray(stack.shape, dtype=np.int64),
                meta=np.frombuffer(
                    json.dumps(meta or {}).encode("utf-8"), dtype=np.uint8
                ),
            )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_clips(path: "str | Path") -> tuple[list[np.ndarray], dict]:
    """Load a clip library saved by :func:`save_clips`."""
    # np.load hands a file it opened to NpzFile before parsing the zip, so a
    # torn archive (``BadZipFile``) would leak it: open the file here.
    with open(path, "rb") as handle, np.load(handle) as archive:
        shape = tuple(int(v) for v in archive["shape"])
        packed = archive["clips"]
        meta_raw = archive["meta"].tobytes() if "meta" in archive else b"{}"
    unpacked = np.unpackbits(packed, axis=-1, count=shape[-1])
    stack = unpacked.reshape(shape).astype(np.uint8)
    return [stack[i] for i in range(shape[0])], json.loads(meta_raw.decode("utf-8"))
