"""Clip payload codec for the wire protocols (TCP line-JSON + HTTP).

The service's wire fronts historically streamed *accounting* only; this
module is what lets them deliver the clips themselves.  A payload is a
list of numpy arrays serialized to one base64 text block plus a small
JSON metadata dict, in one of two encodings:

``b64``
    The arrays' raw bytes, concatenated in order, base64-encoded.  Cheap
    to produce, ~4/3 the raw size on the wire.
``npz``
    A deterministic ``.npz`` archive (zip of ``.npy`` members with a
    pinned timestamp, so equal arrays always produce equal bytes) —
    zlib-compressed, so binary clips typically shrink well below raw
    size.  Loadable by ``numpy.load`` directly.

Metadata records per-array dtype (``numpy`` dtype strings, byte order
included) and shape, so heterogeneous batches round-trip exactly.

Because the line-JSON protocol bounds one line's size (``serve(...,
limit=...)``), a payload larger than a line is *paged*: the parent
event carries the metadata (including the page count), then the data
travels as ``payload_page`` continuation frames followed by one
``payload_done`` frame.  :func:`payload_frames` produces that frame
sequence and :class:`PayloadAssembler` reverses it client-side;
:func:`encode_payload` → :func:`split_pages` → reassembly →
:func:`decode_payload` is the identity on any array list (property
tests in ``tests/service/test_payload.py``).
"""

from __future__ import annotations

import base64
import hashlib
import io
import zipfile
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PAYLOAD_MODES",
    "PayloadError",
    "AssembledPayload",
    "PayloadAssembler",
    "encode_payload",
    "decode_payload",
    "split_pages",
    "page_data_chars",
    "payload_frames",
]

#: Valid values of the ``payload`` request field.
PAYLOAD_MODES = ("none", "b64", "npz")

#: Headroom reserved for the JSON envelope of one ``payload_page`` frame
#: (event name, request id, kind, sequence number, quotes and commas).
_FRAME_OVERHEAD = 256

#: Pinned zip member timestamp: npz bytes must be a pure function of the
#: array contents, not of when they were encoded (golden fixtures and
#: response caching both rely on it).  1980-01-01 is zip's epoch.
_NPZ_DATE_TIME = (1980, 1, 1, 0, 0, 0)


class PayloadError(ValueError):
    """A payload block or frame sequence that cannot be decoded."""


def _array_meta(array: np.ndarray) -> dict:
    return {"dtype": array.dtype.str, "shape": list(array.shape)}


def _npz_bytes(arrays: list[np.ndarray]) -> bytes:
    """A deterministic npz archive (readable by ``numpy.load``)."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as archive:
        for index, array in enumerate(arrays):
            member = io.BytesIO()
            # ascontiguousarray promotes 0-d to 1-d; reshape restores.
            np.lib.format.write_array(
                member, np.ascontiguousarray(array).reshape(array.shape)
            )
            info = zipfile.ZipInfo(f"arr_{index:05d}.npy", _NPZ_DATE_TIME)
            info.compress_type = zipfile.ZIP_DEFLATED
            archive.writestr(info, member.getvalue())
    return buffer.getvalue()


def encode_payload(
    arrays: "list[np.ndarray]", encoding: str
) -> tuple[dict, str]:
    """Serialize arrays to ``(meta, data)`` — data is base64 text.

    ``meta`` carries the encoding, per-array dtype/shape, the decoded
    byte count and a sha256 of the decoded bytes (verified on
    reassembly, so a dropped or reordered page can never silently
    corrupt a clip).
    """
    if encoding not in ("b64", "npz"):
        raise PayloadError(f"unknown payload encoding {encoding!r}")
    arrays = [np.asarray(a) for a in arrays]
    for array in arrays:
        if array.dtype.hasobject:
            raise PayloadError("object-dtype arrays cannot be encoded")
    if encoding == "b64":
        raw = b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    else:
        raw = _npz_bytes(arrays)
    meta = {
        "encoding": encoding,
        "count": len(arrays),
        "arrays": [_array_meta(a) for a in arrays],
        "bytes": len(raw),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    return meta, base64.b64encode(raw).decode("ascii")


def decode_payload(meta: dict, data: str) -> "list[np.ndarray]":
    """Invert :func:`encode_payload` (raises :class:`PayloadError`)."""
    try:
        encoding = meta["encoding"]
        count = int(meta["count"])
        specs = meta["arrays"]
    except (KeyError, TypeError, ValueError) as error:
        raise PayloadError(f"malformed payload metadata: {error}") from None
    if encoding not in ("b64", "npz"):
        raise PayloadError(f"unknown payload encoding {encoding!r}")
    if not isinstance(specs, list) or len(specs) != count:
        raise PayloadError("payload metadata arrays/count mismatch")
    try:
        raw = base64.b64decode(data.encode("ascii"), validate=True)
    except Exception as error:  # binascii.Error, UnicodeEncodeError
        raise PayloadError(f"payload data is not valid base64: {error}") from None
    expected = meta.get("bytes")
    if expected is not None and len(raw) != expected:
        raise PayloadError(
            f"payload is {len(raw)} bytes, metadata promised {expected}"
        )
    digest = meta.get("sha256")
    if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
        raise PayloadError("payload checksum mismatch")
    if encoding == "npz":
        return _decode_npz(raw, specs)
    return _decode_b64(raw, specs)


def _spec_dtype_shape(spec: dict) -> tuple[np.dtype, tuple]:
    try:
        return np.dtype(spec["dtype"]), tuple(int(d) for d in spec["shape"])
    except (KeyError, TypeError, ValueError) as error:
        raise PayloadError(f"malformed array spec: {error}") from None


def _decode_b64(raw: bytes, specs: list) -> "list[np.ndarray]":
    arrays: list[np.ndarray] = []
    offset = 0
    for spec in specs:
        dtype, shape = _spec_dtype_shape(spec)
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = size * dtype.itemsize
        block = raw[offset : offset + nbytes]
        if len(block) != nbytes:
            raise PayloadError("payload truncated relative to array specs")
        arrays.append(np.frombuffer(block, dtype=dtype).reshape(shape).copy())
        offset += nbytes
    if offset != len(raw):
        raise PayloadError("payload has trailing bytes beyond array specs")
    return arrays


def _decode_npz(raw: bytes, specs: list) -> "list[np.ndarray]":
    try:
        archive = np.load(io.BytesIO(raw), allow_pickle=False)
    except Exception as error:
        raise PayloadError(f"payload is not a readable npz: {error}") from None
    with archive:
        names = sorted(archive.files)
        if len(names) != len(specs):
            raise PayloadError("npz member count does not match array specs")
        arrays = [archive[name] for name in names]
    for array, spec in zip(arrays, specs):
        dtype, shape = _spec_dtype_shape(spec)
        if array.dtype != dtype or array.shape != shape:
            raise PayloadError("npz member does not match its array spec")
    return arrays


def page_data_chars(limit: int) -> int:
    """Base64 characters per ``payload_page`` under a line byte limit."""
    return max(256, int(limit) - _FRAME_OVERHEAD)


def split_pages(data: str, page_chars: int) -> "list[str]":
    """Slice the base64 text into page-sized pieces (always ≥ 1 page).

    Concatenating the pieces restores ``data`` exactly — pages are pure
    text slices, so boundaries never need to align with base64 quanta.
    """
    if page_chars < 1:
        raise PayloadError("page size must be at least one character")
    if not data:
        return [""]
    return [data[i : i + page_chars] for i in range(0, len(data), page_chars)]


def payload_frames(
    request_id: str,
    meta: dict,
    data: str,
    *,
    limit: int,
    page_chars: "int | None" = None,
) -> "tuple[dict, list[dict]]":
    """Build the paged frame sequence for one result's encoded payload.

    Returns ``(payload_field, frames)``: ``payload_field`` is the dict
    to attach under ``"payload"`` on the result event (metadata plus
    the page count), and ``frames`` is the ordered list of
    ``payload_page`` frames followed by the terminating
    ``payload_done`` frame.  Every frame carries the request id and
    ``"for": "result"``, so a pipelined client can demultiplex
    interleaved requests.
    """
    pages = split_pages(
        data, page_chars if page_chars is not None else page_data_chars(limit)
    )
    payload_field = {**meta, "pages": len(pages)}
    tag = {"request_id": request_id, "for": "result"}
    frames = [
        {"event": "payload_page", **tag, "seq": seq, "data": page}
        for seq, page in enumerate(pages)
    ]
    frames.append({"event": "payload_done", **tag, "pages": len(pages)})
    return payload_field, frames


@dataclass
class AssembledPayload:
    """One fully reassembled result payload, decoded back to arrays.

    ``kind`` is always ``"result"``: the payload's parent event.
    """

    request_id: str
    kind: str
    meta: dict
    arrays: "list[np.ndarray]"


@dataclass
class _Partial:
    meta: dict
    pages: "list[str]" = field(default_factory=list)


class PayloadAssembler:
    """Client-side inverse of :func:`payload_frames`.

    Feed every received event dict to :meth:`feed`; events that are not
    payload frames return ``None`` untouched (a result event with a
    payload opens a pending payload, ``payload_page`` frames extend it,
    and the matching ``payload_done`` closes it and returns the decoded
    :class:`AssembledPayload`).  Pending payloads are keyed by request
    id.  Out-of-order sequence numbers, page-count mismatches and
    checksum failures raise :class:`PayloadError` — a paged payload
    either reassembles exactly or fails loudly.
    """

    def __init__(self) -> None:
        self._pending: "dict[str, _Partial]" = {}

    def feed(self, event: dict) -> "AssembledPayload | None":
        name = event.get("event")
        request_id = str(event.get("request_id"))
        if name == "result" and isinstance(event.get("payload"), dict):
            self._pending[request_id] = _Partial(meta=event["payload"])
            return None
        if name == "payload_page":
            partial = self._pending.get(request_id)
            if partial is None:
                raise PayloadError("payload_page for an unannounced payload")
            if event.get("seq") != len(partial.pages):
                raise PayloadError(
                    f"payload page out of order: got seq {event.get('seq')}, "
                    f"expected {len(partial.pages)}"
                )
            data = event.get("data")
            if not isinstance(data, str):
                raise PayloadError("payload_page carries no string data")
            partial.pages.append(data)
            return None
        if name == "payload_done":
            partial = self._pending.pop(request_id, None)
            if partial is None:
                raise PayloadError("payload_done for an unannounced payload")
            promised = partial.meta.get("pages")
            if len(partial.pages) != promised or event.get("pages") != promised:
                raise PayloadError(
                    f"payload page count mismatch: got {len(partial.pages)}, "
                    f"promised {promised}"
                )
            return AssembledPayload(
                request_id=request_id,
                kind="result",
                meta=partial.meta,
                arrays=decode_payload(partial.meta, "".join(partial.pages)),
            )
        return None
