"""Round-trip property tests for the clip payload codec.

The wire contract: encode → page → reassemble → decode is the identity
on any list of (non-object-dtype) numpy arrays, for both encodings, for
any page size — including the empty-batch and single-clip edges.  The
fuzz/conformance suites build on this module being airtight.
"""

import json

import numpy as np
import pytest

from repro.service.payload import (
    AssembledPayload,
    PayloadAssembler,
    PayloadError,
    decode_payload,
    encode_payload,
    page_data_chars,
    payload_frames,
    split_pages,
)

DTYPES = [
    np.uint8, np.int16, np.int32, np.int64,
    np.float32, np.float64, np.bool_, np.complex64,
]


def random_arrays(rng: np.random.Generator, count: int) -> list:
    """A batch of arrays with random dtypes, ranks and extents."""
    arrays = []
    for _ in range(count):
        dtype = DTYPES[int(rng.integers(len(DTYPES)))]
        rank = int(rng.integers(0, 4))
        shape = tuple(int(rng.integers(0, 7)) for _ in range(rank))
        raw = rng.integers(-100, 100, size=shape)
        arrays.append(raw.astype(dtype))
    return arrays


def assert_identical(left: list, right: list) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b)


class TestEncodeDecode:
    @pytest.mark.parametrize("encoding", ["b64", "npz"])
    def test_round_trip_random_batches(self, encoding):
        rng = np.random.default_rng(2025)
        for trial in range(25):
            arrays = random_arrays(rng, int(rng.integers(0, 9)))
            meta, data = encode_payload(arrays, encoding)
            assert meta["count"] == len(arrays)
            assert_identical(decode_payload(meta, data), arrays)

    @pytest.mark.parametrize("encoding", ["b64", "npz"])
    def test_empty_batch(self, encoding):
        meta, data = encode_payload([], encoding)
        assert meta["count"] == 0
        assert decode_payload(meta, data) == []

    @pytest.mark.parametrize("encoding", ["b64", "npz"])
    def test_single_clip(self, encoding):
        clip = np.arange(256, dtype=np.uint8).reshape(16, 16)
        meta, data = encode_payload([clip], encoding)
        assert_identical(decode_payload(meta, data), [clip])

    def test_meta_is_json_serializable(self):
        meta, _ = encode_payload(
            [np.zeros((3, 4), dtype=np.float32)], "b64"
        )
        json.dumps(meta)  # dtype strings and int shapes, nothing numpy

    def test_non_contiguous_and_views_round_trip(self):
        base = np.arange(64, dtype=np.int32).reshape(8, 8)
        arrays = [base[::2, ::2], base.T, base[1:5, 2:7]]
        meta, data = encode_payload(arrays, "b64")
        assert_identical(decode_payload(meta, data), arrays)

    def test_npz_is_deterministic(self):
        clip = np.arange(300, dtype=np.int16) % 7
        first = encode_payload([clip, clip * 2], "npz")
        second = encode_payload([clip.copy(), (clip * 2).copy()], "npz")
        assert first == second

    def test_object_dtype_refused(self):
        with pytest.raises(PayloadError):
            encode_payload([np.array([object()])], "b64")

    def test_unknown_encoding_refused(self):
        with pytest.raises(PayloadError):
            encode_payload([np.zeros(3)], "zip")

    def test_checksum_mismatch_detected(self):
        meta, data = encode_payload([np.arange(10, dtype=np.uint8)], "b64")
        meta = {**meta, "sha256": "0" * 64}
        with pytest.raises(PayloadError):
            decode_payload(meta, data)

    def test_truncated_data_detected(self):
        meta, data = encode_payload(
            [np.arange(100, dtype=np.float64)], "b64"
        )
        with pytest.raises(PayloadError):
            decode_payload(meta, data[: len(data) // 2])


class TestPaging:
    def test_split_pages_reassembles_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            length = int(rng.integers(0, 2000))
            data = "".join(
                chr(int(c)) for c in rng.integers(65, 91, size=length)
            )
            page_chars = int(rng.integers(1, 700))
            pages = split_pages(data, page_chars)
            assert pages  # never zero pages, even for empty data
            assert all(len(p) <= page_chars for p in pages)
            assert "".join(pages) == data

    def test_page_size_honours_line_limit(self):
        assert page_data_chars(4096) < 4096
        assert page_data_chars(10) >= 256  # floor: tiny limits still progress

    @pytest.mark.parametrize("encoding", ["b64", "npz"])
    def test_frames_round_trip_random_page_sizes(self, encoding):
        rng = np.random.default_rng(11)
        for trial in range(20):
            arrays = random_arrays(rng, int(rng.integers(0, 6)))
            meta, data = encode_payload(arrays, encoding)
            page_chars = int(rng.integers(1, 500))
            field, frames = payload_frames(
                "req-x", meta, data, limit=4096, page_chars=page_chars
            )
            assert field["pages"] == len(frames) - 1
            assert frames[-1]["event"] == "payload_done"
            assembler = PayloadAssembler()
            assembler.feed(
                {"event": "result", "request_id": "req-x", "payload": field}
            )
            done = None
            for frame in frames:
                out = assembler.feed(frame)
                assert out is None or frame is frames[-1]
                done = out or done
            assert isinstance(done, AssembledPayload)
            assert done.kind == "result"
            assert_identical(done.arrays, arrays)

    def test_every_frame_fits_the_line_limit(self):
        clips = [
            np.random.default_rng(s).integers(0, 2, (32, 32), dtype=np.uint8)
            for s in range(16)
        ]
        limit = 2048
        meta, data = encode_payload(clips, "b64")
        field, frames = payload_frames("rid", meta, data, limit=limit)
        assert field["pages"] >= 3  # big enough batch to actually page
        for frame in frames:
            line = json.dumps(frame).encode() + b"\n"
            assert len(line) <= limit

    def test_interleaved_payloads_demultiplex(self):
        """Pages of different requests' results may interleave on the wire."""
        a = [np.full((2, 2), 1, dtype=np.uint8)]
        b = [np.full((3, 3), 2, dtype=np.int32)]
        meta_a, data_a = encode_payload(a, "b64")
        meta_b, data_b = encode_payload(b, "npz")
        field_a, frames_a = payload_frames(
            "ra", meta_a, data_a, limit=4096, page_chars=4
        )
        field_b, frames_b = payload_frames(
            "rb", meta_b, data_b, limit=4096, page_chars=4
        )
        assert all(f["for"] == "result" for f in frames_a + frames_b)
        assembler = PayloadAssembler()
        assembler.feed({"event": "result", "request_id": "ra", "payload": field_a})
        assembler.feed({"event": "result", "request_id": "rb", "payload": field_b})
        interleaved = [
            frame
            for pair in zip(frames_a, frames_b)
            for frame in pair
        ] + frames_a[len(frames_b):] + frames_b[len(frames_a):]
        done = [out for f in interleaved if (out := assembler.feed(f))]
        assert {d.request_id for d in done} == {"ra", "rb"}
        by_id = {d.request_id: d for d in done}
        assert_identical(by_id["ra"].arrays, a)
        assert_identical(by_id["rb"].arrays, b)


class TestAssemblerErrors:
    def _framed(self, page_chars=8):
        meta, data = encode_payload([np.arange(60, dtype=np.uint8)], "b64")
        return payload_frames(
            "rid", meta, data, limit=4096, page_chars=page_chars
        )

    def test_unannounced_page_rejected(self):
        _, frames = self._framed()
        with pytest.raises(PayloadError):
            PayloadAssembler().feed(frames[0])

    def test_out_of_order_page_rejected(self):
        field, frames = self._framed()
        assembler = PayloadAssembler()
        assembler.feed({"event": "result", "request_id": "rid", "payload": field})
        assert len(frames) > 3
        assembler.feed(frames[0])
        with pytest.raises(PayloadError):
            assembler.feed(frames[2])  # skipped seq 1

    def test_missing_page_rejected_at_done(self):
        field, frames = self._framed()
        assembler = PayloadAssembler()
        assembler.feed({"event": "result", "request_id": "rid", "payload": field})
        for frame in frames[:-2]:  # drop the final data page
            assembler.feed(frame)
        with pytest.raises(PayloadError):
            assembler.feed(frames[-1])

    def test_non_payload_events_pass_through(self):
        assembler = PayloadAssembler()
        assert assembler.feed({"event": "pong"}) is None
        assert assembler.feed({"event": "accepted", "request_id": "x"}) is None
        assert assembler.feed(
            {"event": "result", "request_id": "x", "attempts": 4}
        ) is None  # payload-off result events carry no payload dict
