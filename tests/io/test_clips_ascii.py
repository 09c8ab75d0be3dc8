"""Unit tests for clip persistence and ASCII rendering."""

import gc
import warnings
import zipfile

import numpy as np
import pytest

from repro.io import load_clips, render_clip, render_side_by_side, save_clips


def wire(offset, size=8):
    img = np.zeros((size, size), dtype=np.uint8)
    img[:, offset : offset + 2] = 1
    return img


class TestClipPersistence:
    def test_roundtrip_with_meta(self, tmp_path):
        clips = [wire(1), wire(3), wire(5)]
        path = save_clips(tmp_path / "lib.npz", clips, meta={"deck": "advanced"})
        loaded, meta = load_clips(path)
        assert meta == {"deck": "advanced"}
        assert len(loaded) == 3
        for original, restored in zip(clips, loaded):
            np.testing.assert_array_equal(original, restored)

    def test_odd_width_clips_roundtrip(self, tmp_path):
        # packbits pads the last byte; count= must trim it exactly.
        clips = [np.ones((5, 13), dtype=np.uint8)]
        loaded, _ = load_clips(save_clips(tmp_path / "odd.npz", clips))
        assert loaded[0].shape == (5, 13)
        np.testing.assert_array_equal(loaded[0], clips[0])

    def test_empty_library_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_clips(tmp_path / "x.npz", [])

    def test_torn_archive_closes_its_file(self, tmp_path):
        path = save_clips(tmp_path / "torn.npz", [wire(1), wire(3)])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(zipfile.BadZipFile):
                load_clips(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestAsciiRendering:
    def test_render_clip_characters(self):
        out = render_clip(wire(1, size=4))
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0] == ".##."

    def test_render_with_mask_overlay(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        out = render_clip(wire(1, size=4), mask=mask)
        assert out.splitlines()[0][0] == "?"

    def test_render_rejects_non_2d(self):
        with pytest.raises(ValueError):
            render_clip(np.zeros((2, 2, 2)))

    def test_side_by_side_with_labels(self):
        out = render_side_by_side(
            [wire(1, size=4), wire(2, size=4)], labels=["a", "b"]
        )
        lines = out.splitlines()
        assert len(lines) == 5  # header + 4 rows
        assert "a" in lines[0] and "b" in lines[0]

    def test_side_by_side_empty(self):
        assert render_side_by_side([]) == ""
