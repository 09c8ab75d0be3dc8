"""Unit tests for the deduplicating pattern library."""

import numpy as np

from repro.core import PatternLibrary


def clip(seed):
    """A wire clip whose offset/width vary with the seed (distinct H2
    geometry classes — dense random noise would all share one class)."""
    img = np.zeros((8, 8), dtype=np.uint8)
    offset = seed % 5
    width = 2 + seed % 3
    img[:, offset : offset + width] = 1
    return img


class TestLibrary:
    def test_add_deduplicates(self):
        library = PatternLibrary()
        assert library.add(clip(0))
        assert not library.add(clip(0))
        assert len(library) == 1

    def test_add_many_returns_new_count(self):
        library = PatternLibrary()
        added = library.add_many([clip(0), clip(1), clip(0), clip(2)])
        assert added == 3
        assert len(library) == 3

    def test_insertion_order_preserved(self):
        library = PatternLibrary([clip(3), clip(1), clip(2)])
        np.testing.assert_array_equal(library.clips[0], clip(3))
        np.testing.assert_array_equal(library.clips[2], clip(2))

    def test_contains(self):
        library = PatternLibrary([clip(0)])
        assert clip(0) in library
        assert clip(1) not in library

    def test_stored_clips_are_copies(self):
        source = clip(0)
        library = PatternLibrary([source])
        source[0, 0] ^= 1
        assert not np.array_equal(library.clips[0], source)

    def test_summary(self):
        library = PatternLibrary([clip(i) for i in range(5)])
        summary = library.summary()
        assert summary.count == 5
        assert summary.unique == 5
        assert summary.h2 > 0

    def test_iteration(self):
        clips = [clip(i) for i in range(3)]
        library = PatternLibrary(clips)
        assert sum(1 for _ in library) == 3
