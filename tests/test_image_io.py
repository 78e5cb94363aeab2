"""PGM round-trips, contrast stretch, and block downsampling."""

import tracemalloc

import numpy as np
import pytest

from irisvd.image_io import (
    BinaryImage,
    GrayImage,
    PgmParseError,
    block_downsample,
    contrast_stretch,
    read_pgm,
    round_half_away,
    write_pgm,
)


def random_image(rng, max_side=40):
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return GrayImage(rng.integers(0, 256, size=(h, w)))


class TestGrayImage:
    def test_from_flat_row_major(self):
        img = GrayImage.from_flat(2, 2, [0, 128, 255, 64])
        assert img.width == 2 and img.height == 2
        assert img.pixels[0, 1] == 128
        assert img.pixels[1, 0] == 255

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            GrayImage.from_flat(2, 2, [1, 2, 3])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0, 256]]))
        with pytest.raises(ValueError):
            GrayImage(np.array([[-1, 0]]))

    def test_rejects_fractional(self):
        with pytest.raises(ValueError):
            GrayImage(np.array([[0.5, 1.0]]))

    def test_pixels_read_only(self):
        img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1


class TestBinaryImage:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BinaryImage(np.array([[0, 2]]))

    def test_foreground_count(self):
        assert BinaryImage(np.array([[1, 0], [1, 1]])).foreground_count() == 3


class TestReadPgm:
    def test_ascii_literal(self):
        img = read_pgm(b"P2 2 2 255 0 128 255 64")
        assert img == GrayImage.from_flat(2, 2, [0, 128, 255, 64])

    def test_binary_320x280(self):
        payload = bytes(range(256)) * 350  # 89600 bytes
        img = read_pgm(b"P5\n320 280\n255\n" + payload)
        assert img.width == 320 and img.height == 280
        assert img.pixels[0, 10] == 10

    def test_truncated_payload(self):
        with pytest.raises(PgmParseError, match="truncated pixel data"):
            read_pgm(b"P5\n4 4\n255\n" + bytes(10))

    def test_ascii_count_bounded_by_data(self):
        # The header asks for 16M pixels; the check must come before any
        # allocation sized by those header numbers.
        tracemalloc.start()
        try:
            with pytest.raises(PgmParseError, match="truncated pixel data"):
                read_pgm(b"P2\n4000 4000\n255\n7\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ascii_count_bound_is_tight(self):
        # Single-byte pixels and separators: the shortest legal payload
        # parses, and one pixel fewer fails the bound.
        assert read_pgm(b"P2 3 1 9 1 2 3") == GrayImage.from_flat(3, 1, [1, 2, 3])
        with pytest.raises(PgmParseError, match="truncated pixel data"):
            read_pgm(b"P2 3 1 9 1 2")

    def test_bad_magic(self):
        with pytest.raises(PgmParseError, match="byte offset 0"):
            read_pgm(b"P6\n1 1\n255\n\x00")

    def test_maxval_too_large(self):
        with pytest.raises(PgmParseError, match="maxval 65535"):
            read_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_header_comments(self):
        img = read_pgm(b"P2\n# a comment\n2 1 # another\n255\n7 9\n")
        assert img == GrayImage.from_flat(2, 1, [7, 9])

    def test_non_integer_token(self):
        with pytest.raises(PgmParseError, match="expected integer width"):
            read_pgm(b"P2 ab 2 255 0 0")

    def test_trailing_binary_data(self):
        with pytest.raises(PgmParseError, match="trailing data"):
            read_pgm(b"P5\n1 1\n255\n\x00\x01")

    def test_pixel_exceeds_maxval(self):
        with pytest.raises(PgmParseError, match="exceeding maxval"):
            read_pgm(b"P2 1 1 100 101")


class TestWritePgm:
    def test_minimal_binary(self):
        img = GrayImage.from_flat(1, 1, [0])
        assert write_pgm(img) == b"P5\n1 1\n255\n\x00"

    def test_ascii_round_trip_example(self):
        img = GrayImage.from_flat(2, 2, [0, 128, 255, 64])
        data = write_pgm(img, ascii=True)
        assert data.startswith(b"P2")
        assert read_pgm(data) == img

    def test_round_trip_random_images(self):
        rng = np.random.default_rng(1234)
        for _ in range(40):
            img = random_image(rng)
            assert read_pgm(write_pgm(img)) == img
            assert read_pgm(write_pgm(img, ascii=True)) == img

    def test_ascii_lines_stay_short(self):
        img = GrayImage(np.full((2, 320), 255))
        body = write_pgm(img, ascii=True).decode("ascii")
        assert all(len(line) <= 70 for line in body.splitlines())


class TestRoundHalfAway:
    def test_scalar_halves(self):
        assert round_half_away(127.5) == 128
        assert round_half_away(0.5) == 1
        assert round_half_away(2.4) == 2
        assert round_half_away(-0.5) == -1

    def test_array(self):
        out = round_half_away(np.array([0.5, 1.5, 2.49]))
        assert list(out) == [1, 2, 2]


class TestContrastStretch:
    def test_endpoints(self):
        img = GrayImage.from_flat(3, 1, [70, 200, 135])
        out = contrast_stretch(img, 70, 200)
        assert out.pixels[0, 0] == 0
        assert out.pixels[0, 1] == 255
        # (135-70)*255/130 = 127.5, half away from zero -> 128
        assert out.pixels[0, 2] == 128

    def test_clamps_outside_range(self):
        img = GrayImage.from_flat(2, 1, [10, 250])
        out = contrast_stretch(img, 70, 200)
        assert out.pixels[0, 0] == 0
        assert out.pixels[0, 1] == 255

    def test_invalid_range(self):
        img = GrayImage.from_flat(1, 1, [0])
        with pytest.raises(ValueError):
            contrast_stretch(img, 200, 70)
        with pytest.raises(ValueError):
            contrast_stretch(img, 70, 70)

    def test_monotone(self):
        rng = np.random.default_rng(99)
        img = GrayImage(np.sort(rng.integers(0, 256, size=(1, 256))))
        low, high = 30, 220
        out = contrast_stretch(img, low, high)
        diffs = np.diff(out.pixels[0].astype(int))
        assert (diffs >= 0).all()

    def test_preserves_dimensions(self):
        img = GrayImage(np.zeros((7, 11), dtype=np.uint8))
        out = contrast_stretch(img, 0, 100)
        assert (out.width, out.height) == (11, 7)


class TestBlockDownsample:
    def test_constant_tile(self):
        img = GrayImage(np.full((3, 3), 90))
        out = block_downsample(img, 3)
        assert out == GrayImage.from_flat(1, 1, [90])

    def test_mean_of_zero_to_eight(self):
        img = GrayImage.from_flat(3, 3, range(9))
        out = block_downsample(img, 3)
        assert out == GrayImage.from_flat(1, 1, [4])

    def test_120_to_40(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.integers(0, 256, size=(120, 120)))
        out = block_downsample(img, 3)
        assert (out.width, out.height) == (40, 40)

    def test_discards_partial_tiles(self):
        img = GrayImage(np.zeros((7, 8), dtype=np.uint8))
        out = block_downsample(img, 3)
        assert (out.width, out.height) == (2, 2)

    def test_zero_block_rejected(self):
        img = GrayImage(np.zeros((3, 3), dtype=np.uint8))
        with pytest.raises(ValueError):
            block_downsample(img, 0)

    def test_output_within_tile_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            img = random_image(rng, max_side=30)
            block = int(rng.integers(1, min(img.width, img.height) + 1))
            out = block_downsample(img, block)
            for by in range(out.height):
                for bx in range(out.width):
                    tile = img.pixels[
                        by * block : (by + 1) * block, bx * block : (bx + 1) * block
                    ]
                    assert tile.min() <= out.pixels[by, bx] <= tile.max()
