"""PGM round-trips and block downsampling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyes import render_eye
from irisvd.image_io import (
    GrayImage,
    PgmParseError,
    block_downsample,
    read_pgm,
    round_half_away,
    write_pgm,
)
from irisvd.synth import EyeSpec
from pgm_reference import reference_read_pgm, reference_write_pgm


def random_image(rng, max_side=40):
    w = int(rng.integers(1, max_side + 1))
    h = int(rng.integers(1, max_side + 1))
    return GrayImage(rng.integers(0, 256, size=(h, w)))


class TestGrayImage:
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


class TestReadPgm:
    def test_ascii_literal(self):
        img = read_pgm(b"P2 2 2 255 0 128 255 64")
        assert img == GrayImage(np.array([[0, 128], [255, 64]]))

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

    def test_binary_read_keeps_bytes(self):
        # A P5 eye is read without an int64 copy (8 bytes a pixel); the
        # 717 KB temporaries of a 320x280 eye made the time of every read
        # depend on which large blocks the process had freed before.
        data = write_pgm(GrayImage(np.full((280, 320), 77)))
        tracemalloc.start()
        try:
            img = read_pgm(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert img.pixels.dtype == np.uint8 and img.pixels[279, 319] == 77
        assert peak < 4 * 280 * 320

    def test_ascii_count_bound_is_tight(self):
        # Single-byte pixels and separators: the shortest legal payload
        # parses, and one pixel fewer fails the bound.
        assert read_pgm(b"P2 3 1 9 1 2 3") == GrayImage(np.array([[1, 2, 3]]))
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
        assert img == GrayImage(np.array([[7, 9]]))

    def test_non_integer_token(self):
        with pytest.raises(PgmParseError, match="expected integer width"):
            read_pgm(b"P2 ab 2 255 0 0")

    def test_trailing_binary_data(self):
        with pytest.raises(PgmParseError, match="trailing data"):
            read_pgm(b"P5\n1 1\n255\n\x00\x01")

    def test_pixel_exceeds_maxval(self):
        with pytest.raises(PgmParseError, match="exceeding maxval"):
            read_pgm(b"P2 1 1 100 101")

    def test_negative_ascii_pixel(self):
        with pytest.raises(PgmParseError, match="pixel 1 has negative value -6"):
            read_pgm(b"P2 2 1 255 3 -6")


def outcome(reader, data):
    """What a reader makes of data: its pixels, or its error type and message."""
    try:
        return ("ok", reader(data).pixels.tolist())
    except (PgmParseError, OverflowError) as exc:
        return (type(exc).__name__, str(exc))


def assert_reads_like_reference(data):
    got, want = outcome(read_pgm, data), outcome(reference_read_pgm, data)
    if want[0] == "OverflowError":
        # The per-pixel loop let a pixel beyond 64 bits escape untyped, and
        # stopped there before any later fault in the body.
        assert got[0] == "PgmParseError"
    else:
        assert got == want


# Bytes a P2 body gives a meaning to, besides any byte.
_P2_SPECIAL = b"0123456789 \t\n\r\x0b\x0c#-+_x"


@st.composite
def p2_bytes(draw):
    """A small P2 file, maybe with comments, after up to three byte edits."""
    w, h = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pixels = draw(st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h))
    out = bytearray(write_pgm(GrayImage(np.array(pixels).reshape(h, w)), ascii=True))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(out)))
        out[at:at] = draw(st.sampled_from([b"#c\n", b"# x 1\r", b"#", b" #9#\n"]))
    for _ in range(draw(st.integers(0, 3))):
        if len(out) <= 2:
            break
        at = draw(st.integers(2, len(out) - 1))  # the magic stays
        byte = draw(st.one_of(st.sampled_from(_P2_SPECIAL), st.integers(0, 255)))
        op = draw(st.sampled_from(["replace", "insert", "delete", "truncate"]))
        if op == "replace":
            out[at] = byte
        elif op == "insert":
            out.insert(at, byte)
        elif op == "delete":
            del out[at]
        else:
            del out[at:]
    return bytes(out)


class TestP2WriterAgainstReference:
    """The whole-row P2 writer against the per-pixel wrap it replaced
    (tests/pgm_reference.py): the same bytes, line breaks included."""

    @pytest.mark.parametrize("width", [1, 23, 24, 320])
    @pytest.mark.parametrize("value", [0, 9, 10, 99, 100, 255])
    def test_uniform_rows(self, width, value):
        img = GrayImage(np.full((3, width), value))
        assert write_pgm(img, ascii=True) == reference_write_pgm(img, ascii=True)

    @pytest.mark.parametrize("width", [1, 23, 24, 320])
    def test_mixed_digit_counts(self, width):
        rng = np.random.default_rng(width)
        img = GrayImage(rng.choice([0, 9, 10, 99, 100, 255], size=(4, width)))
        assert write_pgm(img, ascii=True) == reference_write_pgm(img, ascii=True)

    def test_synthetic_eyes(self):
        for spec in (EyeSpec(class_seed=1, sample_seed=1),
                     EyeSpec(class_seed=8, sample_seed=3, eyelash_count=12,
                             noise_amplitude=12, bright_spot=True)):
            img = render_eye(spec)[0]
            assert write_pgm(img, ascii=True) == reference_write_pgm(img, ascii=True)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 90), st.integers(1, 4), st.data())
    def test_random_images(self, width, height, data):
        pixels = data.draw(
            st.lists(st.integers(0, 255), min_size=width * height, max_size=width * height)
        )
        img = GrayImage(np.array(pixels).reshape(height, width))
        assert write_pgm(img, ascii=True) == reference_write_pgm(img, ascii=True)


class TestP2AgainstReference:
    """The one-pass P2 body scan against the per-pixel loop it replaced
    (tests/pgm_reference.py): same pixels, same errors and byte offsets."""

    @pytest.mark.parametrize(
        "data",
        [
            b"P2 2 2 255 0 128 255 64",
            b"P2 3 1 9 1 2 3",
            b"P2 3 1 9 1 2",
            b"P2\n4000 4000\n255\n7\n",
            b"P2\n# a comment\n2 1 # another\n255\n7 9\n",
            b"P2 ab 2 255 0 0",
            b"P2 1 1 100 101",
            b"P2 2 1 255 3 -6",
            b"P2 3 1 255 1#c\n2 3",
            b"P2 3 1 255#c\r1 2 3 # end",
            b"P2 3 1 255 1 # 2 3\n",
            b"P2 3 1 255 1 2 3 4",
            b"P2 3 1 255 1 2 3 # c\n 4 5",
            b"P2 3 1 255 1 2x 3",
            b"P2 3 1 255 1 2 3\x00",
            b"P2 3 1 255 1 \xff 3",
            b"P2 3 1 255 +1 0_2 003\x0b\x0c",
            b"P2 3 1 255 1 -0 -7 -300",
            b"P2 3 1 255 99999999999999999999 -1 x",
            b"P2 2 1 255 1 -99999999999999999999",
            b"P2 2 1 255 1 99999999999999999999",
            b"P2 2 1 255 1 " + b"9" * 5000,
            b"P2 2 2 255 1 2 3",
        ],
    )
    def test_cases(self, data):
        assert_reads_like_reference(data)

    def test_written_eyes(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            assert_reads_like_reference(write_pgm(random_image(rng), ascii=True))

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(p2_bytes())
    def test_mutated_bytes(self, data):
        assert_reads_like_reference(data)


@st.composite
def p5_bytes(draw):
    """A small P5 file, maybe with header comments, after up to three edits
    to its header bytes."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    payload = draw(st.binary(min_size=w * h, max_size=w * h))
    header = bytearray(f"P5\n{w} {h}\n255\n".encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(2, len(header) - 1))
        header[at:at] = draw(st.sampled_from([b"#c\n", b"# x 1\r", b"#", b" #9#\n"]))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(2, len(header) - 1))  # the magic stays
        byte = draw(st.one_of(st.sampled_from(_P2_SPECIAL + b"\x00"), st.integers(0, 255)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "replace":
            header[at] = byte
        elif op == "insert":
            header.insert(at, byte)
        else:
            del header[at]
    return bytes(header) + payload


class TestP5AgainstReference:
    """The header regex against the per-byte tokenizer it replaced
    (tests/pgm_reference.py), on P5 files: same pixels, same errors and
    byte offsets."""

    @pytest.mark.parametrize(
        "data",
        [
            b"P5 2 1 255\n\x01\x02",
            b"P5 2#c\n1 255\n\x01\x02",
            b"P5 2 1#c\n255\n\x01\x02",
            b"P5 2 1 2#c\n55\n\x01\x02",
            b"P5 2 1 255#c\n\x01\x02",
            b"P5 2 1 255 #c\n\x01\x02",
            b"P5#c\n2 1 255\n\x01\x02",
            b"P5\r# c\r2 1\r255\r\x01\x02",
            b"P5 # c\r\n2 1 # d\r255\n\x01\x02",
            b"P5\x0b2\x0c1\x0b255\x0c\x01\x02",
            b"P5 +2 1 255\n\x01\x02",
            b"P5 1_0 1 255\n" + bytes(range(10)),
            b"P5 2\x00 1 255\n\x01\x02",
            b"P5 \x002 1 255\n\x01\x02",
            b"P5 \x1c2 1 255\n\x01\x02",
            b"P5 2\x851 255\n\x01\x02",
            b"P5 2 1 -255\n\x01\x02",
            b"P5 2 1 0\n\x01\x02",
            b"P5 0 1 255\n",
            b"P5 2 1 9\n\x01\x0a",
            b"P5 3 1 255\n#\n1",
            b"P5 2 1 255\n#a",
            b"P5 2 1 255\n\n\x01",
            b"P5 1 1 255\n\n\x05",
            b"P5 1 1 255\n",
            b"P5 2 1 255",
            b"P5 2 1",
            b"P5 #only a comment",
        ],
    )
    def test_cases(self, data):
        assert_reads_like_reference(data)

    def test_truncated_at_each_byte(self):
        data = b"P5\n# c\r3 2 # d\n255\n#\n\x00\t 7"
        for end in range(len(data) + 1):
            assert_reads_like_reference(data[:end])

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(p5_bytes())
    def test_mutated_header_bytes(self, data):
        assert_reads_like_reference(data)


class TestWritePgm:
    def test_minimal_binary(self):
        img = GrayImage(np.zeros((1, 1)))
        assert write_pgm(img) == b"P5\n1 1\n255\n\x00"

    def test_ascii_round_trip_example(self):
        img = GrayImage(np.array([[0, 128], [255, 64]]))
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

    # Signed zeros, halves, values a hair below a half, negatives, and large
    # values up to where the array path's int64 ends.
    SCALARS = [
        0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
        -0.49999999999999994, 2.4999999999999996, -7.25, 1e15 + 0.5, -(2.0**52) - 0.5,
        2.0**53, -(2.0**60), 9.2e18, -9.2e18, 123, -7, True,
    ]

    @pytest.mark.parametrize("kind", [float, np.float64, np.float32, np.array])
    def test_scalar_matches_array(self, kind):
        # A scalar takes the math path, a 0-d or 1-d array the numpy one.
        dtype = np.float32 if kind is np.float32 else np.float64
        want = round_half_away(np.array(self.SCALARS, dtype=dtype)).tolist()
        got = [round_half_away(kind(v)) for v in self.SCALARS]
        assert got == want
        assert all(type(v) is int for v in got)

    def test_integer_scalars(self):
        for v in (0, -1, 2**40, -(2**40), np.int64(-3), np.uint8(255)):
            assert round_half_away(v) == int(v)
            assert type(round_half_away(v)) is int

    def test_non_finite_scalar_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            round_half_away(float("nan"))
        with pytest.raises(OverflowError, match="infinity"):
            round_half_away(np.float64("-inf"))


class TestBlockDownsample:
    def test_constant_tile(self):
        out = block_downsample(np.full((3, 3), 90, dtype=np.uint8), 3)
        assert out.tolist() == [[90]]

    def test_mean_of_zero_to_eight(self):
        out = block_downsample(np.arange(9, dtype=np.uint8).reshape(3, 3), 3)
        assert out.tolist() == [[4]]

    def test_120_to_40(self):
        rng = np.random.default_rng(7)
        out = block_downsample(rng.integers(0, 256, size=(120, 120)), 3)
        assert out.shape == (40, 40)

    def test_discards_partial_tiles(self):
        out = block_downsample(np.zeros((7, 8), dtype=np.uint8), 3)
        assert out.shape == (2, 2)

    def test_output_within_tile_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            pixels = random_image(rng, max_side=30).pixels
            block = int(rng.integers(1, min(pixels.shape) + 1))
            out = block_downsample(pixels, block)
            for by in range(out.shape[0]):
                for bx in range(out.shape[1]):
                    tile = pixels[
                        by * block : (by + 1) * block, bx * block : (bx + 1) * block
                    ]
                    assert tile.min() <= out[by, bx] <= tile.max()
