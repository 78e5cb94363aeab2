"""Grayscale image carrier, PGM reading/writing, and basic raster transforms.

Only 8-bit PGM (P2 ASCII / P5 binary) is supported; it is simple enough to
keep golden tests bit-exact.  Rounding everywhere in this module is
round-half-away-from-zero so that expected values can be reproduced by hand.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np


class PgmParseError(ValueError):
    """Malformed PGM data.  Message names the byte offset of the problem."""


def round_half_away(values):
    """Round to nearest integer, halves away from zero.

    Works on scalars and numpy arrays; returns the same kind.  Python's
    built-in round() is half-to-even, which makes hand-computed oracle
    values awkward, so every rounding step in the pipeline funnels through
    this helper instead.
    """
    arr = np.asarray(values, dtype=np.float64)
    out = np.sign(arr) * np.floor(np.abs(arr) + 0.5)
    if np.isscalar(values) or np.ndim(values) == 0:
        return int(out)
    return out.astype(np.int64)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Rectangular grid of 8-bit intensities, shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.pixels)
        if raw.dtype.kind == "f" and not np.all(raw == np.floor(raw)):
            raise ValueError("GrayImage intensities must be integral")
        arr = np.array(raw, dtype=np.int64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"GrayImage needs a 2-D array, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("GrayImage intensities must lie in [0, 255]")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)


@dataclass(frozen=True, eq=False)
class BinaryImage:
    """Grid of {0, 1} bits, shape (height, width)."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.array(self.bits, dtype=np.int64, copy=True)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"BinaryImage needs a 2-D array, got shape {arr.shape}")
        if arr.min() < 0 or arr.max() > 1:
            raise ValueError("BinaryImage bits must be exactly 0 or 1")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        object.__setattr__(self, "bits", arr)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, BinaryImage) and np.array_equal(self.bits, other.bits)


# ---------------------------------------------------------------------------
# PGM parsing

_WHITESPACE = b" \t\n\r\x0b\x0c"


class _Tokenizer:
    """Pulls whitespace-separated header tokens, skipping '#' comments."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def skip_separators(self):
        d, n = self.data, len(self.data)
        while self.pos < n:
            b = self.data[self.pos : self.pos + 1]
            if b in (b"#",):
                while self.pos < n and d[self.pos : self.pos + 1] not in (b"\n", b"\r"):
                    self.pos += 1
            elif b and b in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self, what: str) -> tuple[bytes, int]:
        self.skip_separators()
        if self.pos >= len(self.data):
            raise PgmParseError(
                f"truncated header: expected {what} at byte offset {self.pos}"
            )
        start = self.pos
        d, n = self.data, len(self.data)
        while self.pos < n:
            b = d[self.pos : self.pos + 1]
            if b in _WHITESPACE or b == b"#":
                break
            self.pos += 1
        return d[start : self.pos], start

    def next_int(self, what: str) -> int:
        token, offset = self.next_token(what)
        try:
            return int(token)
        except ValueError:
            raise PgmParseError(
                f"expected integer {what} at byte offset {offset}, got {token!r}"
            ) from None


_COMMENT = re.compile(rb"#[^\n\r]*")
_TOKEN = re.compile(rb"\S+")


def _p2_pixels(data: bytes, start: int, count: int) -> np.ndarray:
    """The count whitespace-separated integers after byte offset start.

    One split over the body, with each '#' comment blanked in place first so
    that byte offsets still hold; offsets are looked up only to report an
    error.
    """
    body = data[start:]
    if b"#" in body:
        body = _COMMENT.sub(lambda m: b" " * len(m[0]), body)
    tokens = body.split(None, count)

    def where(i: int) -> int:
        return start + next(islice(_TOKEN.finditer(body), i, None)).start()

    try:
        values = list(map(int, tokens[:count]))
    except ValueError:
        for i, token in enumerate(tokens[:count]):
            try:
                int(token)
            except ValueError:
                raise PgmParseError(
                    f"expected integer pixel {i} at byte offset {where(i)}, "
                    f"got {token!r}"
                ) from None
    if len(values) < count:
        raise PgmParseError(
            f"truncated header: expected pixel {len(values)} at byte offset {len(data)}"
        )
    if len(tokens) > count:
        raise PgmParseError(
            f"trailing data after {count} pixels at byte offset {where(count)}"
        )
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        i = next(i for i, v in enumerate(values) if not -(2**63) <= v < 2**63)
        raise PgmParseError(
            f"pixel {i} value {tokens[i]!r} at byte offset {where(i)} does not fit "
            f"64 bits"
        ) from None


def read_pgm(data: bytes) -> GrayImage:
    """Parse P5 (binary) or P2 (ASCII) PGM bytes into a GrayImage.

    Header comments ('#' to end of line) are permitted.  maxval must be at
    most 255; pixel values are kept verbatim (no maxval rescaling), so a
    write/read cycle is bit-exact.
    """
    if len(data) < 2 or data[:1] != b"P" or data[1:2] not in (b"2", b"5"):
        raise PgmParseError(
            f"not a PGM: expected magic 'P5' or 'P2' at byte offset 0, "
            f"got {bytes(data[:2])!r}"
        )
    magic = bytes(data[:2])
    tok = _Tokenizer(data)
    tok.pos = 2

    width = tok.next_int("width")
    height = tok.next_int("height")
    if width < 1 or height < 1:
        raise PgmParseError(f"invalid dimensions {width}x{height} in header")
    maxval_offset = tok.pos
    maxval = tok.next_int("maxval")
    if maxval > 255:
        raise PgmParseError(
            f"maxval {maxval} unsupported (limit 255) at byte offset {maxval_offset}"
        )
    if maxval < 1:
        raise PgmParseError(f"invalid maxval {maxval} at byte offset {maxval_offset}")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates maxval from the payload.
        if tok.pos >= len(data) or data[tok.pos : tok.pos + 1] not in _WHITESPACE:
            raise PgmParseError(
                f"expected single whitespace before payload at byte offset {tok.pos}"
            )
        payload_start = tok.pos + 1
        payload = data[payload_start:]
        if len(payload) < count:
            raise PgmParseError(
                f"truncated pixel data: expected {count} payload bytes, found "
                f"{len(payload)} (payload starts at byte offset {payload_start})"
            )
        if len(payload) > count:
            raise PgmParseError(
                f"trailing data: expected {count} payload bytes, found "
                f"{len(payload)} (payload starts at byte offset {payload_start})"
            )
        arr = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
    else:
        # Each pixel needs a digit and a separator, so the bytes left bound
        # the count before anything is allocated from the header's numbers.
        room = (len(data) - tok.pos + 1) // 2
        if count > room:
            raise PgmParseError(
                f"truncated pixel data: header asks for {count} pixels, the "
                f"{len(data) - tok.pos} bytes after byte offset {tok.pos} "
                f"hold at most {room}"
            )
        values = _p2_pixels(data, tok.pos, count)
        if values.min(initial=0) < 0:
            bad = int(np.argmax(values < 0))
            raise PgmParseError(f"pixel {bad} has negative value {int(values[bad])}")
        arr = values

    if arr.max(initial=0) > maxval:
        bad = int(np.argmax(arr > maxval))
        raise PgmParseError(
            f"pixel {bad} has value {int(arr[bad])} exceeding maxval {maxval}"
        )
    return GrayImage(arr.reshape(height, width))


def write_pgm(img: GrayImage, ascii: bool = False) -> bytes:
    """Serialize to PGM bytes; P2 when ascii=True, else P5.

    Round-trip law: read_pgm(write_pgm(img)) == img, bit-exact.
    """
    header = f"{'P2' if ascii else 'P5'}\n{img.width} {img.height}\n255\n"
    if not ascii:
        return header.encode("ascii") + img.pixels.tobytes()
    lines = []
    for row in img.pixels:
        line: list[str] = []
        length = 0
        for v in row:
            s = str(int(v))
            if length + len(s) + (1 if line else 0) > 69:
                lines.append(" ".join(line))
                line, length = [], 0
            line.append(s)
            length += len(s) + (1 if length else 0)
        if line:
            lines.append(" ".join(line))
    return header.encode("ascii") + ("\n".join(lines) + "\n").encode("ascii")


def read_pgm_file(path) -> GrayImage:
    return read_pgm(Path(path).read_bytes())


def write_pgm_file(path, img: GrayImage, ascii: bool = False) -> None:
    Path(path).write_bytes(write_pgm(img, ascii=ascii))


# ---------------------------------------------------------------------------
# Raster transforms

def block_downsample(pixels: np.ndarray, block: int) -> np.ndarray:
    """Rounded means of the block x block tiles of a 2-D array.

    Output shape is (h // block, w // block); trailing rows/columns that do
    not fill a whole tile are discarded.
    """
    if block < 1:
        raise ValueError(f"block must be a positive integer, got {block}")
    out_h, out_w = pixels.shape[0] // block, pixels.shape[1] // block
    if not out_h or not out_w:
        raise ValueError(f"array {pixels.shape} smaller than block {block}")
    tiles = pixels[: out_h * block, : out_w * block].astype(np.float64)
    return round_half_away(tiles.reshape(out_h, block, out_w, block).mean(axis=(1, 3)))
