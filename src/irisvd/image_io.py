"""Grayscale image carrier, PGM reading/writing, and basic raster transforms.

Only 8-bit PGM (P2 ASCII / P5 binary) is supported; it is simple enough to
keep golden tests bit-exact.  Rounding everywhere in this module is
round-half-away-from-zero so that expected values can be reproduced by hand.
"""

from __future__ import annotations

import math
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
    this helper instead.  A Python or numpy scalar is rounded with the same
    float64 steps in `math`, without building an array.
    """
    if isinstance(values, (int, float, np.generic)):
        x = float(values)
        n = math.floor(abs(x) + 0.5)
        return -n if x < 0 else n
    arr = np.asarray(values, dtype=np.float64)
    # Every step writes into one array: on a whole image, fresh temporaries
    # cost more than the arithmetic.  copysign gives the sign(x) * floor(...)
    # of the formula, up to the sign of a zero.
    out = np.abs(arr, out=np.empty_like(arr))
    out += 0.5
    np.floor(out, out=out)
    np.copysign(out, arr, out=out)
    if np.ndim(values) == 0:
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
        # uint8 is in range by its type and is copied as it is; anything else
        # is range-checked as int64.
        arr = np.array(raw, dtype=np.uint8 if raw.dtype == np.uint8 else np.int64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"GrayImage needs a 2-D array, got shape {arr.shape}")
        if arr.dtype != np.uint8 and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("GrayImage intensities must lie in [0, 255]")
        arr = arr.astype(np.uint8, copy=False)
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


# ---------------------------------------------------------------------------
# PGM parsing

_COMMENT = re.compile(rb"#[^\n\r]*")
_TOKEN = re.compile(rb"\S+")
# One header token and the separators before it: whitespace (in a bytes
# pattern \s is the six ASCII whitespace bytes) and '#' comments.
_HEADER_TOKEN = re.compile(rb"(?:\s|%s)*([^\s#]*)" % _COMMENT.pattern)


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The integer header token after byte offset pos, and where it ends."""
    m = _HEADER_TOKEN.match(data, pos)
    token, start = m[1], m.start(1)
    if not token:
        raise PgmParseError(f"truncated header: expected {what} at byte offset {start}")
    try:
        return int(token), m.end()
    except ValueError:
        raise PgmParseError(
            f"expected integer {what} at byte offset {start}, got {token!r}"
        ) from None


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
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmParseError(f"invalid dimensions {width}x{height} in header")
    maxval_offset = pos
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval > 255:
        raise PgmParseError(
            f"maxval {maxval} unsupported (limit 255) at byte offset {maxval_offset}"
        )
    if maxval < 1:
        raise PgmParseError(f"invalid maxval {maxval} at byte offset {maxval_offset}")

    count = width * height
    if magic == b"P5":
        # Exactly one whitespace byte separates maxval from the payload.
        if not data[pos : pos + 1].isspace():
            raise PgmParseError(
                f"expected single whitespace before payload at byte offset {pos}"
            )
        payload_start = pos + 1
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
        arr = np.frombuffer(payload, dtype=np.uint8)
    else:
        # Each pixel needs a digit and a separator, so the bytes left bound
        # the count before anything is allocated from the header's numbers.
        room = (len(data) - pos + 1) // 2
        if count > room:
            raise PgmParseError(
                f"truncated pixel data: header asks for {count} pixels, the "
                f"{len(data) - pos} bytes after byte offset {pos} hold at most {room}"
            )
        values = _p2_pixels(data, pos, count)
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


# The decimal digits of every 8-bit value in four bytes, NUL-padded: the
# fourth takes the separator that follows the value, and the NULs are dropped.
_P2_SLOTS = np.array(
    [list(str(v).encode().ljust(4, b"\0")) for v in range(256)], dtype=np.uint8
)
# The longest run of whole tokens, 69 characters at most, that ends a row or
# is followed by a space: the greedy wrap of one P2 line.
_P2_LINE = re.compile(rb"(\S.{0,68})(?: |$)", re.MULTILINE)


def write_pgm(img: GrayImage, ascii: bool = False) -> bytes:
    """Serialize to PGM bytes; P2 when ascii=True, else P5.

    A P2 row is wrapped greedily into lines of at most 69 characters.
    Round-trip law: read_pgm(write_pgm(img)) == img, bit-exact.
    """
    header = f"{'P2' if ascii else 'P5'}\n{img.width} {img.height}\n255\n"
    if not ascii:
        return header.encode("ascii") + img.pixels.tobytes()
    slots = _P2_SLOTS[img.pixels]
    slots[:, :, 3] = ord(" ")
    slots[:, -1, 3] = ord("\n")
    rows = slots[slots != 0].tobytes()
    return header.encode("ascii") + b"\n".join(_P2_LINE.findall(rows)) + b"\n"


def read_pgm_file(path) -> GrayImage:
    with open(path, "rb") as f:
        return read_pgm(f.read())


def write_pgm_file(path, img: GrayImage, ascii: bool = False) -> None:
    Path(path).write_bytes(write_pgm(img, ascii=ascii))


# ---------------------------------------------------------------------------
# Raster transforms

def block_downsample(pixels: np.ndarray, block: int) -> np.ndarray:
    """Rounded means of the block x block tiles of a 2-D array.

    Output shape is (h // block, w // block); trailing rows/columns that do
    not fill a whole tile are discarded.
    """
    out_h, out_w = pixels.shape[0] // block, pixels.shape[1] // block
    tiles = pixels[: out_h * block, : out_w * block].astype(np.float64)
    return round_half_away(tiles.reshape(out_h, block, out_w, block).mean(axis=(1, 3)))
