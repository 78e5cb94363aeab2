"""Reference PGM reader: read_pgm as it was when a P2 body was parsed one
_Tokenizer call per pixel.

Kept verbatim so the one-pass P2 body scan can be held to it: the same
arrays for every input it accepts, and the same PgmParseError message,
byte offset included, for every input it rejects.
"""

from __future__ import annotations

import numpy as np

from irisvd.image_io import _WHITESPACE, GrayImage, PgmParseError, _Tokenizer


def reference_read_pgm(data: bytes) -> GrayImage:
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
        values = np.empty(count, dtype=np.int64)
        for i in range(count):
            values[i] = tok.next_int(f"pixel {i}")
        tok.skip_separators()
        if tok.pos < len(data):
            raise PgmParseError(
                f"trailing data after {count} pixels at byte offset {tok.pos}"
            )
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
