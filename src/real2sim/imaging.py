"""Green-screen compositing with bit-exact binary PPM/PGM input and output.

An image is an (h, w, 3) uint8 array and a mask an (h, w) uint8 array; there
is no wrapper type. Only the 8-bit binary variants (P6 / P5, maxval 255) are
supported. The readers return read-only arrays, and the writers and
`composite` take arrays and check each one's shape and dtype. Writing
produces the canonical header form so read/write round-trips are
byte-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ImageError", "read_ppm", "write_ppm", "read_pgm", "write_pgm", "composite"]


class ImageError(ValueError):
    """Raised for unsupported or malformed image data."""


_ASCII_VARIANTS = {b"P3": "P6", b"P2": "P5"}


def _read_netpbm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The read-only (h, w, 3) (``channels`` 3) or (h, w) (``channels`` 1) uint8 payload of a binary netpbm file."""
    if len(data) < 2:
        raise ImageError("file too short to hold a netpbm header")
    got = data[:2]
    if got != magic:
        if got in _ASCII_VARIANTS and _ASCII_VARIANTS[got].encode() == magic:
            raise ImageError("unsupported: ASCII variant")
        raise ImageError(f"wrong magic {got!r}, expected {magic.decode()}")
    # whitespace-separated width, height, maxval; then one whitespace byte
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise ImageError("truncated header")
        try:
            if not token.isdigit():  # int() alone also takes a sign and underscores
                raise ValueError(token)
            fields.append(int(token))
        except ValueError as exc:  # or past int()'s digit limit
            raise ImageError(f"malformed header token {token!r}") from exc
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ImageError("missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ImageError(f"unsupported maxval {maxval}, only 255 is handled")
    if width <= 0 or height <= 0:
        raise ImageError("non-positive image dimensions")
    need = channels * width * height
    if len(data) - pos < need:
        raise ImageError(f"truncated payload: {len(data) - pos} of {need} bytes")
    # bytes(data) is data itself for bytes, and a copy of a mutable buffer the caller could change later
    pixels = np.frombuffer(bytes(data), np.uint8, need, pos)
    return pixels.reshape((height, width, 3) if channels == 3 else (height, width))


def _pixels(a, role: str, ndim: int) -> np.ndarray:
    """``a`` as a non-empty uint8 array of shape (h, w, 3) (``ndim`` 3) or (h, w) (``ndim`` 2)."""
    a = np.asarray(a)
    if a.dtype != np.uint8 or a.ndim != ndim or a.shape[2:] not in ((), (3,)) or a.size == 0:
        want = "(h, w, 3)" if ndim == 3 else "(h, w)"
        raise ImageError(f"{role}: expected a non-empty {want} uint8 array, got {a.dtype} of shape {a.shape}")
    return a


def read_ppm(data: bytes) -> np.ndarray:
    """Decode a binary P6 image (maxval 255) into a read-only (h, w, 3) uint8 array."""
    return _read_netpbm(data, b"P6", 3)


def write_ppm(img: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 image as binary P6."""
    img = _pixels(img, "image", 3)
    return b"P6\n%d %d\n255\n" % (img.shape[1], img.shape[0]) + img.tobytes()


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary P5 mask (maxval 255) into a read-only (h, w) uint8 array."""
    return _read_netpbm(data, b"P5", 1)


def write_pgm(mask: np.ndarray) -> bytes:
    """Encode an (h, w) uint8 mask as binary P5."""
    mask = _pixels(mask, "mask", 2)
    return b"P5\n%d %d\n255\n" % (mask.shape[1], mask.shape[0]) + mask.tobytes()


def composite(sim: np.ndarray, mask: np.ndarray, real: np.ndarray, mode: str = "hard") -> np.ndarray:
    """Overlay the masked simulated foreground onto the real background, as a new (h, w, 3) uint8 array.

    Hard mode treats the mask as binary at threshold 128. Soft mode blends
    per channel with integer rounding half away from zero, for antialiased
    masks.
    """
    s, m, r = _pixels(sim, "sim", 3), _pixels(mask, "mask", 2), _pixels(real, "real", 3)
    if not s.shape == r.shape == m.shape + (3,):
        raise ImageError("simulated, real, and mask dimensions must all match")
    m = m[:, :, np.newaxis]
    if mode == "hard":
        return np.where(m >= 128, s, r)
    if mode == "soft":
        num = m.astype(np.uint32) * s + (255 - m.astype(np.uint32)) * r
        return ((2 * num + 255) // 510).astype(np.uint8)
    raise ImageError(f"unknown composite mode {mode!r} (want 'hard' or 'soft')")
