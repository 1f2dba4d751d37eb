"""Green-screen compositing with bit-exact binary PPM/PGM input and output.

Only the 8-bit binary variants (P6 / P5, maxval 255) are supported; writing
produces the canonical header form so read/write round-trips are
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageError",
    "ImageRGB8",
    "MaskGray8",
    "read_ppm",
    "write_ppm",
    "read_pgm",
    "write_pgm",
    "composite",
]


class ImageError(ValueError):
    """Raised for unsupported or malformed image data."""


@dataclass(frozen=True)
class ImageRGB8:
    """8-bit RGB image, row-major interleaved bytes."""

    width: int
    height: int
    pixels: bytes

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ImageError("image dimensions must be positive")
        if len(self.pixels) != 3 * self.width * self.height:
            raise ImageError(
                f"pixel payload has {len(self.pixels)} bytes, expected {3 * self.width * self.height}"
            )

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.pixels, dtype=np.uint8).reshape(self.height, self.width, 3)

    @staticmethod
    def from_array(a: np.ndarray) -> "ImageRGB8":
        a = np.asarray(a)
        if a.ndim != 3 or a.shape[2] != 3 or a.dtype != np.uint8:
            raise ImageError("expected a (h, w, 3) uint8 array")
        return ImageRGB8(a.shape[1], a.shape[0], a.tobytes())


@dataclass(frozen=True)
class MaskGray8:
    """8-bit grayscale mask, row-major bytes."""

    width: int
    height: int
    values: bytes

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ImageError("mask dimensions must be positive")
        if len(self.values) != self.width * self.height:
            raise ImageError(
                f"mask payload has {len(self.values)} bytes, expected {self.width * self.height}"
            )

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.values, dtype=np.uint8).reshape(self.height, self.width)

    @staticmethod
    def from_array(a: np.ndarray) -> "MaskGray8":
        a = np.asarray(a)
        if a.ndim != 2 or a.dtype != np.uint8:
            raise ImageError("expected a (h, w) uint8 array")
        return MaskGray8(a.shape[1], a.shape[0], a.tobytes())


_ASCII_VARIANTS = {b"P3": "P6", b"P2": "P5"}


def _read_netpbm(data: bytes, magic: bytes, channels: int) -> tuple[int, int, bytes]:
    """Width, height and the ``channels * width * height`` payload bytes of a binary netpbm file."""
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
            fields.append(int(token))
        except ValueError as exc:
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
    return width, height, bytes(data[pos : pos + need])


def read_ppm(data: bytes) -> ImageRGB8:
    """Decode a binary P6 image (maxval 255)."""
    return ImageRGB8(*_read_netpbm(data, b"P6", 3))


def write_ppm(img: ImageRGB8) -> bytes:
    return b"P6\n%d %d\n255\n" % (img.width, img.height) + img.pixels


def read_pgm(data: bytes) -> MaskGray8:
    """Decode a binary P5 mask (maxval 255)."""
    return MaskGray8(*_read_netpbm(data, b"P5", 1))


def write_pgm(mask: MaskGray8) -> bytes:
    return b"P5\n%d %d\n255\n" % (mask.width, mask.height) + mask.values


def composite(sim: ImageRGB8, mask: MaskGray8, real: ImageRGB8, mode: str = "hard") -> ImageRGB8:
    """Overlay the masked simulated foreground onto the real background.

    Hard mode treats the mask as binary at threshold 128. Soft mode blends
    per channel with integer rounding half away from zero, for antialiased
    masks.
    """
    if not (sim.width == real.width == mask.width and sim.height == real.height == mask.height):
        raise ImageError("simulated, real, and mask dimensions must all match")
    s = sim.as_array()
    r = real.as_array()
    m = mask.as_array()[:, :, np.newaxis]
    if mode == "hard":
        out = np.where(m >= 128, s, r)
    elif mode == "soft":
        num = m.astype(np.uint32) * s + (255 - m.astype(np.uint32)) * r
        out = ((2 * num + 255) // 510).astype(np.uint8)
    else:
        raise ImageError(f"unknown composite mode {mode!r} (want 'hard' or 'soft')")
    return ImageRGB8.from_array(out.astype(np.uint8))
