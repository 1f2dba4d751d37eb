import numpy as np
import pytest

from real2sim.imaging import (
    ImageError,
    composite,
    read_pgm,
    read_ppm,
    write_pgm,
    write_ppm,
)


def rand_image(rng, w, h):
    return rng.integers(0, 256, (h, w, 3), dtype=np.uint8)


def rand_mask(rng, w, h):
    return rng.integers(0, 256, (h, w), dtype=np.uint8)


def test_read_one_white_pixel():
    img = read_ppm(b"P6\n1 1\n255\n\xff\xff\xff")
    assert img.shape == (1, 1, 3) and img.dtype == np.uint8
    assert img.tobytes() == b"\xff\xff\xff"
    assert img.flags.writeable is False


def test_read_does_not_alias_a_mutable_buffer():
    data = bytearray(b"P6\n1 1\n255\n\x01\x02\x03")
    img = read_ppm(data)
    mask = read_pgm(bytearray(b"P5\n1 1\n255\n\x07"))
    data[-3:] = b"\xff\xff\xff"
    assert img.tobytes() == b"\x01\x02\x03"
    assert mask.shape == (1, 1) and mask.flags.writeable is False


def test_roundtrip_byte_identical():
    rng = np.random.default_rng(0)
    for w, h in ((1, 1), (3, 2), (17, 5)):
        img = rand_image(rng, w, h)
        data = write_ppm(img)
        assert write_ppm(read_ppm(data)) == data
        mask = rand_mask(rng, w, h)
        mdata = write_pgm(mask)
        assert write_pgm(read_pgm(mdata)) == mdata


def test_reader_accepts_general_whitespace_header():
    img = read_ppm(b"P6 2\t1\n255 " + bytes(6))
    assert img.shape == (1, 2, 3)


def test_ascii_variant_rejected():
    with pytest.raises(ImageError, match="ASCII variant"):
        read_ppm(b"P3\n1 1\n255\n255 255 255\n")
    with pytest.raises(ImageError, match="ASCII variant"):
        read_pgm(b"P2\n1 1\n255\n255\n")


def test_wrong_magic_rejected():
    with pytest.raises(ImageError, match="magic"):
        read_ppm(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ImageError, match="magic"):
        read_pgm(b"BM\x00\x00")


def test_bad_maxval_rejected():
    with pytest.raises(ImageError, match="maxval"):
        read_ppm(b"P6\n1 1\n65535\n" + bytes(6))


def test_truncated_payload_rejected():
    with pytest.raises(ImageError, match="truncated"):
        read_ppm(b"P6\n2 2\n255\n\x00\x00\x00")


@pytest.mark.parametrize("header", [b"P6\n1_0 1\n255\n", b"P6\n+2 1\n255\n", b"P6\n1 1\n25_5\n"])
def test_header_tokens_are_decimal_digits(header):
    # int() alone reads 1_0 as 10 and +2 as 2
    with pytest.raises(ImageError, match="malformed header token"):
        read_ppm(header + bytes(30))
    with pytest.raises(ImageError, match="malformed header token"):
        read_pgm(b"P5" + header[2:] + bytes(10))


def test_dimension_validation():
    good, mask = np.zeros((2, 2, 3), np.uint8), np.zeros((2, 2), np.uint8)
    # a float array, a 2-D image, a 4-channel image and an empty one
    for bad in (np.zeros((2, 2, 3)), mask, np.zeros((2, 2, 4), np.uint8), np.zeros((0, 2, 3), np.uint8)):
        with pytest.raises(ImageError, match="image: expected"):
            write_ppm(bad)
        with pytest.raises(ImageError, match="sim: expected"):
            composite(bad, mask, good)
        with pytest.raises(ImageError, match="real: expected"):
            composite(good, mask, bad)
    # a float mask, a 3-D one and an empty one
    for bad in (np.zeros((2, 2)), good, np.zeros((0, 2), np.uint8)):
        with pytest.raises(ImageError, match="mask: expected"):
            write_pgm(bad)
        with pytest.raises(ImageError, match="mask: expected"):
            composite(good, bad, good)


def test_composite_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(8)
    sim, real, mask = rand_image(rng, 5, 4), rand_image(rng, 5, 4), rand_mask(rng, 5, 4)
    before = [a.copy() for a in (sim, mask, real)]
    for mode in ("hard", "soft"):
        out = composite(sim, mask, real, mode=mode)
        assert not any(np.shares_memory(out, a) for a in (sim, mask, real))
        out[...] = 0
    assert all(np.array_equal(a, b) for a, b in zip((sim, mask, real), before))


def test_composite_full_mask_returns_sim():
    rng = np.random.default_rng(1)
    sim = rand_image(rng, 6, 4)
    real = rand_image(rng, 6, 4)
    mask = np.full((4, 6), 255, dtype=np.uint8)
    assert np.array_equal(composite(sim, mask, real), sim)
    assert np.array_equal(composite(sim, mask, real, mode="soft"), sim)


def test_composite_empty_mask_returns_real():
    rng = np.random.default_rng(2)
    sim = rand_image(rng, 6, 4)
    real = rand_image(rng, 6, 4)
    mask = np.zeros((4, 6), dtype=np.uint8)
    assert np.array_equal(composite(sim, mask, real), real)
    assert np.array_equal(composite(sim, mask, real, mode="soft"), real)


def test_composite_hard_threshold_128():
    sim = np.full((1, 2, 3), 10, np.uint8)
    real = np.full((1, 2, 3), 200, np.uint8)
    mask = np.array([[127, 128]], np.uint8)
    out = composite(sim, mask, real)
    assert out.tobytes() == bytes([200, 200, 200, 10, 10, 10])


def test_composite_soft_midpoint_rounding():
    # (128*255 + 127*0) / 255 rounds half away from zero to 128
    sim = np.full((1, 1, 3), 255, np.uint8)
    real = np.zeros((1, 1, 3), np.uint8)
    mask = np.array([[128]], np.uint8)
    out = composite(sim, mask, real, mode="soft")
    assert out.tobytes() == bytes([128, 128, 128])


def test_composite_identical_layers_unchanged():
    rng = np.random.default_rng(3)
    img = rand_image(rng, 5, 5)
    mask = rand_mask(rng, 5, 5)
    assert np.array_equal(composite(img, mask, img), img)
    assert np.array_equal(composite(img, mask, img, mode="soft"), img)


def test_composite_hard_idempotent():
    rng = np.random.default_rng(4)
    sim = rand_image(rng, 5, 5)
    real = rand_image(rng, 5, 5)
    mask = rand_mask(rng, 5, 5)
    once = composite(sim, mask, real)
    twice = composite(once, mask, real)
    assert np.array_equal(twice, once)


def test_composite_soft_bounded_by_inputs():
    rng = np.random.default_rng(5)
    sim = rand_image(rng, 8, 8)
    real = rand_image(rng, 8, 8)
    mask = rand_mask(rng, 8, 8)
    out = composite(sim, mask, real, mode="soft").astype(int)
    lo = np.minimum(sim, real).astype(int)
    hi = np.maximum(sim, real).astype(int)
    assert np.all(out >= lo)
    assert np.all(out <= hi)


def test_composite_dimension_mismatch():
    rng = np.random.default_rng(6)
    with pytest.raises(ImageError, match="dimensions"):
        composite(rand_image(rng, 2, 2), rand_mask(rng, 3, 2), rand_image(rng, 2, 2))


def test_composite_unknown_mode():
    rng = np.random.default_rng(7)
    with pytest.raises(ImageError, match="mode"):
        composite(rand_image(rng, 2, 2), rand_mask(rng, 2, 2), rand_image(rng, 2, 2), mode="fuzzy")
