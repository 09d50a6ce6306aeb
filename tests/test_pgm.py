import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from permbreak.pgm import read_pgm, write_pgm


@given(
    arrays(
        dtype=np.uint8,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.integers(0, 255),
    )
)
def test_write_read_round_trip(tmp_path_factory, img):
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_header_layout(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_reads_comments_and_loose_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n  2\t1 # dims\n255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(path)


def test_rejects_wide_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(path)


def test_rejects_truncated_raster(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: PGM raster shorter"):
        read_pgm(path)


def test_rejects_non_uint8_write(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "img.pgm", np.zeros((2, 2), dtype=np.int32))


@pytest.mark.parametrize("header", [b"1_6 1 255", b"+16 1 255", b"16 1 2_55", "١٦ 1".encode()])
def test_header_fields_must_be_ascii_digits(tmp_path, header):
    # int() alone would read '1_6' and '+16' as 16, and '2_55' as 255
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n" + header + b"\n" + b"\x00" * 16)
    with pytest.raises(ValueError, match="must be ASCII digits"):
        read_pgm(path)


BAD_TOKENS = [
    b"", b"0", b"-1", b"+2", b"1_0", b"0x10", b"1e2", b"2.0", b"#", b"\x00", b"\xff",
    b"99999999999999999999", "٣".encode(),
]


@st.composite
def mutated_pgm(draw, fields, raster):
    """One mutation of a valid PGM file given as its header fields and raster."""
    fields = list(fields)
    kind = draw(st.sampled_from(["truncate", "magic", "token", "duplicate", "drop"]))
    at = draw(st.integers(1, len(fields) - 1))
    if kind == "magic":
        fields[0] = draw(st.sampled_from([b"P2", b"P6", b"p5", b"P5P5", b""]))
    elif kind == "token":
        fields[at] = draw(st.sampled_from(BAD_TOKENS))
    elif kind == "duplicate":
        fields.insert(at, fields[at])
    elif kind == "drop":
        del fields[at]
    data = b" ".join(fields) + b"\n" + raster
    return data[: draw(st.integers(0, len(data)))] if kind == "truncate" else data


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_file_is_rejected_or_reads_an_image(tmp_path_factory, data):
    height, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    raster = data.draw(st.binary(min_size=height * width, max_size=height * width))
    fields = [b"P5", str(width).encode(), str(height).encode(), b"255"]
    path = tmp_path_factory.mktemp("fuzz") / "img.pgm"
    path.write_bytes(data.draw(mutated_pgm(fields, raster)))
    try:
        img = read_pgm(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert img.ndim == 2 and img.dtype == np.uint8 and img.size >= 1


def test_comment_running_to_end_of_file_is_truncated_header(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 1\n# no maxval follows")
    with pytest.raises(ValueError, match="truncated PGM header"):
        read_pgm(path)


def test_hash_inside_a_token_belongs_to_it(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5#x\n1 1\n255\n\x00")
    with pytest.raises(ValueError, match=re.escape("magic b'P5#x'")):
        read_pgm(path)
    path.write_bytes(b"P5\n2#3 1\n255\n\x00\x00")
    with pytest.raises(ValueError, match=re.escape("width must be ASCII digits, got b'2#3'")):
        read_pgm(path)


def test_vertical_tab_and_form_feed_separate_fields(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\x0b2\x0c1\x0b\x0c255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]


@pytest.mark.parametrize("byte", [b"\x1c", b"\x85", b"\xa0"])
def test_non_ascii_space_bytes_do_not_separate_fields(tmp_path, byte):
    # str.isspace() accepts these; bytes.isspace() and the bytes \s of re do not
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2" + byte + b"1\n255\n\x00\x00")
    with pytest.raises(ValueError, match="must be ASCII digits"):
        read_pgm(path)


def test_field_after_a_megabyte_of_whitespace_and_comments(tmp_path):
    path = tmp_path / "img.pgm"
    filler = (b" \t\r\n" * 64 + b"# comment line\n") * 4000
    assert len(filler) > 1_000_000
    path.write_bytes(b"P5\n2" + filler + b"1\n255\n\x07\x09")
    assert read_pgm(path).tolist() == [[7, 9]]
