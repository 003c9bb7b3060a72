import numpy as np
import pytest

from casimir_lab import forms3 as f3
from casimir_lab.errors import FormatError
from casimir_lab.forms3 import io


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_form_roundtrip(tmp_path, grid16, rng, rank):
    a = f3.random_form(grid16, rank, 3, rng)
    path = tmp_path / f"form{rank}.f3rm"
    io.save(path, a)
    b = io.load(path)
    assert type(b) is type(a)
    assert b.grid.n == 16
    np.testing.assert_array_equal(a.data, b.data)


def test_vector_field_roundtrip(tmp_path, grid16, rng):
    v = f3.random_vector_field(grid16, 3, rng)
    path = tmp_path / "field.f3rm"
    io.save(path, v)
    w = io.load(path)
    assert isinstance(w, f3.VectorField)
    np.testing.assert_array_equal(v.data, w.data)


def test_header_layout(tmp_path, grid16, rng):
    path = tmp_path / "probe.f3rm"
    io.save(path, f3.random_form1(grid16, 3, rng))
    raw = path.read_bytes()
    assert raw[:4] == b"F3RM"
    version, n, rank, ncomp = np.frombuffer(raw[4:20], dtype="<u4")
    assert (version, n, rank, ncomp) == (1, 16, 1, 3)
    assert len(raw) == 20 + 3 * 16 ** 3 * 8


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.f3rm"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        io.load(path)


@pytest.mark.parametrize("n", [0, 2, 5])
def test_bad_header_grid(tmp_path, n):
    path = tmp_path / "grid.f3rm"
    path.write_bytes(b"F3RM" + np.array([1, n, 0, 1], dtype="<u4").tobytes()
                     + b"\x00" * 8 * n ** 3)
    with pytest.raises(FormatError, match=f"grid size {n} "):
        io.load(path)


@pytest.mark.parametrize("header, n_values, match", [
    (np.array([1, 4], dtype="<u4"), 0, "truncated header"),
    (np.array([1, 4, io.FIELD_RANK_CODE, 2], dtype="<u4"), 2 * 64,
     "vector field container must have 3 components"),
    (np.array([1, 4, 7, 1], dtype="<u4"), 64, "unknown rank code 7"),
    (np.array([1, 4, 1, 1], dtype="<u4"), 64, "rank 1 container must have 3 components"),
], ids=["truncated-header", "field-components", "rank-code", "rank-components"])
def test_malformed_header(tmp_path, header, n_values, match):
    path = tmp_path / "bad.f3rm"
    path.write_bytes(b"F3RM" + header.tobytes() + bytes(8 * n_values))
    with pytest.raises(FormatError, match=match):
        io.load(path)


@pytest.mark.parametrize("cut", [16, 3])  # whole values short, and a partial value
def test_truncated_body(tmp_path, grid16, rng, cut):
    path = tmp_path / "short.f3rm"
    io.save(path, f3.random_form0(grid16, 3, rng))
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    with pytest.raises(FormatError, match="body"):
        io.load(path)
