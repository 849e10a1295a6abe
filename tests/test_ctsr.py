import numpy as np
import pytest

from concerto.ctsr import CtsrError, load_ctsr, save_ctsr


@pytest.mark.parametrize("arr", [
    np.random.default_rng(0).normal(size=(3, 4, 5)),
    np.arange(10, dtype=np.int64),
    np.float32(np.random.default_rng(1).normal(size=(7,))) * np.ones(7, dtype=np.float32),
    np.array(3.5),
])
def test_round_trip(tmp_path, arr):
    p = tmp_path / "x.ctsr"
    save_ctsr(p, arr)
    back = load_ctsr(p)
    assert back.dtype == arr.dtype
    np.testing.assert_array_equal(back, arr)


def test_nan_payload_round_trip(tmp_path):
    arr = np.array([[1.0, np.nan], [np.inf, -0.0]])
    p = tmp_path / "d.ctsr"
    save_ctsr(p, arr)
    back = load_ctsr(p)
    np.testing.assert_array_equal(np.isnan(back), np.isnan(arr))
    assert back[1, 0] == np.inf


def test_missing_file(tmp_path):
    with pytest.raises(CtsrError, match="missing"):
        load_ctsr(tmp_path / "nope.ctsr")


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.ctsr"
    p.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(CtsrError, match="magic"):
        load_ctsr(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.ctsr"
    save_ctsr(p, np.zeros((4, 4)))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(CtsrError, match="payload"):
        load_ctsr(p)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(CtsrError, match="dtype"):
        save_ctsr(tmp_path / "c.ctsr", np.zeros(3, dtype=np.complex128))


def test_int32_refused_not_widened(tmp_path):
    with pytest.raises(CtsrError, match="unsupported dtype int32"):
        save_ctsr(tmp_path / "i.ctsr", np.arange(3, dtype=np.int32))
    assert not (tmp_path / "i.ctsr").exists()
