import numpy as np
import pytest

from asckit.cache import read_cache, write_cache
from asckit.errors import ConfigMismatch, IOFailure, ShapeMismatch


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "feat.ascf"
    records = [
        (rng.normal(size=(128, 305, 3)).astype(np.float32), i % 10, f"S{i}")
        for i in range(5)
    ]
    n = write_cache(path, "logmel", iter(records))
    assert n == 5
    back = read_cache(path)
    assert back.frontend == "logmel"
    assert back.n_samples == 5
    assert back.features.shape == (5, 128, 305, 3)
    for i, (feats, label, device) in enumerate(records):
        np.testing.assert_array_equal(back.features[i], feats)
        assert back.labels[i] == label
        assert back.devices[i] == device


def test_header_layout(tmp_path):
    path = tmp_path / "feat.ascf"
    write_cache(path, "cqt", [(np.zeros((4, 6, 3), np.float32), 2, "A")])
    raw = path.read_bytes()
    assert raw[:4] == b"ASCF"
    assert int.from_bytes(raw[4:6], "little") == 2  # version
    assert raw[6] == 1  # frontend id for cqt
    dims = np.frombuffer(raw[7:19], dtype="<u4")
    np.testing.assert_array_equal(dims, [4, 6, 3])
    assert int.from_bytes(raw[19:23], "little") == 1  # record count
    assert raw[23] == 2  # label
    assert raw[24] == 1 and raw[25:26] == b"A"
    assert len(raw) == 26 + 4 * 6 * 3 * 4


def test_mixed_shapes_rejected(tmp_path):
    with pytest.raises(ShapeMismatch):
        write_cache(
            tmp_path / "x.ascf",
            "gam",
            [
                (np.zeros((4, 6, 3), np.float32), 0, "A"),
                (np.zeros((4, 7, 3), np.float32), 0, "A"),
            ],
        )


def test_unknown_frontend_rejected(tmp_path):
    with pytest.raises(ConfigMismatch, match="^unknown frontend 'mfcc'$"):
        write_cache(tmp_path / "x.ascf", "mfcc", [(np.zeros((4, 6, 3), np.float32), 0, "A")])
    assert list(tmp_path.iterdir()) == []


def test_empty_rejected(tmp_path):
    with pytest.raises(IOFailure):
        write_cache(tmp_path / "x.ascf", "gam", [])


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "feat.ascf"
    write_cache(path, "logmel", [(np.zeros((8, 8, 3), np.float32), 1, "B")])
    (tmp_path / "trunc.ascf").write_bytes(path.read_bytes()[:-10])
    with pytest.raises(IOFailure):
        read_cache(tmp_path / "trunc.ascf")


def test_not_a_cache(tmp_path):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"garbage")
    with pytest.raises(IOFailure):
        read_cache(p)
