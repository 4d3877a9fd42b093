"""Readers and writers of the two binary formats: ASCW weights and ASCF caches."""

import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asckit import tensor as T
from asckit.cache import read_cache, write_cache
from asckit.errors import IOFailure

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
WEIGHTS = {
    "conv.w": np.arange(12, dtype=np.float32).reshape(2, 3, 2),
    "scalar": np.float32(7.5),
    "bn.running_mean": np.array([0.5, -1.0], np.float32),
}
RECORDS = [
    (np.full((2, 3, 1), 1.5, np.float32), 3, "A"),
    (np.arange(6, dtype=np.float32).reshape(2, 3, 1), 0, ""),
    (np.full((2, 3, 1), -2.0, np.float32), 255, "Gerät-s1"),
]


def _write_weights(tmp_path):
    path = tmp_path / "w.ascw"
    T.save_weights(path, WEIGHTS)
    return path, path.read_bytes()


def _write_cache(tmp_path):
    path = tmp_path / "c.ascf"
    write_cache(path, "gam", RECORDS)
    return path, path.read_bytes()


def _record_ends():
    """Byte offsets at which each ASCF record ends."""
    ends, pos = [], 19
    for feats, _, tag in RECORDS:
        pos += 2 + len(tag.encode("utf-8")) + feats.nbytes
        ends.append(pos)
    return ends


def _assert_names_path_and_offset(exc_info, path):
    message = str(exc_info.value)
    assert str(path) in message
    assert re.search(r"at offset \d+", message), message


def _flip(raw, flips):
    out = bytearray(raw)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


_flips = st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4)


class TestWeights:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "w.ascw"
        T.save_weights(path, {"ab": np.array([[1.0, 2.0]], np.float32)})
        expected = (b"ASCW" + struct.pack("<HI", 1, 1) + struct.pack("<H", 2) + b"ab"
                    + struct.pack("<B2I", 2, 1, 2) + struct.pack("<2f", 1.0, 2.0))
        assert path.read_bytes() == expected

    def test_every_truncation_rejected(self, tmp_path):
        _, raw = _write_weights(tmp_path)
        cut = tmp_path / "cut.ascw"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(IOFailure) as exc_info:
                T.load_weights(cut)
            _assert_names_path_and_offset(exc_info, cut)

    @FUZZ
    @given(flips=_flips)
    def test_flipped_bytes_load_or_raise_iofailure(self, tmp_path, flips):
        _, raw = _write_weights(tmp_path)
        bad = tmp_path / "bad.ascw"
        bad.write_bytes(_flip(raw, flips))
        try:
            named = T.load_weights(bad)
        except IOFailure as exc:
            assert str(bad) in str(exc) and re.search(r"at offset \d+", str(exc))
        else:
            assert all(a.dtype == np.float32 for a in named.values())

    def test_empty_payload_with_overflowing_dims_rejected(self, tmp_path):
        path = tmp_path / "w.ascw"
        path.write_bytes(b"ASCW" + struct.pack("<HIH", 1, 1, 1) + b"a"
                         + struct.pack("<B4I", 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1))
        with pytest.raises(IOFailure, match="too large") as exc_info:
            T.load_weights(path)
        _assert_names_path_and_offset(exc_info, path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path, raw = _write_weights(tmp_path)
        path.write_bytes(raw.replace(b"conv.w", b"conv.\xff"))
        with pytest.raises(IOFailure, match="not UTF-8") as exc_info:
            T.load_weights(path)
        _assert_names_path_and_offset(exc_info, path)

    def test_duplicate_name_rejected(self, tmp_path):
        path, raw = _write_weights(tmp_path)
        path.write_bytes(raw.replace(b"scalar", b"conv.w"))
        with pytest.raises(IOFailure, match="duplicate"):
            T.load_weights(path)

    @pytest.mark.parametrize("bad, error", [
        ({"a": np.zeros(2), "b": "not a number"}, ValueError),
        ({"a": np.zeros(2), "x" * 70000: np.zeros(1)}, IOFailure),
    ])
    def test_failed_save_keeps_earlier_file(self, tmp_path, bad, error):
        path, raw = _write_weights(tmp_path)
        with pytest.raises(error):
            T.save_weights(path, bad)
        assert path.read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestCache:
    def test_every_truncation_rejected_unless_at_a_record_boundary(self, tmp_path):
        _, raw = _write_cache(tmp_path)
        ends = _record_ends()
        assert ends[-1] == len(raw)
        cut = tmp_path / "cut.ascf"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            if n in ends:
                kept = ends.index(n) + 1
                back = read_cache(cut)
                assert back.n_samples == kept
                assert back.devices == [r[2] for r in RECORDS[:kept]]
                continue
            with pytest.raises(IOFailure) as exc_info:
                read_cache(cut)
            _assert_names_path_and_offset(exc_info, cut)

    @FUZZ
    @given(flips=_flips)
    def test_flipped_bytes_read_or_raise_iofailure(self, tmp_path, flips):
        _, raw = _write_cache(tmp_path)
        bad = tmp_path / "bad.ascf"
        bad.write_bytes(_flip(raw, flips))
        try:
            back = read_cache(bad)
        except IOFailure as exc:
            assert str(bad) in str(exc) and re.search(r"at offset \d+", str(exc))
        else:
            assert back.features.shape[0] == len(back.labels) == len(back.devices)

    def test_non_utf8_device_tag_rejected(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        path.write_bytes(raw.replace("Gerät".encode(), b"Ger\xff\xfet"))
        with pytest.raises(IOFailure, match="not UTF-8") as exc_info:
            read_cache(path)
        _assert_names_path_and_offset(exc_info, path)

    def test_header_without_records_rejected(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        path.write_bytes(raw[:19])
        with pytest.raises(IOFailure, match="no records"):
            read_cache(path)

    def test_unknown_frontend_id_rejected(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        path.write_bytes(raw[:6] + b"\x09" + raw[7:])
        with pytest.raises(IOFailure, match="frontend id 9 at offset 6"):
            read_cache(path)

    @pytest.mark.parametrize("label", [256, -1])
    def test_label_outside_a_byte_rejected_and_nothing_written(self, tmp_path, label):
        records = RECORDS[:1] + [(RECORDS[1][0], label, "B")]
        with pytest.raises(IOFailure, match="record 1"):
            write_cache(tmp_path / "c.ascf", "gam", records)
        assert list(tmp_path.iterdir()) == []

    def test_empty_writes_nothing(self, tmp_path):
        with pytest.raises(IOFailure):
            write_cache(tmp_path / "c.ascf", "gam", [])
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_keeps_earlier_cache(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        with pytest.raises(IOFailure):
            write_cache(path, "gam", RECORDS[:2] + [(RECORDS[2][0], 300, "C")])
        assert path.read_bytes() == raw
        assert read_cache(path).n_samples == len(RECORDS)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
