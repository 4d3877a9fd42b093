"""Readers and writers of the two binary formats, ASCW weights and ASCF
caches, and the atomic writer under every file the toolkit writes."""

import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from asckit import models
from asckit import tensor as T
from asckit.cache import read_cache, write_cache
from asckit.container import atomic_write
from asckit.errors import ConfigMismatch, IOFailure, ShapeMismatch
from byte_fuzz import FUZZ, assert_names_path_and_offset, flip, flips

WEIGHTS = {
    "conv.w": np.arange(12, dtype=np.float32).reshape(2, 3, 2),
    "scalar": np.float32(7.5),
    "bn.running_mean": np.array([0.1, -1.0], np.float64),
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


@pytest.mark.parametrize("write, read, magic, version",
                         [(_write_weights, T.load_weights, "ASCW", 1),
                          (_write_cache, read_cache, "ASCF", 1),
                          (_write_cache, read_cache, "ASCF", 2)],
                         ids=["ascw-v1", "ascf-v1", "ascf-v2"])
def test_old_version_rejected(tmp_path, write, read, magic, version):
    # each reader reads only the version its writer writes
    path, raw = write(tmp_path)
    path.write_bytes(raw[:4] + struct.pack("<H", version) + raw[6:])
    with pytest.raises(IOFailure, match=re.escape(
            f"{path}: unsupported {magic} version {version} at offset 4")):
        read(path)


class TestWeights:
    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "w.ascw"
        T.save_weights(path, {"ab": np.array([[1.0, 2.0]], np.float32),
                              "c": np.array([0.1], np.float64)})
        expected = (b"ASCW" + struct.pack("<HI", 2, 2)
                    + struct.pack("<H", 2) + b"ab" + struct.pack("<BB2I", 2, 0, 1, 2)
                    + struct.pack("<2f", 1.0, 2.0)
                    + struct.pack("<H", 1) + b"c" + struct.pack("<BBI", 1, 1, 1)
                    + struct.pack("<d", 0.1))
        assert path.read_bytes() == expected

    def test_unknown_dtype_code_names_path_and_offset(self, tmp_path):
        path, raw = _write_weights(tmp_path)
        at = 4 + 6 + 2 + len("conv.w") + 1  # the first entry's dtype code
        path.write_bytes(raw[:at] + b"\x02" + raw[at + 1 :])
        with pytest.raises(IOFailure, match=re.escape(
                f"{path}: conv.w: unknown dtype code 2 at offset {at}")):
            T.load_weights(path)

    def test_every_truncation_rejected(self, tmp_path):
        _, raw = _write_weights(tmp_path)
        cut = tmp_path / "cut.ascw"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(IOFailure) as exc_info:
                T.load_weights(cut)
            assert_names_path_and_offset(exc_info, cut)

    @FUZZ
    @given(flips=flips)
    def test_flipped_bytes_load_or_raise_iofailure(self, tmp_path, flips):
        _, raw = _write_weights(tmp_path)
        bad = tmp_path / "bad.ascw"
        bad.write_bytes(flip(raw, flips))
        try:
            named = T.load_weights(bad)
        except IOFailure as exc:
            assert str(bad) in str(exc) and re.search(r"at offset \d+", str(exc))
        else:
            assert all(a.dtype in (np.float32, np.float64) for a in named.values())

    def test_empty_payload_with_overflowing_dims_rejected(self, tmp_path):
        path = tmp_path / "w.ascw"
        path.write_bytes(b"ASCW" + struct.pack("<HIH", 2, 1, 1) + b"a"
                         + struct.pack("<BB4I", 4, 0, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1))
        with pytest.raises(IOFailure, match="too large") as exc_info:
            T.load_weights(path)
        assert_names_path_and_offset(exc_info, path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path, raw = _write_weights(tmp_path)
        path.write_bytes(raw.replace(b"conv.w", b"conv.\xff"))
        with pytest.raises(IOFailure, match="not UTF-8") as exc_info:
            T.load_weights(path)
        assert_names_path_and_offset(exc_info, path)

    @pytest.mark.parametrize("extra", [bytes(100), b"junk"], ids=["zeros", "junk"])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        # a network's weights with bytes appended do not load
        path = tmp_path / "w.ascw"
        net = models.build_network("red03")
        net.save(path)
        raw = path.read_bytes()
        path.write_bytes(raw + extra)
        with pytest.raises(IOFailure, match=f"{path}: {len(extra)} bytes after the last of "
                                            f"{len(net.state_dict())} entries at offset "
                                            f"{len(raw)}"):
            net.load(path)

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
    def test_roundtrip(self, tmp_path):
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

    def test_header_layout(self, tmp_path):
        path = tmp_path / "feat.ascf"
        feats = np.arange(2 * 4 * 6 * 3, dtype=np.float32).reshape(2, 4, 6, 3)
        write_cache(path, "cqt", [(feats[0], 2, "A"), (feats[1], 7, "bc")])
        raw = path.read_bytes()
        assert raw[:4] == b"ASCF"
        assert int.from_bytes(raw[4:6], "little") == 3  # version
        assert raw[6] == 1 and raw[7] == 0  # frontend id for cqt, pad
        dims = np.frombuffer(raw[8:20], dtype="<u4")
        np.testing.assert_array_equal(dims, [4, 6, 3])
        assert int.from_bytes(raw[20:24], "little") == 2  # record count
        block = 24 + feats.nbytes
        assert raw[24:block] == feats.tobytes()  # both records, then the tables
        assert raw[block : block + 2] == bytes([2, 7])  # labels
        assert raw[block + 2 :] == b"\x01A\x02bc"  # length-prefixed device tags

    def test_features_are_an_aligned_read_only_view(self, tmp_path):
        path = tmp_path / "c.ascf"
        write_cache(path, "gam", [(np.full((128, 64, 3), k, np.float32), k, "A")
                                  for k in range(16)])
        size = path.stat().st_size
        tracemalloc.start()
        try:
            back = read_cache(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        flags = back.features.flags
        assert not flags.writeable and flags.aligned and not flags.owndata
        assert peak <= 1.1 * size, (peak, size)

    def test_read_work_bounded_by_file_size(self, tmp_path, monkeypatch):
        # F = 0 makes every record empty, so only the tables can bound the loops
        path = tmp_path / "c.ascf"
        path.write_bytes(b"ASCF" + struct.pack("<HBx4I", 3, 0, 0, 3, 1, 2**32 - 1))
        monkeypatch.setattr(np, "isfinite", lambda a: pytest.fail("scan ran before the tables"))
        with pytest.raises(IOFailure, match=re.escape(
                f"{path}: truncated label table: need {2**32 - 1} bytes, 0 left at offset 24")):
            read_cache(path)

    def test_mixed_shapes_rejected(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_cache(
                tmp_path / "x.ascf",
                "gam",
                [
                    (np.zeros((4, 6, 3), np.float32), 0, "A"),
                    (np.zeros((4, 7, 3), np.float32), 0, "A"),
                ],
            )

    def test_unknown_frontend_rejected(self, tmp_path):
        with pytest.raises(ConfigMismatch, match="^unknown frontend 'mfcc'$"):
            write_cache(tmp_path / "x.ascf", "mfcc", [(np.zeros((4, 6, 3), np.float32), 0, "A")])
        assert list(tmp_path.iterdir()) == []

    def test_not_a_cache(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"garbage")
        with pytest.raises(IOFailure):
            read_cache(p)

    def test_every_truncation_rejected(self, tmp_path):
        _, raw = _write_cache(tmp_path)
        cut = tmp_path / "cut.ascf"
        for n in range(len(raw)):
            cut.write_bytes(raw[:n])
            with pytest.raises(IOFailure) as exc_info:
                read_cache(cut)
            assert_names_path_and_offset(exc_info, cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        # as from two caches concatenated
        path, raw = _write_cache(tmp_path)
        path.write_bytes(raw + raw)
        with pytest.raises(IOFailure, match=f"{len(raw)} bytes after the last of 3 "
                                            f"device tags at offset {len(raw)}"):
            read_cache(path)

    @FUZZ
    @given(flips=flips)
    def test_flipped_bytes_read_or_raise_iofailure(self, tmp_path, flips):
        _, raw = _write_cache(tmp_path)
        bad = tmp_path / "bad.ascf"
        bad.write_bytes(flip(raw, flips))
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
        assert_names_path_and_offset(exc_info, path)

    def test_header_without_records_rejected(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        path.write_bytes(raw[:20] + struct.pack("<I", 0))
        with pytest.raises(IOFailure, match="no records at offset 24"):
            read_cache(path)

    def test_unknown_frontend_id_rejected(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        path.write_bytes(raw[:6] + b"\x09" + raw[7:])
        with pytest.raises(IOFailure, match="frontend id 9 at offset 6"):
            read_cache(path)

    @pytest.mark.parametrize("label", [256, -1, 3.7, True])
    def test_label_outside_a_byte_rejected_and_nothing_written(self, tmp_path, label):
        # a fraction or a bool is not a class index, though int() would take it
        records = RECORDS[:1] + [(RECORDS[1][0], label, "B")]
        with pytest.raises(IOFailure, match="record 1"):
            write_cache(tmp_path / "c.ascf", "gam", records)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_record_rejected_and_nothing_written(self, tmp_path, value):
        bad = RECORDS[1][0].copy()
        bad[1, 2, 0] = value
        with pytest.raises(IOFailure, match="record 1: features hold a non-finite value"):
            write_cache(tmp_path / "c.ascf", "gam", [RECORDS[0], (bad, 0, "B")])
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_payload_names_path_and_record_offset(self, tmp_path):
        path, raw = _write_cache(tmp_path)
        payload = raw.index(RECORDS[1][0].tobytes())
        value = payload + 4 * 3
        path.write_bytes(raw[:value] + struct.pack("<f", np.nan) + raw[value + 4 :])
        with pytest.raises(IOFailure, match=re.escape(
                f"{path}: record 1 payload holds a non-finite value at offset {payload}")):
            read_cache(path)

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


class TestAtomicWrite:
    def test_flushed_and_synced_before_replace(self, tmp_path, monkeypatch):
        # a power loss cannot be simulated in a test; this checks the order of calls
        events = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: events.append(
            ("fsync", fd, os.fstat(fd).st_size)) or fsync(fd))
        monkeypatch.setattr(os, "replace", lambda src, dst: events.append(
            ("replace", src, dst)) or replace(src, dst))
        path = tmp_path / "out.bin"
        with atomic_write(path) as fh:
            fh.write(b"abc")
            fd, tmp = fh.fileno(), fh.name
        assert events == [("fsync", fd, 3), ("replace", tmp, str(path))]
        assert path.read_bytes() == b"abc"
