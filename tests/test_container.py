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
from byte_fuzz import (
    FUZZ,
    READERS,
    RECORDS,
    Holder,
    assert_every_truncation_rejected,
    assert_flipped_bytes_read_or_rejected,
    assert_names_path_and_offset,
    entry_offset,
    flips,
    load_three_entries,
    three_entries,
)


def _write_weights(tmp_path):
    path = tmp_path / "w.ascw"
    three_entries().save(path)
    return path, path.read_bytes()


def _write_cache(tmp_path):
    path = tmp_path / "c.ascf"
    write_cache(path, "gam", RECORDS)
    return path, path.read_bytes()


@pytest.mark.parametrize("write, read, magic, version",
                         [(_write_weights, load_three_entries, "ASCW", 1),
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


def _rejected_unchanged(path, message):
    """Loading `path` into the three-entry module raises `message` exactly,
    and leaves the module as it was built."""
    model = three_entries()
    with pytest.raises(IOFailure, match=f"^{re.escape(f'{path}: {message}')}$"):
        model.load(path)
    for name, value in three_entries().state_dict().items():
        np.testing.assert_array_equal(model.state_dict()[name], value, err_msg=name)


class TestWeights:
    """ASCW files through `Module.save` and `Module.load`, on the three-entry
    module; a full network's files are in `test_models.TestSaveLoad`."""

    def test_exact_bytes(self, tmp_path):
        path = tmp_path / "w.ascw"
        Holder([T.Parameter(np.array([[1.0, 2.0]], np.float32), "ab"),
                T.Parameter(np.array([0.1], np.float64), "c")]).save(path)
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
        _rejected_unchanged(path, f"conv.w: dtype code 2, the model's is 0 at offset {at}")

    def test_dtype_code_must_be_the_models(self, tmp_path):
        # the float64 buffer stored as float32: the same entry size as a float32 pair
        path, raw = _write_weights(tmp_path)
        at = entry_offset(raw, "bn.running_mean") + 2 + len("bn.running_mean") + 1
        path.write_bytes(raw[:at] + b"\x00" + raw[at + 1 :-8])
        _rejected_unchanged(path, f"bn.running_mean: dtype code 0, the model's is 1 "
                                  f"at offset {at}")

    def test_every_truncation_rejected(self, tmp_path):
        assert_every_truncation_rejected(tmp_path, READERS["ascw"])

    @FUZZ
    @given(flips=flips)
    def test_flipped_bytes_load_or_raise_iofailure(self, tmp_path, flips):
        assert_flipped_bytes_read_or_rejected(tmp_path, READERS["ascw"], flips)

    def test_empty_payload_with_overflowing_dims_rejected(self, tmp_path):
        # dims that no payload could hold fail the model's shape before any read
        path, raw = _write_weights(tmp_path)
        dims = 4 + 6 + 2 + len("conv.w") + 2
        path.write_bytes(raw[:dims] + struct.pack("<3I", 0, 2**32 - 1, 2**32 - 1)
                         + raw[dims + 12 :])
        _rejected_unchanged(path, f"conv.w: file shape (0, {2**32 - 1}, {2**32 - 1}) != "
                                  f"model shape (2, 3, 2) at offset 10")

    def test_non_utf8_name_rejected(self, tmp_path):
        path, raw = _write_weights(tmp_path)
        path.write_bytes(raw.replace(b"conv.w", b"conv.\xff"))
        _rejected_unchanged(path, "name is not UTF-8 at offset 12")

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
        _rejected_unchanged(path, f"duplicate entry 'conv.w' at offset "
                                  f"{entry_offset(raw, 'scalar')}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_names_entry_and_offset(self, tmp_path, value):
        path, raw = _write_weights(tmp_path)
        payload = entry_offset(raw, "conv.w") + 2 + len("conv.w") + 2 + 12
        at = payload + 4 * 5
        path.write_bytes(raw[:at] + struct.pack("<f", value) + raw[at + 4 :])
        _rejected_unchanged(path, f"conv.w payload holds a non-finite value at offset {payload}")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_not_saved(self, tmp_path, value):
        path, raw = _write_weights(tmp_path)
        model = three_entries()
        model.entries[0].data[1, 2, 0] = value
        with pytest.raises(IOFailure, match=f"^{re.escape(str(path))}: conv.w holds a "
                                            f"non-finite value$"):
            model.save(path)
        assert path.read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("bad, error", [
        ({"data": np.array("not a number")}, ValueError),
        ({"name": "x" * 70000}, IOFailure),
    ])
    def test_failed_save_keeps_earlier_file(self, tmp_path, bad, error):
        # each edit is to the 0-d parameter
        path, raw = _write_weights(tmp_path)
        model = three_entries()
        for attr, value in bad.items():
            setattr(model.entries[1], attr, value)
        with pytest.raises(error):
            model.save(path)
        assert path.read_bytes() == raw
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_name_without_utf8_form_not_saved(self, tmp_path):
        # a lone surrogate is a str that UTF-8 cannot encode
        path = tmp_path / "w.ascw"
        model = Holder([T.Parameter(np.ones(2, np.float32), "a\ud800")])
        with pytest.raises(IOFailure, match=f"^{re.escape(str(path))}: entry name "
                                            r"'a\\ud800' has no UTF-8 form$"):
            model.save(path)
        assert list(tmp_path.iterdir()) == []


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
        assert_every_truncation_rejected(tmp_path, READERS["ascf"])

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
        assert_flipped_bytes_read_or_rejected(tmp_path, READERS["ascf"], flips)

    def test_empty_block_with_overflowing_dims_rejected(self, tmp_path):
        path = tmp_path / "c.ascf"
        path.write_bytes(b"ASCF" + struct.pack("<HBx4I", 3, 0, 0, 2**32 - 1, 2**32 - 1, 1))
        with pytest.raises(IOFailure, match="feature block: shape .* too large at offset 24"):
            read_cache(path)

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

    @pytest.mark.parametrize("features, device, error, message", [
        (np.zeros((2, 3), np.float32), "B", ShapeMismatch, r"expected F x T x C features"),
        (RECORDS[1][0], "é" * 128, IOFailure, r"record 1: device tag too long"),
        (RECORDS[1][0], None, IOFailure, r"record 1: device tag None is not a string"),
        (RECORDS[1][0], "\ud800", IOFailure, r"record 1: device tag '\\ud800' has no UTF-8 form"),
    ], ids=["features-2d", "tag-256-bytes", "tag-none", "tag-lone-surrogate"])
    def test_malformed_record_rejected_and_nothing_written(self, tmp_path, features, device,
                                                           error, message):
        # a tag's length is one byte, so its UTF-8 form holds at most 255 bytes;
        # str() would store None as "None", and a lone surrogate has no UTF-8 form
        with pytest.raises(error, match=message):
            write_cache(tmp_path / "c.ascf", "gam", [RECORDS[0], (features, 0, device)])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e39])
    def test_non_finite_record_rejected_and_nothing_written(self, tmp_path, value):
        # a float64 record: 1e39 is finite there, but not once cast to float32
        bad = RECORDS[1][0].astype(np.float64)
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
