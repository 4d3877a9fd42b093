import json
from pathlib import Path

import numpy as np
import pytest

from asckit import models
from asckit import tensor as T
from asckit.errors import ConfigMismatch, ShapeMismatch, UnknownVariant, WeightsNotLoaded

VARIANTS = ["baseline", "red01", "red02", "red03"]
# Parameter and buffer (name, shape) lists in model order, recorded from the
# hand-written params()/buffers() methods that the Module walk replaced.
EXPECTED = json.loads((Path(__file__).parent / "data" / "model_names.json").read_text())
# model kind -> the variant the save/load and duplicate-name tests build
KINDS = {"network": "red03"}


@pytest.fixture(scope="module")
def nets():
    return {v: models.build_network(v, seed=0) for v in VARIANTS}


def _build(kind, seed):
    return models.build_network(KINDS[kind], seed=seed)


def _snapshot(model):
    return {k: np.array(v, copy=True) for k, v in model.state_dict().items()}


def _assert_state_equal(a, b):
    assert list(a) == list(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


class TestBudgets:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_within_tolerance(self, nets, variant):
        n = models.count_parameters(nets[variant])
        budget = models.PARAM_BUDGETS[variant]
        assert abs(n - budget) / budget <= models.PARAM_TOLERANCE

    def test_strict_ordering(self, nets):
        counts = [models.count_parameters(nets[v]) for v in VARIANTS]
        assert counts == sorted(counts, reverse=True)
        assert len(set(counts)) == len(counts)


class TestForward:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rows_on_the_simplex(self, nets, variant, mode):
        x = np.random.default_rng(0).normal(size=(2,) + models.INPUT_SHAPE)
        out = nets[variant].forward(x, mode, rng=np.random.default_rng(1)).data
        assert out.shape == (2, models.N_CLASSES)
        assert np.isfinite(out).all() and (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-5)

    def test_unknown_variant_rejected(self):
        with pytest.raises(UnknownVariant) as info:
            models.build_network("red04")
        assert "red04" in str(info.value)
        for variant in VARIANTS:
            assert repr(variant) in str(info.value)


class TestPredict:
    def test_zero_rows(self, nets):
        out = models.predict(nets["red03"], np.zeros((0,) + models.INPUT_SHAPE))
        assert out.shape == (0, models.N_CLASSES)
        assert out.dtype == np.float64

    def test_zero_rows_of_the_wrong_shape_rejected(self, nets):
        with pytest.raises(ShapeMismatch, match="got"):
            models.predict(nets["red03"], np.zeros((0, 128, 255, 3)))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, nets, batch_size):
        x = np.zeros((1,) + models.INPUT_SHAPE)
        with pytest.raises(ConfigMismatch, match=f"got {batch_size}"):
            models.predict(nets["red03"], x, batch_size=batch_size)


class TestNames:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_network_params_and_state_dict_keys(self, nets, variant):
        net = nets[variant]
        expected = EXPECTED[variant]
        assert [[p.name, list(p.shape)] for p in net.params()] == expected["params"]
        assert [[k, list(v.shape)] for k, v in net.buffers().items()] == expected["buffers"]
        assert list(net.state_dict()) == [n for n, _ in expected["params"] + expected["buffers"]]

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_duplicate_name_rejected(self, tmp_path, kind):
        model = _build(kind, seed=0)
        first, second = model.params()[:2]
        second.name = first.name
        with pytest.raises(ConfigMismatch, match="duplicate"):
            model.params()
        with pytest.raises(ConfigMismatch, match="duplicate"):
            model.save(tmp_path / "w.ascw")
        assert list(tmp_path.iterdir()) == []

    def test_summary_rows_add_up(self, nets):
        rows = models.network_summary(nets["red03"])
        assert [r[0] for r in rows] == ["block0", "block1", "block2", "block3", "head", "total"]
        assert sum(r[2] for r in rows[:-1]) == rows[-1][2]


class TestDeterminism:
    def test_same_seed_same_weights(self):
        _assert_state_equal(models.build_network("red03", seed=5).state_dict(),
                            models.build_network("red03", seed=5).state_dict())

    def test_different_seed_different_weights(self):
        a = models.build_network("red03", seed=5).params()
        b = models.build_network("red03", seed=6).params()
        assert not np.array_equal(a[0].data, b[0].data)

    def test_same_seed_same_predictions(self):
        x = np.random.default_rng(0).normal(size=(2,) + models.INPUT_SHAPE)
        np.testing.assert_array_equal(
            models.predict(models.build_network("red03", seed=5), x),
            models.predict(models.build_network("red03", seed=5), x))


class TestSaveLoad:
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_roundtrip(self, tmp_path, kind):
        src = _build(kind, seed=3)
        rng = np.random.default_rng(1)
        for buf in src.buffers().values():  # the file stores float32
            buf[...] = rng.uniform(0.5, 1.5, size=buf.shape).astype(np.float32)
        src.save(tmp_path / "a.ascw")
        dst = _build(kind, seed=4)
        dst.load(tmp_path / "a.ascw")
        _assert_state_equal(dst.state_dict(), src.state_dict())
        assert all(p.data.dtype == np.float32 for p in dst.params())
        assert all(b.dtype == np.float64 for b in dst.buffers().values())
        dst.save(tmp_path / "b.ascw")
        assert (tmp_path / "b.ascw").read_bytes() == (tmp_path / "a.ascw").read_bytes()

    def test_loaded_network_predicts_the_same(self, tmp_path):
        src = models.build_network("red03", seed=7)
        src.save(tmp_path / "w.ascw")
        dst = models.build_network("red03", seed=8)
        dst.load(tmp_path / "w.ascw")
        x = np.random.default_rng(0).normal(size=(2,) + models.INPUT_SHAPE)
        np.testing.assert_array_equal(models.predict(dst, x), models.predict(src, x))

    @pytest.mark.parametrize("kind, edit", [
        ("network", "drop_last_param"),
        ("network", "drop_last_buffer"),
        ("network", "wrong_param_shape"),
        ("network", "wrong_buffer_shape"),
    ])
    def test_bad_file_rejected_and_model_unchanged(self, tmp_path, kind, edit):
        model = _build(kind, seed=3)
        other = _build(kind, seed=9)
        for buf in other.buffers().values():
            buf += 0.5
        named = dict(other.state_dict())
        param_names = [p.name for p in model.params()]
        buffer_names = list(model.buffers())
        if edit == "drop_last_param":
            del named[param_names[-1]]
        elif edit == "drop_last_buffer":
            del named[buffer_names[-1]]
        elif edit == "wrong_param_shape":
            first = param_names[0]
            named[first] = np.zeros((8,) + named[first].shape[1:], np.float32)
        else:
            named[buffer_names[-1]] = np.zeros(1)
        path = tmp_path / "bad.ascw"
        T.save_weights(path, named)
        before = _snapshot(model)
        with pytest.raises(WeightsNotLoaded):
            model.load(path)
        _assert_state_equal(model.state_dict(), before)
