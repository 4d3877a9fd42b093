"""The training loop: one step bit-identical to the benchmark's, stream keys
apart from augmentation's, precise BN, the JSON lines of `fit`, its input
checks and the command line."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from asckit import models, train  # noqa: E402
from asckit import tensor as T  # noqa: E402
from asckit.augment import AugmentConfig, AugmentPipeline  # noqa: E402
from asckit.cache import read_cache, write_cache  # noqa: E402
from asckit.errors import ConfigMismatch, ShapeMismatch  # noqa: E402
from measure import Tracer  # noqa: E402

import workloads  # noqa: E402

RECORD_SHAPE = (models.INPUT_SHAPE[0], models.INPUT_SHAPE[1] + 5, models.INPUT_SHAPE[2])
STEP_KEYS = {"epoch", "step", "kl", "l2", "lr", "step_s", "peak_rss_mb"}
TRAIN_DEVICES, HELD_OUT_DEVICES = ("a", "b"), ("a", "b", "c")
EPOCHS = 2


def _records(seed, count, devices, labels=None, shape=RECORD_SHAPE):
    rng = np.random.default_rng(seed)
    for i in range(count):
        label = i % models.N_CLASSES if labels is None else labels[i]
        yield rng.standard_normal(shape, dtype=np.float32), label, devices[i % len(devices)]


def _cache(path, seed, count, devices, frontend="logmel", labels=None, shape=RECORD_SHAPE):
    write_cache(path, frontend, _records(seed, count, devices, labels, shape))
    return read_cache(path)


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    """An 8-record training cache and a 6-record held-out one, read back."""
    root = tmp_path_factory.mktemp("caches")
    return (_cache(root / "train.ascf", 1, 8, TRAIN_DEVICES),
            _cache(root / "held.ascf", 2, 6, HELD_OUT_DEVICES))


def _state_bytes(net):
    return {k: v.tobytes() for k, v in net.state_dict().items()}


@pytest.fixture(scope="module")
def runs(sets):
    """Two `fit` runs of red03 from the same seeds: (lines, state bytes, keys)
    each, the keys being the (calling module, key) of every `default_rng`
    call the run made."""
    out, real = [], np.random.default_rng
    for _ in range(2):
        keys = []
        net = models.build_network("red03", seed=5)
        np.random.default_rng = lambda key: (
            keys.append((sys._getframe(1).f_globals["__name__"], key)) or real(key))
        try:
            lines = list(train.fit(net, *sets, epochs=EPOCHS, seed=9))
        finally:
            np.random.default_rng = real
        out.append((lines, _state_bytes(net), keys))
    return out


def test_step_is_bit_identical_to_the_benchmark_step(tmp_path):
    # the benchmark's set-up runs its step once on the reference batch, from
    # a fresh red02 network, the reference augmentation seed and dropout RNG
    bench = workloads.Train(tmp_path, 1, Tracer())
    expected = bench.setup()
    net = models.build_network(workloads.VARIANT, seed=workloads.NET_SEED)
    pipeline = AugmentPipeline(AugmentConfig(rng_seed=workloads.REFERENCE_SEED))
    loss, probs, _ = train.step(net, pipeline, bench.reference, 0,
                                np.random.default_rng(workloads.REFERENCE_SEED))
    assert np.float64(loss).tobytes() == np.float64(expected["loss"]).tobytes()
    assert probs.dtype == expected["probs"].dtype
    assert probs.tobytes() == expected["probs"].tobytes()
    grads = [p.grad for p in net.params()]
    assert len(grads) == len(expected["grads"]) == len(bench.network.params())
    for g, want in zip(grads, expected["grads"]):
        assert g.dtype == want.dtype and g.tobytes() == want.tobytes()
    assert _state_bytes(net) == _state_bytes(bench.network)


def test_cross_entropy_is_the_batch_mean():
    probs = T.Tensor(np.array([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]], np.float32))
    target = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    loss = train.cross_entropy(probs, target)
    assert loss.dtype == np.float32
    want = -(math.log(0.5) + 0.5 * math.log(0.1) + 0.5 * math.log(0.8)) / 2
    assert float(loss.data) == pytest.approx(want, rel=1e-6)


def _state(key):
    return json.dumps(np.random.default_rng(key).bit_generator.state)


def test_stream_keys_match_no_augmentation_stream(runs, sets):
    # numpy drops trailing zeros of a key, so these keys collide
    assert _state([7, 2, 0]) == _state([7, 2]) and _state([7, 0, 0]) == _state(7)
    keys = runs[0][2]
    assert {m for m, _ in keys} == {"asckit.train", "asckit.augment"}
    ours = {_state(k) for m, k in keys if m == "asckit.train"}
    # each epoch's order and dropout, and the one recalibration key
    assert len(ours) == 2 * EPOCHS + 1
    augmentation = [list(map(int, k)) for m, k in keys if m == "asckit.augment"]
    every = [[9, e] for e in range(EPOCHS)] + [[9, e, i] for e in range(EPOCHS)
                                                for i in range(sets[0].n_samples)]
    assert sorted(every) == sorted(map(list, {tuple(k) for k in augmentation}))
    assert not ours & {_state(k) for k in every}
    # the same key layout for any seed of 32 bits
    for seed in (0, 2**32 - 1):
        for epoch in range(3):
            ours = {_state([seed, epoch, 0, k]) for k in (train._ORDER, train._DROPOUT)}
            every = [[seed, epoch]] + [[seed, epoch, i] for i in range(16)]
            assert not ours & {_state(k) for k in every}


def test_recalibrate_one_batch_gives_its_statistics(monkeypatch, sets):
    # K = 1: every buffer is then that batch's own mean and biased variance
    stats, bn_train = {}, T._batch_norm_train

    def spy(x, gamma, beta, running_mean, running_var):
        mu, var = T._standardize(x, (0, 1, 2), T.BN_EPS)[:2]
        stats[id(running_mean)], stats[id(running_var)] = mu[0], var[0]
        return bn_train(x, gamma, beta, running_mean, running_var)
    monkeypatch.setattr(T, "_batch_norm_train", spy)
    net = models.build_network("red03", seed=3)
    train.recalibrate(net, sets[0].features[: train.BATCH + 1])
    buffers = net.buffers()
    assert len(stats) == len(buffers)
    for name, buf in buffers.items():
        np.testing.assert_allclose(buf, stats[id(buf)], rtol=1e-15, atol=0, err_msg=name)


def test_recalibrate_ignores_what_the_buffers_held(sets):
    results = []
    for junk in (False, True):
        net = models.build_network("red03", seed=3)
        for buf in net.buffers().values() if junk else ():
            buf[...] = np.resize([np.nan, 1e30, -np.inf, 7.0], buf.shape)
        train.recalibrate(net, sets[0].features)
        results.append(_state_bytes(net))
    assert results[0] == results[1]


def test_recalibrate_rejects_less_than_a_batch(sets):
    net = models.build_network("red03", seed=3)
    before = _state_bytes(net)
    with pytest.raises(ShapeMismatch, match="at least 4 records, got 3"):
        train.recalibrate(net, sets[0].features[:3])
    assert _state_bytes(net) == before


@pytest.mark.parametrize("shape", [(4, 128, 200, 3), (4, 64, 300, 3)],
                         ids=["under-a-crop", "too-few-bins"])
def test_recalibrate_rejects_features_it_cannot_use(shape):
    net = models.build_network("red03", seed=3)
    before = {k: v.tobytes() for k, v in net.buffers().items()}
    with pytest.raises(ShapeMismatch, match="features to recalibrate on are"):
        train.recalibrate(net, np.zeros(shape, np.float32))
    assert {k: v.tobytes() for k, v in net.buffers().items()} == before


def test_fit_is_deterministic(runs):
    (lines_a, state_a, _), (lines_b, state_b, _) = runs
    assert state_a == state_b
    timing = {"step_s", "peak_rss_mb"}
    assert [{k: v for k, v in line.items() if k not in timing} for line in lines_a] == \
        [{k: v for k, v in line.items() if k not in timing} for line in lines_b]
    # the run moved every parameter and buffer off its seed value
    start = _state_bytes(models.build_network("red03", seed=5))
    assert all(state_a[k] != start[k] for k in start)


def test_fit_lines(runs, sets):
    lines = runs[0][0]
    json.loads(json.dumps(lines))
    steps = [line for line in lines if "kl" in line]
    epochs = [line for line in lines if "accuracy" in line]
    per_epoch = sets[0].n_samples // train.BATCH
    assert len(steps) == EPOCHS * per_epoch and len(epochs) == EPOCHS
    assert [line["epoch"] for line in lines] == [e for e in range(EPOCHS)
                                                 for _ in range(per_epoch + 1)]
    assert [line["step"] for line in steps] == list(range(len(steps)))
    for line in steps:
        assert set(line) == STEP_KEYS
        assert all(math.isfinite(v) for v in line.values())
        assert line["lr"] == train.LEARNING_RATE
        assert line["kl"] >= -1e-6 and line["l2"] > 0 and line["peak_rss_mb"] > 0
    held_out = sets[1]
    for line in epochs:
        assert set(line) == {"epoch", "accuracy", "count"}
        assert sorted(line["accuracy"]) == sorted(line["count"]) == list(HELD_OUT_DEVICES)
        assert sum(line["count"].values()) == held_out.n_samples
        assert all(0.0 <= a <= 1.0 for a in line["accuracy"].values())


def test_l2_is_the_decay_term_at_the_step_weights(sets):
    net = models.build_network("red03", seed=5)
    decayed = [p.data.astype(np.float64) for p in net.params() if p.l2_included]
    first = next(train.fit(net, *sets, epochs=1, seed=9))
    want = train.WEIGHT_DECAY / 2 * sum(np.sum(w * w) for w in decayed)
    assert first["l2"] == pytest.approx(want, rel=1e-12)


def _fit_fault(sets, **override):
    net = models.build_network("red03", seed=5)
    before = _state_bytes(net)
    args = {"train_set": sets[0], "held_out": sets[1], "epochs": 1, "seed": 0} | override
    try:
        train.fit(net, **args)
    finally:
        assert _state_bytes(net) == before


@pytest.mark.parametrize("override, message", [
    ({"epochs": 0}, "epochs must be an integer of at least 1, got 0"),
    ({"epochs": 1.0}, "epochs must be an integer"),
    ({"epochs": True}, "epochs must be an integer"),
    ({"seed": -1}, "seed must be an integer of at least 0, got -1"),
    ({"seed": "3"}, "seed must be an integer"),
    ({"seed": 2**32}, "seed must be below 2\\*\\*32"),
], ids=["epochs-0", "epochs-float", "epochs-bool", "seed-negative", "seed-str", "seed-wide"])
def test_fit_rejects_bad_settings(sets, override, message):
    with pytest.raises(ConfigMismatch, match=message):
        _fit_fault(sets, **override)


def test_fit_rejects_sets_of_different_front_ends(sets, tmp_path):
    cqt = _cache(tmp_path / "cqt.ascf", 2, 4, HELD_OUT_DEVICES, frontend="cqt")
    with pytest.raises(ConfigMismatch, match="train set is logmel, held-out set is cqt"):
        _fit_fault(sets, held_out=cqt)


@pytest.mark.parametrize("which", ["train_set", "held_out"])
def test_fit_rejects_a_label_past_the_classes(sets, tmp_path, which):
    # ASCF holds labels 0..255; one-hot rows have N_CLASSES entries
    bad = _cache(tmp_path / "bad.ascf", 3, 5, TRAIN_DEVICES, labels=[1, 2, 3, 12, 4])
    name = {"train_set": "train", "held_out": "held-out"}[which]
    with pytest.raises(ShapeMismatch, match=f"^{name} record 3: label 12 is not below 10$"):
        _fit_fault(sets, **{which: bad})


def test_fit_rejects_a_train_set_under_one_batch(sets, tmp_path):
    small = _cache(tmp_path / "small.ascf", 3, 3, TRAIN_DEVICES)
    with pytest.raises(ShapeMismatch, match="holds 3 records, fewer than one batch of 4"):
        _fit_fault(sets, train_set=small)


@pytest.mark.parametrize("which", ["train_set", "held_out"])
def test_fit_rejects_records_under_a_crop(sets, tmp_path, which):
    # `_evaluate`'s centre crop of a held-out set would raise only after the
    # epoch and the recalibration had moved every entry
    short = _cache(tmp_path / "short.ascf", 3, 8, TRAIN_DEVICES,
                   shape=(models.INPUT_SHAPE[0], 200, models.INPUT_SHAPE[2]))
    name = {"train_set": "train", "held_out": "held-out"}[which]
    with pytest.raises(ShapeMismatch, match=rf"^{name} features are \(8, 128, 200, 3\)"):
        _fit_fault(sets, **{which: short})


def test_main_rejects_a_weights_path_in_no_directory(tmp_path, capsys):
    _cache(tmp_path / "train.ascf", 1, 4, TRAIN_DEVICES)
    _cache(tmp_path / "held.ascf", 2, 4, HELD_OUT_DEVICES)
    with pytest.raises(SystemExit) as info:
        train.main([str(tmp_path / "train.ascf"), str(tmp_path / "held.ascf"),
                    str(tmp_path / "no_such_dir" / "w.ascw"), "--epochs", "1"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "no_such_dir" in err and "does not exist" in err


def test_main_prints_json_lines_and_saves_the_weights(tmp_path, capsys):
    _cache(tmp_path / "train.ascf", 1, 4, TRAIN_DEVICES)
    _cache(tmp_path / "held.ascf", 2, 4, HELD_OUT_DEVICES)
    out = tmp_path / "w.ascw"
    train.main([str(tmp_path / "train.ascf"), str(tmp_path / "held.ascf"), str(out),
                "--variant", "red03", "--epochs", "1", "--seed", "2"])
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert [set(line) for line in lines] == [STEP_KEYS, {"epoch", "accuracy", "count"}]
    assert sorted(lines[1]["count"]) == list(HELD_OUT_DEVICES)
    loaded = models.build_network("red03", seed=0)
    loaded.load(out)
    assert _state_bytes(loaded) != _state_bytes(models.build_network("red03", seed=2))
