"""Train a network: the loss, one SGD step, precise BN and the epoch loop.

The settings are three module constants, each with one value in use:
`LEARNING_RATE` = 0.01, `WEIGHT_DECAY` = 1e-3 on the `l2_included`
parameters (kernels and matrices), and `BATCH` = 4 examples per step.

`step` augments a batch (`augment.AugmentPipeline`), runs the train
forward, takes `cross_entropy` against the mixed label rows, clears every
gradient (`tensor.zero_grads`), runs `tensor.backward` and updates each
parameter that got a gradient by w -= LEARNING_RATE * (g + WEIGHT_DECAY * w),
the decay term only where `l2_included`.

`fit` runs epochs over a `cache.FeatureSet`. Epoch e cuts the order
`default_rng([seed, e, 0, 1]).permutation(N)` into consecutive groups of
`BATCH` dataset indices, drops a remainder, and runs one `step` on each;
the train forwards' dropout draws from `default_rng([seed, e, 0, 2])`, and
augmentation uses `seed` as its `rng_seed`. numpy's `SeedSequence` ignores
trailing zero words of a key, so augmentation's own keys [seed, e, i] and
[seed, e] are sequences of at most three 32-bit words once trailing zeros
are dropped (seed, epoch and dataset index all lie below 2**32). The keys
here have four words and a last word of 1, 2 or 3, so none of them is an
augmentation key of the run: not its mixup stream and not any sample's.
That is why `fit` takes a seed below 2**32 only.

Each step yields one JSON-ready line:
    epoch, step       the epoch and the step's number counted over all epochs;
    kl                the loss less the mixed targets' entropy per example,
                      with 0 log 0 = 0 (mixup: Zhang et al., arXiv 1710.09412);
    l2                WEIGHT_DECAY / 2 * sum of |w|^2 over the l2_included
                      parameters, at the weights the gradient is taken at;
    lr                LEARNING_RATE;
    step_s            the step's wall time in seconds;
    peak_rss_mb       the process's peak resident set so far, `ru_maxrss` (KiB
                      on Linux) * 1024 bytes, in MB of 10**6 bytes.
After each epoch `recalibrate` recomputes the BN running buffers over the
clean training set, and one more line gives, for each device tag of the
held-out set, the accuracy of `models.predict` on its centre crops and the
record count: {"epoch", "accuracy": {tag: ...}, "count": {tag: ...}}.

`recalibrate` is precise BN (Wu and Johnson, arXiv 2105.07576) with the
engine's fixed momentum m = `tensor.BN_MOMENTUM`. It zeroes every running
buffer, runs K = floor(N / BATCH) train-mode forwards of consecutive
centre-cropped batches under `tensor.no_grad`, with no mask and no mixup,
and divides each buffer by 1 - m**K. A buffer then holds
    sum_k (1 - m) m**(K - k) s_k / (1 - m**K),   k = 1..K,
the exponentially weighted mean of the K batch statistics s_k (the batch
mean, or the biased batch variance), whose weights sum to 1, whatever the
buffers held before. Dropout stays on in those forwards, as in any
train-mode forward; it draws from the fixed key [0, 0, 0, 3], so a
recalibration is a function of the weights and the features. In a small
red03 run it raised the recalibrated variances after block 0 by a median
1-10% per BN against forwards with no dropout; block 0's BNs, which no
dropout precedes, did not move.

`python -m asckit.train TRAIN.ascf HELD_OUT.ascf OUT.ascw --variant V
--epochs N --seed S` builds `models.build_network(V, seed=S)`, prints each
line of `fit` as one JSON line on stdout and saves the weights with
`Module.save`. An OUT.ascw whose directory does not exist is a usage
error (exit code 2) before any cache is read. The network's init stream
default_rng(S) is also augmentation's epoch-0 mixup stream and sample 0's
epoch-0 stream (the collision the `augment` docstring states).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

import numpy as np

from . import models
from . import tensor as T
from .augment import CROP_WIDTH, AugmentConfig, AugmentPipeline, LabeledBatch, center_crop
from .cache import read_cache
from .errors import ConfigMismatch, ShapeMismatch, check_integer

LEARNING_RATE = 0.01
WEIGHT_DECAY = 1e-3
BATCH = 4

# the last word of each stream key (see the module docstring)
_ORDER, _DROPOUT, _RECALIBRATE = 1, 2, 3


def _stream(seed, epoch, kind):
    return np.random.default_rng([seed, epoch, 0, kind])


def cross_entropy(probs: T.Tensor, target) -> T.Tensor:
    """The batch mean of -sum(target * log(probs)) over [B, M] probabilities
    and [B, M] target rows, which are cast to the probabilities' dtype."""
    target = T.Tensor(np.asarray(target, dtype=probs.dtype))
    return T.scale(T.tsum(T.mul(target, T.log(probs))), -1.0 / probs.shape[0])


def step(network, pipeline, batch, epoch, rng):
    """One SGD step of `network` on `batch`, a tuple of the dataset indices,
    the [B, F, T, C] features and the [B, N_CLASSES] label rows: augment at
    `epoch`, train forward with dropout from `rng`, `cross_entropy`, clear the
    gradients, backward and update (see the module docstring). Returns the
    loss as a float, the probabilities and the mixed label rows."""
    idx, features, labels = batch
    aug = pipeline(LabeledBatch(features, labels), epoch, idx)
    probs = network.forward(T.Tensor(aug.features), mode="train", rng=rng)
    loss = cross_entropy(probs, aug.labels)
    params = network.params()
    T.zero_grads(params)
    T.backward(loss)
    for p in params:
        if p.grad is None:
            continue
        p.data -= LEARNING_RATE * (p.grad + WEIGHT_DECAY * p.data if p.l2_included else p.grad)
    return float(loss.data), probs.data, aug.labels


def _check_features(what, features) -> None:
    """Raise ShapeMismatch unless `features` is [N, F, T, C] with the (F, C)
    of `models.INPUT_SHAPE` and T of at least `CROP_WIDTH`, which a centre
    crop and the augmentation's random crop need."""
    f, _, c = models.INPUT_SHAPE
    shape = np.shape(features)
    if len(shape) != 4 or (shape[1], shape[3]) != (f, c) or shape[2] < CROP_WIDTH:
        raise ShapeMismatch(f"{what} are {shape}, not N x {f} x T x {c} with T of at "
                            f"least {CROP_WIDTH}")


def recalibrate(network, features) -> None:
    """Recompute every BN running buffer of `network` as the exponentially
    weighted mean of the batch statistics over the [N, F, T, C] `features`
    (see the module docstring). Features of a shape other than [N, 128, T, 3]
    with T of at least `CROP_WIDTH`, or fewer than `BATCH` records, raise
    `ShapeMismatch` before any buffer moves."""
    _check_features("features to recalibrate on", features)
    n_batches = len(features) // BATCH
    if not n_batches:
        raise ShapeMismatch(f"recalibrate needs at least {BATCH} records, got {len(features)}")
    buffers = network.buffers().values()
    for buf in buffers:
        buf[...] = 0.0
    rng = _stream(0, 0, _RECALIBRATE)
    with T.no_grad():
        for lo in range(0, n_batches * BATCH, BATCH):
            crop = np.ascontiguousarray(center_crop(features[lo : lo + BATCH], CROP_WIDTH))
            network.forward(crop, mode="train", rng=rng)
    for buf in buffers:
        buf /= 1.0 - T.BN_MOMENTUM ** n_batches


def _entropy(rows) -> float:
    """The mean over rows of -sum(t log t), with 0 log 0 = 0."""
    t = rows[rows > 0]
    return float(-np.sum(t * np.log(t)) / len(rows))


def _l2(params) -> float:
    return WEIGHT_DECAY / 2 * sum(float(np.sum(np.square(p.data, dtype=np.float64)))
                                  for p in params if p.l2_included)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _evaluate(network, held_out) -> dict:
    """Accuracy and record count of each device tag of `held_out`."""
    probs = models.predict(network, center_crop(held_out.features, CROP_WIDTH))
    hits = probs.argmax(axis=1) == held_out.labels
    devices = np.asarray(held_out.devices)
    tags = sorted(set(held_out.devices))
    return {"accuracy": {d: float(hits[devices == d].mean()) for d in tags},
            "count": {d: int(np.sum(devices == d)) for d in tags}}


def fit(network, train_set, held_out, epochs, seed):
    """Train `network` on the `train_set` FeatureSet for `epochs` epochs and
    evaluate it on `held_out` after each; returns a generator of the
    JSON-ready lines the module docstring lists.

    These faults raise before any step runs or any buffer moves: an epoch
    count other than an integer of at least 1, or a seed other than an
    integer in 0..2**32 - 1, or sets of different front-ends
    (`ConfigMismatch`); a label of either set not below `models.N_CLASSES`,
    features of either set of a shape other than [N, 128, T, 3] with T of
    at least `CROP_WIDTH`, or a training set of fewer than `BATCH` records
    (`ShapeMismatch`)."""
    check_integer("epochs", epochs, least=1)
    if check_integer("seed", seed) >= 2**32:
        raise ConfigMismatch(f"seed must be below 2**32, got {seed}")
    if train_set.frontend != held_out.frontend:
        raise ConfigMismatch(f"train set is {train_set.frontend}, held-out set is "
                             f"{held_out.frontend}")
    for name, fs in (("train", train_set), ("held-out", held_out)):
        _check_features(f"{name} features", fs.features)
        labels = np.asarray(fs.labels)
        bad = np.flatnonzero(labels >= models.N_CLASSES)
        if bad.size:
            raise ShapeMismatch(f"{name} record {bad[0]}: label {labels[bad[0]]} is not "
                                f"below {models.N_CLASSES}")
    if train_set.n_samples < BATCH:
        raise ShapeMismatch(f"train set holds {train_set.n_samples} records, fewer than "
                            f"one batch of {BATCH}")
    return _epochs(network, train_set, held_out, epochs, seed)


def _epochs(network, train_set, held_out, epochs, seed):
    pipeline = AugmentPipeline(AugmentConfig(rng_seed=seed))
    onehot = np.eye(models.N_CLASSES)[train_set.labels]
    params, n = network.params(), train_set.n_samples
    for epoch in range(epochs):
        order = _stream(seed, epoch, _ORDER).permutation(n)
        dropout = _stream(seed, epoch, _DROPOUT)
        for k in range(n // BATCH):
            idx = order[k * BATCH : (k + 1) * BATCH]
            l2 = _l2(params)
            start = time.perf_counter()
            loss, _, target = step(network, pipeline, (idx, train_set.features[idx],
                                                       onehot[idx]), epoch, dropout)
            yield {"epoch": epoch, "step": epoch * (n // BATCH) + k,
                   "kl": loss - _entropy(target), "l2": l2, "lr": LEARNING_RATE,
                   "step_s": time.perf_counter() - start, "peak_rss_mb": _peak_rss_mb()}
        recalibrate(network, train_set.features)
        yield {"epoch": epoch, **_evaluate(network, held_out)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m asckit.train",
        description="Train a network on a feature cache, printing one JSON line per "
                    "step and per epoch, and save its weights.")
    parser.add_argument("train", help="training feature cache (ASCF)")
    parser.add_argument("held_out", help="held-out feature cache (ASCF), of the same front-end")
    parser.add_argument("weights", help="where to write the trained weights (ASCW)")
    parser.add_argument("--variant", default="red03")
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    weights_dir = os.path.dirname(os.path.abspath(args.weights))
    if not os.path.isdir(weights_dir):
        parser.error(f"weights: directory {weights_dir} does not exist")
    network = models.build_network(args.variant, seed=args.seed)
    for line in fit(network, read_cache(args.train), read_cache(args.held_out),
                    args.epochs, args.seed):
        print(json.dumps(line), flush=True)
    network.save(args.weights)


if __name__ == "__main__":
    main()
