"""The paper's network: an inception front block, three inception-residual
blocks and a per-channel pooling head, in four widths.

All networks consume [B, 128, 256, 3] feature batches and emit [B, 10]
class probabilities. Channel plans:

    variant    inception   block1  block2  block3   hidden FC   parameters
    baseline   2 x 64      2x128   2x256   2x512    1024        9.54M
    red01      64          128     256     512      none        2.78M
    red02      32          64      128     256      none        0.70M
    red03      16          32      64      128      none        0.18M

Every block ends in max-pool 2x2 -> dropout -> residual normalization.
The pooling head reduces the backbone output to three per-channel feature
vectors (overall average, frequency-averaged temporal max, temporal max of
the frequency average) concatenated to a 3*C descriptor. The parameter
counts above are measured; an ensemble of three red02 networks, one per
spectrogram, has 2.1M parameters.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigMismatch, ShapeMismatch, UnknownVariant, WeightsNotLoaded

N_CLASSES = 10
INPUT_SHAPE = (128, 256, 3)
INCRES_K = 3
DROPOUT_FC = 0.2
DROPOUT_BLOCK = 0.1
RN_LAMBDA = 0.4

# variant -> (inception unit widths, inception-residual unit widths of each
# of the three blocks, hidden FC width or None)
_VARIANTS = {
    "baseline": ([64, 64], [[128, 128], [256, 256], [512, 512]], 1024),
    "red01": ([64], [[128], [256], [512]], None),
    "red02": ([32], [[64], [128], [256]], None),
    "red03": ([16], [[32], [64], [128]], None),
}

# reference trainable-parameter budgets (millions) for the four variants
PARAM_BUDGETS = {
    "baseline": 9.6e6,
    "red01": 3.2e6,
    "red02": 0.8e6,
    "red03": 0.2e6,
}
PARAM_TOLERANCE = 0.15


def _split_channels(total: int, n_branches: int = 3) -> list[int]:
    """Spread a unit's channel budget as evenly as possible across branches."""
    base, rem = divmod(total, n_branches)
    return [base + (1 if i < rem else 0) for i in range(n_branches)]


# ---------------------------------------------------------------------------
# layers


class Module:
    """Base for layers and networks.

    Parameters and buffers are found by walking the instance attributes in
    assignment order, recursing into child modules and lists of them: a
    `T.Parameter` attribute is a parameter, an `np.ndarray` attribute is a
    buffer saved as `<self.name>.<attribute>`.
    """

    def _leaves(self):
        for attr, value in vars(self).items():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Module):
                    yield from item._leaves()
                else:
                    yield self, attr, item

    def params(self) -> list:
        return list(_unique((v.name, v) for _, _, v in self._leaves()
                            if isinstance(v, T.Parameter)).values())

    def buffers(self) -> dict:
        return _unique((f"{m.name}.{attr}", v) for m, attr, v in self._leaves()
                       if isinstance(v, np.ndarray))

    def state_dict(self) -> dict:
        return _unique([(p.name, p.data) for p in self.params()]
                       + list(self.buffers().items()))

    def save(self, path):
        T.save_weights(path, self.state_dict())

    def load(self, path):
        """Replace every parameter and buffer from a weight file. Nothing is
        assigned unless the file has every entry with the model's shape."""
        named = T.load_weights(path)
        for name, current in self.state_dict().items():
            if name not in named:
                raise WeightsNotLoaded(f"{path}: file is missing {name}")
            if named[name].shape != current.shape:
                raise WeightsNotLoaded(
                    f"{path}: {name}: file shape {named[name].shape} != {current.shape}"
                )
        for p in self.params():
            p.data = named[p.name].astype(np.float32)
        for name, buf in self.buffers().items():
            buf[...] = named[name]


def _unique(pairs) -> dict:
    out = {}
    for name, value in pairs:
        if name in out:
            raise ConfigMismatch(f"duplicate parameter or buffer name {name!r}")
        out[name] = value
    return out


class Conv2D(Module):
    def __init__(self, name, kf, kt, cin, cout, rng, stride=1, padding="same"):
        limit = np.sqrt(6.0 / (kf * kt * cin))
        self.w = T.Parameter(
            rng.uniform(-limit, limit, size=(kf, kt, cin, cout)).astype(np.float32),
            name=f"{name}.w",
        )
        self.b = T.Parameter(np.zeros(cout, dtype=np.float32), name=f"{name}.b",
                             l2_included=False)
        self.stride = stride
        self.padding = padding

    def __call__(self, x, mode, rng):
        return T.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class Dense(Module):
    def __init__(self, name, din, dout, rng):
        limit = np.sqrt(6.0 / din)
        self.w = T.Parameter(
            rng.uniform(-limit, limit, size=(din, dout)).astype(np.float32),
            name=f"{name}.w",
        )
        self.b = T.Parameter(np.zeros(dout, dtype=np.float32), name=f"{name}.b",
                             l2_included=False)

    def __call__(self, x, mode, rng):
        return T.dense(x, self.w, self.b)


class BatchNorm(Module):
    def __init__(self, name, channels, eps=1e-3, momentum=0.99):
        self.name = name
        self.gamma = T.Parameter(np.ones(channels, dtype=np.float32),
                                 name=f"{name}.gamma", l2_included=False)
        self.beta = T.Parameter(np.zeros(channels, dtype=np.float32),
                                name=f"{name}.beta", l2_included=False)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.eps = eps
        self.momentum = momentum

    def __call__(self, x, mode, rng):
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, mode, eps=self.eps,
                            momentum=self.momentum)


class _ConvBnRelu(Module):
    def __init__(self, name, kf, kt, cin, cout, rng):
        self.conv = Conv2D(f"{name}.conv", kf, kt, cin, cout, rng)
        self.bn = BatchNorm(f"{name}.bn", cout)

    def __call__(self, x, mode, rng):
        return T.relu(self.bn(self.conv(x, mode, rng), mode, rng))


class InceptionUnit(Module):
    """Three parallel conv branches (3x3, 1x1, 4x1) concatenated, then BN."""

    KERNELS = ((3, 3), (1, 1), (4, 1))

    def __init__(self, name, cin, cout, rng):
        widths = _split_channels(cout)
        self.branches = [
            _ConvBnRelu(f"{name}.b{i}", kf, kt, cin, w, rng)
            for i, ((kf, kt), w) in enumerate(zip(self.KERNELS, widths))
        ]
        self.bn = BatchNorm(f"{name}.bn", cout)

    def __call__(self, x, mode, rng):
        merged = T.concat([br(x, mode, rng) for br in self.branches], axis=3)
        return self.bn(merged, mode, rng)


class IncResUnit(Module):
    """Branches conv(Kx1), conv(KxK), conv(1xK) -> stride-1 average pooling
    with the same kernels -> summed, plus a projected residual path."""

    KERNELS = ((INCRES_K, 1), (INCRES_K, INCRES_K), (1, INCRES_K))

    def __init__(self, name, cin, cout, rng):
        self.branches = [
            _ConvBnRelu(f"{name}.b{i}", kf, kt, cin, cout, rng)
            for i, (kf, kt) in enumerate(self.KERNELS)
        ]
        self.proj = (Conv2D(f"{name}.proj", 1, 1, cin, cout, rng)
                     if cin != cout else None)

    def __call__(self, x, mode, rng):
        pooled = [
            T.avg_pool(br(x, mode, rng), kern, stride=1, padding="same")
            for br, kern in zip(self.branches, self.KERNELS)
        ]
        merged = T.add(T.add(pooled[0], pooled[1]), pooled[2])
        shortcut = self.proj(x, mode, rng) if self.proj is not None else x
        return T.add(merged, shortcut)


class Block(Module):
    """Units in sequence, then the optional BN, then MP[2x2] -> dropout ->
    residual normalization."""

    def __init__(self, units, bn=None):
        self.units = units
        self.bn = bn

    def __call__(self, x, mode, rng):
        for unit in self.units:
            x = unit(x, mode, rng)
        if self.bn is not None:
            x = self.bn(x, mode, rng)
        x = T.max_pool(x, 2)
        x = T.dropout(x, DROPOUT_BLOCK, mode, rng)
        return T.residual_norm(x, RN_LAMBDA)


def _units(unit_cls, name, cin, widths, rng):
    """One unit per width, each taking the previous unit's output."""
    return [unit_cls(f"{name}.u{i}", c_in, c_out, rng)
            for i, (c_in, c_out) in enumerate(zip([cin] + widths, widths))]


class PoolingHead(Module):
    """Three per-channel pooled features -> optional hidden FC -> classifier."""

    def __init__(self, cin, hidden, rng):
        pooled_dim = 3 * cin
        self.hidden = Dense("head.fc1", pooled_dim, hidden, rng) if hidden else None
        self.classifier = Dense("head.fc2", hidden or pooled_dim, N_CLASSES, rng)

    def __call__(self, x, mode, rng):
        overall_avg = T.reduce_mean(T.reduce_mean(x, 1), 1)      # mean over (F, T)
        time_max = T.reduce_mean(T.reduce_max(x, 2), 1)           # max over T, avg F
        freq_avg = T.reduce_max(T.reduce_mean(x, 1), 1)           # avg over F, max T
        h = T.concat([overall_avg, time_max, freq_avg], axis=1)
        if self.hidden is not None:
            h = T.dropout(T.relu(self.hidden(h, mode, rng)), DROPOUT_FC, mode, rng)
        return T.softmax(self.classifier(h, mode, rng), axis=1)


# ---------------------------------------------------------------------------
# assembled networks


def _check_input(shape):
    if len(shape) != 4 or tuple(shape[1:]) != INPUT_SHAPE:
        raise ShapeMismatch(
            f"expected B x {'x'.join(map(str, INPUT_SHAPE))} input, got {shape}"
        )


class Network(Module):
    """Backbone blocks + head over [B, 128, 256, 3] inputs."""

    def __init__(self, blocks, head):
        self.blocks = blocks
        self.head = head

    def forward(self, x, mode: str, rng=None):
        if not isinstance(x, T.Tensor):
            x = T.Tensor(np.asarray(x, dtype=np.float32))
        _check_input(x.shape)
        for block in self.blocks:
            x = block(x, mode, rng)
        return self.head(x, mode, rng)


def build_network(variant: str, seed: int = 0) -> Network:
    if variant not in _VARIANTS:
        raise UnknownVariant(
            f"unknown variant {variant!r}; choose from {sorted(_VARIANTS)}"
        )
    inception, incres, hidden = _VARIANTS[variant]
    rng = np.random.default_rng(seed)
    blocks = [Block(_units(InceptionUnit, "inception", INPUT_SHAPE[2], inception, rng))]
    cin = inception[-1]
    for b, widths in enumerate(incres):
        units = _units(IncResUnit, f"incres{b}", cin, widths, rng)
        cin = widths[-1]
        blocks.append(Block(units, BatchNorm(f"incres{b}.bn", cin)))
    return Network(blocks, PoolingHead(cin, hidden, rng))


def count_parameters(model) -> int:
    """Exact count of trainable entries; BN running buffers excluded."""
    return int(sum(p.data.size for p in model.params()))


def network_summary(model: Network) -> list:
    """(layer, output shape, parameter count) rows plus a total row."""
    x = T.Tensor(np.zeros((1,) + INPUT_SHAPE, dtype=np.float32))
    layers = [(f"block{i}", b) for i, b in enumerate(model.blocks)] + [("head", model.head)]
    rows = []
    for name, layer in layers:
        x = layer(x, "eval", None)
        rows.append((name, tuple(int(s) for s in x.shape[1:]), count_parameters(layer)))
    rows.append(("total", (), count_parameters(model)))
    return rows


def predict(model, features, batch_size: int = 32) -> np.ndarray:
    """Deterministic eval-mode class probabilities for [N, F, T, C] features.

    The forward passes run under `T.no_grad`, so no autograd graph is kept.
    """
    if batch_size < 1:
        raise ConfigMismatch(f"batch_size must be at least 1, got {batch_size}")
    features = np.asarray(features, dtype=np.float32)
    _check_input(features.shape)
    outputs = [np.empty((0, N_CLASSES))]
    with T.no_grad():
        for lo in range(0, features.shape[0], batch_size):
            out = model.forward(features[lo : lo + batch_size], mode="eval")
            outputs.append(out.data.astype(np.float64))
    return np.concatenate(outputs, axis=0)
