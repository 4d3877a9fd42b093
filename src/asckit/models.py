"""Network family: inception front block, three inception-residual blocks,
per-channel pooling head, plus the reduced-width variants and a generic
embedding classifier.

All networks consume [B, 128, 256, 3] feature batches and emit [B, 10]
class probabilities. Channel plans:

    variant    inception   block1  block2  block3   hidden FC
    baseline   2 x 64      2x128   2x256   2x512    1024
    red01      64          128     256     512      none
    red02      32          64      128     256      none
    red03      16          32      64      128      none

The pooling head reduces the backbone output to three per-channel feature
vectors (overall average, frequency-averaged temporal max, temporal max of
the frequency average) concatenated to a 3*C descriptor. This keeps the
trainable-parameter totals of the four variants at roughly 9.6M / 3.2M /
0.8M / 0.2M with the strict ordering between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigMismatch, ShapeMismatch, UnknownVariant, WeightsNotLoaded

N_CLASSES = 10
INPUT_SHAPE = (128, 256, 3)

# reference trainable-parameter budgets (millions) for the four variants
PARAM_BUDGETS = {
    "baseline": 9.6e6,
    "red01": 3.2e6,
    "red02": 0.8e6,
    "red03": 0.2e6,
}
PARAM_TOLERANCE = 0.15


@dataclass
class ArchConfig:
    inception_channels: list = field(default_factory=lambda: [64, 64])
    incres_channels: list = field(default_factory=lambda: [[128, 128], [256, 256],
                                                           [512, 512]])
    incres_k: list = field(default_factory=lambda: [3, 3, 3])
    head_hidden: int | None = 1024
    n_classes: int = N_CLASSES
    dropout_fc: float = 0.2
    dropout_block: float = 0.1
    rn_lambda: float = 0.4
    variant_name: str = "custom"

    def __post_init__(self):
        if len(self.incres_channels) != 3 or len(self.incres_k) != 3:
            raise ConfigMismatch("expected exactly three inception-residual blocks")
        if not self.inception_channels:
            raise ConfigMismatch("inception block needs at least one unit")


_VARIANTS = {
    "baseline": dict(inception_channels=[64, 64],
                     incres_channels=[[128, 128], [256, 256], [512, 512]],
                     head_hidden=1024),
    "red01": dict(inception_channels=[64],
                  incres_channels=[[128], [256], [512]], head_hidden=None),
    "red02": dict(inception_channels=[32],
                  incres_channels=[[64], [128], [256]], head_hidden=None),
    "red03": dict(inception_channels=[16],
                  incres_channels=[[32], [64], [128]], head_hidden=None),
}


def arch_config(variant: str) -> ArchConfig:
    if variant not in _VARIANTS:
        raise UnknownVariant(
            f"unknown variant {variant!r}; choose from {sorted(_VARIANTS)}"
        )
    return ArchConfig(variant_name=variant, **_VARIANTS[variant])


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
        self.out_channels = cout

    def __call__(self, x, mode, rng):
        merged = T.concat([br(x, mode, rng) for br in self.branches], axis=3)
        return self.bn(merged, mode, rng)


class IncResUnit(Module):
    """Branches conv(Kx1), conv(KxK), conv(1xK) -> stride-1 average pooling
    with the same kernels -> summed, plus a projected residual path."""

    def __init__(self, name, cin, cout, k, rng):
        kernels = ((k, 1), (k, k), (1, k))
        self.branches = [
            _ConvBnRelu(f"{name}.b{i}", kf, kt, cin, cout, rng)
            for i, (kf, kt) in enumerate(kernels)
        ]
        self.kernels = kernels
        self.proj = (Conv2D(f"{name}.proj", 1, 1, cin, cout, rng)
                     if cin != cout else None)
        self.out_channels = cout

    def __call__(self, x, mode, rng):
        pooled = [
            T.avg_pool(br(x, mode, rng), kern, stride=1, padding="same")
            for br, kern in zip(self.branches, self.kernels)
        ]
        merged = T.add(T.add(pooled[0], pooled[1]), pooled[2])
        shortcut = self.proj(x, mode, rng) if self.proj is not None else x
        return T.add(merged, shortcut)


class _BlockTail(Module):
    """MP[2x2] -> dropout -> residual normalization shared by all blocks."""

    def __init__(self, dropout_p, rn_lambda):
        self.dropout_p = dropout_p
        self.rn_lambda = rn_lambda

    def __call__(self, x, mode, rng):
        x = T.max_pool(x, 2)
        x = T.dropout(x, self.dropout_p, mode, rng)
        return T.residual_norm(x, self.rn_lambda)


class InceptionBlock(Module):
    def __init__(self, cfg: ArchConfig, cin, rng, name="inception"):
        self.units = []
        for i, cout in enumerate(cfg.inception_channels):
            self.units.append(InceptionUnit(f"{name}.u{i}", cin, cout, rng))
            cin = cout
        self.tail = _BlockTail(cfg.dropout_block, cfg.rn_lambda)
        self.out_channels = cin

    def __call__(self, x, mode, rng):
        for unit in self.units:
            x = unit(x, mode, rng)
        return self.tail(x, mode, rng)


class IncResBlock(Module):
    def __init__(self, cfg: ArchConfig, block_index, cin, rng):
        if block_index not in (0, 1, 2):
            raise ConfigMismatch(f"block index {block_index} out of range")
        name = f"incres{block_index}"
        k = cfg.incres_k[block_index]
        self.units = []
        for i, cout in enumerate(cfg.incres_channels[block_index]):
            self.units.append(IncResUnit(f"{name}.u{i}", cin, cout, k, rng))
            cin = cout
        self.bn = BatchNorm(f"{name}.bn", cin)
        self.tail = _BlockTail(cfg.dropout_block, cfg.rn_lambda)
        self.out_channels = cin

    def __call__(self, x, mode, rng):
        for unit in self.units:
            x = unit(x, mode, rng)
        return self.tail(self.bn(x, mode, rng), mode, rng)


class PoolingHead(Module):
    """Three per-channel pooled features -> optional hidden FC -> classifier."""

    def __init__(self, cfg: ArchConfig, cin, rng, name="head"):
        pooled_dim = 3 * cin
        self.hidden = (Dense(f"{name}.fc1", pooled_dim, cfg.head_hidden, rng)
                       if cfg.head_hidden else None)
        fc2_in = cfg.head_hidden if cfg.head_hidden else pooled_dim
        self.classifier = Dense(f"{name}.fc2", fc2_in, cfg.n_classes, rng)
        self.dropout_fc = cfg.dropout_fc

    def __call__(self, x, mode, rng):
        overall_avg = T.reduce_mean(T.reduce_mean(x, 1), 1)      # mean over (F, T)
        time_max = T.reduce_mean(T.reduce_max(x, 2), 1)           # max over T, avg F
        freq_avg = T.reduce_max(T.reduce_mean(x, 1), 1)           # avg over F, max T
        h = T.concat([overall_avg, time_max, freq_avg], axis=1)
        if self.hidden is not None:
            h = T.dropout(T.relu(self.hidden(h, mode, rng)), self.dropout_fc,
                          mode, rng)
        return T.softmax(self.classifier(h, mode, rng), axis=1)


# ---------------------------------------------------------------------------
# assembled networks


class Network(Module):
    """Backbone + head over [B, 128, 256, 3] inputs."""

    def __init__(self, cfg: ArchConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        blocks = [InceptionBlock(cfg, INPUT_SHAPE[2], rng)]
        cin = blocks[0].out_channels
        for b in range(3):
            blocks.append(IncResBlock(cfg, b, cin, rng))
            cin = blocks[-1].out_channels
        self.blocks = blocks
        self.head = PoolingHead(cfg, cin, rng)
        self._check_shapes()

    def _check_shapes(self):
        probe = T.Tensor(np.zeros((1,) + INPUT_SHAPE, dtype=np.float32))
        out = self.forward(probe, mode="eval")
        if out.shape != (1, self.cfg.n_classes):
            raise ShapeMismatch(f"head emits {out.shape}")

    def forward(self, x, mode: str, rng=None, trace=None):
        if not isinstance(x, T.Tensor):
            x = T.Tensor(np.asarray(x, dtype=np.float32))
        if x.data.ndim != 4 or x.shape[1:] != INPUT_SHAPE:
            raise ShapeMismatch(
                f"expected B x {'x'.join(map(str, INPUT_SHAPE))} input, got {x.shape}"
            )
        for i, block in enumerate(self.blocks):
            x = block(x, mode, rng)
            if trace is not None:
                trace.append((f"block{i}", x.shape))
        out = self.head(x, mode, rng)
        if trace is not None:
            trace.append(("head", out.shape))
        return out


class EmbeddingClassifier(Module):
    """Hidden FC + softmax classifier over fixed-length embedding vectors."""

    def __init__(self, dim: int = 2048, n_classes: int = N_CLASSES,
                 hidden: int = 1024, dropout_fc: float = 0.2, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.hidden = Dense("emb.fc1", dim, hidden, rng)
        self.classifier = Dense("emb.fc2", hidden, n_classes, rng)
        self.dropout_fc = dropout_fc

    def forward(self, x, mode: str, rng=None, trace=None):
        if not isinstance(x, T.Tensor):
            x = T.Tensor(np.asarray(x, dtype=np.float32))
        if x.data.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeMismatch(f"expected B x {self.dim} embeddings, got {x.shape}")
        h = T.dropout(T.relu(self.hidden(x, mode, rng)), self.dropout_fc, mode, rng)
        out = T.softmax(self.classifier(h, mode, rng), axis=1)
        if trace is not None:
            trace.append(("embedding_head", out.shape))
        return out


def build_network(variant, seed: int = 0) -> Network:
    cfg = arch_config(variant) if isinstance(variant, str) else variant
    return Network(cfg, seed=seed)


def embedding_classifier(dim: int = 2048, n_classes: int = N_CLASSES,
                         seed: int = 0) -> EmbeddingClassifier:
    return EmbeddingClassifier(dim=dim, n_classes=n_classes, seed=seed)


def count_parameters(model) -> int:
    """Exact count of trainable entries; BN running buffers excluded."""
    return int(sum(p.data.size for p in model.params()))


def network_summary(model) -> list:
    """(layer, output shape, parameter count) rows plus a total row."""
    trace = []
    if isinstance(model, Network):
        probe = np.zeros((1,) + INPUT_SHAPE, dtype=np.float32)
        blocks = list(model.blocks) + [model.head]
    else:
        probe = np.zeros((1, model.dim), dtype=np.float32)
        blocks = [model]
    model.forward(probe, mode="eval", trace=trace)
    rows = []
    for (name, shape), block in zip(trace, blocks):
        n = int(sum(p.data.size for p in block.params()))
        rows.append((name, tuple(int(s) for s in shape[1:]), n))
    rows.append(("total", (), count_parameters(model)))
    return rows


def predict(model, features, batch_size: int = 32) -> np.ndarray:
    """Deterministic eval-mode class probabilities for [N, F, T, C] features."""
    features = np.asarray(features, dtype=np.float32)
    outputs = []
    for lo in range(0, features.shape[0], batch_size):
        out = model.forward(features[lo : lo + batch_size], mode="eval")
        outputs.append(out.data.astype(np.float64))
    return np.concatenate(outputs, axis=0)
