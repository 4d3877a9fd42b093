"""The paper's network: an inception front block, three inception-residual
blocks and a per-channel pooling head, in four widths.

All networks consume [B, 128, 256, 3] feature batches and emit [B, 10]
class probabilities. Channel plans:

    variant    inception   block1  block2  block3   hidden FC   parameters
    baseline   2 x 64      2x128   2x256   2x512    1024        9,531,863
    red01      64          128     256     512      none        2,777,111
    red02      32          64      128     256      none          700,428
    red03      16          32      64      128      none          178,199

Every block ends in max-pool 2x2 -> dropout -> residual normalization.
The pooling head's `tensor.global_pool` reduces the backbone output to
three per-channel feature vectors (overall average, frequency-averaged
temporal max, temporal max of the frequency average), a 3*C descriptor.
The parameter counts above are exact (`count_parameters`; `test_exact_count`
pins them); the conv of a conv -> BN -> ReLU unit has no bias. An ensemble
of three red02 networks, one per spectrogram, has 2.1M parameters.

In eval mode each conv -> BN -> ReLU unit folds its BN into the conv; in
train mode it is one `tensor.conv_bn_relu` op. So a red02 forward runs 4
`batch_norm` passes in either mode (the BN after each inception concat and
each block's BN on its pooled sums), and a train forward also runs 12
fused units. Each of its 3 inception-residual units pools and sums its
three branches in one `tensor.avg_pool` and adds its shortcut with one
`tensor.add`, so a forward makes 3 of each. An eval forward runs under
`tensor.no_grad`: it records no graph, so nothing trains in eval mode and
no graph outlives the call.

`predict` splits each batch into one part per CPU the process may use and
runs the parts' eval forwards at once, on the calling thread and a thread
pool of its own, so one call keeps every CPU busy with BLAS at one thread.
The `no_grad` flag is per thread, and no eval forward writes to the
network, so the parts share it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import tensor as T
from .container import Reader, atomic_write
from .errors import ConfigMismatch, IOFailure, ShapeMismatch, check_integer

N_CLASSES = 10
INPUT_SHAPE = (128, 256, 3)
INCRES_K = 3
DROPOUT_FC = 0.2
DROPOUT_BLOCK = 0.1

# variant -> (inception unit widths, inception-residual unit widths of each
# of the three blocks, hidden FC width or None)
_VARIANTS = {
    "baseline": ([64, 64], [[128, 128], [256, 256], [512, 512]], 1024),
    "red01": ([64], [[128], [256], [512]], None),
    "red02": ([32], [[64], [128], [256]], None),
    "red03": ([16], [[32], [64], [128]], None),
}


def _split_channels(total: int) -> list[int]:
    """Spread a unit's channel budget as evenly as possible over three branches."""
    base, rem = divmod(total, 3)
    return [base + (1 if i < rem else 0) for i in range(3)]


_WEIGHT_MAGIC = b"ASCW"
_WEIGHT_VERSION = 2
_WEIGHT_DTYPES = ("<f4", "<f8")  # dtype code -> payload dtype


# ---------------------------------------------------------------------------
# layers


class Module:
    """Base for layers and networks.

    Parameters and buffers are found by walking the instance attributes in
    assignment order, recursing into child modules and into lists item by
    item: a `T.Parameter` is a parameter, an `np.ndarray` attribute is a
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
        """Write every parameter and buffer, in `state_dict` order, to an ASCW
        file: "ASCW", version u16 (2), count u32, then per entry a u16-length
        name (UTF-8), rank u8, dtype code u8 (1 float64 for float64 arrays, else
        0 float32), dims u32 each and the payload, little-endian. A non-finite
        value raises `IOFailure` naming the entry; a file at `path` is kept."""
        state = self.state_dict()
        with atomic_write(path) as fh:
            fh.write(_WEIGHT_MAGIC + struct.pack("<HI", _WEIGHT_VERSION, len(state)))
            for name, value in state.items():
                code = int(value.dtype == np.float64)
                value = np.asarray(value, dtype=_WEIGHT_DTYPES[code])
                if not np.isfinite(value).all():
                    raise IOFailure(f"{path}: {name} holds a non-finite value")
                encoded = name.encode("utf-8")
                if len(encoded) > 0xFFFF:
                    raise IOFailure(f"{path}: entry name over 65535 bytes: {name[:40]!r}...")
                fh.write(struct.pack(f"<H{len(encoded)}sBB{value.ndim}I", len(encoded),
                                     encoded, value.ndim, code, *value.shape))
                fh.write(value.tobytes())

    def load(self, path):
        """Replace every parameter and buffer in place from an ASCW file (see
        `save`) in one pass: each entry must be the model's, once, with its
        dtype code, shape and finite values, and none may be missing. Any other
        file raises `IOFailure` naming the path and the faulty entry's or
        payload's offset (a missing entry's at the end); nothing is assigned."""
        state = self.state_dict()
        rd = Reader(path)
        (count,) = rd.header(_WEIGHT_MAGIC, _WEIGHT_VERSION, "<I")
        named = {}
        for _ in range(count):
            start = rd.pos
            name = rd.text(*rd.unpack("<H", "name length"), "name")
            if name in named:
                rd.fail(f"duplicate entry {name!r}", start)
            if name not in state:
                rd.fail(f"entry {name!r} is not in the model", start)
            rank, code = rd.unpack("<BB", f"{name} rank and dtype code")
            want = int(state[name].dtype == np.float64)
            if code != want:
                rd.fail(f"{name}: dtype code {code}, the model's is {want}", rd.pos - 1)
            dims = rd.unpack(f"<{rank}I", f"{name} dims")
            if dims != state[name].shape:
                rd.fail(f"{name}: file shape {dims} != model shape {state[name].shape}", start)
            named[name] = rd.array(_WEIGHT_DTYPES[code], dims, f"{name} payload")
            if not np.isfinite(named[name]).all():
                rd.fail(f"{name} payload holds a non-finite value", rd.pos - named[name].nbytes)
        rd.expect_end(f"the last of {count} entries")
        if len(named) < len(state):
            rd.fail(f"file is missing {next(n for n in state if n not in named)}")
        for name, value in named.items():
            state[name][...] = value


def _unique(pairs) -> dict:
    out = {}
    for name, value in pairs:
        if name in out:
            raise ConfigMismatch(f"duplicate parameter or buffer name {name!r}")
        out[name] = value
    return out


def _kernel(name, shape, rng):
    """He-uniform float32 weights: U(-l, l) with l = sqrt(6 / fan-in), where
    the fan-in is the product of all but the last (output) dimension."""
    limit = np.sqrt(6.0 / np.prod(shape[:-1]))
    return T.Parameter(rng.uniform(-limit, limit, size=shape).astype(np.float32), name=name)


def _weights(name, shape, rng):
    """A `_kernel` `<name>.w` and a zero bias `<name>.b`, for `T.dense` or `T.conv2d`."""
    return [_kernel(f"{name}.w", shape, rng),
            T.Parameter(np.zeros(shape[-1], np.float32), name=f"{name}.b")]


class BatchNorm(Module):
    """Per-channel batch normalization (`T.batch_norm`) with its scale,
    shift and running statistics."""

    def __init__(self, name, channels):
        self.name = name
        self.gamma = T.Parameter(np.ones(channels, dtype=np.float32), name=f"{name}.gamma")
        self.beta = T.Parameter(np.zeros(channels, dtype=np.float32), name=f"{name}.beta")
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)

    def __call__(self, x, mode, rng):
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, mode)


class _ConvBnRelu(Module):
    """conv -> BN -> ReLU with no conv bias, which the train-mode batch mean
    would cancel exactly; one `T.conv_bn_relu` op in train mode. In eval
    mode the BN is folded into the conv (Jacob et al., arXiv 1712.05877,
    section 3.2): with s = gamma / sqrt(var + eps) from the running buffers,
    in float64, one conv with kernel w * s and bias beta - mean * s, both
    cast to the kernel's dtype, replaces the conv and the BN. The fold is made
    anew on every eval forward, so it always follows the current parameters
    and buffers. Its kernel and bias are plain tensors, and an eval forward
    records no graph (see `Network.forward`), so nothing trains in eval mode."""

    def __init__(self, name, kf, kt, cin, cout, rng):
        self.w = _kernel(f"{name}.conv.w", (kf, kt, cin, cout), rng)
        self.bn = BatchNorm(f"{name}.bn", cout)

    def __call__(self, x, mode, rng):
        bn = self.bn
        if mode != "eval":
            return T.conv_bn_relu(x, self.w, bn.gamma, bn.beta, bn.running_mean,
                                  bn.running_var)
        s = bn.gamma.data / np.sqrt(bn.running_var + T.BN_EPS)
        w = T.Tensor((self.w.data * s).astype(self.w.dtype))
        b = T.Tensor((bn.beta.data - bn.running_mean * s).astype(self.w.dtype))
        return T.relu(T.conv2d(x, w, b))


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
    with the same kernels -> summed, plus the residual path: the input, or
    its 1x1 conv projection `<name>.proj` (kernel and bias) when the width
    changes. The pooled sum is one `T.avg_pool(branches, INCRES_K)` op, which
    pools its three inputs with these kernels in this order, so the graph
    keeps one array for it; the residual path is one `T.add`."""

    KERNELS = ((INCRES_K, 1), (INCRES_K, INCRES_K), (1, INCRES_K))

    def __init__(self, name, cin, cout, rng):
        self.branches = [
            _ConvBnRelu(f"{name}.b{i}", kf, kt, cin, cout, rng)
            for i, (kf, kt) in enumerate(self.KERNELS)
        ]
        self.proj = _weights(f"{name}.proj", (1, 1, cin, cout), rng) if cin != cout else []

    def __call__(self, x, mode, rng):
        pooled = T.avg_pool([br(x, mode, rng) for br in self.branches], INCRES_K)
        return T.add(pooled, T.conv2d(x, *self.proj) if self.proj else x)


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
        x = T.max_pool(x)
        x = T.dropout(x, DROPOUT_BLOCK, mode, rng)
        return T.residual_norm(x)


def _units(unit_cls, name, cin, widths, rng):
    """One unit per width, each taking the previous unit's output."""
    return [unit_cls(f"{name}.u{i}", c_in, c_out, rng)
            for i, (c_in, c_out) in enumerate(zip([cin] + widths, widths))]


class PoolingHead(Module):
    """`T.global_pool`'s 3*C descriptor -> optional hidden FC -> classifier."""

    def __init__(self, cin, hidden, rng):
        pooled_dim = 3 * cin
        self.hidden = _weights("head.fc1", (pooled_dim, hidden), rng) if hidden else []
        self.classifier = _weights("head.fc2", (hidden or pooled_dim, N_CLASSES), rng)

    def __call__(self, x, mode, rng):
        h = T.global_pool(x)
        if self.hidden:
            h = T.dropout(T.relu(T.dense(h, *self.hidden)), DROPOUT_FC, mode, rng)
        return T.softmax(T.dense(h, *self.classifier))


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
        """Class probabilities for a [B, 128, 256, 3] batch. An eval forward
        runs under `T.no_grad`: it records no graph, so nothing trains.

        The batch must hold at least one example, and a train forward needs
        an RNG for its dropout: either fault raises before any op runs, so
        that no BN running buffer moves."""
        T.check_mode("forward", mode)
        if mode == "train" and rng is None:
            raise ConfigMismatch("forward: train mode needs an RNG for dropout, got None")
        if not isinstance(x, T.Tensor):
            x = T.Tensor(np.asarray(x, dtype=np.float32))
        _check_input(x.shape)
        if not x.shape[0]:
            raise ShapeMismatch("forward: the batch holds no examples")
        with T.no_grad() if mode == "eval" else contextlib.nullcontext():
            for block in self.blocks:
                x = block(x, mode, rng)
            return self.head(x, mode, rng)


def build_network(variant: str, seed: int = 0) -> Network:
    if variant not in _VARIANTS:
        raise ConfigMismatch(f"unknown variant {variant!r}; choose from {sorted(_VARIANTS)}")
    inception, incres, hidden = _VARIANTS[variant]
    rng = np.random.default_rng(check_integer("seed", seed))
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


def _macs(layer, f, t) -> int:
    """Multiply-accumulates of one example through `layer` on an F x T input:
    every conv is stride-1 'same', so each weight of a rank-4 conv kernel is
    used F*T times, and each weight of a rank-2 dense matrix once."""
    return sum(p.data.size * (f * t if p.data.ndim == 4 else 1)
               for p in layer.params() if p.data.ndim > 1)


def network_summary(model: Network) -> list:
    """(layer, output shape, parameter count, dtype, activation bytes, MACs)
    rows for one example, plus a total row.

    Activation bytes are those of the layer's output and MACs count the
    multiply-accumulates of its convs and dense layers; the total row sums
    both over the layers. The eval forward runs under `T.no_grad`.
    """
    x = T.Tensor(np.zeros((1,) + INPUT_SHAPE, dtype=np.float32))
    layers = [(f"block{i}", b) for i, b in enumerate(model.blocks)] + [("head", model.head)]
    rows = []
    with T.no_grad():
        for name, layer in layers:
            macs = _macs(layer, *x.shape[1:3])
            x = layer(x, "eval", None)
            rows.append((name, tuple(int(s) for s in x.shape[1:]), count_parameters(layer),
                         x.dtype.name, x.data.nbytes, macs))
    rows.append(("total", (), count_parameters(model), x.dtype.name,
                 sum(r[4] for r in rows), sum(r[5] for r in rows)))
    return rows


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps
    one (`os.sched_getaffinity`, Linux), else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict(model, features, batch_size: int = 32) -> np.ndarray:
    """Eval-mode class probabilities for [N, F, T, C] features.

    The eval forwards record no autograd graph (see `Network.forward`), and
    each conv -> BN -> ReLU unit runs as one conv with its BN folded in (see
    `_ConvBnRelu`), from the parameters and buffers as they are at the call.

    Each batch of `batch_size` rows is split by `np.array_split` into one
    contiguous part per CPU the process may run on (`_cpus`), or one per
    row when it has fewer rows. The parts' forwards run at once: the first
    on the calling thread, the others on a thread pool that lives only for
    this call. Their outputs are joined in row order. Eval BN uses its
    running buffers and residual norm works per sample, so a row's
    probabilities do not depend on the other rows. They are repeatable for
    one host, CPU count and `batch_size`; another CPU count or `batch_size`
    gives the GEMMs other row counts and may change the last float32 bits.
    numpy and BLAS release the GIL in the forward's large array ops, so the
    threads overlap; BLAS is expected to run one thread per call, since the
    parts take every CPU.
    """
    check_integer("batch_size", batch_size, least=1)
    features = np.asarray(features, dtype=np.float32)
    _check_input(features.shape)
    cpus = _cpus()
    forward = functools.partial(model.forward, mode="eval")
    outputs = [np.empty((0, N_CLASSES))]
    # the calling thread runs one part itself: with a pool thread for every
    # part, red02 predict's peak RSS at batch 4 on 2 CPUs rose by 3-11%
    with ThreadPoolExecutor(max_workers=max(cpus - 1, 1)) as pool:
        for lo in range(0, features.shape[0], batch_size):
            batch = features[lo : lo + batch_size]
            first, *rest = np.array_split(batch, min(cpus, batch.shape[0]))
            others = pool.map(forward, rest)
            for out in [forward(first), *others]:
                outputs.append(out.data.astype(np.float64))
    return np.concatenate(outputs, axis=0)
