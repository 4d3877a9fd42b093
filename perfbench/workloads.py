"""The asckit benchmark's three workloads and the loop that measures them.

extract  10 s / 44.1 kHz stereo PCM16 WAVs -> load_wav -> resample_to_32k
         -> segment_10s -> extract_frontend for logmel, cqt and gam; the run
         ends with one write_cache per front-end.
train    one red02 SGD step at batch 4 per op: AugmentPipeline -> forward
         (train mode) -> cross-entropy against the mixup labels -> backward
         -> SGD update. Records come from an ASCF file via read_cache.
predict  one models.predict(red02, batch_size=4) call per op on
         center-cropped records read from an ASCF file.

Each run builds its inputs from the seed, sets up SETUP_REPS times (the
median is setup_s), then runs ops for the requested number of seconds. A
fixed host-reference kernel runs between ops, outside the timed region.
README.md in this directory gives the reasons behind these choices.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import wave
from pathlib import Path

import numpy as np
import scipy
from scipy import signal

from asckit import audio, augment, cache, frontend, models
from asckit import tensor as T

from measure import Tracer, tail_percentile

VARIANT = "red02"
BATCH = 4
CROP = models.INPUT_SHAPE[1]
WAV_RATE = 44100
WAV_SECONDS = 10
N_WAVS = 8
N_RECORDS = 64
RECORD_SHAPE = (frontend.N_BANDS, frontend.TARGET_FRAMES, 3)
SETUP_REPS = 5
MIN_OPS = 11  # op_tail_s needs at least 10 samples beyond its percentile
LEARNING_RATE = 0.01
WEIGHT_DECAY = 1e-3
NET_SEED = 0
REFERENCE_SEED = 20220323  # inputs of the stored reference values
# Median time of one host probe on the 2-vCPU development VM. End-to-end
# timings are reported as if the host ran the probe in this time (README.md,
# "Host calibration"); the constant only fixes the scale.
HOST_REF_S = 0.0045
DEVICES = ("a", "b", "c", "s1", "s2", "s3")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

TENSOR_METRIC_OPS = (
    "conv2d", "batch_norm", "avg_pool", "max_pool", "residual_norm", "relu",
    "concat", "add", "dense", "softmax", "reduce_mean", "reduce_max", "dropout",
)


def _mb(n_bytes) -> float:
    return n_bytes / 1e6


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ---------------------------------------------------------------------------
# inputs


def write_stereo_wavs(directory: Path, seed: int, count: int) -> list:
    """10 s, 44.1 kHz, stereo PCM16 scenes: drifting tones over noise."""
    rng = np.random.default_rng([seed, 1])
    t = np.arange(WAV_SECONDS * WAV_RATE) / WAV_RATE
    paths = []
    for i in range(count):
        tones = sum(
            rng.uniform(0.05, 0.2)
            * np.sin(2 * np.pi * rng.uniform(60.0, 8000.0) * t + rng.uniform(0, 2 * np.pi))
            for _ in range(4)
        )
        envelope = 1.0 + 0.5 * np.sin(2 * np.pi * rng.uniform(0.2, 2.0) * t)
        left = tones * envelope + 0.1 * rng.standard_normal(t.size)
        right = rng.uniform(0.7, 1.0) * left + 0.05 * rng.standard_normal(t.size)
        stereo = np.stack([left, right], axis=1)
        stereo /= 1.05 * np.abs(stereo).max()
        pcm = np.round(stereo * 32767.0).astype("<i2")
        path = directory / f"clip{i}.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(WAV_RATE)
            fh.writeframes(pcm.tobytes())
        paths.append(path)
    return paths


def synthetic_records(seed: int, count: int):
    """(features [128, 305, 3] float32, label, device) records."""
    rng = np.random.default_rng([seed, 2])
    scale = np.array([12.0, 1.0, 0.3], dtype=np.float32)
    offset = np.array([-40.0, 0.0, 0.0], dtype=np.float32)
    for i in range(count):
        feats = rng.standard_normal(RECORD_SHAPE, dtype=np.float32) * scale + offset
        yield feats, i % models.N_CLASSES, DEVICES[i % len(DEVICES)]


def batches_from(features: np.ndarray, labels: np.ndarray, order: np.ndarray):
    """Consecutive BATCH-sized (indices, features, one-hot labels) groups."""
    out = []
    for lo in range(0, len(order) - BATCH + 1, BATCH):
        idx = order[lo : lo + BATCH]
        onehot = np.eye(models.N_CLASSES)[labels[idx]]
        out.append((idx, np.ascontiguousarray(features[idx]), onehot))
    return out


def host_probe(kernel) -> float:
    """Time one run of a fixed numpy/scipy kernel that does not use asckit."""
    sos, x, a = kernel
    start = time.perf_counter()
    signal.sosfilt(sos, x)
    a @ a
    return time.perf_counter() - start


def make_probe_kernel():
    rng = np.random.default_rng(0)
    return (signal.butter(4, 0.1, output="sos"), rng.standard_normal(400_000),
            rng.standard_normal((256, 256)))


# ---------------------------------------------------------------------------
# workloads


class Extract:
    name = "extract"
    items = "segments"
    network = None

    def __init__(self, workdir: Path, seed: int, tracer: Tracer):
        self.tracer = tracer
        self.workdir = workdir
        self.paths = write_stereo_wavs(workdir, seed, N_WAVS)
        ref_dir = workdir / "ref"
        ref_dir.mkdir()
        (self.reference_path,) = write_stereo_wavs(ref_dir, REFERENCE_SEED, 1)
        self.kept = {}  # file index -> features of its first segment
        self.write_mb = 0.0

    def sizes(self):
        return {"wav_files": N_WAVS, "wav_seconds": WAV_SECONDS, "wav_rate": WAV_RATE,
                "wav_channels": 2, "frontends": list(frontend.FRONTENDS)}

    def setup(self):
        return self._extract(self.reference_path)[1]

    def op(self, i):
        return self._extract(self.paths[i % len(self.paths)])

    def _extract(self, path):
        span = self.tracer.span
        with span("audio.load_wav"):
            clip = audio.load_wav(path)
        with span("audio.resample"):
            clip = audio.resample_to_32k(clip)
        with span("audio.segment"):
            segments = audio.segment_10s(clip)
        out = []
        for seg in segments:
            feats = {}
            for name in frontend.FRONTENDS:
                with span(f"frontend.{name}"):
                    feats[name] = frontend.extract_frontend(seg, name).data
            out.append(feats)
        return len(segments), out

    def check(self, result) -> bool:
        return len(result) > 0 and all(
            f.shape == RECORD_SHAPE and bool(np.isfinite(f).all())
            for feats in result for f in feats.values()
        )

    def keep(self, i, result) -> bool:
        """Keep one record per file, so the closing writes have a fixed size;
        a file seen before must give the same features again."""
        k = i % len(self.paths)
        feats = {name: f.astype(np.float32) for name, f in result[0].items()}
        if k not in self.kept:
            self.kept[k] = feats
            return True
        return all(np.array_equal(feats[n], self.kept[k][n]) for n in feats)

    def finish(self):
        """Write one feature cache per front-end; returns (seconds, ok flags)."""
        paths = {name: self.workdir / f"{name}.ascf" for name in frontend.FRONTENDS}
        records = {name: [(feats[name], k % models.N_CLASSES, DEVICES[k % len(DEVICES)])
                          for k, feats in sorted(self.kept.items())]
                   for name in frontend.FRONTENDS}
        start = time.perf_counter()
        for name, path in paths.items():
            with self.tracer.span("cache.write"):
                cache.write_cache(path, name, records[name])
        seconds = time.perf_counter() - start
        ok = []
        for name, path in paths.items():
            self.write_mb += _mb(path.stat().st_size)
            back = cache.read_cache(path)
            recs = records[name]
            ok.append(
                back.frontend == name
                and back.features.shape == (len(recs),) + RECORD_SHAPE
                and all(np.array_equal(back.features[k], r[0]) for k, r in enumerate(recs))
                and [int(v) for v in back.labels] == [r[1] for r in recs]
                and back.devices == [r[2] for r in recs]
            )
        return seconds, ok

    @staticmethod
    def summary(result):
        """Reference summary of one clip's features: channel means, stds, samples."""
        feats = result[0]
        picks = np.linspace(0, np.prod(RECORD_SHAPE) - 1, 16).astype(int)
        return {
            name: {
                "mean": f.mean(axis=(0, 1)).tolist(),
                "std": f.std(axis=(0, 1)).tolist(),
                "samples": f.reshape(-1)[picks].tolist(),
            }
            for name, f in feats.items()
        }


class _CachedModel:
    """Shared set-up of train and predict: build red02, read the ASCF file."""

    network = None

    def __init__(self, workdir: Path, seed: int, tracer: Tracer):
        self.tracer = tracer
        self.seed = seed
        self.cache_path = workdir / "records.ascf"
        cache.write_cache(self.cache_path, "logmel", synthetic_records(seed, N_RECORDS))
        ref = list(synthetic_records(REFERENCE_SEED, BATCH))
        self.reference = (np.arange(BATCH), np.stack([r[0] for r in ref]),
                          np.eye(models.N_CLASSES)[[r[1] for r in ref]])
        self.read_peak_mb = []

    def sizes(self):
        return {"variant": VARIANT, "batch": BATCH, "records": N_RECORDS,
                "record_shape": list(RECORD_SHAPE), "crop": CROP,
                "cache_mb": _mb(self.cache_path.stat().st_size)}

    def _build_and_read(self):
        # read first: in the first repetition nothing before it has raised
        # the peak RSS above what the imports left, so the growth is the read's
        before = _maxrss_bytes()
        with self.tracer.span("cache.read"):
            fs = cache.read_cache(self.cache_path)
        self.read_peak_mb.append(_mb(_maxrss_bytes() - before))
        with self.tracer.span("models.build"):
            network = models.build_network(VARIANT, seed=NET_SEED)
        order = np.random.default_rng([self.seed, 3]).permutation(fs.n_samples)
        return network, batches_from(fs.features, fs.labels, order)

    def keep(self, i, result) -> bool:
        return True


class Train(_CachedModel):
    name = "train"
    items = "examples"

    def setup(self):
        self.network, self.batches = self._build_and_read()
        self.params = self.network.params()
        self.pipeline = augment.AugmentPipeline(augment.AugmentConfig(rng_seed=REFERENCE_SEED))
        self.dropout_rng = np.random.default_rng(REFERENCE_SEED)
        result = self._step(self.reference, epoch=0)
        self.pipeline = augment.AugmentPipeline(augment.AugmentConfig(rng_seed=self.seed))
        self.dropout_rng = np.random.default_rng([self.seed, 4])
        return result

    def op(self, i):
        return BATCH, self._step(self.batches[i % len(self.batches)], epoch=i)

    def _step(self, batch, epoch):
        span = self.tracer.span
        idx, feats, onehot = batch
        with span("augment.pipeline"):
            aug = self.pipeline(augment.LabeledBatch(feats, onehot), epoch, idx)
        probs = self.network.forward(T.Tensor(aug.features), mode="train",
                                     rng=self.dropout_rng)
        target = T.Tensor(aug.labels.astype(np.float32))
        loss = T.scale(T.tsum(T.mul(target, T.log(probs))), -1.0 / BATCH)
        T.zero_grads(self.params)
        with span("models.backward"):
            T.backward(loss)
        with span("train.update"):
            for p in self.params:
                if p.grad is None:
                    continue
                step = p.grad + WEIGHT_DECAY * p.data if p.l2_included else p.grad
                p.data -= LEARNING_RATE * step
        return {"loss": float(loss.data), "probs": probs.data,
                "grads": [p.grad for p in self.params]}

    def check(self, result) -> bool:
        return (np.isfinite(result["loss"])
                and bool(np.isfinite(result["probs"]).all())
                and all(g is not None and bool(np.isfinite(g).all())
                        for g in result["grads"]))

    @staticmethod
    def summary(result):
        grad_norm = np.sqrt(sum(np.sum(np.square(g, dtype=np.float64))
                                for g in result["grads"]))
        return {"loss": result["loss"], "grad_norm": float(grad_norm),
                "probs": np.asarray(result["probs"], dtype=np.float64).tolist()}


class Predict(_CachedModel):
    name = "predict"
    items = "clips"

    def setup(self):
        self.network, batches = self._build_and_read()
        self.batches = [np.ascontiguousarray(augment.center_crop(f, CROP))
                        for _, f, _ in batches]
        ref = np.ascontiguousarray(augment.center_crop(self.reference[1], CROP))
        return models.predict(self.network, ref, batch_size=BATCH)

    def op(self, i):
        batch = self.batches[i % len(self.batches)]
        return batch.shape[0], models.predict(self.network, batch, batch_size=BATCH)

    def check(self, result) -> bool:
        return (result.shape == (BATCH, models.N_CLASSES)
                and bool(np.isfinite(result).all())
                and bool((result >= 0).all())
                and bool(np.allclose(result.sum(axis=1), 1.0, rtol=0, atol=1e-5)))

    @staticmethod
    def summary(result):
        return {"probs": np.asarray(result).tolist()}


WORKLOADS = {w.name: w for w in (Extract, Train, Predict)}


# ---------------------------------------------------------------------------
# reference values


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def matches_reference(summary, reference) -> bool:
    """Every number of `summary` within the stored tolerance of `reference`."""
    tol = reference["tolerance"]

    def close(a, b):
        if isinstance(b, dict):
            return isinstance(a, dict) and a.keys() == b.keys() and \
                all(close(a[k], b[k]) for k in b)
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        return a.shape == b.shape and bool(np.allclose(a, b, rtol=tol["rtol"],
                                                       atol=tol["atol"]))

    return close(summary, reference["values"])


# ---------------------------------------------------------------------------
# the measured run


def environment(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "setup_reps": SETUP_REPS,
        "items": workload.items, "sizes": workload.sizes(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: Path):
    """Set up and measure one workload.

    Returns (correct, attempted, failed, metrics, report): the metrics are
    the end-to-end ones, or the per-layer ones when `trace` is set.
    """
    tracer = Tracer()
    tracer.active = trace
    workdir = out_dir / f"inputs-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _run(WORKLOADS[name], seed, seconds, trace, import_s, tracer,
                    workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return np.array([r.ru_minflt, r.ru_utime, r.ru_stime])


def _run(cls, seed, seconds, trace, import_s, tracer, workdir, out_dir):
    reference = load_reference()[cls.name]
    workload = cls(workdir, seed, tracer)
    kernel = make_probe_kernel()
    attempted = failed = 0
    probes = []

    # set-up: construction, cache read and one reference-checked warm-up op
    setup_times, warmup_minflt = [], []
    for _ in range(SETUP_REPS):
        probes.append(host_probe(kernel))
        before = _rusage()
        start = time.perf_counter()
        result = workload.setup()
        setup_times.append(time.perf_counter() - start)
        warmup_minflt.append(int((_rusage() - before)[0]))
        attempted += 1
        if not (workload.check(result)
                and matches_reference(cls.summary(result), reference)):
            failed += 1
        del result
        gc.collect()

    # timed phase; with tracing, every other op is traced
    tracer.active = False
    ops = []
    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < seconds or i < MIN_OPS:
        probes.append(host_probe(kernel))
        traced = trace and i % 2 == 1
        if traced:
            tracer.install(T, workload.network)
            tracer.op, tracer.active = i, True
        before = _rusage()
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                items, result = workload.op(i)
        except Exception:  # a failing op is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            items, result = 0, None
        duration = time.perf_counter() - start
        usage = _rusage() - before
        if traced:
            tracer.active, tracer.op = False, -1
            tracer.uninstall()
        ok = result is not None and workload.check(result) and workload.keep(i, result)
        attempted += 1
        failed += not ok
        ops.append({"i": i, "s": duration, "items": items if ok else 0,
                    "traced": traced, "usage": usage})
        del result
        i += 1

    finish_s = 0.0
    if isinstance(workload, Extract):
        tracer.active = trace
        finish_s, write_ok = workload.finish()
        tracer.active = False
        attempted += len(write_ok)
        failed += write_ok.count(False)

    plain = [o for o in ops if not o["traced"]]
    tail = tail_percentile([o["s"] for o in plain])
    wall = {
        "items_per_s": sum(o["items"] for o in plain)
        / (sum(o["s"] for o in plain) + finish_s),
        "op_p50_s": statistics.median(o["s"] for o in plain),
        "op_tail_s": tail[1] if tail else None,
        "setup_s": statistics.median(setup_times),
    }
    scale = HOST_REF_S / statistics.median(probes)
    e2e = {name: wall[name] * scale for name in ("op_p50_s", "op_tail_s", "setup_s")
           if wall[name] is not None}
    e2e["items_per_s"] = wall["items_per_s"] / scale
    e2e["peak_rss_mb"] = _mb(_maxrss_bytes())
    env = environment(workload, seed, seconds, trace)
    info = {
        "error_rate": failed / attempted, "attempted": attempted, "failed": failed,
        "timed_ops": len(plain), "op_tail_percentile": tail[0] if tail else None,
        "setup_reps_s": setup_times, "warmup_minflt": warmup_minflt,
        "setup.import_s": import_s,
        "host.ref_s": statistics.median(probes),
        "host_scale": scale,
        "wall_clock": wall,
        "finish_s": finish_s,
        "ops": [[round(o["s"], 4)] + [round(float(u), 4) for u in o["usage"]]
                                  for o in plain],
        "probes_s": [round(p, 5) for p in probes],
    }
    metrics = dict(e2e)
    if trace:
        metrics = layer_metrics(tracer, workload, ops, probes, import_s)
        tracer.dump(out_dir / f"spans-{cls.name}-seed{seed}.json",
                    {"env": env, "info": info, "metrics": metrics})
    report = {"env": env, "info": info}
    correct = failed == 0
    return correct, attempted, failed, metrics, report


def layer_metrics(tracer, workload, ops, probes, import_s) -> dict:
    """Per-layer figures from a traced run (see README.md for each one)."""
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    traced_ids = [o["i"] for o in traced]
    timed = set(traced_ids)
    inclusive = tracer.per_op_totals(traced_ids)
    own = tracer.per_op_totals(traced_ids, self_only=True)

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def per_op(name, table=inclusive):
        return med(table.get(name, [0.0] * len(traced_ids)))

    m = {}
    for name in frontend.FRONTENDS:
        m[f"frontend.{name}_s"] = med(tracer.durations(f"frontend.{name}", timed))
    for name in ("load_wav", "resample", "segment"):
        m[f"audio.{name}_s"] = med(tracer.durations(f"audio.{name}", timed))
    m["cache.write_s"] = float(sum(tracer.durations("cache.write")))
    m["cache.write_mb"] = getattr(workload, "write_mb", 0.0)
    m["cache.read_s"] = med(tracer.durations("cache.read"))
    m["cache.read_peak_mb"] = (workload.read_peak_mb[0]
                               if getattr(workload, "read_peak_mb", None) else 0.0)
    m["augment.pipeline_s"] = per_op("augment.pipeline")
    m["models.build_s"] = med(tracer.durations("models.build"))
    for b in range(4):
        m[f"models.block{b}_s"] = per_op(f"models.block{b}")
    m["models.head_s"] = per_op("models.head")
    m["models.forward_s"] = per_op("models.forward")
    m["models.backward_s"] = per_op("models.backward")
    m["train.update_s"] = per_op("train.update")
    for op in TENSOR_METRIC_OPS:
        m[f"tensor.{op}.fwd_s"] = per_op(f"tensor.{op}.fwd", own)
        m[f"tensor.{op}.bwd_s"] = per_op(f"tensor.{op}.bwd", own)
        m[f"tensor.{op}.calls"] = med(tracer.per_op_counts(traced_ids, f"tensor.{op}.calls"))
        m[f"tensor.{op}.out_mb"] = _mb(med(
            tracer.per_op_counts(traced_ids, f"tensor.{op}.out_bytes")))
    m["tensor.f64_outputs"] = med(tracer.per_op_counts(traced_ids, "tensor.f64_outputs"))
    usage = np.array([o["usage"] for o in plain])
    m["proc.minflt_per_op"] = float(usage[:, 0].mean())
    m["proc.user_s_per_op"] = float(usage[:, 1].mean())
    m["proc.sys_s_per_op"] = float(usage[:, 2].mean())
    m["host.ref_s"] = med(probes)
    m["setup.import_s"] = import_s
    rate_traced = sum(o["items"] for o in traced) / sum(o["s"] for o in traced)
    rate_plain = sum(o["items"] for o in plain) / sum(o["s"] for o in plain)
    m["trace.items_per_s"] = rate_traced
    m["trace.untraced_items_per_s"] = rate_plain
    m["trace.overhead_pct"] = 100.0 * (rate_plain / rate_traced - 1.0)
    return m
