"""asckit: low-complexity acoustic scene classification toolkit.

WAV ingestion and 10 s segmentation, three spectrogram front-ends (log-mel,
constant-Q, gammatone) stacked with delta features, a binary feature cache,
online batch augmentation (crop, mask, mixup), a small autograd engine,
the inception-residual network family with its weight files, and the
training loop (`asckit.train`): an SGD step, BN recalibration, per-device
evaluation and JSON-lines metrics, run as `python -m asckit.train`. The
package does not import `train` itself.
"""

__version__ = "0.1.0"
