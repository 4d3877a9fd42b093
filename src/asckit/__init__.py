"""asckit: low-complexity acoustic scene classification toolkit.

WAV ingestion and 10 s segmentation, three spectrogram front-ends (log-mel,
constant-Q, gammatone) stacked with delta features, a binary feature cache,
online batch augmentation (crop, mask, mixup), a small autograd engine and
the inception-residual network family with its weight files.
"""

__version__ = "0.1.0"
