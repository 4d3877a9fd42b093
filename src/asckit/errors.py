"""Exception types shared across the toolkit: one class per kind of fault,
and the integer check that raises `ConfigMismatch`."""

import numbers


class AscKitError(Exception):
    """Base class for all toolkit errors."""


class IOFailure(AscKitError):
    """A file could not be read or written for what it holds: a WAV file,
    weight file or feature cache is truncated, malformed, in an unsupported
    encoding or holds no or non-finite samples; a weight file does not match
    the model; or a record cannot be written. For malformed input the
    message names the path and the byte offset. Errors of the operating
    system, such as a missing file, stay `OSError`."""


class ShapeMismatch(AscKitError):
    """The data given does not fit: operands of incompatible shapes or of
    different dtypes, or other than the 3 that `tensor.avg_pool` pools; a
    `tensor.max_pool` side that is odd or under 2; a reduce axis out of
    range; a label row off the simplex; a clip that is empty, not mono,
    non-finite or at a rate that is a bool or not a whole number, or one to
    resample below `audio.MIN_RATE`, to segment not at 32 kHz or shorter than
    a segment, or to extract features from not one 10 s / 32 kHz segment;
    features that overflow; a batch too small for a crop or mask, or given a
    number of sample indices other than its size; a forward batch with no
    examples; a training or held-out label not below `models.N_CLASSES`;
    training, held-out or BN recalibration features of a shape other than
    [N, 128, T, 3] with T of at least `augment.CROP_WIDTH`; or a training
    set, or features to recalibrate BN on, of fewer records than one
    `train.BATCH`."""


class ConfigMismatch(AscKitError):
    """A setting or name is invalid: an unknown variant, front-end or mode,
    a duplicate parameter name, a dropout rate outside [0, 1), a train-mode
    dropout or forward with no RNG, a predict batch size that is not an
    integer of at least 1, a network seed or augmentation seed, epoch or
    sample index that is not a non-negative integer (see `check_integer`), a
    training epoch count that is not an integer of at least 1 or a training
    seed that is not an integer in 0..2**32 - 1, or a training and a
    held-out set of different front-ends."""


def check_integer(what: str, value, least: int = 0):
    """`value` if it is an integer of at least `least`, a NumPy one too but
    not a bool; otherwise raise ConfigMismatch."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigMismatch(f"{what} must be an integer of at least {least}, got {value!r}")
    return value
