"""Exception types shared across the toolkit."""


class AscKitError(Exception):
    """Base class for all toolkit errors."""


# audio ingestion
class MalformedHeader(AscKitError):
    """A WAV file is truncated or not a parseable RIFF/WAVE container, or
    its header declares no channels or a rate below `audio.MIN_RATE`; a
    clip's sample rate is not a positive whole number."""


class UnsupportedEncoding(AscKitError):
    """The WAV encoding is not 16-bit PCM, 24-bit PCM or 32-bit IEEE float."""


class EmptyAudio(AscKitError):
    """The audio payload holds no samples, or non-finite ones."""


class ClipTooShort(AscKitError):
    """A clip to cut into segments is shorter than one 10 s segment."""


class ShapeMismatch(AscKitError):
    """Operands have incompatible shapes, a label row is off the simplex, a
    front-end was given anything but one 10 s / 32 kHz segment, or a clip to
    segment is not at 32 kHz."""


# augmentation
class CropWiderThanInput(AscKitError):
    """Requested crop width exceeds the time axis length."""


class MaskLongerThanAxis(AscKitError):
    """Requested mask run exceeds the masked axis length."""


class BatchTooSmall(AscKitError):
    """The operation needs at least two samples in the batch."""


# model zoo
class ConfigMismatch(AscKitError):
    """A setting is invalid: a duplicate parameter name, an unknown mode, a
    dropout rate outside [0, 1), a train-mode dropout with no RNG, a batch
    size below 1 or an unknown front-end name."""


class UnknownVariant(AscKitError):
    """Requested network variant name is not defined."""


class WeightsNotLoaded(AscKitError):
    """A weight file does not match the model's parameters and buffers."""


# binary files
class IOFailure(AscKitError):
    """Reading or writing a weight file or feature cache failed; for
    malformed input the message names the path and the byte offset."""
