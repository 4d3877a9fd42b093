"""Exception types shared across the toolkit."""


class AscKitError(Exception):
    """Base class for all toolkit errors."""


# audio ingestion
class MalformedHeader(AscKitError):
    """The file is not a parseable RIFF/WAVE container."""


class UnsupportedEncoding(AscKitError):
    """The WAV encoding is not 16-bit PCM or 32-bit IEEE float."""


class EmptyAudio(AscKitError):
    """The audio payload contains zero samples."""


class ClipTooShort(AscKitError):
    """Clip is shorter than the requested analysis window/segment."""


# spectral front-end
class InvalidBandRange(AscKitError):
    """Filterbank frequency range is empty or exceeds Nyquist."""


class NyquistExceeded(AscKitError):
    """A requested band center lies above the Nyquist frequency."""


class TooFewFrames(AscKitError):
    """Feature sequence has fewer frames than the regression window."""


class ShapeMismatch(AscKitError):
    """Operands have incompatible shapes."""


# augmentation
class CropWiderThanInput(AscKitError):
    """Requested crop width exceeds the time axis length."""


class MaskLongerThanAxis(AscKitError):
    """Requested mask run exceeds the masked axis length."""


class BatchTooSmall(AscKitError):
    """The operation needs at least two samples in the batch."""


# model zoo
class ConfigMismatch(AscKitError):
    """Architecture configuration is internally inconsistent."""


class UnknownVariant(AscKitError):
    """Requested network variant name is not defined."""


class WeightsNotLoaded(AscKitError):
    """A weight file does not match the model's parameters and buffers."""


# binary files
class IOFailure(AscKitError):
    """Reading or writing a weight file or feature cache failed; for
    malformed input the message names the path and the byte offset."""
