"""Exception types shared across the emulator."""


class FlowcamError(ValueError):
    """Base class for all emulator errors."""


class BoundsError(FlowcamError):
    """A crop falls outside the frame, or a pixel buffer is not 2-D."""


class ConfigError(FlowcamError):
    """Invalid or inconsistent sensor configuration."""


class RangeError(FlowcamError):
    """Numeric input outside its documented range."""


class FrameSizeError(FlowcamError):
    """Frame too small for the requested operation."""


class MarginError(FlowcamError):
    """Feature too close to the frame border for its sampling patch."""


class EncodingError(FlowcamError):
    """Vector field out of range for the wire format."""


class FramingError(FlowcamError):
    """Byte stream length is not a whole number of vector lines."""


class PayloadError(FlowcamError):
    """Decoded record carries an out-of-range field."""


class AlignmentError(FlowcamError):
    """Estimated and ground-truth series have different lengths."""


class CoverageError(FlowcamError):
    """Requested motion samples the texture outside its bounds."""
