"""Exception types shared across the emulator."""


class FlowcamError(ValueError):
    """Base class for all emulator errors."""


class BoundsError(FlowcamError):
    """A pixel buffer is not 2-D."""


class ConfigError(FlowcamError):
    """Invalid or inconsistent sensor configuration."""


class RangeError(FlowcamError):
    """Numeric input outside its documented range."""


class FrameSizeError(FlowcamError):
    """Frame too small for the requested operation."""


class MarginError(FlowcamError):
    """Feature too close to the frame border for its sampling patch."""


class EncodingError(FlowcamError):
    """Vectors the wire format cannot carry: a field out of range, or a table
    whose rows are not int16 records."""


class FramingError(FlowcamError):
    """An .ofv stream lacks its OFV1 header, ends inside a frame block header
    or payload, or has bytes after its last frame block."""


class PayloadError(FlowcamError):
    """Decoded record carries an out-of-range field."""


class AlignmentError(FlowcamError):
    """Estimated and ground-truth series have different lengths."""


class CoverageError(FlowcamError):
    """Requested motion samples the texture outside its bounds."""
