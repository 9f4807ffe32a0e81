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
    """Vectors or a table `read_ofv` would not return unchanged: a record off
    the record rule, rows not int16 records, or offsets that miss rows."""


class FramingError(FlowcamError):
    """An .ofv stream lacks its OFV1 header, ends inside a frame block header
    or payload, or has bytes after its last frame block."""


class PayloadError(FlowcamError):
    """A decoded record breaks the record rule or follows a sentinel."""


class AlignmentError(FlowcamError):
    """Estimated and ground-truth series have different lengths."""


class CoverageError(FlowcamError):
    """Requested motion samples the texture outside its bounds."""
