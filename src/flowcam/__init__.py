"""flowcam: software emulator of an on-sensor sparse optical-flow accelerator."""

from .pipeline import PARAMETER_SETS

__version__ = "0.1.0"

__all__ = ["PARAMETER_SETS", "__version__"]
