"""flowcam: software emulator of an on-sensor sparse optical-flow accelerator."""

from .feature_engine import (
    Feature,
    FeatureSet,
    detect_fast,
    update_threshold,
)
from .matcher import FlowVector, VectorBatch, match_features, ratio_filter
from .pipeline import (
    PARAMETER_SETS,
    RunReport,
    run_parameter_set,
    run_pipeline,
    throughput_report,
)
from .scene_synth import (
    MotionSpec,
    TextureSpec,
    generate_texture,
    render_sequence,
)
from .sensor_frontend import (
    Frame,
    SensorConfig,
    downscale_for_of,
    max_frame_rate,
)
from .track_analyzer import (
    TrackSet,
    accuracy_metrics,
    analyze,
    link_tracks,
    mean_flow,
    redetect,
    traveled_distance,
)
from .wire_format import VectorTable, encode, read_ofv, write_ofv

__version__ = "0.1.0"

__all__ = [
    "Feature",
    "FeatureSet",
    "FlowVector",
    "Frame",
    "MotionSpec",
    "PARAMETER_SETS",
    "RunReport",
    "SensorConfig",
    "TextureSpec",
    "TrackSet",
    "VectorBatch",
    "VectorTable",
    "accuracy_metrics",
    "analyze",
    "detect_fast",
    "downscale_for_of",
    "encode",
    "generate_texture",
    "link_tracks",
    "match_features",
    "max_frame_rate",
    "mean_flow",
    "ratio_filter",
    "read_ofv",
    "redetect",
    "render_sequence",
    "run_parameter_set",
    "run_pipeline",
    "throughput_report",
    "traveled_distance",
    "update_threshold",
    "write_ofv",
    "__version__",
]
