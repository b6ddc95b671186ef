"""3D multi-object tracking on LiDAR point clouds with scene-flow motion
prediction.

The package covers the full loop: point-cloud preprocessing, per-tracklet
motion prediction from scene flow, oriented-box association, tracklet
lifecycle management, CLEAR/sAMOTA evaluation, dataset I/O and a synthetic
scenario generator, all wired together behind the ``flowtrack`` command.
"""

__version__ = "0.1.0"

from .geometry import Box3D, iou3d, points_in_box, points_in_boxes, wrap_angle
from .preprocess import (
    GROUND,
    UNLABELED,
    Calibration,
    CalibrationError,
    GroundFit,
    PointCloud,
    filter_fov,
    fit_ground,
    sample_points,
)
from .flow import (
    FlowDataError,
    FlowField,
    RigidMotion,
    estimate_nn,
    load_flow,
    save_flow,
)
from .assignment import max_similarity_assignment
from .tracker import (
    Detection,
    EmittedTrack,
    SettingsError,
    Tracker,
    TrackerConfig,
    Tracklet,
    UsageError,
    associate,
    build_similarity,
    compute_offset,
    predict,
)
from .metrics import (
    EvalConfig,
    EvaluationInputError,
    MetricsReport,
    TrackedBox,
    evaluate_sequence,
    match_frame,
    recall_sweep,
)

__all__ = [
    "__version__",
    "Box3D",
    "iou3d",
    "points_in_box",
    "points_in_boxes",
    "wrap_angle",
    "GROUND",
    "UNLABELED",
    "Calibration",
    "CalibrationError",
    "GroundFit",
    "PointCloud",
    "filter_fov",
    "fit_ground",
    "sample_points",
    "FlowDataError",
    "FlowField",
    "RigidMotion",
    "estimate_nn",
    "load_flow",
    "save_flow",
    "max_similarity_assignment",
    "Detection",
    "EmittedTrack",
    "SettingsError",
    "Tracker",
    "TrackerConfig",
    "Tracklet",
    "UsageError",
    "associate",
    "build_similarity",
    "compute_offset",
    "predict",
    "EvalConfig",
    "EvaluationInputError",
    "MetricsReport",
    "TrackedBox",
    "evaluate_sequence",
    "match_frame",
    "recall_sweep",
]
