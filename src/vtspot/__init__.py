"""vtspot: multi-oriented video text tracking and spotting toolkit.

Rotated-box geometry, optimal set matching and its training loss,
IoU-gated tracking, an IoU and edit-distance linking baseline, annotation
sampling and interpolation, and the detection / CLEAR / identity
evaluation stack, all behind one data model and a scriptable CLI.
"""

__version__ = "0.1.0"

from .annotations import (
    Detection,
    DetectionsFile,
    FrameDetections,
    IGNORE_MARK,
    Instance,
    TextCategory,
    Trajectory,
    VideoAnnotation,
    annotation_to_trajectories,
    interpolate,
    load_annotation,
    load_detections,
    sample,
    save_annotation,
    save_detections,
    save_trajectories,
    trajectories_to_annotation,
)
from .errors import (
    CornerCorrespondenceError,
    DataError,
    DegenerateQuad,
    DuplicateTrackIdInFrame,
    EmptyInput,
    GeometryError,
    MatchingError,
    MetricsError,
    MissingTranscription,
    NonConvexInput,
    NonFiniteCost,
    NonMonotonicFrame,
    OutOfRangeFrameIndex,
    SchemaError,
    SelfIntersectingQuad,
    SizeMismatch,
    VideoMismatch,
    VtspotError,
)
from .geometry import (
    Quad,
    RotatedBox,
    canonical_angle,
    giou,
    quad_iou,
    quad_to_rotated,
    rotated_to_quad,
)
from .linker import LinkerConfig, edit_distance, link
from .matching import (
    Assignment,
    CostWeights,
    GroundTruthInstance,
    PredictedInstance,
    angle_loss,
    hungarian,
    match_sets,
    pair_cost,
    set_loss,
    set_loss_terms,
)
from .metrics import (
    DetCounters,
    IdCounters,
    MetricsReport,
    MotCounters,
    aggregate,
    evaluate,
    normalize_transcription,
)
from .synth import SynthConfig, generate
from .tracker import Tracker, TrackerConfig, TrackState
from .tracker import run as track

__all__ = [
    "__version__",
    # annotations
    "Detection", "DetectionsFile", "FrameDetections", "IGNORE_MARK",
    "Instance", "TextCategory", "Trajectory", "VideoAnnotation",
    "annotation_to_trajectories", "interpolate",
    "load_annotation", "load_detections", "sample", "save_annotation",
    "save_detections", "save_trajectories", "trajectories_to_annotation",
    # errors
    "CornerCorrespondenceError", "DataError", "DegenerateQuad",
    "DuplicateTrackIdInFrame", "EmptyInput", "GeometryError",
    "MatchingError", "MetricsError", "MissingTranscription",
    "NonConvexInput", "NonFiniteCost", "NonMonotonicFrame",
    "OutOfRangeFrameIndex", "SchemaError", "SelfIntersectingQuad",
    "SizeMismatch", "VideoMismatch", "VtspotError",
    # geometry
    "Quad", "RotatedBox", "canonical_angle", "giou", "quad_iou",
    "quad_to_rotated", "rotated_to_quad",
    # linker
    "LinkerConfig", "edit_distance", "link",
    # matching
    "Assignment", "CostWeights", "GroundTruthInstance", "PredictedInstance",
    "angle_loss", "hungarian", "match_sets", "pair_cost", "set_loss",
    "set_loss_terms",
    # metrics
    "DetCounters", "IdCounters", "MetricsReport", "MotCounters", "aggregate",
    "evaluate", "normalize_transcription",
    # synth
    "SynthConfig", "generate",
    # tracker
    "Tracker", "TrackerConfig", "TrackState", "track",
]
