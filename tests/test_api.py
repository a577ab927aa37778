"""The public surface: ``vtspot.__all__`` is exactly the names below, each
resolves, and the retired corner type, its polygon helpers, the box IoU
kernel, the second text-slot record, the tracker's tuple history and
``Trajectory.lifespan`` stay gone."""

import vtspot
import vtspot.annotations
import vtspot.geometry

PUBLIC = [
    "Assignment", "CornerCorrespondenceError", "CostWeights", "DataError",
    "DegenerateQuad", "DetCounters", "Detection", "DetectionsFile",
    "DuplicateTrackIdInFrame", "EmptyInput", "FrameDetections", "GeometryError",
    "GroundTruthInstance", "IGNORE_MARK", "IdCounters", "Instance",
    "LinkerConfig", "MatchingError", "MetricsError", "MetricsReport",
    "MissingTranscription", "MotCounters", "NonConvexInput", "NonFiniteCost",
    "NonMonotonicFrame", "OutOfRangeFrameIndex", "PredictedInstance", "Quad",
    "RotatedBox", "SchemaError", "SelfIntersectingQuad", "SizeMismatch",
    "SynthConfig", "TextCategory", "TrackState", "Tracker", "TrackerConfig",
    "Trajectory", "VideoAnnotation", "VideoMismatch",
    "VtspotError", "__version__", "aggregate", "angle_loss",
    "annotation_to_trajectories", "canonical_angle", "edit_distance",
    "evaluate", "generate", "giou", "hungarian", "interpolate", "link",
    "load_annotation", "load_detections", "match_sets",
    "normalize_transcription", "pair_cost", "quad_iou", "quad_to_rotated",
    "rotated_to_quad", "sample", "save_annotation", "save_detections",
    "save_trajectories", "set_loss", "set_loss_terms", "track",
    "trajectories_to_annotation",
]


def test_all_is_the_public_surface():
    assert len(PUBLIC) == 69
    assert sorted(vtspot.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(vtspot, name)] == []


def test_retired_geometry_names_are_gone():
    retired = ("Point2", "polygon_area", "polygon_intersection", "iou")
    assert [(module.__name__, name) for module in (vtspot, vtspot.geometry)
            for name in retired if hasattr(module, name)] == []


def test_a_trajectory_holds_instances_and_no_second_record():
    assert [module.__name__ for module in (vtspot, vtspot.annotations)
            if hasattr(module, "TrajectoryPoint")] == []


def test_a_track_records_detections_and_a_trajectory_has_no_lifespan():
    assert list(vtspot.TrackState.__dataclass_fields__) == [
        "track_id", "last_box", "predicted_box", "missed_frames", "frames"]
    assert not hasattr(vtspot.Trajectory, "lifespan")
