import contextlib
import dataclasses
import gc
import gzip
import io
import json
import math
import os
import pickle
import random
import re
import stat
import sys
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vtspot.annotations as annotations_mod
import vtspot.cli as cli
import vtspot.geometry as geometry_mod
from vtspot.annotations import (
    Detection,
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
from vtspot.annotations import DetectionsFile
from vtspot.errors import (
    CornerCorrespondenceError,
    DuplicateTrackIdInFrame,
    NonMonotonicFrame,
    OutOfRangeFrameIndex,
    SchemaError,
)
from vtspot.geometry import Quad, RotatedBox, quad_to_rotated, rotated_to_quad
from vtspot.metrics import aggregate, evaluate
from vtspot.synth import SynthConfig, generate

from oracles import first_non_number, json_text


def rect(x0, y0, x1, y1) -> Quad:
    return Quad.from_flat([x0, y0, x1, y0, x1, y1, x0, y1])


def inst(tid, quad, text="hello", category=TextCategory.SCENE) -> Instance:
    return Instance(track_id=tid, quad=quad, transcription=text, category=category)


def small_video(frames, frame_count=None, video_id="v0") -> VideoAnnotation:
    fc = frame_count if frame_count is not None else (max(frames) + 1 if frames else 1)
    return VideoAnnotation(
        video_id=video_id, width=640, height=480, frame_count=fc, frames=frames
    )


# ---------------------------------------------------------------------------
# model invariants
# ---------------------------------------------------------------------------


def test_category_parse_case_insensitive():
    assert TextCategory.parse("Caption") is TextCategory.CAPTION
    assert TextCategory.parse("SCENE") is TextCategory.SCENE
    assert TextCategory.parse("others") is TextCategory.OTHERS
    with pytest.raises(ValueError):
        TextCategory.parse("subtitle")


def test_ignore_follows_marker():
    a = inst(1, rect(0, 0, 10, 10), IGNORE_MARK)
    b = inst(2, rect(0, 0, 10, 10), "text")
    c = inst(3, rect(0, 0, 10, 10), None)
    assert a.ignore and not b.ignore and not c.ignore


def test_video_rejects_out_of_range_frame():
    with pytest.raises(OutOfRangeFrameIndex):
        small_video({5: []}, frame_count=3)


def test_video_rejects_duplicate_track_in_frame():
    q = rect(0, 0, 5, 5)
    with pytest.raises(DuplicateTrackIdInFrame):
        small_video({0: [inst(7, q), inst(7, q)]})


def test_detection_score_range():
    with pytest.raises(ValueError):
        Detection(box=RotatedBox(0, 0, 1, 1, 0), score=1.2)


@pytest.mark.parametrize("track_id", [True, False, 1.5, 2.0, "3", None])
def test_video_track_ids_must_be_ints(tmp_path, track_id):
    """Such an annotation was saved with "id": true, 1.5 or "3", and
    loading it back raised SchemaError."""
    q = rect(0, 0, 5, 5)
    with pytest.raises(ValueError, match=rf"^frames\.1\[1\]: track id must be an int, "
                                         rf"got {re.escape(repr(track_id))}$"):
        small_video({0: [inst(0, q)], 1: [inst(4, q), inst(track_id, q)]})
    with pytest.raises(ValueError, match="track id must be an int"):
        save_trajectories([Trajectory(track_id=track_id, frames={0: inst(track_id, q)})],
                          "v", 640, 480, 1, tmp_path / "t.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("score", [True, False])
def test_detection_score_is_not_a_bool(score):
    """Such a detection was saved with "score": true, and loading it back
    raised SchemaError."""
    with pytest.raises(ValueError, match=f"^score must be a number, got {score!r}$"):
        Detection(box=RotatedBox(0, 0, 1, 1, 0), score=score)


@pytest.mark.parametrize("text", [5, b"SALE", ["SALE"]])
def test_video_transcriptions_must_be_strings(text):
    """Such an annotation failed at save in the string quoter, naming no
    field."""
    q = rect(0, 0, 5, 5)
    with pytest.raises(ValueError, match=rf"^frames\.1\[1\]: transcription must be a string "
                                         rf"or None, got {re.escape(repr(text))}$"):
        small_video({0: [inst(0, q)], 1: [inst(4, q), inst(5, q, text)]})


@pytest.mark.parametrize("category", ["scene", None])
def test_video_categories_must_be_text_categories(category):
    """Such an annotation failed at save with an AttributeError."""
    q = rect(0, 0, 5, 5)
    with pytest.raises(ValueError, match=rf"^frames\.0\[0\]: category must be a TextCategory, "
                                         rf"got {category!r}$"):
        small_video({0: [inst(0, q, category=category)]})


@pytest.mark.parametrize("video_id", [7, None])
def test_video_ids_must_be_strings(video_id):
    with pytest.raises(ValueError, match=f"^video_id must be a string, got {video_id!r}$"):
        small_video({}, video_id=video_id)
    with pytest.raises(ValueError, match=f"^video_id must be a string, got {video_id!r}$"):
        DetectionsFile(video_id=video_id, width=640, height=480, frame_count=1, frames=[])


def test_video_scenario_must_be_a_string():
    with pytest.raises(ValueError, match="^scenario must be a string or None, got 3$"):
        VideoAnnotation(video_id="v", width=640, height=480, frame_count=1, frames={},
                        scenario=3)


@pytest.mark.parametrize("text", [5, b"SALE"])
def test_detection_transcription_must_be_a_string(text):
    with pytest.raises(ValueError, match=rf"^transcription must be a string or None, "
                                         rf"got {re.escape(repr(text))}$"):
        Detection(box=RotatedBox(0, 0, 1, 1, 0), score=0.5, transcription=text)


# A lone surrogate: such a model built, and saving it to a path raised a
# UnicodeEncodeError that named no field.
_UNENCODABLE = [("\udc80", 0), ("ok \ud800 then", 3), ("café\udc80", 4)]


@pytest.mark.parametrize("text,at", _UNENCODABLE)
def test_video_transcriptions_must_be_encodable(text, at):
    q = rect(0, 0, 5, 5)
    with pytest.raises(ValueError, match=rf"^frames\.1\[1\]: transcription is not encodable "
                                         rf"as UTF-8: surrogates not allowed at index {at}$"):
        small_video({0: [inst(0, q)], 1: [inst(4, q), inst(5, q, text)]})


@pytest.mark.parametrize("text,at", _UNENCODABLE)
def test_video_ids_must_be_encodable(text, at):
    message = f"^video_id is not encodable as UTF-8: surrogates not allowed at index {at}$"
    with pytest.raises(ValueError, match=message):
        small_video({}, video_id=text)
    with pytest.raises(ValueError, match=message):
        DetectionsFile(video_id=text, width=640, height=480, frame_count=1, frames=[])


@pytest.mark.parametrize("text,at", _UNENCODABLE)
def test_video_scenario_must_be_encodable(text, at):
    with pytest.raises(ValueError, match=f"^scenario is not encodable as UTF-8: "
                                         f"surrogates not allowed at index {at}$"):
        VideoAnnotation(video_id="v", width=640, height=480, frame_count=1, frames={},
                        scenario=text)


@pytest.mark.parametrize("text,at", _UNENCODABLE)
def test_detection_transcription_must_be_encodable(text, at):
    with pytest.raises(ValueError, match=f"^transcription is not encodable as UTF-8: "
                                         f"surrogates not allowed at index {at}$"):
        Detection(box=RotatedBox(0, 0, 1, 1, 0), score=0.5, transcription=text)


def test_encodable_non_ascii_strings_build():
    q = rect(0, 0, 5, 5)
    video = VideoAnnotation(video_id="vidéo", width=640, height=480, frame_count=1,
                            frames={0: [inst(0, q, "SALE   カフェ")]}, scenario="街")
    assert video.frames[0][0].transcription == "SALE   カフェ"
    assert Detection(box=RotatedBox(0, 0, 1, 1, 0), score=0.5,
                     transcription="naïve").transcription == "naïve"


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def make_linear_video(n_frames=10, n_tracks=2) -> VideoAnnotation:
    """Tracks translating with exactly representable per-frame steps."""
    frames = {}
    for f in range(n_frames):
        items = []
        for t in range(n_tracks):
            x0 = 10.0 * t + 0.25 * f
            y0 = 5.0 * t + 0.5 * f
            items.append(inst(t, rect(x0, y0, x0 + 8.0, y0 + 3.0), f"word{t}"))
        frames[f] = items
    return small_video(frames, frame_count=n_frames)


def test_sample_k1_is_identity():
    dense = make_linear_video()
    s = sample(dense, 1)
    assert sorted(s.frames) == sorted(dense.frames)
    assert s.frames[3] == dense.frames[3]
    assert s == dense


def test_sample_k3_keeps_lattice():
    dense = make_linear_video(10)
    s = sample(dense, 3)
    assert sorted(s.frames) == [0, 3, 6, 9]
    assert isinstance(s, VideoAnnotation)
    assert (s.video_id, s.width, s.height, s.frame_count, s.scenario) == (
        dense.video_id, dense.width, dense.height, dense.frame_count, dense.scenario)


def test_sample_k_equal_frame_count():
    dense = make_linear_video(10)
    s = sample(dense, 10)
    assert sorted(s.frames) == [0]


@pytest.mark.parametrize("k", [0, -3])
def test_sample_rejects_bad_k(k):
    with pytest.raises(ValueError, match=f"^sampling frequency must be >= 1, got {k}$"):
        sample(make_linear_video(), k)


@pytest.mark.parametrize("k", [1.5, True, 0.5, False])
def test_sample_k_must_be_an_int(k):
    """k = 1.5 kept frames 0 and 3, and True acted as k = 1; 0.5 and False
    are refused as what they are, not as values below 1."""
    with pytest.raises(ValueError, match=f"sampling frequency must be an int, got {k!r}"):
        sample(make_linear_video(), k)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("frame_count", [4.5, True])
def test_interpolate_frame_count_must_be_an_int(frame_count):
    """4.5 was kept as the frame count, and True raised OutOfRangeFrameIndex
    for the sampled frame 3."""
    sampled = sample(make_linear_video(4), 3)
    with pytest.raises(ValueError, match=f"frame_count must be an int, got {frame_count!r}"):
        interpolate(sampled, frame_count)


def test_interpolate_constant_quad():
    q = rect(10, 10, 30, 20)
    s = VideoAnnotation(
        video_id="v", width=100, height=100, frame_count=4,
        frames={0: [inst(0, q)], 3: [inst(0, q)]},
    )
    dense = interpolate(s, 4)
    for f in range(4):
        assert dense.frames[f][0].quad == q
        assert dense.frames[f][0].transcription == "hello"


def test_interpolate_linear_x():
    a = rect(10, 0, 12, 2)
    b = rect(16, 0, 18, 2)
    s = VideoAnnotation(
        video_id="v", width=100, height=100, frame_count=4,
        frames={0: [inst(0, a)], 3: [inst(0, b)]},
    )
    dense = interpolate(s, 4)
    assert dense.frames[1][0].quad.as_flat()[0] == pytest.approx(12.0, abs=1e-12)
    assert dense.frames[2][0].quad.as_flat()[0] == pytest.approx(14.0, abs=1e-12)


def test_interpolate_preserves_endpoints_exactly():
    dense = make_linear_video(10)
    s = sample(dense, 3)
    rebuilt = interpolate(s, 10)
    for f in (0, 3, 6, 9):
        assert rebuilt.frames[f] == dense.frames[f]


def test_interpolate_round_trips_linear_motion():
    dense = make_linear_video(10)  # last frame 9 is on the k=3 lattice
    rebuilt = interpolate(sample(dense, 3), 10)
    assert rebuilt.frames.keys() == dense.frames.keys()
    for f in dense.frames:
        assert sorted(rebuilt.frames[f], key=lambda i: i.track_id) == sorted(
            dense.frames[f], key=lambda i: i.track_id
        )


def test_sample_interpolate_sample_idempotent():
    dense = make_linear_video(13)
    s1 = sample(dense, 3)
    s2 = sample(interpolate(s1, 13), 3)
    assert s1.frames.keys() == s2.frames.keys()
    for f in s1.frames:
        assert sorted(s1.frames[f], key=lambda i: i.track_id) == sorted(
            s2.frames[f], key=lambda i: i.track_id
        )


def test_interpolate_never_extrapolates():
    q = rect(0, 0, 5, 5)
    s = VideoAnnotation(
        video_id="v", width=50, height=50, frame_count=13,
        frames={3: [inst(0, q)], 9: [inst(0, q)]},
    )
    dense = interpolate(s, 13)
    present = sorted(f for f, items in dense.frames.items() if items)
    assert present == list(range(3, 10))


def test_interpolate_translation_keeps_area_constant():
    rng = random.Random(4)
    for _ in range(20):
        w, h = rng.uniform(2, 20), rng.uniform(2, 20)
        x, y = rng.uniform(0, 50), rng.uniform(0, 50)
        dx, dy = rng.uniform(-30, 30), rng.uniform(-30, 30)
        a = rect(x, y, x + w, y + h)
        b = rect(x + dx, y + dy, x + dx + w, y + dy + h)
        s = VideoAnnotation(
            video_id="v", width=200, height=200, frame_count=7,
            frames={0: [inst(0, a)], 6: [inst(0, b)]},
        )
        dense = interpolate(s, 7)
        for f in range(7):
            area = dense.frames[f][0].quad.area
            assert area == pytest.approx(w * h, abs=1e-9)
            assert math.isfinite(area) and area > 0


def test_interpolate_detects_corner_mismatch():
    # endpoints are valid counter-clockwise quads, but the corner pairing
    # collapses to a bowtie halfway through
    a = Quad.from_flat([-5, -5, 5, -5, 5, 5, -5, 5])
    b = Quad.from_flat([5, 5, -3, 5, -5, -3, 7, -3])
    s = VideoAnnotation(
        video_id="v", width=100, height=100, frame_count=4,
        frames={0: [Instance(0, a, "x", TextCategory.OTHERS)],
                3: [Instance(0, b, "x", TextCategory.OTHERS)]},
    )
    with pytest.raises(CornerCorrespondenceError):
        interpolate(s, 4)


@pytest.mark.parametrize("span", [2, 3, 4])
def test_interpolate_refuses_corners_that_collapse(span):
    """Swapping diagonal corners sends every corner through the centre, so
    the quad halfway has no area; the loaders refuse such a quad, so
    interpolation does too, whether or not a frame lands halfway."""
    a = rect(0, 0, 10, 10)
    b = Quad.from_flat([10, 10, 0, 10, 0, 0, 10, 0])
    s = VideoAnnotation(
        video_id="v", width=100, height=100, frame_count=span + 1,
        frames={0: [Instance(0, a, "x")], span: [Instance(0, b, "x")]},
    )
    with pytest.raises(CornerCorrespondenceError, match="quad area 0.0 is below"):
        interpolate(s, span + 1)


def test_interpolate_quarter_turn_of_corners_is_not_caught():
    """The check catches corners that cross or collapse, not every
    mismatched order: shifting the corners by one keeps every
    intermediate quad simple and non-degenerate."""
    a = rect(0, 0, 10, 10)
    b = Quad.from_flat([10, 0, 10, 10, 0, 10, 0, 0])
    s = VideoAnnotation(
        video_id="v", width=100, height=100, frame_count=5,
        frames={0: [Instance(0, a, "x")], 4: [Instance(0, b, "x")]},
    )
    dense = interpolate(s, 5)
    assert sorted(dense.frames) == [0, 1, 2, 3, 4]
    assert dense.frames[2][0].quad == Quad.from_flat([5, 0, 10, 5, 5, 10, 0, 5])


def test_interpolate_bridges_skipped_sample():
    # a track absent from one middle keyframe is treated as one instance
    q0 = rect(0, 0, 4, 2)
    q6 = rect(6, 0, 10, 2)
    s = VideoAnnotation(
        video_id="v", width=50, height=50, frame_count=7,
        frames={0: [inst(0, q0)], 3: [], 6: [inst(0, q6)]},
    )
    dense = interpolate(s, 7)
    assert [f for f, items in sorted(dense.frames.items()) if items] == list(range(7))
    assert dense.frames[3][0].quad.as_flat()[0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

MINIMAL_DOC = {
    "video_id": "clip",
    "width": 320,
    "height": 240,
    "frame_count": 2,
    "frames": {
        "0": [
            {
                "id": 4,
                "points": [10.0, 10.0, 50.0, 10.0, 50.0, 30.0, 10.0, 30.0],
                "transcription": "OPEN",
                "category": "scene",
            }
        ]
    },
}


def load_from_dict(doc):
    return load_annotation(io.StringIO(json.dumps(doc)))


def test_load_minimal_document():
    ann = load_from_dict(MINIMAL_DOC)
    assert ann.video_id == "clip"
    assert ann.frame_count == 2
    got = ann.frames[0][0]
    assert got == Instance(
        track_id=4, quad=rect(10, 10, 50, 30), transcription="OPEN",
        category=TextCategory.SCENE,
    )
    assert not got.ignore


def test_load_ignore_marker():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["transcription"] = IGNORE_MARK
    ann = load_from_dict(doc)
    assert ann.frames[0][0].ignore


def test_round_trip_semantically_identical():
    ann = make_linear_video(7)
    buf = io.StringIO()
    save_annotation(ann, buf)
    again = load_annotation(io.StringIO(buf.getvalue()))
    assert again.video_id == ann.video_id
    assert again.frames == ann.frames


def test_save_is_byte_stable():
    ann = make_linear_video(9)
    first = io.StringIO()
    save_annotation(ann, first)
    second = io.StringIO()
    save_annotation(load_annotation(io.StringIO(first.getvalue())), second)
    assert first.getvalue() == second.getvalue()


def test_gzip_round_trip(tmp_path):
    ann = make_linear_video(5)
    path = tmp_path / "video.json.gz"
    save_annotation(ann, path)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        raw = json.load(fh)
    assert raw["video_id"] == ann.video_id
    assert load_annotation(path).frames == ann.frames


def test_scenario_survives_round_trip():
    ann = make_linear_video(4)
    ann.scenario = "street view"
    buf = io.StringIO()
    save_annotation(ann, buf)
    assert load_annotation(io.StringIO(buf.getvalue())).scenario == "street view"


@pytest.mark.parametrize(
    "mutate,path_fragment,error",
    [
        (lambda d: d.pop("video_id"), "video_id", SchemaError),
        (lambda d: d.__setitem__("frame_count", 0), "frame_count", SchemaError),
        (lambda d: d["frames"]["0"][0].pop("points"), "frames.0[0].points", SchemaError),
        (
            lambda d: d["frames"]["0"][0].__setitem__("points", [1, 2, 3]),
            "frames.0[0].points",
            SchemaError,
        ),
        (
            lambda d: d["frames"]["0"][0].__setitem__("category", "billboard"),
            "frames.0[0].category",
            SchemaError,
        ),
        (lambda d: d["frames"].__setitem__("9", []), "frames.9", OutOfRangeFrameIndex),
        (lambda d: d["frames"].__setitem__("x1", []), "frames.x1", SchemaError),
        (
            lambda d: d["frames"]["0"].append(dict(d["frames"]["0"][0])),
            "frames.0[1]",
            DuplicateTrackIdInFrame,
        ),
        (lambda d: d["frames"]["0"][0].pop("transcription"), "transcription", SchemaError),
    ],
)
def test_schema_errors_point_at_field(mutate, path_fragment, error):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    mutate(doc)
    with pytest.raises(error) as exc_info:
        load_from_dict(doc)
    assert path_fragment in str(exc_info.value)


def test_not_json_is_schema_error():
    with pytest.raises(SchemaError):
        load_annotation(io.StringIO("not json at all {"))


# Two inputs the json decoder refuses with something other than a
# JSONDecodeError: an integer literal past CPython's int-to-string digit
# limit (a ValueError) and nesting deeper than it recurses (RecursionError).
UNDECODABLE = {
    "long integer": '{"video_id": "v", "width": ' + "1" * 5000 + "}",
    "deep nesting": "[" * 200_000 + "]" * 200_000,
}


@pytest.mark.parametrize("text", UNDECODABLE.values(), ids=UNDECODABLE.keys())
@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_undecodable_json_is_a_schema_error_naming_the_file(tmp_path, load, text):
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(text))
    assert exc_info.value.path == "$"
    assert exc_info.value.message.startswith("not valid JSON: ")
    path = tmp_path / "video.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert str(exc_info.value).startswith(f"{path}: $: not valid JSON: ")


def test_bowtie_points_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["points"] = [0, 0, 10, 0, 0, 10, 10, 10]
    with pytest.raises(SchemaError) as exc_info:
        load_from_dict(doc)
    assert "points" in str(exc_info.value)


def test_missing_category_defaults_to_others():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0].pop("category")
    ann = load_from_dict(doc)
    assert ann.frames[0][0].category is TextCategory.OTHERS


CATEGORY_LABELS = ["caption", "title", "scene", "others", "SCENE", "Caption", "oThErS",
                   "subtitle", "", "scene ", "scène", "OTHERS\u0130", "\u212aaption"]


def assert_category_reads_as_parse(label):
    """An entry's ``category`` gives TextCategory.parse's category, or its
    message at the field's path."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["category"] = label
    try:
        expected = TextCategory.parse(label)
    except ValueError as exc:
        with pytest.raises(SchemaError) as exc_info:
            load_from_dict(doc)
        assert (exc_info.value.path, exc_info.value.message) == ("frames.0[0].category", str(exc))
    else:
        assert load_from_dict(doc).frames[0][0].category is expected


@pytest.mark.parametrize("label", CATEGORY_LABELS)
def test_category_label_reads_as_text_category_parse(label):
    assert_category_reads_as_parse(label)


def any_casing(label):
    return st.lists(st.booleans(), min_size=len(label), max_size=len(label)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(label, upper)))


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=8) | st.sampled_from([c.value for c in TextCategory]).flatmap(any_casing))
def test_any_category_label_reads_as_text_category_parse(label):
    assert_category_reads_as_parse(label)


# ---------------------------------------------------------------------------
# detections flavor
# ---------------------------------------------------------------------------

DETS_DOC = {
    "video_id": "clip",
    "width": 320,
    "height": 240,
    "frame_count": 3,
    "frames": {
        "1": [
            {
                "points": [10.0, 10.0, 50.0, 10.0, 50.0, 30.0, 10.0, 30.0],
                "score": 0.9,
                "transcription": "OPEN",
            }
        ]
    },
}


def test_load_detections_returns_listed_frames():
    """Only the listed frames come back, in index order; one listed with
    no entries stays, as an empty frame."""
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frame_count"] = 12
    doc["frames"]["10"] = doc["frames"]["1"]
    doc["frames"]["7"] = []
    df = load_detections(io.StringIO(json.dumps(doc)))
    assert df.frame_count == 12
    assert [f.frame_index for f in df.frames] == [1, 7, 10]
    assert df.frames[1].detections == []
    assert df.frames[0].detections == df.frames[2].detections
    det = df.frames[0].detections[0]
    assert det.score == 0.9
    assert det.transcription == "OPEN"
    assert det.box.w == pytest.approx(40.0)
    assert det.box.h == pytest.approx(20.0)
    assert det.track_box is None


def test_load_detections_requires_score():
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frames"]["1"][0].pop("score")
    with pytest.raises(SchemaError) as exc_info:
        load_detections(io.StringIO(json.dumps(doc)))
    assert "score" in str(exc_info.value)


def test_load_detections_score_range():
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frames"]["1"][0]["score"] = 1.5
    with pytest.raises(SchemaError):
        load_detections(io.StringIO(json.dumps(doc)))


def test_load_detections_track_box():
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frames"]["1"][0]["track_box"] = [12.0, 10.0, 52.0, 10.0, 52.0, 30.0, 12.0, 30.0]
    df = load_detections(io.StringIO(json.dumps(doc)))
    assert [f.frame_index for f in df.frames] == [1]
    tb = df.frames[0].detections[0].track_box
    assert tb is not None
    assert tb.cx == pytest.approx(32.0)


def test_loaders_sum_each_quads_shoelace_once(monkeypatch):
    """A loaded quad keeps the area its orientation test summed, so the
    hull check and the box fit read it rather than summing it again."""
    gt, dets = generate(SynthConfig(n_objects=3, n_frames=6, motion="rotate", seed=5))
    frames = [FrameDetections(fd.frame_index, [
        dataclasses.replace(d, track_box=RotatedBox(d.box.cx + 1.0, d.box.cy, 8.0, 3.0, 0.3))
        for d in fd.detections]) for fd in dets.frames]
    dets = dataclasses.replace(dets, frames=frames)
    gt_text, dets_text = io.StringIO(), io.StringIO()
    save_annotation(gt, gt_text)
    save_detections(dets, dets_text)
    calls = []
    summed = geometry_mod._quad_signed_area

    def counted(xy):
        calls.append(xy)
        return summed(xy)

    monkeypatch.setattr(geometry_mod, "_quad_signed_area", counted)
    loaded = load_annotation(io.StringIO(gt_text.getvalue()))
    assert len(calls) == sum(map(len, loaded.frames.values())) > 0
    calls.clear()
    loaded_dets = load_detections(io.StringIO(dets_text.getvalue()))
    boxes = [box for fd in loaded_dets.frames for d in fd.detections
             for box in (d.box, d.track_box)]
    assert None not in boxes
    assert len(calls) == len(boxes) > 0


def test_save_detections_round_trip():
    boxes = [RotatedBox(50, 40, 30, 10, 0.2), RotatedBox(100, 90, 20, 8, -0.5)]
    df = DetectionsFile(
        video_id="v", width=320, height=240, frame_count=2,
        frames=[
            FrameDetections(0, [Detection(box=boxes[0], score=0.75, transcription="hi")]),
            FrameDetections(1, [Detection(box=boxes[1], score=0.5, track_box=boxes[0])]),
        ],
    )
    buf = io.StringIO()
    save_detections(df, buf)
    again = load_detections(io.StringIO(buf.getvalue()))
    got = again.frames[0].detections[0]
    assert got.score == 0.75 and got.transcription == "hi"
    assert got.box.cx == pytest.approx(50.0, abs=1e-9)
    assert got.box.angle == pytest.approx(0.2, abs=1e-9)
    assert again.frames[1].detections[0].track_box.cx == pytest.approx(50.0, abs=1e-9)


def _dets_file(frames, frame_count=3, width=320):
    return DetectionsFile(video_id="v", width=width, height=240,
                          frame_count=frame_count, frames=frames)


def test_detections_file_rejects_a_repeated_frame():
    """Saving two frames of one index kept only the last one's detections."""
    box = RotatedBox(50, 40, 30, 10, 0.2)
    frames = [FrameDetections(0, [Detection(box=box, score=0.5)]),
              FrameDetections(0, [Detection(box=box, score=0.75)])]
    with pytest.raises(NonMonotonicFrame, match="frame 0 after frame 0"):
        _dets_file(frames)


def test_detections_file_rejects_frames_out_of_order():
    with pytest.raises(NonMonotonicFrame, match="frame 1 after frame 2"):
        _dets_file([FrameDetections(2, []), FrameDetections(1, [])])


def test_detections_file_rejects_a_frame_past_the_count():
    with pytest.raises(OutOfRangeFrameIndex, match=r"frames\[1\]: frame index outside \[0, 3\)"):
        _dets_file([FrameDetections(0, []), FrameDetections(3, [])])


@pytest.mark.parametrize("frame_count, width, message", [
    (0, 320, "frame_count must be >= 1, got 0"),
    (3, 0, "width/height must be positive, got 0x240"),
])
def test_detections_file_checks_its_header_like_an_annotation(frame_count, width, message):
    """Such a file saved, and loading it back failed."""
    with pytest.raises(ValueError, match=message):
        _dets_file([], frame_count=frame_count, width=width)
    with pytest.raises(ValueError, match=message):
        VideoAnnotation(video_id="v", width=width, height=240,
                        frame_count=frame_count, frames={})


@pytest.mark.parametrize("field, value", [("frame_count", 2.5), ("width", 2.5),
                                          ("height", True)])
def test_video_extents_must_be_ints(field, value):
    """Both models took a fractional or boolean extent."""
    header = dict(video_id="v", width=320, height=240, frame_count=3)
    header[field] = value
    message = f"{field} must be an int, got {value!r}"
    with pytest.raises(ValueError, match=message):
        VideoAnnotation(**header, frames={})
    with pytest.raises(ValueError, match=message):
        DetectionsFile(**header, frames=[])


def test_video_frame_keys_must_be_ints():
    """The key 1.0 was taken as frame 1."""
    with pytest.raises(ValueError, match="frame index must be an int, got 1.0"):
        small_video({1.0: []}, frame_count=3)


# ---------------------------------------------------------------------------
# trajectory views
# ---------------------------------------------------------------------------


def test_trajectory_round_trip():
    ann = make_linear_video(6, n_tracks=3)
    trajs = annotation_to_trajectories(ann)
    assert [t.track_id for t in trajs] == [0, 1, 2]
    assert all(len(t.frames) == 6 for t in trajs)
    back = trajectories_to_annotation(trajs, ann.video_id, ann.width, ann.height, ann.frame_count)
    for f in ann.frames:
        assert sorted(back.frames[f], key=lambda i: i.track_id) == sorted(
            ann.frames[f], key=lambda i: i.track_id
        )


def test_save_trajectories_writes_annotation_schema():
    q = rect(5, 5, 25, 15)
    traj = Trajectory(track_id=2, frames={0: Instance(2, q, "go")})
    buf = io.StringIO()
    save_trajectories([traj], "vid", 100, 100, 1, buf)
    ann = load_annotation(io.StringIO(buf.getvalue()))
    assert ann.frames[0][0].track_id == 2
    assert ann.frames[0][0].transcription == "go"
    assert ann.frames[0][0].quad == q


@pytest.mark.parametrize("cls", [SchemaError, DuplicateTrackIdInFrame,
                                 OutOfRangeFrameIndex])
def test_schema_errors_survive_pickling(cls):
    for exc in (cls("frames.3[1].points", "expected 8 numbers, got 3"),
                cls("video_id", "missing required field", "clip.json")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert (back.path, back.message, back.source) == (exc.path, exc.message,
                                                          exc.source)
        assert str(back) == str(exc)


def test_schema_error_names_the_file(tmp_path):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0].pop("points")
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        load_annotation(path)
    assert exc_info.value.source == str(path)
    assert str(exc_info.value) == (
        f"{path}: frames.0[0].points: missing required field")


def test_detections_schema_error_names_the_file(tmp_path):
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frames"]["1"][0]["score"] = 1.5
    path = tmp_path / "dets.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        load_detections(str(path))
    assert exc_info.value.path == "frames.1[0].score"
    assert str(path) in str(exc_info.value)


def test_schema_error_from_stream_has_no_file():
    with pytest.raises(SchemaError) as exc_info:
        load_annotation(io.StringIO("[]"))
    assert exc_info.value.source is None
    assert str(exc_info.value) == "$: expected an object, got list"


# ---------------------------------------------------------------------------
# inputs the fuzz tests found raising something other than a DataError
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["--1", "²", "٣", "+1", "1.0"])
@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_frame_key_must_be_ascii_decimal(load, key):
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frames"] = {key: []}
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == f"frames.{key}: frame index must be a decimal string"


@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_frame_listed_twice_is_schema_error(load):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["score"] = 0.5
    doc["frames"]["00"] = doc["frames"]["0"]
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == "frames.00: frame 0 is listed twice"


@pytest.mark.parametrize("field", ["points", "track_box"])
def test_integer_past_float_range_is_schema_error(field):
    doc = json.loads(json.dumps(DETS_DOC))
    entry = doc["frames"]["1"][0]
    entry[field] = [10 ** 400] + entry["points"][1:]
    with pytest.raises(SchemaError) as exc_info:
        load_detections(io.StringIO(json.dumps(doc)))
    assert exc_info.value.path == f"frames.1[0].{field}"
    assert "too large" in exc_info.value.message


@pytest.mark.parametrize("bad,path", [
    (None, "frames.1[0].track_box[3]"),
    ("7", "frames.1[0].track_box[3]"),
    (True, "frames.1[0].track_box[3]"),
])
def test_track_box_entries_must_be_numbers(bad, path):
    doc = json.loads(json.dumps(DETS_DOC))
    corners = list(doc["frames"]["1"][0]["points"])
    corners[3] = bad
    doc["frames"]["1"][0]["track_box"] = corners
    with pytest.raises(SchemaError) as exc_info:
        load_detections(io.StringIO(json.dumps(doc)))
    assert exc_info.value.path == path


def test_track_box_of_wrong_length_is_schema_error():
    doc = json.loads(json.dumps(DETS_DOC))
    doc["frames"]["1"][0]["track_box"] = [1, 2, 3]
    with pytest.raises(SchemaError) as exc_info:
        load_detections(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == "frames.1[0].track_box: expected 8 numbers, got 3"


def _gzip_damages():
    good = gzip.compress(json.dumps(MINIMAL_DOC).encode("utf-8"))
    return {
        "truncated": good[:-5],
        "bad crc": good[:-8] + b"\0\0\0\0" + good[-4:],
        "plain text": json.dumps(MINIMAL_DOC).encode("utf-8"),
        "not utf-8": gzip.compress(b"\xff\xfe{}"),
    }


@pytest.mark.parametrize("damage", sorted(_gzip_damages()))
@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_damaged_gzip_is_schema_error_naming_the_file(tmp_path, load, damage):
    path = tmp_path / "video.json.gz"
    path.write_bytes(_gzip_damages()[damage])
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert exc_info.value.source == str(path)
    assert exc_info.value.path == "$"


@pytest.mark.parametrize("load,doc,frame", [(load_annotation, MINIMAL_DOC, "0"),
                                             (load_detections, DETS_DOC, "1")])
@pytest.mark.parametrize("text", ["\udc80", "ok \ud800 then"])
def test_lone_surrogate_transcription_is_schema_error_naming_the_file(
        tmp_path, load, doc, frame, text):
    # json.dumps escapes the surrogate, so the file itself is valid UTF-8
    doc = json.loads(json.dumps(doc))
    doc["frames"][frame][0]["transcription"] = text
    path = tmp_path / "video.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert exc_info.value.source == str(path)
    assert exc_info.value.path == f"frames.{frame}[0].transcription"
    assert exc_info.value.message.startswith("not encodable as UTF-8")


@pytest.mark.parametrize("load,doc", [(load_annotation, MINIMAL_DOC),
                                      (load_detections, DETS_DOC)])
@pytest.mark.parametrize("field", ["video_id", "scenario"])
@pytest.mark.parametrize("text", ["\udc80", "v\udc80"])
def test_lone_surrogate_header_string_is_schema_error_naming_the_file(
        tmp_path, load, doc, field, text):
    doc = dict(doc, **{field: text})
    path = tmp_path / "video.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        load(path)
    assert exc_info.value.source == str(path)
    assert exc_info.value.path == field
    assert exc_info.value.message == (
        f"not encodable as UTF-8: surrogates not allowed at index {len(text) - 1}")


@pytest.mark.parametrize("name", ["video.json", "video.json.gz", "video"])
@pytest.mark.parametrize("existing", [False, True])
def test_failed_save_leaves_the_target_as_it_was(tmp_path, monkeypatch, name, existing):
    path = tmp_path / name
    if existing:
        path.write_bytes(b"old bytes")

    # the writer's fourth write fails, after the header and two frames went
    # through to the stream that _open gives it
    real_open = annotations_mod._open
    written = []

    class FailingStream:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            if len(written) == 3:
                raise RuntimeError("write failed partway")
            written.append(text)
            return self.fh.write(text)

    @contextlib.contextmanager
    def failing_open(target, mode):
        with real_open(target, mode) as fh:
            yield FailingStream(fh)

    monkeypatch.setattr(annotations_mod, "_open", failing_open)
    ann = make_linear_video(3)
    with pytest.raises(RuntimeError, match="partway"):
        save_annotation(ann, path)
    whole = json_text(document(ann, {str(i): [instance_entry(x) for x in insts]
                                     for i, insts in sorted(ann.frames.items())}))
    assert "".join(written) == whole[:whole.index(',\n  "2": ')]
    assert [p.name for p in tmp_path.iterdir()] == ([name] if existing else [])
    if existing:
        assert path.read_bytes() == b"old bytes"


@pytest.mark.parametrize("name", ["video.json", "video.json.gz"])
def test_save_replaces_the_target_whole(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"old bytes")
    ann = make_linear_video(3)
    save_annotation(ann, path)
    assert [p.name for p in tmp_path.iterdir()] == [name]
    data = path.read_bytes()
    assert (data[:2] == b"\x1f\x8b") == name.endswith(".gz")
    if name.endswith(".gz"):
        # the header's FNAME field names the target, not a temporary file
        assert data[10:data.index(b"\0", 10)] == b"video.json"
    assert load_annotation(path).frames == ann.frames


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_save_to_a_pipe_writes_in_place(tmp_path):
    """A path that is not a regular file, such as a pipe or /dev/stdout,
    is written through, not replaced by a temporary file."""
    path = tmp_path / "pipe.json"
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()), daemon=True)
    reader.start()
    ann = make_linear_video(3)
    save_annotation(ann, path)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(path.stat().st_mode)
    assert load_annotation(io.StringIO(received[0].decode("utf-8"))).frames == ann.frames


def test_non_utf8_file_is_schema_error(tmp_path):
    path = tmp_path / "video.json"
    path.write_bytes(b'{"video_id": "\x80"}')
    with pytest.raises(SchemaError) as exc_info:
        load_annotation(path)
    assert exc_info.value.message.startswith("not UTF-8 text")


@pytest.mark.parametrize("points", [[5] * 8, [0, 0, 1, 1, 2, 2, 3, 3]])
@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_degenerate_quad_is_the_same_schema_error_in_both_loaders(load, points):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["score"] = 0.5
    doc["frames"]["0"][0]["points"] = points
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == "frames.0[0].points: quad area 0.0 is below 1e-12"


@pytest.mark.parametrize("value", [3, ["a"], {"text": "a"}, True])
@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_non_string_transcription_is_the_same_schema_error_in_both_loaders(load, value):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["score"] = 0.5
    doc["frames"]["0"][0]["transcription"] = value
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == (
        f"frames.0[0].transcription: expected string or null, got {type(value).__name__}")


def test_only_an_annotation_requires_a_transcription():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["frames"]["0"][0]["score"] = 0.5
    del doc["frames"]["0"][0]["transcription"]
    with pytest.raises(SchemaError) as exc_info:
        load_annotation(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == "frames.0[0].transcription: missing required field"
    dets = load_detections(io.StringIO(json.dumps(doc)))
    assert dets.frames[0].detections[0].transcription is None
    doc["frames"]["0"][0]["transcription"] = None
    assert load_annotation(io.StringIO(json.dumps(doc))).frames[0][0].transcription is None


@pytest.mark.parametrize("field", ["points", "track_box"])
@pytest.mark.parametrize("corners,message", [
    ([5] * 8, "quad area 0.0 is below 1e-12"),
    ([0, 0, 1, 1, 2, 2, 3, 3], "quad area 0.0 is below 1e-12"),
    ([0, 0, 1, 0, 1, 1e-13, 0, 1e-13], "quad area 1e-13 is below 1e-12"),
])
def test_degenerate_detection_quad_names_its_field(field, corners, message):
    doc = json.loads(json.dumps(DETS_DOC))
    entry = doc["frames"]["1"][0]
    entry["track_box"] = list(entry["points"])
    entry[field] = corners
    with pytest.raises(SchemaError) as exc_info:
        load_detections(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == f"frames.1[0].{field}: {message}"


def test_load_detections_checks_each_quad_once(monkeypatch):
    """Fitting a detection's box rejects a degenerate quad on the way, so
    each ``points`` and each ``track_box`` gets one hull check."""
    import vtspot.annotations as annotations_mod
    import vtspot.geometry as geometry_mod

    checked = []
    real = geometry_mod.nondegenerate_hull

    def counting(quad):
        checked.append(quad.as_flat())
        return real(quad)

    monkeypatch.setattr(geometry_mod, "nondegenerate_hull", counting)
    monkeypatch.setattr(annotations_mod, "nondegenerate_hull", counting)
    doc = json.loads(json.dumps(DETS_DOC))
    tracked = dict(doc["frames"]["1"][0],
                   track_box=[12.0, 10.0, 52.0, 10.0, 52.0, 30.0, 12.0, 30.0])
    doc["frames"]["2"] = [tracked]
    load_detections(io.StringIO(json.dumps(doc)))
    assert checked == [(10.0, 10.0, 50.0, 10.0, 50.0, 30.0, 10.0, 30.0),
                       (10.0, 10.0, 50.0, 10.0, 50.0, 30.0, 10.0, 30.0),
                       (12.0, 10.0, 52.0, 10.0, 52.0, 30.0, 12.0, 30.0)]
    checked.clear()
    load_annotation(io.StringIO(json.dumps(MINIMAL_DOC)))
    assert len(checked) == sum(len(v) for v in MINIMAL_DOC["frames"].values())


# ---------------------------------------------------------------------------
# the number test on points and track_box: one pass over the types, the
# per-value loop naming the first value that is not a number
# ---------------------------------------------------------------------------

RECT = [10, 10, 50, 10, 50, 30, 10, 30]
NUMBER_FIELDS = ["annotation points", "detections points", "detections track_box"]


def loaded_with(where, values):
    """The SchemaError's (path, message) when a one-entry document of the
    ``where`` kind holds ``values`` in that field, or None when it loads."""
    kind, field = where.split()
    if kind == "annotation":
        doc, frame, load = json.loads(json.dumps(MINIMAL_DOC)), "0", load_annotation
    else:
        doc, frame, load = json.loads(json.dumps(DETS_DOC)), "1", load_detections
    doc["frames"][frame][0][field] = values
    try:
        load(io.StringIO(json.dumps(doc)))
    except SchemaError as exc:
        return exc.path, exc.message
    return None


def field_path(where):
    kind, field = where.split()
    return f"frames.{'0' if kind == 'annotation' else '1'}[0].{field}"


def refusal_of(where, values):
    """What the per-value loop refuses: the first value that is not a
    number, named by index; failing that, an int past the float range."""
    path = field_path(where)
    bad = first_non_number(values)
    if bad is not None:
        return f"{path}[{bad[0]}]", f"expected a number, got {bad[1]}"
    if any(abs(v) > 2 ** 1024 for v in values):
        return path, "int too large to convert to float"
    return None


@pytest.mark.parametrize("where", NUMBER_FIELDS)
@pytest.mark.parametrize("at", range(8))
@pytest.mark.parametrize("bad", [True, False, "1", None, [1.0], {"x": 1}, 10 ** 400],
                         ids=["true", "false", "str", "null", "list", "object", "10**400"])
def test_a_bad_value_at_each_position_is_named_as_before(where, at, bad):
    values = list(RECT)
    values[at] = bad
    assert loaded_with(where, values) == refusal_of(where, values) is not None


bad_values = st.one_of(st.booleans(), st.text(max_size=2), st.none(),
                       st.lists(st.integers(), max_size=2), st.just(10 ** 400),
                       st.integers(-5, 60), st.floats(-5.0, 60.0))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), bad_values), max_size=3),
       st.sampled_from(NUMBER_FIELDS))
def test_number_refusals_are_the_per_value_loops(changes, where):
    values = list(RECT)
    for i, bad in changes:
        values[i] = bad
    expected = refusal_of(where, values)
    got = loaded_with(where, values)
    if expected is not None:
        assert got == expected
    elif got is not None:
        # all numbers: any refusal is the quad's own, at the field's path
        assert got[0] == field_path(where)


# ---------------------------------------------------------------------------
# one reader and one writer for both formats, one record for a text slot
# ---------------------------------------------------------------------------


def test_ignore_is_a_read_only_view_of_the_transcription():
    a = inst(1, rect(0, 0, 10, 10), IGNORE_MARK)
    assert [f.name for f in dataclasses.fields(Instance)] == [
        "track_id", "quad", "transcription", "category"]
    assert "ignore" not in repr(a)
    # a frozen slots dataclass refuses the write; for a name that is not a
    # field, Python 3.11 raises TypeError from the generated __setattr__
    with pytest.raises((AttributeError, TypeError)):
        a.ignore = False
    assert a.ignore and not dataclasses.replace(a, transcription="x").ignore


def test_trajectories_hold_the_annotations_instances():
    ann = make_linear_video(5, n_tracks=2)
    trajs = annotation_to_trajectories(ann)
    assert all(t.frames[f] is ann.frames[f][t.track_id] for t in trajs for f in t.frames)
    back = trajectories_to_annotation(trajs, ann.video_id, ann.width, ann.height,
                                      ann.frame_count)
    assert back == ann


def test_trajectories_to_annotation_rejects_an_instance_of_another_track():
    q = rect(5, 5, 25, 15)
    traj = Trajectory(track_id=2, frames={0: Instance(2, q, "go"), 3: Instance(5, q, "go")})
    with pytest.raises(ValueError, match="^trajectory 2 holds an instance of track 5 at frame 3$"):
        trajectories_to_annotation([traj], "vid", 100, 100, 4)


def test_save_detections_writes_a_listed_empty_frame():
    df = DetectionsFile(video_id="v", width=320, height=240, frame_count=4, frames=[
        FrameDetections(1, []),
        FrameDetections(2, [Detection(box=RotatedBox(50, 40, 30, 10, 0.0), score=0.5)]),
        FrameDetections(3, []),
    ])
    buf = io.StringIO()
    save_detections(df, buf)
    assert list(json.loads(buf.getvalue())["frames"]) == ["1", "2", "3"]
    again = load_detections(io.StringIO(buf.getvalue()))
    assert [(f.frame_index, len(f.detections)) for f in again.frames] == [(1, 0), (2, 1), (3, 0)]


def _saved(save, model) -> str:
    buf = io.StringIO()
    save(model, buf)
    return buf.getvalue()


def _refit(dets: DetectionsFile) -> DetectionsFile:
    """``dets`` with every box replaced by the minimum-area box of its
    corners: what loading its saved corners gives back."""
    def box(b):
        return None if b is None else quad_to_rotated(b.quad)
    return dataclasses.replace(dets, frames=[
        FrameDetections(f.frame_index, [dataclasses.replace(d, box=box(d.box),
                                                            track_box=box(d.track_box))
                                        for d in f.detections])
        for f in dets.frames])


synth_configs = st.builds(
    SynthConfig,
    n_objects=st.integers(1, 4),
    n_frames=st.integers(2, 8),
    motion=st.sampled_from(("static", "constant_velocity", "rotate")),
    noise_sigma=st.sampled_from((0.0, 1.5)),
    drop_prob=st.sampled_from((0.0, 0.5, 0.9)),
    seed=st.integers(0, 10 ** 6),
)


@settings(max_examples=40, deadline=None)
@given(synth_configs)
def test_save_then_load_gives_the_model_back(cfg):
    """Every listed frame is written, empty ones included.  An annotation
    comes back equal, and saving it again gives the same bytes.  A
    detection's box comes back as the minimum-area box of its saved
    corners, which is not the identity on floats, so a detections file
    comes back equal to its refit boxes, with every other field exact."""
    gt, dets = generate(cfg)
    kept = {f.frame_index for f in dets.frames if f.detections}
    gt = dataclasses.replace(gt, frames={f: gt.frames[f] if f in kept else []
                                         for f in gt.frames})
    text = _saved(save_annotation, gt)
    again = load_annotation(io.StringIO(text))
    assert again == gt
    assert _saved(save_annotation, again) == text

    text = _saved(save_detections, dets)
    assert list(json.loads(text)["frames"]) == [str(f.frame_index) for f in dets.frames]
    again = load_detections(io.StringIO(text))
    assert again == _refit(dets)
    assert load_detections(io.StringIO(_saved(save_detections, again))) == _refit(again)


BOTH_FORMATS_DOC = {
    "video_id": "v", "width": 64, "height": 48, "frame_count": 3,
    "frames": {"1": [{"id": 0, "points": [1, 1, 9, 1, 9, 5, 1, 5], "transcription": "ab",
                      "score": 0.5}]},
}

FRAME_DEFECTS = {
    "key not decimal": (lambda frames: frames.__setitem__("x1", []),
                        SchemaError, "frames.x1", "frame index must be a decimal string"),
    "key collision": (lambda frames: frames.__setitem__("01", []),
                      SchemaError, "frames.01", "frame 1 is listed twice"),
    "index out of range": (lambda frames: frames.__setitem__("3", []),
                           OutOfRangeFrameIndex, "frames.3", "frame index outside [0, 3)"),
    "frame not a list": (lambda frames: frames.__setitem__("2", {}),
                         SchemaError, "frames.2", "expected a list, got dict"),
    "entry not an object": (lambda frames: frames["1"].append(7),
                            SchemaError, "frames.1[1]", "expected an object, got int"),
}


@pytest.mark.parametrize("defect", sorted(FRAME_DEFECTS))
def test_a_frame_defect_is_the_same_error_in_both_loaders(defect):
    mutate, cls, path, message = FRAME_DEFECTS[defect]
    doc = json.loads(json.dumps(BOTH_FORMATS_DOC))
    mutate(doc["frames"])
    raised = []
    for load in (load_annotation, load_detections):
        with pytest.raises(SchemaError) as exc_info:
            load(io.StringIO(json.dumps(doc)))
        raised.append((type(exc_info.value), exc_info.value.path, exc_info.value.message))
    assert raised == [(cls, path, message)] * 2


def test_a_repeated_id_is_named_by_the_frame_index():
    """The model makes the check, so a repeated id under key "01" is
    named ``frames.1[1]``, not by the key."""
    doc = json.loads(json.dumps(BOTH_FORMATS_DOC))
    entry = doc["frames"].pop("1")[0]
    doc["frames"]["01"] = [entry, dict(entry)]
    with pytest.raises(DuplicateTrackIdInFrame) as exc_info:
        load_annotation(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == "frames.1[1]: track id 0 repeated in frame 1"


# ---------------------------------------------------------------------------
# optional and typed entry fields: exact loader messages
# ---------------------------------------------------------------------------

_ABSENT = object()

# (loader, where, field, value, message); ``where`` is "header" or "entry",
# and a value of _ABSENT deletes the field.
FIELD_MESSAGES = [
    (load_annotation, "header", "scenario", 3, "scenario: expected string, got int"),
    (load_annotation, "header", "scenario", ["a"], "scenario: expected string, got list"),
    (load_annotation, "header", "scenario", True, "scenario: expected string, got bool"),
    (load_detections, "header", "scenario", 1.5, "scenario: expected string, got float"),
    (load_annotation, "entry", "category", None,
     "frames.1[0].category: expected string, got NoneType"),
    (load_annotation, "entry", "category", 3, "frames.1[0].category: expected string, got int"),
    (load_annotation, "entry", "category", "banner",
     "frames.1[0].category: unknown category 'banner'; "
     "expected one of caption, title, scene, others"),
    (load_annotation, "entry", "transcription", _ABSENT,
     "frames.1[0].transcription: missing required field"),
    (load_annotation, "entry", "transcription", 3,
     "frames.1[0].transcription: expected string or null, got int"),
    (load_annotation, "entry", "transcription", False,
     "frames.1[0].transcription: expected string or null, got bool"),
    (load_detections, "entry", "transcription", 3,
     "frames.1[0].transcription: expected string or null, got int"),
    (load_detections, "entry", "transcription", {"text": "ab"},
     "frames.1[0].transcription: expected string or null, got dict"),
    (load_detections, "entry", "score", _ABSENT, "frames.1[0].score: missing required field"),
    (load_detections, "entry", "score", None, "frames.1[0].score: expected a number, got NoneType"),
    (load_detections, "entry", "score", "0.5", "frames.1[0].score: expected a number, got str"),
    (load_detections, "entry", "score", True, "frames.1[0].score: expected a number, got bool"),
    (load_detections, "entry", "score", False, "frames.1[0].score: expected a number, got bool"),
    (load_detections, "entry", "score", [0.5], "frames.1[0].score: expected a number, got list"),
    (load_detections, "entry", "score", 1.5, "frames.1[0].score: must be in [0,1], got 1.5"),
    (load_detections, "entry", "score", -1, "frames.1[0].score: must be in [0,1], got -1"),
]


@pytest.mark.parametrize("load, where, field, value, message", FIELD_MESSAGES,
                         ids=[f"{c[0].__name__}-{c[2]}-{c[3]!r}" for c in FIELD_MESSAGES])
def test_field_schema_messages_are_exact(load, where, field, value, message):
    doc = json.loads(json.dumps(BOTH_FORMATS_DOC))
    target = doc if where == "header" else doc["frames"]["1"][0]
    if value is _ABSENT:
        del target[field]
    else:
        target[field] = value
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(json.dumps(doc)))
    assert str(exc_info.value) == message


@pytest.mark.parametrize("value", [_ABSENT, None])
def test_absent_or_null_scenario_loads_as_none(value):
    doc = json.loads(json.dumps(BOTH_FORMATS_DOC))
    if value is not _ABSENT:
        doc["scenario"] = value
    assert load_annotation(io.StringIO(json.dumps(doc))).scenario is None


# ---------------------------------------------------------------------------
# stream ownership
# ---------------------------------------------------------------------------


def test_a_callers_stream_stays_open():
    gt, dets = generate(SynthConfig(n_objects=2, n_frames=3))
    for save, load, value in ((save_annotation, load_annotation, gt),
                              (save_detections, load_detections, dets)):
        stream = io.StringIO()
        save(value, stream)
        assert not stream.closed
        stream.seek(0)
        load(stream)
        assert not stream.closed


@pytest.mark.parametrize("load", [load_annotation, load_detections])
def test_a_path_is_closed_when_its_parse_raises(tmp_path, load):
    path = tmp_path / "bad.json"
    path.write_text('{"video_id": ', encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            with pytest.raises(SchemaError):
                load(path)
            gc.collect()
        finally:
            sys.unraisablehook = hook
    assert not unraisable


# ---------------------------------------------------------------------------
# the writers: the json module's indent=1 bytes, for documents and for
# reports; the entry readers: the per-value loop's errors
# ---------------------------------------------------------------------------


class Count(int):
    """An int subclass: a number to the loaders, written as the int it is,
    whatever its own repr."""

    def __repr__(self):
        return f"Count({int(self)})"


class Ratio(float):
    def __repr__(self):
        return f"Ratio({float(self)})"


class Label(str):
    pass


json_strings = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",))),
    st.sampled_from(["", "\u2028\u2029", "\x00\x1f\x7f\x80", 'q"b\\s/', "é 漢字 🙂", "###"]),
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=10 ** 40),
    st.integers(max_value=-(2 ** 64)),
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                     1e16, 1e-7]),
    json_strings,
    st.integers().map(Count),
    st.floats().map(Ratio),
    json_strings.map(Label),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        # flat corner tuples, finite, overflowing when summed, or not finite
        st.lists(st.floats(), min_size=1, max_size=8).map(tuple),
        st.dictionaries(st.one_of(json_strings, json_strings.map(Label)), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(json_values)
def test_writer_emits_the_json_modules_bytes(value):
    stream = io.StringIO()
    cli._dump_json(value, stream)
    assert stream.getvalue() == json_text(value) + "\n"


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"a": []}, {"a": {"b": ()}},
    (1.0, 2.0, 1e308, 1e308),  # finite corners whose sum overflows
    (0.5, math.nan), [-0.0, 0.0, Ratio(-0.0)],
    {"": "", Label("k"): Label("v"), "\u2028": "\x00"},
    [[[[{"deep": [Count(7), Label("x")]}]]]],
])
def test_writer_emits_the_json_modules_bytes_at_the_edges(value):
    stream = io.StringIO()
    cli._dump_json(value, stream)
    assert stream.getvalue() == json_text(value) + "\n"


@pytest.mark.parametrize("value", [[object()], {"a": {1, 2}}, b"raw", [1j]])
def test_writer_refuses_what_the_json_module_refuses(value):
    with pytest.raises(TypeError) as theirs:
        json_text(value)
    stream = io.StringIO()
    with pytest.raises(TypeError) as ours:
        cli._dump_json(value, stream)
    assert str(ours.value) == str(theirs.value)
    assert stream.getvalue() == ""


def test_writer_keys_are_strings(tmp_path, capsys):
    """An ``evaluate`` report reads back as the dicts it was written from,
    for a pair of files and for a corpus: a key that is not a string would
    come back as one."""
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    reports = []
    for seed in (1, 2):
        gt, _ = generate(SynthConfig(n_objects=3, n_frames=12, seed=seed))
        pred = sample(gt, 2)
        save_annotation(gt, gt_dir / f"v{seed}.json")
        save_annotation(pred, pred_dir / f"v{seed}.json")
        reports.append(evaluate(gt, pred))
        assert cli.main(["evaluate", str(gt_dir / f"v{seed}.json"),
                         str(pred_dir / f"v{seed}.json")]) == 0
        assert json.loads(capsys.readouterr().out) == reports[-1].to_dict()
    assert cli.main(["evaluate", "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "videos": [r.to_dict() for r in reports], "aggregate": aggregate(reports).to_dict()}


def instance_entry(inst):
    return {"id": inst.track_id, "points": list(inst.quad.as_flat()),
            "transcription": inst.transcription, "category": inst.category.value}


def detection_entry(det):
    entry = {"points": list(det.box.quad.as_flat()), "score": det.score}
    if det.transcription is not None:
        entry["transcription"] = det.transcription
    if det.track_box is not None:
        entry["track_box"] = list(det.track_box.quad.as_flat())
    return entry


def document(video, frames, scenario=None):
    """The document the writers promise, as a plain JSON value."""
    doc = {"video_id": video.video_id, "width": video.width, "height": video.height,
           "frame_count": video.frame_count}
    if scenario is not None:
        doc["scenario"] = scenario
    doc["frames"] = frames
    return doc


def varied_clip(seed, text, scenario):
    """A synth clip whose every other object reads ``text``, with an empty
    listed frame, a null transcription and a detection with a track box."""
    gt, dets = generate(SynthConfig(seed=seed, n_objects=3, n_frames=6))
    frames = {}
    for idx, insts in sorted(gt.frames.items()):
        frames[idx] = [dataclasses.replace(inst, transcription=text) if i % 2 else inst
                       for i, inst in enumerate(insts)]
    frames[0] = []
    if frames.get(1):
        frames[1][0] = dataclasses.replace(frames[1][0], transcription=None)
    gt = dataclasses.replace(gt, frames=frames, scenario=scenario, video_id=f"{text}-{seed}")
    det_frames = []
    for fd in dets.frames:
        found = [dataclasses.replace(det, transcription=text) if i % 2 else det
                 for i, det in enumerate(fd.detections)]
        if found and fd.frame_index == 2:
            found[0] = dataclasses.replace(found[0], transcription=None, track_box=found[0].box)
        det_frames.append(FrameDetections(fd.frame_index, [] if fd.frame_index == 3 else found))
    return gt, dataclasses.replace(dets, frames=det_frames, video_id=gt.video_id)


def expected_bytes(gt, dets):
    """What save_annotation, save_trajectories and save_detections must write."""
    ann = {str(i): [instance_entry(x) for x in insts] for i, insts in sorted(gt.frames.items())}
    traj = {str(i): [instance_entry(x) for x in sorted(insts, key=lambda x: x.track_id)]
            for i, insts in sorted(gt.frames.items()) if insts}
    det = {str(fd.frame_index): [detection_entry(d) for d in fd.detections] for fd in dets.frames}
    return {
        "annotation": json_text(document(gt, ann, gt.scenario)) + "\n",
        "trajectories": json_text(document(gt, traj)) + "\n",
        "detections": json_text(document(dets, det)) + "\n",
    }


def save_all(gt, dets, target):
    """Each writer's output to ``target(name)``."""
    save_annotation(gt, target("annotation"))
    save_trajectories(annotation_to_trajectories(gt), gt.video_id, gt.width, gt.height,
                      gt.frame_count, target("trajectories"))
    save_detections(dets, target("detections"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), json_strings, st.none() | json_strings)
def test_saved_documents_are_the_json_modules_bytes(seed, text, scenario):
    gt, dets = varied_clip(seed, text, scenario)
    streams = {}
    save_all(gt, dets, lambda name: streams.setdefault(name, io.StringIO()))
    assert {name: s.getvalue() for name, s in streams.items()} == expected_bytes(gt, dets)


@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_saved_files_are_the_json_modules_bytes_in_utf8(tmp_path, suffix):
    gt, dets = varied_clip(5, "出口 \u2028 é", "crowd\tscene")
    save_all(gt, dets, lambda name: tmp_path / f"{name}{suffix}")
    for name, text in expected_bytes(gt, dets).items():
        data = (tmp_path / f"{name}{suffix}").read_bytes()
        assert (gzip.decompress(data) if suffix.endswith(".gz") else data) == text.encode("utf-8")


# ---------------------------------------------------------------------------
# one formatter per entry kind: the text json writes for the entry's dict,
# at the depth where a document holds its entries
# ---------------------------------------------------------------------------


def at_entry_depth(text):
    """An entry's indent=1 text indented as a document's entries are, three
    levels down (the document, its "frames", a frame's list).  A string's
    own line breaks are escaped, so every raw one is the indent's."""
    return text.replace("\n", "\n   ")


entry_ids = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=10 ** 40),
                      st.integers().map(Count))
entry_texts = st.one_of(st.none(), json_strings, json_strings.map(Label),
                        st.sampled_from(["é 漢字 🙂", "\u2028", "\u2029x", "###"]))
entry_scores = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 5e-324, Ratio(0.0), Ratio(1.0), Ratio(5e-324)]),
    st.floats(0.0, 1.0), st.floats(0.0, 1.0).map(Ratio))
entry_boxes = st.builds(
    RotatedBox,
    st.one_of(st.floats(-1e6, 1e6), st.floats(-1e300, 1e300)), st.floats(-1e6, 1e6),
    st.floats(1e-3, 1e4), st.floats(1e-3, 1e4), st.floats(-4.0, 4.0))
categories = st.sampled_from(list(TextCategory))


@settings(max_examples=300, deadline=None)
@given(entry_ids, entry_boxes, entry_texts, categories)
def test_instance_text_is_the_json_modules_entry(track_id, box, text, category):
    entry = Instance(track_id=track_id, quad=box.quad, transcription=text, category=category)
    assert (annotations_mod._instance_text(entry)
            == at_entry_depth(json_text(instance_entry(entry))))


@settings(max_examples=300, deadline=None)
@given(entry_boxes, entry_scores, entry_texts, st.none() | entry_boxes)
def test_detection_text_is_the_json_modules_entry(box, score, text, track_box):
    det = Detection(box=box, score=score, transcription=text, track_box=track_box)
    assert (annotations_mod._detection_text(det)
            == at_entry_depth(json_text(detection_entry(det))))


def rich_clip(rows, scenario):
    """An annotation and a detections file with a frame per row of
    ``rows``, each a list of (box, transcription, category, score, track
    box) entries, so an empty row is an empty frame.  Odd positions in a
    frame take an int-subclass track id."""
    frames = {idx: [Instance(track_id=Count(i) if i % 2 else i, quad=box.quad,
                             transcription=text, category=category)
                    for i, (box, text, category, _, _) in enumerate(row)]
              for idx, row in enumerate(rows)}
    det_frames = [FrameDetections(idx, [Detection(box, score, text, track_box)
                                        for box, text, _, score, track_box in row])
                  for idx, row in enumerate(rows)]
    count = max(1, len(rows))
    return (VideoAnnotation("v", 640, 480, count, frames, scenario),
            DetectionsFile("v", 640, 480, count, det_frames))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(entry_boxes, entry_texts, categories, entry_scores,
                                   st.none() | entry_boxes), max_size=3), max_size=4),
       st.none() | json_strings)
def test_saved_entries_are_the_json_modules_bytes(rows, scenario):
    gt, dets = rich_clip(rows, scenario)
    streams = {}
    save_all(gt, dets, lambda name: streams.setdefault(name, io.StringIO()))
    assert {name: s.getvalue() for name, s in streams.items()} == expected_bytes(gt, dets)


RICH_ROWS = [
    [],
    [(RotatedBox(10.5, 20.25, 8.0, 3.0, 0.3), None, TextCategory.CAPTION, 0, None),
     (RotatedBox(-1e6, 1e6, 4.0, 2.0, -1.2), Label("出口"), TextCategory.TITLE, 1,
      RotatedBox(-1e6 + 1.0, 1e6, 4.0, 2.0, -1.2)),
     (RotatedBox(3.0, 4.0, 1e-3, 2e-3, 0.0), "\u2028 é", TextCategory.SCENE, 5e-324, None),
     (RotatedBox(7.0, 8.0, 2.0, 1.0, 1.0), "###", TextCategory.OTHERS, Ratio(0.5),
      RotatedBox(7.5, 8.0, 2.0, 1.0, 1.0))],
    [],
]


@pytest.mark.parametrize("rows", [RICH_ROWS, []])
@pytest.mark.parametrize("scenario", [None, "crowd\tscene"])
@pytest.mark.parametrize("suffix", [".json", ".json.gz"])
def test_saved_entry_files_are_the_json_modules_bytes(tmp_path, rows, scenario, suffix):
    gt, dets = rich_clip(rows, scenario)
    save_all(gt, dets, lambda name: tmp_path / f"{name}{suffix}")
    for name, text in expected_bytes(gt, dets).items():
        data = (tmp_path / f"{name}{suffix}").read_bytes()
        assert (gzip.decompress(data) if suffix.endswith(".gz") else data) == text.encode("utf-8")


class RecordingStream(io.StringIO):
    """A text stream that keeps each write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


FRAME_KEY = re.compile(r'\n  "[0-9]+": ')


def test_a_saved_document_is_written_a_frame_at_a_time():
    """The header is one write, each frame one more, then the closing
    brackets: no write holds two frames, so a long video is never held
    whole as text."""
    gt, dets = varied_clip(7, "w", "scene")
    streams = {}
    save_all(gt, dets, lambda name: streams.setdefault(name, RecordingStream()))
    n_frames = {"annotation": len(gt.frames),
                "trajectories": sum(1 for insts in gt.frames.values() if insts),
                "detections": len(dets.frames)}
    assert min(n_frames.values()) >= 3
    for name, stream in streams.items():
        keys = [len(FRAME_KEY.findall(text)) for text in stream.writes]
        assert keys == [0] + [1] * n_frames[name] + [0], name
    assert {name: s.getvalue() for name, s in streams.items()} == expected_bytes(gt, dets)
