"""Data model and I/O for video text annotations, detections, and trajectories.

One JSON document describes one video:

    {
      "video_id": "clip_001",
      "width": 1280, "height": 720, "frame_count": 96,
      "frames": {
        "0": [{"id": 3, "points": [x1, y1, ..., x4, y4],
               "transcription": "SALE", "category": "scene"}],
        ...
      }
    }

Frame indices are decimal strings, and a frame the document does not list is
empty; ``points`` lists the quad's four corners.
A transcription of "###" marks an ignore region. Detection documents use the
same shape with "score" (and optionally "track_box") per entry and no "id".
Both formats share one frame walk (``_read_frames``) and one writer
(``_write_document``); each supplies only how one entry is read and how
it is formatted.  A formatter (``_instance_text``, ``_detection_text``)
makes an entry's JSON text straight from its model, the bytes the json
module would write for the entry's dict, and the writer sends out the
header and then one frame at a time.  It lists every frame the model
lists, empty ones too, and the models refuse what the loaders refuse, so
a save then a load gives the model back.  Reports (``evaluate``,
``loss``) go through the generic ``_dump_json``.
Files whose name ends in ".gz" are read and written gzip-compressed.

A text object in one frame is an ``Instance``, in an annotation and in a
``Trajectory`` alike: a trajectory maps frame indices to the instances of
one track id.

This module also implements the sparse-annotation pipeline: ``sample`` keeps
every k-th frame, and ``interpolate`` rebuilds the dense video by linearly
interpolating each track's quad corners between consecutive sampled
appearances (never extrapolating past the first or last one).
"""

from __future__ import annotations

import contextlib
import enum
import functools
import gzip
import io
import json
import math
import os
import re
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (
    CornerCorrespondenceError,
    DegenerateQuad,
    DuplicateTrackIdInFrame,
    NonMonotonicFrame,
    OutOfRangeFrameIndex,
    SchemaError,
    SelfIntersectingQuad,
)
from .geometry import (
    Quad,
    RotatedBox,
    _finite_floats,
    nondegenerate_hull,
    quad_to_rotated,
)

IGNORE_MARK = "###"


class TextCategory(enum.Enum):
    CAPTION = "caption"
    TITLE = "title"
    SCENE = "scene"
    OTHERS = "others"

    @classmethod
    def parse(cls, label: str) -> "TextCategory":
        try:
            return cls(label.lower())
        except (ValueError, AttributeError):
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown category {label!r}; expected one of {valid}") from None


@dataclass(frozen=True, slots=True)
class Instance:
    """One labeled text object in one frame."""

    track_id: int
    quad: Quad
    transcription: str | None
    category: TextCategory = TextCategory.OTHERS

    @property
    def ignore(self) -> bool:
        """An ignore region: the transcription is the "###" marker."""
        return self.transcription == IGNORE_MARK


def _check_extent(video) -> None:
    """The header checks shared by annotations and detections files: the
    ranges first, so an out-of-range value keeps its message, then
    ``_check_int``'s type rule."""
    if video.frame_count < 1:
        raise ValueError(f"frame_count must be >= 1, got {video.frame_count}")
    if video.width <= 0 or video.height <= 0:
        raise ValueError(f"width/height must be positive, got {video.width}x{video.height}")
    for name in ("width", "height", "frame_count"):
        _check_int(name, getattr(video, name), 1)


@dataclass
class VideoAnnotation:
    video_id: str
    width: int
    height: int
    frame_count: int
    frames: dict[int, list[Instance]]
    scenario: str | None = None

    def __post_init__(self):
        _check_extent(self)
        for idx, instances in self.frames.items():
            if not (0 <= idx < self.frame_count):
                raise OutOfRangeFrameIndex(
                    f"frames.{idx}", f"frame index outside [0, {self.frame_count})"
                )
            _check_int("frame index", idx, 0)
            seen: set[int] = set()
            for i, inst in enumerate(instances):
                track_id = inst.track_id
                # the loaders' rule, so that a saved model loads back
                if isinstance(track_id, bool) or not isinstance(track_id, int):
                    raise ValueError(f"frames.{idx}[{i}]: track id must be an int, "
                                     f"got {track_id!r}")
                if track_id in seen:
                    raise DuplicateTrackIdInFrame(
                        f"frames.{idx}[{i}]", f"track id {track_id} repeated in frame {idx}"
                    )
                seen.add(track_id)


@dataclass
class Trajectory:
    """One identity over time: frame index -> its instance in that frame,
    whose ``track_id`` is the trajectory's."""

    track_id: int
    frames: dict[int, Instance]


@dataclass(frozen=True, slots=True)
class Detection:
    """A per-frame detector output; ``track_box`` optionally carries an
    externally predicted next-frame box for the same object."""

    box: RotatedBox
    score: float
    transcription: str | None = None
    track_box: RotatedBox | None = None

    def __post_init__(self):
        # the loaders' rule, so that a saved detection loads back
        if isinstance(self.score, bool):
            raise ValueError(f"score must be a number, got {self.score!r}")
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0,1], got {self.score}")


def _check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an ``int`` (not a ``bool``) of
    at least ``least``, naming it ``name``: the one rule for frame indices
    (``FrameDetections``, ``VideoAnnotation`` keys, ``link``), for video
    extents (``width``, ``height``, ``frame_count``) and for counts
    (``max_age``, ``window``, ``n_objects``, ``n_frames``, ``sample``'s k)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass
class FrameDetections:
    frame_index: int
    detections: list[Detection]

    def __post_init__(self):
        _check_int("frame_index", self.frame_index, 0)


@dataclass
class DetectionsFile:
    """A whole detections document: video metadata plus the frames it
    lists, in strictly increasing index order inside [0, frame_count).
    A frame index that is not listed has no detections."""

    video_id: str
    width: int
    height: int
    frame_count: int
    frames: list[FrameDetections]

    def __post_init__(self):
        _check_extent(self)
        last = -1
        for i, frame in enumerate(self.frames):
            if frame.frame_index >= self.frame_count:
                raise OutOfRangeFrameIndex(
                    f"frames[{i}]", f"frame index outside [0, {self.frame_count})"
                )
            if frame.frame_index <= last:
                raise NonMonotonicFrame(f"frame {frame.frame_index} after frame {last}")
            last = frame.frame_index


# ---------------------------------------------------------------------------
# sampling and interpolation
# ---------------------------------------------------------------------------


def sample(dense: VideoAnnotation, k: int) -> VideoAnnotation:
    """Keep only frames whose index is a multiple of k."""
    if k < 1:
        raise ValueError(f"sampling frequency must be >= 1, got {k}")
    _check_int("sampling frequency", k, 1)
    kept = {idx: list(insts) for idx, insts in dense.frames.items() if idx % k == 0}
    return replace(dense, frames=kept)


def _lerp_quad(a: Quad, b: Quad, t: float, track_id: int, f0: int, f1: int) -> Quad:
    """The quad whose corners lie the fraction ``t`` of the way from those
    of ``a``, track ``track_id``'s quad at frame ``f0``, to those of ``b``
    at frame ``f1``.  A quad the loaders would refuse, self-intersecting or
    collapsed (``nondegenerate_hull`` rejects it), means the two corner
    orders do not correspond: CornerCorrespondenceError."""
    try:
        quad = Quad.from_flat([p + t * (q - p) for p, q in zip(a.as_flat(), b.as_flat())])
        nondegenerate_hull(quad)
    except (SelfIntersectingQuad, DegenerateQuad) as exc:
        raise CornerCorrespondenceError(
            f"track {track_id}: corner order of frames {f0} and {f1} does not "
            f"correspond (the quad {t:.3g} of the way between them: {exc})"
        ) from None
    return quad


def interpolate(sampled: VideoAnnotation, frame_count: int) -> VideoAnnotation:
    """Expand sampled keyframes to a dense annotation of ``frame_count`` frames.

    Each track's quad corners move linearly between its consecutive sampled
    appearances; transcription, category, and id are copied from the earlier
    keyframe. Sampled frames are carried over untouched, so endpoints are
    preserved bit for bit. Tracks are never extended before their first or
    after their last appearance. If corner-wise interpolation of some segment
    gives a quad the loaders would refuse, self-intersecting or collapsed, at
    its midpoint or at any frame, the keyframes' corner orders do not
    correspond and CornerCorrespondenceError is raised.  That catches
    corners that cross or collapse, not every mismatched order: a quarter-turn
    shift of the corners interpolates without complaint.
    """
    frames = {idx: list(insts) for idx, insts in sampled.frames.items()}

    for traj in annotation_to_trajectories(sampled):
        track_id = traj.track_id
        appearances = list(traj.frames.items())
        for (f0, inst0), (f1, inst1) in zip(appearances, appearances[1:]):
            span = f1 - f0
            if span <= 1:
                continue
            _lerp_quad(inst0.quad, inst1.quad, 0.5, track_id, f0, f1)
            for f in range(f0 + 1, f1):
                quad = _lerp_quad(inst0.quad, inst1.quad, (f - f0) / span, track_id, f0, f1)
                frames.setdefault(f, []).append(
                    Instance(
                        track_id=track_id,
                        quad=quad,
                        transcription=inst0.transcription,
                        category=inst0.category,
                    )
                )

    return replace(sampled, frame_count=frame_count, frames=dict(sorted(frames.items())))


# ---------------------------------------------------------------------------
# trajectory views
# ---------------------------------------------------------------------------


def annotation_to_trajectories(ann: VideoAnnotation) -> list[Trajectory]:
    """Group a per-frame annotation into per-identity trajectories."""
    by_id: dict[int, dict[int, Instance]] = {}
    for idx in sorted(ann.frames):
        for inst in ann.frames[idx]:
            by_id.setdefault(inst.track_id, {})[idx] = inst
    return [Trajectory(track_id=tid, frames=by_id[tid]) for tid in sorted(by_id)]


def trajectories_to_annotation(
    trajectories: list[Trajectory],
    video_id: str,
    width: int,
    height: int,
    frame_count: int,
    scenario: str | None = None,
) -> VideoAnnotation:
    """Regroup the trajectories' instances by frame, in track id order.

    Raises ValueError when an instance's ``track_id`` is not its
    trajectory's.
    """
    frames: dict[int, list[Instance]] = {}
    for traj in sorted(trajectories, key=lambda t: t.track_id):
        for idx in sorted(traj.frames):
            inst = traj.frames[idx]
            if inst.track_id != traj.track_id:
                raise ValueError(
                    f"trajectory {traj.track_id} holds an instance of track "
                    f"{inst.track_id} at frame {idx}"
                )
            frames.setdefault(idx, []).append(inst)
    return VideoAnnotation(
        video_id=video_id,
        width=width,
        height=height,
        frame_count=frame_count,
        frames=dict(sorted(frames.items())),
        scenario=scenario,
    )


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _open(target, mode: str):
    """A UTF-8 text stream to read (``mode`` "r") or write ("w"): a caller's
    stream as it is, left open, or a path opened, through gzip when its name
    ends in ".gz", and closed on exit, also when the body raises.

    A path that names a regular file, or nothing yet, is written whole or
    not at all: into a temporary file beside it with the same suffix, which
    replaces it when the body returns and is removed when the body raises.
    Any other path (a device such as /dev/stdout, a pipe) is written in place.
    """
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
        return
    path = Path(target)
    gz = path.suffix == ".gz"
    if mode == "r" or (path.exists() and not path.is_file()):
        with (gzip.open if gz else open)(path, mode + "t", encoding="utf-8") as stream:
            yield stream
        return
    tmp = path.with_name(f".{path.stem}.{os.urandom(4).hex()}.tmp{path.suffix}")
    try:
        with open(tmp, "xb") as raw, io.TextIOWrapper(
                # the gzip header names the target, not the temporary file
                gzip.GzipFile(str(path), "wb", fileobj=raw) if gz else raw,
                encoding="utf-8") as stream:
            yield stream
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_json(source):
    with _open(source, "r") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise SchemaError("$", f"not UTF-8 text: {exc}") from None
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise SchemaError("$", f"not a readable gzip stream: {exc}") from None
        except (ValueError, RecursionError) as exc:
            # the decoder's other refusals: an integer literal past the
            # int-to-string digit limit, arrays or objects nested deeper
            # than it recurses
            raise SchemaError("$", f"not valid JSON: {exc}") from None


_REQUIRED = object()


def _expect(doc, key, kind, kind_name=None, default=_REQUIRED):
    """``doc[key]``, a ``kind`` (``kind_name`` in errors) named by ``key``;
    an absent key gives ``default``, or without one is a missing required field."""
    if key not in doc:
        if default is not _REQUIRED:
            return default
        raise SchemaError(key, "missing required field")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise SchemaError(key, "expected an integer, got a boolean")
    if not isinstance(value, kind):
        name = kind_name or getattr(kind, "__name__", str(kind))
        raise SchemaError(key, f"expected {name}, got {type(value).__name__}")
    return value


def _expect_text(doc, key, kind, kind_name=None, default=_REQUIRED):
    """``_expect`` for a string field.  A string that no UTF-8 writer can
    encode (a lone surrogate, which a JSON escape such as ``"\\udc80"``
    yields) is refused here, not at the next save."""
    text = _expect(doc, key, kind, kind_name, default)
    if isinstance(text, str) and not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(key, f"not encodable as UTF-8: {exc.reason} "
                                   f"at index {exc.start}") from None
    return text


def _parse_header(doc):
    if not isinstance(doc, dict):
        raise SchemaError("$", f"expected an object, got {type(doc).__name__}")
    video_id = _expect_text(doc, "video_id", str)
    width = _expect(doc, "width", int)
    height = _expect(doc, "height", int)
    frame_count = _expect(doc, "frame_count", int)
    frames = _expect(doc, "frames", dict, "object")
    if frame_count < 1:
        raise SchemaError("frame_count", f"must be >= 1, got {frame_count}")
    if width <= 0 or height <= 0:
        raise SchemaError("width", f"dimensions must be positive, got {width}x{height}")
    scenario = _expect_text(doc, "scenario", (str, type(None)), "string", None)
    return video_id, width, height, frame_count, frames, scenario


# ASCII only: str.isdigit() also accepts "²", which int() refuses.
_FRAME_KEY = re.compile(r"-?[0-9]+")


def _numeric_key(key: str) -> tuple:
    return (0, int(key)) if _FRAME_KEY.fullmatch(key) else (1, 0)


def _read_frames(raw_frames: dict, frame_count: int, read_entry) -> dict[int, list]:
    """The one walk over a document's ``frames`` object, for both formats.

    Keys are read in numeric order.  Each must be an ASCII decimal index in
    ``[0, frame_count)`` that no other key names ("1" and "01" collide),
    and each frame a list of objects; ``read_entry(entry)`` reads one
    object.  A SchemaError it raises names a path inside the object, such
    as ``points[3]``, and leaves here with the object's own JSON path
    ``frames.K[i]`` in front, the only place that path is built.  Returns
    index -> the entries read, in index order.
    """
    frames: dict[int, list] = {}
    for key in sorted(raw_frames, key=_numeric_key):
        if not _FRAME_KEY.fullmatch(key):
            raise SchemaError(f"frames.{key}", "frame index must be a decimal string")
        idx = int(key)
        if not (0 <= idx < frame_count):
            raise OutOfRangeFrameIndex(
                f"frames.{key}", f"frame index outside [0, {frame_count})"
            )
        if idx in frames:
            raise SchemaError(f"frames.{key}", f"frame {idx} is listed twice")
        entries = raw_frames[key]
        if not isinstance(entries, list):
            raise SchemaError(f"frames.{key}", f"expected a list, got {type(entries).__name__}")
        read = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise SchemaError(f"frames.{key}[{len(read)}]",
                                  f"expected an object, got {type(entry).__name__}")
            try:
                read.append(read_entry(entry))
            except SchemaError as exc:
                raise type(exc)(f"frames.{key}[{len(read)}].{exc.path}", exc.message) from None
        frames[idx] = read
    return frames


_NUMBER_TYPES = frozenset((int, float))


def _parse_points(entry, key: str = "points", *, as_box: bool = False) -> Quad | RotatedBox:
    """The quad at ``entry[key]``, or with ``as_box`` its enclosing rotated
    box.  Either way its hull is checked once, by ``nondegenerate_hull``
    or inside ``quad_to_rotated``."""
    pts = _expect(entry, key, list)
    if len(pts) != 8:
        raise SchemaError(key, f"expected 8 numbers, got {len(pts)}")
    if not _NUMBER_TYPES.issuperset(map(type, pts)):
        # a value other than a plain int or float: name the first one
        # that is not a number (a bool is not)
        for i, v in enumerate(pts):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise SchemaError(f"{key}[{i}]", f"expected a number, got {type(v).__name__}")
    try:
        quad = Quad._of_flat(_finite_floats(pts))
        if as_box:
            return quad_to_rotated(quad)
        nondegenerate_hull(quad)
    except SelfIntersectingQuad:
        raise SchemaError(key, "corners describe a self-intersecting quad") from None
    except (ValueError, OverflowError) as exc:  # non-finite, past float range, degenerate
        raise SchemaError(key, str(exc)) from None
    return quad


# the labels as written, each the category TextCategory.parse gives it
_CATEGORY_OF = {c.value: c for c in TextCategory}


def _parse_category(entry) -> TextCategory:
    raw = _expect(entry, "category", str, "string", TextCategory.OTHERS.value)
    category = _CATEGORY_OF.get(raw)
    if category is not None:
        return category
    try:
        return TextCategory.parse(raw)
    except ValueError as exc:
        raise SchemaError("category", str(exc)) from None


def _naming_file(load):
    """Make a loader's schema errors name the file when given a path."""

    @functools.wraps(load)
    def wrapper(source):
        try:
            return load(source)
        except SchemaError as exc:
            if hasattr(source, "read"):
                raise
            raise exc.in_file(source) from None

    return wrapper


def _read_instance(entry: dict) -> Instance:
    return Instance(
        track_id=_expect(entry, "id", int),
        quad=_parse_points(entry),
        transcription=_expect_text(entry, "transcription", (str, type(None)),
                                   "string or null"),
        category=_parse_category(entry),
    )


def _read_detection(entry: dict) -> Detection:
    box = _parse_points(entry, as_box=True)
    score = _expect(entry, "score", (int, float), "a number")
    if isinstance(score, bool):
        raise SchemaError("score", "expected a number, got bool")
    if not (0.0 <= score <= 1.0):
        raise SchemaError("score", f"must be in [0,1], got {score}")
    transcription = _expect_text(entry, "transcription", (str, type(None)),
                                 "string or null", None)
    track_box = None
    if entry.get("track_box") is not None:
        track_box = _parse_points(entry, "track_box", as_box=True)
    return Detection(box=box, score=float(score), transcription=transcription, track_box=track_box)


@_naming_file
def load_annotation(source) -> VideoAnnotation:
    """Parse an annotation document from a path or an open text stream."""
    video_id, width, height, frame_count, raw_frames, scenario = _parse_header(_load_json(source))
    return VideoAnnotation(
        video_id=video_id,
        width=width,
        height=height,
        frame_count=frame_count,
        frames=_read_frames(raw_frames, frame_count, _read_instance),
        scenario=scenario,
    )


@_naming_file
def load_detections(source) -> DetectionsFile:
    """Parse a detections document into per-frame detection lists.

    Only the frames the document lists come back, in index order; a listed
    frame may be empty, and an unlisted one has no detections.
    """
    video_id, width, height, frame_count, raw_frames, _ = _parse_header(_load_json(source))
    frames = _read_frames(raw_frames, frame_count, _read_detection)
    return DetectionsFile(
        video_id=video_id, width=width, height=height, frame_count=frame_count,
        frames=[FrameDetections(frame_index=i, detections=d) for i, d in frames.items()],
    )


# ---------------------------------------------------------------------------
# the writers: the json module's indent=1 bytes, written faster
# ---------------------------------------------------------------------------

_quote = json.encoder.encode_basestring  # the C codec when CPython has it

# An entry sits at depth 3 of a document (the document, its "frames", a
# frame's list), so its fields are indented four spaces and its corners five.
_CORNER_BREAK = ",\n     "


def _corners_text(quad: Quad) -> str:
    """A quad's corners as json writes the list: each corner is a finite
    float, written as its repr."""
    return "[\n     " + _CORNER_BREAK.join(map(float.__repr__, quad.as_flat())) + "\n    ]"


def _instance_text(inst: Instance) -> str:
    """An annotation entry's text, as json writes its dict at depth 3."""
    transcription = inst.transcription
    return ('{\n    "id": %s,\n    "points": %s,\n    "transcription": %s,\n    "category": %s\n   }'
            % (int.__repr__(inst.track_id), _corners_text(inst.quad),
               "null" if transcription is None else _quote(transcription),
               _quote(inst.category.value)))


def _detection_text(det: Detection) -> str:
    """A detection entry's text, as json writes its dict at depth 3: the
    transcription and the track box only when set."""
    score = det.score
    text = ('{\n    "points": ' + _corners_text(det.box.quad) + ',\n    "score": '
            + (float.__repr__(score) if isinstance(score, float) else int.__repr__(score)))
    if det.transcription is not None:
        text += ',\n    "transcription": ' + _quote(det.transcription)
    if det.track_box is not None:
        text += ',\n    "track_box": ' + _corners_text(det.track_box.quad)
    return text + "\n   }"


def _write_document(video, frames, entry_text, target, scenario=None) -> None:
    """The one writer for both formats: the header of ``video``,
    ``scenario`` when set, then every (index, entries) pair of ``frames``,
    empty ones too, each entry as ``entry_text`` gives it.  The header is
    one write and each frame one more, so a document is never held whole
    as text."""
    header = ('{\n "video_id": %s,\n "width": %s,\n "height": %s,\n "frame_count": %s,\n'
              % (_quote(video.video_id), int.__repr__(video.width),
                 int.__repr__(video.height), int.__repr__(video.frame_count)))
    if scenario is not None:
        header += ' "scenario": ' + _quote(scenario) + ",\n"
    with _open(target, "w") as fh:
        fh.write(header + ' "frames": {')
        opening = "\n  "
        for idx, entries in frames:
            listed = ("[\n   " + ",\n   ".join(map(entry_text, entries)) + "\n  ]"
                      if entries else "[]")
            fh.write(opening + '"' + int.__repr__(idx) + '": ' + listed)
            opening = ",\n  "
        fh.write("}\n}\n" if opening == "\n  " else "\n }\n}\n")


def save_annotation(ann: VideoAnnotation, target) -> None:
    """Write an annotation document; canonical key order, UTF-8."""
    _write_document(ann, sorted(ann.frames.items()), _instance_text, target, ann.scenario)


def save_trajectories(
    trajectories: list[Trajectory],
    video_id: str,
    width: int,
    height: int,
    frame_count: int,
    target,
) -> None:
    """Write trajectories as an annotation-shaped document (prediction flavor)."""
    ann = trajectories_to_annotation(trajectories, video_id, width, height, frame_count)
    save_annotation(ann, target)


def save_detections(dets: DetectionsFile, target) -> None:
    """Write a detections document, every listed frame included."""
    frames = ((fd.frame_index, fd.detections) for fd in dets.frames)
    _write_document(dets, frames, _detection_text, target)


# ---------------------------------------------------------------------------
# reports: the json module's indent=1 bytes for any JSON value
# ---------------------------------------------------------------------------


def _key_text(key) -> str:
    """A dict key, which must be a string, quoted as json writes it."""
    if isinstance(key, str):
        return _quote(key)
    raise TypeError(f"keys must be str, not {type(key).__name__}")


def _encode(value, indent: str) -> str:
    """``value`` as json writes it with ``ensure_ascii=False, indent=1`` at
    the depth whose line break and indent are ``indent``, testing types in
    json's order.  A value of no JSON type raises TypeError, as json does,
    and so does a dict key that is not a string."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0.0 else "-Infinity"
        return float.__repr__(value)
    inner = indent + " "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join([_encode(v, inner) for v in value])
                + indent + "]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{" + inner
                + ("," + inner).join([_key_text(k) + ": " + _encode(v, inner)
                                      for k, v in value.items()])
                + indent + "}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump_json(payload, target) -> None:
    """Write a report, ``payload``, and a line break to ``target``, a path
    or a text stream, byte for byte as the json module's ``dump(payload,
    fh, ensure_ascii=False, indent=1)`` does, without its pure-Python
    encoder."""
    with _open(target, "w") as fh:
        fh.write(_encode(payload, "\n") + "\n")
