"""Fuzz tests for the loaders and the command line.

Whatever JSON a file holds, loading it gives a model or a ``DataError``;
whatever short argument list the CLI gets, it ends with one of the
documented exit codes.  Inputs are kept small: a handful of values, short
strings and small integers.  Frame counts reach 10**12, since the loaders'
cost follows the frames a document lists, not the count it claims.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import unittest.mock
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vtspot.cli as cli_mod
from vtspot.annotations import (
    DetectionsFile,
    VideoAnnotation,
    load_annotation,
    load_detections,
)
from vtspot.cli import main
from vtspot.errors import DataError

small_ints = st.integers(-3, 40)
frame_counts = st.one_of(small_ints, st.integers(41, 10 ** 12))
# past float range, non-finite, and near the float limit
odd_numbers = st.sampled_from((10 ** 400, -(10 ** 400), math.nan, math.inf, 1e308))
numbers = st.one_of(small_ints, st.floats(allow_nan=True, allow_infinity=True),
                    odd_numbers)
keys = st.one_of(
    st.sampled_from(("video_id", "width", "height", "frame_count", "frames",
                     "scenario", "id", "points", "transcription", "category",
                     "score", "track_box", "0", "1", "2", "-1", "01", "+1",
                     "--1", "²", "٣", "1.0", " 1", "")),
    st.text(max_size=3),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4),
                    st.sampled_from(("###", "scene", "caption", "others")))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def corner_lists(draw):
    """Eight numbers, often a valid quad, sometimes with one bad entry."""
    x, y = draw(st.floats(-50, 50)), draw(st.floats(-50, 50))
    w, h = draw(st.sampled_from((0.0, 1e-9, 3.0, 20.0))), draw(st.sampled_from((0.0, 2.0)))
    pts = [x, y, x + w, y, x + w, y + h, x, y + h]
    if draw(st.booleans()):
        pts[draw(st.integers(0, 7))] = draw(st.one_of(odd_numbers, scalars))
    if draw(st.booleans()):
        pts = draw(st.permutations(pts))
    return pts


@st.composite
def entries(draw):
    """A frame entry of either file kind, with fields dropped or replaced."""
    entry = {"id": draw(small_ints), "points": draw(corner_lists()),
             "transcription": draw(st.one_of(st.none(), st.text(max_size=3))),
             "score": draw(st.one_of(st.floats(0, 1), numbers)),
             "category": draw(st.sampled_from(("scene", "caption", "bad"))),
             "track_box": draw(st.one_of(st.none(), corner_lists()))}
    for key in draw(st.lists(st.sampled_from(sorted(entry)), max_size=3)):
        if draw(st.booleans()):
            entry.pop(key, None)
        else:
            entry[key] = draw(json_values)
    return entry


@st.composite
def documents(draw):
    """Annotation- or detections-shaped documents, nearly valid."""
    doc = {"video_id": draw(st.text(max_size=3)), "width": draw(small_ints),
           "height": draw(small_ints), "frame_count": draw(frame_counts),
           "frames": draw(st.dictionaries(keys, st.lists(entries(), max_size=3),
                                          max_size=3))}
    if draw(st.booleans()):
        doc["scenario"] = draw(scalars)
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=2)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(json_values)
    return doc


any_document = st.one_of(json_values, documents())


def _load_or_data_error(load, value, model):
    text = json.dumps(value)
    try:
        result = load(io.StringIO(text))
    except DataError:
        return
    assert isinstance(result, model)


@settings(max_examples=250, deadline=None)
@given(any_document)
def test_load_annotation_gives_model_or_data_error(value):
    _load_or_data_error(load_annotation, value, VideoAnnotation)


@settings(max_examples=250, deadline=None)
@given(any_document)
def test_load_detections_gives_model_or_data_error(value):
    _load_or_data_error(load_detections, value, DetectionsFile)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=40))
def test_loaders_on_arbitrary_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(raw)
        for load in (load_annotation, load_detections):
            try:
                load(path)
            except DataError as exc:
                assert str(path) in str(exc)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

FIXTURES = {
    "gt.json": {"video_id": "v", "width": 64, "height": 48, "frame_count": 6,
                "frames": {"0": [{"id": 1, "points": [1, 1, 9, 1, 9, 5, 1, 5],
                                  "transcription": "ab"}],
                           "3": [{"id": 1, "points": [3, 2, 11, 2, 11, 6, 3, 6],
                                  "transcription": "ab"}]}},
    "dets.json": {"video_id": "v", "width": 64, "height": 48, "frame_count": 6,
                  "frames": {"0": [{"points": [1, 1, 9, 1, 9, 5, 1, 5],
                                    "score": 0.9, "transcription": "ab"}],
                             "2": [{"points": [2, 1, 10, 1, 10, 5, 2, 5],
                                    "score": 0.4}]}},
    "other.json": {"video_id": "w", "width": 64, "height": 48, "frame_count": 2,
                   "frames": {}},
    "bad.json": {"video_id": 3},
}

# Everything main accepts except the options that name an output file, so
# that no run can overwrite an input.
TOKENS = (
    "evaluate", "track", "interpolate", "sample", "loss", "synth",
    "--task", "detection", "tracking", "spotting", "--iou-thresh",
    "--case-insensitive", "--format", "json", "csv",
    "--gt-dir", "--pred-dir", "--method", "transformer-assoc", "linker",
    "--max-age", "--min-score", "--window", "--max-norm-edit", "--frames",
    "--k", "--weights", "--objects", "--motion", "static", "rotate",
    "--noise-sigma", "--drop-prob", "--seed", "--help", "--version",
    "0", "1", "2", "3", "6", "-1", "0.5", "nan", "inf", "1,5,2,2",
    "nan,5,2,2", "1,2", ".", "missing.json",
    *FIXTURES,
)
# Free text leaves out "-": argparse takes any prefix of a long option for
# the option, and "--j"/"--o" would reach --jobs and --out.
argvs = st.lists(st.one_of(st.sampled_from(TOKENS),
                           st.text(alphabet="ab.,019jo/ ", max_size=4)),
                 max_size=7)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("the fuzzer must not start worker processes")


@contextlib.contextmanager
def _fixture_dir():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in FIXTURES.items():
            Path(tmp, name).write_text(json.dumps(doc), encoding="utf-8")
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(cwd)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_main_ends_with_a_documented_exit_code(argv):
    sink = io.StringIO()
    with _fixture_dir(), \
            unittest.mock.patch.dict(os.environ, {"VTSPOT_JOBS": "1"}), \
            unittest.mock.patch.object(cli_mod, "ProcessPoolExecutor", _NoPool), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, sink.getvalue()[-500:])
