import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vtspot.linker as linker_mod
from vtspot.errors import DegenerateQuad, NonMonotonicFrame
from vtspot.geometry import (
    DEGENERATE_AREA,
    Quad,
    RotatedBox,
    quad_iou,
    quad_to_rotated,
    rotated_to_quad,
)
from vtspot.linker import LinkerConfig, edit_distance, link
from vtspot.synth import SynthConfig
from vtspot.tracker import Tracker, TrackerConfig, run
from vtspot.annotations import Detection, FrameDetections, Instance

from oracles import levenshtein_ref


def quad_at(cx, cy=0.0, w=4.0, h=4.0) -> Quad:
    return rotated_to_quad(RotatedBox(cx, cy, w, h, 0.0))


def obj(cx, text, cy=0.0, w=4.0, h=4.0):
    return (quad_at(cx, cy, w, h), text)


# ---------------------------------------------------------------------------
# edit distance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a,b,want", [
    ("", "abc", 3),
    ("abc", "", 3),
    ("same", "same", 0),
    ("kitten", "sitting", 3),
    ("", "", 0),
    ("a", "b", 1),
    ("flaw", "lawn", 2),
])
def test_edit_distance_fixtures(a, b, want):
    assert edit_distance(a, b) == want
    assert edit_distance(a, b) == levenshtein_ref(a, b)


def test_edit_distance_against_reference():
    rng = random.Random(9)
    alphabet = "abcde"
    for _ in range(300):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert edit_distance(a, b) == levenshtein_ref(a, b)


@given(st.text(alphabet="abcd", max_size=8), st.text(alphabet="abcd", max_size=8),
       st.text(alphabet="abcd", max_size=8))
@settings(max_examples=200, deadline=None)
def test_edit_distance_is_a_metric(a, b, c):
    assert edit_distance(a, b) == edit_distance(b, a)
    assert (edit_distance(a, b) == 0) == (a == b)
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_edit_distance_unicode_code_points():
    assert edit_distance("café", "cafe") == 1
    assert edit_distance("你好", "你") == 1


# ---------------------------------------------------------------------------
# linking
# ---------------------------------------------------------------------------


def test_static_box_single_trajectory():
    frames = [(f, [obj(0.0, "WORD")]) for f in range(10)]
    trajs = link(frames)
    assert len(trajs) == 1
    assert len(trajs[0].frames) == 10
    assert sorted(trajs[0].frames) == list(range(10))


def test_transcription_veto_splits_identical_geometry():
    frames = [
        (0, [obj(0.0, "ABC")]),
        (1, [obj(0.0, "XYZ")]),
    ]
    trajs = link(frames)
    assert len(trajs) == 2


def test_gap_bridged_within_window():
    frames = []
    for f in range(10):
        frames.append((f, [] if f == 5 else [obj(0.0, "GO")]))
    trajs = link(frames, LinkerConfig(window=3))
    assert len(trajs) == 1
    assert sorted(trajs[0].frames) == [f for f in range(10) if f != 5]


def test_gap_beyond_window_splits():
    frames = []
    for f in range(10):
        frames.append((f, [] if f in (4, 5, 6, 7) else [obj(0.0, "GO")]))
    trajs = link(frames, LinkerConfig(window=3))
    assert len(trajs) == 2


def test_every_object_appears_exactly_once():
    rng = random.Random(3)
    frames = []
    total = 0
    for f in range(12):
        n = rng.randint(0, 4)
        total += n
        frames.append((f, [obj(rng.uniform(0, 30), rng.choice(["A", "B", "CC"]),
                               rng.uniform(0, 30)) for _ in range(n)]))
    trajs = link(frames)
    seen = sum(len(t.frames) for t in trajs)
    assert seen == total
    for t in trajs:
        assert len(t.frames) == len(set(t.frames))


def test_iou_vetoes_distant_boxes():
    frames = [
        (0, [obj(0.0, "GO")]),
        (1, [obj(50.0, "GO")]),
    ]
    assert len(link(frames)) == 2


def test_link_prefers_higher_iou():
    # one open trajectory, two new objects; the closer one must claim it
    frames = [
        (0, [obj(0.0, "GO")]),
        (1, [obj(1.5, "GO"), obj(0.1, "GO")]),
    ]
    trajs = link(frames, LinkerConfig(iou_threshold=0.1))
    by_id = {t.track_id: t for t in trajs}
    assert len(trajs) == 2
    claimed = by_id[0].frames[1].quad
    assert min(claimed.as_flat()[0::2]) == pytest.approx(0.1 - 2.0)


def test_non_monotonic_frame_rejected():
    frames = [(1, [obj(0.0, "A")]), (1, [obj(0.0, "A")])]
    with pytest.raises(NonMonotonicFrame):
        link(frames)


@pytest.mark.parametrize("frames", [
    [(-3, [obj(0.0, "a")])],
    [(2, [obj(0.0, "a")]), (-3, [obj(0.0, "a")])],
])
def test_negative_frame_index_rejected(frames):
    """As ``FrameDetections`` refuses it, before the order is checked."""
    with pytest.raises(ValueError, match=r"^frame_index must be >= 0, got -3$"):
        link(frames)


@pytest.mark.parametrize("index", [0.5, 1.0, True, "1"])
def test_frame_index_must_be_an_int(index):
    """``FrameDetections`` and ``link`` refuse, with one message, a frame
    index that is not an ``int``; a ``bool`` is not one.  Refused up front,
    0.5 after frame 0 is not misread as out of order."""
    want = rf"^frame_index must be an int, got {re.escape(repr(index))}$"
    with pytest.raises(ValueError, match=want):
        FrameDetections(index, [])
    with pytest.raises(ValueError, match=want):
        link([(index, [obj(0.0, "a")])])
    with pytest.raises(ValueError, match=want):
        link([(0, [obj(0.0, "a")]), (index, [obj(0.0, "a")])])


@pytest.mark.parametrize("config,field,value", [
    (LinkerConfig, "window", 1.5),
    (LinkerConfig, "window", True),
    (TrackerConfig, "max_age", True),
    (TrackerConfig, "max_age", 1.0),
    (SynthConfig, "n_objects", True),
    (SynthConfig, "n_objects", 2.0),
    (SynthConfig, "n_frames", 2.5),
    (SynthConfig, "n_frames", "3"),
])
def test_counts_must_be_ints(config, field, value):
    """The frame index rule holds for every count: ``window``, ``max_age``,
    ``n_objects`` and ``n_frames`` refuse, where the config is made, a
    value that is not an ``int``; a ``bool`` is not one."""
    want = rf"^{field} must be an int, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=want):
        config(**{field: value})


@pytest.mark.parametrize("config,field,value,least", [
    (LinkerConfig, "window", 0, 1),
    (TrackerConfig, "max_age", -1, 0),
    (SynthConfig, "n_objects", 0, 1),
    (SynthConfig, "n_frames", 1, 2),
])
def test_counts_below_their_least_value_are_refused(config, field, value, least):
    with pytest.raises(ValueError, match=rf"^{field} must be >= {least}, got {value}$"):
        config(**{field: value})


def _parallelogram(x: float) -> Quad:
    return Quad.from_flat((x, 0, x + 10, 0, x + 18, 4, x + 8, 4))


def test_convex_objects_are_scored_by_their_own_quads():
    """Two parallelograms 6 apart overlap by 0.25 as quads and by 0.5 as
    their enclosing boxes: under the default gate of 0.3 they do not link."""
    a, b = _parallelogram(0.0), _parallelogram(6.0)
    assert quad_iou(a, b) == pytest.approx(0.25)
    trajs = link([(0, [(a, "a")]), (1, [(b, "a")])], LinkerConfig())
    assert [(t.track_id, t.frames) for t in trajs] == [
        (0, {0: Instance(0, a, "a")}),
        (1, {1: Instance(1, b, "a")}),
    ]


def test_a_non_convex_object_links_through_its_minimum_area_box(monkeypatch):
    """The dart's minimum-area box is the 4x4 square it is linked to; the
    box is fitted for the dart only, and the dart is recorded as given."""
    fits = []

    def counted(quad):
        fits.append(quad)
        return quad_to_rotated(quad)

    monkeypatch.setattr(linker_mod, "quad_to_rotated", counted)
    dart = Quad.from_flat((0, 0, 4, 2, 0, 4, 1, 2))
    square = quad_at(2.0, 2.0)
    trajs = link([(0, [(dart, "a")]), (1, [(square, "a")]), (2, [(dart, "a")])])
    assert [(t.track_id, t.frames) for t in trajs] == [
        (0, {0: Instance(0, dart, "a"), 1: Instance(0, square, "a"),
             2: Instance(0, dart, "a")}),
    ]
    assert fits == [dart, dart]


@pytest.mark.parametrize("flat,want", [
    ((0, 0, 4, 0, 4, 1e-14, 0, 1e-14), f"quad area 4e-14 is below {DEGENERATE_AREA!r}"),
    ((0, 0, 1, 0, 2, 0, 3, 0), f"quad area 0.0 is below {DEGENERATE_AREA!r}"),
    # on one line, but rounding leaves the stored corners an area and convex
    ((4e6 + 0.1, 1.2e6 + 0.03, 8.4e7 + 0.1, 2.52e7 + 0.03,
      7e7 + 0.1, 2.1e7 + 0.03, 2e6 + 0.1, 6e5 + 0.03), "quad corners are collinear"),
], ids=["thin", "flat", "collinear"])
def test_degenerate_object_rejected(flat, want):
    """Refused, convex or not, with the message of the box fit."""
    with pytest.raises(DegenerateQuad, match=f"^{re.escape(want)}$"):
        link([(0, [obj(0.0, "a")]), (1, [obj(0.0, "a"), (Quad.from_flat(flat), "a")])])


def test_optimal_assignment_keeps_the_link_greedy_loses():
    """IoUs (o0, t0) 0.818, (o0, t1) 0.667 and (o1, t0) 0.600; (o1, t1)
    0.290 is under the gate.  Claiming best IoU first links o0 to t0 and
    leaves o1 to be born; the max-IoU matching links both."""
    frames = [(0, [obj(0.0, "a", w=10.0, h=10.0), obj(3.0, "a", w=10.0, h=10.0)]),
              (1, [obj(1.0, "a", w=10.0, h=10.0), obj(-2.5, "a", w=10.0, h=10.0)])]
    trajs = link(frames, LinkerConfig(iou_threshold=0.3))
    assert [(t.track_id, t.frames[1].quad) for t in trajs] == [
        (0, quad_at(-2.5, w=10.0, h=10.0)),
        (1, quad_at(1.0, w=10.0, h=10.0)),
    ]


def test_newborns_are_numbered_in_object_order():
    """Object 0 has no candidate; object 1 loses trajectory 0 to object 2,
    which overlaps it more.  The two newborns take ids 1 and 2 in object
    order, whatever their best IoU."""
    frames = [(0, [obj(0.0, "a")]),
              (1, [obj(50.0, "a"), obj(1.5, "a"), obj(0.1, "a")])]
    trajs = link(frames, LinkerConfig(iou_threshold=0.1))
    assert [(t.track_id, sorted(t.frames), t.frames[1].quad) for t in trajs] == [
        (0, [0, 1], quad_at(0.1)),
        (1, [1], quad_at(50.0)),
        (2, [1], quad_at(1.5)),
    ]


def test_norm_edit_threshold_boundary():
    # "abcde" vs "abcdX": edit 1, norm 0.2 <= 0.3 passes; "abXXX" norm 0.6 fails
    frames = [(0, [obj(0.0, "abcde")]), (1, [obj(0.0, "abcdX")])]
    assert len(link(frames)) == 1
    frames = [(0, [obj(0.0, "abcde")]), (1, [obj(0.0, "abXXX")])]
    assert len(link(frames)) == 2


def test_empty_transcriptions_link_by_iou():
    frames = [(0, [obj(0.0, "")]), (1, [obj(0.2, "")])]
    assert len(link(frames)) == 1


def test_window_one_matches_tracker_on_disjoint_sets():
    """With a window of one frame and no text gate, the linker is the
    tracker with ``max_age`` 0: far-apart objects each overlap exactly one
    track, so both link the same trajectories."""
    cfg_link = LinkerConfig(window=1, iou_threshold=0.2, max_norm_edit=1.0)
    cfg_track = TrackerConfig(iou_threshold=0.2)
    positions = [0.0, 20.0, 40.0]
    frames_link = []
    stream = []
    for f in range(8):
        objs = [obj(p + 0.4 * f, f"w{i}") for i, p in enumerate(positions)]
        frames_link.append((f, objs))
        dets = [Detection(box=RotatedBox(p + 0.4 * f, 0.0, 4.0, 4.0, 0.0),
                          score=1.0, transcription=f"w{i}")
                for i, p in enumerate(positions)]
        stream.append(FrameDetections(frame_index=f, detections=dets))
    linked = link(frames_link, cfg_link)
    tracker = Tracker(cfg_track)
    for fr in stream:
        tracker.step(fr)
    tracked = tracker.trajectories()
    assert len(linked) == len(tracked) == 3
    for lt, tt in zip(linked, tracked):
        assert lt.track_id == tt.track_id
        assert sorted(lt.frames) == sorted(tt.frames)
        for f in lt.frames:
            assert lt.frames[f].transcription == tt.frames[f].transcription


def test_window_one_matches_tracker_on_conflicting_frames():
    """Frame 1's objects both overlap trajectory 0 and the first overlaps it
    most, yet the max-IoU matching the tracker takes links the first to
    trajectory 1 and the second to trajectory 0; the linker takes it too."""
    rows = [[0.0, 3.0], [1.0, -2.5], [1.5, -2.0, 30.0]]
    linked = link([(f, [obj(x, "a", w=10.0, h=10.0) for x in xs])
                   for f, xs in enumerate(rows)],
                  LinkerConfig(window=1, iou_threshold=0.3, max_norm_edit=1.0))
    tracked = run([FrameDetections(f, [Detection(RotatedBox(x, 0.0, 10.0, 10.0, 0.0),
                                                 1.0, transcription="a")
                                       for x in xs])
                   for f, xs in enumerate(rows)],
                  TrackerConfig(iou_threshold=0.3))
    assert len(linked) == 3
    assert linked == tracked


def test_link_records_instances_under_the_track_id():
    trajs = link([(0, [obj(0, "ab")]), (1, [obj(0.5, "ab"), obj(30, "cd")])])
    assert [(t.track_id, f, i) for t in trajs for f, i in t.frames.items()] == [
        (0, 0, Instance(0, quad_at(0), "ab")),
        (0, 1, Instance(0, quad_at(0.5), "ab")),
        (1, 1, Instance(1, quad_at(30), "cd")),
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        LinkerConfig(window=0)
    with pytest.raises(ValueError):
        LinkerConfig(max_norm_edit=1.5)


@pytest.mark.parametrize("threshold", [-1.0, 0.0, 5.0, float("nan")])
def test_config_rejects_iou_threshold_outside_unit_interval(threshold):
    with pytest.raises(ValueError):
        LinkerConfig(iou_threshold=threshold)


def test_config_accepts_full_overlap_threshold():
    assert LinkerConfig(iou_threshold=1.0).iou_threshold == 1.0
