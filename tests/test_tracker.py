import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import vtspot.geometry
import vtspot.linker
import vtspot.metrics
import vtspot.tracker
from vtspot.annotations import Detection, FrameDetections, Instance, VideoAnnotation
from vtspot.errors import NonMonotonicFrame
from vtspot.geometry import RotatedBox, quad_iou
from vtspot.metrics import evaluate
from vtspot.tracker import Tracker, TrackerConfig, run


def box(cx, cy=0.0, w=4.0, h=4.0, angle=0.0) -> RotatedBox:
    return RotatedBox(cx, cy, w, h, angle)


def det(cx, cy=0.0, w=4.0, h=4.0, score=1.0, text=None, track_box=None) -> Detection:
    return Detection(box=box(cx, cy, w, h), score=score, transcription=text,
                     track_box=track_box)


def frame(idx, dets) -> FrameDetections:
    return FrameDetections(frame_index=idx, detections=list(dets))


def best_gated_total(ious, thresh):
    """Exhaustive maximum total IoU over matchings obeying the gate."""
    n_t = len(ious)
    n_d = len(ious[0]) if n_t else 0
    best = 0.0

    def rec(ti, used, acc):
        nonlocal best
        if ti == n_t:
            best = max(best, acc)
            return
        rec(ti + 1, used, acc)
        for di in range(n_d):
            if di not in used and ious[ti][di] >= thresh:
                rec(ti + 1, used | {di}, acc + ious[ti][di])

    rec(0, frozenset(), 0.0)
    return best


# ---------------------------------------------------------------------------
# config and lifecycle basics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"iou_threshold": 0.0},
    {"iou_threshold": 1.2},
    {"max_age": -1},
    {"min_score": 1.5},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        TrackerConfig(**kwargs)


def test_cold_start_births_in_detection_order():
    t = Tracker()
    tracks, born, dead = t.step(frame(0, [det(0), det(10), det(20)]))
    assert born == [0, 1, 2]
    assert dead == []
    assert [tr.track_id for tr in tracks] == [0, 1, 2]
    assert [tr.last_box.cx for tr in tracks] == [0, 10, 20]


def test_identity_match_no_birth_no_death():
    t = Tracker()
    t.step(frame(0, [det(5)]))
    tracks, born, dead = t.step(frame(1, [det(5)]))
    assert born == [] and dead == []
    assert len(tracks) == 1
    assert sorted(tracks[0].frames) == [0, 1]
    assert tracks[0].last_box == box(5)
    assert tracks[0].missed_frames == 0


def test_min_score_filters_detections():
    t = Tracker(TrackerConfig(min_score=0.5))
    tracks, born, _ = t.step(frame(0, [det(0, score=0.9), det(10, score=0.3)]))
    assert born == [0]
    assert len(tracks) == 1 and tracks[0].last_box.cx == 0


def test_non_monotonic_frame_rejected():
    t = Tracker()
    t.step(frame(3, [det(0)]))
    with pytest.raises(NonMonotonicFrame):
        t.step(frame(3, [det(0)]))
    with pytest.raises(NonMonotonicFrame):
        t.step(frame(2, [det(0)]))


def test_ids_never_reused_after_death():
    t = Tracker()  # max_age 0: dies on first miss
    t.step(frame(0, [det(0)]))
    _, _, dead = t.step(frame(1, []))
    assert dead == [0]
    _, born, _ = t.step(frame(2, [det(0)]))
    assert born == [1]


def test_trajectories_keep_birth_order_when_early_tracks_retire():
    """With max_age 0, tracks 0 and 1 retire while later ones live on; the
    trajectories still come back as ids 0 to n-1, each with its frames."""
    stream = [
        frame(0, [det(0), det(20)]),
        frame(1, [det(40)]),
        frame(2, [det(40), det(60)]),
        frame(3, [det(60), det(0)]),
    ]
    trajs = run(stream, TrackerConfig(max_age=0))
    assert [(t.track_id, sorted(t.frames)) for t in trajs] == [
        (0, [0]), (1, [0]), (2, [1, 2]), (3, [2, 3]), (4, [3])]
    assert [t.frames[f].quad for t in trajs for f in sorted(t.frames)] == [
        box(0).quad, box(20).quad, box(40).quad, box(40).quad,
        box(60).quad, box(60).quad, box(0).quad]


def test_vanish_beyond_max_age_splits_identity():
    stream = [frame(f, [det(0)] if f not in (4, 5) else []) for f in range(10)]
    short = run(stream, TrackerConfig(max_age=1))
    assert [t.track_id for t in short] == [0, 1]
    bridged = run(stream, TrackerConfig(max_age=2))
    assert [t.track_id for t in bridged] == [0]
    assert sorted(bridged[0].frames) == [0, 1, 2, 3, 6, 7, 8, 9]


def test_single_frame_stream():
    trajs = run([frame(0, [det(0), det(10)])])
    assert len(trajs) == 2
    assert all(len(t.frames) == 1 for t in trajs)


# ---------------------------------------------------------------------------
# association quality
# ---------------------------------------------------------------------------


def test_crossed_detections_get_globally_optimal_pairing():
    cfg = TrackerConfig(iou_threshold=0.1)
    t = Tracker(cfg)
    t.step(frame(0, [det(0), det(3)]))
    # detection order is swapped relative to track order
    d0, d1 = det(2.9), det(0.1)
    same = quad_iou(box(0).quad, d0.box.quad) + quad_iou(box(3).quad, d1.box.quad)
    cross = quad_iou(box(0).quad, d1.box.quad) + quad_iou(box(3).quad, d0.box.quad)
    assert cross > same  # fixture sanity
    tracks, born, dead = t.step(frame(1, [d0, d1]))
    assert born == [] and dead == []
    by_id = {tr.track_id: tr for tr in tracks}
    assert by_id[0].last_box.cx == pytest.approx(0.1)
    assert by_id[1].last_box.cx == pytest.approx(2.9)
    assert by_id[0].frames[1] is d1 and by_id[1].frames[1] is d0


def test_accepted_matching_is_gate_optimal():
    rng = random.Random(20)
    for trial in range(60):
        n_t = rng.randint(1, 6)
        n_d = rng.randint(1, 6)
        thresh = rng.choice([0.1, 0.3, 0.5])
        cfg = TrackerConfig(iou_threshold=thresh)
        prev = [box(rng.uniform(0, 12), rng.uniform(0, 12),
                    rng.uniform(2, 6), rng.uniform(2, 6)) for _ in range(n_t)]
        cur = [det(rng.uniform(0, 12), rng.uniform(0, 12),
                   rng.uniform(2, 6), rng.uniform(2, 6)) for _ in range(n_d)]
        t = Tracker(cfg)
        t.step(frame(0, [Detection(box=b, score=1.0) for b in prev]))
        live_before = {tr.track_id: tr.last_box for tr in t.tracks}
        tracks, _, _ = t.step(frame(1, cur))
        got = 0.0
        for tr in tracks:
            if 1 in tr.frames and tr.track_id in live_before:
                assert tr.last_box is tr.frames[1].box
                got += quad_iou(live_before[tr.track_id].quad, tr.frames[1].box.quad)
        ious = [[quad_iou(p.quad, d.box.quad) for d in cur] for p in prev]
        want = best_gated_total(ious, thresh)
        assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"


def test_threshold_monotonicity_on_births():
    rng = random.Random(77)
    stream = []
    for f in range(12):
        dets = [det(rng.uniform(0, 30), rng.uniform(0, 30),
                    rng.uniform(2, 6), rng.uniform(2, 6)) for _ in range(4)]
        stream.append(frame(f, dets))
    counts = []
    for thresh in (0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        counts.append(len(run(stream, TrackerConfig(iou_threshold=thresh))))
    assert counts == sorted(counts)


def test_each_detection_used_exactly_once():
    rng = random.Random(5)
    stream = []
    for f in range(10):
        n = rng.randint(0, 5)
        stream.append(frame(f, [det(rng.uniform(0, 20), rng.uniform(0, 20))
                                for _ in range(n)]))
    trajs = run(stream, TrackerConfig(iou_threshold=0.3, max_age=1))
    for f, fr in enumerate(stream):
        used = sum(1 for t in trajs if f in t.frames)
        assert used == len(fr.detections)


# ---------------------------------------------------------------------------
# whole-stream behavior
# ---------------------------------------------------------------------------


def constant_velocity_stream(n_frames=30, n_objects=4):
    stream = []
    for f in range(n_frames):
        dets = [det(10.0 + 30.0 * i + 0.8 * f, 20.0 + 0.5 * f, 10.0, 6.0,
                    text=f"obj{i}") for i in range(n_objects)]
        stream.append(frame(f, dets))
    return stream


def test_constant_velocity_keeps_four_identities():
    trajs = run(constant_velocity_stream())
    assert len(trajs) == 4
    for t in trajs:
        assert len(t.frames) == 30
        texts = {p.transcription for p in t.frames.values()}
        assert len(texts) == 1  # never swapped objects


def test_run_is_deterministic():
    stream = constant_velocity_stream(12, 3)
    a = run(stream)
    b = run(stream)
    assert [t.track_id for t in a] == [t.track_id for t in b]
    for ta, tb in zip(a, b):
        assert ta.frames.keys() == tb.frames.keys()
        for f in ta.frames:
            assert ta.frames[f].quad == tb.frames[f].quad


def test_track_box_carries_prediction_to_next_step():
    jump = [
        frame(0, [det(0, track_box=box(8))]),
        frame(1, [det(8)]),
    ]
    with_hint = run(jump)
    assert len(with_hint) == 1
    assert sorted(with_hint[0].frames) == [0, 1]
    no_hint = run([frame(0, [det(0)]), frame(1, [det(8)])])
    assert len(no_hint) == 2


def test_carried_track_box_is_the_next_prediction():
    t = Tracker()
    t.step(frame(0, [det(0, track_box=box(8))]))
    tracks, born, dead = t.step(frame(1, [det(8)]))
    assert born == [] and dead == []
    assert tracks[0].predicted_box == box(8)
    assert sorted(tracks[0].frames) == [0, 1]
    assert tracks[0].last_box == box(8)


@pytest.mark.parametrize("listed", [True, False])
def test_a_missed_frame_drops_the_carried_track_box(listed):
    """The track_box serves the next frame only: after a miss, listed
    empty or skipped, the track is looked for at its last box."""
    t = Tracker(TrackerConfig(max_age=1))
    t.step(frame(0, [det(0, track_box=box(8))]))
    assert t.tracks[0].predicted_box == box(8)
    if listed:
        t.step(frame(1, []))
    _, born, _ = t.step(frame(2, [det(8), det(0)]))
    assert born == [1]
    assert sorted(t.tracks[0].frames) == [0, 2]
    assert t.tracks[0].last_box == box(0)
    assert t.tracks[0].predicted_box == box(0)


def test_skipped_frames_age_every_live_track():
    t = Tracker(TrackerConfig(max_age=2))
    t.step(frame(0, [det(0)]))
    t.step(frame(1, [det(0), det(20)]))
    tracks, born, dead = t.step(frame(4, [det(20)]))
    assert dead == [0] and born == []
    assert [(tr.track_id, tr.missed_frames) for tr in tracks] == [(1, 0)]
    tracks, _, dead = t.step(frame(8, []))
    assert dead == [1] and tracks == []


def test_trajectory_quads_match_boxes():
    trajs = run([frame(0, [det(3, 4, 6, 2)])])
    quad = trajs[0].frames[0].quad
    xs = quad.as_flat()[0::2]
    ys = quad.as_flat()[1::2]
    assert min(xs) == pytest.approx(0.0) and max(xs) == pytest.approx(6.0)
    assert min(ys) == pytest.approx(3.0) and max(ys) == pytest.approx(5.0)
    assert quad.area == pytest.approx(12.0)


def test_trajectories_hold_instances_under_the_track_id():
    trajs = run([frame(0, [det(0, text="a"), det(20)]), frame(1, [det(0.5, text="b")])])
    assert [(t.track_id, f, i) for t in trajs for f, i in t.frames.items()] == [
        (0, 0, Instance(0, box(0).quad, "a")),
        (0, 1, Instance(0, box(0.5).quad, "b")),
        (1, 0, Instance(1, box(20).quad, None)),
    ]


def test_history_frame_indices_strictly_increase():
    stream = constant_velocity_stream(15, 2)
    t = Tracker()
    for fr in stream:
        t.step(fr)
    for tr in t.tracks:
        idxs = list(tr.frames)
        assert idxs == sorted(idxs)
        assert math.inf not in idxs


# ---------------------------------------------------------------------------
# the tracker gates the IoU that the linker and evaluate score
# ---------------------------------------------------------------------------


def test_tracker_linker_and_evaluate_score_one_iou():
    assert (vtspot.tracker.iou is vtspot.linker.iou is vtspot.metrics.quad_iou
            is vtspot.geometry.quad_iou)


def _tracks_and_tp(a: RotatedBox, b: RotatedBox, gate: float) -> tuple[int, int]:
    """The number of trajectories the tracker makes of ``a`` then ``b`` at
    ``gate``, and the true positives of ``evaluate`` detection scoring
    ``b`` against a reference ``a`` at the same gate."""
    trajs = run([frame(0, [Detection(a, 1.0)]), frame(1, [Detection(b, 1.0)])],
                TrackerConfig(iou_threshold=gate))
    gt = VideoAnnotation("v", 1280, 720, 1, {0: [Instance(0, a.quad, "a")]})
    pred = VideoAnnotation("v", 1280, 720, 1, {0: [Instance(0, b.quad, "a")]})
    return len(trajs), evaluate(gt, pred, "detection", iou_thresh=gate).det.tp


def test_tracker_links_at_a_gate_of_exactly_the_quad_iou():
    """For this pair the boxes' ``w * h`` and their quads' kept areas differ
    in the last bits: an IoU over ``w * h`` reads 0.7825702709457311, a few
    ulps below the quad IoU that ``evaluate`` scores, so a tracker gating
    that IoU at the quad IoU would refuse a match ``evaluate`` counts."""
    a = RotatedBox(50, 50, 10, 4, 0.1)
    b = RotatedBox(51, 50, 10, 4, 0.1)
    gate = quad_iou(a.quad, b.quad)
    assert gate == 0.7825702709457389
    assert _tracks_and_tp(a, b, gate) == (1, 1)
    assert _tracks_and_tp(a, b, math.nextafter(gate, 1.0)) == (2, 0)


@settings(max_examples=300, deadline=None)
@example(RotatedBox(50, 50, 10, 4, 0.1), 0.1, 0.0, 1.0, 1.0, 0.0, 0)
@given(st.builds(RotatedBox, st.floats(-200.0, 200.0), st.floats(-200.0, 200.0),
                 st.floats(0.5, 60.0), st.floats(0.5, 60.0), st.floats(-math.pi, math.pi)),
       st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(-0.3, 0.3), st.integers(-1, 1))
def test_tracker_links_a_pair_iff_evaluate_matches_it(a, fx, fy, sw, sh, turn, ulps):
    """At a gate on, or an ulp either side of, the pair's IoU, the tracker
    links ``a`` to ``b`` exactly when ``evaluate`` counts ``b`` a true
    positive against ``a``."""
    b = RotatedBox(a.cx + fx * a.w, a.cy + fy * a.h, a.w * sw, a.h * sh, a.angle + turn)
    gate = quad_iou(a.quad, b.quad)
    gate = math.nextafter(gate, math.inf if ulps > 0 else 0.0) if ulps else gate
    assume(0.0 < gate <= 1.0)
    tracks, tp = _tracks_and_tp(a, b, gate)
    assert (tracks, tp) in ((1, 1), (2, 0))
