import itertools
import math
import pickle
import random
from dataclasses import asdict, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtspot.annotations import (
    IGNORE_MARK,
    Instance,
    VideoAnnotation,
    trajectories_to_annotation,
)
from vtspot.errors import (
    EmptyInput,
    MissingTranscription,
    VideoMismatch,
)
import vtspot.metrics as metrics_mod
from oracles import three_pass_report
from vtspot.geometry import Quad, RotatedBox, rotated_to_quad
from vtspot.synth import SynthConfig, generate
from vtspot.tracker import TrackerConfig
from vtspot.tracker import run as run_tracker
from vtspot.metrics import (
    DetCounters,
    IdCounters,
    MotCounters,
    MetricsReport,
    aggregate,
    evaluate,
    normalize_transcription,
)


def inst(tid, cx, cy=0.0, w=1.0, h=1.0, text="word") -> Instance:
    return Instance(track_id=tid, quad=rotated_to_quad(RotatedBox(cx, cy, w, h, 0.0)),
                    transcription=text)


def ann(items, frame_count, video_id="v0", scenario=None) -> VideoAnnotation:
    """items: {frame: [Instance, ...]}"""
    return VideoAnnotation(video_id=video_id, width=200, height=200,
                           frame_count=frame_count, frames=items,
                           scenario=scenario)


def moving_annotation(video_id="v0", n_tracks=3, n_frames=8, scenario=None):
    frames = {}
    for f in range(n_frames):
        frames[f] = [inst(t, 10.0 * t + 0.25 * f, 0.5 * f, 4.0, 3.0, f"w{t}")
                     for t in range(n_tracks)]
    return ann(frames, n_frames, video_id, scenario)


def relabeled(src: VideoAnnotation, offset: int) -> VideoAnnotation:
    frames = {
        f: [Instance(track_id=i.track_id + offset, quad=i.quad,
                     transcription=i.transcription, category=i.category)
            for i in items]
        for f, items in src.frames.items()
    }
    return ann(frames, src.frame_count, src.video_id, src.scenario)


def best_overlap_total(overlaps):
    """Exhaustive maximum-total assignment over the overlap matrix."""
    n_g = len(overlaps)
    n_p = len(overlaps[0]) if n_g else 0
    best = 0

    def rec(gi, used, acc):
        nonlocal best
        if gi == n_g:
            best = max(best, acc)
            return
        rec(gi + 1, used, acc)
        for pi in range(n_p):
            if pi not in used:
                rec(gi + 1, used | {pi}, acc + overlaps[gi][pi])

    rec(0, frozenset(), 0)
    return best


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def test_detection_self_eval_is_perfect():
    gt = moving_annotation()
    r = evaluate(gt, gt, "detection")
    assert (r.precision, r.recall, r.fscore) == (1.0, 1.0, 1.0)
    assert (r.det.fp, r.det.fn) == (0, 0)


def test_detection_empty_predictions():
    gt = moving_annotation()
    empty = ann({}, gt.frame_count)
    r = evaluate(gt, empty, "detection")
    assert (r.precision, r.recall, r.fscore) == (0.0, 0.0, 0.0)
    assert r.det.fn == 24 and "precision" in r.degenerate


def test_detection_two_tp_one_fp_one_fn():
    gt = ann({0: [inst(0, 0.0), inst(1, 10.0), inst(2, 20.0)]}, 1)
    pred = ann({0: [inst(0, 0.0), inst(1, 10.0), inst(2, 50.0)]}, 1)
    r = evaluate(gt, pred, "detection")
    assert (r.det.tp, r.det.fp, r.det.fn) == (2, 1, 1)
    assert r.precision == pytest.approx(2 / 3)
    assert r.recall == pytest.approx(2 / 3)
    assert r.fscore == pytest.approx(2 / 3)


def test_detection_counts_do_not_depend_on_prediction_order():
    # three pairs tie at IoU 2/3; the assignment matches both references
    # whatever the order of the instances and whichever ids they carry
    def square(tid, x):
        return inst(tid, x, w=10.0, h=10.0)

    for g1, g2 in ((1, 2), (2, 1)):
        gt = ann({0: [square(g1, 10.0), square(g2, 6.0)]}, 1)
        for p1, p2 in ((1, 2), (2, 1)):
            a, b = square(p1, 8.0), square(p2, 12.0)
            for preds in ([a, b], [b, a]):
                det = evaluate(gt, ann({0: preds}, 1), "detection").det
                assert det == DetCounters(tp=2, fp=0, fn=0), (g1, p1, preds)


@st.composite
def one_frame_squares(draw):
    """A one-frame reference and prediction of unit squares centred on a
    quarter-unit lattice, so that many pairs tie in IoU; some references
    are ignored."""
    def frame_of(texts):
        xs = draw(st.lists(st.integers(0, 8), max_size=6))
        ids = draw(st.permutations(range(len(xs))))
        return ann({0: [inst(tid, 0.25 * x, text=draw(texts)) for tid, x in zip(ids, xs)]}, 1)

    return (frame_of(st.sampled_from(("word", "word", "word", IGNORE_MARK))),
            frame_of(st.just("word")))


# the tied repro above on unit squares: greedy, best IoU first, matches one
# reference, the assignment both
_TIED_SQUARES = (ann({0: [inst(1, 1.25), inst(2, 0.75)]}, 1),
                 ann({0: [inst(1, 1.0), inst(2, 1.5)]}, 1))


@settings(max_examples=300, deadline=None)
@example(_TIED_SQUARES, 0.5)
@given(one_frame_squares(), st.sampled_from((0.1, 0.3, 0.5, 0.6, 0.7, 1.0)))
def test_one_frame_detection_counts_equal_clear_counts(docs, iou_thresh):
    gt, pred = docs
    r = evaluate(gt, pred, "tracking", iou_thresh=iou_thresh)
    assert (r.det.tp, r.det.fn, r.det.fp) == (
        r.mot.matches, r.mot.misses, r.mot.false_positives)


def test_clear_ties_do_not_depend_on_prediction_order():
    # two stacked references and two stacked predictions tie in frame 0 and
    # split apart in frame 1; the lower ids pair up whatever the file order
    def square(tid, x):
        return inst(tid, x, w=10.0, h=10.0)

    gt = {0: [square(0, 0.0), square(1, 0.0)], 1: [square(0, 0.0), square(1, 40.0)]}
    split = [square(5, 0.0), square(6, 40.0)]
    want = MotCounters(matches=4, mismatches=0, gt_count=4, matched_iou_sum=4.0)
    for stacked in ([square(5, 0.0), square(6, 0.0)], [square(6, 0.0), square(5, 0.0)]):
        pred = ann({0: stacked, 1: split}, 2)
        assert evaluate(ann(gt, 2), pred, "tracking").mot == want


@st.composite
def lattice_pair(draw):
    """A reference and a prediction document of 10×10 squares on one row,
    centred on a 2-unit lattice so that many pairs tie in IoU, each with
    its frames' instances also drawn in a second order; the predictions
    come a third time, their track ids relabeled by an increasing map."""
    def frame_of():
        xs = draw(st.lists(st.integers(0, 8), max_size=5))
        ids = draw(st.permutations(range(len(xs))))
        items = [inst(tid, 2.0 * x, 0.0, 10.0, 10.0) for tid, x in zip(ids, xs)]
        return items, draw(st.permutations(items))

    n_frames = draw(st.integers(1, 3))
    docs = []
    for _ in range(2):
        frames = [frame_of() for _ in range(n_frames)]
        docs.append(tuple(ann({f: frame[k] for f, frame in enumerate(frames)}, n_frames)
                          for k in (0, 1)))
    new_id = list(itertools.accumulate(draw(st.lists(st.integers(1, 4), min_size=5,
                                                     max_size=5))))
    pred = docs[1][0]
    relabeled_pred = ann({f: [replace(i, track_id=new_id[i.track_id]) for i in items]
                          for f, items in pred.frames.items()}, n_frames)
    return docs[0], docs[1] + (relabeled_pred,)


@settings(max_examples=300, deadline=None)
@given(lattice_pair())
def test_reports_are_invariant_to_instance_order(docs):
    (gt, gt_moved), (pred, pred_moved, pred_relabeled) = docs
    for task in ("detection", "tracking", "spotting"):
        want = evaluate(gt, pred, task).to_dict()
        assert evaluate(gt_moved, pred_moved, task).to_dict() == want, task
        assert evaluate(gt, pred_relabeled, task).to_dict() == want, task


def test_detection_threshold_gates_matches():
    # offset 0.25 on unit squares: IoU = 0.75/1.25 = 0.6
    gt = ann({0: [inst(0, 0.0)]}, 1)
    pred = ann({0: [inst(0, 0.25)]}, 1)
    assert evaluate(gt, pred, "detection", iou_thresh=0.5).det.tp == 1
    r = evaluate(gt, pred, "detection", iou_thresh=0.7)
    assert (r.det.tp, r.det.fp, r.det.fn) == (0, 1, 1)
    assert (r.precision, r.recall, r.fscore) == (0.0, 0.0, 0.0)


def test_detection_ignore_regions():
    gt = ann({0: [inst(0, 0.0), inst(1, 10.0, text=IGNORE_MARK)]}, 1)
    # one real match, one prediction sitting on the ignored region
    pred = ann({0: [inst(0, 0.0), inst(1, 10.0)]}, 1)
    r = evaluate(gt, pred, "detection")
    assert (r.det.tp, r.det.fp, r.det.fn) == (1, 0, 0)
    assert (r.precision, r.recall, r.fscore) == (1.0, 1.0, 1.0)


def test_detection_video_mismatch():
    gt = moving_annotation(video_id="a")
    pred = moving_annotation(video_id="b")
    with pytest.raises(VideoMismatch):
        evaluate(gt, pred, "detection")
    short = moving_annotation(n_frames=4)
    with pytest.raises(VideoMismatch):
        evaluate(moving_annotation(), short, "detection")


def test_nonconvex_quad_falls_back_to_enclosing_box():
    dart = Quad.from_flat([0, 0, 4, 0, 1, 1, 0, 4])
    gt = ann({0: [Instance(track_id=0, quad=dart, transcription="x")]}, 1)
    r = evaluate(gt, gt, "detection")
    assert r.det == DetCounters(tp=1, fp=0, fn=0) and r.fscore == 1.0


# ---------------------------------------------------------------------------
# CLEAR tracking
# ---------------------------------------------------------------------------


def wide(cx, tid, text="t"):
    return inst(tid, cx, 0.5, 9.0, 1.0, text)


def test_mot_self_eval_is_perfect():
    gt = moving_annotation()
    r = evaluate(gt, gt, "tracking")
    counters = r.mot
    assert r.mota == 1.0 and r.motp == 1.0
    assert counters.misses == counters.false_positives == counters.mismatches == 0
    assert counters.matches == counters.gt_count == 24


def test_mot_no_predictions():
    gt = moving_annotation()
    report = evaluate(gt, ann({}, gt.frame_count), "tracking")
    counters = report.mot
    assert report.mota == 0.0
    assert report.motp == 0.0
    assert counters.matches == 0 and counters.misses == counters.gt_count
    assert "motp" in report.degenerate


def test_mot_three_frame_switch_fixture():
    # one object for three frames; partner id changes on the last frame
    gt = ann({f: [wide(4.5, 0)] for f in range(3)}, 3)
    pred = ann({
        0: [wide(5.5, 10)],            # IoU 8/10 = 0.8
        1: [wide(5.5, 10)],
        2: [wide(6.75, 11)],           # IoU 6.75/11.25 = 0.6, new id
    }, 3)
    r = evaluate(gt, pred, "tracking")
    assert r.mot.mismatches == 1
    assert r.mot.misses == 0 and r.mot.false_positives == 0
    assert abs(r.mota - 2 / 3) < 1e-12
    assert abs(r.motp - (0.8 + 0.8 + 0.6) / 3) < 1e-12


def test_mot_carryover_beats_better_newcomer():
    gt = ann({0: [wide(4.5, 0)], 1: [wide(4.5, 0)]}, 2)
    pred = ann({
        0: [wide(4.5, 10)],
        1: [wide(6.75, 10), wide(4.5, 11)],  # old partner at 0.6, newcomer at 1.0
    }, 2)
    r = evaluate(gt, pred, "tracking")
    assert r.mot.mismatches == 0
    assert r.mot.false_positives == 1
    assert abs(r.motp - (1.0 + 0.6) / 2) < 1e-12
    assert abs(r.mota - 0.5) < 1e-12


def test_mot_can_go_negative():
    gt = ann({f: [inst(0, 0.0)] for f in range(3)}, 3)
    pred_frames = {
        f: [inst(0, 0.0)] + [inst(10 + j, 50.0 + 10 * j) for j in range(4)]
        for f in range(3)
    }
    r = evaluate(gt, ann(pred_frames, 3), "tracking")
    assert r.mot.false_positives == 12
    assert r.mota == pytest.approx(1.0 - 12 / 3)
    assert r.mota < 0


def test_mot_motp_at_least_gate_when_matched():
    rng = random.Random(11)
    for _ in range(20):
        gt_frames, pred_frames = {}, {}
        for f in range(6):
            gt_frames[f] = [inst(t, 8.0 * t, 0.0, 4.0, 4.0) for t in range(3)]
            pred_frames[f] = [
                inst(t, 8.0 * t + rng.uniform(-2, 2), rng.uniform(-2, 2), 4.0, 4.0)
                for t in range(3)
            ]
        r = evaluate(ann(gt_frames, 6), ann(pred_frames, 6), "tracking",
                     iou_thresh=0.5)
        if r.mot.matches:
            assert r.motp >= 0.5 - 1e-12


def test_mot_ignore_regions_not_counted():
    gt = ann({0: [wide(4.5, 0), wide(50.0, 1, IGNORE_MARK)]}, 1)
    pred = ann({0: [wide(4.5, 10), wide(50.0, 11)]}, 1)
    r = evaluate(gt, pred, "tracking")
    assert r.mot.gt_count == 1 and r.mot.false_positives == 0
    assert r.mota == 1.0 and r.motp == 1.0


def _region_and_match(on_region: Instance):
    """One frame: an ignored 10×10 square at the origin and a second,
    exactly predicted reference far from it; ``on_region`` is predicted
    too."""
    gt = ann({0: [inst(0, 100.0, w=10.0, h=10.0),
                  inst(1, 0.0, w=10.0, h=10.0, text=IGNORE_MARK)]}, 1)
    return gt, ann({0: [inst(0, 100.0, w=10.0, h=10.0), on_region]}, 1)


# a prediction at region IoU 0.6 (7.5 / 12.5), and one at 0.4 (40 / 100)
_ON_REGION_06 = _region_and_match(inst(1, 2.5, w=10.0, h=10.0))
_ON_REGION_04 = _region_and_match(inst(1, 0.0, w=10.0, h=4.0))
_GATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@pytest.mark.parametrize("iou_thresh", _GATES)
def test_a_prediction_on_a_region_is_dropped_at_ignore_gate_whatever_iou_thresh(iou_thresh):
    r = evaluate(*_ON_REGION_06, "tracking", iou_thresh=iou_thresh)
    assert (r.mota, r.idf1, r.det.fp, r.ids.id_fp) == (1.0, 1.0, 0, 0)
    r = evaluate(*_ON_REGION_04, "tracking", iou_thresh=iou_thresh)
    assert (r.mota, r.det.fp, r.mot.false_positives, r.ids.id_fp) == (0.0, 1, 1, 1)
    assert r.idf1 == 2 / 3


@settings(max_examples=300, deadline=None)
@example(_ON_REGION_06, 0.7)
@example(_ON_REGION_04, 0.3)
@given(one_frame_squares(), st.sampled_from(_GATES))
def test_every_pass_counts_the_same_predictions(docs, iou_thresh):
    gt, pred = docs
    r = evaluate(gt, pred, "tracking", iou_thresh=iou_thresh)
    assert (r.det.tp + r.det.fp == r.mot.matches + r.mot.false_positives
            == r.ids.id_tp + r.ids.id_fp)


# ---------------------------------------------------------------------------
# identity metrics
# ---------------------------------------------------------------------------


def identity_fixture():
    """Two reference tracks, three predicted, hand-computable overlaps
    {(g1,p1)=5, (g1,p2)=3, (g2,p2)=4, (g2,p3)=4} with lifespans
    g1=6, g2=5, p1=5, p2=6, p3=4.  One frame of (g1,p2) and one of
    (g2,p2) are at IoU 1/3, so at the default gate 0.5 those two pairs
    agree on 2 and 3 frames."""
    far = 100.0
    gt_frames = {f: [] for f in range(6)}
    for f in range(6):
        gt_frames[f].append(inst(1, 0.0))                      # g1: 6 frames
    for f, cx in [(0, far), (1, far), (2, far), (3, 1.0), (4, far)]:
        gt_frames[f].append(inst(2, cx))                        # g2: 5 frames
    pred_frames = {f: [] for f in range(6)}
    for f in range(5):
        pred_frames[f].append(inst(1, 0.0))                     # p1: 5 frames
    for f, cx in [(0, far), (1, far), (2, far), (3, 0.5), (4, 0.0), (5, 0.0)]:
        pred_frames[f].append(inst(2, cx))                      # p2: 6 frames
    for f, cx in [(0, far), (1, far), (2, far), (3, 1.0)]:
        pred_frames[f].append(inst(3, cx))                      # p3: 4 frames
    return ann(gt_frames, 6), ann(pred_frames, 6)


def test_identity_fixture_overlaps_are_as_designed():
    gt, pred = identity_fixture()
    r = evaluate(gt, pred, "tracking")
    assert r.ids.id_tp == 9
    assert r.ids.id_fn == 11 - 9
    assert r.ids.id_fp == 15 - 9
    assert abs(r.idf1 - 18 / 26) < 1e-12
    assert abs(r.idp - 9 / 15) < 1e-12
    assert abs(r.idr - 9 / 11) < 1e-12
    assert r.mt == 2 and r.ml == 0


def test_identity_fixture_matches_exhaustive_enumeration():
    gt, pred = identity_fixture()
    counters = evaluate(gt, pred, "tracking").ids
    overlaps = [
        [5, 2, 0],
        [0, 3, 4],
    ]
    assert best_overlap_total(overlaps) == counters.id_tp == 9


def test_id_self_eval_is_perfect():
    gt = moving_annotation()
    r = evaluate(gt, gt, "tracking")
    assert (r.idp, r.idr, r.idf1) == (1.0, 1.0, 1.0)
    assert r.mt == 3 and r.ml == 0
    assert r.ids.id_fp == 0 and r.ids.id_fn == 0


def test_id_relabeling_invariance():
    gt, pred = identity_fixture()
    shuffled = relabeled(pred, 1000)
    a = evaluate(gt, pred, "tracking")
    b = evaluate(gt, shuffled, "tracking")
    assert (a.idp, a.idr, a.idf1, a.mt, a.ml) == (b.idp, b.idr, b.idf1, b.mt, b.ml)
    assert a.ids == b.ids
    assert a.mota == b.mota


@pytest.mark.parametrize("task", ["tracking", "spotting"])
def test_identity_does_not_agree_below_the_gate(task):
    # a 10×10 reference square predicted 5 units to the side, IoU 1/3, in
    # each of 10 frames
    gt = ann({f: [inst(1, 0.0, w=10.0, h=10.0)] for f in range(10)}, 10)
    pred = ann({f: [inst(1, 5.0, w=10.0, h=10.0)] for f in range(10)}, 10)
    r = evaluate(gt, pred, task)
    assert (r.precision, r.mota) == (0.0, -1.0)
    assert (r.idf1, r.mt, r.ml) == (0.0, 0, 1)
    assert r.ids == IdCounters(id_tp=0, id_fp=10, id_fn=10, gt_tracks=1)


def test_id_edge_touching_boxes_do_not_overlap():
    # centers one unit apart on unit squares: IoU is exactly 0, and the
    # floor comparison is strict, so the frame never counts
    gt = ann({0: [inst(0, 0.0)]}, 1)
    pred = ann({0: [inst(0, 1.0)]}, 1)
    counters = evaluate(gt, pred, "tracking").ids
    assert counters.id_tp == 0


def test_id_harmonic_identity():
    gt, pred = identity_fixture()
    r = evaluate(gt, pred, "tracking")
    assert abs(r.idf1 - 2 * r.idp * r.idr / (r.idp + r.idr)) < 1e-12


def test_idf1_report_invariant():
    gt, pred = identity_fixture()
    report = evaluate(gt, pred, "tracking")
    c = report.ids
    want = 2 * c.id_tp / (2 * c.id_tp + c.id_fp + c.id_fn)
    assert abs(report.idf1 - want) < 1e-12


def test_id_mode_validation():
    # the identity mode follows the task; there is no separate mode name
    gt, pred = identity_fixture()
    for task in ("recognition", "identity", "Tracking"):
        with pytest.raises(ValueError):
            evaluate(gt, pred, task)


# ---------------------------------------------------------------------------
# spotting
# ---------------------------------------------------------------------------


def test_spotting_wrong_text_vetoes_identity():
    gt = moving_annotation()
    bad_frames = {
        f: [Instance(track_id=i.track_id, quad=i.quad, transcription="WRONG")
            for i in items]
        for f, items in gt.frames.items()
    }
    bad = ann(bad_frames, gt.frame_count, gt.video_id)
    tracking = evaluate(gt, bad, "tracking").idf1
    spotting = evaluate(gt, bad, "spotting").idf1
    assert tracking == 1.0
    assert spotting == 0.0


def test_spotting_report_composition():
    gt = moving_annotation()
    report = evaluate(gt, gt, "spotting")
    assert report.task == "spotting"
    assert report.mota == 1.0 and report.motp == 1.0 and report.idf1 == 1.0
    assert report.precision == 1.0


def test_spotting_geometry_unaffected_by_text():
    """Every word read wrong leaves tracking whole, and spotting counts
    each box as a miss and a false positive."""
    gt = moving_annotation()
    bad_frames = {
        f: [Instance(track_id=i.track_id, quad=i.quad, transcription="WRONG")
            for i in items]
        for f, items in gt.frames.items()
    }
    bad = ann(bad_frames, gt.frame_count, gt.video_id)
    tracking = evaluate(gt, bad, "tracking")
    assert tracking.mota == 1.0 and tracking.motp == 1.0
    report = evaluate(gt, bad, "spotting")
    assert report.mota == -1.0 and report.mot.matches == 0
    assert report.idf1 == 0.0


def test_spotting_counts_a_misread_word_as_a_miss_and_a_false_positive():
    gt = ann({0: [inst(1, 5.0, 5.0, 10.0, 10.0, "cat")]}, 1)
    pred = ann({0: [inst(1, 5.0, 5.0, 10.0, 10.0, "cot")]}, 1)
    tracking = evaluate(gt, pred, "tracking")
    assert tracking.det == DetCounters(tp=1, fp=0, fn=0) and tracking.mota == 1.0
    spotting = evaluate(gt, pred, "spotting")
    assert spotting.det == DetCounters(tp=0, fp=1, fn=1) and spotting.mota == -1.0


# references a at x=0 ("cat") and b at 0.5 ("cot"), predictions x at 0
# ("cot") and y at -0.5 ("cat"): (a, x) has IoU 1, (a, y) and (b, x) 1/3
_MISREAD_PAIR = (ann({0: [inst(1, 0.0, text="cat"), inst(2, 0.5, text="cot")]}, 1),
                 ann({0: [inst(1, 0.0, text="cot"), inst(2, -0.5, text="cat")]}, 1))


def test_dropping_a_misread_pair_can_match_more():
    """At a gate of 0.3 the max-IoU assignment takes (a, x) alone; without
    that misread pair it takes (a, y) and (b, x).  So spotting's matches,
    F-score and MOTA are not bounded by tracking's; only IDF1 is."""
    gt, pred = _MISREAD_PAIR
    tracking = evaluate(gt, pred, "tracking", iou_thresh=0.3)
    spotting = evaluate(gt, pred, "spotting", iou_thresh=0.3)
    assert (tracking.det.tp, spotting.det.tp) == (1, 2)
    assert (tracking.mot.matches, spotting.mot.matches) == (1, 2)
    assert spotting.idf1 <= tracking.idf1


@st.composite
def worded_videos(draw, words):
    """A few frames of unit squares on a quarter-unit lattice, for a
    reference and a prediction; track ids come from a small pool, so that
    tracks recur and swap, and every square reads a word from ``words``."""
    n_frames = draw(st.integers(1, 4))

    def document():
        frames = {}
        for f in range(n_frames):
            xs = draw(st.lists(st.integers(0, 8), max_size=5))
            ids = draw(st.permutations(range(6)))
            frames[f] = [inst(tid, 0.25 * x, text=draw(st.sampled_from(words)))
                         for tid, x in zip(ids, xs)]
        return ann(frames, n_frames)

    return document(), document()


# one word: composed or decomposed, cased and padded differently
_ONE_WORD = ("caf\u00e9", "cafe\u0301", " CAF\u00c9", "Caf\u00e9\n")


@settings(max_examples=150, deadline=None)
@example((ann({0: [inst(1, 0.0, text=" CAF\u00c9")]}, 1),
          ann({0: [inst(1, 0.0, text="caf\u00e9")]}, 1)), 0.5)
@given(worded_videos(_ONE_WORD), st.sampled_from(_GATES))
def test_spotting_equals_tracking_when_every_word_agrees(docs, iou_thresh):
    gt, pred = docs
    kwargs = dict(iou_thresh=iou_thresh)
    tracking = evaluate(gt, pred, "tracking", **kwargs)
    folded = evaluate(gt, pred, "spotting", case_insensitive=True, **kwargs)
    assert (folded.det, folded.mot, folded.ids) == (tracking.det, tracking.mot, tracking.ids)
    # unfolded, the cases and the padding disagree, and spotting is the oracle's
    assert evaluate(gt, pred, "spotting", **kwargs).to_dict() == three_pass_report(
        gt, pred, "spotting", **kwargs)


@settings(max_examples=150, deadline=None)
@example(_MISREAD_PAIR, 0.3)
@given(worded_videos(("cat", "cot", " cat")), st.sampled_from(_GATES))
def test_spotting_idf1_never_exceeds_tracking_idf1(docs, iou_thresh):
    gt, pred = docs
    kwargs = dict(iou_thresh=iou_thresh)
    spotting = evaluate(gt, pred, "spotting", **kwargs)
    assert spotting.idf1 <= evaluate(gt, pred, "tracking", **kwargs).idf1
    assert spotting.to_dict() == three_pass_report(gt, pred, "spotting", **kwargs)


# every document strategy above: one frame with ignored references, and
# several frames of recurring tracks that read alike or not
_DOCUMENTS = st.one_of(one_frame_squares(), worded_videos(("cat", "cot", " cat")))


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS, st.sampled_from(("tracking", "spotting")))
def test_id_tp_is_monotone_in_iou_thresh(docs, task):
    # a higher gate keeps a subset of the agreeing slots, so the best
    # assignment can only agree on fewer
    gt, pred = docs
    tps = [evaluate(gt, pred, task, iou_thresh=gate).ids.id_tp for gate in _GATES]
    assert tps == sorted(tps, reverse=True)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS, st.sampled_from(("tracking", "spotting")), st.sampled_from(_GATES))
def test_no_identity_agreement_without_a_detection_match(docs, task, iou_thresh):
    """Identity counts only the pairs detection may match, so a video that
    detection matches nowhere has no identity true positive."""
    gt, pred = docs
    r = evaluate(gt, pred, task, iou_thresh=iou_thresh)
    if r.det.tp == 0:
        assert r.ids.id_tp == 0


def test_spotting_normalizes_each_distinct_transcription_once(monkeypatch):
    seen = []

    def counting(text, case_insensitive=False):
        seen.append(text)
        return normalize_transcription(text, case_insensitive)

    monkeypatch.setattr(metrics_mod, "normalize_transcription", counting)
    gt, pred = moving_annotation(), relabeled(moving_annotation(), 1000)
    r = evaluate(gt, pred, "spotting")
    assert r.mota == 1.0
    assert sorted(seen) == ["w0", "w1", "w2"]


def test_spotting_missing_transcription_raises():
    gt = moving_annotation()
    silent_frames = {
        f: [Instance(track_id=i.track_id, quad=i.quad, transcription=None)
            for i in items]
        for f, items in gt.frames.items()
    }
    silent = ann(silent_frames, gt.frame_count, gt.video_id)
    with pytest.raises(MissingTranscription):
        evaluate(gt, silent, "spotting")
    # geometry-only identity still works
    assert evaluate(gt, silent, "tracking").idf1 == 1.0


def test_missing_transcription_names_the_real_frame_of_a_sparse_document():
    gt = ann({0: [inst(1, 0.0)], 7: [inst(1, 0.0)]}, 1000)
    pred = ann({0: [inst(5, 0.0)], 7: [inst(5, 0.0, text=None)]}, 1000)
    with pytest.raises(MissingTranscription,
                       match="prediction track 5 frame 7 has no transcription"):
        evaluate(gt, pred, "spotting")


def test_spotting_normalization_rules():
    gt = ann({0: [inst(0, 0.0, text="café")]}, 1)
    pred = ann({0: [inst(0, 0.0, text=" café ")]}, 1)  # decomposed + spaces
    assert evaluate(gt, pred, "spotting").ids.id_tp == 1

    gt2 = ann({0: [inst(0, 0.0, text="Hello")]}, 1)
    pred2 = ann({0: [inst(0, 0.0, text="HELLO")]}, 1)
    assert evaluate(gt2, pred2, "spotting").ids.id_tp == 0
    assert evaluate(gt2, pred2, "spotting",
                    case_insensitive=True).ids.id_tp == 1


def test_normalize_transcription():
    assert normalize_transcription(" á ") == "á"
    assert normalize_transcription("AbC", case_insensitive=True) == "abc"


def test_spotting_dominance_on_random_perturbations():
    rng = random.Random(31)
    for trial in range(30):
        gt = moving_annotation(n_tracks=3, n_frames=6)
        pred_frames = {}
        for f, items in gt.frames.items():
            out = []
            for i in items:
                text = i.transcription if rng.random() > 0.4 else "junk"
                cx = 10.0 * i.track_id + 0.25 * f + rng.uniform(-0.8, 0.8)
                out.append(inst(i.track_id, cx, 0.5 * f, 4.0, 3.0, text))
            pred_frames[f] = out
        pred = ann(pred_frames, gt.frame_count, gt.video_id)
        t = evaluate(gt, pred, "tracking")
        s = evaluate(gt, pred, "spotting")
        assert s.ids.id_tp <= t.ids.id_tp
        assert s.idf1 <= t.idf1 + 1e-12, f"trial {trial}"


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_aggregate_single_report_is_identity():
    gt, pred = identity_fixture()
    report = evaluate(gt, pred, "tracking")
    agg = aggregate([report])
    for name in ("precision", "recall", "fscore", "mota", "motp",
                 "idp", "idr", "idf1", "mt", "ml", "det", "mot", "ids",
                 "degenerate"):
        assert getattr(agg, name) == getattr(report, name)


def test_aggregate_doubling_keeps_ratios():
    gt, pred = identity_fixture()
    report = evaluate(gt, pred, "tracking")
    agg = aggregate([report, report])
    assert agg.idf1 == pytest.approx(report.idf1, abs=1e-12)
    assert agg.mota == pytest.approx(report.mota, abs=1e-12)
    assert agg.ids.id_tp == 2 * report.ids.id_tp
    assert agg.mt == 2 * report.mt


def test_aggregate_matches_concatenation_oracle():
    gt_a = moving_annotation(video_id="c", n_tracks=2, n_frames=5)
    pred_a_frames = {
        f: [inst(i.track_id, 10.0 * i.track_id + 0.25 * f + 0.4, 0.5 * f,
                 4.0, 3.0, i.transcription) for i in items]
        for f, items in gt_a.frames.items()
    }
    pred_a = ann(pred_a_frames, 5, "c")
    gt_b = moving_annotation(video_id="c", n_tracks=3, n_frames=7)
    pred_b_frames = {
        f: [inst(i.track_id, 10.0 * i.track_id + 0.25 * f - 0.6, 0.5 * f,
                 4.0, 3.0, i.transcription) for i in items]
        for f, items in gt_b.frames.items()
    }
    pred_b = ann(pred_b_frames, 7, "c")

    agg = aggregate([
        evaluate(gt_a, pred_a, "tracking"),
        evaluate(gt_b, pred_b, "tracking"),
    ])

    # concatenated virtual video: b shifted by 5 frames, ids offset by 100
    def shift(src, offset_f, offset_id):
        return {
            f + offset_f: [
                Instance(track_id=i.track_id + offset_id, quad=i.quad,
                         transcription=i.transcription)
                for i in items
            ]
            for f, items in src.frames.items()
        }

    cat_gt_frames = {**shift(gt_a, 0, 0), **shift(gt_b, 5, 100)}
    cat_pred_frames = {**shift(pred_a, 0, 0), **shift(pred_b, 5, 100)}
    cat = evaluate(ann(cat_gt_frames, 12, "c"), ann(cat_pred_frames, 12, "c"),
                   "tracking")
    assert agg.mota == pytest.approx(cat.mota, abs=1e-12)
    assert agg.motp == pytest.approx(cat.motp, abs=1e-12)
    assert agg.idf1 == pytest.approx(cat.idf1, abs=1e-12)
    assert agg.precision == pytest.approx(cat.precision, abs=1e-12)
    assert (agg.mt, agg.ml) == (cat.mt, cat.ml)


def test_aggregate_rejects_mixed_tasks():
    gt = moving_annotation()
    with pytest.raises(ValueError):
        aggregate([evaluate(gt, gt, "tracking"), evaluate(gt, gt, "detection")])


def test_aggregate_keeps_common_scenario():
    gt = moving_annotation(scenario="street")
    r = evaluate(gt, gt, "tracking")
    assert aggregate([r, r]).scenario == "street"
    other = evaluate(moving_annotation(scenario="mall"),
                     moving_annotation(scenario="mall"), "tracking")
    assert aggregate([r, other]).scenario is None


# ---------------------------------------------------------------------------
# report shape
# ---------------------------------------------------------------------------


def test_detection_task_report_has_no_tracking_numbers():
    gt = moving_annotation()
    report = evaluate(gt, gt, "detection")
    assert report.task == "detection"
    assert report.precision == 1.0
    assert report.mota == 0.0 and report.idf1 == 0.0
    assert "mota" not in report.degenerate


def test_report_to_dict_round_trips_counters():
    gt, pred = identity_fixture()
    report = evaluate(gt, pred, "tracking")
    d = report.to_dict()
    assert d["counters"]["identity"]["id_tp"] == report.ids.id_tp
    assert d["counters"]["mot"]["matched_iou_sum"] == report.mot.matched_iou_sum
    # the counters' field names, in order, are the report's JSON keys
    assert {name: list(keys) for name, keys in d["counters"].items()} == {
        "detection": ["tp", "fp", "fn"],
        "mot": ["misses", "false_positives", "mismatches", "matches", "gt_count",
                "matched_iou_sum"],
        "identity": ["id_tp", "id_fp", "id_fn", "gt_tracks"],
    }
    assert d["task"] == "tracking"
    assert isinstance(d["degenerate"], list)


def test_report_computes_its_ratios_from_its_counters():
    det = DetCounters(tp=3, fp=1, fn=2)
    mot = MotCounters(misses=1, false_positives=2, mismatches=1, matches=3,
                      gt_count=4, matched_iou_sum=2.4)
    ids = IdCounters(id_tp=0, id_fp=2, id_fn=0, gt_tracks=1)
    report = MetricsReport("tracking", det=det, mot=mot, ids=ids)
    flags = []
    assert (report.precision, report.recall, report.fscore) == det.ratios(flags)
    assert (report.mota, report.motp) == mot.ratios(flags)
    assert (report.idp, report.idr, report.idf1) == ids.ratios(flags)
    assert report.degenerate == tuple(flags) == ("idr",)
    detection = MetricsReport("detection", det=det, mot=mot, ids=ids)
    assert (detection.mota, detection.idf1, detection.degenerate) == (0.0, 0.0, ())


def test_report_takes_no_ratio_arguments():
    with pytest.raises(TypeError):
        MetricsReport("tracking", precision=1.0)
    with pytest.raises(TypeError):
        MetricsReport("tracking", degenerate=("mota",))


def test_pickled_report_keeps_its_ratios():
    gt, pred = identity_fixture()
    report = evaluate(gt, pred, "spotting")
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert copy.to_dict() == report.to_dict()


def test_evaluate_rejects_unknown_task():
    gt = moving_annotation()
    with pytest.raises(ValueError):
        evaluate(gt, gt, "recognition")


@pytest.mark.parametrize("kwargs", [
    {"iou_thresh": 0.0}, {"iou_thresh": -0.2}, {"iou_thresh": 1.01},
])
def test_gates_outside_their_range_are_rejected(kwargs):
    gt = moving_annotation()
    with pytest.raises(ValueError):
        evaluate(gt, gt, "tracking", **kwargs)


def test_far_box_is_not_a_true_positive_at_smallest_gate():
    gt = ann({0: [inst(0, 0.0)]}, 1)
    pred = ann({0: [inst(0, 50.0)]}, 1)
    r = evaluate(gt, pred, "detection", iou_thresh=1e-9)
    assert (r.det.tp, r.det.fp, r.det.fn) == (0, 1, 1)
    assert (r.precision, r.recall, r.fscore) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# the three tasks share their passes
# ---------------------------------------------------------------------------


def _task_cases():
    rng = random.Random(61)
    for seed in range(6):
        cfg = SynthConfig(n_objects=rng.randint(1, 8), n_frames=rng.randint(2, 8),
                          motion=rng.choice(("static", "constant_velocity", "rotate")),
                          noise_sigma=rng.choice((0.0, 2.0, 6.0)),
                          drop_prob=rng.choice((0.0, 0.3)), seed=seed)
        gt, dets = generate(cfg)
        trajs = run_tracker(dets.frames, TrackerConfig(iou_threshold=0.3))
        yield gt, trajectories_to_annotation(trajs, gt.video_id, gt.width,
                                             gt.height, gt.frame_count)
    gt, _ = generate(SynthConfig(n_objects=3, n_frames=4, seed=9))
    empty = VideoAnnotation(gt.video_id, gt.width, gt.height, gt.frame_count, {})
    yield gt, empty
    yield empty, gt
    yield empty, empty


@pytest.mark.parametrize("iou_thresh", [0.3, 0.5])
def test_tasks_agree_on_their_shared_passes(iou_thresh):
    for gt, pred in _task_cases():
        det, trk, spot = (evaluate(gt, pred, task, iou_thresh=iou_thresh)
                          for task in ("detection", "tracking", "spotting"))
        # synth gives every detection its object's word, so the word gate
        # drops no pair and spotting counts what tracking counts
        assert det.det == trk.det == spot.det
        assert trk.mot == spot.mot
        assert (trk.mota, trk.motp) == (spot.mota, spot.motp)
        # spotting adds a condition for two slots to agree, never removes one
        assert spot.ids.id_tp <= trk.ids.id_tp
        assert spot.ids.gt_tracks == trk.ids.gt_tracks


def test_counter_ratios_name_every_empty_denominator():
    flags = []
    assert DetCounters().ratios(flags) == (0.0, 0.0, 0.0)
    assert MotCounters().ratios(flags) == (0.0, 0.0)
    assert IdCounters().ratios(flags) == (0.0, 0.0, 0.0)
    assert flags == ["precision", "recall", "fscore", "mota", "motp",
                     "idp", "idr", "idf1"]
    flags = []
    assert IdCounters(id_tp=3, id_fp=1, id_fn=2).ratios(flags) == (
        3 / 4, 3 / 5, 6 / 9)
    assert MotCounters(misses=1, false_positives=2, mismatches=1, matches=3,
                       gt_count=4, matched_iou_sum=2.4).ratios(flags) == (
        1.0 - 4 / 4, 2.4 / 3)
    assert flags == []


def _with_ignored_references(gt: VideoAnnotation, frames, cx: float) -> VideoAnnotation:
    """``gt`` with one more reference in each of ``frames``: an ignored
    unit square at ``(cx, 0)``, under a track id no reference uses."""
    tid = 1 + max((i.track_id for items in gt.frames.values() for i in items), default=0)
    items = {f: list(gt.frames.get(f, [])) for f in gt.frames.keys() | set(frames)}
    for f in frames:
        items[f].append(inst(tid, cx, text=IGNORE_MARK))
    return VideoAnnotation(gt.video_id, gt.width, gt.height, gt.frame_count, items,
                           scenario=gt.scenario)


def test_region_pass_runs_only_for_frames_with_an_ignored_reference(monkeypatch):
    """The table of a frame without an ignored reference scores its pairs
    with one near_pairs call, and one more runs for the regions of each
    frame that lists one."""
    gt = moving_annotation(n_tracks=3, n_frames=8)
    pred = relabeled(gt, 10)
    calls = []
    counted = metrics_mod.near_pairs

    def counting(a, b):
        calls.append((len(a), len(b)))
        return counted(a, b)

    monkeypatch.setattr(metrics_mod, "near_pairs", counting)
    evaluate(gt, pred, "tracking")
    assert calls == [(3, 3)] * 8
    calls.clear()
    evaluate(_with_ignored_references(gt, [2, 5], 10.0), pred, "tracking")
    assert calls == [pair for f in range(8)
                     for pair in ([(3, 3), (3, 1)] if f in (2, 5) else [(3, 3)])]


def test_an_ignored_reference_far_from_every_prediction_changes_no_report():
    """The frames that skip the region pass score as they do after it."""
    for gt, pred in _task_cases():
        xs = [v for doc in (gt, pred) for items in doc.frames.values()
              for i in items for v in i.quad.as_flat()[0::2]]
        far = max(xs, default=0.0) + 1000.0
        listed = gt.frames.keys() | pred.frames.keys()
        ignoring = _with_ignored_references(gt, listed, far)
        for task in ("detection", "tracking", "spotting"):
            assert (evaluate(ignoring, pred, task).to_dict()
                    == evaluate(gt, pred, task).to_dict())



@pytest.mark.parametrize("a,b", [
    (DetCounters(tp=3, fp=1, fn=2), DetCounters(tp=5, fp=7, fn=0)),
    (MotCounters(misses=1, false_positives=2, mismatches=3, matches=4,
                 gt_count=5, matched_iou_sum=0.1),
     MotCounters(misses=6, false_positives=0, mismatches=1, matches=9,
                 gt_count=15, matched_iou_sum=0.2)),
    (IdCounters(id_tp=4, id_fp=3, id_fn=2, gt_tracks=1),
     IdCounters(id_tp=1, id_fp=0, id_fn=5, gt_tracks=2)),
])
def test_counters_add_field_by_field(a, b):
    total = a + b
    assert type(total) is type(a)
    assert asdict(total) == {name: value + getattr(b, name)
                             for name, value in asdict(a).items()}


@settings(max_examples=40, deadline=None)
@given(st.builds(SynthConfig, n_objects=st.integers(1, 8), n_frames=st.integers(2, 12),
                 motion=st.sampled_from(("static", "constant_velocity", "rotate")),
                 seed=st.integers(0, 10_000)),
       st.sampled_from(("detection", "tracking", "spotting")))
def test_a_synth_reference_scores_itself_perfectly(cfg, task):
    gt, _ = generate(cfg)
    report = evaluate(gt, gt, task)
    assert (report.precision, report.recall, report.fscore) == (1.0, 1.0, 1.0)
    assert report.det.fp == report.det.fn == 0
    if task != "detection":
        assert (report.mota, report.motp, report.idf1) == (1.0, 1.0, 1.0)
        assert report.mot.mismatches == 0 and report.ml == 0
        assert report.mt == report.ids.gt_tracks
    assert report.degenerate == ()
