"""Acceptance gate for the whole toolkit.

Each test here checks one advertised guarantee end to end, at the stated
tolerance, and prints a single PASS or FAIL line so a human can skim the
run log. The tests only use public API plus the independent reference
implementations in oracles.py, never the internals they are judging.
"""

import contextlib
import itertools
import math
import random
import time

from oracles import brute_force_assignment, monte_carlo_iou, overlapping_box_pair

from vtspot.annotations import (
    Instance,
    VideoAnnotation,
    interpolate,
    sample,
    trajectories_to_annotation,
)
from vtspot.geometry import RotatedBox, quad_iou, rotated_to_quad
from vtspot.matching import (
    CostWeights,
    GroundTruthInstance,
    PredictedInstance,
    angle_loss,
    hungarian,
    match_sets,
    set_loss,
)
from vtspot.metrics import evaluate
from vtspot.synth import SynthConfig, generate
from vtspot.tracker import TrackerConfig, run


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL  {desc}")
        raise
    print(f"criterion {num:02d} PASS  {desc}")


def inst(tid, cx, cy=0.0, w=1.0, h=1.0, text="word", angle=0.0):
    return Instance(track_id=tid,
                    quad=rotated_to_quad(RotatedBox(cx, cy, w, h, angle)),
                    transcription=text)


def ann(frames, frame_count, video_id="v0"):
    return VideoAnnotation(video_id=video_id, width=200, height=200,
                           frame_count=frame_count, frames=frames)


# ---------------------------------------------------------------------------
# 1. assignment solver is exact
# ---------------------------------------------------------------------------


def test_criterion_01_hungarian_matches_brute_force():
    with criterion(1, "hungarian equals brute force on 1000 random matrices"):
        rng = random.Random(12345)
        t0 = time.monotonic()
        for trial in range(1000):
            n = rng.randint(1, 7)
            cost = [[rng.uniform(0.0, 10.0) for _ in range(n)] for _ in range(n)]
            got = hungarian(cost)
            want_total, _ = brute_force_assignment(cost)
            assert abs(got.total_cost - want_total) <= 1e-9, f"trial {trial}"
            assert sorted(p for _, p in got.pairs) == list(range(n))
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"assignment sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. exact polygon IoU agrees with Monte Carlo estimation
# ---------------------------------------------------------------------------


def test_criterion_02_iou_matches_monte_carlo():
    with criterion(2, "polygon IoU within 2e-3 of 1e6-sample Monte Carlo, 200 pairs"):
        rng = random.Random(2024)
        t0 = time.monotonic()
        worst = 0.0
        for k in range(200):
            a, b = overlapping_box_pair(rng)
            exact = quad_iou(RotatedBox(*a).quad, RotatedBox(*b).quad)
            estimate = monte_carlo_iou(a, b, n=1_000_000, seed=k)
            worst = max(worst, abs(exact - estimate))
        assert worst < 2e-3, f"worst deviation {worst:.2e}"
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"Monte Carlo sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. set loss vanishes on a perfect prediction
# ---------------------------------------------------------------------------


def test_criterion_03_set_loss_identity():
    with criterion(3, "set loss <= 1e-11 when predictions equal references"):
        rng = random.Random(77)
        w = CostWeights()
        for _ in range(20):
            n = rng.randint(1, 9)
            boxes = [RotatedBox(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                                rng.uniform(0.05, 0.2), rng.uniform(0.05, 0.2),
                                0.0)
                     for _ in range(n)]
            gts = [GroundTruthInstance(b) for b in boxes]
            preds = [PredictedInstance(class_prob=1.0, box=b) for b in boxes]
            assignment = match_sets(gts, preds, w)
            assert abs(assignment.total_cost + n * w.w_cls) <= 1e-12
            assert set_loss(gts, preds, assignment, w) <= 1e-11


# ---------------------------------------------------------------------------
# 4. angle loss hits its anchor values
# ---------------------------------------------------------------------------


def test_criterion_04_angle_loss_anchors():
    with criterion(4, "angle loss is 0 at 0, 0.5 at pi/3, 2 at pi"):
        assert angle_loss(0.0, 0.0) == 0.0
        assert abs(angle_loss(0.0, math.pi / 3.0) - 0.5) <= 1e-15
        assert angle_loss(0.0, math.pi) == 2.0


# ---------------------------------------------------------------------------
# 5. frame-matching accounting on a hand-solved switch
# ---------------------------------------------------------------------------


def test_criterion_05_mot_switch_fixture():
    with criterion(5, "MOTA 2/3, MOTP (0.8+0.8+0.6)/3, one mismatch on the switch fixture"):
        def wide(tid, cx):
            return inst(tid, cx, 0.0, 9.0, 1.0)

        gt = ann({f: [wide(0, 4.5)] for f in range(3)}, 3)
        pred = ann({
            0: [wide(10, 5.5)],
            1: [wide(10, 5.5)],
            2: [wide(11, 6.75)],
        }, 3)
        report = evaluate(gt, pred, "tracking")
        assert report.mot.mismatches == 1
        assert report.mot.misses == 0 and report.mot.false_positives == 0
        assert abs(report.mota - 2.0 / 3.0) <= 1e-12
        assert abs(report.motp - (0.8 + 0.8 + 0.6) / 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# 6. identity matching equals exhaustive enumeration
# ---------------------------------------------------------------------------


def test_criterion_06_identity_fixture():
    with criterion(6, "identity scores match exhaustive assignment on the 2x3 fixture"):
        far = 100.0
        gt_frames = {f: [inst(1, 0.0)] for f in range(6)}
        for f, cx in [(0, far), (1, far), (2, far), (3, 1.0), (4, far)]:
            gt_frames[f].append(inst(2, cx))
        pred_frames = {f: [] for f in range(6)}
        for f in range(5):
            pred_frames[f].append(inst(1, 0.0))
        for f, cx in [(0, far), (1, far), (2, far), (3, 0.5), (4, 0.0), (5, 0.0)]:
            pred_frames[f].append(inst(2, cx))
        for f, cx in [(0, far), (1, far), (2, far), (3, 1.0)]:
            pred_frames[f].append(inst(3, cx))
        gt, pred = ann(gt_frames, 6), ann(pred_frames, 6)

        report = evaluate(gt, pred, "tracking")
        overlaps = [[5, 3, 0], [0, 4, 4]]
        best = max(sum(overlaps[i][cols[i]] for i in range(2))
                   for cols in itertools.permutations(range(3), 2))
        assert report.ids.id_tp == best == 9
        assert report.ids.id_fn == 2 and report.ids.id_fp == 6
        assert abs(report.idf1 - 18.0 / 26.0) <= 1e-12
        assert abs(report.idp - 9.0 / 15.0) <= 1e-12
        assert abs(report.idr - 9.0 / 11.0) <= 1e-12
        assert report.mt == 2 and report.ml == 0


# ---------------------------------------------------------------------------
# 7. self-evaluation is exactly perfect
# ---------------------------------------------------------------------------


def test_criterion_07_self_evaluation_is_exact():
    with criterion(7, "every metric is exactly 1.0 on 20 self-evaluated videos"):
        rng = random.Random(404)
        for seed in range(20):
            cfg = SynthConfig(n_objects=rng.randint(2, 6),
                              n_frames=rng.randint(10, 40),
                              motion=("static", "constant_velocity",
                                      "rotate")[seed % 3],
                              seed=seed)
            reference, _ = generate(cfg)
            report = evaluate(reference, reference, "spotting")
            for name in ("precision", "recall", "fscore", "mota", "motp",
                         "idp", "idr", "idf1"):
                value = getattr(report, name)
                assert value == 1.0, f"seed {seed}: {name} = {value!r}"
            assert report.mt == report.ids.gt_tracks and report.ml == 0
            assert report.det.fp == 0 and report.det.fn == 0
            assert report.mot.misses == 0
            assert report.mot.false_positives == 0
            assert report.mot.mismatches == 0
            assert report.ids.id_fp == 0 and report.ids.id_fn == 0


# ---------------------------------------------------------------------------
# 8. spotting can never beat tracking
# ---------------------------------------------------------------------------


def test_criterion_08_spotting_dominated_by_tracking():
    with criterion(8, "spotting identity score <= tracking score on 100 perturbed videos"):
        rng = random.Random(31337)
        for trial in range(100):
            n_frames = rng.randint(5, 10)
            gt_frames = {}
            pred_frames = {}
            for f in range(n_frames):
                gt_frames[f] = [inst(t, 10.0 * t + 0.25 * f, 0.5 * f,
                                     4.0, 3.0, f"w{t}") for t in range(3)]
                pred_frames[f] = [
                    inst(t,
                         10.0 * t + 0.25 * f + rng.uniform(-0.8, 0.8),
                         0.5 * f + rng.uniform(-0.5, 0.5),
                         4.0, 3.0,
                         f"w{t}" if rng.random() > 0.4 else "junk")
                    for t in range(3) if rng.random() > 0.2
                ]
            gt, pred = ann(gt_frames, n_frames), ann(pred_frames, n_frames)
            tracking = evaluate(gt, pred, "tracking").idf1
            spotting = evaluate(gt, pred, "spotting").idf1
            assert spotting <= tracking + 1e-12, f"trial {trial}"


# ---------------------------------------------------------------------------
# 9. keyframe sampling round-trips linear motion
# ---------------------------------------------------------------------------


def test_criterion_09_interpolation_round_trip():
    with criterion(9, "sample(3) then interpolate recovers linear motion to 1e-9"):
        for frame_count in (28, 31):
            frames = {}
            for f in range(frame_count):
                frames[f] = [
                    inst(0, 20.0 + 1.5 * f, 30.0 + 0.75 * f, 12.0, 5.0),
                    inst(1, 90.0 - 0.5 * f, 40.0, 8.0 + 0.25 * f, 6.0),
                    inst(2, 150.0, 50.0 + 2.0 * f, 10.0, 4.0 + 0.125 * f),
                ]
            dense = ann(frames, frame_count)
            rebuilt = interpolate(sample(dense, 3), frame_count)
            worst = 0.0
            for f in range(frame_count):
                got = {i.track_id: i for i in rebuilt.frames[f]}
                for item in dense.frames[f]:
                    for a, b in zip(item.quad.as_flat(),
                                    got[item.track_id].quad.as_flat()):
                        worst = max(worst, abs(a - b))
            assert worst < 1e-9, f"frame_count {frame_count}: error {worst:.2e}"


# ---------------------------------------------------------------------------
# 10. generate, track, evaluate end to end
# ---------------------------------------------------------------------------


def test_criterion_10_end_to_end_tracking():
    with criterion(10, "tracker is perfect on clean detections, >= 0.8 identity at 10% drops"):
        t0 = time.monotonic()
        gt, dets = generate(SynthConfig(n_objects=4, n_frames=30,
                                        motion="constant_velocity", seed=5))
        tracked = trajectories_to_annotation(
            run(dets.frames, TrackerConfig()),
            dets.video_id, dets.width, dets.height, dets.frame_count)
        report = evaluate(gt, tracked, "tracking")
        assert report.mota == 1.0
        assert report.idf1 == 1.0

        gt, dets = generate(SynthConfig(n_objects=4, n_frames=30,
                                        motion="constant_velocity",
                                        drop_prob=0.1, seed=5))
        tracked = trajectories_to_annotation(
            run(dets.frames, TrackerConfig(max_age=2)),
            dets.video_id, dets.width, dets.height, dets.frame_count)
        report = evaluate(gt, tracked, "tracking")
        assert report.idf1 >= 0.8, f"idf1 {report.idf1:.3f}"
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"end to end took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 11. identity score degrades monotonically with missing predictions
# ---------------------------------------------------------------------------


def test_criterion_11_degradation_is_monotone():
    with criterion(11, "identity score never rises as nested drops grow 0% to 50%"):
        gt, _ = generate(SynthConfig(n_objects=4, n_frames=30, seed=11))
        rng = random.Random(7)
        marks = {(f, j): rng.random()
                 for f, items in gt.frames.items()
                 for j in range(len(items))}
        previous = None
        for p in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            frames = {}
            for f, items in gt.frames.items():
                kept = [item for j, item in enumerate(items)
                        if marks[(f, j)] >= p]
                if kept:
                    frames[f] = kept
            pred = VideoAnnotation(video_id=gt.video_id, width=gt.width,
                                   height=gt.height,
                                   frame_count=gt.frame_count, frames=frames)
            idf1 = evaluate(gt, pred, "tracking").idf1
            if previous is not None:
                assert idf1 <= previous + 1e-12, f"rose at p={p}"
            previous = idf1
