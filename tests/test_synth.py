import io

import pytest

from vtspot.annotations import save_annotation, save_detections
from vtspot.geometry import quad_iou
from vtspot.metrics import evaluate
from vtspot.synth import CANVAS_HEIGHT, CANVAS_WIDTH, SynthConfig, generate


def serialize(gt, dets):
    a, b = io.StringIO(), io.StringIO()
    save_annotation(gt, a)
    save_detections(dets, b)
    return a.getvalue(), b.getvalue()


@pytest.mark.parametrize("kwargs", [
    {"n_objects": 0},
    {"n_frames": 1},
    {"motion": "brownian"},
    {"noise_sigma": -1.0},
    {"noise_sigma": float("nan")},
    {"noise_sigma": float("inf")},
    {"drop_prob": 1.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SynthConfig(**kwargs)


def test_noiseless_detections_equal_reference():
    gt, dets = generate(SynthConfig(n_objects=3, n_frames=10, noise_sigma=0.0,
                                    drop_prob=0.0, seed=5))
    assert gt.frame_count == dets.frame_count == 10
    for f in range(10):
        boxes = [inst for inst in gt.frames[f]]
        found = dets.frames[f].detections
        assert len(found) == len(boxes) == 3
        for inst, det in zip(boxes, found):
            assert det.score == 1.0
            assert det.transcription == inst.transcription
            assert quad_iou(det.box.quad, det.box.quad) == 1.0
            # the detection box is the exact generator box
            q = inst.quad
            assert det.box.w > 0 and quad_iou(det.box.quad, det.box.quad) == 1.0
            from vtspot.geometry import rotated_to_quad
            assert rotated_to_quad(det.box) == q


def test_same_seed_same_bytes():
    cfg = SynthConfig(n_objects=4, n_frames=12, motion="rotate",
                      noise_sigma=1.5, drop_prob=0.2, seed=9)
    first = serialize(*generate(cfg))
    second = serialize(*generate(cfg))
    assert first == second


def test_different_seeds_differ():
    a = serialize(*generate(SynthConfig(seed=1)))
    b = serialize(*generate(SynthConfig(seed=2)))
    assert a != b


def test_drop_rate_near_nominal():
    cfg = SynthConfig(n_objects=5, n_frames=100, drop_prob=0.3, seed=42)
    gt, dets = generate(cfg)
    total = 5 * 100
    kept = sum(len(f.detections) for f in dets.frames)
    rate = 1 - kept / total
    assert abs(rate - 0.3) < 0.05


def test_objects_stay_separated():
    for motion in ("static", "constant_velocity", "rotate"):
        gt, _ = generate(SynthConfig(n_objects=6, n_frames=40, motion=motion,
                                     seed=3))
        for f, instances in gt.frames.items():
            from vtspot.geometry import quad_iou
            for i in range(len(instances)):
                for j in range(i + 1, len(instances)):
                    assert quad_iou(instances[i].quad, instances[j].quad) == 0.0


def test_reference_self_evaluates_perfectly():
    gt, _ = generate(SynthConfig(n_objects=4, n_frames=15, seed=8))
    r = evaluate(gt, gt, "tracking")
    assert (r.precision, r.recall, r.fscore) == (1.0, 1.0, 1.0)
    assert (r.mota, r.motp) == (1.0, 1.0)
    assert (r.idp, r.idr, r.idf1) == (1.0, 1.0, 1.0)


def test_consecutive_frames_overlap_enough_for_tracking():
    for motion in ("static", "constant_velocity", "rotate"):
        gt, _ = generate(SynthConfig(n_objects=5, n_frames=30, motion=motion,
                                     seed=13))
        for f in range(29):
            cur = {i.track_id: i.quad for i in gt.frames[f]}
            nxt = {i.track_id: i.quad for i in gt.frames[f + 1]}
            from vtspot.geometry import quad_iou
            for tid in cur:
                assert quad_iou(cur[tid], nxt[tid]) >= 0.5, (motion, f, tid)


def test_canvas_metadata():
    gt, dets = generate(SynthConfig(seed=0))
    assert (gt.width, gt.height) == (CANVAS_WIDTH, CANVAS_HEIGHT)
    assert (dets.width, dets.height) == (CANVAS_WIDTH, CANVAS_HEIGHT)
    assert gt.video_id == dets.video_id == "synth-0"
    assert gt.scenario == "constant_velocity"


def test_words_unique_and_constant():
    gt, _ = generate(SynthConfig(n_objects=6, n_frames=10, seed=21))
    per_track: dict[int, set[str]] = {}
    for instances in gt.frames.values():
        for inst in instances:
            per_track.setdefault(inst.track_id, set()).add(inst.transcription)
    assert all(len(words) == 1 for words in per_track.values())
    all_words = [next(iter(w)) for w in per_track.values()]
    assert len(set(all_words)) == 6
