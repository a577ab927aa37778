"""The traced benchmark (bench/layers.py) wraps vtspot globals by name.

A change that removes or renames one of them would make the traced run
report that layer as absent; these checks catch it in the unit tests.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from vtspot.annotations import (
    save_annotation,
    save_detections,
    trajectories_to_annotation,
)
from vtspot.cli import main
from vtspot.geometry import Quad, rotated_to_quad
from vtspot.linker import link
from vtspot.matching import GroundTruthInstance, PredictedInstance, match_sets
from vtspot.metrics import evaluate
from vtspot.synth import SynthConfig, generate
from vtspot.tracker import Tracker, TrackerConfig, run

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_global_exists(layers):
    for module_name, attr, _, _ in layers.LEAF_TARGETS:
        module = importlib.import_module(f"vtspot.{module_name}")
        assert callable(getattr(module, attr, None)), f"vtspot.{module_name}.{attr}"


def test_every_wrapped_tracker_method_exists(layers):
    for attr, _ in layers.METHOD_TARGETS:
        # the tracer wraps the attribute found in the class's own namespace
        assert callable(Tracker.__dict__.get(attr)), f"Tracker.{attr}"


# Kept importable by name for the traced run; nothing calls through them,
# because the tracker and the metrics reach the solver through
# matching.gated_assign.
KEPT_BY_NAME = {"tracker.hungarian", "metrics.hungarian"}


def test_every_wrapped_global_is_on_the_call_path(layers, tmp_path, monkeypatch):
    """A refactor that stops calling through a wrapped name would make its
    layer read zero in the traced run; here it fails instead."""
    calls = {}
    for module_name, attr, _, _ in layers.LEAF_TARGETS:
        module = importlib.import_module(f"vtspot.{module_name}")
        name = f"{module_name}.{attr}"
        calls[name] = 0

        def counted(*args, _fn=getattr(module, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    gt, dets = generate(SynthConfig(n_objects=3, n_frames=6, noise_sigma=1.0,
                                    seed=5))
    trajs = run(dets.frames, TrackerConfig(iou_threshold=0.3))
    pred = trajectories_to_annotation(trajs, gt.video_id, gt.width, gt.height,
                                      gt.frame_count)
    evaluate(gt, pred, "tracking")
    # the dart is non-convex: the linker scores it by its refitted box
    dart = Quad.from_flat((0, 0, 4, 2, 0, 4, 1, 2))
    link([(fd.frame_index,
           [(rotated_to_quad(d.box), "w") for d in fd.detections])
          for fd in dets.frames] + [(dets.frame_count, [(dart, "w")])])
    first = dets.frames[0].detections
    match_sets([GroundTruthInstance(box=d.box) for d in first],
               [PredictedInstance(class_prob=d.score, box=d.box) for d in first])

    gt_path, dets_path = tmp_path / "gt.json", tmp_path / "dets.json"
    out_path = tmp_path / "tracked.json"
    save_annotation(gt, gt_path)
    save_detections(dets, dets_path)
    assert main(["track", str(dets_path), "--out", str(out_path)]) == 0
    assert main(["evaluate", "--jobs", "1", "--out", str(tmp_path / "r.json"),
                 str(gt_path), str(out_path)]) == 0

    uncalled = {name for name, n in calls.items() if n == 0}
    assert uncalled <= KEPT_BY_NAME, sorted(uncalled - KEPT_BY_NAME)
