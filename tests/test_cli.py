import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vtspot
import vtspot.cli as cli
from vtspot.annotations import (
    Instance,
    VideoAnnotation,
    load_annotation,
    load_detections,
    save_annotation,
    save_detections,
    save_trajectories,
)
from vtspot.cli import main
from vtspot.geometry import RotatedBox, rotated_to_quad
from vtspot.linker import LinkerConfig, link
from vtspot.metrics import evaluate
from vtspot.synth import SynthConfig, generate


def run_cli(*argv):
    return main(list(argv))


def make_synth(tmp_path, name="v", **flags):
    gt = tmp_path / f"{name}-gt.json"
    dets = tmp_path / f"{name}-dets.json"
    opts = {"--objects": 4, "--frames": 30, "--seed": 7}
    opts.update(flags)
    argv = ["synth", "--gt-out", str(gt), "--dets-out", str(dets)]
    for key, value in opts.items():
        argv.extend([key, str(value)])
    assert run_cli(*argv) == 0
    return gt, dets


def axis_aligned_fixture(tmp_path, n_objects=3, n_frames=3):
    """Reference annotation plus a detections file that mirrors it
    perfectly with unit scores, everything axis aligned."""
    frames = {}
    det_frames = {}
    for f in range(n_frames):
        items = []
        det_items = []
        for t in range(n_objects):
            box = RotatedBox(100.0 + 150.0 * t, 100.0 + 20.0 * f, 80.0, 30.0, 0.0)
            quad = rotated_to_quad(box)
            items.append(Instance(track_id=t, quad=quad, transcription=f"w{t}"))
            det_items.append({
                "points": list(quad.as_flat()),
                "score": 1.0,
                "transcription": f"w{t}",
            })
        frames[f] = items
        det_frames[str(f)] = det_items
    ann = VideoAnnotation(video_id="flat", width=640, height=360,
                          frame_count=n_frames, frames=frames)
    gt_path = tmp_path / "flat-gt.json"
    det_path = tmp_path / "flat-dets.json"
    save_annotation(ann, gt_path)
    det_path.write_text(json.dumps({
        "video_id": "flat", "width": 640, "height": 360,
        "frame_count": n_frames, "frames": det_frames,
    }), encoding="utf-8")
    return gt_path, det_path


# ---------------------------------------------------------------------------
# parser behavior
# ---------------------------------------------------------------------------


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc_info:
        run_cli("--help")
    assert exc_info.value.code == 0


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc_info:
        run_cli("evaluate", "--frobnicate")
    assert exc_info.value.code == 1


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc_info:
        run_cli()
    assert exc_info.value.code == 1


REPO_ROOT = Path(__file__).resolve().parents[1]


def load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def child_env() -> dict:
    """An environment in which a child imports the same vtspot that pytest
    imported, from src/ or from an install."""
    package_root = str(Path(vtspot.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, inherited] if inherited else [package_root]))


def test_console_script_version():
    """The `vtspot` entry point declared in pyproject.toml runs in a fresh
    interpreter, called the way pip's generated wrapper calls it."""
    entry = load_toml(REPO_ROOT / "pyproject.toml")["project"]["scripts"]["vtspot"]
    module, _, attr = entry.partition(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    out = subprocess.run([sys.executable, "-c", code, "--version"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0, out.stderr
    assert "vtspot" in out.stdout


@pytest.mark.skipif(shutil.which("vtspot") is None,
                    reason="vtspot console script is not installed")
def test_installed_console_script_version():
    out = subprocess.run(["vtspot", "--version"], capture_output=True,
                         text=True)
    assert out.returncode == 0
    assert "vtspot" in out.stdout


def test_the_parser_is_built_once_per_process(tmp_path):
    cli._build_parser.cache_clear()
    _, dets = make_synth(tmp_path, **{"--frames": 5, "--objects": 2})
    assert run_cli("track", str(dets), "--out", str(tmp_path / "p.json")) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_a_plain_track_after_a_linker_track_is_the_fresh_process_output(tmp_path, capsys):
    """No option of one call reaches the next one through the shared parser."""
    # dropped detections: the linker's window of 3 and the tracker's ages differ
    _, dets = make_synth(tmp_path, **{"--frames": 12, "--objects": 4, "--drop-prob": 0.3})
    fresh = subprocess.run([sys.executable, "-m", "vtspot", "track", str(dets)],
                           capture_output=True, env=child_env())
    assert fresh.returncode == 0, fresh.stderr
    assert run_cli("track", str(dets), "--method", "linker", "--window", "3") == 0
    linked = capsys.readouterr().out.encode("utf-8")
    assert run_cli("track", str(dets)) == 0
    assert capsys.readouterr().out.encode("utf-8") == fresh.stdout != linked


def test_evaluate_without_jobs_reads_the_environment_again(tmp_path, capsys, monkeypatch):
    gt_dir, pred_dir = corpus_dirs(tmp_path, 2)
    dirs = ("--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir))
    assert run_cli("evaluate", *dirs, "--jobs", "2") == 0
    capsys.readouterr()
    monkeypatch.setenv("VTSPOT_JOBS", "abc")
    with pytest.raises(SystemExit) as exc_info:
        run_cli("evaluate", *dirs)
    assert exc_info.value.code == 1
    assert "VTSPOT_JOBS must be an integer >= 1, got 'abc'" in capsys.readouterr().err


def test_a_global_rebound_after_the_first_call_is_reached(tmp_path, capsys, monkeypatch):
    """A timing wrapper that rebinds the CLI's loaders and writer, as a
    traced benchmark does, sees every call made after it is put in."""
    gt, dets = make_synth(tmp_path, **{"--frames": 5, "--objects": 2})
    calls = []
    for name in ("load_annotation", "load_detections", "save_trajectories"):
        def wrapper(*args, _real=getattr(cli, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(cli, name, wrapper)
    pred = tmp_path / "p.json"
    assert run_cli("track", str(dets), "--out", str(pred)) == 0
    assert run_cli("evaluate", str(gt), str(pred)) == 0
    assert calls == ["load_detections", "save_trajectories", "load_annotation", "load_annotation"]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_deterministic_files(tmp_path):
    gt1, dets1 = make_synth(tmp_path, "a", **{"--seed": 3})
    gt2, dets2 = make_synth(tmp_path, "b", **{"--seed": 3})
    assert gt1.read_text() == gt2.read_text()
    assert dets1.read_text() == dets2.read_text()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_non_finite_noise_sigma_exits_one(tmp_path, capsys, value):
    gt, dets = tmp_path / "gt.json", tmp_path / "dets.json"
    assert run_cli("synth", "--noise-sigma", value, "--gt-out", str(gt),
                   "--dets-out", str(dets)) == 1
    assert f"noise_sigma must be finite and >= 0, got {value}" in capsys.readouterr().err
    assert not gt.exists() and not dets.exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_self_is_perfect(tmp_path, capsys):
    gt, _ = make_synth(tmp_path)
    assert run_cli("evaluate", "--task", "tracking", str(gt), str(gt)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mota"] == 1.0
    assert report["idf1"] == 1.0
    assert report["task"] == "tracking"


def test_evaluate_wrong_text_zero_spotting_idf1(tmp_path, capsys):
    gt, _ = make_synth(tmp_path)
    ann = load_annotation(gt)
    bad_frames = {
        f: [Instance(track_id=i.track_id, quad=i.quad, transcription="junk")
            for i in items]
        for f, items in ann.frames.items()
    }
    bad = VideoAnnotation(video_id=ann.video_id, width=ann.width,
                          height=ann.height, frame_count=ann.frame_count,
                          frames=bad_frames, scenario=ann.scenario)
    bad_path = tmp_path / "bad.json"
    save_annotation(bad, bad_path)
    assert run_cli("evaluate", "--task", "spotting", str(gt), str(bad_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["idf1"] == 0.0
    # every box is a miss and a false positive, while tracking stays whole
    assert report["mota"] == -1.0
    assert run_cli("evaluate", "--task", "tracking", str(gt), str(bad_path)) == 0
    assert json.loads(capsys.readouterr().out)["mota"] == 1.0


def test_evaluate_schema_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    gt, _ = make_synth(tmp_path)
    assert run_cli("evaluate", str(gt), str(bad)) == 2
    assert "bad input" in capsys.readouterr().err


def test_evaluate_missing_file_exits_two(tmp_path, capsys):
    gt, _ = make_synth(tmp_path)
    assert run_cli("evaluate", str(gt), str(tmp_path / "nope.json")) == 2


def test_evaluate_video_mismatch_exits_three(tmp_path, capsys):
    gt_a, _ = make_synth(tmp_path, "a", **{"--seed": 1})
    gt_b, _ = make_synth(tmp_path, "b", **{"--seed": 2})
    assert run_cli("evaluate", str(gt_a), str(gt_b)) == 3
    assert "mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_value_error_names_both_files(tmp_path, capsys, jobs):
    """A ValueError from scoring, here a clip vertex past the float range,
    names the pair it came from, in a pool as in one process."""
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()

    def write(path, points):
        path.write_text(json.dumps({
            "video_id": "far", "width": 10, "height": 10, "frame_count": 1,
            "frames": {"0": [{"id": 0, "points": points, "transcription": "a"}]},
        }), encoding="utf-8")

    big = 1e200
    for directory in (gt_dir, pred_dir):
        write(directory / "a.json", [0, 0, 4, 0, 4, 4, 0, 4])
    write(gt_dir / "b.json", [-big, -big, big, -big, big, big, -big, big])
    write(pred_dir / "b.json", [0, -1.5 * big, 1.5 * big, 0, 0, 1.5 * big, -1.5 * big, 0])
    assert run_cli("evaluate", "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir),
                   "--jobs", jobs) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"vtspot: {gt_dir / 'b.json'} vs {pred_dir / 'b.json'}: "
                            "point coordinates must be finite, got (nan, nan)\n")


def test_evaluate_csv_output(tmp_path, capsys):
    gt, _ = make_synth(tmp_path)
    assert run_cli("evaluate", "--format", "csv", str(gt), str(gt)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("video_id,scenario,task,precision")
    row = lines[1].split(",")
    assert row[0] == "synth-7"
    assert row[1] == "constant_velocity"
    assert row[3] == "1.000000"  # six-decimal text rendering


def test_evaluate_out_file(tmp_path):
    gt, _ = make_synth(tmp_path)
    out = tmp_path / "report.json"
    assert run_cli("evaluate", str(gt), str(gt), "--out", str(out)) == 0
    assert json.loads(out.read_text())["mota"] == 1.0


def test_evaluate_requires_both_dirs(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("evaluate", "--gt-dir", str(tmp_path))
    assert exc_info.value.code == 1
    assert capsys.readouterr().err.startswith("usage: vtspot evaluate")


def test_evaluate_requires_inputs():
    with pytest.raises(SystemExit) as exc_info:
        run_cli("evaluate")
    assert exc_info.value.code == 1


def corpus_dirs(tmp_path, n=3):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    for i in range(n):
        gt, _ = make_synth(tmp_path, f"c{i}", **{"--seed": 100 + i,
                                                 "--objects": 2 + i,
                                                 "--frames": 10})
        (gt_dir / f"video{i}.json").write_text(gt.read_text())
        (pred_dir / f"video{i}.json").write_text(gt.read_text())
    return gt_dir, pred_dir


def test_evaluate_corpus_aggregate(tmp_path, capsys):
    gt_dir, pred_dir = corpus_dirs(tmp_path)
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["videos"]) == 3
    assert payload["aggregate"]["mota"] == 1.0
    assert payload["aggregate"]["idf1"] == 1.0
    # aggregate counters equal the sums of the per-video counters
    total_tp = sum(v["counters"]["identity"]["id_tp"] for v in payload["videos"])
    assert payload["aggregate"]["counters"]["identity"]["id_tp"] == total_tp


def test_evaluate_corpus_parallel_matches_serial(tmp_path, capsys):
    gt_dir, pred_dir = corpus_dirs(tmp_path)
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir), "--jobs", "1") == 0
    serial = capsys.readouterr().out
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir), "--jobs", "3") == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_evaluate_pool_has_no_more_workers_than_pairs(tmp_path, capsys, monkeypatch):
    """The pool starts all its workers at once, so --jobs above the number
    of pairs starts only as many as there are pairs."""
    gt_dir, pred_dir = corpus_dirs(tmp_path, 2)
    dirs = ("--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir), "--format", "csv")
    assert run_cli("evaluate", *dirs, "--jobs", "1") == 0
    serial = capsys.readouterr().out
    sizes = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert run_cli("evaluate", *dirs, "--jobs", "4") == 0
    assert sizes == [2]
    assert capsys.readouterr().out == serial


def test_evaluate_corpus_name_mismatch_exits_two(tmp_path, capsys):
    gt_dir, pred_dir = corpus_dirs(tmp_path, 2)
    (pred_dir / "video1.json").unlink()
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir)) == 2
    assert "video1.json" in capsys.readouterr().err


@pytest.mark.parametrize("name,scored", [
    ("clip.v2.json", True),
    ("clip.json.gz", True),
    ("a.json.bak", False),
    ("a.json.gz.orig", False),
    ("notes.txt", False),
])
def test_evaluate_corpus_keeps_json_and_json_gz_names(tmp_path, capsys, name, scored):
    gt_dir, pred_dir = corpus_dirs(tmp_path, 2)
    text = (gt_dir / "video0.json").read_text()
    for directory in (gt_dir, pred_dir):
        if not scored:
            # scoring this file would exit 2
            (directory / name).write_text("not an annotation")
        elif name.endswith(".gz"):
            (directory / name).write_bytes(gzip.compress(text.encode()))
        else:
            (directory / name).write_text(text)
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir)) == 0
    assert len(json.loads(capsys.readouterr().out)["videos"]) == (3 if scored else 2)


def test_jobs_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VTSPOT_JOBS", "2")
    gt_dir, pred_dir = corpus_dirs(tmp_path, 2)
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir)) == 0
    assert json.loads(capsys.readouterr().out)["aggregate"]["mota"] == 1.0


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_bad_jobs_env_is_a_usage_error(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("VTSPOT_JOBS", raw)
    gt_dir, pred_dir = corpus_dirs(tmp_path, 2)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("evaluate", "--gt-dir", str(gt_dir), "--pred-dir", str(pred_dir))
    assert exc_info.value.code == 1
    err = capsys.readouterr().err
    assert "VTSPOT_JOBS" in err and repr(raw) in err


def test_track_ignores_bad_jobs_env(tmp_path, capsys, monkeypatch):
    _, dets = make_synth(tmp_path, **{"--frames": 5, "--objects": 2})
    monkeypatch.setenv("VTSPOT_JOBS", "abc")
    assert run_cli("track", str(dets)) == 0
    assert len(json.loads(capsys.readouterr().out)["frames"]) == 5


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def test_track_then_evaluate_is_perfect(tmp_path, capsys):
    gt, dets = make_synth(tmp_path)
    out = tmp_path / "trajs.json"
    assert run_cli("track", str(dets), "--out", str(out)) == 0
    assert run_cli("evaluate", "--task", "tracking", str(gt), str(out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mota"] == 1.0
    assert report["idf1"] == 1.0


def test_track_linker_on_static_fixture(tmp_path):
    gt, dets = make_synth(tmp_path, "s", **{"--motion": "static",
                                            "--frames": 12})
    out = tmp_path / "linked.json"
    assert run_cli("track", str(dets), "--method", "linker",
                   "--out", str(out)) == 0
    linked = load_annotation(out)
    ref = load_annotation(gt)
    idf1 = evaluate(ref, linked, "tracking").idf1
    assert idf1 >= 0.9


def test_track_keeps_a_missing_transcription_missing_whatever_the_method(tmp_path, capsys):
    """A detection without a transcription is written as null by both
    methods, so spotting refuses both outputs alike."""
    gt, dets = axis_aligned_fixture(tmp_path)
    doc = json.loads(dets.read_text())
    del doc["frames"]["1"][0]["transcription"]
    dets.write_text(json.dumps(doc))
    for method in ("transformer-assoc", "linker"):
        out = tmp_path / f"{method}.json"
        assert run_cli("track", str(dets), "--method", method, "--out", str(out)) == 0
        texts = [entry["transcription"]
                 for entry in json.loads(out.read_text())["frames"]["1"]]
        assert sorted(texts, key=str) == [None, "w1", "w2"], method
        assert run_cli("evaluate", "--task", "spotting", str(gt), str(out)) == 1
        assert "frame 1 has no transcription" in capsys.readouterr().err, method


def test_track_empty_detections(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "video_id": "e", "width": 100, "height": 100,
        "frame_count": 4, "frames": {},
    }), encoding="utf-8")
    out = tmp_path / "out.json"
    assert run_cli("track", str(path), "--out", str(out)) == 0
    ann = load_annotation(out)
    assert ann.frames == {}
    assert ann.frame_count == 4


@pytest.mark.parametrize("method", ["transformer-assoc", "linker"])
@pytest.mark.parametrize("flag,value,message", [
    ("--min-score", "2", "min_score must be in [0,1], got 2.0"),
    ("--min-score", "-5", "min_score must be in [0,1], got -5.0"),
    ("--max-age", "-3", "max_age must be >= 0, got -3"),
    ("--window", "-1", "window must be >= 1, got -1"),
    ("--iou-thresh", "0", "iou_threshold must be in (0,1], got 0.0"),
    ("--max-norm-edit", "1.5", "max_norm_edit must be in [0,1], got 1.5"),
])
def test_track_out_of_range_option_exits_one_whatever_the_method(
        tmp_path, capsys, method, flag, value, message):
    """An option is checked even where the chosen method does not use it,
    and nothing is written."""
    _, dets = make_synth(tmp_path, **{"--frames": 5, "--objects": 2})
    out = tmp_path / "out.json"
    assert run_cli("track", str(dets), "--method", method, flag, value,
                   "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_track_checks_its_options_before_reading_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert run_cli("track", str(path)) == 2
    capsys.readouterr()
    assert run_cli("track", str(path), "--max-age", "-1") == 1
    assert run_cli("track", str(tmp_path / "missing.json"), "--method", "linker",
                   "--max-age", "-1") == 1
    err = capsys.readouterr().err
    assert "max_age must be >= 0, got -1" in err and str(path) not in err


def test_track_option_range_ends_accepted(tmp_path, capsys):
    _, dets = make_synth(tmp_path, **{"--frames": 5, "--objects": 2})
    for method in ("transformer-assoc", "linker"):
        assert run_cli("track", str(dets), "--method", method, "--min-score", "1",
                       "--max-age", "0", "--window", "1", "--iou-thresh", "1",
                       "--max-norm-edit", "0") == 0
        assert json.loads(capsys.readouterr().out)["video_id"] == "synth-7"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


SQUARE = [1, 1, 9, 1, 9, 5, 1, 5]


@pytest.mark.parametrize("command, doc", [
    ("evaluate", {"video_id": "v", "width": 64, "height": 48, "frame_count": 2_000_000,
                  "frames": {"1999999": [{"id": 1, "points": SQUARE,
                                          "transcription": "ab"}]}}),
    ("track", {"video_id": "v", "width": 64, "height": 48, "frame_count": 10 ** 9,
               "frames": {"5": [{"points": SQUARE, "score": 0.9}],
                          "999999999": [{"points": SQUARE, "score": 0.9}]}}),
    # read as the reference and as the detections file alike
    ("loss", {"video_id": "v", "width": 64, "height": 48, "frame_count": 2_000_000,
              "frames": {"1999999": [{"id": 1, "points": SQUARE, "transcription": "ab",
                                      "score": 0.9}]}}),
])
def test_cost_follows_the_listed_frames(tmp_path, command, doc):
    """A document that claims a huge frame_count but lists one or two
    frames is handled in seconds inside a 1 GiB address space."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    paths = [str(path)] * (1 if command == "track" else 2)
    out = subprocess.run([sys.executable, "-m", "vtspot", command, *paths],
                         capture_output=True, text=True, env=child_env(),
                         preexec_fn=_limit_address_space, timeout=10)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("field", ["points", "track_box"])
def test_track_degenerate_detection_quad_exits_two(tmp_path, capsys, field):
    square = [10.0, 10.0, 50.0, 10.0, 50.0, 50.0, 10.0, 50.0]
    entry = {"points": square, "score": 0.9, "track_box": square}
    entry[field] = [0, 0, 1, 1, 2, 2, 3, 3]
    path = tmp_path / "dets.json"
    path.write_text(json.dumps({
        "video_id": "d", "width": 100, "height": 100,
        "frame_count": 2, "frames": {"1": [entry]},
    }), encoding="utf-8")
    assert run_cli("track", str(path)) == 2
    assert f"frames.1[0].{field}: quad area 0.0 is below 1e-12" in capsys.readouterr().err


def test_track_stdout(tmp_path, capsys):
    _, dets = make_synth(tmp_path, **{"--frames": 5, "--objects": 2})
    assert run_cli("track", str(dets)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["video_id"] == "synth-7"
    assert len(payload["frames"]) == 5


# ---------------------------------------------------------------------------
# sample / interpolate
# ---------------------------------------------------------------------------


def test_sample_interpolate_round_trip(tmp_path):
    gt, _ = make_synth(tmp_path, **{"--frames": 31})
    sampled = tmp_path / "sampled.json"
    dense = tmp_path / "dense.json"
    assert run_cli("sample", str(gt), "--k", "3", "--out", str(sampled)) == 0
    kept = load_annotation(sampled)
    assert sorted(kept.frames) == list(range(0, 31, 3))
    assert run_cli("interpolate", str(sampled), "--frames", "31", "--k", "3",
                   "--out", str(dense)) == 0
    original = load_annotation(gt)
    rebuilt = load_annotation(dense)
    assert rebuilt.frame_count == 31
    worst = 0.0
    for f, items in original.frames.items():
        got = {i.track_id: i for i in rebuilt.frames[f]}
        for inst in items:
            for a, b in zip(inst.quad.as_flat(), got[inst.track_id].quad.as_flat()):
                worst = max(worst, abs(a - b))
    assert worst < 1e-9


def test_interpolate_defaults_to_document_frame_count(tmp_path, capsys):
    """Without --frames the output keeps the input's frame_count, which
    `sample` carries over from the dense clip, and nothing is warned."""
    for n_frames, last_keyframe in ((30, 27), (10, 9)):
        gt, _ = make_synth(tmp_path, f"v{n_frames}", **{"--frames": n_frames})
        sampled = tmp_path / "sampled.json"
        assert run_cli("sample", str(gt), "--k", "3", "--out", str(sampled)) == 0
        assert max(load_annotation(sampled).frames) == last_keyframe
        dense = tmp_path / "dense.json"
        assert run_cli("interpolate", str(sampled), "--out", str(dense)) == 0
        assert capsys.readouterr().err == ""
        assert load_annotation(dense).frame_count == n_frames
        explicit = tmp_path / "explicit.json"
        assert run_cli("interpolate", str(sampled), "--frames", str(n_frames),
                       "--out", str(explicit)) == 0
        assert dense.read_bytes() == explicit.read_bytes()


@pytest.mark.parametrize("frames", ["1", "5", "27"])
def test_interpolate_too_few_frames_is_a_usage_error(tmp_path, capsys, frames):
    gt, _ = make_synth(tmp_path, **{"--frames": 30})
    sampled = tmp_path / "sampled.json"
    assert run_cli("sample", str(gt), "--k", "3", "--out", str(sampled)) == 0
    with pytest.raises(SystemExit) as exc_info:
        run_cli("interpolate", str(sampled), "--frames", frames)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: vtspot interpolate")
    assert str(sampled) in captured.err
    assert "at least 28" in captured.err


def test_interpolate_frames_at_highest_keyframe_plus_one(tmp_path):
    gt, _ = make_synth(tmp_path, **{"--frames": 30})
    sampled = tmp_path / "sampled.json"
    dense = tmp_path / "dense.json"
    assert run_cli("sample", str(gt), "--k", "3", "--out", str(sampled)) == 0
    assert run_cli("interpolate", str(sampled), "--frames", "28",
                   "--out", str(dense)) == 0
    assert load_annotation(dense).frame_count == 28


def test_sample_k_one_identity(tmp_path, capsys):
    gt, _ = make_synth(tmp_path, **{"--frames": 6})
    assert run_cli("sample", str(gt), "--k", "1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out == json.loads(gt.read_text())


def test_interpolate_off_lattice_frame_exits_two(tmp_path, capsys):
    gt, _ = make_synth(tmp_path, **{"--frames": 9})
    sampled = tmp_path / "sampled.json"
    assert run_cli("sample", str(gt), "--k", "2", "--out", str(sampled)) == 0
    assert run_cli("interpolate", str(sampled), "--k", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"{sampled}: frames.2: frame 2 is not on the k=3 sampling lattice"
            in captured.err)


def test_sample_of_a_lone_surrogate_transcription_exits_two(tmp_path, capsys):
    gt, _ = make_synth(tmp_path, **{"--frames": 4})
    doc = json.loads(gt.read_text(encoding="utf-8"))
    doc["frames"]["0"][0]["transcription"] = "\udc80"
    gt.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o.json"
    assert run_cli("sample", str(gt), "--k", "1", "--out", str(out)) == 2
    assert f"{gt}: frames.0[0].transcription: not encodable" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v-dets.json", "v-gt.json"]


@pytest.mark.parametrize("text", ['{"frame_count": ' + "7" * 5000 + "}",
                                  "[" * 200_000 + "]" * 200_000],
                         ids=["long integer", "deep nesting"])
def test_sample_of_json_the_decoder_refuses_exits_two(tmp_path, capsys, text):
    """An integer literal past the int-to-string digit limit and nesting
    past the decoder's recursion limit are data errors naming the file."""
    big = tmp_path / "big.json"
    big.write_text(text, encoding="utf-8")
    assert run_cli("sample", str(big), "--k", "2") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"vtspot: bad input: {big}: $: not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["video_id", "scenario"])
def test_sample_of_a_lone_surrogate_header_string_exits_two(tmp_path, capsys, field):
    gt, _ = make_synth(tmp_path, **{"--frames": 4})
    doc = json.loads(gt.read_text(encoding="utf-8"))
    doc[field] = "v\udc80"
    gt.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "o.json"
    assert run_cli("sample", str(gt), "--k", "1", "--out", str(out)) == 2
    assert (f"{gt}: {field}: not encodable as UTF-8: surrogates not allowed at index 1"
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v-dets.json", "v-gt.json"]


@pytest.mark.parametrize("end,message", [
    # the corners swap diagonally: every one passes through the centre
    ([10, 10, 0, 10, 0, 0, 10, 0], "quad area 0.0 is below"),
    # the corner order crosses halfway
    ([10, 10, 2, 10, 0, 2, 12, 2], "self-intersecting"),
])
def test_interpolate_refuses_a_quad_its_loaders_would_reject(tmp_path, capsys,
                                                             end, message):
    """Interpolation that collapses or crosses corners exits 1, as a
    mismatched corner order, and writes nothing."""
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({
        "video_id": "v", "width": 100, "height": 100, "frame_count": 5,
        "frames": {
            "0": [{"id": 0, "points": [0, 0, 10, 0, 10, 10, 0, 10], "transcription": "a"}],
            "4": [{"id": 0, "points": end, "transcription": "a"}],
        },
    }))
    dense = tmp_path / "dense.json"
    assert run_cli("interpolate", str(keyed), "--out", str(dense)) == 1
    err = capsys.readouterr().err
    assert "track 0: corner order of frames 0 and 4 does not correspond" in err
    assert message in err
    assert not dense.exists()


def test_sample_k2_then_interpolate_without_k(tmp_path):
    gt, _ = make_synth(tmp_path, **{"--frames": 9})
    sampled = tmp_path / "sampled.json"
    dense = tmp_path / "dense.json"
    assert run_cli("sample", str(gt), "--k", "2", "--out", str(sampled)) == 0
    assert run_cli("interpolate", str(sampled), "--frames", "9",
                   "--out", str(dense)) == 0
    assert sorted(load_annotation(dense).frames) == list(range(9))


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_identity_near_zero(tmp_path, capsys):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    assert run_cli("loss", str(gt_path), str(det_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["loss"] <= 1e-11
    for frame in payload["frames"]:
        assert frame["match_cost"] == pytest.approx(-3.0, abs=1e-9)
        assert sorted(frame["pairs"]) == [[0, 0], [1, 1], [2, 2]]


def test_loss_zero_weight_zeroes_column(tmp_path, capsys):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    assert run_cli("loss", str(gt_path), str(det_path),
                   "--weights", "1,5,0,2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["totals"]["giou"] == 0.0


def test_loss_pads_uneven_sets(tmp_path, capsys):
    gt_path, det_path = axis_aligned_fixture(tmp_path, n_objects=2, n_frames=1)
    doc = json.loads(det_path.read_text())
    doc["frames"]["0"] = doc["frames"]["0"][:1]  # drop one prediction
    det_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("loss", str(gt_path), str(det_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    # the unmatched reference object pairs with a zero-probability pad
    assert payload["loss"] > 1.0
    assert len(payload["frames"][0]["pairs"]) == 2


def test_loss_lists_a_frame_the_detections_skip(tmp_path, capsys):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    doc = json.loads(det_path.read_text())
    del doc["frames"]["1"]
    det_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("loss", str(gt_path), str(det_path)) == 0
    frames = json.loads(capsys.readouterr().out)["frames"]
    assert [frame["frame"] for frame in frames] == [0, 1, 2]
    # every reference object of frame 1 pairs with a zero-probability pad
    assert len(frames[1]["pairs"]) == 3 and frames[1]["loss"] > 1.0


def test_loss_lists_the_frames_either_input_lists(tmp_path, capsys):
    """Frames that neither input lists are left out, and the totals equal
    those of the same inputs with every frame listed, empty or not."""
    gt_path, det_path = axis_aligned_fixture(tmp_path, n_frames=7)
    gt_doc = json.loads(gt_path.read_text())
    det_doc = json.loads(det_path.read_text())
    gt_doc["frames"] = {k: v for k, v in gt_doc["frames"].items() if k in ("0", "2", "3")}
    det_doc["frames"] = {k: v for k, v in det_doc["frames"].items() if k in ("2", "4")}
    det_doc["frames"]["3"] = []
    outputs = []
    for padded in (False, True):
        for doc, path in ((gt_doc, gt_path), (det_doc, det_path)):
            if padded:
                doc["frames"] = {str(f): doc["frames"].get(str(f), []) for f in range(7)}
            path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("loss", str(gt_path), str(det_path)) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    sparse, dense = outputs
    assert [frame["frame"] for frame in sparse["frames"]] == [0, 2, 3, 4]
    assert [frame["frame"] for frame in dense["frames"]] == list(range(7))
    assert sparse["frames"] == [frame for frame in dense["frames"] if frame["frame"] in (0, 2, 3, 4)]
    assert all(frame["pairs"] == [] and frame["loss"] == 0.0
               for frame in dense["frames"] if frame["frame"] in (1, 5, 6))
    assert (sparse["totals"], sparse["loss"]) == (dense["totals"], dense["loss"])
    assert sparse["totals"]["giou"] > 0.0


def test_loss_whose_optimal_total_overflows_exits_one(tmp_path, capsys):
    """Every cost is finite, but any matching of the two references to the
    two far detections totals past the float range."""
    def entry(x, y, **fields):
        return dict(fields, points=[x, y, x + 10, y, x + 10, y + 10, x, y + 10])

    header = {"video_id": "v", "width": 100, "height": 100, "frame_count": 1}
    gt, dets = tmp_path / "gt.json", tmp_path / "dets.json"
    gt.write_text(json.dumps(dict(header, frames={"0": [
        entry(5, 5, id=1, transcription="a"), entry(7, 5, id=2, transcription="b")]})))
    dets.write_text(json.dumps(dict(header, frames={"0": [
        entry(65, 65, score=0.5), entry(67, 65, score=0.5)]})))
    assert run_cli("loss", str(gt), str(dets), "--weights", "0,1.4e308,0,0") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"vtspot: {gt} vs {dets}: frame 0: the optimal total of "
                            "the 2x2 cost matrix overflows the float range\n")


def test_loss_of_apart_boxes_whose_areas_overflow_exits_one(tmp_path, capsys):
    """In a 1x1 video the boxes keep their size; a reference and a far
    detection whose areas overflow get no GIoU, and so no score: the error
    is the one giou raises for them."""
    def points(cx):
        return [cx - 5e153, -1e154, cx + 5e153, -1e154, cx + 5e153, 1e154, cx - 5e153, 1e154]

    header = {"video_id": "v", "width": 1, "height": 1, "frame_count": 1}
    gt, dets = tmp_path / "gt.json", tmp_path / "dets.json"
    gt.write_text(json.dumps(dict(header, frames={"0": [
        {"id": 1, "points": points(0.0), "transcription": "a"}]})))
    dets.write_text(json.dumps(dict(header, frames={"0": [
        {"score": 0.5, "points": points(5e155)}]})))
    assert run_cli("loss", str(gt), str(dets)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"vtspot: {gt} vs {dets}: frame 0: overlap areas must be "
                            "finite, got intersection 0.0 and union inf\n")


def test_loss_of_apart_boxes_whose_hull_overflows_exits_one(tmp_path, capsys):
    """Both areas are finite, but the hull enclosing two far boxes is not:
    the error is giou's, prefixed with both files and the frame."""
    def points(c):
        return [c - 5e149, c - 5e149, c + 5e149, c - 5e149, c + 5e149, c + 5e149,
                c - 5e149, c + 5e149]

    header = {"video_id": "v", "width": 1, "height": 1, "frame_count": 1}
    gt, dets = tmp_path / "gt.json", tmp_path / "dets.json"
    gt.write_text(json.dumps(dict(header, frames={"0": [
        {"id": 1, "points": points(0.0), "transcription": "a"}]})))
    dets.write_text(json.dumps(dict(header, frames={"0": [
        {"score": 0.5, "points": points(1e160)}]})))
    assert run_cli("loss", str(gt), str(dets)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"vtspot: {gt} vs {dets}: frame 0: overlap areas must be finite, got hull inf ")


def _loss_inputs(tmp_path, *detections):
    """One 20x10 box in each frame of a 100x100 video, and one detection
    per frame with the given points."""
    header = {"video_id": "v", "width": 100, "height": 100, "frame_count": len(detections)}
    box = [10, 10, 30, 10, 30, 20, 10, 20]
    gt, dets = tmp_path / "gt.json", tmp_path / "dets.json"
    gt.write_text(json.dumps(dict(header, frames={
        str(f): [{"id": 1, "points": box, "transcription": "a"}] for f in range(len(detections))})))
    dets.write_text(json.dumps(dict(header, frames={
        str(f): [{"score": 0.9, "points": points}] for f, points in enumerate(detections)})))
    return gt, dets


MOVED = [60, 10, 80, 10, 80, 20, 60, 20]  # 50 px to the right
TURNED = [25, 5, 25, 25, 15, 25, 15, 5]  # a quarter turn in place
MOVED_AND_TURNED = [75, 5, 75, 25, 65, 25, 65, 5]


@pytest.mark.parametrize("detections,weights,message", [
    # each frame's matching total is finite, and so are the l1 total (frame
    # 0) and the angle total (frame 1), but not their sum
    ((MOVED, TURNED), "0,1.7e308,0,1e308", "the video's loss total overflows the float range"),
    # the l1 total overflows when the third frame's term is added
    ((MOVED, MOVED, MOVED), "0,1.7e308,0,0", "the video's l1 total overflows the float range"),
    # the matching cost, offset by -w_cls * 0.9, is finite; the frame's
    # loss, whose class term is -log(0.9), is not
    ((MOVED_AND_TURNED,), "1.7e308,1.7e308,0,1e308", "frame 0's loss total overflows the float range"),
])
def test_loss_whose_totals_overflow_exits_one(tmp_path, capsys, detections, weights, message):
    gt, dets = _loss_inputs(tmp_path, *detections)
    out = tmp_path / "loss.json"
    assert run_cli("loss", str(gt), str(dets), "--weights", weights, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"vtspot: {message}\n")
    assert not out.exists()


def test_loss_bad_weights_exits_one(tmp_path):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("loss", str(gt_path), str(det_path), "--weights", "1,2")
    assert exc_info.value.code == 1


@pytest.mark.parametrize("weights,name", [
    ("nan,5,2,2", "w_cls"),
    ("1,inf,2,2", "w_l1"),
    ("1,5,-inf,2", "w_giou"),
    ("1,5,2,NaN", "w_angle"),
    ("1,5,2,-1", "w_angle"),
])
def test_loss_non_finite_or_negative_weight_exits_one(tmp_path, capsys, weights, name):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    with pytest.raises(SystemExit) as exc_info:
        run_cli("loss", str(gt_path), str(det_path), "--weights", weights)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must be finite and non-negative" in captured.err


def test_loss_zero_area_reference_exits_two_naming_the_field(tmp_path, capsys):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    doc["frames"]["1"][2]["points"] = [5, 5, 5, 5, 5, 5, 5, 5]
    gt_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("loss", str(gt_path), str(det_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{gt_path}: frames.1[2].points: quad area 0.0 is below" in captured.err


def test_loss_zero_area_reference_is_named_by_its_frame_key(tmp_path, capsys):
    gt_path, det_path = axis_aligned_fixture(tmp_path)
    doc = json.loads(gt_path.read_text())
    doc["frames"]["01"] = doc["frames"].pop("1")
    doc["frames"]["01"][0]["points"] = [5, 5, 5, 5, 5, 5, 5, 5]
    gt_path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli("loss", str(gt_path), str(det_path)) == 2
    assert f"{gt_path}: frames.01[0].points: quad area 0.0 is below" in capsys.readouterr().err


@pytest.mark.parametrize("points", [[5] * 8, [0, 0, 1, 1, 2, 2, 3, 3]])
def test_evaluate_zero_area_reference_exits_two_naming_the_field(tmp_path, capsys, points):
    z = tmp_path / "z.json"
    z.write_text(json.dumps({
        "video_id": "z", "width": 10, "height": 10, "frame_count": 1,
        "frames": {"0": [{"id": 0, "points": points, "transcription": "a"}]},
    }), encoding="utf-8")
    assert run_cli("evaluate", str(z), str(z)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{z}: frames.0[0].points: quad area 0.0 is below" in captured.err


def test_loss_video_mismatch_exits_three(tmp_path):
    gt_path, _ = axis_aligned_fixture(tmp_path)
    _, other_dets = make_synth(tmp_path, **{"--frames": 3})
    assert run_cli("loss", str(gt_path), str(other_dets)) == 3


@pytest.mark.parametrize("flags,detail", [
    ({"--seed": 2}, "video_id differs: 'synth-1' vs 'synth-2'"),
    ({"--frames": 6}, "frame_count differs: 5 vs 6"),
])
def test_loss_mismatch_names_both_files(tmp_path, capsys, flags, detail):
    gt, _ = make_synth(tmp_path, "a", **{"--seed": 1, "--frames": 5})
    _, dets = make_synth(tmp_path, "b", **{"--seed": 1, "--frames": 5, **flags})
    capsys.readouterr()
    assert run_cli("loss", str(gt), str(dets)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"vtspot: mismatched inputs: {gt} vs {dets}: {detail}\n"


def test_python_dash_m_version():
    package_root = str(Path(vtspot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run([sys.executable, "-m", "vtspot", "--version"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"vtspot {vtspot.__version__}"


@pytest.mark.parametrize("flag,value", [
    ("--iou-thresh", "0"),
    ("--iou-thresh", "-0.5"),
    ("--iou-thresh", "1.5"),
    ("--iou-thresh", "nan"),
])
def test_evaluate_gate_out_of_range_exits_one(tmp_path, capsys, flag, value):
    gt, _ = make_synth(tmp_path)
    assert run_cli("evaluate", flag, value, str(gt), str(gt)) == 1
    assert flag in capsys.readouterr().err
    # checked before any file is read
    assert run_cli("evaluate", flag, value, str(tmp_path / "missing.json"),
                   str(gt)) == 1


def test_evaluate_gate_range_ends_accepted(tmp_path, capsys):
    gt, _ = make_synth(tmp_path)
    assert run_cli("evaluate", "--iou-thresh", "1", str(gt), str(gt)) == 0
    assert json.loads(capsys.readouterr().out)["mota"] == 1.0


def test_evaluate_has_no_identity_floor(capsys):
    """``--iou-thresh`` gates identity too; a second identity gate is a
    usage error."""
    with pytest.raises(SystemExit) as exc_info:
        run_cli("evaluate", "--iou-floor", "0.2", "g.json", "p.json")
    assert exc_info.value.code == 1
    assert "unrecognized arguments: --iou-floor" in capsys.readouterr().err


def test_evaluate_corpus_bad_file_with_jobs_exits_two(tmp_path, capsys):
    gt_dir, pred_dir = corpus_dirs(tmp_path, 3)
    bad = pred_dir / "video1.json"
    doc = json.loads(bad.read_text())
    doc["video_id"] = 17
    bad.write_text(json.dumps(doc))
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir), "--jobs", "2") == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert "video_id: expected str, got int" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_corpus_video_mismatch_names_both_files(tmp_path, capsys, jobs):
    gt_dir, pred_dir = corpus_dirs(tmp_path, 3)
    bad = pred_dir / "video1.json"
    doc = json.loads(bad.read_text())
    doc["video_id"] = "elsewhere"
    bad.write_text(json.dumps(doc))
    assert run_cli("evaluate", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir), "--jobs", jobs) == 3
    err = capsys.readouterr().err
    assert f"{gt_dir / 'video1.json'} vs {bad}: video_id differs" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_evaluate_corpus_missing_transcription_names_both_files(tmp_path, capsys, jobs):
    gt_dir, pred_dir = corpus_dirs(tmp_path, 3)
    bad = pred_dir / "video1.json"
    doc = json.loads(bad.read_text())
    doc["frames"]["1"][0]["transcription"] = None
    bad.write_text(json.dumps(doc))
    assert run_cli("evaluate", "--task", "spotting", "--gt-dir", str(gt_dir),
                   "--pred-dir", str(pred_dir), "--jobs", jobs) == 1
    err = capsys.readouterr().err
    assert f"{gt_dir / 'video1.json'} vs {bad}: prediction track" in err
    assert "frame 1 has no transcription" in err


# ---------------------------------------------------------------------------
# --out paths ending in .gz
# ---------------------------------------------------------------------------


def gz_argv(command, gt, dets):
    return {
        "sample": ["sample", str(gt), "--k", "2"],
        "interpolate": ["interpolate", str(gt)],
        "track": ["track", str(dets)],
        "evaluate": ["evaluate", str(gt), str(gt)],
        "evaluate-csv": ["evaluate", "--format", "csv", str(gt), str(gt)],
        "loss": ["loss", str(gt), str(dets)],
    }[command]


@pytest.mark.parametrize("command", ["sample", "interpolate", "track",
                                     "evaluate", "evaluate-csv", "loss"])
def test_gz_out_is_compressed(tmp_path, command):
    gt, dets = make_synth(tmp_path, **{"--frames": 8})
    out = tmp_path / "out.gz"
    assert run_cli(*gz_argv(command, gt, dets), "--out", str(out)) == 0
    assert out.read_bytes()[:2] == b"\x1f\x8b"
    with gzip.open(out, "rt", encoding="utf-8") as fh:
        text = fh.read()
    if command == "evaluate-csv":
        assert text.startswith("video_id,scenario,task,precision")
    else:
        assert json.loads(text)["video_id"] == "synth-7"
    if command in ("sample", "interpolate", "track"):
        assert load_annotation(out).video_id == "synth-7"


@pytest.mark.parametrize("command", ["evaluate", "track", "loss"])
def test_truncated_gz_input_exits_two(tmp_path, capsys, command):
    gt, dets = make_synth(tmp_path, **{"--frames": 4})
    for path in (gt, dets):
        data = gzip.compress(path.read_bytes())
        path.with_suffix(".json.gz").write_bytes(data[:len(data) // 2])
    gt, dets = gt.with_suffix(".json.gz"), dets.with_suffix(".json.gz")
    argv = {"evaluate": ["evaluate", str(gt), str(gt)],
            "track": ["track", str(dets)],
            "loss": ["loss", str(gt), str(dets)]}[command]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{gt if command != 'track' else dets}: $: not a readable gzip stream" in captured.err


def test_gz_sample_feeds_interpolate(tmp_path):
    gt, _ = make_synth(tmp_path, **{"--frames": 9})
    sampled = tmp_path / "sampled.json.gz"
    dense = tmp_path / "dense.json.gz"
    assert run_cli("sample", str(gt), "--k", "3", "--out", str(sampled)) == 0
    assert run_cli("interpolate", str(sampled), "--k", "3", "--frames", "9",
                   "--out", str(dense)) == 0
    assert load_annotation(dense).frame_count == 9


# ---------------------------------------------------------------------------
# library defaults and the stdout encoding
# ---------------------------------------------------------------------------


def test_track_defaults_are_the_library_defaults(tmp_path):
    """Without options, each method runs with its config's defaults."""
    _, synth_path = make_synth(tmp_path, **{"--objects": 6, "--noise-sigma": 3,
                                            "--drop-prob": 0.3, "--motion": "rotate"})
    # spread the scores and misspell some words, so that every gate counts
    dets = load_detections(synth_path)
    for fd in dets.frames:
        fd.detections = [
            dataclasses.replace(d, score=(fd.frame_index + i) % 10 / 10,
                                transcription=d.transcription[:-1] + "#"
                                if (fd.frame_index + i) % 3 == 0 else d.transcription)
            for i, d in enumerate(fd.detections)]
    dets_path = tmp_path / "dets.json"
    save_detections(dets, dets_path)
    dets = load_detections(dets_path)
    linked = link([(fd.frame_index, [(d.box.quad, d.transcription or "")
                                     for d in fd.detections])
                   for fd in dets.frames], LinkerConfig())
    for argv, trajectories in (([], vtspot.track(dets.frames)),
                               (["--method", "linker"], linked)):
        out, expected = tmp_path / "out.json", tmp_path / "expected.json"
        assert run_cli("track", str(dets_path), *argv, "--out", str(out)) == 0
        save_trajectories(trajectories, dets.video_id, dets.width, dets.height,
                          dets.frame_count, expected)
        assert out.read_bytes() == expected.read_bytes()


def test_synth_defaults_are_the_library_defaults(tmp_path):
    paths = {name: tmp_path / f"{name}.json" for name in ("gt", "dets", "ref-gt", "ref-dets")}
    assert run_cli("synth", "--gt-out", str(paths["gt"]),
                   "--dets-out", str(paths["dets"])) == 0
    gt, dets = generate(SynthConfig())
    save_annotation(gt, paths["ref-gt"])
    save_detections(dets, paths["ref-dets"])
    assert paths["gt"].read_bytes() == paths["ref-gt"].read_bytes()
    assert paths["dets"].read_bytes() == paths["ref-dets"].read_bytes()


def bilingual_clip(tmp_path) -> Path:
    """A clip that both loaders read, with Chinese and English text."""
    path = tmp_path / "clip.json"
    path.write_text(json.dumps({
        "video_id": "出口-exit", "width": 64, "height": 48, "frame_count": 4,
        "frames": {str(f): [
            {"id": 0, "points": [1, 1, 9, 1, 9, 5, 1, 5], "transcription": "出口",
             "score": 0.9},
            {"id": 1, "points": [20, 20, 40, 20, 40, 30, 20, 30], "transcription": "EXIT",
             "score": 0.8},
        ] for f in range(4)},
    }, ensure_ascii=False), encoding="utf-8")
    return path


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
@pytest.mark.parametrize("command", ["track", "sample"])
def test_stdout_is_utf8_whatever_the_locale(tmp_path, command, encoding):
    clip = bilingual_clip(tmp_path)
    out = tmp_path / "out.json"
    assert run_cli(command, str(clip), "--out", str(out)) == 0
    proc = subprocess.run([sys.executable, "-m", "vtspot", command, str(clip)],
                          capture_output=True, timeout=60,
                          env=dict(child_env(), PYTHONIOENCODING=encoding))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


def test_main_restores_the_stdout_it_found(tmp_path, monkeypatch):
    clip = bilingual_clip(tmp_path)
    out = tmp_path / "out.json"
    assert run_cli("sample", str(clip), "--out", str(out)) == 0
    stream = io.TextIOWrapper(io.BytesIO(), encoding="latin-1", errors="backslashreplace")
    monkeypatch.setattr(sys, "stdout", stream)
    assert run_cli("sample", str(clip)) == 0
    assert (stream.encoding, stream.errors) == ("latin-1", "backslashreplace")
    stream.flush()
    assert stream.buffer.getvalue() == out.read_bytes()
    # a stream that cannot be reconfigured is written as it is
    text = io.StringIO()
    monkeypatch.setattr(sys, "stdout", text)
    assert run_cli("sample", str(clip)) == 0
    assert text.getvalue() == out.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# report bytes
# ---------------------------------------------------------------------------


def test_report_bytes_are_pinned(tmp_path, capsys):
    """The sha256 of every JSON report on two synthetic clips, as the
    package wrote them when they were pinned: ``loss`` of each clip's
    detections, and ``evaluate`` of each clip's tracked trajectories and of
    both as a corpus, for tracking and spotting."""
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    reports = {}

    def digest(name, *argv):
        assert run_cli(*argv) == 0
        reports[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()

    for seed, motion in ((1, "constant_velocity"), (2, "rotate")):
        gt, dets = make_synth(tmp_path, f"s{seed}", **{
            "--seed": seed, "--objects": 5, "--frames": 24, "--motion": motion,
            "--noise-sigma": 1.5, "--drop-prob": 0.1})
        pred = pred_dir / f"clip{seed}.json"
        assert run_cli("track", str(dets), "--out", str(pred)) == 0
        shutil.copy(gt, gt_dir / pred.name)
        digest(f"loss {seed}", "loss", str(gt), str(dets))
        for task in ("tracking", "spotting"):
            digest(f"{task} {seed}", "evaluate", str(gt), str(pred), "--task", task)
    for task in ("tracking", "spotting"):
        digest(f"{task} corpus", "evaluate", "--gt-dir", str(gt_dir),
               "--pred-dir", str(pred_dir), "--task", task)
    assert reports == {
        "loss 1": "56ee52d651d84ee98736f078cfdb7ef9f486dc477608a267f02c157c5cdb8b83",
        "tracking 1": "2a6f054037631bc47c1dbd73e7f6654b1a2c32e15aac9bd9fd414b53d30af1b1",
        "spotting 1": "f24f4d3d11501891633c45d6909a0f7f344b3dc8ef6ee1b4c373b8d14e1b04a4",
        "loss 2": "b33342415dd1fc30b3039ace49e31b6a0c821a9581c16beae84668cef843cc6f",
        "tracking 2": "f4f118202b943d4df80993063e76cf8bab5f9ea56029157507cb463ae70187c7",
        "spotting 2": "6021e9c7922bebd5d9ee94b5898983e26935e4b56ebd9af43f9ffd86b2d6083f",
        "tracking corpus": "ad4ca866114f4fbc18c121939d83b813883e742c281e1b6a7d1c1edff1fc25f1",
        "spotting corpus": "16fbed08d9a27020fc2e1718c7cd4bb780be4bc9fade1463e66d12f61899645e",
    }
