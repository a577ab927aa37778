"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_listed_metric(workload, trace):
    result = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                            "--trace", str(trace), "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def _drop_last_point(trajectories):
    longest = max(trajectories, key=lambda t: len(t.frames))
    del longest.frames[max(longest.frames)]
    return trajectories


def _corrupt(vt, monkeypatch, stage):
    if stage == "evaluate":
        original = vt.evaluate

        def evaluate(*args, **kwargs):
            report = original(*args, **kwargs)
            report.det.tp += 1
            return report
        monkeypatch.setattr(vt, "evaluate", evaluate)
    else:
        original = getattr(vt, stage)
        monkeypatch.setattr(vt, stage,
                            lambda *a, **k: _drop_last_point(original(*a, **k)))


@pytest.mark.parametrize("stage", ["track", "link", "evaluate"])
def test_corrupted_output_counts_as_failed(stage, monkeypatch):
    vt = run.import_vtspot()
    clean = run.run_benchmark("corpus", 7, 0, False, tiny=True)
    assert clean["correct"] and clean["failed"] == 0
    _corrupt(vt, monkeypatch, stage)
    result = run.run_benchmark("corpus", 7, 0, False, tiny=True)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def _digest_lines(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("digest ")]


def test_digests_do_not_depend_on_hash_seed():
    runs = []
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        proc = _bench("--workload", "corpus", "--seed", "3", "--seconds", "0",
                      "--trace", "0", "--tiny", env=env)
        assert _result(proc)["correct"]
        runs.append(_digest_lines(proc.stdout))
    assert len(runs[0]) == len(run.STAGES)
    assert runs[0] == runs[1]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _bench("--workload", "crowded", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
