#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for vtspot.

    python3 bench/run.py --workload crowded --seed 1 --seconds 40 --trace 0

Builds a workload's synthetic clips from ``--seed``, writes them as JSON,
then runs rounds of every stage until ``--seconds`` are used up.  A round
is a closed loop with one caller: each call starts when the previous one
has returned.  The stages are

    track              vtspot.track over each clip's detections
    link               vtspot.link over the same detections
    eval_tracking      vtspot.evaluate(..., "tracking") on the tracker output
    eval_spotting      vtspot.evaluate(..., "spotting") on the tracker output
    loss               match_sets + set_loss_terms per frame, as `vtspot loss`
    corpus_track       `vtspot track FILE --out FILE` once per clip
    corpus_eval_jobs1  `vtspot evaluate --gt-dir --pred-dir --task spotting
                       --format csv --jobs 1`
    corpus_eval_jobs2  the same with --jobs 2

Every output is checked (see checks.py); a call that raises or an output
that fails a check is a failed operation.  Times are scaled to a reference
host speed measured by a probe (see PROBE_REF_S).  With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` traced rounds alternate with untraced ones and
the JSON holds the per-layer metrics instead (see layers.py).  README.md in this directory
explains the workloads and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference_digests.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
from layers import LayerAgg, Tracer  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 2  # never used while tuning; check claims on it too
MIN_ROUNDS = 4
JOBS = 2  # the corpus fan-out; this benchmark targets 2-core hosts

STAGES = ("track", "link", "eval_tracking", "eval_spotting", "loss",
          "corpus_track", "corpus_eval_jobs1", "corpus_eval_jobs2")

# Percentiles a tail latency may be reported at; the highest one with at
# least TAIL_BEYOND samples above it is used.  The samples are the frames
# of one round, each at its median latency over the rounds (see
# end_to_end), so the percentile depends on the workload only.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

# Other tenants of a shared host slow this process by up to 2x, in phases
# lasting from seconds to minutes, so no statistic over one run's rounds
# makes raw times repeat from run to run.  A fixed pure-Python probe is
# therefore timed right before and right after every timed stage, and the
# stage's time is scaled by PROBE_REF_S / (mean probe time), or by the
# ticks or the parallel probe below where they apply: the end-to-end
# metrics are times on a host that runs the probe in PROBE_REF_S, the
# probe's time on the 2-vCPU machine the benchmark was sized on when it was
# quiet.  The raw figures are printed beside them.
PROBE_REF_S = 0.0027
PROBE_ITERS = 20000

# The host's speed also changes within a stage, faster than probes at its
# ends can follow.  So while a stage runs in this process, a SIGALRM
# handler runs a short piece of the same probe loop every TICK_S, and the
# stage is scaled by the mean of those ticks instead; the ticks' own time
# is taken off the stage's time.  Traced rounds are not sampled, so that
# no tick lands inside a wrapped call's busy time, and neither is work
# done by worker processes (see parallel_probe_s).
TICK_S = 0.002
TICK_ITERS = 400
TICK_REF_S = PROBE_REF_S * TICK_ITERS / PROBE_ITERS


def _probe_loop(iters: int) -> float:
    """Seconds taken by a fixed loop over tuples, floats and a dict."""
    t0 = time.perf_counter()
    table, total = {}, 0.0
    for i in range(iters):
        pair = (i, i * 0.5)
        table[i & 255] = pair
        total += pair[1]
    return time.perf_counter() - t0


def probe_s() -> float:
    """Best of three timings of the probe loop."""
    return min(_probe_loop(PROBE_ITERS) for _ in range(3))


class HostSpeed:
    """The tick sampler.  ``spent`` is the total time ticks have taken so
    far, which lets a caller take the ticks out of any interval."""

    def __init__(self):
        self.ticks: list[float] = []
        self.spent = 0.0
        self._active = False
        # Installed for good, so that a signal still in flight after stop()
        # finds a handler that ignores it rather than the default action.
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._active:
            return
        t0 = time.perf_counter()
        self.ticks.append(_probe_loop(TICK_ITERS))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.ticks = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float | None:
        """Stop sampling; the scale to the reference speed, if any tick ran."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._active = False
        return TICK_REF_S / statistics.fmean(self.ticks) if self.ticks else None


@dataclass
class Timing:
    seconds: float  # wall time, ticks taken out
    scale: float  # to the reference host speed: ticks' if sampled, else edges'
    edge_scale: float  # from the probes at the two ends


def parallel_probe_s() -> float:
    """The probe loop run three times by JOBS processes at once; the mean
    of all their times.  Work spread over worker processes needs JOBS cores
    at once, which the probe in one process cannot see: when the host takes
    a core away, the processes here share the rest and their times grow.
    The mean, not the best, so that a core lost for part of the time
    counts."""
    go_r, go_w = os.pipe()
    children = []
    for _ in range(JOBS):
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: wait until every child exists, probe, report
            try:
                os.close(r)
                os.read(go_r, 1)
                os.write(w, repr(sum(_probe_loop(PROBE_ITERS) for _ in range(3)) / 3).encode())
            finally:
                os._exit(0)
        os.close(w)
        children.append((pid, r))
    os.write(go_w, b"x" * JOBS)
    os.close(go_r)
    os.close(go_w)
    times = []
    for pid, r in children:
        with os.fdopen(r) as f:
            times.append(float(f.read()))
        os.waitpid(pid, 0)
    return statistics.fmean(times)


def timed(fn, host: HostSpeed | None, probe=probe_s) -> Timing:
    """Time one call of ``fn`` between two runs of ``probe``, sampling the
    host's speed with ``host`` while it runs unless that is None."""
    before = probe()
    start = time.perf_counter()
    spent = host.spent if host else 0.0
    if host:
        host.start()
    try:
        fn()
    finally:
        tick_scale = host.stop() if host else None
        end = time.perf_counter()
    edge_scale = 2 * PROBE_REF_S / (before + probe())
    return Timing(end - start - ((host.spent - spent) if host else 0.0),
                  tick_scale or edge_scale, edge_scale)


@dataclass(frozen=True)
class Workload:
    clips: int
    synth: dict  # SynthConfig fields except the seed
    tiny_clips: int  # sizes for the smoke test (--tiny)
    tiny_frames: int

    def sized(self, tiny: bool) -> "Workload":
        if not tiny:
            return self
        return Workload(self.tiny_clips, {**self.synth, "n_frames": self.tiny_frames},
                        self.tiny_clips, self.tiny_frames)


# Why each workload exists is in README.md; in short:
#   crowded     ~98% of IoU pairs are disjoint, so geometry dominates
#   fragmented  about one new track per frame, so identity assignment on a
#               P x P matrix (P ~ frames) dominates evaluation; three clips,
#               because the P^3 cost of one clip varies a lot with the seed
#   corpus      many short clips through the CLI, so JSON I/O and the
#               --jobs fan-out carry weight
WORKLOADS = {
    "crowded": Workload(1, dict(n_objects=50, n_frames=8, motion="constant_velocity",
                                noise_sigma=1.0, drop_prob=0.05), 1, 3),
    "fragmented": Workload(3, dict(n_objects=6, n_frames=160, motion="rotate",
                                   noise_sigma=2.0, drop_prob=0.2), 2, 12),
    "corpus": Workload(20, dict(n_objects=6, n_frames=20, motion="constant_velocity",
                                noise_sigma=1.0, drop_prob=0.05), 3, 5),
}


def import_vtspot():
    """Import the package from this checkout's sources, never an installed
    copy; without them there is nothing to measure."""
    if not (SRC / "vtspot" / "__init__.py").is_file():
        sys.exit(f"bench: no vtspot sources at {SRC}/vtspot; run from a checkout")
    sys.path.insert(0, str(SRC))
    import vtspot
    import vtspot.cli
    return vtspot


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Clip:
    name: str
    gt: object
    dets: object
    link_frames: list
    loss_frames: list
    expected: object  # checks.expected_points
    ref_slots: int


@dataclass
class Context:
    vt: object
    seed: int
    wl: Workload
    clips: list[Clip]
    gt_dir: Path
    dets_dir: Path
    pred_dir: Path
    csv_dir: Path
    host: HostSpeed
    setups: list[Timing]  # each set-up
    tracer: Tracer | None = None

    @property
    def frames(self) -> int:
        return sum(c.gt.frame_count for c in self.clips)


def _normalized_box(box, width, height):
    return type(box)(box.cx / width, box.cy / height,
                     box.w / width, box.h / height, box.angle)


def _loss_frames(vt, gt, dets) -> list:
    """Per frame, the padded (gts, preds) sets `vtspot loss` matches."""
    out = []
    for fd in dets.frames:
        gts = [vt.GroundTruthInstance(box=_normalized_box(
                   vt.quad_to_rotated(inst.quad), gt.width, gt.height))
               for inst in gt.frames.get(fd.frame_index, []) if not inst.ignore]
        preds = [vt.PredictedInstance(class_prob=d.score,
                                      box=_normalized_box(d.box, gt.width, gt.height))
                 for d in fd.detections]
        while len(gts) < len(preds):
            gts.append(vt.GroundTruthInstance.padding())
        while len(preds) < len(gts):
            preds.append(vt.PredictedInstance(
                class_prob=0.0, box=vt.GroundTruthInstance.padding().box))
        out.append((gts, preds))
    return out


def clip_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def write_inputs(vt, wl: Workload, seed: int, gt_dir: Path, dets_dir: Path) -> list[str]:
    """The set-up: generate every clip and write its two files."""
    names = []
    for i in range(wl.clips):
        gt, dets = vt.generate(vt.SynthConfig(seed=clip_seed(seed, i), **wl.synth))
        name = f"clip-{i:03d}.json"
        vt.save_annotation(gt, gt_dir / name)
        vt.save_detections(dets, dets_dir / name)
        names.append(name)
    return names


def prepare(vt, wl: Workload, seed: int, workdir: Path) -> Context:
    """Set up once (timed), then read the inputs back the way the CLI does,
    so in-process stages and CLI stages see the same data."""
    dirs = [workdir / d for d in ("gt", "dets", "pred", "csv")]
    for d in dirs:
        d.mkdir(parents=True, exist_ok=True)
    host = HostSpeed()
    names = []
    setup = timed(lambda: names.extend(write_inputs(vt, wl, seed, dirs[0], dirs[1])), host)

    clips = []
    for n in names:
        gt = vt.load_annotation(dirs[0] / n)
        dets = vt.load_detections(dirs[1] / n)
        if any(i.ignore for insts in gt.frames.values() for i in insts):
            raise RuntimeError("synthetic references must have no ignore regions")
        link_frames = [
            (fd.frame_index,
             [(vt.rotated_to_quad(d.box), d.transcription or "") for d in fd.detections])
            for fd in dets.frames
        ]
        clips.append(Clip(n, gt, dets, link_frames, _loss_frames(vt, gt, dets),
                          checks.expected_points(vt, dets), checks.slot_count(gt)))
    return Context(vt, seed, wl, clips, *dirs, host, [setup])


# ---------------------------------------------------------------------------
# one round of every stage
# ---------------------------------------------------------------------------


@dataclass
class Round:
    traced: bool
    span: object = None
    wall: dict = field(default_factory=dict)      # stage -> s
    scale: dict = field(default_factory=dict)     # stage -> host-speed scale
    edge_scale: dict = field(default_factory=dict)  # stage -> scale from the end probes
    spans: dict = field(default_factory=dict)     # stage -> layers.Span
    digests: dict = field(default_factory=dict)   # stage -> sha256
    ops: dict = field(default_factory=dict)       # stage -> op count
    failed: set = field(default_factory=set)      # (stage, op index)
    errors: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    tracks: list = field(default_factory=list)
    link_trajectories: int = 0

    def fail(self, stage: str, index: int, message: str) -> None:
        self.failed.add((stage, index))
        self.errors.append(f"{stage}[{index}]: {message.strip()}")

    def fail_stage(self, stage: str, message: str) -> None:
        for i in range(self.ops.get(stage, 0)):
            self.fail(stage, i, message)


class StepClock:
    """Times each Tracker.step call while the track stage runs untraced;
    per-frame latency is what an online caller waits for.  Ticks of the
    host sampler that land in a step are taken out of it."""

    def __init__(self, tracker_cls, host: HostSpeed, out: list):
        self._cls, self._host, self._out = tracker_cls, host, out

    def __enter__(self):
        self._orig = orig = self._cls.__dict__["step"]
        host, out = self._host, self._out

        def step(tracker, *args, **kwargs):
            spent = host.spent
            t0 = time.perf_counter()
            result = orig(tracker, *args, **kwargs)
            out.append((time.perf_counter() - t0 - (host.spent - spent)) * 1e3)
            return result

        self._cls.step = step
        return self

    def __exit__(self, *exc):
        self._cls.step = self._orig


def _run_calls(ctx: Context, rnd: Round, stage: str, calls: list,
               in_process: bool = True) -> list:
    """Run the calls back to back and time them as one stage.  A call that
    raises yields None and a failed operation.  ``in_process`` is False
    when worker processes do the work, which the tick sampler cannot see."""
    outs = []
    tracer = ctx.tracer if rnd.traced else None
    span = tracer.open_span(stage, rnd.span) if tracer else None

    def run_all():
        if tracer:
            tracer.stage = span
            span.start = time.perf_counter()
        try:
            for i, call in enumerate(calls):
                try:
                    outs.append(call())
                except Exception:
                    outs.append(None)
                    rnd.fail(stage, i, traceback.format_exc())
        finally:
            if tracer:
                span.end = time.perf_counter()
                tracer.stage = None
                rnd.spans[stage] = span

    if in_process:
        timing = timed(run_all, None if rnd.traced else ctx.host)
    else:
        timing = timed(run_all, None, parallel_probe_s)
    rnd.wall[stage] = timing.seconds
    rnd.scale[stage] = timing.scale
    rnd.edge_scale[stage] = timing.edge_scale
    rnd.ops[stage] = len(calls)
    return outs


def _stage_track(ctx, rnd):
    vt = ctx.vt
    cfg = vt.TrackerConfig()
    calls = [lambda c=c: vt.track(c.dets.frames, cfg) for c in ctx.clips]
    if rnd.traced:
        outs = _run_calls(ctx, rnd, "track", calls)
    else:
        with StepClock(vt.Tracker, ctx.host, rnd.step_ms):
            outs = _run_calls(ctx, rnd, "track", calls)
        rnd.step_ms[:] = [ms * rnd.scale["track"] for ms in rnd.step_ms]
    rnd.tracks = outs
    _check_trajectories(ctx, rnd, "track", outs)


def _stage_link(ctx, rnd):
    vt = ctx.vt
    cfg = vt.LinkerConfig()
    outs = _run_calls(ctx, rnd, "link",
                      [lambda c=c: vt.link(c.link_frames, cfg) for c in ctx.clips])
    rnd.link_trajectories = sum(len(t) for t in outs if t is not None)
    _check_trajectories(ctx, rnd, "link", outs)


def _check_trajectories(ctx, rnd, stage, outs):
    parts = []
    for i, (clip, trajs) in enumerate(zip(ctx.clips, outs)):
        if trajs is None:
            parts.append("FAILED")
            continue
        err = checks.partition_error(clip.expected, trajs)
        if err:
            rnd.fail(stage, i, f"{clip.name}: {err}")
        parts.append(checks.trajectories_text(ctx.vt, trajs, clip.dets))
    rnd.digests[stage] = checks.digest(parts)


def _predictions(ctx, rnd) -> list:
    vt = ctx.vt
    return [
        None if t is None else vt.trajectories_to_annotation(
            t, c.dets.video_id, c.dets.width, c.dets.height, c.dets.frame_count)
        for c, t in zip(ctx.clips, rnd.tracks)
    ]


def _stage_eval(ctx, rnd, task):
    vt = ctx.vt
    stage = f"eval_{task}"
    preds = _predictions(ctx, rnd)
    outs = _run_calls(ctx, rnd, stage, [
        lambda c=c, p=p: vt.evaluate(c.gt, p, task) for c, p in zip(ctx.clips, preds)
    ])
    parts = []
    for i, (clip, pred, report) in enumerate(zip(ctx.clips, preds, outs)):
        if report is None:
            parts.append("FAILED")
            continue
        err = checks.report_error(report, clip.ref_slots, checks.slot_count(pred))
        if err:
            rnd.fail(stage, i, f"{clip.name}: {err}")
        parts.append(checks.canonical_json(report.to_dict()))
    rnd.digests[stage] = checks.digest(parts)


def _clip_loss(vt, frames) -> list:
    w = vt.CostWeights()
    out = []
    for gts, preds in frames:
        assignment = vt.match_sets(gts, preds, w)
        out.append((assignment, vt.set_loss_terms(gts, preds, assignment, w)))
    return out


def _stage_loss(ctx, rnd):
    vt = ctx.vt
    outs = _run_calls(ctx, rnd, "loss",
                      [lambda c=c: _clip_loss(vt, c.loss_frames) for c in ctx.clips])
    parts = []
    for i, (clip, frames) in enumerate(zip(ctx.clips, outs)):
        if frames is None:
            parts.append("FAILED")
            continue
        doc = []
        for (gts, _), (assignment, terms) in zip(clip.loss_frames, frames):
            err = checks.loss_error(len(gts), assignment.pairs, terms)
            if err:
                rnd.fail("loss", i, f"{clip.name}: {err}")
            doc.append({"pairs": [list(p) for p in assignment.pairs],
                        "match_cost": assignment.total_cost, "terms": terms})
        parts.append(checks.canonical_json(doc))
    rnd.digests["loss"] = checks.digest(parts)


def _stage_corpus_track(ctx, rnd):
    main = ctx.vt.cli.main
    paths = [(ctx.dets_dir / c.name, ctx.pred_dir / c.name) for c in ctx.clips]
    for _, out in paths:
        out.unlink(missing_ok=True)
    codes = _run_calls(ctx, rnd, "corpus_track", [
        lambda d=d, o=o: main(["track", str(d), "--out", str(o)]) for d, o in paths
    ])
    parts = []
    for i, ((_, out), code) in enumerate(zip(paths, codes)):
        if code != 0:
            if code is not None:
                rnd.fail("corpus_track", i, f"exit code {code}")
            parts.append("FAILED")
            continue
        parts.append(out.read_bytes())
    rnd.digests["corpus_track"] = checks.digest(parts)
    if rnd.digests["corpus_track"] != rnd.digests.get("track"):
        rnd.fail_stage("corpus_track",
                       "CLI track output differs from the in-process track output")


def _stage_corpus_eval(ctx, rnd, jobs):
    stage = f"corpus_eval_jobs{jobs}"
    out = ctx.csv_dir / f"jobs{jobs}.csv"
    out.unlink(missing_ok=True)
    argv = ["evaluate", "--gt-dir", str(ctx.gt_dir), "--pred-dir", str(ctx.pred_dir),
            "--task", "spotting", "--format", "csv", "--jobs", str(jobs),
            "--out", str(out)]
    (code,) = _run_calls(ctx, rnd, stage, [lambda: ctx.vt.cli.main(argv)],
                         in_process=jobs == 1 or len(ctx.clips) == 1)
    if code != 0:
        if code is not None:
            rnd.fail(stage, 0, f"exit code {code}")
        rnd.digests[stage] = checks.digest(["FAILED"])
        return
    data = out.read_bytes()
    rnd.digests[stage] = checks.digest([data])
    if data.count(b"\n") != len(ctx.clips) + 2:
        rnd.fail(stage, 0, "CSV needs a header, one row per clip and the aggregate")
    baseline = ctx.csv_dir / "jobs1.csv"
    if jobs != 1 and (not baseline.is_file() or data != baseline.read_bytes()):
        rnd.fail(stage, 0, f"--jobs {jobs} CSV differs from --jobs 1")


def run_round(ctx: Context, traced: bool) -> Round:
    rnd = Round(traced)
    if traced:
        rnd.span = ctx.tracer.open_span("round", None)
        ctx.tracer.install()
    try:
        _stage_track(ctx, rnd)
        _stage_link(ctx, rnd)
        _stage_eval(ctx, rnd, "tracking")
        _stage_eval(ctx, rnd, "spotting")
        _stage_loss(ctx, rnd)
        _stage_corpus_track(ctx, rnd)
        _stage_corpus_eval(ctx, rnd, 1)
        _stage_corpus_eval(ctx, rnd, JOBS)
        rnd.tracks = []  # rounds are kept to the end; their outputs are not
    finally:
        if traced:
            ctx.tracer.uninstall()
            rnd.span.end = time.perf_counter()
    return rnd


# ---------------------------------------------------------------------------
# correctness across rounds
# ---------------------------------------------------------------------------


def reference_digests(name: str, wl: Workload, seed: int) -> dict | None:
    """Stored digests for this workload and seed, if its sizes match."""
    if not REFERENCE.is_file():
        return None
    entry = json.loads(REFERENCE.read_text()).get(name)
    if not entry or entry["config"] != asdict(wl):
        return None
    return entry["digests"].get(str(seed))


def check_digests(rounds: list[Round], reference: dict | None) -> dict:
    """Every round must reproduce the reference, or lacking one the first
    round; traced rounds must match untraced ones.  Returns the verdict per
    stage: match, mismatch or none (no reference for this seed)."""
    expected = reference or rounds[0].digests
    for rnd in rounds:
        for stage in STAGES:
            if rnd.digests.get(stage) != expected.get(stage):
                rnd.fail_stage(stage, f"digest {rnd.digests.get(stage)} "
                                      f"!= expected {expected.get(stage)}")
    if reference is None:
        return {s: "none" for s in STAGES}
    return {s: "match" if rounds[0].digests.get(s) == reference.get(s) else "mismatch"
            for s in STAGES}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail_percentile(n: int) -> float:
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def end_to_end(ctx: Context, rounds: list[Round]):
    """(name, value, unit, samples, note) for every end-to-end metric."""
    frames, clips = ctx.frames, len(ctx.clips)
    plain = [r for r in rounds if not r.traced]

    def rate(name, stage, work, unit, note):
        rates = [work / (r.wall[stage] * r.scale[stage]) for r in plain]
        raw = statistics.median(work / r.wall[stage] for r in plain)
        return (name, statistics.median(rates), unit, len(rates),
                f"median round at reference host speed, raw {raw:.6g}; {note}")

    # Every round steps through the same frames in the same order, so step
    # i of one round is step i of every other.  A stall of the host hits a
    # random step of one round, while a slow frame is slow in every round:
    # the tail is taken over each frame's median latency, which keeps the
    # second and drops the first.
    steps = [ms for r in plain for ms in r.step_ms]
    per_frame = [statistics.median(ms) for ms in zip(*(r.step_ms for r in plain))]
    tail_p = tail_percentile(len(per_frame))
    return [
        rate("track_fps", "track", frames, "frames/s", f"{frames} frames a round"),
        ("track_step_ms_p50", statistics.median(steps), "ms", len(steps),
         "median Tracker.step at reference host speed"),
        ("track_step_ms_tail", percentile(per_frame, tail_p), "ms", len(per_frame),
         f"p{tail_p:g} over frames of each frame's median Tracker.step over"
         f" {len(plain)} rounds, at reference host speed"),
        rate("link_fps", "link", frames, "frames/s", f"{frames} frames a round"),
        rate("eval_tracking_fps", "eval_tracking", frames, "frames/s",
             f"{frames} reference frames a round"),
        rate("eval_spotting_fps", "eval_spotting", frames, "frames/s",
             f"{frames} reference frames a round"),
        rate("loss_fps", "loss", frames, "frames/s", f"{frames} frames a round"),
        rate("corpus_track_videos_per_s", "corpus_track", clips, "videos/s",
             f"{clips} clips a round"),
        rate("corpus_eval_videos_per_s", f"corpus_eval_jobs{JOBS}", clips, "videos/s",
             f"{clips} clips a round, --jobs {JOBS}"),
        rate("corpus_eval_jobs1_videos_per_s", "corpus_eval_jobs1", clips, "videos/s",
             f"{clips} clips a round, --jobs 1"),
        ("setup_s", statistics.median(t.seconds * t.scale for t in ctx.setups), "s",
         len(ctx.setups), "generate + write, before each round, at reference host speed;"
         f" raw {statistics.median(t.seconds for t in ctx.setups):.6g}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", 1, "this process"),
    ]


def _layer_values(rnd: Round) -> list:
    """(name, value, unit, exact, sources) from one traced round's stage
    spans.  ``exact`` marks counts, which must repeat in every round;
    ``sources`` are the wrapped targets the value needs."""
    out = []
    spans = rnd.spans

    def layer(stage, name):
        span = spans.get(stage)
        return span.layers.get(name, LayerAgg()) if span else LayerAgg()

    def add(name, value, unit, exact, *sources):
        out.append((name, value, unit, exact, sources))

    def ratio(a, b):
        return a / b if b else 0.0

    def overlap(prefix, agg, source):
        add(f"{prefix}.calls", agg.calls, "count", True, source)
        add(f"{prefix}.busy_s", agg.busy_s, "s", False, source)
        add(f"{prefix}.nonzero_ratio", ratio(agg.nonzero, agg.calls), "ratio", True, source)

    def assign(prefix, agg, source):
        add(f"{prefix}.calls", agg.calls, "count", True, source)
        add(f"{prefix}.busy_s", agg.busy_s, "s", False, source)
        add(f"{prefix}.cells", agg.cells, "count", True, source)
        add(f"{prefix}.max_n", agg.max_n, "count", True, source)

    iou = layer("track", "geometry.iou")
    hun = layer("track", "matching.hungarian")
    step = layer("track", "tracker.step")
    add("track.busy_s", spans["track"].wall_s, "s", False)
    overlap("track.geometry.iou", iou, "tracker.iou")
    assign("track.matching.hungarian", hun, "tracker.hungarian")
    add("track.tracker.step.self_s", step.busy_s - iou.busy_s - hun.busy_s, "s", False,
        "tracker.Tracker.step", "tracker.iou", "tracker.hungarian")
    add("track.tracker.trajectories.busy_s", layer("track", "tracker.trajectories").busy_s,
        "s", False, "tracker.Tracker.trajectories")
    add("track.tracker.tracks_born", step.born, "count", True, "tracker.Tracker.step")

    liou = layer("link", "geometry.iou")
    q2r = layer("link", "geometry.quad_to_rotated")
    add("link.busy_s", spans["link"].wall_s, "s", False)
    overlap("link.geometry.iou", liou, "linker.iou")
    add("link.geometry.quad_to_rotated.calls", q2r.calls, "count", True,
        "linker.quad_to_rotated")
    add("link.geometry.quad_to_rotated.busy_s", q2r.busy_s, "s", False,
        "linker.quad_to_rotated")
    add("link.linker.self_s", spans["link"].wall_s - liou.busy_s - q2r.busy_s, "s", False,
        "linker.iou", "linker.quad_to_rotated")
    add("link.linker.trajectories", rnd.link_trajectories, "count", True)

    for stage in ("eval_tracking", "eval_spotting"):
        clear = layer(stage, "metrics.clear")
        ident = layer(stage, "metrics.identity")
        add(f"{stage}.busy_s", spans[stage].wall_s, "s", False)
        add(f"{stage}.metrics.clear.busy_s", clear.busy_s, "s", False, "metrics.eval_mot")
        add(f"{stage}.metrics.identity.busy_s", ident.busy_s, "s", False, "metrics.eval_id")
        add(f"{stage}.metrics.detection.busy_s",
            spans[stage].wall_s - clear.busy_s - ident.busy_s, "s", False,
            "metrics.eval_mot", "metrics.eval_id")
        overlap(f"{stage}.geometry.quad_iou", layer(stage, "geometry.quad_iou"),
                "metrics.quad_iou")
        assign(f"{stage}.matching.hungarian", layer(stage, "matching.hungarian"),
               "metrics.hungarian")

    add("loss.busy_s", spans["loss"].wall_s, "s", False)
    add("loss.geometry.giou.calls", layer("loss", "geometry.giou").calls, "count", True,
        "matching.giou")
    add("loss.geometry.giou.busy_s", layer("loss", "geometry.giou").busy_s, "s", False,
        "matching.giou")
    add("loss.matching.hungarian.busy_s", layer("loss", "matching.hungarian").busy_s, "s",
        False, "matching.hungarian")

    # Worker processes do not report back, so file I/O is counted on the
    # in-process stages only: corpus_track and the --jobs 1 evaluation.
    for fn in ("load_annotation", "load_detections", "save_trajectories"):
        io_aggs = [layer(s, f"annotations.{fn}") for s in ("corpus_track", "corpus_eval_jobs1")]
        add(f"corpus.annotations.{fn}.calls", sum(a.calls for a in io_aggs), "count", True,
            f"cli.{fn}")
        add(f"corpus.annotations.{fn}.busy_s", sum(a.busy_s for a in io_aggs), "s", False,
            f"cli.{fn}")
        add(f"corpus.annotations.{fn}.bytes", sum(a.bytes for a in io_aggs), "bytes", True,
            f"cli.{fn}")
    for stage in ("corpus_track", "corpus_eval_jobs1", "corpus_eval_jobs2"):
        add(f"{stage}.busy_s", spans[stage].wall_s, "s", False)

    kernel = [layer("track", "geometry.iou"), layer("link", "geometry.iou")]
    zero_calls = sum(a.calls - a.nonzero for a in kernel)
    nonzero_calls = sum(a.nonzero for a in kernel)
    add("geometry.iou.zero_us", 1e6 * ratio(sum(a.zero_busy_s for a in kernel), zero_calls),
        "us", False, "tracker.iou", "linker.iou")
    add("geometry.iou.nonzero_us",
        1e6 * ratio(sum(a.nonzero_busy_s for a in kernel), nonzero_calls),
        "us", False, "tracker.iou", "linker.iou")
    return out


def per_layer(rounds: list[Round], absent: list[str]):
    """(name, value, unit, samples, note) for every per-layer metric whose
    wrapped targets all exist.  Counts must repeat exactly in every traced
    round, one checked operation per round; times are medians over the
    traced rounds."""
    traced = [r for r in rounds if r.traced]
    for rnd in traced:
        rnd.ops["trace"] = 1
    plain = [r for r in rounds if not r.traced]
    table = [_layer_values(r) for r in traced]
    out = []
    for i, (name, value, unit, exact, sources) in enumerate(table[0]):
        if any(s in absent for s in sources):
            continue
        values = [t[i][1] for t in table]
        if exact:
            for rnd, v in zip(traced[1:], values[1:]):
                if v != value:
                    rnd.fail("trace", 0, f"{name} = {v} here but {value} in the"
                                         " first traced round")
        out.append((name, value if exact else statistics.median(values), unit, len(values),
                    "exact count" if exact else "median"))

    def wall(rs):
        """Median round wall time at the reference host speed.  Traced
        rounds are never tick-sampled, so both kinds of round are scaled
        by their end probes here."""
        return statistics.median(sum(r.wall[s] * r.edge_scale[s] for s in r.wall) for r in rs)

    # The two evaluations run back to back, so their raw times are compared:
    # scaling them would mix the one-process and the JOBS-process probes.
    out.append(("corpus.cli.fanout_efficiency",
                statistics.median(r.wall["corpus_eval_jobs1"]
                                  / (JOBS * r.wall[f"corpus_eval_jobs{JOBS}"]) for r in plain),
                "ratio", len(plain), f"jobs-1 wall / ({JOBS} x jobs-{JOBS} wall), raw,"
                " median over untraced rounds"))
    out.append(("trace.overhead_ratio", wall(traced) / wall(plain), "ratio",
                len(traced), "traced round wall / untraced round wall, medians"))
    return out


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def settle_gc() -> None:
    """Collect, then freeze what is left, so that the cyclic collector
    never scans the benchmark's own data (the inputs, earlier rounds)
    during a timed call.  Without this a full collection that lands in one
    Tracker.step costs tens of milliseconds, which moves the step tail
    from run to run; objects the program creates afterwards are collected
    as usual."""
    gc.collect()
    gc.freeze()


def measure(ctx: Context, seconds: float, trace: bool) -> list[Round]:
    """Rounds until the next one would overrun ``seconds``; with tracing,
    untraced and traced rounds alternate so the overhead is measured on
    the same host state.  The set-up is repeated, timed, before every
    round, so its samples spread over the run like the stages' do."""
    rounds: list[Round] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        settle_gc()
        ctx.setups.append(timed(
            lambda: write_inputs(ctx.vt, ctx.wl, ctx.seed, ctx.gt_dir, ctx.dets_dir),
            ctx.host))
        settle_gc()
        rounds.append(run_round(ctx, traced=trace and len(rounds) % 2 == 1))
        longest = max(longest, time.perf_counter() - t0)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + longest > seconds:
            return rounds


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else repr(float(value))


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False) -> dict:
    """Run one workload and return the result object; the readable report
    goes to standard output as it is produced."""
    vt = import_vtspot()
    wl = WORKLOADS[workload].sized(tiny)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    try:
        ctx = prepare(vt, wl, seed, workdir)
        if trace:
            ctx.tracer = Tracer({"tracker": vt.tracker, "linker": vt.linker,
                                 "metrics": vt.metrics, "matching": vt.matching,
                                 "cli": vt.cli}, vt.Tracker)
        rounds = measure(ctx, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdicts = check_digests(rounds, reference_digests(workload, wl, seed))
    print(f"vtspot benchmark: workload={workload} seed={seed} trace={int(trace)}"
          f" tiny={int(tiny)} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})")
    print(f"env: python={platform.python_version()} nproc={os.cpu_count()}"
          f" platform={platform.platform()} jobs={JOBS}")
    print(f"input: {len(ctx.clips)} clips, {ctx.frames} frames,"
          f" clip seeds {clip_seed(seed, 0)}..{clip_seed(seed, len(ctx.clips) - 1)},"
          f" synth {wl.synth}")
    print(f"rounds: {sum(not r.traced for r in rounds)} untraced,"
          f" {sum(r.traced for r in rounds)} traced, in {seconds:g} s;"
          f" setup repeated {len(ctx.setups)} times")
    scales = [sc for r in rounds for sc in r.scale.values()]
    print(f"host speed: probe {PROBE_REF_S / statistics.median(scales) * 1e3:.4g} ms"
          f" (median; {min(scales):.3g}..{max(scales):.3g} of the reference"
          f" {PROBE_REF_S * 1e3:g} ms speed)")

    if trace:
        metrics = per_layer(rounds, ctx.tracer.absent)
        for target in ctx.tracer.absent:
            print(f"absent: wrapper target {target} no longer exists; its metrics"
                  " are not reported")
        spans_file = WORK / f"spans-{workload}-seed{seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "spans": [s.to_dict() for s in ctx.tracer.spans]}, indent=1))
        print(f"spans: {len(ctx.tracer.spans)} written to {spans_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(ctx, rounds)

    for name, value, unit, samples, note in metrics:
        print(f"metric {name} = {_fmt(value)} {unit} (n={samples}{'; ' + note if note else ''})")
    for stage in STAGES:
        print(f"digest {stage} sha256={rounds[0].digests.get(stage)}"
              f" reference={verdicts[stage]}")
    attempted = sum(sum(r.ops.values()) for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    print(f"ops_failed_ratio = {failed / attempted!r} ({failed} failed of {attempted}"
          " operations: one per clip per stage, one per corpus evaluate call)")
    for r in rounds:
        for message in r.errors[:5]:
            print(f"error: {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _, _ in metrics},
    }


def update_reference() -> None:
    """Record one round's digests for the default and held-out seeds of
    every workload at its full size."""
    vt = import_vtspot()
    doc = {}
    for name, wl in WORKLOADS.items():
        doc[name] = {"config": asdict(wl), "digests": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            workdir = WORK / f"reference-{name}-{seed}"
            try:
                ctx = prepare(vt, wl, seed, workdir)
                rnd = run_round(ctx, traced=False)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if rnd.failed:
                sys.exit(f"bench: {name} seed {seed} failed checks: {rnd.errors[:3]}")
            doc[name]["digests"][str(seed)] = rnd.digests
            print(f"{name} seed {seed}: {rnd.digests}")
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to keep starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced rounds")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; no reference digests apply")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference_digests.json and exit")
    args = parser.parse_args(argv)
    if args.update_reference:
        update_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
