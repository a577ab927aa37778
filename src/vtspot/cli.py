"""Command-line surface: evaluate, track, interpolate, sample, loss, synth.

Exit codes: 0 success, 1 usage error, 2 malformed or unreadable input,
3 mismatched inputs (different videos).  Reports go to stdout, in UTF-8
whatever the locale, unless ``--out`` is given (a name ending in ".gz" is
written gzip-compressed); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .annotations import (
    _dump_json,
    _open,
    interpolate,
    load_annotation,
    load_detections,
    sample,
    save_annotation,
    save_detections,
    save_trajectories,
)
from .errors import DataError, SchemaError, VideoMismatch
from .geometry import quad_to_rotated
from .linker import LinkerConfig, link
from .matching import (
    _TERM_NAMES,
    CostWeights,
    GroundTruthInstance,
    PredictedInstance,
    match_sets,
    set_loss_terms,
)
from .metrics import (
    _RATIO_NAMES,
    MetricsReport,
    _check_same_video,
    aggregate,
    evaluate,
)
from .synth import MOTIONS, SynthConfig, generate
from .tracker import TrackerConfig
from .tracker import run as run_tracker

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for bad
    input files, so usage problems are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _weights(text: str) -> CostWeights:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected four comma-separated numbers: w_cls,w_l1,w_giou,w_angle"
        )
    try:
        return CostWeights(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _env_jobs(parser: argparse.ArgumentParser) -> int:
    """The worker count VTSPOT_JOBS gives, checked like --jobs."""
    raw = os.environ.get("VTSPOT_JOBS", "1")
    try:
        return _positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError):
        parser.error(f"VTSPOT_JOBS must be an integer >= 1, got {raw!r}")


def _config(cls, args):
    """The ``cls`` of the options given, each stored under its field's name;
    the parser's ``argument_default=SUPPRESS`` omits the rest, so defaults hold."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in dataclasses.fields(cls)
                  if f.name in given})


def _csv_rows(reports: list[MetricsReport], target) -> None:
    with _open(target, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(["video_id", "scenario", "task", *_RATIO_NAMES,
                         "mt", "ml", "degenerate"])
        for r in reports:
            writer.writerow([
                r.video_id if r.video_id is not None else "ALL",
                r.scenario or "",
                r.task,
                *(f"{getattr(r, name):.6f}" for name in _RATIO_NAMES),
                r.mt,
                r.ml,
                ";".join(r.degenerate),
            ])


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _eval_pair(pair: tuple[str, str], **settings) -> MetricsReport:
    gt_path, pred_path = pair
    gt = load_annotation(gt_path)
    pred = load_annotation(pred_path)
    try:
        return evaluate(gt, pred, **settings)
    except ValueError as exc:  # the same kind, so the same exit code
        raise type(exc)(f"{gt_path} vs {pred_path}: {exc}") from None


def _annotation_files(directory: str) -> dict[str, Path]:
    """The directory's files in the two annotation formats, by name."""
    return {p.name: p for p in Path(directory).iterdir()
            if p.name.endswith((".json", ".json.gz"))}


def _corpus_pairs(gt_dir: str, pred_dir: str) -> list[tuple[str, str]]:
    gt_names = _annotation_files(gt_dir)
    pred_names = _annotation_files(pred_dir)
    missing = sorted(set(gt_names) - set(pred_names))
    extra = sorted(set(pred_names) - set(gt_names))
    if missing or extra:
        detail = []
        if missing:
            detail.append(f"missing predictions for {', '.join(missing)}")
        if extra:
            detail.append(f"predictions without references: {', '.join(extra)}")
        raise DataError("; ".join(detail))
    return [(str(gt_names[n]), str(pred_names[n])) for n in sorted(gt_names)]


def cmd_evaluate(args) -> int:
    n_workers = args.jobs if args.jobs is not None else _env_jobs(args.parser)
    if not (0.0 < args.iou_thresh <= 1.0):
        raise ValueError(f"--iou-thresh must be in (0, 1], got {args.iou_thresh}")
    if (args.gt_dir is None) != (args.pred_dir is None):
        args.parser.error("--gt-dir and --pred-dir must be used together")
    if args.gt_dir is not None:
        if args.gt is not None or args.pred is not None:
            args.parser.error("give either file paths or --gt-dir/--pred-dir")
        pairs = _corpus_pairs(args.gt_dir, args.pred_dir)
        if not pairs:
            raise DataError(f"no annotation files found in {args.gt_dir}")
    else:
        if args.gt is None or args.pred is None:
            args.parser.error("need a reference and a prediction file")
        pairs = [(args.gt, args.pred)]

    score = functools.partial(
        _eval_pair, task=args.task, iou_thresh=args.iou_thresh,
        case_insensitive=args.case_insensitive)
    if n_workers > 1 and len(pairs) > 1:
        # the pool starts all its workers at once: no more than the pairs
        with ProcessPoolExecutor(max_workers=min(n_workers, len(pairs))) as pool:
            reports = list(pool.map(score, pairs))
    else:
        reports = [score(pair) for pair in pairs]

    # a pair of files gives its own report; a corpus adds the pooled one
    summary = [] if args.gt_dir is None else [aggregate(reports)]
    if args.format == "csv":
        write, doc = _csv_rows, reports + summary
    elif summary:
        write, doc = _dump_json, {"videos": [r.to_dict() for r in reports],
                                  "aggregate": summary[0].to_dict()}
    else:
        write, doc = _dump_json, reports[0].to_dict()
    write(doc, args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------


def cmd_track(args) -> int:
    # Both configurations are built before the file is read, so that every
    # option is range-checked (a ValueError, exit 1) whatever the method.
    tracker_cfg = _config(TrackerConfig, args)
    linker_cfg = _config(LinkerConfig, args)
    dets = load_detections(args.detections)
    if args.method == "transformer-assoc":
        trajectories = run_tracker(dets.frames, tracker_cfg)
    else:
        frames = [
            (fd.frame_index,
             [(d.box.quad, d.transcription)
              for d in fd.detections if d.score >= tracker_cfg.min_score])
            for fd in dets.frames
        ]
        trajectories = link(frames, linker_cfg)

    save_trajectories(trajectories, dets.video_id, dets.width,
                      dets.height, dets.frame_count, args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# interpolate / sample
# ---------------------------------------------------------------------------


def cmd_interpolate(args) -> int:
    loaded = load_annotation(args.annotation)
    for idx in loaded.frames:
        if idx % args.k:
            raise SchemaError(
                f"frames.{idx}",
                f"frame {idx} is not on the k={args.k} sampling lattice",
                args.annotation,
            )
    target = loaded.frame_count if args.frames is None else args.frames
    smallest = max(loaded.frames, default=0) + 1
    if target < smallest:
        args.parser.error(
            f"{args.annotation}: --frames {target} is too small; its highest "
            f"keyframe is {smallest - 1}, so --frames must be at least {smallest}"
        )
    save_annotation(interpolate(loaded, target), args.out or sys.stdout)
    return 0


def cmd_sample(args) -> int:
    dense = load_annotation(args.annotation)
    save_annotation(sample(dense, args.k), args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _normalized_box(box, width, height):
    return type(box)(box.cx / width, box.cy / height,
                     box.w / width, box.h / height, box.angle)


def _loss_sum(terms: dict[str, float], whose: str) -> float:
    """``math.fsum`` of the loss terms of ``whose`` (``"frame 3's"`` or
    ``"the video's"``).  A term or a sum past the float range raises
    ValueError naming it."""
    for key, value in terms.items():
        if not math.isfinite(value):
            raise ValueError(f"{whose} {key} total overflows the float range")
    try:
        return math.fsum(terms.values())
    except OverflowError:
        raise ValueError(f"{whose} loss total overflows the float range") from None


def cmd_loss(args) -> int:
    gt = load_annotation(args.gt)
    preds = load_detections(args.pred)
    try:
        _check_same_video(gt, preds)
    except VideoMismatch as exc:
        raise VideoMismatch(f"{args.gt} vs {args.pred}: {exc}") from None
    w = args.weights
    frames_out = []
    totals = dict.fromkeys(_TERM_NAMES, 0.0)
    listed = {fd.frame_index: fd.detections for fd in preds.frames}
    # a frame that neither input lists adds exactly 0.0 to every term
    for f in sorted(gt.frames.keys() | listed.keys()):
        gts = [
            GroundTruthInstance(box=_normalized_box(quad_to_rotated(inst.quad),
                                                    gt.width, gt.height))
            for inst in gt.frames.get(f, []) if not inst.ignore
        ]
        predicted = [
            PredictedInstance(
                class_prob=d.score,
                box=_normalized_box(d.box, gt.width, gt.height),
            )
            for d in listed.get(f, ())
        ]
        while len(gts) < len(predicted):
            gts.append(GroundTruthInstance.padding())
        while len(predicted) < len(gts):
            predicted.append(PredictedInstance(class_prob=0.0,
                                               box=GroundTruthInstance.padding().box))
        try:
            assignment = match_sets(gts, predicted, w)
            terms = set_loss_terms(gts, predicted, assignment, w)
        except ValueError as exc:  # the same kind, so the same exit code
            raise type(exc)(f"{args.gt} vs {args.pred}: frame {f}: {exc}") from None
        for key in totals:
            totals[key] += terms[key]
        frames_out.append({
            "frame": f,
            "pairs": [list(p) for p in assignment.pairs],
            "match_cost": assignment.total_cost,
            "terms": terms,
            "loss": _loss_sum(terms, f"frame {f}'s"),
        })
    payload = {
        "video_id": gt.video_id,
        "weights": dataclasses.asdict(w),
        "frames": frames_out,
        "totals": totals,
        "loss": _loss_sum(totals, "the video's"),
    }
    _dump_json(payload, args.out or sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    gt, dets = generate(_config(SynthConfig, args))
    save_annotation(gt, args.gt_out)
    save_detections(dets, args.dets_out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process.  ``parse_args`` leaves it as it was,
    and each subcommand's ``func`` looks the loaders and writers up as
    module globals when it runs, so a rebound global is still called."""
    parser = _Parser(prog="vtspot",
                     description="video text tracking and spotting toolkit")
    parser.add_argument("--version", action="version",
                        version=f"vtspot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p_eval = sub.add_parser("evaluate", help="score predictions against a reference")
    p_eval.add_argument("gt", nargs="?", help="reference annotation JSON")
    p_eval.add_argument("pred", nargs="?", help="prediction annotation JSON")
    p_eval.add_argument("--gt-dir", help="directory of reference files")
    p_eval.add_argument("--pred-dir", help="directory of prediction files")
    p_eval.add_argument("--task", choices=("detection", "tracking", "spotting"),
                        default="tracking")
    p_eval.add_argument("--iou-thresh", type=float, default=0.5,
                        help="IoU gate of every pass (detection, CLEAR and "
                             "identity), in (0, 1]")
    p_eval.add_argument("--case-insensitive", action="store_true",
                        help="fold case when comparing transcriptions")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", help="write the report here instead of stdout")
    p_eval.add_argument("--jobs", type=_positive_int, default=None,
                        help="parallel workers for corpus evaluation "
                             "(default: VTSPOT_JOBS or 1)")
    p_eval.set_defaults(func=cmd_evaluate, parser=p_eval)

    p_track = sub.add_parser("track", help="link detections into trajectories",
                             argument_default=argparse.SUPPRESS)
    p_track.add_argument("detections", help="detections JSON")
    p_track.add_argument("--method",
                         choices=("transformer-assoc", "linker"),
                         default="transformer-assoc")
    p_track.add_argument("--iou-thresh", dest="iou_threshold", metavar="IOU_THRESH",
                         type=float,
                         help="association gate (default 0.5, linker 0.3)")
    p_track.add_argument("--max-age", type=int,
                         help="frames a track survives unmatched")
    p_track.add_argument("--min-score", type=float)
    p_track.add_argument("--window", type=int,
                         help="linker: how many past frames to search")
    p_track.add_argument("--max-norm-edit", type=float,
                         help="linker: normalized edit-distance gate")
    p_track.add_argument("--out", default=None)
    p_track.set_defaults(func=cmd_track, parser=p_track)

    p_interp = sub.add_parser("interpolate",
                              help="densify a sampled annotation")
    p_interp.add_argument("annotation", help="sampled annotation JSON")
    p_interp.add_argument("--frames", type=_positive_int, default=None,
                          help="dense frame count, at least the highest "
                               "keyframe + 1 (default: the input's "
                               "frame_count)")
    p_interp.add_argument("--k", type=_positive_int, default=1,
                          help="sampling stride the input's frames must lie "
                               "on (default 1: any frame)")
    p_interp.add_argument("--out")
    p_interp.set_defaults(func=cmd_interpolate, parser=p_interp)

    p_sample = sub.add_parser("sample", help="keep every k-th frame")
    p_sample.add_argument("annotation", help="dense annotation JSON")
    p_sample.add_argument("--k", type=_positive_int, default=3)
    p_sample.add_argument("--out")
    p_sample.set_defaults(func=cmd_sample, parser=p_sample)

    p_loss = sub.add_parser("loss",
                            help="set-prediction loss of detections vs reference")
    p_loss.add_argument("gt", help="reference annotation JSON")
    p_loss.add_argument("pred", help="detections JSON with scores")
    p_loss.add_argument("--weights", type=_weights,
                        default=CostWeights(),
                        help="w_cls,w_l1,w_giou,w_angle (default 1,5,2,2)")
    p_loss.add_argument("--out")
    p_loss.set_defaults(func=cmd_loss, parser=p_loss)

    p_synth = sub.add_parser("synth", help="generate a synthetic video world",
                             argument_default=argparse.SUPPRESS)
    p_synth.add_argument("--objects", dest="n_objects", metavar="OBJECTS",
                         type=_positive_int)
    p_synth.add_argument("--frames", dest="n_frames", metavar="FRAMES",
                         type=_positive_int)
    p_synth.add_argument("--motion", choices=MOTIONS)
    p_synth.add_argument("--noise-sigma", type=float)
    p_synth.add_argument("--drop-prob", type=float)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--gt-out", required=True)
    p_synth.add_argument("--dets-out", required=True)
    p_synth.set_defaults(func=cmd_synth, parser=p_synth)

    return parser


@contextlib.contextmanager
def _utf8_stdout():
    """Stdout is UTF-8, like both formats, while a command runs, whatever the
    locale, and is restored after; a stream without ``reconfigure`` is left be."""
    stream = sys.stdout
    reconfigure = getattr(stream, "reconfigure", None)
    if reconfigure is None:
        yield
        return
    encoding, errors = stream.encoding, stream.errors
    reconfigure(encoding="utf-8", errors="strict")
    try:
        yield
    finally:
        reconfigure(encoding=encoding, errors=errors)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _utf8_stdout():
            return args.func(args)
    except VideoMismatch as exc:
        print(f"vtspot: mismatched inputs: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"vtspot: bad input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"vtspot: cannot read or write: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"vtspot: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
