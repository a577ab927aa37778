"""Evaluation stack for video text detection, tracking, and spotting.

Three families of numbers, all computed from two annotation documents
(reference and predictions) over the same video:

* detection quality: per-frame precision / recall / F-score under the
  one-to-one max-IoU matching ``gated_assign`` makes, the one CLEAR makes
  on a frame with no earlier correspondence,
* CLEAR tracking quality: MOTA (misses, false positives, identity
  mismatches) and MOTP (mean matched IoU),
* identity quality: IDP / IDR / IDF1 from a global trajectory-level
  assignment, plus mostly-tracked / mostly-lost counts.

Reference instances transcribed with the ignore marker are excluded, and
a prediction lying on an ignored region (IoU with it at least
``IGNORE_GATE``, whatever ``iou_thresh`` is) is discarded rather than
punished, once, so that all three families count the same predictions.
``evaluate`` computes each frame's predictions and overlaps once, in a
table that all three families read.  The table is the one place the gates
apply: it holds the predictions off every region and, of their pairs,
those at or above ``iou_thresh``, which detection and CLEAR match and
identity counts, as TrackEval and py-motmetrics do.  For spotting it
keeps only the pairs whose normalized transcriptions are equal, so every
family counts a word only when it is read right, as the ICDAR 2015 "Text
in Videos" end-to-end task does.
Every ratio with a zero denominator is reported as 0 and named in the
report's ``degenerate`` list.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import asdict, dataclass, field, fields

from .annotations import Instance, VideoAnnotation
from .errors import EmptyInput, MissingTranscription, VideoMismatch
from .geometry import Quad, near_pairs, quad_iou, quad_to_rotated
from .matching import gated_assign
from .matching import hungarian  # noqa: F401  bench/layers.py wraps this name

__all__ = [
    "DetCounters",
    "MotCounters",
    "IdCounters",
    "MetricsReport",
    "evaluate",
    "aggregate",
    "normalize_transcription",
]

# predictions overlapping an ignored reference region at or above this IoU
# are dropped from every evaluation pass, whatever iou_thresh is
IGNORE_GATE = 0.5


# ---------------------------------------------------------------------------
# counters and the report
# ---------------------------------------------------------------------------


# the report's ratios, in the order of its JSON keys and CSV columns
_RATIO_NAMES = ("precision", "recall", "fscore", "mota", "motp",
                "idp", "idr", "idf1")


def _ratio(num: float, den: float, name: str, flags: list[str]) -> float:
    if den == 0:
        flags.append(name)
        return 0.0
    return num / den


class _Counters:
    """Raw counters that add field by field, so that pooled counters are
    the counters of the pooled videos."""

    __slots__ = ()

    def __add__(self, other):
        return type(self)(*(getattr(self, f.name) + getattr(other, f.name)
                            for f in fields(self)))


@dataclass(slots=True)
class DetCounters(_Counters):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def ratios(self, flags: list[str]) -> tuple[float, float, float]:
        """(precision, recall, F-score); each ratio with an empty
        denominator is 0 and its name is appended to ``flags``."""
        p = _ratio(self.tp, self.tp + self.fp, "precision", flags)
        r = _ratio(self.tp, self.tp + self.fn, "recall", flags)
        return p, r, _ratio(2 * p * r, p + r, "fscore", flags)


@dataclass(slots=True)
class MotCounters(_Counters):
    misses: int = 0
    false_positives: int = 0
    mismatches: int = 0
    matches: int = 0
    gt_count: int = 0
    matched_iou_sum: float = 0.0

    def ratios(self, flags: list[str]) -> tuple[float, float]:
        """(MOTA, MOTP), flagged like ``DetCounters.ratios``."""
        errors = self.misses + self.false_positives + self.mismatches
        mota = (
            1.0 - errors / self.gt_count if self.gt_count > 0
            else _ratio(0.0, 0.0, "mota", flags)
        )
        return mota, _ratio(self.matched_iou_sum, self.matches, "motp", flags)


@dataclass(slots=True)
class IdCounters(_Counters):
    id_tp: int = 0
    id_fp: int = 0
    id_fn: int = 0
    gt_tracks: int = 0

    def ratios(self, flags: list[str]) -> tuple[float, float, float]:
        """(IDP, IDR, IDF1), flagged like ``DetCounters.ratios``."""
        tp = self.id_tp
        idp = _ratio(tp, tp + self.id_fp, "idp", flags)
        idr = _ratio(tp, tp + self.id_fn, "idr", flags)
        idf1 = _ratio(2 * tp, 2 * tp + self.id_fp + self.id_fn, "idf1", flags)
        return idp, idr, idf1


@dataclass(slots=True)
class MetricsReport:
    """A task's counters and, computed from them when the report is made,
    its ratios and ``degenerate`` flags.  The CLEAR and identity ratios
    stay 0 for the detection task."""

    task: str
    precision: float = field(default=0.0, init=False)
    recall: float = field(default=0.0, init=False)
    fscore: float = field(default=0.0, init=False)
    mota: float = field(default=0.0, init=False)
    motp: float = field(default=0.0, init=False)
    idp: float = field(default=0.0, init=False)
    idr: float = field(default=0.0, init=False)
    idf1: float = field(default=0.0, init=False)
    mt: int = 0
    ml: int = 0
    det: DetCounters = field(default_factory=DetCounters)
    mot: MotCounters = field(default_factory=MotCounters)
    ids: IdCounters = field(default_factory=IdCounters)
    degenerate: tuple[str, ...] = field(default=(), init=False)
    video_id: str | None = None
    scenario: str | None = None

    def __post_init__(self):
        flags: list[str] = []
        self.precision, self.recall, self.fscore = self.det.ratios(flags)
        if self.task != "detection":
            self.mota, self.motp = self.mot.ratios(flags)
            self.idp, self.idr, self.idf1 = self.ids.ratios(flags)
        self.degenerate = tuple(flags)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "video_id": self.video_id,
            "scenario": self.scenario,
            **{name: getattr(self, name) for name in _RATIO_NAMES},
            "mt": self.mt,
            "ml": self.ml,
            "degenerate": list(self.degenerate),
            "counters": {
                "detection": asdict(self.det),
                "mot": asdict(self.mot),
                "identity": asdict(self.ids),
            },
        }


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def normalize_transcription(text: str, case_insensitive: bool = False) -> str:
    """Canonical form used for transcription equality: Unicode NFC plus
    surrounding-whitespace trim, with optional case folding."""
    out = unicodedata.normalize("NFC", text).strip()
    return out.casefold() if case_insensitive else out


def _check_same_video(gt: VideoAnnotation, pred) -> None:
    """``pred`` is an annotation or a detections file."""
    if gt.video_id != pred.video_id:
        raise VideoMismatch(
            f"video_id differs: {gt.video_id!r} vs {pred.video_id!r}"
        )
    if gt.frame_count != pred.frame_count:
        raise VideoMismatch(
            f"frame_count differs: {gt.frame_count} vs {pred.frame_count}"
        )


def _usable_quad(quad: Quad) -> Quad:
    """Overlap math needs convex input; a non-convex (but simple) quad is
    replaced by its minimum-area enclosing rotated box."""
    return quad if quad.is_convex() else quad_to_rotated(quad).quad


@dataclass(slots=True)
class _FrameTable:
    """One frame's predictions and gated pairs, computed once and read by
    every metric pass; no pass gates a pair or drops a prediction itself.

    ``preds`` are the frame's predictions off every ignored reference
    region: detection, CLEAR and identity all count these.  ``gated`` maps
    (gt track id, pred track id) to ``quad_iou(gt, pred)`` for the
    ``near_pairs`` of ``gt`` and ``preds`` whose IoU is at or above
    ``iou_thresh``; for spotting, only those whose normalized
    transcriptions are equal.  Detection and CLEAR match these pairs and
    identity counts them.  Track ids are unique within a frame, so every
    pass reads the keys as they are, whatever order the documents list
    the instances in.
    """

    frame: int
    gt: list[Instance]
    preds: list[Instance]
    gated: dict[tuple[int, int], float]


def _frame_tables(gt: VideoAnnotation, pred: VideoAnnotation, iou_thresh: float,
                  spotting: bool, case_insensitive: bool) -> list[_FrameTable]:
    """One table per frame that either document lists, in index order;
    ignored reference instances become regions, ignored predictions are
    dropped, and so is a prediction on a region: one whose IoU with a
    region reaches ``IGNORE_GATE``, whatever ``iou_thresh`` is.  A frame
    that lists no region keeps every prediction.

    When ``spotting``, a kept prediction without a transcription raises
    MissingTranscription, and a pair that reaches the gate is kept only
    if its transcriptions are equal after ``normalize_transcription``
    (folding case when ``case_insensitive``), a missing reference text
    reading as "".  Its IoU is worked out first, so an overflowing pair
    raises whatever its words say; each distinct transcription is
    normalized once per call."""
    _check_same_video(gt, pred)
    word = functools.cache(lambda text: normalize_transcription(text, case_insensitive))
    tables = []
    for f in sorted(gt.frames.keys() | pred.frames.keys()):
        active, ignored = [], []
        for inst in gt.frames.get(f, []):
            (ignored if inst.ignore else active).append(inst)
        listed = [inst for inst in pred.frames.get(f, []) if not inst.ignore]
        gt_quads = [_usable_quad(g.quad) for g in active]
        pred_quads = [_usable_quad(p.quad) for p in listed]
        pairs, preds = near_pairs(gt_quads, pred_quads), listed
        if ignored:
            region_quads = [_usable_quad(r.quad) for r in ignored]
            dropped = {pi for pi, ri in near_pairs(pred_quads, region_quads)
                       if quad_iou(pred_quads[pi], region_quads[ri]) >= IGNORE_GATE}
            pairs = [(gi, pi) for gi, pi in pairs if pi not in dropped]
            preds = [p for pi, p in enumerate(listed) if pi not in dropped]
        if spotting:
            for p in preds:
                if p.transcription is None:
                    raise MissingTranscription(
                        f"prediction track {p.track_id} frame {f} has no transcription")
        gated: dict[tuple[int, int], float] = {}
        for gi, pi in pairs:
            g, p = active[gi], listed[pi]
            overlap = quad_iou(gt_quads[gi], pred_quads[pi])
            if overlap >= iou_thresh and (
                    not spotting or word(g.transcription or "") == word(p.transcription)):
                gated[g.track_id, p.track_id] = overlap
        tables.append(_FrameTable(f, active, preds, gated))
    return tables


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


def _detection_counts(tables: list[_FrameTable]) -> DetCounters:
    """Per-frame one-to-one matching of the gated pairs by ``gated_assign``,
    ties in ascending reference, then prediction, track id: on every frame
    the matching CLEAR makes when it carries no correspondence over."""
    counters = DetCounters()
    for table in tables:
        tp = len(gated_assign(table.gated))
        counters.tp += tp
        counters.fn += len(table.gt) - tp
        counters.fp += len(table.preds) - tp
    return counters


# ---------------------------------------------------------------------------
# CLEAR tracking
# ---------------------------------------------------------------------------


# bench/layers.py times the CLEAR pass by wrapping this name
def eval_mot(tables: list[_FrameTable]) -> MotCounters:
    """CLEAR procedure over the tables' gated pairs: correspondences
    established frame by frame, kept while they stay gated, mismatches
    counted the first frame a reference track's partner id changes versus
    its last established one.
    Correspondences are keyed by track id, and new ones are assigned with
    ties in ascending reference, then prediction, track id.
    A frame without a table is empty, so it ends every correspondence."""
    counters = MotCounters()
    active_corr: dict[int, int] = {}  # established at frame corr_frame
    corr_frame = -1
    last_match: dict[int, int] = {}

    for table in tables:
        if table.frame != corr_frame + 1:
            active_corr = {}
        gated = table.gated

        # keep still-valid correspondences from the previous frame
        matches = {gid: pid for gid, pid in active_corr.items() if (gid, pid) in gated}

        # assign the remainder, maximizing total IoU above the gate
        matched_pred = set(matches.values())
        rest = {(gid, pid): overlap for (gid, pid), overlap in gated.items()
                if gid not in matches and pid not in matched_pred}
        for gid, pid in gated_assign(rest):
            matches[gid] = pid
            if gid in last_match and last_match[gid] != pid:
                counters.mismatches += 1

        last_match.update(matches)
        counters.gt_count += len(table.gt)
        counters.matches += len(matches)
        counters.misses += len(table.gt) - len(matches)
        counters.false_positives += len(table.preds) - len(matches)
        counters.matched_iou_sum += sum(gated[pair] for pair in matches.items())
        active_corr, corr_frame = matches, table.frame

    return counters


# ---------------------------------------------------------------------------
# identity metrics
# ---------------------------------------------------------------------------


# bench/layers.py times the identity pass by wrapping this name
def eval_id(tables: list[_FrameTable]) -> tuple[IdCounters, int, int]:
    """Trajectory-level identity counters plus MT and ML.

    Two frame slots agree when their pair is in the table's ``gated``, the
    pairs detection and CLEAR may match: at or above ``iou_thresh`` and,
    for spotting, read alike.  A global assignment between reference and
    predicted trajectories maximizes the total number of agreeing slots
    (id_tp); IDP, IDR, IDF1, MT, and ML all follow from it.  Only the
    tables' ``preds`` count, the predictions that detection and CLEAR
    count too.
    """
    # lifespans (slots per track) and agreeing slots per (gt, pred) track pair
    gt_len: dict[int, int] = {}
    pred_len: dict[int, int] = {}
    agree: dict[tuple[int, int], int] = {}
    for table in tables:
        for slot in table.gt:
            gt_len[slot.track_id] = gt_len.get(slot.track_id, 0) + 1
        for slot in table.preds:
            pred_len[slot.track_id] = pred_len.get(slot.track_id, 0) + 1
        for pair in table.gated:
            agree[pair] = agree.get(pair, 0) + 1

    assigned = dict(gated_assign(agree))
    id_tp = sum(agree[pair] for pair in assigned.items())
    counters = IdCounters(
        id_tp=id_tp,
        id_fp=sum(pred_len.values()) - id_tp,
        id_fn=sum(gt_len.values()) - id_tp,
        gt_tracks=len(gt_len),
    )

    mt = ml = 0
    for gid, length in gt_len.items():
        coverage = agree[gid, assigned[gid]] / length if gid in assigned else 0.0
        if coverage >= 0.8:
            mt += 1
        elif coverage < 0.2:
            ml += 1
    return counters, mt, ml


# ---------------------------------------------------------------------------
# composite reports
# ---------------------------------------------------------------------------


def evaluate(
    gt: VideoAnnotation,
    pred: VideoAnnotation,
    task: str = "tracking",
    *,
    iou_thresh: float = 0.5,
    case_insensitive: bool = False,
) -> MetricsReport:
    """One-call evaluation producing a full report for the given task.

    detection: precision / recall / F-score only.  tracking: those plus
    CLEAR (MOTA, MOTP) and identity metrics on geometry alone.  spotting:
    the tracking numbers counted over the pairs whose transcriptions
    agree after normalization, so a box read wrong is both a miss and a
    false positive.  ``iou_thresh`` gates every pass: a pair below it is
    neither matched nor counted as an identity agreement.
    """
    if task not in ("detection", "tracking", "spotting"):
        raise ValueError(f"unknown task {task!r}")
    if not (0.0 < iou_thresh <= 1.0):
        raise ValueError(f"iou_thresh must be in (0,1], got {iou_thresh}")
    tables = _frame_tables(gt, pred, iou_thresh, task == "spotting", case_insensitive)
    det = _detection_counts(tables)
    mot, ids, mt, ml = MotCounters(), IdCounters(), 0, 0
    if task != "detection":
        mot = eval_mot(tables)
        ids, mt, ml = eval_id(tables)
    return MetricsReport(task, mt=mt, ml=ml, det=det, mot=mot, ids=ids,
                         video_id=gt.video_id, scenario=gt.scenario)


def aggregate(reports: list[MetricsReport]) -> MetricsReport:
    """Corpus-level report: sum the raw counters of per-video reports and
    recompute every ratio from the sums (never averaging ratios)."""
    if not reports:
        raise EmptyInput("aggregate() needs at least one report")
    tasks = {r.task for r in reports}
    if len(tasks) > 1:
        raise ValueError(f"cannot aggregate mixed tasks: {sorted(tasks)}")
    scenarios = {r.scenario for r in reports}
    return MetricsReport(
        reports[0].task,
        mt=sum(r.mt for r in reports),
        ml=sum(r.ml for r in reports),
        det=sum((r.det for r in reports), DetCounters()),
        mot=sum((r.mot for r in reports), MotCounters()),
        ids=sum((r.ids for r in reports), IdCounters()),
        scenario=reports[0].scenario if len(scenarios) == 1 else None,
    )
