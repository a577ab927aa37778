"""IoU-gated track/detection association with optimal assignment.

The tracker is a sequential state machine over a stream of per-frame
detections.  Each step it predicts where every live track should be (a
constant-position guess unless a carried ``track_box`` applies), scores
the quads of the predicted boxes against those of the detection boxes with
``quad_iou``, the IoU that the linker and ``evaluate`` score, for the pairs
that ``geometry.near_pairs`` returns (every other pair has IoU 0), and
solves the resulting assignment problem exactly.  Pairs below the IoU gate
never match; unmatched detections become new tracks and unmatched tracks
age out after ``max_age`` missed frames.

Detections may carry a ``track_box``: an externally predicted box for the
same object in the next frame.  When a track takes a detection with a
``track_box``, matched or born from it, that box replaces the
constant-position prediction on the following step.

A track's record, ``TrackState.frames``, maps each frame in which it took
a detection to that ``Detection``, the shape of ``Trajectory.frames``; a
match and a birth both take a detection through ``_take``.
``trajectories`` returns every track as a ``Trajectory`` of ``Instance``s,
one per recorded frame: that detection's quad and transcription under the
track's id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .annotations import Detection, FrameDetections, Instance, Trajectory, _check_int
from .errors import NonMonotonicFrame
from .geometry import RotatedBox, near_pairs, quad_iou
from .matching import gated_assign
from .matching import hungarian  # noqa: F401  bench/layers.py wraps this name

__all__ = ["TrackerConfig", "TrackState", "Tracker", "run"]

# The overlap of two shapes; ``bench/layers.py`` times it under this name.
iou = quad_iou


@dataclass(frozen=True, slots=True)
class TrackerConfig:
    iou_threshold: float = 0.5
    max_age: int = 0
    min_score: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(
                f"iou_threshold must be in (0,1], got {self.iou_threshold}"
            )
        _check_int("max_age", self.max_age, 0)
        if not (0.0 <= self.min_score <= 1.0):
            raise ValueError(f"min_score must be in [0,1], got {self.min_score}")


@dataclass(slots=True)
class TrackState:
    """One live identity: where it was, where we expect it, and its record,
    ``frames``: frame index -> the detection it took in that frame."""

    track_id: int
    last_box: RotatedBox
    predicted_box: RotatedBox
    missed_frames: int = 0
    frames: dict[int, Detection] = field(default_factory=dict)


def _take(track: TrackState, index: int, det: Detection) -> None:
    """``track`` takes ``det`` at frame ``index``: records it, moves there,
    and next looks for itself at the detection's ``track_box``, if any."""
    track.frames[index] = det
    track.last_box = det.box
    track.predicted_box = det.box if det.track_box is None else det.track_box
    track.missed_frames = 0


class Tracker:
    """Sequential association machine.  One instance per video; step() must
    be called with strictly increasing frame indices."""

    def __init__(self, cfg: TrackerConfig | None = None):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        self.tracks: list[TrackState] = []
        # every track ever born, in birth order: a track's id is its rank
        self._all: list[TrackState] = []
        self._last_frame = -1

    def step(
        self, frame: FrameDetections
    ) -> tuple[list[TrackState], list[int], list[int]]:
        """Associate one frame of detections with the live tracks.

        Every live track misses the indices skipped since the last step.
        Returns the live track list after the update, the IDs born this
        frame (in detection order), and the IDs that aged out, those of the
        skipped frames included.  Each track's ``predicted_box`` is then
        the box the next step matches against.
        """
        index = frame.frame_index
        skipped = index - self._last_frame - 1
        if skipped < 0:
            raise NonMonotonicFrame(f"frame {index} after frame {self._last_frame}")
        self._last_frame = index
        dead = self._age(skipped, set()) if skipped else []

        detections = [d for d in frame.detections if d.score >= self.cfg.min_score]
        matches = self._associate(detections)
        matched_tracks = {t for t, _ in matches}
        matched_dets = {d for _, d in matches}

        for ti, di in matches:
            _take(self.tracks[ti], index, detections[di])
        dead += self._age(1, matched_tracks)

        born: list[int] = []
        for di, det in enumerate(detections):
            if di in matched_dets:
                continue
            track = TrackState(len(self._all), det.box, det.box)
            _take(track, index, det)
            born.append(track.track_id)
            self._all.append(track)
            self.tracks.append(track)
        return self.tracks, born, dead

    def _age(self, k: int, matched: set[int]) -> list[int]:
        """Add ``k`` missed frames to each live track whose index is not in
        ``matched``; retire those past ``max_age`` and return their IDs."""
        dead: list[int] = []
        survivors: list[TrackState] = []
        for ti, track in enumerate(self.tracks):
            if ti not in matched:
                track.missed_frames += k
                track.predicted_box = track.last_box
                if track.missed_frames > self.cfg.max_age:
                    dead.append(track.track_id)
                    continue
            survivors.append(track)
        self.tracks = survivors
        return dead

    def _associate(self, detections: list[Detection]) -> list[tuple[int, int]]:
        """Gated max-IoU assignment between live tracks and detections: the
        accepted matching maximizes total IoU among the pairs at or above
        the gate."""
        gate = self.cfg.iou_threshold
        gated: dict[tuple[int, int], float] = {}
        prev = [t.predicted_box.quad for t in self.tracks]
        cur = [d.box.quad for d in detections]
        for ti, di in near_pairs(prev, cur):
            overlap = iou(prev[ti], cur[di])
            if overlap >= gate:
                gated[ti, di] = overlap
        return gated_assign(gated)

    def trajectories(self) -> list[Trajectory]:
        """Every track ever born, dead or alive, in ID order."""
        out = []
        for track in self._all:
            tid = track.track_id
            instances = {fi: Instance(tid, det.box.quad, det.transcription)
                         for fi, det in track.frames.items()}
            out.append(Trajectory(track_id=tid, frames=instances))
        return out


def run(
    stream: list[FrameDetections], cfg: TrackerConfig | None = None
) -> list[Trajectory]:
    """Track a whole video: fold step() over the frames and collect every
    trajectory, wiring the ``track_box`` of each detection a track takes,
    matched or born from, into the next step's prediction."""
    tracker = Tracker(cfg)
    for frame in stream:
        tracker.step(frame)
    return tracker.trajectories()
