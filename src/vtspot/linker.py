"""Cross-frame linking of text objects by IoU and edit distance.

A deliberately simple baseline for detectors with no tracking head: the
objects of the current frame are linked to the open trajectories whose
latest element is at most ``window`` frames old.  A pair is admissible
when the shapes overlap enough and the transcriptions are close in
normalized Levenshtein distance.  Each object is scored by the shape
``evaluate`` scores: its own quad when convex, otherwise the quad of its
minimum-area enclosing box.  Only the object/trajectory pairs that
``geometry.near_pairs`` returns for those shapes are scored; every other
pair has IoU 0.  Each frame takes the one-to-one matching of
``matching.gated_assign`` over the admissible pairs, which maximizes the
total IoU, ties settled by ascending object, then trajectory, index.  An
unlinked object starts a trajectory; newborns are numbered in object
order.  Each trajectory records its objects as ``Instance``s under its
track id.
"""

from __future__ import annotations

from dataclasses import dataclass

from .annotations import Instance, Trajectory, _check_int
from .errors import NonMonotonicFrame
from .geometry import Quad, near_pairs, nondegenerate_hull, quad_iou, quad_to_rotated
from .matching import gated_assign

__all__ = ["LinkerConfig", "edit_distance", "link"]

# The overlap of two shapes; ``bench/layers.py`` times it under this name.
iou = quad_iou


@dataclass(frozen=True, slots=True)
class LinkerConfig:
    window: int = 3
    iou_threshold: float = 0.3
    max_norm_edit: float = 0.3

    def __post_init__(self):
        _check_int("window", self.window, 1)
        if not (0.0 < self.iou_threshold <= 1.0):
            raise ValueError(
                f"iou_threshold must be in (0,1], got {self.iou_threshold}"
            )
        if not (0.0 <= self.max_norm_edit <= 1.0):
            raise ValueError(
                f"max_norm_edit must be in [0,1], got {self.max_norm_edit}"
            )


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != cb),
            ))
        prev = cur
    return prev[-1]


def _norm_edit(a: str, b: str) -> float:
    return edit_distance(a, b) / max(len(a), len(b), 1)


def _shape(quad: Quad) -> Quad:
    """The shape scored for ``quad``, by ``metrics._usable_quad``'s rule:
    the quad itself when convex, else its minimum-area box's quad.  Raises
    DegenerateQuad for the quads ``quad_to_rotated`` cannot enclose, convex
    or not; the box is fitted through this module's ``quad_to_rotated``, so
    that a traced run counts exactly these fits."""
    nondegenerate_hull(quad)
    return quad if quad.is_convex() else quad_to_rotated(quad).quad


class _OpenTrajectory:
    __slots__ = ("track_id", "frames", "last_frame", "last_shape", "last_text")

    def __init__(self, track_id, frame_index, quad, shape, text):
        self.track_id = track_id
        self.frames: dict[int, Instance] = {}
        self.append(frame_index, quad, shape, text)

    def append(self, frame_index, quad, shape, text):
        """Record ``quad`` at ``frame_index``; ``shape`` is what it is
        scored by."""
        self.frames[frame_index] = Instance(self.track_id, quad, text)
        self.last_frame = frame_index
        self.last_shape = shape
        self.last_text = text


def link(
    frames: list[tuple[int, list[tuple[Quad, str | None]]]],
    cfg: LinkerConfig | None = None,
) -> list[Trajectory]:
    """Link per-frame (quad, transcription) objects into trajectories.

    ``frames`` holds (frame_index, objects) pairs ordered by frame index.
    Every input object lands in exactly one trajectory, its transcription
    kept as given; a missing one (None) reads as "" for the edit distance.
    """
    cfg = cfg if cfg is not None else LinkerConfig()
    open_trajs: list[_OpenTrajectory] = []
    # trajectories still inside the window, in creation order; one that
    # falls out can never match again, since frame indices only grow
    live: list[_OpenTrajectory] = []
    last_index: int | None = None

    for frame_index, objects in frames:
        _check_int("frame_index", frame_index, 0)
        if last_index is not None and frame_index <= last_index:
            raise NonMonotonicFrame(
                f"frame {frame_index} after frame {last_index}"
            )
        last_index = frame_index

        live = [t for t in live if frame_index - t.last_frame <= cfg.window]
        shapes = [_shape(q) for q, _ in objects]

        # score every admissible (object, trajectory) pair once
        gated: dict[tuple[int, int], float] = {}
        for oi, ci in near_pairs(shapes, [t.last_shape for t in live]):
            traj = live[ci]
            overlap = iou(shapes[oi], traj.last_shape)
            if overlap < cfg.iou_threshold:
                continue
            if _norm_edit(objects[oi][1] or "", traj.last_text or "") > cfg.max_norm_edit:
                continue
            gated[oi, ci] = overlap
        linked = dict(gated_assign(gated))

        # a linked object extends its trajectory; the others are born in
        # object order, past every index scored in this frame
        for oi, (quad, text) in enumerate(objects):
            if oi in linked:
                live[linked[oi]].append(frame_index, quad, shapes[oi], text)
            else:
                traj = _OpenTrajectory(len(open_trajs), frame_index, quad,
                                       shapes[oi], text)
                open_trajs.append(traj)
                live.append(traj)

    # trajectories are born in id order and frame indices only grow, so
    # both are already sorted
    return [Trajectory(track_id=t.track_id, frames=t.frames) for t in open_trajs]
