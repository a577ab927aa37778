"""Deterministic synthetic video-text worlds for tests and demos.

Objects are rotated boxes laid out on a jittered grid of a 1280x720
canvas, each with a pseudo-word transcription, moving per the configured
motion model.  The generator returns both the perfect reference
annotation and a detections file derived from it: optionally dropping
detections at random and perturbing quad corners with Gaussian noise.
The same seed always produces the same pair of documents, byte for byte
once serialized.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .annotations import (
    Detection,
    DetectionsFile,
    FrameDetections,
    Instance,
    VideoAnnotation,
    _check_int,
)
from .errors import GeometryError
from .geometry import Quad, RotatedBox, quad_to_rotated, rotated_to_quad

__all__ = ["SynthConfig", "generate", "CANVAS_WIDTH", "CANVAS_HEIGHT"]

CANVAS_WIDTH = 1280
CANVAS_HEIGHT = 720

MOTIONS = ("static", "constant_velocity", "rotate")

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, slots=True)
class SynthConfig:
    n_objects: int = 4
    n_frames: int = 30
    motion: str = "constant_velocity"
    noise_sigma: float = 0.0
    drop_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_int("n_objects", self.n_objects, 1)
        _check_int("n_frames", self.n_frames, 2)
        if self.motion not in MOTIONS:
            raise ValueError(f"motion must be one of {MOTIONS}, got {self.motion!r}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not (0.0 <= self.drop_prob < 1.0):
            raise ValueError(f"drop_prob must be in [0,1), got {self.drop_prob}")


@dataclass(slots=True)
class _Object:
    word: str
    cx: float
    cy: float
    w: float
    h: float
    angle: float
    vx: float
    vy: float
    vangle: float

    def box_at(self, frame: int) -> RotatedBox:
        return RotatedBox(
            self.cx + self.vx * frame,
            self.cy + self.vy * frame,
            self.w,
            self.h,
            self.angle + self.vangle * frame,
        )


def _make_word(rng: random.Random, taken: set[str]) -> str:
    while True:
        word = "".join(rng.choice(_LETTERS) for _ in range(rng.randint(3, 8)))
        if word not in taken:
            taken.add(word)
            return word


def _make_objects(cfg: SynthConfig, rng: random.Random) -> list[_Object]:
    rows = max(1, math.isqrt(cfg.n_objects))
    cols = math.ceil(cfg.n_objects / rows)
    cell_w = CANVAS_WIDTH / cols
    cell_h = CANVAS_HEIGHT / rows
    words: set[str] = set()
    objects = []
    for i in range(cfg.n_objects):
        r, c = divmod(i, cols)
        jitter = min(40.0, cell_w / 8, cell_h / 8)
        cx = (c + 0.5) * cell_w + rng.uniform(-jitter, jitter)
        cy = (r + 0.5) * cell_h + rng.uniform(-jitter, jitter)
        w = rng.uniform(40.0, min(120.0, cell_w * 0.6))
        h = rng.uniform(16.0, min(60.0, cell_h * 0.6))
        angle = rng.uniform(-0.3, 0.3)
        vx = vy = vangle = 0.0
        if cfg.motion == "constant_velocity":
            # keep each object inside its own cell for the whole clip
            vmax = max(0.1, min(2.0, (min(cell_w, cell_h) / 4) / cfg.n_frames))
            vx = rng.uniform(-vmax, vmax)
            vy = rng.uniform(-vmax, vmax)
        elif cfg.motion == "rotate":
            vangle = rng.uniform(0.01, 0.05) * rng.choice((-1.0, 1.0))
        objects.append(_Object(_make_word(rng, words), cx, cy, w, h, angle,
                               vx, vy, vangle))
    return objects


def _noisy_detection_box(
    quad: Quad, sigma: float, rng: random.Random
) -> RotatedBox:
    """Perturb each corner and refit a rotated box; noise draws that break
    the quad (a self-crossing) are retried on fresh draws."""
    flat = quad.as_flat()
    for _ in range(16):
        # x0, y0, x1, y1, ...: each corner's x draw before its y draw
        noisy = [v + rng.gauss(0.0, sigma) for v in flat]
        try:
            return quad_to_rotated(Quad.from_flat(noisy))
        except GeometryError:
            continue
    return quad_to_rotated(quad)


def generate(cfg: SynthConfig) -> tuple[VideoAnnotation, DetectionsFile]:
    """Build the reference annotation and a matching detections stream."""
    rng = random.Random(cfg.seed)
    objects = _make_objects(cfg, rng)

    gt_frames: dict[int, list[Instance]] = {}
    det_frames: list[FrameDetections] = []
    for f in range(cfg.n_frames):
        instances = []
        detections = []
        for tid, obj in enumerate(objects):
            box = obj.box_at(f)
            quad = rotated_to_quad(box)
            instances.append(
                Instance(track_id=tid, quad=quad, transcription=obj.word)
            )
            if cfg.drop_prob > 0.0 and rng.random() < cfg.drop_prob:
                continue
            if cfg.noise_sigma > 0.0:
                det_box = _noisy_detection_box(quad, cfg.noise_sigma, rng)
                score = min(1.0, max(0.0, rng.gauss(0.95, 0.02)))
            else:
                det_box = box
                score = 1.0
            detections.append(
                Detection(box=det_box, score=score, transcription=obj.word)
            )
        gt_frames[f] = instances
        det_frames.append(FrameDetections(frame_index=f, detections=detections))

    video_id = f"synth-{cfg.seed}"
    gt = VideoAnnotation(
        video_id=video_id,
        width=CANVAS_WIDTH,
        height=CANVAS_HEIGHT,
        frame_count=cfg.n_frames,
        frames=gt_frames,
        scenario=cfg.motion,
    )
    dets = DetectionsFile(
        video_id=video_id,
        width=CANVAS_WIDTH,
        height=CANVAS_HEIGHT,
        frame_count=cfg.n_frames,
        frames=det_frames,
    )
    return gt, dets
