"""Output digests and seed-independent invariants for the benchmark.

Every stage output is reduced to a sha256 digest of a canonical byte form:
trajectories as ``save_trajectories`` writes them, reports as canonical
JSON of ``to_dict()``, the loss as canonical JSON of each frame's matched
pairs and terms, the corpus CSV as written.  Digests are compared with the
stored references for the seeds that have them, and across rounds of one
run.  The invariants below hold for any seed, so they guard the seeds that
have no reference.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from collections import Counter


def digest(parts) -> str:
    """sha256 over byte or text parts, each followed by a NUL separator."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False)


def trajectories_text(vt, trajectories, dets) -> str:
    """The bytes ``vtspot track`` would write for these trajectories."""
    out = io.StringIO()
    vt.save_trajectories(trajectories, dets.video_id, dets.width, dets.height,
                         dets.frame_count, out)
    return out.getvalue()


def expected_points(vt, dets) -> Counter:
    """Every detection as (frame, corner tuple): what the trajectories of
    a complete partition must hold, each exactly once."""
    return Counter(
        (fd.frame_index, tuple(vt.rotated_to_quad(d.box).as_flat()))
        for fd in dets.frames for d in fd.detections
    )


def partition_error(expected: Counter, trajectories) -> str | None:
    """None when every detection lands in exactly one trajectory."""
    got = Counter(
        (f, tuple(point.quad.as_flat()))
        for t in trajectories for f, point in t.frames.items()
    )
    if got == expected:
        return None
    lost = sum((expected - got).values())
    extra = sum((got - expected).values())
    return f"{lost} detections missing, {extra} points not from a detection"


def report_error(report, ref_slots: int, pred_slots: int) -> str | None:
    """Counter identities that every evaluation report must satisfy.

    ``ref_slots`` counts the active reference instances and ``pred_slots``
    the prediction instances; the synthetic references have no ignore
    regions, so no prediction is discarded before identity matching.
    """
    det, mot, ids = report.det, report.mot, report.ids
    problems = []
    if det.tp + det.fn != ref_slots:
        problems.append(f"det.tp+det.fn={det.tp + det.fn} != {ref_slots}")
    if mot.gt_count != ref_slots:
        problems.append(f"mot.gt_count={mot.gt_count} != {ref_slots}")
    if mot.matches + mot.misses != mot.gt_count:
        problems.append(f"mot.matches+mot.misses={mot.matches + mot.misses}"
                        f" != mot.gt_count={mot.gt_count}")
    if ids.id_tp + ids.id_fn != ref_slots:
        problems.append(f"id_tp+id_fn={ids.id_tp + ids.id_fn} != {ref_slots}")
    if ids.id_tp + ids.id_fp != pred_slots:
        problems.append(f"id_tp+id_fp={ids.id_tp + ids.id_fp} != {pred_slots}")
    return "; ".join(problems) or None


def loss_error(size: int, pairs, terms: dict) -> str | None:
    """A padded frame's matching is a permutation and its terms are finite."""
    rows = sorted(r for r, _ in pairs)
    cols = sorted(c for _, c in pairs)
    if rows != list(range(size)) or cols != list(range(size)):
        return f"pairs are not a permutation of {size}"
    if not all(math.isfinite(v) for v in terms.values()):
        return f"non-finite loss terms {terms}"
    return None


def slot_count(ann) -> int:
    return sum(1 for insts in ann.frames.values() for i in insts if not i.ignore)
