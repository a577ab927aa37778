"""Independent reference implementations used only by the test suite.

Everything here, up to the last section, is deliberately written from
first principles (sampling, exhaustive enumeration, textbook recurrences)
rather than calling into the package, so a bug in the library cannot hide
inside its own oracle.  The last section holds the plain versions of the
package's fast paths, for differential tests.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import NamedTuple

import numpy as np

from vtspot.annotations import Instance, Trajectory
from vtspot.errors import (
    DegenerateQuad,
    MissingTranscription,
    NonConvexInput,
    NonFiniteCost,
    NonMonotonicFrame,
    SelfIntersectingQuad,
)
from vtspot.geometry import (
    _BROAD_SLACK,
    DEGENERATE_AREA,
    Quad,
    RotatedBox,
    _apart,
    canonical_angle,
    quad_iou,
)
from vtspot.linker import LinkerConfig
from vtspot.matching import Assignment, hungarian
from vtspot.metrics import (
    IGNORE_GATE,
    DetCounters,
    IdCounters,
    MetricsReport,
    MotCounters,
    normalize_transcription,
)
from vtspot.tracker import Tracker


def box_corners(cx, cy, w, h, angle):
    """Corner coordinates of a center-form rotated box, plain tuples."""
    c, s = math.cos(angle), math.sin(angle)
    out = []
    for dx, dy in ((-w / 2, -h / 2), (w / 2, -h / 2), (w / 2, h / 2), (-w / 2, h / 2)):
        out.append((cx + c * dx - s * dy, cy + s * dx + c * dy))
    return out


def shoelace(points) -> float:
    total = 0.0
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return abs(total) / 2.0


def _inside(params, xs, ys):
    cx, cy, w, h, angle = params
    c, s = math.cos(angle), math.sin(angle)
    dx = xs - cx
    dy = ys - cy
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return (np.abs(u) <= w / 2.0) & (np.abs(v) <= h / 2.0)


def monte_carlo_iou(a, b, n=1_000_000, seed=0):
    """IoU of two (cx, cy, w, h, angle) boxes by uniform rejection sampling.

    Samples are drawn over the joint axis-aligned hull; the estimate is the
    conditional fraction hit-both / hit-either, so its error scales with the
    union's share of the hull.
    """
    pts = box_corners(*a) + box_corners(*b)
    xs_ = [p[0] for p in pts]
    ys_ = [p[1] for p in pts]
    rng = np.random.default_rng(seed)
    xs = rng.uniform(min(xs_), max(xs_), n)
    ys = rng.uniform(min(ys_), max(ys_), n)
    in_a = _inside(a, xs, ys)
    in_b = _inside(b, xs, ys)
    either = int(np.count_nonzero(in_a | in_b))
    if either == 0:
        return 0.0
    both = int(np.count_nonzero(in_a & in_b))
    return both / either


def monte_carlo_areas(a, b, n=1_000_000, seed=0):
    """(intersection, union, hull) area estimates plus the exact hull area."""
    pts = box_corners(*a) + box_corners(*b)
    xs_ = [p[0] for p in pts]
    ys_ = [p[1] for p in pts]
    lo_x, hi_x = min(xs_), max(xs_)
    lo_y, hi_y = min(ys_), max(ys_)
    hull_area = (hi_x - lo_x) * (hi_y - lo_y)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo_x, hi_x, n)
    ys = rng.uniform(lo_y, hi_y, n)
    in_a = _inside(a, xs, ys)
    in_b = _inside(b, xs, ys)
    inter = np.count_nonzero(in_a & in_b) / n * hull_area
    union = np.count_nonzero(in_a | in_b) / n * hull_area
    return inter, union, hull_area


def brute_force_assignment(cost):
    """Exact minimum-cost assignment of every row of an n×m matrix, n <= m,
    by enumerating all injections of the rows into the columns.

    Returns (best_total, best_columns) where best_columns[i] is the column
    assigned to row i. Feasible up to about m=8.
    """
    n = len(cost)
    m = len(cost[0]) if n else 0
    best_total = math.inf
    best_perm = None
    for perm in itertools.permutations(range(m), n):
        total = sum(cost[i][perm[i]] for i in range(n))
        if total < best_total:
            best_total = total
            best_perm = perm
    return best_total, list(best_perm)


def levenshtein_ref(a: str, b: str) -> int:
    """Full-matrix edit distance, the textbook recurrence."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            sub = d[i - 1][j - 1] + (0 if a[i - 1] == b[j - 1] else 1)
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, sub)
    return d[n][m]


def random_box(rng: random.Random, span=100.0, min_side=0.5, max_side=20.0):
    """A random well-scaled (cx, cy, w, h, angle) tuple."""
    return (
        rng.uniform(-span, span),
        rng.uniform(-span, span),
        rng.uniform(min_side, max_side),
        rng.uniform(min_side, max_side),
        rng.uniform(-math.pi, math.pi),
    )


def overlapping_box_pair(rng: random.Random):
    """Two boxes whose centers sit close, so the union fills its hull well."""
    cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
    a = (cx, cy, rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(-math.pi, math.pi))
    b = (
        cx + rng.uniform(-2, 2),
        cy + rng.uniform(-2, 2),
        rng.uniform(1, 4),
        rng.uniform(1, 4),
        rng.uniform(-math.pi, math.pi),
    )
    return a, b


# ---------------------------------------------------------------------------
# the point geometry
# ---------------------------------------------------------------------------
# The package's geometry kernel works on flat float tuples.  What follows is
# the same geometry on corner points: the textbook unroll, the
# Sutherland-Hodgman clip that builds a point per vertex, the shoelace sum
# and the minimum-area box fit.  It does the same arithmetic in the same
# order, so differential tests can demand bit-equal results from two
# separate implementations.


class Pt(NamedTuple):
    """A corner; it equals the ``(x, y)`` pair with its coordinates."""

    x: float
    y: float


def corners(quad):
    """A quad's four corners as ``Pt``s, in its stored order."""
    xy = quad.as_flat()
    return (Pt(xy[0], xy[1]), Pt(xy[2], xy[3]), Pt(xy[4], xy[5]), Pt(xy[6], xy[7]))


def signed_area(points):
    """Shoelace signed area of ``Pt``s; positive means counter-clockwise."""
    total = 0.0
    n = len(points)
    for i in range(n):
        p, q = points[i], points[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return 0.5 * total


def point_area(points):
    if len(points) < 3:
        return 0.0
    return abs(signed_area(points))


def _orient(a, b, c):
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def plain_convex(quad) -> bool:
    """``Quad.is_convex`` as it was: no corner triple's ``_orient`` is
    negative."""
    c = corners(quad)
    return not any(_orient(c[i], c[(i + 1) % 4], c[(i + 2) % 4]) < 0.0 for i in range(4))


def _require_convex(quad):
    if not plain_convex(quad):
        raise NonConvexInput(f"polygon clipping needs convex input, got {quad.as_flat()}")


def plain_extents(quad) -> tuple[float, float, float, float, float]:
    """``Quad._convex_extents`` as it was: NonConvexInput for a non-convex
    quad, else ``(min_x, min_y, max_x, max_y, pad)`` from slices of the
    corners, ``min`` and ``max``, with the pad ``_BROAD_SLACK`` of their
    largest magnitude."""
    _require_convex(quad)
    xy = quad.as_flat()
    xs, ys = xy[0::2], xy[1::2]
    lo_x, lo_y, hi_x, hi_y = min(xs), min(ys), max(xs), max(ys)
    return lo_x, lo_y, hi_x, hi_y, _BROAD_SLACK * max(abs(lo_x), abs(hi_x), abs(lo_y), abs(hi_y))


def _line_hit(p, q, p_side, q_side):
    t = p_side / (p_side - q_side)
    x, y = p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
    return Pt(x, y)


def _clip_half_plane(poly, a, b):
    """Keep the part of ``poly`` on or left of the directed line a->b."""
    out = []
    n = len(poly)
    for i in range(n):
        prv = poly[i - 1]
        cur = poly[i]
        prv_side = _orient(a, b, prv)
        cur_side = _orient(a, b, cur)
        if cur_side >= 0.0:
            if prv_side < 0.0:
                out.append(_line_hit(prv, cur, prv_side, cur_side))
            out.append(cur)
        elif prv_side >= 0.0:
            out.append(_line_hit(prv, cur, prv_side, cur_side))
    return out


def point_intersection(a, b):
    """The clip of convex quad ``a`` by convex quad ``b`` as ``Pt``s,
    clipping their corners edge by edge."""
    _require_convex(a)
    _require_convex(b)
    output = list(corners(a))
    clip = corners(b)
    for i in range(4):
        if not output:
            break
        output = _clip_half_plane(output, clip[i], clip[(i + 1) % 4])
    return output


def point_unroll(box):
    """``rotated_to_quad``: each corner offset rotated and added on its own."""
    c = math.cos(box.angle)
    s = math.sin(box.angle)
    hw = box.w / 2.0
    hh = box.h / 2.0
    return Quad.from_flat([
        v for dx, dy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
        for v in (box.cx + c * dx - s * dy, box.cy + s * dx + c * dy)
    ])


def _half_hull(pts):
    out = []
    for p in pts:
        while len(out) >= 2:
            ox, oy = out[-2]
            ax, ay = out[-1]
            if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0.0:
                out.pop()
            else:
                break
        out.append(p)
    return out


def plain_hull(quad):
    """``nondegenerate_hull``: the generic monotone chain (Andrew, 1979) over
    the distinct sorted corners, as ``(x, y)`` tuples.  Of equal corners
    (``0.0`` and ``-0.0``) the set keeps the first in corner order."""
    points = corners(quad)
    area = point_area(points)
    if area < DEGENERATE_AREA:
        raise DegenerateQuad(f"quad area {area!r} is below {DEGENERATE_AREA!r}")
    pts = sorted({(p.x, p.y) for p in points})
    hull = pts if len(pts) <= 2 else _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]
    if len(hull) < 3:
        raise DegenerateQuad("quad corners are collinear")
    return hull


def point_quad_to_rotated(quad):
    """``quad_to_rotated``: the minimum-area box over the hull's edges."""
    points = corners(quad)
    hull = plain_hull(quad)
    best = None
    n = len(hull)
    for i in range(n):
        (px, py), (qx, qy) = hull[i], hull[(i + 1) % n]
        theta = math.atan2(qy - py, qx - px)
        c, s = math.cos(theta), math.sin(theta)
        us = [c * pt.x + s * pt.y for pt in points]
        vs = [-s * pt.x + c * pt.y for pt in points]
        u0, u1 = min(us), max(us)
        v0, v1 = min(vs), max(vs)
        area = (u1 - u0) * (v1 - v0)
        if best is None or area < best[0]:
            best = (area, theta, u0, u1, v0, v1)
    _, theta, u0, u1, v0, v1 = best
    c, s = math.cos(theta), math.sin(theta)
    uc = (u0 + u1) / 2.0
    vc = (v0 + v1) / 2.0
    w0 = u1 - u0
    h0 = v1 - v0
    if abs(w0 - h0) <= 1e-9 * max(w0, h0):
        cand = [(canonical_angle(theta), w0, h0),
                (canonical_angle(theta + math.pi / 2.0), h0, w0)]
        angle, w, h = min(cand, key=lambda t: (abs(t[0]), t[0]))
    elif h0 > w0:
        angle, w, h = canonical_angle(theta + math.pi / 2.0), h0, w0
    else:
        angle, w, h = canonical_angle(theta), w0, h0
    return RotatedBox(c * uc - s * vc, s * uc + c * vc, w, h, angle)


# ---------------------------------------------------------------------------
# clip-only overlap and the three separate evaluation passes
# ---------------------------------------------------------------------------
# The package scores far-apart pairs 0 without clipping (for GIoU, their
# overlap), keeps each shape's unrolled quad and extents for all of its
# pairs, its broad phase compares padded bounds inline, its metric passes
# share one IoU table per frame, and its gated assignments price only the
# listed pairs.  What follows is the plain version of each: every pair is
# clipped on its own, the broad phase calls ``_apart`` on every pair, each
# pass computes its own overlaps, and each assignment flood-fills its gate
# components on a dense table and fills each one's padded matrix by hand.
# The linker scores every object against every live trajectory on a dense
# table and assigns like the passes.
# Unlike the oracles at the top, the overlaps use the point geometry above,
# which does the package's arithmetic, so that differential tests can
# demand bit-equal results.


def _area_ratio(inter, union):
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def clip_quad_iou(a, b):
    """IoU of two convex quads, always by clipping."""
    if corners(a) == corners(b):
        _require_convex(a)
        return 1.0 if point_area(corners(a)) > 0.0 else 0.0
    inter = point_area(point_intersection(a, b))
    return _area_ratio(inter, point_area(corners(a)) + point_area(corners(b)) - inter)


def clip_giou(a, b):
    """GIoU of two rotated boxes, always by clipping their quads, with
    the hull taken over all eight corners."""
    qa = point_unroll(a)
    qb = point_unroll(b)
    inter = point_area(point_intersection(qa, qb))
    union = a.area + b.area - inter
    xs = [p.x for p in corners(qa) + corners(qb)]
    ys = [p.y for p in corners(qa) + corners(qb)]
    hull = (max(xs) - min(xs)) * (max(ys) - min(ys))
    value = _area_ratio(inter, union)
    if hull <= 0.0:
        return value
    return value - max(0.0, hull - union) / hull


def plain_near_pairs(a, b):
    """``near_pairs`` as a double loop calling ``_apart`` on every pair's
    extents; every quad of ``b`` is checked for convexity first."""
    extents_b = [q._convex_extents() for q in b]
    pairs = []
    for i, q in enumerate(a):
        ea = q._convex_extents()
        for j, eb in enumerate(extents_b):
            if not _apart(ea, eb):
                pairs.append((i, j))
    return pairs


def plain_cost_matrix(gts, preds, w):
    """The set-matching cost of every pair, each pair on its own, with the
    clip-only GIoU."""
    def cost(g, p):
        if not g.is_object:
            return 0.0
        a, b = g.box, p.box
        l1 = abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h)
        return (-w.w_cls * p.class_prob
                + w.w_l1 * l1
                + w.w_giou * (1.0 - clip_giou(a, b))
                + w.w_angle * (1.0 - math.cos(b.angle - a.angle)))

    return [[cost(g, p) for p in preds] for g in gts]


def plain_loss_terms(gts, preds, assignment, w):
    """The set-loss terms of ``assignment``, each matched pair scored on its
    own with the clip-only GIoU: per pair the class term, then the weighted
    L1, GIoU-gap and angle terms, each added to its running total."""
    terms = {"cls": 0.0, "l1": 0.0, "giou": 0.0, "angle": 0.0}
    for gi, pi in assignment.pairs:
        gt, pred = gts[gi], preds[pi]
        if gt.is_object:
            a, b = gt.box, pred.box
            terms["cls"] += -math.log(min(max(pred.class_prob, 1e-12), 1.0 - 1e-12))
            l1 = abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h)
            terms["l1"] += w.w_l1 * l1
            terms["giou"] += w.w_giou * (1.0 - clip_giou(a, b))
            terms["angle"] += w.w_angle * (1.0 - math.cos(b.angle - a.angle))
        else:
            terms["cls"] += -math.log(min(max(1.0 - pred.class_prob, 1e-12), 1.0 - 1e-12))
    return terms


def plain_hungarian(cost):
    """The shortest-augmenting-path solver as ``hungarian`` first wrote
    it: every scan tests each of the m + 1 columns for use, and every cell
    is checked finite on its own."""
    n = len(cost)
    if n == 0:
        return Assignment((), 0.0)
    m = len(cost[0])
    if n > m:
        raise ValueError(f"cost matrix has {n} rows but only {m} columns")
    for i, row in enumerate(cost):
        if len(row) != m:
            raise ValueError(f"cost matrix is ragged, row {i} has {len(row)} entries, not {m}")
        for j, value in enumerate(row):
            if not math.isfinite(value):
                raise NonFiniteCost(f"cost[{i}][{j}] = {value!r}")

    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    col_to_row = [0] * (m + 1)  # 1-based; 0 means unassigned
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        col_to_row[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = col_to_row[j0]
            row = cost[i0 - 1]
            u_i0 = u[i0]
            delta = inf
            j1 = 0
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u_i0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[col_to_row[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if col_to_row[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1

    pairs = sorted((col_to_row[j] - 1, j - 1) for j in range(1, m + 1) if col_to_row[j])
    total = math.fsum(cost[r][c] for r, c in pairs)
    return Assignment(tuple(pairs), total)


def _usable_quad(quad):
    return quad if quad.is_convex() else point_unroll(point_quad_to_rotated(quad))


def _split_frame(instances):
    active, ignored = [], []
    for inst in instances:
        if inst.ignore:
            ignored.append(_usable_quad(inst.quad))
        else:
            active.append((inst.track_id, _usable_quad(inst.quad), inst.transcription))
    return active, ignored


def _on_ignored_region(quad, ignored):
    """The one ignore rule of every pass: IoU with a region at least
    ``IGNORE_GATE``, whatever ``iou_thresh`` is."""
    return any(clip_quad_iou(quad, region) >= IGNORE_GATE for region in ignored)


def component_pairs(admissible, weight):
    """Gated max-weight assignment on dense tables, one gate component at a
    time: flood-fill the components of the bipartite graph whose edges are
    the admissible cells, then solve each on its own hand-built submatrix,
    rows and columns in their original order (an admissible cell costs
    1 - weight, any other cell 1).  The submatrix has one row per component
    row and as many columns as the larger side, so only a tall component
    is padded, with columns: equal optima are settled by the component's
    own shape.  Returns the admissible pairs chosen, sorted by row."""
    n_r = len(admissible)
    n_c = len(admissible[0]) if n_r else 0
    row_comp, col_comp = [None] * n_r, [None] * n_c
    n_comps = 0
    for start in range(n_r):
        if row_comp[start] is not None or not any(admissible[start]):
            continue
        row_comp[start] = n_comps
        frontier = [("row", start)]
        while frontier:
            side, i = frontier.pop()
            if side == "row":
                for c in range(n_c):
                    if admissible[i][c] and col_comp[c] is None:
                        col_comp[c] = n_comps
                        frontier.append(("col", c))
            else:
                for r in range(n_r):
                    if admissible[r][i] and row_comp[r] is None:
                        row_comp[r] = n_comps
                        frontier.append(("row", r))
        n_comps += 1
    pairs = []
    for k in range(n_comps):
        rows = [r for r in range(n_r) if row_comp[r] == k]
        cols = [c for c in range(n_c) if col_comp[c] == k]
        cost = [[1.0] * max(len(rows), len(cols)) for _ in rows]
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                if admissible[r][c]:
                    cost[i][j] = 1.0 - weight[r][c]
        for i, j in hungarian(cost).pairs:
            if j < len(cols) and admissible[rows[i]][cols[j]]:
                pairs.append((rows[i], cols[j]))
    return sorted(pairs)


def _gated_max_iou_pairs(ious, gate):
    return component_pairs([[v >= gate for v in row] for row in ious], ious)


def _words_agree(gt_text, pred_text, spotting, case_insensitive):
    """The word gate of every pass: outside spotting every pair agrees; in
    spotting the normalized transcriptions must be equal, a missing
    reference text read as ""."""
    return not spotting or (normalize_transcription(gt_text or "", case_insensitive)
                            == normalize_transcription(pred_text, case_insensitive))


def _pair_iou(g, p, spotting, case_insensitive):
    """IoU of a reference and a prediction that agree in words, else 0; the
    IoU is worked out either way, so an overflow raises whatever they say."""
    overlap = clip_quad_iou(g[1], p[1])
    return overlap if _words_agree(g[2], p[2], spotting, case_insensitive) else 0.0


def _frame_preds(gt, pred, f, spotting):
    """The frame's references and the predictions off every ignored region;
    in spotting each of those must be transcribed."""
    gt_active, gt_ignored = _split_frame(gt.frames.get(f, []))
    pred_all, _ = _split_frame(pred.frames.get(f, []))
    preds = [p for p in pred_all if not _on_ignored_region(p[1], gt_ignored)]
    for tid, _, text in preds:
        if spotting and text is None:
            raise MissingTranscription(f"prediction track {tid} frame {f} has no transcription")
    return gt_active, preds


def _detection_pass(gt, pred, iou_thresh, spotting, case_insensitive):
    counters = DetCounters()
    for f in range(gt.frame_count):
        gt_active, preds = _frame_preds(gt, pred, f, spotting)
        # in track-id order, the order that breaks the assignment's ties
        gt_active.sort(key=lambda g: g[0])
        preds.sort(key=lambda p: p[0])
        ious = [[_pair_iou(g, p, spotting, case_insensitive) for p in preds]
                for g in gt_active]
        tp = len(_gated_max_iou_pairs(ious, iou_thresh))
        counters.tp += tp
        counters.fn += len(gt_active) - tp
        counters.fp += len(preds) - tp
    return counters


def _clear_pass(gt, pred, iou_thresh, spotting, case_insensitive):
    counters = MotCounters()
    active_corr, last_match = {}, {}
    for f in range(gt.frame_count):
        gt_active, preds = _frame_preds(gt, pred, f, spotting)
        gt_by_id = {g[0]: g for g in gt_active}
        pred_by_id = {p[0]: p for p in preds}
        matches, matched_pred, iou_of = {}, set(), {}
        for gid, pid in active_corr.items():
            if gid in gt_by_id and pid in pred_by_id:
                overlap = _pair_iou(gt_by_id[gid], pred_by_id[pid], spotting,
                                    case_insensitive)
                if overlap >= iou_thresh:
                    matches[gid] = pid
                    matched_pred.add(pid)
                    iou_of[gid] = overlap
        # the remainder in track-id order, the order that breaks CLEAR's ties
        rem_g = sorted((g for g in gt_active if g[0] not in matches), key=lambda g: g[0])
        rem_p = sorted((p for p in preds if p[0] not in matched_pred), key=lambda p: p[0])
        ious = [[_pair_iou(g, p, spotting, case_insensitive) for p in rem_p]
                for g in rem_g]
        for gi, pi in _gated_max_iou_pairs(ious, iou_thresh):
            gid, pid = rem_g[gi][0], rem_p[pi][0]
            matches[gid] = pid
            iou_of[gid] = ious[gi][pi]
            if gid in last_match and last_match[gid] != pid:
                counters.mismatches += 1
        for gid, pid in matches.items():
            last_match[gid] = pid
        counters.gt_count += len(gt_active)
        counters.matches += len(matches)
        counters.misses += len(gt_active) - len(matches)
        counters.false_positives += len(preds) - len(matches)
        counters.matched_iou_sum += sum(iou_of.values())
        active_corr = matches
    return counters


def _identity_tracks(ann, ignored_by_frame=None):
    """Per-track frame slots ``(track id, quad, transcription)``;
    ``ignored_by_frame`` is given for predictions only, which are dropped on
    an ignored region."""
    tracks = {}
    for f in sorted(ann.frames):
        for inst in ann.frames[f]:
            if inst.ignore:
                continue
            quad = _usable_quad(inst.quad)
            if ignored_by_frame is not None and _on_ignored_region(
                    quad, ignored_by_frame.get(f, [])):
                continue
            tracks.setdefault(inst.track_id, {})[f] = (inst.track_id, quad, inst.transcription)
    return tracks


def _identity_pass(gt, pred, iou_thresh, spotting, case_insensitive):
    """Two slots agree when detection and CLEAR may match them: their IoU
    reaches the gate and, in spotting, their words agree."""
    ignored_by_frame = {
        f: [_usable_quad(i.quad) for i in instances if i.ignore]
        for f, instances in gt.frames.items()
    }
    gt_tracks = _identity_tracks(gt)
    pred_tracks = _identity_tracks(pred, ignored_by_frame)
    g_ids, p_ids = sorted(gt_tracks), sorted(pred_tracks)

    def overlap(g_frames, p_frames):
        return sum(_pair_iou(g_frames[f], p_frames[f], spotting, case_insensitive) >= iou_thresh
                   for f in g_frames.keys() & p_frames.keys())

    overlaps = [[overlap(gt_tracks[g], pred_tracks[p]) for p in p_ids] for g in g_ids]
    assigned = dict(component_pairs([[n > 0 for n in row] for row in overlaps],
                                    overlaps))
    id_tp = sum(overlaps[gi][pi] for gi, pi in assigned.items())
    total_gt = sum(len(v) for v in gt_tracks.values())
    total_pred = sum(len(v) for v in pred_tracks.values())
    mt = ml = 0
    for gi, g in enumerate(g_ids):
        covered = overlaps[gi][assigned[gi]] if gi in assigned else 0
        coverage = covered / len(gt_tracks[g])
        if coverage >= 0.8:
            mt += 1
        elif coverage < 0.2:
            ml += 1
    counters = IdCounters(id_tp=id_tp, id_fp=total_pred - id_tp,
                          id_fn=total_gt - id_tp, gt_tracks=len(g_ids))
    return mt, ml, counters


def three_pass_report(gt, pred, task, *, iou_thresh=0.5, case_insensitive=False):
    """``evaluate(...).to_dict()`` computed by three independent passes,
    each clipping every gt x pred pair it looks at."""
    spotting = task == "spotting"
    det = _detection_pass(gt, pred, iou_thresh, spotting, case_insensitive)
    mot, ids, mt, ml = MotCounters(), IdCounters(), 0, 0
    if task != "detection":
        mot = _clear_pass(gt, pred, iou_thresh, spotting, case_insensitive)
        mt, ml, ids = _identity_pass(gt, pred, iou_thresh, spotting, case_insensitive)
    return MetricsReport(task, mt=mt, ml=ml, det=det, mot=mot, ids=ids,
                         video_id=gt.video_id, scenario=gt.scenario).to_dict()


def _dense_associate(tracker, detections):
    """``Tracker._associate`` on a dense table: every track/detection IoU
    is kept, and the gate components are solved one by one."""
    gate = tracker.cfg.iou_threshold
    ious = [[quad_iou(track.predicted_box.quad, det.box.quad) for det in detections]
            for track in tracker.tracks]
    return _gated_max_iou_pairs(ious, gate)


class DenseTracker(Tracker):
    """The tracker with the dense-table association."""

    _associate = _dense_associate


def dense_track(stream, cfg=None):
    """``tracker.run`` with the dense-table association."""
    tracker = DenseTracker(cfg)
    for frame in stream:
        tracker.step(frame)
    return tracker.trajectories()


class _PlainTrajectory:
    def __init__(self, track_id, frame_index, quad, shape, text):
        self.track_id = track_id
        self.frames = {}
        self.append(frame_index, quad, shape, text)

    def append(self, frame_index, quad, shape, text):
        self.frames[frame_index] = Instance(self.track_id, quad, text)
        self.last_frame = frame_index
        self.last_shape = shape
        self.last_text = text


def _norm_edit_ref(a, b):
    return levenshtein_ref(a, b) / max(len(a), len(b), 1)


def _link_shape(quad):
    """The shape the linker scores: ``plain_hull`` refuses a degenerate
    quad, then the one that ``evaluate`` scores."""
    plain_hull(quad)
    return _usable_quad(quad)


def plain_link(frames, cfg=None):
    """``linker.link`` with every object/trajectory pair scored by
    ``clip_quad_iou`` into a dense table, assigned by ``component_pairs``;
    the objects left over are born in object order."""
    cfg = cfg if cfg is not None else LinkerConfig()
    open_trajs = []
    live = []
    last_index = None

    for frame_index, objects in frames:
        if last_index is not None and frame_index <= last_index:
            raise NonMonotonicFrame(
                f"frame {frame_index} after frame {last_index}"
            )
        last_index = frame_index

        live = [t for t in live if frame_index - t.last_frame <= cfg.window]
        shapes = [_link_shape(q) for q, _ in objects]

        table = [[clip_quad_iou(shape, traj.last_shape) for traj in live]
                 for shape in shapes]
        admissible = [
            [table[oi][ci] >= cfg.iou_threshold
             and _norm_edit_ref(objects[oi][1] or "", traj.last_text or "") <= cfg.max_norm_edit
             for ci, traj in enumerate(live)]
            for oi in range(len(objects))]
        linked = dict(component_pairs(admissible, table))

        born = []
        for oi, (quad, text) in enumerate(objects):
            if oi in linked:
                live[linked[oi]].append(frame_index, quad, shapes[oi], text)
            else:
                born.append(_PlainTrajectory(len(open_trajs) + len(born),
                                             frame_index, quad, shapes[oi], text))
        open_trajs += born
        live += born

    return [Trajectory(track_id=t.track_id, frames=t.frames) for t in open_trajs]


# ---------------------------------------------------------------------------
# the json module's writer, the loaders' number test, the bowtie test
# and the box fit as they were
# ---------------------------------------------------------------------------


def first_non_number(values):
    """``(index, type name)`` of the first of ``values`` that is not an
    ``int`` or ``float`` (a ``bool`` is not a number), or None."""
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            return i, type(v).__name__
    return None


def plain_ccw(values):
    """The corners ``Quad.from_flat`` stores for eight numbers: refused as a
    bowtie when a pair of opposite edges properly crosses, each side test
    a call of ``_orient``; else reversed after the first corner when the
    shoelace sum is negative."""
    p = [Pt(float(values[i]), float(values[i + 1])) for i in range(0, 8, 2)]

    def cross(a, b, c, d):
        return (_orient(a, b, c) * _orient(a, b, d) < 0.0
                and _orient(c, d, a) * _orient(c, d, b) < 0.0)

    xy = tuple(v for q in p for v in q)
    if cross(p[0], p[1], p[2], p[3]) or cross(p[1], p[2], p[3], p[0]):
        raise SelfIntersectingQuad(f"corner order describes a self-intersecting quad: {xy}")
    if signed_area(p) < 0.0:
        return tuple(v for q in (p[0], p[3], p[2], p[1]) for v in q)
    return xy


def json_text(value) -> str:
    """The bytes the package's writers must emit for ``value``: the json
    module's own ``indent=1`` form, non-ASCII kept as it is."""
    return json.dumps(value, ensure_ascii=False, indent=1)


def flat_quad_to_rotated(quad):
    """``quad_to_rotated`` as it was: the hull from ``plain_hull``, the
    extents from ``min`` and ``max``, and the winning edge's cos and sin
    computed again from its angle after the loop."""
    hull = plain_hull(quad)
    x0, y0, x1, y1, x2, y2, x3, y3 = quad.as_flat()
    best = None
    n = len(hull)
    for i in range(n):
        (px, py), (qx, qy) = hull[i], hull[(i + 1) % n]
        theta = math.atan2(qy - py, qx - px)
        c, s = math.cos(theta), math.sin(theta)
        ns = -s
        u_0, u_1, u_2, u_3 = c * x0 + s * y0, c * x1 + s * y1, c * x2 + s * y2, c * x3 + s * y3
        v_0, v_1, v_2, v_3 = (ns * x0 + c * y0, ns * x1 + c * y1,
                              ns * x2 + c * y2, ns * x3 + c * y3)
        u0, u1 = min(u_0, u_1, u_2, u_3), max(u_0, u_1, u_2, u_3)
        v0, v1 = min(v_0, v_1, v_2, v_3), max(v_0, v_1, v_2, v_3)
        area = (u1 - u0) * (v1 - v0)
        if best is None or area < best[0]:
            best = (area, theta, u0, u1, v0, v1)
    _, theta, u0, u1, v0, v1 = best
    c, s = math.cos(theta), math.sin(theta)
    uc = (u0 + u1) / 2.0
    vc = (v0 + v1) / 2.0
    w0 = u1 - u0
    h0 = v1 - v0
    if abs(w0 - h0) <= 1e-9 * max(w0, h0):
        cand = [(canonical_angle(theta), w0, h0),
                (canonical_angle(theta + math.pi / 2.0), h0, w0)]
        angle, w, h = min(cand, key=lambda t: (abs(t[0]), t[0]))
    elif h0 > w0:
        angle, w, h = canonical_angle(theta + math.pi / 2.0), h0, w0
    else:
        angle, w, h = canonical_angle(theta), w0, h0
    return RotatedBox(c * uc - s * vc, s * uc + c * vc, w, h, angle)
