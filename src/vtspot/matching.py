"""Bipartite set matching between ground-truth and predicted text instances.

A prediction is a rotated box plus the probability it is text; ground truth
is a rotated box or a "no object" padding entry. The pair cost rewards
confident predictions and penalizes L1 box error, the generalized-IoU gap,
and the cosine angle gap. A hand-rolled shortest-augmenting-path solver
finds the minimum-cost one-to-one matching, in O(n^2 m) for n rows and
m >= n columns (a tall problem is padded with columns); the set loss scores a
matched set with log-likelihood class terms plus the same box terms, reading
each matched pair's GIoU from the matching that priced it.  The
tracker, the linker and the detection, CLEAR and identity passes solve
their gated max-weight assignments with ``gated_assign``, one connected
component of admissible pairs at a time, each priced for the same solver
by ``gated_cost``; admissible pairs that are already a matching are taken
as they are.  The tracker, the linker, detection and CLEAR weigh a
pair by its ``geometry.quad_iou``; identity weighs a trajectory pair by
its agreeing frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import MatchingError, NonFiniteCost, SizeMismatch
from .geometry import RotatedBox, giou, rotated_to_quad

_PROB_EPS = 1e-12

# the set-loss terms in report order, "cls" then the box terms; weight: w_<term>
_TERM_NAMES = ("cls", "l1", "giou", "angle")


@dataclass(frozen=True, slots=True)
class PredictedInstance:
    """A predicted rotated box with its text-class probability."""

    class_prob: float
    box: RotatedBox

    def __post_init__(self):
        if not (0.0 <= self.class_prob <= 1.0):
            raise ValueError(f"class_prob must be in [0,1], got {self.class_prob}")


@dataclass(frozen=True, slots=True)
class GroundTruthInstance:
    """A ground-truth box, or a no-object padding entry when is_object is False."""

    box: RotatedBox
    is_object: bool = True

    @staticmethod
    def padding() -> "GroundTruthInstance":
        """The no-object entry.  Every call returns the same instance, so
        its box is unrolled once however many sets it pads."""
        return _PADDING


_PADDING = GroundTruthInstance(box=RotatedBox(0.0, 0.0, 1.0, 1.0, 0.0), is_object=False)


@dataclass(frozen=True, slots=True)
class CostWeights:
    w_cls: float = 1.0
    w_l1: float = 5.0
    w_giou: float = 2.0
    w_angle: float = 2.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class Assignment:
    """A partial bijection between gt and pred indices with its total cost."""

    pairs: tuple[tuple[int, int], ...]
    total_cost: float
    # not a field: per pair, the (gt box, pred box, GIoU) that match_sets
    # scored for a matched object pair, or None; None on a built Assignment
    _scored = None


def angle_loss(a_gt: float, a_pred: float) -> float:
    """Cosine angle loss 1 - cos(a_pred - a_gt), in [0, 2].

    Works on the raw difference; callers wanting pi-periodic behavior should
    canonicalize angles first (box constructors already do).
    """
    return 1.0 - math.cos(a_pred - a_gt)


def _flat_preds(a: RotatedBox, preds, w: CostWeights) -> list[tuple]:
    """What a cost row reads of each prediction, read once: its weighted
    class term ``-w_cls * p``, its box, the box's cx, cy, w, h, angle and
    area, then its quad's extents and their padded bounds (``giou``'s
    broad phase).  Built at the first object row, ``a``, it unrolls the
    boxes in the order of that row's ``giou`` calls: ``a``, the first
    prediction, ``a``'s extents, then each prediction's extents, so that a
    refused set raises what ``giou`` would have raised first."""
    qa = rotated_to_quad(a)
    rotated_to_quad(preds[0].box)
    qa._convex_extents()
    out = []
    for p in preds:
        b = p.box
        lo_x, lo_y, hi_x, hi_y, pad = rotated_to_quad(b)._convex_extents()
        out.append((-w.w_cls * p.class_prob, b, b.cx, b.cy, b.w, b.h, b.angle, b.w * b.h,
                    lo_x, lo_y, hi_x, hi_y, lo_x - pad, lo_y - pad, hi_x + pad, hi_y + pad))
    return out


def _cost_row(a: RotatedBox, flat: list[tuple], w: CostWeights) -> tuple[list[float], list[float]]:
    """The matching costs of object box ``a`` against each prediction of
    ``flat`` (``_flat_preds``), ``cls + w_l1*l1 + w_giou*(1 - giou) +
    w_angle*(1 - cos(pred angle - gt angle))`` summed in that order, and
    the GIoU each cost used.  A pair whose padded extents are apart is
    scored in closed form, ``0.0 - (hull - union) / hull`` when the hull
    exceeds the union and 0 otherwise, the floats ``giou`` returns for it;
    only the other pairs call ``giou``.  Areas that overflowed make a nan
    GIoU and so a nan cost; ``match_sets`` and ``pair_cost`` then raise
    the ValueError ``giou`` raises for that pair."""
    lo_x, lo_y, hi_x, hi_y, pad = rotated_to_quad(a)._convex_extents()
    p_lo_x, p_lo_y, p_hi_x, p_hi_y = lo_x - pad, lo_y - pad, hi_x + pad, hi_y + pad
    a_cx, a_cy, a_w, a_h, a_angle = a.cx, a.cy, a.w, a.h, a.angle
    a_area = a_w * a_h
    w_l1, w_giou, w_angle = w.w_l1, w.w_giou, w.w_angle
    # read here, not at import, so that a rebound module global is called
    score, cos = giou, math.cos
    costs, scores = [], []
    for (cls, b, cx, cy, bw, bh, angle, area, b_lo_x, b_lo_y, b_hi_x, b_hi_y,
         bp_lo_x, bp_lo_y, bp_hi_x, bp_hi_y) in flat:
        if p_hi_x < bp_lo_x or bp_hi_x < p_lo_x or p_hi_y < bp_lo_y or bp_hi_y < p_lo_y:
            hull = (((b_hi_x if b_hi_x > hi_x else hi_x) - (b_lo_x if b_lo_x < lo_x else lo_x))
                    * ((b_hi_y if b_hi_y > hi_y else hi_y) - (b_lo_y if b_lo_y < lo_y else lo_y)))
            if hull <= 0.0:
                g = 0.0
            else:
                gap = hull - (a_area + area)
                # not max(0.0, gap), which would read a nan gap as 0
                g = 0.0 if gap <= 0.0 else 0.0 - gap / hull
        else:
            g = score(a, b)
        scores.append(g)
        costs.append(cls + w_l1 * (abs(a_cx - cx) + abs(a_cy - cy) + abs(a_w - bw) + abs(a_h - bh))
                     + w_giou * (1.0 - g) + w_angle * (1.0 - cos(angle - a_angle)))
    return costs, scores


def pair_cost(gt: GroundTruthInstance, pred: PredictedInstance, w: CostWeights) -> float:
    """Matching cost of one (gt, pred) pair, the one-prediction row of
    ``match_sets``' cost matrix; 0 for no-object gt entries, whose boxes
    are therefore never unrolled."""
    if not gt.is_object:
        return 0.0
    costs, scores = _cost_row(gt.box, _flat_preds(gt.box, (pred,), w), w)
    if costs[0] != costs[0]:
        _refuse_overflowed_pair((gt,), (pred,), (scores,))
    return costs[0]


def hungarian(cost) -> Assignment:
    """Exact minimum-cost assignment of every row of an n×m matrix, n <= m.

    Shortest-augmenting-path formulation with row/column potentials: each
    row is inserted in turn along a shortest path over the m columns, so
    the solve costs O(n^2 m) and returns n pairs, one per row (Bourgeois &
    Lassalle 1971; a square matrix is the case n = m).  Each step of a path
    scans only the columns the path has not reached yet, kept in ascending
    order, and shifts the potentials of those it has.  A matrix with more
    rows than columns, or a ragged one, raises ValueError; a nan or an
    infinity raises NonFiniteCost naming its first cell in row-major order
    (finite cells whose sum overflows are accepted, but an optimal total
    past the float range raises MatchingError, as does a row or column
    potential that overflows it, since a scan that read it may have taken
    a worse path).  Ties are broken by
    the lowest column index at every scan, so the result is deterministic
    for equal-cost optima.
    """
    n = len(cost)
    if n == 0:
        return Assignment((), 0.0)
    m = len(cost[0])
    if n > m:
        raise ValueError(f"cost matrix has {n} rows but only {m} columns")
    rows = []  # 1-based: rows[i][j] is cost[i][j - 1]
    for i, row in enumerate(cost):
        if len(row) != m:
            raise ValueError(f"cost matrix is ragged, row {i} has {len(row)} entries, not {m}")
        # an inf or a nan anywhere makes the sum non-finite
        if not math.isfinite(sum(row)):
            for j, value in enumerate(row):
                if not math.isfinite(value):
                    raise NonFiniteCost(f"cost[{i}][{j}] = {value!r}")
        rows.append((0.0, *row))

    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    col_to_row = [0] * (m + 1)  # 1-based; 0 means unassigned
    way = [0] * (m + 1)
    for i in range(1, n + 1):
        col_to_row[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        free = list(range(1, m + 1))
        used = [0]
        # the last step's delta, still to be taken off each free minv: the
        # scan takes it off as it reads, the same subtraction a separate
        # pass would make (x - 0.0 is x, so the first step is unchanged)
        shift = 0.0
        while True:
            i0 = col_to_row[j0]
            row = rows[i0 - 1]
            u_i0 = u[i0]
            delta = inf
            j1 = 0
            for j in free:
                cur = row[j] - u_i0 - v[j]
                best = minv[j] - shift
                if cur < best:
                    best = cur
                    way[j] = j0
                minv[j] = best
                if best < delta:
                    delta = best
                    j1 = j
            if j1 == 0:
                # every reduced cost was inf or nan: the potentials overflowed
                raise _potentials_overflow(n, m)
            for j in used:
                u[col_to_row[j]] += delta
                v[j] -= delta
            shift = delta
            j0 = j1
            if col_to_row[j0] == 0:
                break
            free.remove(j0)
            used.append(j0)
        while j0 != 0:
            j1 = way[j0]
            col_to_row[j0] = col_to_row[j1]
            j0 = j1

    pairs = sorted((col_to_row[j] - 1, j - 1) for j in range(1, m + 1) if col_to_row[j])
    try:
        total = math.fsum(cost[r][c] for r, c in pairs)
    except OverflowError:
        raise MatchingError(f"the optimal total of the {n}x{m} cost matrix "
                            "overflows the float range") from None
    # a potential past the float range stays inf or nan, and the scans that
    # read it may have taken a worse path (v[0], the dummy column's, sums
    # the path lengths and may overflow harmlessly)
    if not (all(map(math.isfinite, u)) and all(map(math.isfinite, v[1:]))):
        raise _potentials_overflow(n, m)
    return Assignment(tuple(pairs), total)


def _potentials_overflow(n: int, m: int) -> MatchingError:
    return MatchingError(f"the row and column potentials of the {n}x{m} "
                         "cost matrix overflow the float range")


def gated_cost(
    weights: dict[tuple[int, int], float], n_rows: int, n_cols: int
) -> list[list[float]]:
    """``n_rows`` × ``max(n_rows, n_cols)`` cost matrix of a max-weight
    assignment over the admissible (row, col) pairs in ``weights``: a listed
    pair costs ``1.0 - weight`` and every other cell, padding included,
    costs 1.0.  A tall problem is padded with columns, so that ``hungarian``
    can place every row; rows are never padded.  Callers keep only the
    solution pairs listed in ``weights``."""
    n = max(n_rows, n_cols)
    cost = [[1.0] * n for _ in range(n_rows)]
    for (r, c), weight in weights.items():
        cost[r][c] = 1.0 - weight
    return cost


def gated_assign(weights: dict[tuple[int, int], float]) -> list[tuple[int, int]]:
    """Max-weight one-to-one assignment over the admissible (row, col) pairs
    in ``weights``, each of positive weight; returns the chosen pairs, all
    listed, sorted by row.  Rows and columns are any sortable, hashable
    keys (matrix indices for the tracker, object and trajectory indices
    for the linker, track ids for the metrics); they need not be
    contiguous.

    Only listed pairs can be chosen, so the optimum splits over the
    connected components of the bipartite graph the pairs form.  A
    component of one pair is taken as it is; a larger one is solved by
    ``hungarian`` on ``gated_cost`` of its own submatrix, with its rows and
    its columns in ascending order.  A tie is therefore broken inside its
    own component, never by rows or columns that share no listed pair with
    it.  An r×c component costs O(r^2 c) when r <= c, so a star of one row
    against many columns costs a single row scan.  When no row and no
    column repeats, the pairs are already a matching, every pair its own
    component, and they are returned sorted without a walk.
    """
    n_pairs = len(weights)
    if len({r for r, _ in weights}) == n_pairs == len({c for _, c in weights}):
        return sorted(weights)
    row_cols: dict[int, list[int]] = {}
    col_rows: dict[int, list[int]] = {}
    for r, c in weights:
        row_cols.setdefault(r, []).append(c)
        col_rows.setdefault(c, []).append(r)

    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for start, start_cols in row_cols.items():
        if start in seen:
            continue
        seen.add(start)
        if len(start_cols) == 1 and len(col_rows[start_cols[0]]) == 1:
            pairs.append((start, start_cols[0]))
            continue
        rows, cols, stack = [start], set(start_cols), list(start_cols)
        while stack:
            for r in col_rows[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    rows.append(r)
                    for c in row_cols[r]:
                        if c not in cols:
                            cols.add(c)
                            stack.append(c)
        rows.sort()
        cols = sorted(cols)
        col_at = {c: j for j, c in enumerate(cols)}
        sub = {(i, col_at[c]): weights[r, c]
               for i, r in enumerate(rows) for c in row_cols[r]}
        for i, j in hungarian(gated_cost(sub, len(rows), len(cols))).pairs:
            if (i, j) in sub:
                pairs.append((rows[i], cols[j]))
    pairs.sort()
    return pairs


def match_sets(gts, preds, w: CostWeights = CostWeights()) -> Assignment:
    """Optimal one-to-one matching between equal-size gt and pred sets.

    Callers pad the ground truth with no-object entries up front; unequal
    sizes raise SizeMismatch.  A padding row is all zeros and unrolls
    nothing, so an all-padding frame unrolls no box.  At the first object
    row each prediction's class term, box fields and padded extents are
    read once (``_flat_preds``); each object's row of ``pair_cost``s is
    then built in one loop over them.  A pair whose padded extents are
    apart is scored in ``giou``'s closed form inside the loop, and every
    other pair calls ``giou`` once.  The result keeps each matched object
    pair's GIoU for ``set_loss_terms``.
    """
    if len(gts) != len(preds):
        raise SizeMismatch(f"{len(gts)} ground-truth entries vs {len(preds)} predictions")
    flat = None
    zeros = [0.0] * len(preds)
    rows, scores = [], []
    for g in gts:
        if g.is_object:
            if flat is None:
                flat = _flat_preds(g.box, preds, w)
            row, row_scores = _cost_row(g.box, flat, w)
            rows.append(row)
            scores.append(row_scores)
        else:
            rows.append(zeros)
            scores.append(None)
    try:
        assignment = hungarian(rows)
    except NonFiniteCost:
        _refuse_overflowed_pair(gts, preds, scores)
        raise
    object.__setattr__(assignment, "_scored", tuple(
        None if scores[gi] is None else (gts[gi].box, preds[pi].box, scores[gi][pi])
        for gi, pi in assignment.pairs))
    return assignment


def _refuse_overflowed_pair(gts, preds, scores) -> None:
    """Raise ``giou``'s own ValueError for the first pair, in row-major
    order, whose GIoU in ``scores`` (``_cost_row``'s, or None for a padding
    row) is nan: an apart pair whose areas overflowed, which the closed
    form scores as nan where ``giou`` refuses it.  Called only once a cost
    matrix has been refused, so finite rows pay nothing for it."""
    for gt, row_scores in zip(gts, scores):
        if row_scores is not None:
            for pred, g in zip(preds, row_scores):
                if g != g:
                    giou(gt.box, pred.box)


def _clamp_prob(p: float) -> float:
    return min(max(p, _PROB_EPS), 1.0 - _PROB_EPS)


def set_loss_terms(gts, preds, assignment: Assignment, w: CostWeights) -> dict[str, float]:
    """Per-term breakdown of the set loss over the matched pairs.

    Keys: "cls" (negative log-likelihood, unweighted by construction), and
    the weighted "l1", "giou", "angle" box terms, which only real objects
    contribute to. No-object pairs pay -log of the predicted no-object
    probability instead.

    A matched pair's GIoU is read from ``assignment`` when ``match_sets``
    scored these very boxes (``is``) for it; any other pair, or a built
    ``Assignment``, calls ``giou``.  The floats are the same either way.
    """
    w_l1, w_giou, w_angle = w.w_l1, w.w_giou, w.w_angle
    scored = assignment._scored or (None,) * len(assignment.pairs)
    cls = l1 = giou_term = angle = 0.0
    for (gi, pi), seen in zip(assignment.pairs, scored):
        gt = gts[gi]
        pred = preds[pi]
        if gt.is_object:
            cls += -math.log(_clamp_prob(pred.class_prob))
            a, b = gt.box, pred.box
            l1 += w_l1 * (abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h))
            if seen is not None and seen[0] is a and seen[1] is b:
                g = seen[2]
            else:
                g = giou(a, b)
            giou_term += w_giou * (1.0 - g)
            angle += w_angle * angle_loss(a.angle, b.angle)
        else:
            cls += -math.log(_clamp_prob(1.0 - pred.class_prob))
    return dict(zip(_TERM_NAMES, (cls, l1, giou_term, angle)))


def set_loss(gts, preds, assignment: Assignment, w: CostWeights = CostWeights()) -> float:
    """Total set-prediction loss for an assignment produced by match_sets."""
    return math.fsum(set_loss_terms(gts, preds, assignment, w).values())
