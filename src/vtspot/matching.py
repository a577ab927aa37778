"""Bipartite set matching between ground-truth and predicted text instances.

A prediction is a rotated box plus the probability it is text; ground truth
is a rotated box or a "no object" padding entry. The pair cost rewards
confident predictions and penalizes L1 box error, the generalized-IoU gap,
and the cosine angle gap. A hand-rolled shortest-augmenting-path solver
finds the minimum-cost one-to-one matching, in O(n^2 m) for n rows and
m >= n columns (a tall problem is padded with columns); the set loss scores a
matched set with log-likelihood class terms plus the same box terms.  The
tracker and the CLEAR and identity passes solve their gated max-weight
assignments with ``gated_assign``, one connected component of admissible
pairs at a time, each priced for the same solver by ``gated_cost``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import NonFiniteCost, SizeMismatch
from .geometry import RotatedBox, giou

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


def angle_loss(a_gt: float, a_pred: float) -> float:
    """Cosine angle loss 1 - cos(a_pred - a_gt), in [0, 2].

    Works on the raw difference; callers wanting pi-periodic behavior should
    canonicalize angles first (box constructors already do).
    """
    return 1.0 - math.cos(a_pred - a_gt)


def _box_terms(a: RotatedBox, b: RotatedBox, w: CostWeights) -> tuple[float, float, float]:
    """The weighted L1, GIoU-gap and angle terms of a (gt, pred) box pair."""
    l1 = abs(a.cx - b.cx) + abs(a.cy - b.cy) + abs(a.w - b.w) + abs(a.h - b.h)
    return (
        w.w_l1 * l1,
        w.w_giou * (1.0 - giou(a, b)),
        w.w_angle * angle_loss(a.angle, b.angle),
    )


def pair_cost(gt: GroundTruthInstance, pred: PredictedInstance, w: CostWeights) -> float:
    """Matching cost of one (gt, pred) pair; 0 for no-object gt entries,
    whose boxes are therefore never unrolled."""
    if not gt.is_object:
        return 0.0
    l1, giou_gap, angle = _box_terms(gt.box, pred.box, w)
    return -w.w_cls * pred.class_prob + l1 + giou_gap + angle


def hungarian(cost) -> Assignment:
    """Exact minimum-cost assignment of every row of an n×m matrix, n <= m.

    Shortest-augmenting-path formulation with row/column potentials: each
    row is inserted in turn along a shortest path over the m columns, so
    the solve costs O(n^2 m) and returns n pairs, one per row (Bourgeois &
    Lassalle 1971; a square matrix is the case n = m).  A matrix with more
    rows than columns, or a ragged one, raises ValueError.  Ties are
    broken by the lowest column index at every scan, so the result is
    deterministic for equal-cost optima.
    """
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
    listed, sorted by row.

    Only listed pairs can be chosen, so the optimum splits over the
    connected components of the bipartite graph the pairs form.  A
    component of one pair is taken as it is; a larger one is solved by
    ``hungarian`` on ``gated_cost`` of its own submatrix, with its rows and
    its columns in ascending order.  A tie is therefore broken inside its
    own component, never by rows or columns that share no listed pair with
    it.  An r×c component costs O(r^2 c) when r <= c, so a star of one row
    against many columns costs a single row scan.
    """
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
    sizes raise SizeMismatch.  The cost matrix is ``pair_cost`` of every
    pair; ``giou`` unrolls each box once, on its first pair.
    """
    if len(gts) != len(preds):
        raise SizeMismatch(f"{len(gts)} ground-truth entries vs {len(preds)} predictions")
    return hungarian([[pair_cost(g, p, w) for p in preds] for g in gts])


def _clamp_prob(p: float) -> float:
    return min(max(p, _PROB_EPS), 1.0 - _PROB_EPS)


def set_loss_terms(gts, preds, assignment: Assignment, w: CostWeights) -> dict[str, float]:
    """Per-term breakdown of the set loss over the matched pairs.

    Keys: "cls" (negative log-likelihood, unweighted by construction), and
    the weighted "l1", "giou", "angle" box terms, which only real objects
    contribute to. No-object pairs pay -log of the predicted no-object
    probability instead.
    """
    terms = dict.fromkeys(_TERM_NAMES, 0.0)
    for gi, pi in assignment.pairs:
        gt = gts[gi]
        pred = preds[pi]
        if gt.is_object:
            terms["cls"] += -math.log(_clamp_prob(pred.class_prob))
            for key, value in zip(_TERM_NAMES[1:], _box_terms(gt.box, pred.box, w)):
                terms[key] += value
        else:
            terms["cls"] += -math.log(_clamp_prob(1.0 - pred.class_prob))
    return terms


def set_loss(gts, preds, assignment: Assignment, w: CostWeights = CostWeights()) -> float:
    """Total set-prediction loss for an assignment produced by match_sets."""
    return math.fsum(set_loss_terms(gts, preds, assignment, w).values())
