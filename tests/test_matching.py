import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtspot.errors import MatchingError, NonFiniteCost, SizeMismatch
from vtspot.geometry import RotatedBox, _apart, giou
from vtspot.matching import (
    Assignment,
    CostWeights,
    GroundTruthInstance,
    PredictedInstance,
    angle_loss,
    gated_assign,
    gated_cost,
    hungarian,
    match_sets,
    pair_cost,
    set_loss,
    set_loss_terms,
)

from oracles import brute_force_assignment, component_pairs, plain_hungarian, random_box

UNIT = CostWeights(1.0, 1.0, 1.0, 1.0)


def gt_of(*params) -> GroundTruthInstance:
    return GroundTruthInstance(box=RotatedBox(*params))


def pred_of(prob, *params) -> PredictedInstance:
    return PredictedInstance(class_prob=prob, box=RotatedBox(*params))


# ---------------------------------------------------------------------------
# angle loss
# ---------------------------------------------------------------------------


def test_angle_loss_table():
    assert angle_loss(0.7, 0.7) == 0.0
    assert angle_loss(0.0, math.pi) == 2.0
    assert abs(angle_loss(0.0, math.pi / 3) - 0.5) <= 1e-15


def test_angle_loss_bounds_and_period():
    rng = random.Random(3)
    for _ in range(2000):
        a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
        v = angle_loss(a, b)
        assert 0.0 <= v <= 2.0
        assert abs(v - angle_loss(a, b + 2 * math.pi)) < 1e-12
        assert v == angle_loss(b, a)  # cos is even in the difference


def test_angle_loss_no_canonicalization():
    # a quarter-turn difference costs 1, even though the boxes would look alike
    assert angle_loss(0.0, math.pi / 2) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# pair cost
# ---------------------------------------------------------------------------


def test_pair_cost_perfect_prediction():
    g = gt_of(3.0, 4.0, 2.0, 1.0, 0.0)
    p = PredictedInstance(class_prob=1.0, box=g.box)
    assert pair_cost(g, p, UNIT) == pytest.approx(-1.0, abs=1e-12)


def test_pair_cost_no_object_is_zero():
    pad = GroundTruthInstance.padding()
    p = pred_of(0.99, 50, 50, 10, 3, 1.0)
    assert pair_cost(pad, p, UNIT) == 0.0
    assert pair_cost(pad, p, CostWeights()) == 0.0


def test_pair_cost_shifted_box_recomputed():
    # shifted unit-height boxes: overlap 0.01, union 0.03, hull 0.03 => giou 1/3
    g = gt_of(0.5, 0.5, 0.2, 0.1, 0.0)
    p = pred_of(0.8, 0.6, 0.5, 0.2, 0.1, 0.0)
    inter = 0.1 * 0.1
    union = 2 * 0.02 - inter
    hull = 0.3 * 0.1
    expected_giou = inter / union - (hull - union) / hull
    assert giou(g.box, p.box) == pytest.approx(expected_giou, abs=1e-12)
    expected = -0.8 + 0.1 + (1.0 - expected_giou) + 0.0
    assert pair_cost(g, p, UNIT) == pytest.approx(expected, abs=1e-12)


def test_pair_cost_dominance():
    rng = random.Random(41)
    for _ in range(200):
        g = gt_of(*random_box(rng))
        better = pred_of(
            0.9,
            g.box.cx + 0.01,
            g.box.cy,
            g.box.w,
            g.box.h,
            g.box.angle + 0.01,
        )
        worse = pred_of(
            0.5,
            g.box.cx + 1.5,
            g.box.cy + 1.5,
            g.box.w * 1.5,
            g.box.h * 0.5,
            g.box.angle + 0.8,
        )
        assert pair_cost(g, better, CostWeights()) < pair_cost(g, worse, CostWeights())


def test_weights_reject_negative():
    with pytest.raises(ValueError):
        CostWeights(w_l1=-1.0)


@pytest.mark.parametrize("name", ["w_cls", "w_l1", "w_giou", "w_angle"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_weights_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative"):
        CostWeights(**{name: value})


def test_weights_accept_zero():
    assert CostWeights(0.0, 0.0, 0.0, 0.0).w_giou == 0.0


# ---------------------------------------------------------------------------
# hungarian solver
# ---------------------------------------------------------------------------


def test_hungarian_one_by_one():
    a = hungarian([[5.0]])
    assert a.pairs == ((0, 0),)
    assert a.total_cost == 5.0


def test_hungarian_identity_dominant():
    a = hungarian([[0.0, 9.0], [9.0, 0.0]])
    assert a.pairs == ((0, 0), (1, 1))
    assert a.total_cost == 0.0


def test_hungarian_prefers_cross_pairing():
    a = hungarian([[9.0, 1.0], [1.0, 9.0]])
    assert a.pairs == ((0, 1), (1, 0))
    assert a.total_cost == 2.0


def test_hungarian_rejects_non_finite():
    with pytest.raises(NonFiniteCost):
        hungarian([[0.0, math.nan], [1.0, 2.0]])
    with pytest.raises(NonFiniteCost):
        hungarian([[math.inf]])


def test_hungarian_solves_a_finite_row_whose_sum_overflows():
    assert hungarian([[1e308, 1e308]]) == Assignment(((0, 0),), 1e308)
    assert hungarian([[1e308, 1e308], [1e308, 0.0]]).pairs == ((0, 0), (1, 1))


@pytest.mark.parametrize("cost", [
    [[1e308, -1e308], [-1e308, 1e308]],
    [[1e308, 1e308], [1e308, 1e308]],
    [[-1.5e308, 0.0, 0.0], [0.0, -1.5e308, 0.0]],
])
def test_hungarian_refuses_an_optimal_total_past_the_float_range(cost):
    with pytest.raises(MatchingError, match="optimal total .* overflows the float range") as exc_info:
        hungarian(cost)
    assert not isinstance(exc_info.value, NonFiniteCost)
    assert isinstance(exc_info.value, ValueError)


# Found by the search below: the third row's insertion takes a column
# potential to -inf, and the scans that read it return pairs totalling
# about 8.7e307 where the optimum is about -2.7e307.
POTENTIALS_OVERFLOW_SILENTLY = [
    [-1.228042835713354e+307, 1.101975395315851e+306, -1.7976931348623157e+308],
    [-1.1494316853836486e+307, 1.5e+308, 0.0],
    [1.1666764961252425e+308, 1.648780907156455e+308, -1.6364656588652986e+307],
]


def test_hungarian_refuses_potentials_that_overflow_after_a_column_is_picked():
    cost = POTENTIALS_OVERFLOW_SILENTLY
    best, _ = exact_best_assignment(cost)
    assert float(best) < -2e307
    with pytest.raises(MatchingError, match="potentials of the 3x3 cost matrix "
                                            "overflow the float range"):
        hungarian(cost)


def exact_best_assignment(cost) -> tuple[Fraction, tuple[int, ...]]:
    """``brute_force_assignment`` with exact ``Fraction`` totals, which
    cannot overflow."""
    exact = [[Fraction(v) for v in row] for row in cost]
    n, m = len(cost), len(cost[0])
    return min((sum(exact[i][cols[i]] for i in range(n)), cols)
               for cols in itertools.permutations(range(m), n))


def extreme_cell(rng: random.Random) -> float:
    """0, 1, or a value of either sign between 1e306 and the float maximum."""
    k = rng.random()
    if k < 0.15:
        return 0.0
    if k < 0.25:
        return 1.0
    sign = rng.choice((-1.0, 1.0))
    if k < 0.35:
        return sign * rng.choice((1e306, 1e307, 1e308, 1.5e308, 1.7e308, sys.float_info.max))
    return sign * rng.uniform(1.0, 1.7976931348623157) * 10.0 ** rng.choice((306, 307, 307, 308))


def test_hungarian_is_optimal_or_refuses_near_the_float_range():
    """A seeded search of matrices up to 5x5 whose cells reach the float
    range: each solve either raises MatchingError or returns pairs that
    (a) equal the solve of the matrix scaled by 2**-600, where nothing can
    overflow and every float step is the same step scaled, and (b) total,
    summed exactly, within n ulps of the largest cell of the exact optimum
    (rounding of sums that large, not overflow).  The same search over
    220,000 matrices at seeds 2 to 6 found 10 that an earlier solver,
    without the final check of the potentials, solved to a worse total
    (``POTENTIALS_OVERFLOW_SILENTLY`` is the first), and none with it."""
    rng = random.Random(26)
    solved = refused = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        m = rng.randint(n, 5)
        cost = [[extreme_cell(rng) for _ in range(m)] for _ in range(n)]
        try:
            got = hungarian(cost)
        except MatchingError:
            refused += 1
            continue
        solved += 1
        scaled = hungarian([[math.ldexp(v, -600) for v in row] for row in cost])
        assert got.pairs == scaled.pairs, cost
        best, _ = exact_best_assignment(cost)
        total = sum(Fraction(cost[r][c]) for r, c in got.pairs)
        largest = max(abs(v) for row in cost for v in row)
        assert total - best <= n * math.ulp(largest), cost
    assert solved > 1000 and refused > 1000


def test_hungarian_refuses_potentials_past_the_float_range():
    """Both assignments total 0.0, but inserting the second row shifts the
    potentials past the float range: every reduced cost of the scan is inf
    or nan, and no column can be picked."""
    with pytest.raises(MatchingError, match="potentials of the 2x2 cost matrix "
                                            "overflow the float range") as exc_info:
        hungarian([[-1.5e308, 1.5e308], [-1.5e308, 1.5e308]])
    assert not isinstance(exc_info.value, NonFiniteCost)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hungarian_names_the_first_non_finite_cell_in_row_major_order(bad):
    for n, m in ((1, 1), (2, 3), (3, 3)):
        for first in range(n * m):
            cost = [[float(i * m + j) for j in range(m)] for i in range(n)]
            for k in (first, n * m - 1):
                cost[k // m][k % m] = bad
            i, j = divmod(first, m)
            with pytest.raises(NonFiniteCost, match=rf"^cost\[{i}\]\[{j}\] = "):
                hungarian(cost)


def test_hungarian_equals_the_all_columns_solver():
    """The free-column scan against ``plain_hungarian``, which tests every
    column for use at every step: equal pairs and a bit-identical total,
    half of the matrices tie-heavy, the other half drawn from a wide range."""
    rng = random.Random(121)
    for k in range(4000):
        m = rng.randint(1, 9)
        n = rng.randint(1, m)
        if k % 2:
            cost = [[float(rng.randint(0, 3)) for _ in range(m)] for _ in range(n)]
        else:
            cost = [[rng.uniform(-1e3, 1e3) for _ in range(m)] for _ in range(n)]
        got, want = hungarian(cost), plain_hungarian(cost)
        assert got.pairs == want.pairs, cost
        assert got.total_cost.hex() == want.total_cost.hex(), cost


def test_hungarian_rejects_ragged():
    with pytest.raises(ValueError, match="ragged"):
        hungarian([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError, match="ragged"):
        hungarian([[1.0, 2.0, 3.0], [3.0, 4.0]])


def test_hungarian_rejects_more_rows_than_columns():
    with pytest.raises(ValueError, match="2 rows but only 1 columns"):
        hungarian([[1.0], [2.0]])
    with pytest.raises(ValueError, match="3 rows but only 2 columns"):
        hungarian([[1.0, 2.0]] * 3)
    with pytest.raises(ValueError):
        hungarian([[]])


def test_hungarian_one_row_takes_the_cheapest_lowest_column():
    assert hungarian([[3.0, 1.0, 2.0, 1.0]]) == Assignment(((0, 1),), 1.0)
    assert hungarian([[0.5] * 5]).pairs == ((0, 0),)


def _rectangular_cost(rng, n, m):
    """A random n×m matrix, drawn either from a few values, so that optima
    tie, or from a continuous range."""
    if rng.random() < 0.5:
        return [[rng.choice((-1.0, 0.0, 0.25, 0.5, 1.0)) for _ in range(m)]
                for _ in range(n)]
    return [[rng.uniform(-10, 10) for _ in range(m)] for _ in range(n)]


def test_hungarian_rectangular_matches_enumeration_and_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(102)
    for _ in range(300):
        m = rng.randint(1, 7)
        n = rng.randint(1, m)
        cost = _rectangular_cost(rng, n, m)
        got = hungarian(cost)
        assert [r for r, _ in got.pairs] == list(range(n))
        assert len({c for _, c in got.pairs}) == n
        assert all(0 <= c < m for _, c in got.pairs)
        assert got.total_cost == math.fsum(cost[r][c] for r, c in got.pairs)
        want_total, _ = brute_force_assignment(cost)
        assert got.total_cost == pytest.approx(want_total, abs=1e-9)
        rows, cols = scipy_opt.linear_sum_assignment(cost)
        assert got.total_cost == pytest.approx(
            math.fsum(cost[r][c] for r, c in zip(rows, cols)), abs=1e-9)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)))
def test_hungarian_of_a_wide_matrix_is_its_dense_padded_solve(n, extra, seed, k):
    """Rows of any constant k that pad an n×m matrix to a square one never
    displace a real row: the square solve gives the real rows the same
    columns as the rectangular one, ties included."""
    cost = _rectangular_cost(random.Random(seed), n, n + extra)
    padded = cost + [[k] * (n + extra) for _ in range(extra)]
    dense = hungarian(padded).pairs
    assert hungarian(cost).pairs == tuple(pair for pair in dense if pair[0] < n)


def test_hungarian_matches_enumeration_small_sweep():
    rng = random.Random(101)
    for trial in range(200):
        n = rng.randint(1, 5)
        if trial % 2 == 0:
            cost = [[float(rng.randint(-20, 20)) for _ in range(n)] for _ in range(n)]
        else:
            cost = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(n)]
        got = hungarian(cost)
        want_total, _ = brute_force_assignment(cost)
        assert got.total_cost == pytest.approx(want_total, abs=1e-9)
        rows = [r for r, _ in got.pairs]
        cols = [c for _, c in got.pairs]
        assert sorted(rows) == list(range(n)) and sorted(cols) == list(range(n))
        assert got.total_cost == pytest.approx(
            sum(cost[r][c] for r, c in got.pairs), abs=1e-9
        )


def test_hungarian_agrees_with_scipy_on_larger_matrices():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(8, 30)
        cost = [[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)]
        got = hungarian(cost)
        rows, cols = scipy_opt.linear_sum_assignment(cost)
        want = sum(cost[r][c] for r, c in zip(rows, cols))
        assert got.total_cost == pytest.approx(want, abs=1e-9)


def test_hungarian_permutation_equivariance():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(2, 6)
        cost = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(n)]
        base = hungarian(cost)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [cost[perm[i]] for i in range(n)]
        moved = hungarian(shuffled)
        assert moved.total_cost == pytest.approx(base.total_cost, abs=1e-9)
        # row i of the shuffled matrix is row perm[i] of the original
        base_pairs = dict(base.pairs)
        remapped = sorted((perm[r], c) for r, c in moved.pairs)
        assert sum(cost[r][c] for r, c in remapped) == pytest.approx(
            base.total_cost, abs=1e-9
        )
        del base_pairs


def test_hungarian_row_shift_moves_total_by_constant():
    rng = random.Random(66)
    for _ in range(50):
        n = rng.randint(2, 6)
        cost = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(n)]
        k = rng.uniform(-5, 5)
        row = rng.randrange(n)
        shifted = [list(r) for r in cost]
        shifted[row] = [x + k for x in shifted[row]]
        assert hungarian(shifted).total_cost == pytest.approx(
            hungarian(cost).total_cost + k, abs=1e-9
        )


# Weights as the callers list them: IoUs in (0, 1], with repeats so that
# optima tie, and the integer agreement counts of the identity pass.
pair_weights = st.one_of(st.sampled_from((0.25, 0.5, 1.0)), st.floats(0.01, 1.0),
                         st.integers(1, 4))


@st.composite
def sparse_weights(draw):
    n_rows, n_cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    listed = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return {pair: draw(pair_weights) for pair in listed}, n_rows, n_cols


@settings(max_examples=300, deadline=None)
@given(sparse_weights())
def test_gated_cost_solution_is_a_max_weight_matching(case):
    weights, n_rows, n_cols = case
    kept = [pair for pair in hungarian(gated_cost(weights, n_rows, n_cols)).pairs
            if pair in weights]
    assert len({r for r, _ in kept}) == len({c for _, c in kept}) == len(kept)
    assert all(r < n_rows and c < n_cols for r, c in kept)
    n = max(n_rows, n_cols)
    best, _ = brute_force_assignment(
        [[-weights.get((r, c), 0) for c in range(n)] for r in range(n)])
    assert math.fsum(weights[pair] for pair in kept) == pytest.approx(-best, abs=1e-9)


def test_gated_cost_prices_listed_pairs_and_pads_with_one():
    """One row per problem row, and as many columns as the larger side:
    a wide problem is not padded, a tall one is padded with columns."""
    assert gated_cost({}, 0, 0) == []
    assert gated_cost({}, 0, 3) == []
    assert gated_cost({}, 1, 2) == [[1.0, 1.0]]
    assert gated_cost({(0, 2): 0.5, (1, 0): 1}, 2, 3) == [
        [1.0, 1.0, 0.5], [0.0, 1.0, 1.0]]
    assert gated_cost({(0, 1): 0.75, (2, 0): 3}, 3, 2) == [
        [1.0, 0.25, 1.0], [1.0, 1.0, 1.0], [-2.0, 1.0, 1.0]]


def test_gated_assign_of_nothing_is_empty():
    assert gated_assign({}) == []


@settings(max_examples=300, deadline=None)
@given(sparse_weights())
def test_gated_assign_is_a_max_weight_matching(case):
    scipy_opt = pytest.importorskip("scipy.optimize")
    weights, n_rows, n_cols = case
    pairs = gated_assign(weights)
    assert all(pair in weights for pair in pairs)
    assert len({r for r, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)
    assert [r for r, _ in pairs] == sorted(r for r, _ in pairs)
    total = math.fsum(weights[pair] for pair in pairs)
    n = max(n_rows, n_cols)
    table = [[weights.get((r, c), 0) for c in range(n)] for r in range(n)]
    best, _ = brute_force_assignment([[-w for w in row] for row in table])
    assert total == pytest.approx(-best, abs=1e-9)
    if table:  # scipy wants a 2-D array
        rows, cols = scipy_opt.linear_sum_assignment(table, maximize=True)
        want = math.fsum(table[r][c] for r, c in zip(rows, cols))
        assert total == pytest.approx(want, abs=1e-9)


@st.composite
def unique_optimum_weights(draw):
    """Sparse weights that are distinct powers of two, so no two matchings
    share a total and the optimum is unique (and every sum is exact)."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    listed = draw(st.lists(st.sampled_from(cells), unique=True, max_size=12))
    exponents = draw(st.permutations(range(-8, 4)))
    return {pair: 2.0 ** e for pair, e in zip(listed, exponents)}, n_rows, n_cols


@settings(max_examples=300, deadline=None)
@given(unique_optimum_weights())
def test_gated_assign_equals_dense_solve_when_the_optimum_is_unique(case):
    weights, n_rows, n_cols = case
    dense = [pair for pair in hungarian(gated_cost(weights, n_rows, n_cols)).pairs
             if pair in weights]
    assert gated_assign(weights) == dense


# Two matchings tie at 5.49999 here; padding this 4×5 component to a
# square with a fifth row would settle the tie on (1, 3), (3, 4) instead.
PADDING_ROW_MOVES_A_TIE = {
    (0, 0): .25, (0, 1): .25, (0, 2): .25, (0, 3): .25, (0, 4): .25,
    (1, 0): .25, (1, 1): .25, (1, 2): .99999, (1, 3): 4, (1, 4): .25,
    (2, 0): .25, (2, 1): .25, (2, 2): .25, (3, 3): 4, (3, 4): .99999,
}


@settings(max_examples=300, deadline=None)
@given(sparse_weights())
@example((PADDING_ROW_MOVES_A_TIE, 4, 5))
def test_gated_assign_equals_the_padded_square_solve(case):
    """The oracle flood-fills each component of a dense table and solves
    it on a hand-built rows × max(rows, cols) matrix, the shape
    ``gated_assign`` documents.  The two reach the same optimum, and ties
    are settled by the component's own shape, so they agree pair for pair."""
    weights, n_rows, n_cols = case
    admissible = [[(r, c) in weights for c in range(n_cols)] for r in range(n_rows)]
    table = [[weights.get((r, c), 0) for c in range(n_cols)] for r in range(n_rows)]
    assert gated_assign(weights) == component_pairs(admissible, table)


def test_gated_assign_solves_a_star_over_its_own_rows(monkeypatch):
    """A 1×c star is one row scan, not a padded c×c solve; a c×1 star is
    padded with columns, since the solver places every row."""
    shapes = []

    def recording_hungarian(cost):
        shapes.append((len(cost), len(cost[0])))
        return hungarian(cost)

    monkeypatch.setattr("vtspot.matching.hungarian", recording_hungarian)
    assert gated_assign({(3, c): 0.5 + c / 64 for c in range(32)}) == [(3, 31)]
    assert shapes == [(1, 32)]
    shapes.clear()
    assert gated_assign({(r, 3): 0.5 for r in range(4)}) == [(0, 3)]
    assert shapes == [(4, 4)]


@settings(max_examples=300, deadline=None)
@given(sparse_weights(), sparse_weights(), st.data())
def test_gated_assign_is_local_to_each_component(case, other, data):
    """Rows and columns of an unrelated problem, inserted at random indices,
    change none of the existing pairs (ties included) once relabelled."""
    weights, n_rows, n_cols = case
    extra, n_extra_rows, n_extra_cols = other
    row_slots = data.draw(st.permutations([False] * n_rows + [True] * n_extra_rows))
    col_slots = data.draw(st.permutations([False] * n_cols + [True] * n_extra_cols))

    def positions(slots):
        """Merged indices of the original (False) and inserted (True) slots."""
        return ([i for i, inserted in enumerate(slots) if not inserted],
                [i for i, inserted in enumerate(slots) if inserted])

    row_of, extra_row_of = positions(row_slots)
    col_of, extra_col_of = positions(col_slots)
    merged = {(row_of[r], col_of[c]): w for (r, c), w in weights.items()}
    merged.update({(extra_row_of[r], extra_col_of[c]): w for (r, c), w in extra.items()})
    pairs = gated_assign(merged)

    def relabelled(rows, cols):
        back_row = {m: i for i, m in enumerate(rows)}
        back_col = {m: i for i, m in enumerate(cols)}
        return [(back_row[r], back_col[c]) for r, c in pairs if r in back_row]

    assert relabelled(row_of, col_of) == gated_assign(weights)
    assert relabelled(extra_row_of, extra_col_of) == gated_assign(extra)


# ---------------------------------------------------------------------------
# match_sets / set_loss
# ---------------------------------------------------------------------------


def test_match_sets_size_mismatch():
    with pytest.raises(SizeMismatch):
        match_sets([GroundTruthInstance.padding()], [], UNIT)


def test_match_sets_perfect_predictions():
    # axis-aligned boxes: the enclosing hull equals the union, so a perfect
    # prediction has zero box terms and the total is -N * w_cls
    rng = random.Random(8)
    n = 6
    gts = []
    preds = []
    for _ in range(n):
        box = RotatedBox(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(2, 10), rng.uniform(1, 5), 0.0)
        gts.append(GroundTruthInstance(box=box))
        preds.append(PredictedInstance(class_prob=1.0, box=box))
    a = match_sets(gts, preds, CostWeights())
    assert a.total_cost == pytest.approx(-n * CostWeights().w_cls, abs=1e-9)
    assert set_loss(gts, preds, a, CostWeights()) <= 1e-11


def test_match_sets_calls_giou_once_per_object_pair(monkeypatch):
    """The traced benchmark times `matching.giou`; a matcher that scored
    pairs without going through it would read as no GIoU work at all.
    Each object pair whose padded extents are not apart calls it once; an
    apart pair takes the closed form and a padding row calls nothing."""
    rng = random.Random(14)
    gts = [gt_of(*random_box(rng)) for _ in range(5)]
    gts += [GroundTruthInstance.padding() for _ in range(3)]
    preds = [pred_of(rng.random(), g.box.cx + rng.uniform(-2, 2), g.box.cy + rng.uniform(-2, 2),
                     g.box.w, g.box.h, g.box.angle + rng.uniform(-0.3, 0.3)) for g in gts[:4]]
    preds += [pred_of(rng.random(), *random_box(rng)) for _ in range(4)]
    calls = []

    def counting_giou(a, b, **kwargs):
        calls.append((a, b))
        return giou(a, b, **kwargs)

    monkeypatch.setattr("vtspot.matching.giou", counting_giou)
    match_sets(gts, preds, CostWeights())
    near = [(g.box, p.box) for g in gts[:5] for p in preds
            if not _apart(g.box.quad._convex_extents(), p.box.quad._convex_extents())]
    assert 4 <= len(near) < 40
    assert sorted(calls, key=repr) == sorted(near, key=repr)
    calls.clear()
    match_sets([GroundTruthInstance.padding()] * 2, preds[:2], CostWeights())
    assert calls == []


def test_match_sets_refuses_an_apart_pair_whose_areas_overflow():
    """The closed form of an apart pair does not read an overflowed
    GIoU as 0: the cost is nan, and the matching refuses the pair with the
    error giou raises for it."""
    a = RotatedBox(0.0, 0.0, 1e154, 2e154, 0.0)
    far = PredictedInstance(0.5, RotatedBox(5e155, 0.0, 1e154, 2e154, 0.0))
    message = "overlap areas must be finite, got intersection 0.0 and union inf"
    with pytest.raises(ValueError, match=message) as exc_info:
        giou(a, far.box)
    assert not isinstance(exc_info.value, NonFiniteCost)
    with pytest.raises(ValueError, match=message) as exc_info:
        match_sets([GroundTruthInstance(box=a)], [far])
    assert not isinstance(exc_info.value, NonFiniteCost)


# an apart pair whose box areas are finite but whose hull overflows
HULL_OVERFLOW = (RotatedBox(0.0, 0.0, 1e150, 1e150, 0.0),
                 RotatedBox(1e160, 1e160, 1e150, 1e150, 0.0))
HULL_MESSAGE = r"^overlap areas must be finite, got hull inf and union 1\.9999999999999998e\+300$"


def test_pair_cost_of_an_apart_pair_whose_hull_overflows_raises_gious_error():
    """Not a silent nan: the one-cell row raises what giou raises."""
    a, b = HULL_OVERFLOW
    with pytest.raises(ValueError, match=HULL_MESSAGE):
        giou(a, b)
    with pytest.raises(ValueError, match=HULL_MESSAGE):
        pair_cost(GroundTruthInstance(box=a), PredictedInstance(0.5, b), CostWeights())


def test_match_sets_of_an_apart_pair_whose_hull_overflows_raises_gious_error():
    """The first refused pair in row-major order names the error, not the
    nan cell of the cost matrix; a finite pair beside it changes nothing."""
    a, b = HULL_OVERFLOW
    near = RotatedBox(0.0, 1.0, 2e149, 1e149, 0.0)
    gts = [GroundTruthInstance.padding(), GroundTruthInstance(box=a)]
    preds = [PredictedInstance(0.5, near), PredictedInstance(0.5, b)]
    with pytest.raises(ValueError, match=HULL_MESSAGE) as exc_info:
        match_sets(gts, preds)
    assert not isinstance(exc_info.value, NonFiniteCost)


def test_match_sets_still_names_a_nan_cost_that_giou_did_not_make():
    """A nan from the box terms (an overflowed L1 weighted by 0) is the
    cost matrix's to refuse: its GIoU is a number."""
    a = RotatedBox(-8e307, 0.0, 1e300, 1.0, 0.0)
    b = PredictedInstance(0.5, RotatedBox(0.0, 0.0, 1.7e308, 1.0, 0.0))
    assert math.isfinite(giou(a, b.box))
    w = CostWeights(w_l1=0.0)
    assert math.isnan(pair_cost(GroundTruthInstance(box=a), b, w))
    with pytest.raises(NonFiniteCost, match=r"^cost\[0\]\[0\] = nan$"):
        match_sets([GroundTruthInstance(box=a)], [b], w)


def test_match_sets_unrolls_no_prediction_for_an_all_padding_frame():
    huge = PredictedInstance(0.5, RotatedBox(1.7e308, 0.0, 1e308, 1.0, 0.3))
    preds = [pred_of(0.5, 1.0, 2.0, 3.0, 1.0, 0.3), huge]
    padding = GroundTruthInstance.padding()
    assert match_sets([padding, padding], preds) == Assignment(((0, 0), (1, 1)), 0.0)
    with pytest.raises(ValueError, match=r"point coordinates must be finite, got \(inf, "):
        match_sets([gt_of(0.0, 0.0, 2.0, 1.0, 0.0), padding], preds)


def test_match_sets_all_padding_costs_zero():
    gts = [GroundTruthInstance.padding() for _ in range(4)]
    rng = random.Random(9)
    preds = [pred_of(rng.random(), *random_box(rng)) for _ in range(4)]
    a = match_sets(gts, preds, CostWeights())
    assert a.total_cost == 0.0
    assert len(a.pairs) == 4


def test_match_sets_padded_mix_matches_enumeration():
    rng = random.Random(10)
    gts = [gt_of(*random_box(rng)) for _ in range(5)]
    gts += [GroundTruthInstance.padding() for _ in range(2)]
    preds = []
    for g in gts[:5]:
        preds.append(
            pred_of(
                rng.uniform(0.3, 1.0),
                g.box.cx + rng.uniform(-1, 1),
                g.box.cy + rng.uniform(-1, 1),
                g.box.w * rng.uniform(0.8, 1.2),
                g.box.h * rng.uniform(0.8, 1.2),
                g.box.angle + rng.uniform(-0.2, 0.2),
            )
        )
    preds += [pred_of(0.1, *random_box(rng)) for _ in range(2)]
    rng.shuffle(preds)
    w = CostWeights()
    cost = [[pair_cost(g, p, w) for p in preds] for g in gts]
    want_total, _ = brute_force_assignment(cost)
    got = match_sets(gts, preds, w)
    assert got.total_cost == pytest.approx(want_total, abs=1e-9)


def test_set_loss_single_padding_confident_empty():
    gts = [GroundTruthInstance.padding()]
    preds = [pred_of(0.0, 0, 0, 1, 1, 0)]
    a = match_sets(gts, preds, UNIT)
    # -log(1 - 0) clamps to -log(1 - 1e-12)
    assert set_loss(gts, preds, a, UNIT) == pytest.approx(0.0, abs=1e-11)


def test_set_loss_terms_match_straight_line_recomputation():
    rng = random.Random(12)
    w = CostWeights(1.0, 3.0, 2.0, 0.5)
    gts = [gt_of(*random_box(rng)) for _ in range(4)] + [GroundTruthInstance.padding()]
    preds = [pred_of(rng.uniform(0.05, 0.95), *random_box(rng)) for _ in range(5)]
    cost = [[pair_cost(g, p, w) for p in preds] for g in gts]
    _, oracle_cols = brute_force_assignment(cost)
    assignment = Assignment(tuple((i, oracle_cols[i]) for i in range(5)), 0.0)

    expected = 0.0
    for gi, pi in assignment.pairs:
        g, p = gts[gi], preds[pi]
        if g.is_object:
            expected += -math.log(min(max(p.class_prob, 1e-12), 1 - 1e-12))
            expected += w.w_l1 * (
                abs(g.box.cx - p.box.cx)
                + abs(g.box.cy - p.box.cy)
                + abs(g.box.w - p.box.w)
                + abs(g.box.h - p.box.h)
            )
            expected += w.w_giou * (1.0 - giou(g.box, p.box))
            expected += w.w_angle * (1.0 - math.cos(p.box.angle - g.box.angle))
        else:
            expected += -math.log(min(max(1.0 - p.class_prob, 1e-12), 1 - 1e-12))
    assert set_loss(gts, preds, assignment, w) == pytest.approx(expected, abs=1e-9)

    terms = set_loss_terms(gts, preds, assignment, w)
    assert set_loss(gts, preds, assignment, w) == pytest.approx(
        sum(terms.values()), abs=1e-12
    )


def test_set_loss_terms_never_reuse_a_giou_for_other_boxes():
    """An assignment keeps the GIoUs ``match_sets`` scored; given other
    boxes of the same sizes at the same indices, ``set_loss_terms`` scores
    them afresh, as it does for a built ``Assignment``.  New instances
    around the very boxes that were scored may reuse them."""
    rng = random.Random(15)
    gts = [gt_of(*random_box(rng)) for _ in range(4)] + [GroundTruthInstance.padding()]
    preds = [pred_of(rng.uniform(0.05, 0.95), g.box.cx + rng.uniform(-1, 1),
                     g.box.cy + rng.uniform(-1, 1), g.box.w, g.box.h, g.box.angle)
             for g in gts[:4]]
    preds.append(pred_of(0.3, *random_box(rng)))
    moved_gts = [gt_of(g.box.cx + 0.5, g.box.cy - 0.25, g.box.w, g.box.h, g.box.angle + 0.2)
                 if g.is_object else g for g in gts]
    moved_preds = [pred_of(p.class_prob, p.box.cx - 0.5, p.box.cy, p.box.w, p.box.h,
                           p.box.angle) for p in preds]
    w = CostWeights()
    kept = match_sets(gts, preds, w)
    built = Assignment(kept.pairs, kept.total_cost)
    for other_gts, other_preds in ((moved_gts, preds), (gts, moved_preds),
                                   (moved_gts, moved_preds)):
        fresh = set_loss_terms(other_gts, other_preds, built, w)
        assert fresh["giou"] != set_loss_terms(gts, preds, kept, w)["giou"]
        assert set_loss_terms(other_gts, other_preds, kept, w) == fresh
    rewrapped = ([GroundTruthInstance(g.box, g.is_object) for g in gts],
                 [PredictedInstance(p.class_prob, p.box) for p in preds])
    assert set_loss_terms(*rewrapped, kept, w) == set_loss_terms(gts, preds, built, w)


def test_set_loss_zero_weight_zeroes_term():
    rng = random.Random(13)
    gts = [gt_of(*random_box(rng)) for _ in range(3)]
    preds = [pred_of(0.7, *random_box(rng)) for _ in range(3)]
    w = CostWeights(1.0, 0.0, 2.0, 2.0)
    a = match_sets(gts, preds, w)
    assert set_loss_terms(gts, preds, a, w)["l1"] == 0.0
    w = CostWeights(1.0, 5.0, 0.0, 2.0)
    a = match_sets(gts, preds, w)
    assert set_loss_terms(gts, preds, a, w)["giou"] == 0.0


def test_probabilities_out_of_range_rejected():
    with pytest.raises(ValueError):
        PredictedInstance(class_prob=1.5, box=RotatedBox(0, 0, 1, 1, 0))
