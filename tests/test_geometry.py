import math
import pickle
import random
import re
from dataclasses import replace

import pytest

from vtspot.errors import DegenerateQuad, NonConvexInput, SelfIntersectingQuad
from vtspot.geometry import (
    Quad,
    RotatedBox,
    _clip,
    canonical_angle,
    giou,
    quad_iou,
    quad_to_rotated,
    rotated_to_quad,
)

from oracles import (
    corners,
    monte_carlo_iou,
    overlapping_box_pair,
    point_intersection,
    shoelace,
    signed_area,
)

HALF_PI = math.pi / 2


def quad_of(*xy):
    return Quad.from_flat([v for point in xy for v in point])


def clipped_area(a, b):
    """The area of the kernel's clip of quad ``a`` by quad ``b``."""
    return shoelace(_clip(a.as_flat(), b.as_flat()))


# ---------------------------------------------------------------------------
# angles and value objects
# ---------------------------------------------------------------------------


def test_canonical_angle_table():
    assert canonical_angle(0.0) == 0.0
    assert canonical_angle(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert canonical_angle(HALF_PI) == pytest.approx(-HALF_PI)
    assert canonical_angle(-HALF_PI) == -HALF_PI
    assert canonical_angle(3 * math.pi / 4) == pytest.approx(-math.pi / 4)
    assert canonical_angle(-3 * math.pi / 4) == pytest.approx(math.pi / 4)


def test_canonical_angle_always_in_range():
    rng = random.Random(7)
    for _ in range(2000):
        a = canonical_angle(rng.uniform(-50, 50))
        assert -HALF_PI <= a < HALF_PI


def test_box_rejects_bad_sides():
    with pytest.raises(ValueError):
        RotatedBox(0, 0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        RotatedBox(0, 0, 1.0, -2.0, 0.0)


def test_box_wraps_angle_on_construction():
    b = RotatedBox(0, 0, 2, 1, math.pi)
    assert b.angle == pytest.approx(0.0, abs=1e-15)
    b = RotatedBox(0, 0, 2, 1, HALF_PI)
    assert b.angle == pytest.approx(-HALF_PI)


def test_box_stores_an_int_angle_as_a_float():
    for given, stored in ((0, 0.0), (1, 1.0), (-1, -1.0), (True, 1.0)):
        angle = RotatedBox(0, 0, 2, 1, given).angle
        assert type(angle) is float and angle.hex() == stored.hex()


@pytest.mark.parametrize("given", [-0.0, 0.0, -HALF_PI, HALF_PI, 3.0, -3.0, math.pi,
                                   math.nextafter(HALF_PI, 0.0), 1e300, 5e-324])
def test_box_angle_is_canonical_angles_value_bit_for_bit(given):
    angle = RotatedBox(0, 0, 2, 1, given).angle
    assert type(angle) is float and angle.hex() == canonical_angle(given).hex()


def test_box_angle_edges_of_the_interval():
    assert RotatedBox(0, 0, 2, 1, -0.0).angle.hex() == "-0x0.0p+0"
    assert RotatedBox(0, 0, 2, 1, HALF_PI).angle == -HALF_PI
    assert RotatedBox(0, 0, 2, 1, -HALF_PI).angle == -HALF_PI


@pytest.mark.parametrize("field", ["cx", "cy", "w", "h", "angle"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_names_its_first_non_finite_field(field, bad):
    values = {**dict(cx=1.0, cy=2.0, w=3.0, h=2.0, angle=0.5), field: bad}
    with pytest.raises(ValueError, match=f"^box field {field} must be finite$"):
        RotatedBox(**values)
    # an earlier bad field is the one named
    with pytest.raises(ValueError, match="^box field cx must be finite$"):
        RotatedBox(**dict(values, cx=math.nan))


def test_box_fields_whose_sum_overflows_are_finite():
    box = RotatedBox(1.7e308, 1.7e308, 1.0, 1.0, 3.0)
    assert (box.cx, box.angle) == (1.7e308, canonical_angle(3.0))
    with pytest.raises(OverflowError, match="int too large to convert to float"):
        RotatedBox(10**400, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(TypeError):
        RotatedBox(0.0, "1", 1.0, 1.0, 0.0)


def test_quad_enforces_ccw():
    q = quad_of((0, 0), (0, 2), (4, 2), (4, 0))  # clockwise input
    assert q.as_flat()[:2] == (0.0, 0.0)
    assert signed_area(corners(q)) > 0


def test_quad_rejects_bowtie():
    shown = re.escape("self-intersecting quad: (0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0)")
    with pytest.raises(SelfIntersectingQuad, match=shown):
        quad_of((0, 0), (1, 0), (0, 1), (1, 1))


@pytest.mark.parametrize("at", [0, 3, 7])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_from_flat_rejects_non_finite(bad, at):
    values = [0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0]
    values[at] = bad
    x, y = values[at - at % 2:at - at % 2 + 2]
    shown = re.escape(f"point coordinates must be finite, got ({x}, {y})")
    with pytest.raises(ValueError, match=shown):
        Quad.from_flat(values)


@pytest.mark.parametrize("bad", ["1", True, False, None, b"1"])
def test_from_flat_rejects_non_numbers(bad):
    values = [0, 0, 1, 0, 1, 1, 0, 1]
    values[5] = bad
    with pytest.raises(TypeError, match=type(bad).__name__):
        Quad.from_flat(values)


def test_from_flat_reports_a_value_past_the_float_range_before_a_nan():
    with pytest.raises(OverflowError):
        Quad.from_flat([math.nan, 0, 1, 0, 1, 10**400, 0, 1])


def test_unroll_that_overflows_is_rejected():
    # 1.7e308 plus half of a 1e308 side is past the float range
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        rotated_to_quad(RotatedBox(1.7e308, 0.0, 1e308, 1.0, 0.3))


def test_clip_vertex_that_overflows_is_rejected():
    """Near the float range a crossing's side values overflow, and the
    vertex the clip would put there is not finite."""
    big = 1e200
    square = Quad.from_flat([-big, -big, big, -big, big, big, -big, big])
    diamond = Quad.from_flat([0, -1.5 * big, 1.5 * big, 0, 0, 1.5 * big, -1.5 * big, 0])
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        quad_iou(square, diamond)


def test_overlap_whose_areas_overflow_is_rejected():
    """Every corner is finite, but past sides of about 1.3e154 a quad's
    area is not: the overlap raises rather than scoring 0."""
    def square_and_inset(side):
        return (Quad.from_flat([0, 0, side, 0, side, side, 0, side]),
                Quad.from_flat([side / 7, side / 9, side, side / 9, side, side, side / 7, side]))
    assert quad_iou(*square_and_inset(1e153)) == 0.7619047619047621
    with pytest.raises(ValueError, match="overlap areas must be finite, got intersection"):
        quad_iou(*square_and_inset(1e154))
    # a shape against itself skips the clip, but not the finite-area rule
    square = square_and_inset(1e154)[0]
    box = RotatedBox(0.0, 0.0, 1e154, 2e154, 0.0)
    with pytest.raises(ValueError, match="overlap areas must be finite, got intersection inf"):
        quad_iou(square, square)
    with pytest.raises(ValueError, match="overlap areas must be finite, got intersection inf"):
        quad_iou(box.quad, box.quad)
    small = square_and_inset(1e153)[0]
    assert quad_iou(small, small) == 1.0
    assert quad_iou(RotatedBox(0.0, 0.0, 1e153, 2e153, 0.0).quad,
                    RotatedBox(0.0, 0.0, 1e153, 2e153, 0.0).quad) == 1.0


def test_giou_of_apart_boxes_whose_areas_overflow_is_rejected():
    """Apart boxes are scored without a clip, but their hull and union
    overflowing make no score: GIoU raises as it does for the same boxes
    overlapping."""
    a = RotatedBox(0.0, 0.0, 1e154, 2e154, 0.0)
    for cx in (5e155, 5e153):
        with pytest.raises(ValueError, match="overlap areas must be finite"):
            giou(a, replace(a, cx=cx))
    small = RotatedBox(0.0, 0.0, 1e153, 2e153, 0.0)
    assert -1.0 < giou(small, replace(small, cx=5e154)) < -0.9


def test_giou_whose_hull_overflows_is_rejected():
    """Both areas are finite, but the hull of two boxes that far apart is
    not: GIoU raises rather than reading inf / inf as nan."""
    a = RotatedBox(0.0, 0.0, 1e150, 1e150, 0.0)
    with pytest.raises(ValueError, match="overlap areas must be finite, got hull inf"):
        giou(a, replace(a, cx=1e160, cy=1e160))
    assert giou(a, replace(a, cx=1e154, cy=1e154)) == pytest.approx(-1.0)


def test_quad_value_is_its_flat_tuple():
    q = Quad.from_flat([0, 0, 0, 2, 4, 2, 4, 0])  # clockwise input
    flat = (0.0, 0.0, 4.0, 0.0, 4.0, 2.0, 0.0, 2.0)
    assert q.as_flat() == flat
    assert q == Quad.from_flat(flat) == Quad.from_flat(iter(flat))
    assert q != Quad.from_flat([0, 0, 4, 0, 4, 3, 0, 3])
    assert hash(q) == hash((flat,))
    assert repr(q) == f"Quad(_xy={flat!r})"
    again = pickle.loads(pickle.dumps(q))
    assert (again, hash(again), repr(again)) == (q, hash(q), repr(q))
    warm = Quad.from_flat(flat)
    assert quad_iou(warm, Quad.from_flat([1, 1, 5, 1, 5, 3, 1, 3])) > 0.0
    assert warm._convex is True and warm._extents is not None
    assert (warm, hash(warm), repr(warm)) == (q, hash(q), repr(q))
    with pytest.raises(TypeError):
        Quad(flat)


def _value_facts(shape):
    """What a shape's value shows: equality, hash, repr, pickle round-trip."""
    again = pickle.loads(pickle.dumps(shape))
    return shape, hash(shape), repr(shape), again == shape, hash(again), repr(again)


def test_filled_caches_leave_box_and_quad_values_alone():
    box = RotatedBox(3.0, -2.0, 6.0, 2.0, 0.4)
    other = RotatedBox(4.0, -2.0, 6.0, 2.0, -0.2)
    quad = quad_of((0, 0), (4, 0), (4, 3), (0, 3))
    cold = [_value_facts(box), _value_facts(quad), _value_facts(box.quad)]
    assert giou(box, other) == giou(box, other)
    assert quad_iou(quad, box.quad) == quad_iou(quad, box.quad)
    assert quad.is_convex() and box.quad.is_convex()
    assert cold == [_value_facts(box), _value_facts(quad), _value_facts(box.quad)]
    assert box == RotatedBox(3.0, -2.0, 6.0, 2.0, 0.4)
    assert quad == quad_of((0, 0), (4, 0), (4, 3), (0, 3))
    assert repr(box) == "RotatedBox(cx=3.0, cy=-2.0, w=6.0, h=2.0, angle=0.4)"


def test_box_quad_is_unrolled_once_and_kept():
    box = RotatedBox(1.0, 2.0, 5.0, 3.0, 0.7)
    assert box.quad is box.quad
    assert rotated_to_quad(box) is box.quad
    assert pickle.loads(pickle.dumps(box)).quad == box.quad


def test_replaced_box_unrolls_afresh():
    box = RotatedBox(1.0, 2.0, 5.0, 3.0, 0.7)
    moved = replace(box, cx=11.0)
    assert box.quad.as_flat()[0] + 10.0 == pytest.approx(moved.quad.as_flat()[0])
    assert moved.quad == rotated_to_quad(RotatedBox(11.0, 2.0, 5.0, 3.0, 0.7))
    assert quad_iou(box.quad, moved.quad) == 0.0
    assert quad_iou(moved.quad, replace(moved).quad) == 1.0


# ---------------------------------------------------------------------------
# quad <-> rotated box conversions
# ---------------------------------------------------------------------------


def test_axis_aligned_rect_fits_exactly():
    b = quad_to_rotated(quad_of((0, 0), (4, 0), (4, 2), (0, 2)))
    assert (b.cx, b.cy, b.w, b.h, b.angle) == pytest.approx((2, 1, 4, 2, 0), abs=1e-12)


def test_square_tie_break_prefers_angle_zero():
    b = quad_to_rotated(quad_of((0, 0), (2, 0), (2, 2), (0, 2)))
    assert b.angle == pytest.approx(0.0, abs=1e-12)
    assert b.w == pytest.approx(2.0)
    assert b.h == pytest.approx(2.0)


def test_rotated_rect_recovered():
    # a 6x2 rectangle rotated by 30 degrees around (5, -3)
    src = RotatedBox(5.0, -3.0, 6.0, 2.0, math.pi / 6)
    got = quad_to_rotated(rotated_to_quad(src))
    assert got.cx == pytest.approx(src.cx, abs=1e-9)
    assert got.cy == pytest.approx(src.cy, abs=1e-9)
    assert got.w == pytest.approx(src.w, abs=1e-9)
    assert got.h == pytest.approx(src.h, abs=1e-9)
    assert got.angle == pytest.approx(src.angle, abs=1e-9)


def test_short_edge_first_box_normalizes_to_longest_edge():
    # w < h: the fitted box swaps sides and turns the angle a quarter turn
    src = RotatedBox(0.0, 0.0, 2.0, 6.0, 0.2)
    got = quad_to_rotated(rotated_to_quad(src))
    assert got.w == pytest.approx(6.0, abs=1e-9)
    assert got.h == pytest.approx(2.0, abs=1e-9)
    assert got.angle == pytest.approx(canonical_angle(0.2 + HALF_PI), abs=1e-9)


def test_degenerate_quads_rejected():
    with pytest.raises(DegenerateQuad):
        quad_to_rotated(quad_of((0, 0), (1, 0), (2, 0), (3, 0)))
    with pytest.raises(DegenerateQuad):
        quad_to_rotated(quad_of((0, 0), (1e-7, 0), (1e-7, 1e-7), (0, 1e-7)))


def test_trapezoid_gets_enclosing_rect():
    # symmetric trapezoid: enclosing rect is its bounding box
    b = quad_to_rotated(quad_of((0, 0), (6, 0), (4, 2), (2, 2)))
    assert (b.cx, b.cy, b.w, b.h) == pytest.approx((3, 1, 6, 2), abs=1e-12)
    assert b.angle == pytest.approx(0.0, abs=1e-12)


def test_round_trip_many_random_boxes():
    rng = random.Random(20260819)
    for _ in range(10_000):
        w = rng.uniform(0.5, 30.0)
        h = rng.uniform(0.5, 30.0)
        src = RotatedBox(
            rng.uniform(-200, 200), rng.uniform(-200, 200), w, h, rng.uniform(-4, 4)
        )
        q1 = rotated_to_quad(src)
        back = quad_to_rotated(q1)
        q2 = rotated_to_quad(back)
        # corner sets must agree regardless of which edge was called "w"
        for p in corners(q1):
            d = min(math.hypot(p.x - r.x, p.y - r.y) for r in corners(q2))
            assert d < 1e-9
        assert back.area == pytest.approx(src.area, rel=1e-9)
        assert back.w >= back.h or abs(back.w - back.h) <= 1e-9 * back.w


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def test_intersection_of_identical_quads_is_full_area():
    q = quad_of((0, 0), (4, 0), (4, 2), (0, 2))
    assert quad_iou(q, q) == 1.0
    assert clipped_area(q, q) == pytest.approx(8.0, abs=1e-12)
    assert _clip(q.as_flat(), q.as_flat()) == point_intersection(q, q)


def test_intersection_of_disjoint_quads_is_empty():
    a = quad_of((0, 0), (1, 0), (1, 1), (0, 1))
    b = quad_of((5, 5), (6, 5), (6, 6), (5, 6))
    assert quad_iou(a, b) == 0.0
    assert clipped_area(a, b) == 0.0


def test_half_overlap_rectangles():
    a = quad_of((0, 0), (2, 0), (2, 2), (0, 2))
    b = quad_of((1, 0), (3, 0), (3, 2), (1, 2))
    assert quad_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert clipped_area(a, b) == pytest.approx(2.0, abs=1e-12)
    assert _clip(a.as_flat(), b.as_flat()) == point_intersection(a, b)


def test_clip_keeps_a_vertex_on_the_edge_and_crosses_out_from_it():
    """Two corners of the square lie exactly on the diamond's lower-left
    edge (side 0.0): each is kept, and leaving the edge from one of them
    crosses at t = 0, which repeats that corner."""
    square = quad_of((0, 0), (2, 0), (2, 2), (0, 2))
    diamond = quad_of((2, 0), (4, 2), (2, 4), (0, 2))
    want = [(0.0, 2.0), (2.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
    assert _clip(square.as_flat(), diamond.as_flat()) == want
    assert point_intersection(square, diamond) == want
    assert _clip(diamond.as_flat(), square.as_flat()) == point_intersection(diamond, square)
    assert clipped_area(square, diamond) == 2.0
    assert quad_iou(square, diamond) == 2.0 / 10.0


def test_non_convex_input_rejected():
    bad = quad_of((0, 0), (4, 0), (1, 1), (0, 4))
    good = quad_of((10, 10), (12, 10), (12, 12), (10, 12))
    shown = re.escape("convex input, got (0.0, 0.0, 4.0, 0.0, 1.0, 1.0, 0.0, 4.0)")
    with pytest.raises(NonConvexInput, match=shown):
        quad_iou(bad, good)
    with pytest.raises(NonConvexInput, match=shown):
        quad_iou(good, bad)


def test_intersection_area_bounded_by_inputs():
    rng = random.Random(99)
    for _ in range(500):
        pa, pb = overlapping_box_pair(rng)
        qa = rotated_to_quad(RotatedBox(*pa))
        qb = rotated_to_quad(RotatedBox(*pb))
        inter = clipped_area(qa, qb)
        assert inter <= min(qa.area, qb.area) + 1e-9


# ---------------------------------------------------------------------------
# quad_iou of boxes' quads / giou
# ---------------------------------------------------------------------------


def test_iou_identical_is_one():
    b = RotatedBox(3, 4, 5, 2, 0.3)
    assert quad_iou(b.quad, b.quad) == pytest.approx(1.0, abs=1e-12)


def test_iou_disjoint_is_zero():
    a = RotatedBox(0, 0, 1, 1, 0)
    b = RotatedBox(10, 0, 1, 1, 0.7)
    assert quad_iou(a.quad, b.quad) == 0.0


def test_iou_half_shifted_unit_squares():
    # overlap 0.5, union 1.5
    a = RotatedBox(0, 0, 1, 1, 0)
    b = RotatedBox(0.5, 0, 1, 1, 0)
    assert quad_iou(a.quad, b.quad) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_iou_square_against_its_45_degree_rotation():
    # intersection is a regular octagon of area 8*(sqrt(2)-1); the ratio
    # simplifies to exactly 1/sqrt(2)
    a = RotatedBox(0, 0, 2, 2, 0)
    b = RotatedBox(0, 0, 2, 2, math.pi / 4)
    assert quad_iou(a.quad, b.quad) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_iou_edge_touching_is_zero():
    a = RotatedBox(0, 0, 1, 1, 0)
    b = RotatedBox(1.0, 0, 1, 1, 0)
    assert quad_iou(a.quad, b.quad) == pytest.approx(0.0, abs=1e-12)


def test_iou_matches_sampling_estimate():
    rng = random.Random(5)
    for k in range(5):
        pa, pb = overlapping_box_pair(rng)
        exact = quad_iou(RotatedBox(*pa).quad, RotatedBox(*pb).quad)
        est = monte_carlo_iou(pa, pb, n=400_000, seed=100 + k)
        assert exact == pytest.approx(est, abs=4e-3)


def test_iou_symmetry():
    rng = random.Random(11)
    for _ in range(300):
        pa, pb = overlapping_box_pair(rng)
        a, b = RotatedBox(*pa), RotatedBox(*pb)
        assert abs(quad_iou(a.quad, b.quad) - quad_iou(b.quad, a.quad)) < 1e-12


def test_iou_similarity_invariance():
    rng = random.Random(13)
    for _ in range(200):
        pa, pb = overlapping_box_pair(rng)
        a, b = RotatedBox(*pa), RotatedBox(*pb)
        phi = rng.uniform(-math.pi, math.pi)
        scale = rng.uniform(0.2, 5.0)
        tx, ty = rng.uniform(-40, 40), rng.uniform(-40, 40)
        c, s = math.cos(phi), math.sin(phi)

        def xform(box):
            cx = scale * (c * box.cx - s * box.cy) + tx
            cy = scale * (s * box.cx + c * box.cy) + ty
            return RotatedBox(cx, cy, box.w * scale, box.h * scale, box.angle + phi)

        assert abs(quad_iou(a.quad, b.quad) - quad_iou(xform(a).quad, xform(b).quad)) < 1e-9


def test_quad_iou_of_rectangles_agrees_with_box_areas():
    # a box's quad keeps the shoelace area of its corners, w * h to rounding
    rng = random.Random(17)
    for _ in range(100):
        pa, pb = overlapping_box_pair(rng)
        a, b = RotatedBox(*pa), RotatedBox(*pb)
        inter = shoelace(point_intersection(a.quad, b.quad))
        assert quad_iou(rotated_to_quad(a), rotated_to_quad(b)) == pytest.approx(
            inter / (a.area + b.area - inter), abs=1e-12
        )


def test_giou_identical_axis_aligned_is_one():
    # the hull of an axis-aligned box is the box itself, so the penalty is 0
    b = RotatedBox(-2, 7, 3, 1, 0.0)
    assert giou(b, b) == pytest.approx(1.0, abs=1e-12)


def test_giou_identical_tilted_pays_hull_penalty():
    # an identical tilted pair still gets docked for the empty hull corners
    b = RotatedBox(-2, 7, 3, 1, -0.4)
    g = giou(b, b)
    assert g < 1.0
    xs = rotated_to_quad(b).as_flat()[0::2]
    ys = rotated_to_quad(b).as_flat()[1::2]
    hull = (max(xs) - min(xs)) * (max(ys) - min(ys))
    assert g == pytest.approx(1.0 - (hull - b.area) / hull, abs=1e-12)


def test_giou_side_by_side_squares():
    # no overlap, union 2, axis hull 3x1: 0 - (3-2)/3
    a = RotatedBox(0.5, 0.5, 1, 1, 0)
    b = RotatedBox(2.5, 0.5, 1, 1, 0)
    assert giou(a, b) == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_giou_far_apart_approaches_minus_one():
    a = RotatedBox(0, 0, 1, 1, 0)
    b = RotatedBox(100, 0, 1, 1, 0)
    assert giou(a, b) < -0.9


def test_giou_never_exceeds_iou():
    rng = random.Random(23)
    for _ in range(500):
        pa, pb = overlapping_box_pair(rng)
        a, b = RotatedBox(*pa), RotatedBox(*pb)
        g, i = giou(a, b), quad_iou(a.quad, b.quad)
        assert g <= i + 1e-12
        assert -1.0 <= g <= 1.0 + 1e-12


def test_giou_hull_term_against_direct_recomputation():
    # recompute the hull penalty from raw corner coordinates
    a = RotatedBox(1.0, 2.0, 3.0, 1.5, 0.5)
    b = RotatedBox(2.0, 2.5, 2.0, 2.0, -0.3)
    qa, qb = rotated_to_quad(a), rotated_to_quad(b)
    inter = clipped_area(qa, qb)
    union = a.area + b.area - inter
    xs = qa.as_flat()[0::2] + qb.as_flat()[0::2]
    ys = qa.as_flat()[1::2] + qb.as_flat()[1::2]
    hull = (max(xs) - min(xs)) * (max(ys) - min(ys))
    assert giou(a, b) == pytest.approx(inter / union - (hull - union) / hull, abs=1e-12)


def test_shoelace_oracle_agrees_on_known_quad():
    q = quad_of((0, 0), (4, 0), (4, 2), (0, 2))
    assert shoelace(corners(q)) == pytest.approx(q.area)
