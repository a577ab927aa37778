"""Differential tests: the flat-float geometry kernel, the broad phase, the
unrolled quads and extents the shapes keep, the written-out hull chain and
bowtie test against the generic chain and a call per side test, the shared
per-frame IoU table
and the tracker's component-wise gated assignment against the point
geometry and clip-only overlaps, the per-pair cost matrix, the three
separate metric passes, the dense-table tracker and the dense-table linker
kept in ``oracles``;
and the tracker, the linker and ``evaluate`` on inputs that skip frame
indices against the same inputs with every skipped frame listed empty.
Results must be equal, not approximately equal."""

import itertools
import math
import pickle
import random
import sys
import unittest.mock
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vtspot
import vtspot.linker as linker_mod
import vtspot.tracker as tracker_mod
import vtspot.matching as matching_mod
from oracles import (
    clip_giou,
    clip_quad_iou,
    corners,
    dense_track,
    flat_quad_to_rotated,
    plain_ccw,
    plain_convex,
    plain_cost_matrix,
    plain_extents,
    plain_hull,
    plain_link,
    plain_loss_terms,
    plain_near_pairs,
    point_intersection,
    point_quad_to_rotated,
    point_unroll,
    three_pass_report,
)
from vtspot.annotations import (
    IGNORE_MARK,
    Detection,
    FrameDetections,
    Instance,
    VideoAnnotation,
    trajectories_to_annotation,
)
from vtspot.errors import (
    DegenerateQuad,
    GeometryError,
    MissingTranscription,
    NonConvexInput,
    SelfIntersectingQuad,
)
from vtspot.geometry import (
    Quad,
    RotatedBox,
    _clip,
    _quad_signed_area,
    giou,
    near_pairs,
    nondegenerate_hull,
    quad_iou,
    quad_to_rotated,
    rotated_to_quad,
)
from vtspot.linker import link
from vtspot.matching import (
    Assignment,
    CostWeights,
    GroundTruthInstance,
    PredictedInstance,
    hungarian,
    match_sets,
    set_loss_terms,
)
from vtspot.metrics import evaluate
from vtspot.synth import SynthConfig, generate
from vtspot.tracker import TrackerConfig
from vtspot.tracker import run as run_tracker

coord = st.floats(-200.0, 200.0)
side = st.floats(0.5, 60.0)
angle = st.floats(-math.pi, math.pi)
boxes = st.builds(RotatedBox, coord, coord, side, side, angle)


def nudge(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place (either sign)."""
    toward = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, toward)
    return value


def shifted(quad: Quad, dx: float, dy: float) -> Quad:
    return Quad.from_flat([v for p in corners(quad) for v in (p.x + dx, p.y + dy)])


def assert_box_iou_matches(a: RotatedBox, b: RotatedBox) -> None:
    """quad_iou of the boxes' quads and giou of the boxes equal the
    clip-only oracles both ways round, on fresh copies of the boxes (a cold
    call unrolls them) and again on the same copies (a warm call reads the
    quads they kept); each box unrolls to the point unroll's corners."""
    for x, y in ((a, b), (b, a)):
        assert rotated_to_quad(replace(x)) == point_unroll(x)
        expected = clip_quad_iou(point_unroll(x), point_unroll(y))
        cold_x, cold_y = replace(x), replace(y)
        assert quad_iou(cold_x.quad, cold_y.quad) == expected
        assert quad_iou(cold_x.quad, cold_y.quad) == expected
        expected = clip_giou(x, y)
        cold_x, cold_y = replace(x), replace(y)
        assert giou(cold_x, cold_y) == expected
        assert giou(cold_x, cold_y) == expected


def assert_quad_iou_matches(a: Quad, b: Quad) -> None:
    """As ``assert_box_iou_matches``, for quad_iou on fresh quad copies;
    the clip's vertices and quad_to_rotated equal the point geometry's."""
    for x, y in ((a, b), (b, a)):
        expected = clip_quad_iou(x, y)
        cold_x, cold_y = Quad.from_flat(x.as_flat()), Quad.from_flat(y.as_flat())
        assert quad_iou(cold_x, cold_y) == expected
        assert quad_iou(cold_x, cold_y) == expected
        assert _clip(x.as_flat(), y.as_flat()) == point_intersection(x, y)
        assert quad_to_rotated(x) == point_quad_to_rotated(x)


# ---------------------------------------------------------------------------
# boxes: the extents reject of quad_iou on their quads, and of giou
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(boxes, boxes)
def test_box_iou_equals_clip_on_random_pairs(a, b):
    assert_box_iou_matches(a, b)


@settings(max_examples=200, deadline=None)
@given(boxes, side, side, angle, st.integers(-4, 4), st.booleans())
def test_box_iou_equals_clip_on_touching_and_ulp_gaps(a, w, h, turn, ulps, along_w):
    """b sits flush against one side of a, then moves a few ulps apart or
    into it; with a random turn it touches corner to corner or not at all."""
    c, s = math.cos(a.angle), math.sin(a.angle)
    if along_w:
        reach = (a.w + w) / 2.0
        cx, cy = a.cx + c * reach, a.cy + s * reach
        b = RotatedBox(nudge(cx, ulps), nudge(cy, ulps), w, a.h, a.angle)
    else:
        reach = (a.h + h) / 2.0
        cx, cy = a.cx - s * reach, a.cy + c * reach
        b = RotatedBox(nudge(cx, ulps), nudge(cy, ulps), a.w, h, a.angle)
    assert_box_iou_matches(a, b)
    turned = RotatedBox(b.cx, b.cy, b.w, b.h, b.angle + turn)
    assert_box_iou_matches(a, turned)


@settings(max_examples=100, deadline=None)
@given(boxes, st.floats(0.0, 1.0))
def test_box_iou_equals_clip_at_circle_contact(a, ratio):
    """Centers exactly the sum of the circumscribed radii apart, or a few
    ulps either side of it: near misses, which the extents reject or the
    clip must score as the clip-only oracle does."""
    rb = math.hypot(a.w, a.h) / 2.0 * (0.5 + ratio)
    b_w = 2.0 * rb * math.cos(0.4)
    b_h = 2.0 * rb * math.sin(0.4)
    d = math.hypot(a.w, a.h) / 2.0 + math.hypot(b_w, b_h) / 2.0
    for ulps in (-3, 0, 3):
        b = RotatedBox(nudge(a.cx + d, ulps), a.cy, b_w, b_h, a.angle)
        assert_box_iou_matches(a, b)


@given(boxes)
def test_box_iou_identical_boxes(a):
    assert quad_iou(a.quad, a.quad) == clip_quad_iou(point_unroll(a), point_unroll(a)) == 1.0
    assert_box_iou_matches(a, a)
    swapped = RotatedBox(a.cx, a.cy, a.h, a.w, a.angle + math.pi / 2.0)
    assert_box_iou_matches(a, swapped)


def test_far_apart_boxes_score_zero_without_clipping(monkeypatch):
    def refuse(a, b):
        raise AssertionError("a far-apart pair was clipped")

    monkeypatch.setattr("vtspot.geometry._clip", refuse)
    a, b = RotatedBox(0, 0, 10, 4, 0.3), RotatedBox(100, 0, 10, 4, -1.0)
    assert quad_iou(a.quad, b.quad) == 0.0


# ---------------------------------------------------------------------------
# quad_iou: axis-aligned extents reject
# ---------------------------------------------------------------------------


@st.composite
def convex_quads(draw):
    """Rotated rectangles with corners pulled about, kept when convex."""
    quad = rotated_to_quad(draw(boxes))
    jitter = draw(st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8))
    try:
        moved = Quad.from_flat([v + d for v, d in zip(quad.as_flat(), jitter)])
    except SelfIntersectingQuad:
        return quad
    return moved if moved.is_convex() else quad


@settings(max_examples=300, deadline=None)
@given(convex_quads(), convex_quads())
def test_quad_iou_equals_clip_on_random_pairs(a, b):
    assert_quad_iou_matches(a, b)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(convex_quads(), convex_quads(), st.integers(-4, 4), st.booleans(),
       st.floats(-1.0, 1.0))
def test_quad_iou_equals_clip_on_touching_and_ulp_gaps(a, b, ulps, in_x, slide):
    """b's extents start where a's end, then a few ulps apart or overlapped."""
    ax, ay = a.as_flat()[0::2], a.as_flat()[1::2]
    bx, by = b.as_flat()[0::2], b.as_flat()[1::2]
    if in_x:
        dx = nudge(max(ax) - min(bx), ulps)
        dy = slide * (max(ay) - min(ay))
    else:
        dx = slide * (max(ax) - min(ax))
        dy = nudge(max(ay) - min(by), ulps)
    assert_quad_iou_matches(a, shifted(b, dx, dy))


@pytest.mark.parametrize("origin", [0.0, 1e6])
@pytest.mark.parametrize("ulps", [-3, -1, 0, 1, 3])
@pytest.mark.parametrize("in_x", [True, False])
def test_quad_iou_axis_aligned_slivers(origin, ulps, in_x):
    """Squares sharing an edge, then a few ulps apart or overlapping in a
    sliver.  Near the origin the sliver's IoU is tiny but not 0; far from it
    the shoelace sum rounds the sliver away, and the two must agree on that."""
    edge = nudge(origin + 1.0, ulps)
    a = Quad.from_flat([origin, origin, origin + 1, origin, origin + 1,
                        origin + 1, origin, origin + 1])
    lo, hi = (edge, origin + 2.0), (origin, origin + 1.0)
    (x0, x1), (y0, y1) = (lo, hi) if in_x else (hi, lo)
    b = Quad.from_flat([x0, y0, x1, y0, x1, y1, x0, y1])
    assert_quad_iou_matches(a, b)
    if ulps >= 0:
        assert quad_iou(a, b) == 0.0
    elif origin == 0.0:
        assert quad_iou(a, b) > 0.0


@given(convex_quads())
def test_quad_iou_identical_corners(a):
    same = Quad.from_flat(a.as_flat())
    assert quad_iou(a, same) == clip_quad_iou(a, same) == 1.0


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_quad_iou_rejects_nonconvex_even_when_disjoint(offset):
    dart = Quad.from_flat([0, 0, 4, 0, 1, 1, 0, 4])
    assert not dart.is_convex()
    square = shifted(Quad.from_flat([0, 0, 1, 0, 1, 1, 0, 1]), 100.0 + offset, 0.0)
    for a, b in ((dart, square), (square, dart)):
        with pytest.raises(NonConvexInput):
            clip_quad_iou(a, b)
        with pytest.raises(NonConvexInput):
            quad_iou(a, b)


# ---------------------------------------------------------------------------
# quad_to_rotated: the winning edge's cos and sin kept from the loop
# ---------------------------------------------------------------------------


def assert_fit_matches(quad: Quad) -> None:
    """quad_to_rotated gives the box the fit as it was gives, field for
    field by ``.hex()``, or raises the same error."""
    try:
        expected = flat_quad_to_rotated(quad)
    except GeometryError as exc:
        with pytest.raises(type(exc)) as exc_info:
            quad_to_rotated(quad)
        assert str(exc_info.value) == str(exc)
        return
    got = quad_to_rotated(quad)
    fields = ("cx", "cy", "w", "h", "angle")
    assert [getattr(got, f).hex() for f in fields] == [getattr(expected, f).hex() for f in fields]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(-100.0, 100.0), min_size=8, max_size=8),
       st.sampled_from([0.0, 1e6, -1e6]))
def test_quad_to_rotated_equals_the_fit_as_it_was_on_random_quads(values, offset):
    try:
        quad = Quad.from_flat([v + offset for v in values])
    except SelfIntersectingQuad:
        return
    assert_fit_matches(quad)


@settings(max_examples=300, deadline=None)
@given(convex_quads(), st.sampled_from([0.0, 1e6, -1e6]))
def test_quad_to_rotated_equals_the_fit_as_it_was_on_convex_quads(quad, offset):
    assert_fit_matches(shifted(quad, offset, offset))


@settings(max_examples=300, deadline=None)
@given(coord, coord, side, angle, st.sampled_from([0.0, 1e6, -1e6]), st.integers(-2, 2))
def test_quad_to_rotated_equals_the_fit_as_it_was_on_squares(cx, cy, s, turn, offset, ulps):
    """A square, or a side a few ulps off one: the 1e-9 tie branch."""
    square = rotated_to_quad(RotatedBox(cx + offset, cy + offset, s, nudge(s, ulps), turn))
    assert_fit_matches(square)
    if offset == 0.0:
        # far from the origin the corners' rounding can pass the tolerance
        box = quad_to_rotated(square)
        assert abs(box.w - box.h) <= 1e-9 * max(box.w, box.h)


# ---------------------------------------------------------------------------
# the bowtie test and the hull: orientation products and the monotone chain
# written out, against a call per side test and the generic chain
# ---------------------------------------------------------------------------

# Lattice corners repeat and line up often; -0.0 is there to tell which of
# two equal corners the hull keeps.
lattice = st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0])


@st.composite
def hull_corners(draw):
    """Eight corner values: lattice points, some nudged a few ulps off a
    line, and all shifted by 1e6 or -1e6 or not at all (unshifted, a
    signed zero stays as it is)."""
    values = draw(st.lists(lattice, min_size=8, max_size=8))
    ulps = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3]), min_size=8, max_size=8))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    return [nudge(v + offset if offset else v, k) for v, k in zip(values, ulps)]


def hexed(points):
    return [(x.hex(), y.hex()) for x, y in points]


def assert_hull_matches(quad: Quad) -> None:
    """nondegenerate_hull gives plain_hull's corners, signed zeros
    included, or raises its error with the same message; and the fit
    agrees with the fit as it was."""
    try:
        expected = plain_hull(quad)
    except DegenerateQuad as exc:
        with pytest.raises(DegenerateQuad) as exc_info:
            nondegenerate_hull(quad)
        assert str(exc_info.value) == str(exc)
    else:
        assert hexed(nondegenerate_hull(quad)) == hexed(expected)
    assert_fit_matches(quad)


def stored_or_refused(make, values):
    try:
        return "ok", make(values)
    except SelfIntersectingQuad as exc:
        return "bowtie", str(exc)


@settings(max_examples=1500, deadline=None)
@given(hull_corners())
@example([0.0, 0.0, 2.0, 0.0, 1.0, 1.0, -0.0, 0.0])   # -0.0 after its equal
@example([-0.0, 0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 0.0])   # -0.0 first
@example([0.0, 0.0, 2.0, -0.0, 2.0, 0.0, 0.0, -0.0])  # all collinear, repeats
@example([-1.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.0, 1.0])  # equal corners mid-sort
@example([1e6, 1e6, 1e6 + 1, 1e6, 1e6 + 2, 1e6, nudge(1e6 + 1, 1), nudge(1e6, 1)])
def test_hull_and_bowtie_test_equal_the_generic_ones(values):
    outcome = stored_or_refused(lambda v: Quad.from_flat(v).as_flat(), values)
    assert outcome == stored_or_refused(plain_ccw, values)
    if outcome[0] == "ok":
        assert_hull_matches(Quad.from_flat(values))


@pytest.mark.parametrize("offset", [0.0, 1e6, -1e6])
def test_hull_equals_the_generic_chain_on_every_small_lattice_quad(offset):
    """Every simple quad with corners on the 3x3 lattice, repeated and
    collinear corners included (6,561 corner lists)."""
    grid = [(x + offset, y + offset) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)]
    for corners4 in itertools.product(grid, repeat=4):
        values = [v for point in corners4 for v in point]
        outcome = stored_or_refused(lambda v: Quad.from_flat(v).as_flat(), values)
        assert outcome == stored_or_refused(plain_ccw, values)
        if outcome[0] == "ok":
            assert_hull_matches(Quad.from_flat(values))


@st.composite
def area_corners(draw):
    """Eight corner values: four points around an offset of up to 1e6 in
    magnitude, spread by a side from 1e-6 to 1e6, listed counter-clockwise
    or clockwise."""
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]) | st.floats(-1e6, 1e6))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    unit = st.floats(-1.0, 1.0)
    points = [(offset + scale * draw(unit), offset + scale * draw(unit)) for _ in range(4)]
    if draw(st.booleans()):
        points.reverse()
    return [v for point in points for v in point]


@settings(max_examples=1500, deadline=None)
@given(area_corners())
# clockwise, and the reversed corners' sum is not the negated sum bit for bit
@example([0.61, 0.81, 0.68, 0.49, 0.38, -0.64, -0.13, -0.68])
@example([1e6, 1e6, 1e6, 1e6 + 1e-6, 1e6 + 1e-6, 1e6 + 1e-6, 1e6 + 1e-6, 1e6])
def test_quad_keeps_the_shoelace_area_of_its_stored_corners(values):
    """The area a quad keeps is the one summed afresh on the corners it
    stores, reversed ones included, and survives a pickle round trip."""
    try:
        quad = Quad.from_flat(values)
    except SelfIntersectingQuad:
        return
    area = abs(_quad_signed_area(quad.as_flat()))
    assert quad.area.hex() == area.hex()
    assert pickle.loads(pickle.dumps(quad)).area.hex() == area.hex()


# ---------------------------------------------------------------------------
# giou: extents reject on the quads the boxes keep
# ---------------------------------------------------------------------------


def normalized(box: RotatedBox, width: int, height: int) -> RotatedBox:
    """The box in image-relative units, as `vtspot loss` scores it."""
    return RotatedBox(box.cx / width, box.cy / height, box.w / width,
                      box.h / height, box.angle)


def extents_of(box: RotatedBox) -> tuple[float, float, float, float]:
    xy = rotated_to_quad(box).as_flat()
    xs, ys = xy[0::2], xy[1::2]
    return min(xs), min(ys), max(xs), max(ys)


frame_sizes = st.sampled_from(((640, 360), (1280, 720), (1920, 1080), (7, 3)))


@settings(max_examples=200, deadline=None)
@given(boxes, boxes, frame_sizes, st.booleans())
def test_giou_equals_clip_on_normalized_pairs(a, b, size, same):
    a = normalized(a, *size)
    assert_box_iou_matches(a, a if same else normalized(b, *size))


@settings(max_examples=300, deadline=None)
@given(boxes, boxes, st.integers(-4, 4), st.booleans(), st.floats(-1.0, 1.0),
       st.one_of(st.none(), frame_sizes))
def test_giou_equals_clip_when_extents_touch(a, b, ulps, in_x, slide, size):
    """b is moved so that its extents start where a's end, then a few ulps
    apart or into a; its box may touch a, cross it or miss it."""
    if size is not None:
        a, b = normalized(a, *size), normalized(b, *size)
    a_lo_x, a_lo_y, a_hi_x, a_hi_y = extents_of(a)
    b_lo_x, b_lo_y, b_hi_x, b_hi_y = extents_of(b)
    if in_x:
        cx = nudge(a_hi_x + (b.cx - b_lo_x), ulps)
        cy = a.cy + slide * (a_hi_y - a_lo_y)
    else:
        cx = a.cx + slide * (a_hi_x - a_lo_x)
        cy = nudge(a_hi_y + (b.cy - b_lo_y), ulps)
    assert_box_iou_matches(a, RotatedBox(cx, cy, b.w, b.h, b.angle))


# Far from the origin, rounding leaves this thin box's unrolled corners
# non-convex.
SLIVER = RotatedBox(68959236076.52457, -97003351220.82849, 0.0014793974273401228,
                    103.41668763794779, -0.2689317283797865)


@pytest.mark.parametrize("dx", [0.0, 1e3, 1e9])
def test_giou_rejects_nonconvex_unroll_even_when_disjoint(dx):
    assert not rotated_to_quad(SLIVER).is_convex()
    assert SLIVER.quad == rotated_to_quad(SLIVER)
    other = RotatedBox(SLIVER.cx + dx, SLIVER.cy, 10.0, 4.0, 0.3)
    # the second round reads the quads the boxes kept from the first
    for a, b in ((SLIVER, other), (other, SLIVER)) * 2:
        with pytest.raises(NonConvexInput):
            clip_giou(a, b)
        with pytest.raises(NonConvexInput):
            giou(a, b)
        with pytest.raises(NonConvexInput):
            quad_iou(a.quad, b.quad)
    for overlap in (clip_quad_iou, quad_iou):
        with pytest.raises(NonConvexInput):
            overlap(SLIVER.quad, SLIVER.quad)
    w = CostWeights()
    with pytest.raises(NonConvexInput):
        match_sets([GroundTruthInstance(SLIVER)], [PredictedInstance(0.5, other)], w)
    with pytest.raises(NonConvexInput):
        match_sets([GroundTruthInstance(other)], [PredictedInstance(0.5, SLIVER)], w)


def test_match_sets_refuses_what_its_first_giou_call_would():
    """Of two boxes that cannot be scored, ``match_sets`` raises for the
    one that ``giou``, called row by row, meets first: the first object,
    its first prediction, the object's extents, then each prediction."""
    huge = RotatedBox(1.7e308, 0.0, 1e308, 1.0, 0.3)  # its unroll overflows
    box = RotatedBox(1.0, 2.0, 3.0, 1.0, 0.3)
    cases = [
        ([SLIVER, None], [huge, box], ValueError),
        ([SLIVER, None], [box, huge], NonConvexInput),
        ([box, None], [SLIVER, huge], NonConvexInput),
        ([box, None], [huge, SLIVER], ValueError),
        ([None, box], [SLIVER, huge], NonConvexInput),
        ([box, SLIVER], [box, huge], ValueError),
    ]
    for gt_boxes, pred_boxes, error in cases:
        gts = [GroundTruthInstance.padding() if b is None else GroundTruthInstance(replace(b))
               for b in gt_boxes]
        preds = [PredictedInstance(0.5, replace(b)) for b in pred_boxes]
        with pytest.raises(ValueError) as info:
            match_sets(gts, preds, CostWeights())
        assert type(info.value) is error


def test_track_rejects_nonconvex_unroll_even_when_disjoint():
    far = RotatedBox(SLIVER.cx + 1e9, SLIVER.cy, 10.0, 4.0, 0.3)
    stream = [FrameDetections(0, [Detection(SLIVER, 1.0)]),
              FrameDetections(1, [Detection(far, 1.0)])]
    with pytest.raises(NonConvexInput):
        vtspot.track(stream)


# ---------------------------------------------------------------------------
# the flat-float kernel against the point geometry
# ---------------------------------------------------------------------------


@st.composite
def box_pairs(draw):
    """A box and a partner that is identical to it, flush against one of
    its sides (then a few ulps apart or into it), nested inside it, far
    from it, or anywhere."""
    a = draw(boxes)
    kind = draw(st.sampled_from(("identical", "touching", "nested", "far", "random")))
    turn = draw(st.sampled_from((0.0, math.pi / 2.0))) + draw(st.floats(-0.5, 0.5))
    if kind == "identical":
        b = RotatedBox(a.cx, a.cy, a.w, a.h, a.angle)
    elif kind == "touching":
        c, s = math.cos(a.angle), math.sin(a.angle)
        w = draw(side)
        ulps = draw(st.integers(-3, 3))
        reach = (a.w + w) / 2.0
        b = RotatedBox(nudge(a.cx + c * reach, ulps), nudge(a.cy + s * reach, ulps),
                       w, a.h, a.angle + draw(st.sampled_from((0.0, turn))))
    elif kind == "nested":
        # half the partner's diagonal is at most 0.35 of a's shorter side
        # and its center at most 0.1 of it from a's: inside a at any angle
        short = min(a.w, a.h)
        fit = draw(st.floats(0.05, 0.95))
        b = RotatedBox(a.cx + 0.1 * short * draw(st.floats(-0.7, 0.7)),
                       a.cy + 0.1 * short * draw(st.floats(-0.7, 0.7)),
                       0.7 * short * fit, 0.7 * short * (1.0 - fit), a.angle + turn)
    elif kind == "far":
        b = RotatedBox(a.cx + draw(st.sampled_from((-1.0, 1.0))) * 1e3, a.cy,
                       draw(side), draw(side), a.angle + turn)
    else:
        b = draw(boxes)
    return a, b


@settings(max_examples=400, deadline=None)
@given(box_pairs())
def test_kernel_equals_point_geometry(pair):
    """iou, giou, quad_iou, the clip and both conversions equal the point
    geometry in ``oracles``."""
    a, b = pair
    assert_box_iou_matches(a, b)
    assert_quad_iou_matches(rotated_to_quad(a), rotated_to_quad(b))


def hex_rows(matrix) -> list[list[str]]:
    return [[value.hex() for value in row] for row in matrix]


def match_sets_checking_cost(gts, preds, w):
    """``match_sets(gts, preds, w)``, after checking that the matrix it
    hands to ``hungarian`` equals the per-pair oracle's bit for bit."""
    seen = []

    def recording_hungarian(cost):
        seen.append(cost)
        return hungarian(cost)

    with unittest.mock.patch.object(matching_mod, "hungarian", recording_hungarian):
        got = match_sets(gts, preds, w)
    assert [hex_rows(cost) for cost in seen] == [hex_rows(plain_cost_matrix(gts, preds, w))]
    return got


@st.composite
def loss_frames(draw):
    """A padded (gts, preds) frame as `vtspot loss` builds it: predictions
    near some objects, others anywhere, identical boxes among them."""
    objects = draw(st.lists(boxes, min_size=0, max_size=6))
    preds = []
    for box in objects:
        kind = draw(st.sampled_from(("near", "same", "far")))
        if kind == "same":
            pred_box = box
        elif kind == "near":
            pred_box = RotatedBox(box.cx + draw(st.floats(-5.0, 5.0)),
                                  box.cy + draw(st.floats(-5.0, 5.0)),
                                  box.w, box.h, box.angle + draw(st.floats(-0.3, 0.3)))
        else:
            pred_box = draw(boxes)
        preds.append(PredictedInstance(draw(st.floats(0.0, 1.0)), pred_box))
    preds += [PredictedInstance(draw(st.floats(0.0, 1.0)), b)
              for b in draw(st.lists(boxes, max_size=3))]
    size = draw(st.one_of(st.none(), frame_sizes))
    if size is not None:
        objects = [normalized(b, *size) for b in objects]
        preds = [PredictedInstance(p.class_prob, normalized(p.box, *size)) for p in preds]
    gts = [GroundTruthInstance(b) for b in objects]
    preds = draw(st.permutations(preds))
    gts += [GroundTruthInstance.padding()] * (len(preds) - len(gts))
    preds += [PredictedInstance(0.0, GroundTruthInstance.padding().box)] * (
        len(gts) - len(preds))
    return gts, preds


weights = st.sampled_from((CostWeights(), CostWeights(1.0, 1.0, 1.0, 1.0),
                           CostWeights(0.5, 0.0, 3.0, 0.25)))


@settings(max_examples=150, deadline=None)
@given(loss_frames(), weights)
def test_match_sets_equals_per_pair_oracle(frame, w):
    gts, preds = frame
    got = match_sets_checking_cost(gts, preds, w)
    assert got == hungarian(plain_cost_matrix(gts, preds, w))


def steps_between(x: float, y: float, limit: int = 4) -> int | None:
    """How many ulps ``y`` lies above (positive) or below ``x``, if at most ``limit``."""
    for k in range(limit + 1):
        for signed in (k, -k):
            if nudge(x, signed) == y:
                return signed
    return None


def touching_pairs() -> list[tuple[RotatedBox, RotatedBox, int]]:
    """(gt box, pred box, gap): axis-aligned boxes on one row whose padded
    x-extents meet, the pred's starting ``gap`` ulps after the gt's ends
    (0 touches, a positive gap is apart, a negative one overlaps)."""
    out = []
    for cx, w, w_b in ((10.0, 4.0, 6.0), (0.3, 0.05, 0.02), (1e6 + 0.5, 40.0, 12.0),
                       (-250.0, 7.0, 3.0), (-1e6, 3.0, 30.0)):
        a = RotatedBox(cx, 5.0, w, 2.0, 0.0)
        _, _, hi_x, _, pad = rotated_to_quad(a)._convex_extents()
        end = hi_x + pad
        guess = end + w_b / 2.0
        for _ in range(3):
            lo_x, _, _, _, pad_b = rotated_to_quad(RotatedBox(guess, 5.0, w_b, 2.0, 0.0))._convex_extents()
            guess += end - (lo_x - pad_b)
        for k in range(-12, 13):
            b = RotatedBox(nudge(guess, k), 5.0, w_b, 2.0, 0.0)
            lo_x, _, _, _, pad_b = rotated_to_quad(b)._convex_extents()
            gap = steps_between(end, lo_x - pad_b)
            if gap is not None:
                out.append((a, b, gap))
    return out


def test_touching_pairs_straddle_the_broad_phase():
    gaps = {gap for _, _, gap in touching_pairs()}
    assert 0 in gaps and min(gaps) < 0 < max(gaps)


def edge_frames() -> list[tuple[list[GroundTruthInstance], list[PredictedInstance]]]:
    """Padded frames whose cost rows could part from the plain formula:
    padded extents that touch or lie a few ulps apart either way, boxes
    around 1e6 from the origin, and extents with equal minima or maxima
    (the hull's tie rule)."""
    rng = random.Random(5)
    frames = []
    pairs = touching_pairs()
    for start in range(0, len(pairs), 4):
        chunk = pairs[start:start + 4]
        frames.append(([a for a, _, _ in chunk], [b for _, b, _ in chunk]))
        # the same pairs seen from the other side
        frames.append(([b for _, b, _ in chunk], [a for a, _, _ in chunk]))
    for centre in (1e6, -1e6, 3e6):
        gt = [RotatedBox(centre + rng.uniform(-50, 50), centre + rng.uniform(-50, 50),
                         rng.uniform(1, 30), rng.uniform(1, 30), rng.uniform(-2, 2))
              for _ in range(4)]
        near = [RotatedBox(b.cx + rng.uniform(-3, 3), b.cy + rng.uniform(-3, 3),
                           b.w, b.h, b.angle + rng.uniform(-0.2, 0.2)) for b in gt]
        frames.append((gt, near + [RotatedBox(centre, -centre, 5.0, 2.0, 0.5)]))
    # equal x minima (8) or maxima (12 and 14), and one box inside another
    same = [RotatedBox(10.0, 0.0, 4.0, 2.0, 0.0), RotatedBox(11.0, 1.0, 6.0, 2.0, 0.0),
            RotatedBox(9.0, -1.0, 6.0, 2.0, 0.0), RotatedBox(10.0, 0.0, 4.0, 1.0, 0.0),
            RotatedBox(10.0, 40.0, 4.0, 2.0, 0.0), RotatedBox(11.0, 0.5, 6.0, 3.0, 0.0)]
    frames.append((same, same[::-1]))
    frames.append((same[:3], same[3:]))
    out = []
    for gt_boxes, pred_boxes in frames:
        gts = [GroundTruthInstance(b) for b in gt_boxes]
        gts += [GroundTruthInstance.padding()] * (len(pred_boxes) - len(gts))
        out.append((gts, [PredictedInstance(rng.random(), b) for b in pred_boxes]))
    return out


@pytest.mark.parametrize("w", [CostWeights(), CostWeights(0.5, 0.0, 3.0, 0.25)])
def test_match_sets_equals_per_pair_oracle_at_the_edges(w):
    for gts, preds in edge_frames():
        match_sets_checking_cost(gts, preds, w)


def assert_loss_terms_match(gts, preds, w) -> None:
    """``set_loss_terms`` on ``match_sets``' own assignment, which keeps
    each matched pair's GIoU, equals it on a built copy of that
    assignment, which scores every pair afresh, and both equal the
    per-pair oracle, key by key in report order."""
    kept = match_sets(gts, preds, w)
    built = Assignment(kept.pairs, kept.total_cost)
    want = list(plain_loss_terms(gts, preds, kept, w).items())
    assert list(set_loss_terms(gts, preds, kept, w).items()) == want
    assert list(set_loss_terms(gts, preds, built, w).items()) == want


@settings(max_examples=150, deadline=None)
@given(loss_frames(), weights)
def test_set_loss_terms_equal_the_per_pair_oracle(frame, w):
    assert_loss_terms_match(*frame, w)


@pytest.mark.parametrize("w", [CostWeights(), CostWeights(0.5, 0.0, 3.0, 0.25)])
def test_set_loss_terms_equal_the_per_pair_oracle_at_the_edges(w):
    for gts, preds in edge_frames():
        assert_loss_terms_match(gts, preds, w)


# ---------------------------------------------------------------------------
# near_pairs: padded bounds compared inline vs _apart on every pair
# ---------------------------------------------------------------------------

TOUCHING = touching_pairs()


def transposed(quad: Quad) -> Quad:
    """``quad`` mirrored across the line y = x: its x-extents become its
    y-extents, exactly."""
    xy = quad.as_flat()
    return Quad.from_flat([v for k in range(0, 8, 2) for v in (xy[k + 1], xy[k])])


def rectangle(x0: float, y0: float, x1: float, y1: float) -> Quad:
    return Quad.from_flat([x0, y0, x1, y0, x1, y1, x0, y1])


# coordinates within 1e-9 of the float maximum: the pad added to the
# largest of them takes the padded bound past the float range, to +-inf
near_max = st.floats(sys.float_info.max * (1.0 - 1e-9), sys.float_info.max)


@st.composite
def edge_of_range_quads(draw):
    """Axis-aligned rectangles whose corners lie within 1e-9 of the float
    maximum, on either side of zero in each axis."""
    sx, sy = draw(st.sampled_from((1.0, -1.0))), draw(st.sampled_from((1.0, -1.0)))
    x0, x1 = sorted((sx * draw(near_max), sx * draw(near_max)))
    y0, y1 = sorted((sy * draw(near_max), sy * draw(near_max)))
    return rectangle(x0, y0, x1, y1)


@st.composite
def broad_phase_inputs(draw):
    """Two quad lists, either of them possibly empty: rotated quads near
    the origin or around +-1e6 to 3e6, quads at the edge of the float
    range, and boxes whose padded extents touch or lie a few ulps apart
    (``touching_pairs``, in x or, transposed, in y), split across the
    lists."""
    centre = draw(st.sampled_from((0.0, 1e6, -1e6, 3e6, -3e6)))
    spread = st.builds(lambda b: rotated_to_quad(replace(b, cx=b.cx + centre, cy=b.cy - centre)),
                       boxes)
    quads = st.one_of(spread, edge_of_range_quads())
    a = draw(st.lists(quads, max_size=6))
    b = draw(st.lists(quads, max_size=6))
    for box_a, box_b, _ in draw(st.lists(st.sampled_from(TOUCHING), max_size=4)):
        qa, qb = rotated_to_quad(box_a), rotated_to_quad(box_b)
        if draw(st.booleans()):
            qa, qb = transposed(qa), transposed(qb)
        if draw(st.booleans()):
            qa, qb = qb, qa
        a.insert(draw(st.integers(0, len(a))), qa)
        b.insert(draw(st.integers(0, len(b))), qb)
    return a, b


def fresh(quads: list[Quad]) -> list[Quad]:
    """Copies of ``quads`` that have not computed their extents yet."""
    return [Quad.from_flat(q.as_flat()) for q in quads]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edge_of_range_quads_pad_to_infinity(sign):
    """The pad takes a bound within 1e-9 of the float maximum past it."""
    edge, inner = sign * sys.float_info.max, sign * sys.float_info.max * (1.0 - 1e-9)
    lo, hi = min(edge, inner), max(edge, inner)
    quad = rectangle(lo, lo, hi, hi)
    lo_x, lo_y, hi_x, hi_y, pad = quad._convex_extents()
    if sign > 0.0:
        assert hi_x + pad == hi_y + pad == math.inf
    else:
        assert lo_x - pad == lo_y - pad == -math.inf
    assert near_pairs([quad], [quad]) == [(0, 0)]


@settings(max_examples=1500, deadline=None)
@given(st.one_of(hull_corners(), area_corners(), edge_of_range_quads().map(Quad.as_flat)))
# signed zeros tied for a minimum, then for a maximum, each way round
@example([0.0, 0.0, 2.0, 0.0, 2.0, 2.0, -0.0, 2.0])
@example([-0.0, -0.0, 2.0, 0.0, 2.0, 2.0, 0.0, 2.0])
@example([-2.0, -2.0, 0.0, -2.0, -0.0, 0.0, -2.0, -0.0])
@example([-2.0, -2.0, -0.0, -2.0, 0.0, -0.0, -2.0, 0.0])
@example([1e6, -1e6, 1e6 + 2.0, -1e6, 1e6 + 2.0, -1e6 + 1.0, 1e6, -1e6 + 1.0])
@example(rectangle(-sys.float_info.max, -1.0, sys.float_info.max, 1.0).as_flat())
# darts: one corner turns right
@example([0.0, 0.0, 4.0, 0.0, 1.0, 1.0, 0.0, 4.0])
@example([1e6, 1e6, 1e6 + 4.0, 1e6, 1e6 + 1.0, 1e6 + 1.0, 1e6, 1e6 + 4.0])
@example([-1e6, -1e6, -1e6 + 4.0, -1e6, -1e6 + 1.0, -1e6 + 1.0, -1e6, -1e6 + 4.0])
def test_convexity_and_extents_equal_the_plain_ones(values):
    """The one pass over a fresh quad's corners gives the floats of the
    ``_orient`` calls, the slices, ``min`` and ``max``, bit for bit: of
    equal values (0.0 and -0.0) it keeps the first, as ``min`` and ``max``
    do.  A fresh quad asked for its extents first, or its convexity first,
    agrees, and a non-convex one raises the same NonConvexInput."""
    try:
        plain, convexity_first, extents_first = (Quad.from_flat(values) for _ in range(3))
    except SelfIntersectingQuad:
        return
    convex = plain_convex(plain)
    assert convexity_first.is_convex() is convex
    try:
        expected = plain_extents(plain)
    except NonConvexInput as exc:
        assert not convex
        for quad in (convexity_first, extents_first):
            with pytest.raises(NonConvexInput) as ours:
                quad._convex_extents()
            assert str(ours.value) == str(exc)
        assert extents_first.is_convex() is False
        return
    assert convex
    for quad in (convexity_first, extents_first):
        assert [v.hex() for v in quad._convex_extents()] == [v.hex() for v in expected]


@settings(max_examples=400, deadline=None)
@given(broad_phase_inputs())
@example(([], []))
@example(([], [rectangle(0.0, 0.0, 1.0, 1.0)]))
@example(([rectangle(0.0, 0.0, 1.0, 1.0)], []))
def test_near_pairs_equals_apart_on_every_pair(lists):
    """The same pairs in the same order as ``_apart`` on every pair, on
    fresh quads (the call computes their extents) and again on the same
    ones (it reads the extents they kept)."""
    a, b = fresh(lists[0]), fresh(lists[1])
    expected = plain_near_pairs(fresh(a), fresh(b))
    assert near_pairs(a, b) == expected
    assert near_pairs(a, b) == expected


DART = [0, 0, 4, 0, 1, 1, 0, 4]


@pytest.mark.parametrize("a,b", [
    ([DART], []),
    ([], [DART]),
    ([DART], [[0, 0, 1, 0, 1, 1, 0, 1]]),
    ([[100, 0, 101, 0, 101, 1, 100, 1]], [[0, 0, 1, 0, 1, 1, 0, 1], DART]),
    ([[0, 0, 1, 0, 1, 1, 0, 1], [1e6, 0, 1e6 + 1, 0, 1e6 + 1, 1, 1e6, 1], DART], [DART]),
])
def test_near_pairs_rejects_a_nonconvex_quad_in_either_list(a, b):
    """A non-convex quad raises wherever it is, even when no pair is
    tested: one in ``b`` when ``a`` is empty, one in ``a`` when ``b`` is."""
    for pairs in (near_pairs, plain_near_pairs):
        with pytest.raises(NonConvexInput):
            pairs([Quad.from_flat(q) for q in a], [Quad.from_flat(q) for q in b])


# ---------------------------------------------------------------------------
# evaluate: one table per frame vs three passes
# ---------------------------------------------------------------------------


def _with_ignores(gt: VideoAnnotation, rng: random.Random, share: float) -> VideoAnnotation:
    frames = {
        f: [Instance(i.track_id, i.quad,
                     IGNORE_MARK if rng.random() < share else i.transcription)
            for i in instances]
        for f, instances in gt.frames.items()
    }
    return VideoAnnotation(gt.video_id, gt.width, gt.height, gt.frame_count,
                           frames, gt.scenario)


def _roughened(pred: VideoAnnotation, rng: random.Random) -> VideoAnnotation:
    """Pull some prediction corners about (some quads turn non-convex),
    misspell some transcriptions and drop a few."""
    frames = {}
    for f, instances in pred.frames.items():
        out = []
        for i in instances:
            quad, text = i.quad, i.transcription
            if rng.random() < 0.3:
                try:
                    quad = Quad.from_flat([v for p in corners(quad)
                                           for v in (p.x + rng.gauss(0, 8),
                                                     p.y + rng.gauss(0, 8))])
                except SelfIntersectingQuad:
                    pass
            if rng.random() < 0.2:
                text = (text or "") + "x"
            if rng.random() < 0.1:
                continue
            out.append(Instance(i.track_id, quad, text))
        frames[f] = out
    return VideoAnnotation(pred.video_id, pred.width, pred.height,
                           pred.frame_count, frames)


def _with_ties(pred: VideoAnnotation, rng: random.Random, split: bool) -> VideoAnnotation:
    """Give some prediction tracks a tied twin: a copy of the track's
    first frames (sometimes all of them) under a fresh id, or (``split``)
    the track's second half moved to a fresh id when both halves are
    equally long, so that two tracks agree equally with one reference."""
    fresh = 1 + max((i.track_id for f in pred.frames.values() for i in f), default=0)
    frames = {f: list(instances) for f, instances in pred.frames.items()}
    spans: dict[int, list[int]] = {}
    for f in sorted(frames):
        for i in frames[f]:
            spans.setdefault(i.track_id, []).append(f)
    for tid, span in sorted(spans.items()):
        if rng.random() < 0.5:
            continue
        if not split:
            for f in span[:rng.randint(1, len(span))]:
                twin = next(i for i in frames[f] if i.track_id == tid)
                frames[f].append(Instance(fresh, twin.quad, twin.transcription))
        elif len(span) % 2 == 0:
            moved = set(span[len(span) // 2:])
            for f in moved:
                frames[f] = [Instance(fresh, i.quad, i.transcription)
                             if i.track_id == tid else i for i in frames[f]]
        fresh += 1
    return VideoAnnotation(pred.video_id, pred.width, pred.height,
                           pred.frame_count, frames)


@st.composite
def videos(draw):
    cfg = SynthConfig(
        n_objects=draw(st.integers(1, 12)),
        n_frames=draw(st.integers(2, 6)),
        motion=draw(st.sampled_from(("static", "constant_velocity", "rotate"))),
        noise_sigma=draw(st.sampled_from((0.0, 1.0, 6.0))),
        drop_prob=draw(st.sampled_from((0.0, 0.2))),
        seed=draw(st.integers(0, 10_000)),
    )
    rng = random.Random(cfg.seed)
    gt, dets = generate(cfg)
    trajs = run_tracker(dets.frames, TrackerConfig(iou_threshold=0.3))
    pred = trajectories_to_annotation(trajs, gt.video_id, gt.width, gt.height,
                                      gt.frame_count)
    ties = draw(st.sampled_from((None, "copy", "split")))
    if ties is not None:
        pred = _with_ties(pred, rng, split=ties == "split")
    if draw(st.booleans()):
        pred = _roughened(pred, rng)
    gt = _with_ignores(gt, rng, draw(st.sampled_from((0.0, 0.15, 0.4))))
    return gt, pred


def _unit_square(tid: int, x: float) -> Instance:
    return Instance(tid, Quad.from_flat([x, 0, x + 1, 0, x + 1, 1, x, 1]), "a")


def _cross_tied_video() -> tuple[VideoAnnotation, VideoAnnotation]:
    """Reference tracks 0 (frames 0-4 at x=0) and 1 (frames 5-9 at x=10);
    prediction 7 agrees with them on 4 and 3 frames, prediction 8 on 2 and
    1.  Both pairings total 5 agreeing frames, but only one of them leaves
    reference track 0 mostly tracked."""
    gt = VideoAnnotation("v", 100, 100, 10, {
        f: [_unit_square(0, 0.0) if f < 5 else _unit_square(1, 10.0)] for f in range(10)
    })
    where = {7: {0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0, 5: 10.0, 6: 10.0, 7: 10.0},
             8: {3: 0.0, 4: 0.0, 8: 10.0}}
    pred = VideoAnnotation("v", 100, 100, 10, {
        f: [_unit_square(tid, xs[f]) for tid, xs in where.items() if f in xs]
        for f in range(10)
    })
    return gt, pred


def _tied_frame() -> tuple[VideoAnnotation, VideoAnnotation]:
    """One frame of unit squares: references 1 and 2 at x = 1.25 and 0.75,
    predictions 1 and 2 at x = 1 and 1.5.  Three pairs tie at IoU 0.6;
    greedy, best IoU first, matches one reference, the assignment both."""
    gt = VideoAnnotation("v", 100, 100, 1, {0: [_unit_square(1, 1.25), _unit_square(2, 0.75)]})
    pred = VideoAnnotation("v", 100, 100, 1, {0: [_unit_square(1, 1.0), _unit_square(2, 1.5)]})
    return gt, pred


def _misread_video() -> tuple[VideoAnnotation, VideoAnnotation]:
    """Reference track 1 reads "cat" on frames 0-2; prediction 7 covers it
    reading "Cat", "cot" and "cat", so spotting matches frames 0 and 2
    only when case folds, and never frame 1."""
    def square(tid, text):
        return Instance(tid, Quad.from_flat([0, 0, 10, 0, 10, 10, 0, 10]), text)

    gt = VideoAnnotation("v", 100, 100, 3, {f: [square(1, "cat")] for f in range(3)})
    pred = VideoAnnotation("v", 100, 100, 3, {
        f: [square(7, text)] for f, text in enumerate(("Cat", "cot", "cat"))})
    return gt, pred


@settings(max_examples=60, deadline=None)
@example(_misread_video(), "spotting", 0.5, False)
@example(_misread_video(), "spotting", 0.5, True)
@example(_tied_frame(), "detection", 0.5, False)
@example(_cross_tied_video(), "tracking", 0.5, False)
@example(_cross_tied_video(), "spotting", 0.5, False)
@given(videos(), st.sampled_from(("detection", "tracking", "spotting")),
       st.sampled_from((0.05, 0.3, 0.5, 0.7, 1.0)), st.booleans())
def test_evaluate_equals_three_pass_oracle(video, task, iou_thresh, fold):
    gt, pred = video
    kwargs = dict(iou_thresh=iou_thresh, case_insensitive=fold)
    assert evaluate(gt, pred, task, **kwargs).to_dict() == three_pass_report(
        gt, pred, task, **kwargs)


def test_evaluate_equals_oracle_at_exact_ignore_gates():
    """A prediction whose IoU with an ignored region is exactly the gate is
    dropped; one region over the gate drops it whatever the others say."""
    def square(tid, x0, x1, text):
        return Instance(tid, Quad.from_flat([x0, 0, x1, 0, x1, 1, x0, 1]), text)

    gt = VideoAnnotation("v", 100, 100, 2, {
        0: [square(0, 0, 2, IGNORE_MARK), square(1, 10, 11, "a")],
        1: [square(0, 0, 1, IGNORE_MARK), square(2, 0.5, 1.5, IGNORE_MARK),
            square(1, 10, 11, "a")],
    })
    pred = VideoAnnotation("v", 100, 100, 2, {
        0: [square(5, 0, 1, "p"), square(6, 10, 11, "a")],
        1: [square(5, 0, 1, "p"), square(6, 10, 11, "a")],
    })
    for task in ("detection", "tracking", "spotting"):
        for thresh in (0.3, 0.5, 1.0):
            ours = evaluate(gt, pred, task, iou_thresh=thresh).to_dict()
            assert ours == three_pass_report(gt, pred, task, iou_thresh=thresh)
    # IoU([0,1], [0,2]) is exactly 0.5, the identity ignore gate
    assert evaluate(gt, pred, "tracking").ids.id_fp == 0


def test_evaluate_equals_oracle_on_missing_transcription():
    gt, dets = generate(SynthConfig(n_objects=4, n_frames=4, seed=7))
    pred = trajectories_to_annotation(run_tracker(dets.frames), gt.video_id,
                                      gt.width, gt.height, gt.frame_count)
    pred.frames[2][1] = Instance(pred.frames[2][1].track_id,
                                 pred.frames[2][1].quad, None)
    with pytest.raises(MissingTranscription) as ours:
        evaluate(gt, pred, "spotting")
    with pytest.raises(MissingTranscription) as oracle:
        three_pass_report(gt, pred, "spotting")
    assert str(ours.value) == str(oracle.value)


# ---------------------------------------------------------------------------
# tracker and linker with the clip-only quad_iou
# ---------------------------------------------------------------------------


def _as_points(trajectories):
    return [(t.track_id, sorted((f, p.quad.as_flat(), p.transcription)
                                for f, p in t.frames.items()))
            for t in trajectories]


def _every_pair(a, b):
    return [(i, j) for i in range(len(a)) for j in range(len(b))]


@pytest.mark.parametrize("synth", [
    *(SynthConfig(n_objects=20, n_frames=6, noise_sigma=2.0, drop_prob=0.1,
                  motion="rotate", seed=seed) for seed in (1, 2, 3)),
    SynthConfig(n_objects=50, n_frames=8, noise_sigma=1.0, drop_prob=0.05,
                motion="constant_velocity", seed=1),
], ids=["1", "2", "3", "crowded"])
def test_tracker_and_linker_equal_clip_only(synth, monkeypatch):
    """The tracker and the linker score the pairs ``near_pairs`` picks with
    ``iou``, which is ``quad_iou``; scoring every pair with the clip-only
    IoU links the same."""
    _, dets = generate(synth)
    frames = [(fd.frame_index, [(rotated_to_quad(d.box), d.transcription or "")
                                for d in fd.detections]) for fd in dets.frames]
    fast = (_as_points(run_tracker(dets.frames)), _as_points(link(frames)))
    for mod in (tracker_mod, linker_mod):
        monkeypatch.setattr(mod, "iou", clip_quad_iou)
        monkeypatch.setattr(mod, "near_pairs", _every_pair)
    plain = (_as_points(run_tracker(dets.frames)), _as_points(link(frames)))
    assert fast == plain


# ---------------------------------------------------------------------------
# tracker: component-wise gated assignment against the dense-table oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("motion", ["static", "constant_velocity", "rotate"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("cfg", [TrackerConfig(), TrackerConfig(0.2, max_age=2),
                                 TrackerConfig(1.0, max_age=1, min_score=0.5)])
def test_tracker_equals_dense_oracle_on_synth_streams(motion, seed, cfg):
    _, dets = generate(SynthConfig(n_objects=15, n_frames=8, motion=motion,
                                   noise_sigma=3.0, drop_prob=0.2, seed=seed))
    assert run_tracker(dets.frames, cfg) == dense_track(dets.frames, cfg)


# Squares of side 4 on a lattice of step 2: duplicates, and pairs at equal
# IoU (a box at x = 2 meets boxes at x = 0 and x = 4 at 1/3 each).
lattice_dets = st.builds(
    lambda x, y, score: Detection(RotatedBox(2.0 * x, 2.0 * y, 4.0, 4.0, 0.0), score),
    st.integers(0, 3), st.integers(0, 1), st.sampled_from((0.4, 1.0)))

# Every box jumps clear of the last frame's: tracks and detections in each
# frame, but no admissible pair.
GATE_MISSING_FRAMES = [
    [Detection(RotatedBox(20.0 * f + 7.0 * k, 3.0 * k, 4.0, 4.0, 0.1 * f), 1.0)
     for k in range(4)]
    for f in range(5)
]


def _lattice(x: int, y: int) -> Detection:
    return Detection(RotatedBox(2.0 * x, 2.0 * y, 4.0, 4.0, 0.0), 1.0)


# Tracks 0-4 are duplicates at (0, 0), track 5 sits at (2, 0).  In the next
# frame tracks 0-2 match their duplicates exactly and tracks 3-4 gate with
# nothing; track 5 meets detections 3 and 5 at IoU 1/3 each.  One dense
# padded solve let the idle tracks 3-4 decide that tie (track 5 took
# detection 5); solved inside its own component, track 5 takes detection 3.
TIE_OUTSIDE_ITS_COMPONENT = [
    [_lattice(0, 0)] * 5 + [_lattice(1, 0)],
    [_lattice(0, 0)] * 3 + [_lattice(1, 1), _lattice(2, 1), _lattice(1, 1)],
]


@settings(max_examples=150, deadline=None)
@example(GATE_MISSING_FRAMES, 0.5, 3, 0.0)
@example(TIE_OUTSIDE_ITS_COMPONENT, 1.0 / 3.0, 0, 0.0)
@given(st.lists(st.lists(lattice_dets, max_size=6), min_size=1, max_size=6),
       st.sampled_from((0.1, 1.0 / 3.0, 0.5, 1.0)), st.integers(0, 2),
       st.sampled_from((0.0, 0.5)))
def test_tracker_equals_dense_oracle_on_tied_frames(frames, gate, max_age, min_score):
    stream = [FrameDetections(f, dets) for f, dets in enumerate(frames)]
    cfg = TrackerConfig(gate, max_age=max_age, min_score=min_score)
    assert run_tracker(stream, cfg) == dense_track(stream, cfg)


# ---------------------------------------------------------------------------
# an unlisted frame is empty: sparse input against the same input padded
# ---------------------------------------------------------------------------


def _padded(stream: list[FrameDetections]) -> list[FrameDetections]:
    """``stream`` with every skipped index listed as an empty frame."""
    listed = {fd.frame_index: fd for fd in stream}
    last = stream[-1].frame_index if stream else -1
    return [listed.get(f, FrameDetections(f, [])) for f in range(last + 1)]


gap_dets = st.builds(
    lambda x, y, carried, text: Detection(
        RotatedBox(2.0 * x, 2.0 * y, 4.0, 4.0, 0.0), 1.0, text,
        None if carried is None else RotatedBox(2.0 * carried, 2.0 * y, 4.0, 4.0, 0.0)),
    st.integers(0, 3), st.integers(0, 1), st.one_of(st.none(), st.integers(0, 3)),
    st.sampled_from(("", "ab", "abc")))


@st.composite
def gappy_streams(draw):
    """Frames of lattice detections, some carrying a ``track_box``, with
    gaps of up to 9 skipped indices between them."""
    stream, f = [], draw(st.integers(0, 3))
    for dets in draw(st.lists(st.lists(gap_dets, max_size=5), min_size=1, max_size=7)):
        stream.append(FrameDetections(f, dets))
        f += 1 + draw(st.sampled_from((0, 0, 1, 2, 4, 9)))
    return stream


@settings(max_examples=200, deadline=None)
@given(gappy_streams(), st.sampled_from((0.1, 1.0 / 3.0, 1.0)), st.integers(0, 10))
def test_tracker_on_a_gappy_stream_equals_it_padded(stream, gate, max_age):
    cfg = TrackerConfig(gate, max_age=max_age)
    assert run_tracker(stream, cfg) == run_tracker(_padded(stream), cfg)
    # step by step: the same live tracks (predicted boxes included) after
    # each listed frame, and the same tracks born and aged out on the way
    sparse, padded = tracker_mod.Tracker(cfg), tracker_mod.Tracker(cfg)
    padded_frames = iter(_padded(stream))
    for fd in stream:
        tracks, born, dead = sparse.step(fd)
        padded_dead = []
        for pf in padded_frames:
            padded_tracks, padded_born, pf_dead = padded.step(pf)
            padded_dead += pf_dead
            if pf.frame_index == fd.frame_index:
                break
        assert (tracks, born, sorted(dead)) == (
            padded_tracks, padded_born, sorted(padded_dead))


@settings(max_examples=100, deadline=None)
@given(gappy_streams(), st.integers(1, 4))
def test_linker_on_a_gappy_stream_equals_it_padded(stream, window):
    def objects(frames):
        return [(fd.frame_index, [(d.box.quad, d.transcription) for d in fd.detections])
                for fd in frames]

    cfg = linker_mod.LinkerConfig(window=window)
    assert link(objects(stream), cfg) == link(objects(_padded(stream)), cfg)


# ---------------------------------------------------------------------------
# linker: its near pairs and gated_assign against a dense table
# ---------------------------------------------------------------------------


def _lattice_shape(kind: str, x: int, y: int) -> Quad:
    """A shape of height 4 centred at ``(2x, 2y)``: a square of side 4, a
    parallelogram slanted by 2 over its height, or a dart, non-convex,
    whose minimum-area box is that square."""
    x, y = 2.0 * x, 2.0 * y
    return Quad.from_flat({
        "square": (x - 2, y - 2, x + 2, y - 2, x + 2, y + 2, x - 2, y + 2),
        "slanted": (x - 3, y - 2, x + 1, y - 2, x + 3, y + 2, x - 1, y + 2),
        "dart": (x - 2, y - 2, x + 2, y, x - 2, y + 2, x - 1, y),
    }[kind])


# Shapes on a lattice of step 2, often repeated: trajectories whose last
# shapes are identical meet an object at equal IoU (as do the squares at
# x = 0 and x = 4 a square at x = 2), and transcriptions from a two-letter
# alphabet keep many pairs inside the edit gate.  Two parallelograms one
# step apart vertically overlap by 0.23 as quads and by 0.37 as boxes, so
# the gate of 1/3 tells the linker's quad IoU from a box IoU.
tied_objects = st.tuples(
    st.builds(_lattice_shape, st.sampled_from(("square", "slanted", "dart")),
              st.integers(0, 3), st.integers(0, 1)),
    st.text("ab", max_size=3))


@st.composite
def tied_link_frames(draw):
    """Frames of lattice objects, with up to 3 dropped indices between them."""
    frames, f = [], draw(st.integers(0, 2))
    for objects in draw(st.lists(st.lists(tied_objects, max_size=6),
                                 min_size=1, max_size=7)):
        frames.append((f, objects))
        f += 1 + draw(st.sampled_from((0, 0, 1, 3)))
    return frames


@settings(max_examples=200, deadline=None)
@example([(0, [(_lattice_shape("slanted", 0, 0), "a")]),
          (1, [(_lattice_shape("slanted", 0, 1), "a"), (_lattice_shape("dart", 1, 0), "a")])],
         1, 1.0 / 3.0, 0.0)
@given(tied_link_frames(), st.integers(1, 3), st.sampled_from((0.1, 1.0 / 3.0, 1.0)),
       st.sampled_from((0.0, 0.5, 1.0)))
def test_linker_equals_dense_component_assignment_on_tied_frames(
        frames, window, gate, max_edit):
    """Max total IoU of the shapes ``evaluate`` scores, ties by ascending
    object, then trajectory, index: the near pairs through ``gated_assign``
    pick what the dense table's components pick."""
    cfg = linker_mod.LinkerConfig(window, gate, max_edit)
    assert link(frames, cfg) == plain_link(frames, cfg)


@st.composite
def sparse_videos(draw):
    """A ``videos()`` pair spread over a longer clip: frame f moves to
    f * stride + offset, and some frames of either document are dropped
    (unlisted) or emptied (listed with no instances)."""
    gt, pred = draw(videos())
    stride, offset = draw(st.sampled_from((1, 2, 5))), draw(st.integers(0, 2))
    frame_count = (gt.frame_count - 1) * stride + offset + 1 + draw(st.integers(0, 3))

    def spread(doc: VideoAnnotation) -> VideoAnnotation:
        frames = {}
        for f, instances in doc.frames.items():
            fate = draw(st.sampled_from(("keep", "keep", "drop", "empty")))
            if fate != "drop":
                frames[f * stride + offset] = instances if fate == "keep" else []
        return VideoAnnotation(doc.video_id, doc.width, doc.height, frame_count,
                               frames, doc.scenario)

    return spread(gt), spread(pred)


def _filled(doc: VideoAnnotation) -> VideoAnnotation:
    return replace(doc, frames={f: doc.frames.get(f, []) for f in range(doc.frame_count)})


def _report(gt, pred, task, **kwargs):
    try:
        return evaluate(gt, pred, task, **kwargs).to_dict()
    except MissingTranscription as exc:
        return str(exc)


def _correspondence_across_a_gap() -> tuple[VideoAnnotation, VideoAnnotation]:
    """Prediction 5 covers reference 0 at frames 0 and 2; at frame 2
    prediction 6 covers it better.  Frame 1 is unlisted, so it ends the
    0-5 correspondence and frame 2 switches to 6."""
    gt = VideoAnnotation("v", 100, 100, 3, {f: [_unit_square(0, 0.0)] for f in (0, 2)})
    pred = VideoAnnotation("v", 100, 100, 3, {
        0: [_unit_square(5, 0.2)], 2: [_unit_square(5, 0.2), _unit_square(6, 0.0)]})
    return gt, pred


@settings(max_examples=80, deadline=None)
@example(_correspondence_across_a_gap(), "tracking", 0.5)
@given(sparse_videos(), st.sampled_from(("detection", "tracking", "spotting")),
       st.sampled_from((0.3, 0.5, 1.0)))
def test_evaluate_on_sparse_documents_equals_them_padded(video, task, iou_thresh):
    gt, pred = video
    kwargs = dict(iou_thresh=iou_thresh)
    assert _report(gt, pred, task, **kwargs) == _report(
        _filled(gt), _filled(pred), task, **kwargs)
