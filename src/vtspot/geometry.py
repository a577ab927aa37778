"""Rotated-box and quadrilateral geometry.

Boxes are center-form ``(cx, cy, w, h, angle)`` with the angle measured
between the box's longest edge and the x-axis, wrapped to ``[-pi/2, pi/2)``.
Quads are simple four-gons stored counter-clockwise. Conversions go both
ways: a box unrolls to its four corners, and an arbitrary quad collapses to
its minimum-area enclosing rotated rectangle. Overlap is computed exactly by
clipping convex quads against each other (Sutherland-Hodgman), which gives
IoU and, with the axis-aligned hull of both corner sets, GIoU.

The overlap functions take plain shapes.  What they prepare is kept on the
shape, outside its value: a box keeps its unrolled quad (``RotatedBox.quad``)
and a quad its convexity and axis-aligned extents, so a shape scored against
many others is prepared once, whoever calls.

Units are whatever the caller uses (pixels throughout this package); nothing
here assumes an image size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateQuad, NonConvexInput, SelfIntersectingQuad

_HALF_PI = math.pi / 2.0

# Quads flatter than this are rejected by quad_to_rotated and the loaders.
DEGENERATE_AREA = 1e-12

# The broad phase only rejects pairs whose gap exceeds this fraction of
# their coordinates' magnitude: far more than rounding in the unroll or in
# the clip can bridge.  Nearer pairs, touching ones included, go through the
# clip, which decides them exactly as before.
_BROAD_SLACK = 1e-9


def _cache():
    """A slot filled on first use.  It is not part of the value: equality,
    hashing, repr and ``dataclasses.replace`` ignore it."""
    return field(default=None, init=False, repr=False, compare=False)


def canonical_angle(angle: float) -> float:
    """Wrap an angle to the canonical interval ``[-pi/2, pi/2)``.

    Box edge directions are lines, not rays, so angles are periodic in pi.
    """
    a = math.remainder(angle, math.pi)
    if a >= _HALF_PI:
        a -= math.pi
    elif a < -_HALF_PI:
        a += math.pi
    return a


@dataclass(frozen=True, slots=True)
class Point2:
    """2D point; coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def signed_area(points: tuple[Point2, ...] | list[Point2]) -> float:
    """Shoelace signed area; positive means counter-clockwise order."""
    total = 0.0
    n = len(points)
    for i in range(n):
        p, q = points[i], points[(i + 1) % n]
        total += p.x * q.y - q.x * p.y
    return 0.5 * total


def polygon_area(points: tuple[Point2, ...] | list[Point2]) -> float:
    if len(points) < 3:
        return 0.0
    return abs(signed_area(points))


def _orient(a: Point2, b: Point2, c: Point2) -> float:
    """Twice the signed area of triangle abc (left of a->b is positive)."""
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _segments_cross(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """True when segments ab and cd properly cross (shared endpoints do not count)."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    return (o1 * o2 < 0.0) and (o3 * o4 < 0.0)


@dataclass(frozen=True, slots=True)
class Quad:
    """Simple quadrilateral; corner order is canonicalized to counter-clockwise."""

    corners: tuple[Point2, Point2, Point2, Point2]
    _convex: bool | None = _cache()
    # (min_x, min_y, max_x, max_y, pad): the axis-aligned extents and the
    # broad phase's outward pad, _BROAD_SLACK of their largest magnitude
    _extents: tuple[float, float, float, float, float] | None = _cache()

    def __post_init__(self):
        if len(self.corners) != 4:
            raise ValueError(f"quad needs exactly 4 corners, got {len(self.corners)}")
        c = self.corners
        # A four-gon self-intersects iff a pair of opposite edges crosses.
        if _segments_cross(c[0], c[1], c[2], c[3]) or _segments_cross(c[1], c[2], c[3], c[0]):
            raise SelfIntersectingQuad(f"corner order describes a self-intersecting quad: {c}")
        if signed_area(c) < 0.0:
            object.__setattr__(self, "corners", (c[0], c[3], c[2], c[1]))

    @property
    def area(self) -> float:
        return polygon_area(self.corners)

    def is_convex(self) -> bool:
        convex = self._convex
        if convex is None:
            c = self.corners
            convex = not any(_orient(c[i], c[(i + 1) % 4], c[(i + 2) % 4]) < 0.0
                             for i in range(4))
            object.__setattr__(self, "_convex", convex)
        return convex

    def _convex_extents(self) -> tuple[float, float, float, float, float]:
        """The cached ``_extents`` of a convex quad; raises NonConvexInput
        for a non-convex one, since overlap math cannot use it."""
        extents = self._extents
        if extents is None:
            _require_convex(self)
            c = self.corners
            lo_x = min(c[0].x, c[1].x, c[2].x, c[3].x)
            lo_y = min(c[0].y, c[1].y, c[2].y, c[3].y)
            hi_x = max(c[0].x, c[1].x, c[2].x, c[3].x)
            hi_y = max(c[0].y, c[1].y, c[2].y, c[3].y)
            pad = _BROAD_SLACK * max(abs(lo_x), abs(hi_x), abs(lo_y), abs(hi_y))
            extents = (lo_x, lo_y, hi_x, hi_y, pad)
            object.__setattr__(self, "_extents", extents)
        return extents

    def as_flat(self) -> list[float]:
        """Corners flattened to [x1, y1, ..., x4, y4]."""
        out: list[float] = []
        for p in self.corners:
            out.extend((p.x, p.y))
        return out

    @classmethod
    def from_flat(cls, values) -> "Quad":
        vals = list(values)
        if len(vals) != 8:
            raise ValueError(f"flat quad needs 8 numbers, got {len(vals)}")
        pts = tuple(Point2(float(vals[i]), float(vals[i + 1])) for i in range(0, 8, 2))
        return cls(pts)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class RotatedBox:
    """Center-form rotated rectangle.

    ``w`` and ``h`` must be positive; ``angle`` is wrapped to [-pi/2, pi/2)
    on construction. By convention ``angle`` is the direction of the ``w``
    edge; conversions from quads always put the longest edge in ``w``.
    """

    cx: float
    cy: float
    w: float
    h: float
    angle: float
    _quad: Quad | None = _cache()

    def __post_init__(self):
        for name in ("cx", "cy", "w", "h", "angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"box field {name} must be finite")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        object.__setattr__(self, "angle", canonical_angle(self.angle))

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def quad(self) -> Quad:
        """The box's corners, from ``rotated_to_quad`` on first use."""
        quad = self._quad
        return rotated_to_quad(self) if quad is None else quad


def rotated_to_quad(box: RotatedBox) -> Quad:
    """Unroll a box to its four corners in counter-clockwise order.

    The quad is computed on a box's first unroll and kept on the box, so
    every later call, and ``box.quad``, returns that same quad.
    """
    quad = box._quad
    if quad is None:
        c = math.cos(box.angle)
        s = math.sin(box.angle)
        hw = box.w / 2.0
        hh = box.h / 2.0
        quad = Quad(tuple(  # type: ignore[arg-type]
            Point2(box.cx + c * dx - s * dy, box.cy + s * dx + c * dy)
            for dx, dy in ((-hw, -hh), (hw, -hh), (hw, hh), (-hw, hh))
        ))
        object.__setattr__(box, "_quad", quad)
    return quad


def _half_hull(pts: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """One monotone chain over ``pts``, popping right turns and collinear
    points."""
    out: list[tuple[float, float]] = []
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


def _convex_hull(points) -> list[tuple[float, float]]:
    """Monotone-chain hull as ``(x, y)`` pairs, counter-clockwise; collinear
    points dropped."""
    pts = sorted({(p.x, p.y) for p in points})
    if len(pts) <= 2:
        return pts
    return _half_hull(pts)[:-1] + _half_hull(pts[::-1])[:-1]


def nondegenerate_hull(quad: Quad) -> list[tuple[float, float]]:
    """The convex hull of a quad's corners as ``(x, y)`` pairs,
    counter-clockwise.

    Raises DegenerateQuad when the quad's own area is below
    ``DEGENERATE_AREA`` or its corners are collinear: the quads that
    ``quad_to_rotated`` cannot enclose and the loaders refuse.
    """
    if quad.area < DEGENERATE_AREA:
        raise DegenerateQuad(f"quad area {quad.area!r} is below {DEGENERATE_AREA!r}")
    hull = _convex_hull(quad.corners)
    if len(hull) < 3:
        raise DegenerateQuad("quad corners are collinear")
    return hull


def quad_to_rotated(quad: Quad) -> RotatedBox:
    """Minimum-area enclosing rotated rectangle of a quad.

    The returned box carries the rectangle's longest edge in ``w`` and that
    edge's direction in ``angle``. For a square (sides equal within 1e-9
    relative) the candidate angle closest to zero wins. Raises
    DegenerateQuad for the quads ``nondegenerate_hull`` rejects.
    """
    hull = nondegenerate_hull(quad)

    best = None  # (area, theta, u extents, v extents)
    n = len(hull)
    for i in range(n):
        (px, py), (qx, qy) = hull[i], hull[(i + 1) % n]
        theta = math.atan2(qy - py, qx - px)
        c, s = math.cos(theta), math.sin(theta)
        us = [c * pt.x + s * pt.y for pt in quad.corners]
        vs = [-s * pt.x + c * pt.y for pt in quad.corners]
        u0, u1 = min(us), max(us)
        v0, v1 = min(vs), max(vs)
        area = (u1 - u0) * (v1 - v0)
        if best is None or area < best[0]:
            best = (area, theta, u0, u1, v0, v1)

    _, theta, u0, u1, v0, v1 = best
    c, s = math.cos(theta), math.sin(theta)
    uc = (u0 + u1) / 2.0
    vc = (v0 + v1) / 2.0
    cx = c * uc - s * vc
    cy = s * uc + c * vc
    w0 = u1 - u0
    h0 = v1 - v0

    if abs(w0 - h0) <= 1e-9 * max(w0, h0):
        # Square: pick the edge direction whose canonical angle is nearest 0.
        cand = [(canonical_angle(theta), w0, h0), (canonical_angle(theta + _HALF_PI), h0, w0)]
        angle, w, h = min(cand, key=lambda t: (abs(t[0]), t[0]))
    elif h0 > w0:
        angle, w, h = canonical_angle(theta + _HALF_PI), h0, w0
    else:
        angle, w, h = canonical_angle(theta), w0, h0
    return RotatedBox(cx, cy, w, h, angle)


def _require_convex(quad: Quad) -> None:
    if not quad.is_convex():
        raise NonConvexInput(f"polygon clipping needs convex input, got {quad.corners}")


def polygon_intersection(a: Quad, b: Quad) -> list[Point2]:
    """Clip quad ``a`` against quad ``b``; both must be convex.

    Returns the intersection polygon's vertices (counter-clockwise, possibly
    empty or degenerate when the quads only touch).
    """
    _require_convex(a)
    _require_convex(b)
    return _clip(a, b)


def _clip(a: Quad, b: Quad) -> list[Point2]:
    """polygon_intersection for quads already known to be convex."""
    output: list[Point2] = list(a.corners)
    clip = b.corners
    for i in range(4):
        if not output:
            break
        ca, cb = clip[i], clip[(i + 1) % 4]
        output = _clip_half_plane(output, ca, cb)
    return output


def _clip_half_plane(poly: list[Point2], a: Point2, b: Point2) -> list[Point2]:
    """Keep the part of ``poly`` on or left of the directed line a->b."""
    out: list[Point2] = []
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


def _line_hit(p: Point2, q: Point2, p_side: float, q_side: float) -> Point2:
    t = p_side / (p_side - q_side)
    return Point2(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


def _area_ratio(inter: float, union: float) -> float:
    """inter/union clamped into [0, 1]: clipping round-off can push the
    intersection of a quad with itself a few ulps past its own area."""
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))


def _apart(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """True when two quads' ``_extents``, each padded outward by its own
    pad, are strictly apart: the quads cannot overlap."""
    return (a[2] + a[4] < b[0] - b[4] or b[2] + b[4] < a[0] - a[4]
            or a[3] + a[4] < b[1] - b[4] or b[3] + b[4] < a[1] - a[4])


def quad_iou(a: Quad, b: Quad) -> float:
    """Exact intersection-over-union of two convex quads.

    Raises NonConvexInput for a non-convex argument, even when the two quads
    are far apart.  Quads whose padded extents are apart score 0 unclipped.
    """
    ea = a._convex_extents()
    eb = b._convex_extents()
    if _apart(ea, eb):
        return 0.0
    if a.corners == b.corners:
        # identical shapes overlap fully by definition; skipping the clip
        # keeps the result exact where round-off would wobble it
        return 1.0 if a.area > 0.0 else 0.0
    inter = polygon_area(_clip(a, b))
    return _area_ratio(inter, a.area + b.area - inter)


def near_pairs(a: list[Quad], b: list[Quad]) -> list[tuple[int, int]]:
    """The index pairs ``(i, j)``, in order, for which ``quad_iou(a[i],
    b[j])`` can be nonzero: every pair but those whose padded extents are
    apart.  A table of IoUs needs to score only these pairs.  Raises
    NonConvexInput for a non-convex quad, as quad_iou does.
    """
    extents_b = [q._convex_extents() for q in b]
    pairs: list[tuple[int, int]] = []
    for i, q in enumerate(a):
        ea = q._convex_extents()
        pairs += [(i, j) for j, eb in enumerate(extents_b) if not _apart(ea, eb)]
    return pairs


def iou(a: RotatedBox, b: RotatedBox) -> float:
    """Intersection-over-union of two rotated boxes, in [0, 1].

    Boxes whose circumscribed circles are apart, by more than
    ``_BROAD_SLACK`` of the boxes' size and position, score 0 before any
    corner is unrolled.  Nearer pairs are clipped, each box unrolled only
    on its first use (``RotatedBox.quad``).
    """
    reach = 0.5 * (math.hypot(a.w, a.h) + math.hypot(b.w, b.h))
    reach += _BROAD_SLACK * (reach + abs(a.cx) + abs(a.cy) + abs(b.cx) + abs(b.cy))
    dx = a.cx - b.cx
    dy = a.cy - b.cy
    if dx * dx + dy * dy > reach * reach:
        return 0.0
    qa = a.quad
    qb = b.quad
    if qa.corners == qb.corners:
        return 1.0
    inter = polygon_area(polygon_intersection(qa, qb))
    return _area_ratio(inter, a.area + b.area - inter)


def giou(a: RotatedBox, b: RotatedBox) -> float:
    """Generalized IoU: IoU minus the hull penalty, in (-1, 1].

    The enclosing hull is the axis-aligned bounding box of both corner sets.
    Raises NonConvexInput when rounding left a box's unrolled corners
    non-convex, even when the boxes are far apart.  Boxes whose padded
    extents are apart are not clipped: their overlap is 0.
    """
    qa = a.quad
    qb = b.quad
    ea = qa._convex_extents()
    eb = qb._convex_extents()
    inter = 0.0 if _apart(ea, eb) else polygon_area(_clip(qa, qb))
    union = a.area + b.area - inter
    hull = ((max(ea[2], eb[2]) - min(ea[0], eb[0]))
            * (max(ea[3], eb[3]) - min(ea[1], eb[1])))
    value = _area_ratio(inter, union)
    if hull <= 0.0:
        return value
    return value - max(0.0, hull - union) / hull
