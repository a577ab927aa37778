"""Rotated-box and quadrilateral geometry.

Boxes are center-form ``(cx, cy, w, h, angle)`` with the angle measured
between the box's longest edge and the x-axis, wrapped to ``[-pi/2, pi/2)``.
Quads are simple four-gons stored counter-clockwise. Conversions go both
ways: a box unrolls to its four corners, and an arbitrary quad collapses to
its minimum-area enclosing rotated rectangle. Overlap is computed exactly by
clipping convex quads against each other (Sutherland-Hodgman), which gives
IoU and, with the axis-aligned hull of both corner sets, GIoU.

A quad's corners are one flat tuple of eight floats, ``(x0, y0, ..., x3,
y3)``: that tuple is the quad's value (its equality, hash and repr), what
``Quad.from_flat`` takes and ``Quad.as_flat`` gives back, and what every
kernel here (the clip, the areas, the orientation, bowtie and convexity
tests, the extents and the box fit) reads.  Coordinates are checked to be
finite once, where a quad is made, by ``_finite_floats``: in
``Quad.from_flat``, in ``rotated_to_quad`` and in the loaders.

The overlap functions take plain shapes.  What they prepare is kept on the
shape, outside its value: a box keeps its unrolled quad (``RotatedBox.quad``)
and a quad its convexity and axis-aligned extents, so a shape scored against
many others is prepared once, whoever calls.  A quad also keeps its area,
the shoelace sum of its stored corners taken when it is made, where the
corner order is settled.

There is one broad-phase rule: two quads whose axis-aligned extents, each
padded by ``_BROAD_SLACK`` of its coordinates' magnitude, are apart cannot
overlap.  ``_apart`` states the rule.  ``quad_iou`` and ``giou`` skip the
clip for such a pair, and ``near_pairs`` leaves it out of the pairs a
caller scores: the tracker, the linker and the metrics score only the
pairs it returns.  ``near_pairs`` pads each quad's bounds once per
call and compares them inline, pair by pair, with no call per pair.

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
    """A slot the shape fills itself, when it is made or on first use.  It
    is not part of the value: equality, hashing and repr ignore it, and
    ``dataclasses.replace`` of a ``RotatedBox`` starts its copy with the
    slot empty.  (A ``Quad`` has no ``__init__`` for ``replace`` to call,
    so ``replace`` raises TypeError on one.)"""
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


def _not_finite(x, y) -> ValueError:
    return ValueError(f"point coordinates must be finite, got ({x}, {y})")


def _finite_floats(values) -> tuple[float, ...]:
    """``values``, a flat corner list, as a tuple of floats.  A value
    ``float()`` refuses raises its error; otherwise the first corner that
    is not finite raises."""
    xy = tuple(map(float, values))
    # an inf or a nan anywhere makes the sum non-finite
    if not math.isfinite(sum(xy)):
        for i in range(0, len(xy), 2):
            x, y = xy[i], xy[i + 1]
            if not (math.isfinite(x) and math.isfinite(y)):
                raise _not_finite(x, y)
    return xy


def _area(poly: list[tuple[float, float]]) -> float:
    """Shoelace area of ``(x, y)`` pairs; 0 for fewer than three."""
    if len(poly) < 3:
        return 0.0
    total = 0.0
    it = iter(poly)
    first = px, py = next(it)
    for x, y in it:
        total += px * y - x * py
        px = x
        py = y
    x, y = first
    total += px * y - x * py
    return abs(0.5 * total)


def _quad_signed_area(xy: tuple[float, ...]) -> float:
    """Shoelace signed area of a flat quad, summed corner by corner from
    0.0; positive means counter-clockwise order."""
    x0, y0, x1, y1, x2, y2, x3, y3 = xy
    return 0.5 * (0.0 + (x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1)
                  + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3))


def _ccw(xy: tuple[float, ...]) -> tuple[tuple[float, ...], float]:
    """A flat quad in counter-clockwise order and its area, the shoelace
    sum of the corners returned.  Raises SelfIntersectingQuad for a
    bowtie."""
    x0, y0, x1, y1, x2, y2, x3, y3 = xy
    # A four-gon self-intersects iff a pair of opposite edges crosses: edges
    # ab and cd properly cross (a shared endpoint does not count) when c and
    # d lie strictly on opposite sides of ab, and a and b of cd.  Each side
    # is the sign of an orientation product, (b - a) x (p - a), written out.
    ex, ey = x1 - x0, y1 - y0
    fx, fy = x3 - x2, y3 - y2
    if ((ex * (y2 - y0) - ey * (x2 - x0)) * (ex * (y3 - y0) - ey * (x3 - x0)) < 0.0
            and (fx * (y0 - y2) - fy * (x0 - x2)) * (fx * (y1 - y2) - fy * (x1 - x2)) < 0.0):
        raise SelfIntersectingQuad(f"corner order describes a self-intersecting quad: {xy}")
    ex, ey = x2 - x1, y2 - y1
    fx, fy = x0 - x3, y0 - y3
    if ((ex * (y3 - y1) - ey * (x3 - x1)) * (ex * (y0 - y1) - ey * (x0 - x1)) < 0.0
            and (fx * (y1 - y3) - fy * (x1 - x3)) * (fx * (y2 - y3) - fy * (x2 - x3)) < 0.0):
        raise SelfIntersectingQuad(f"corner order describes a self-intersecting quad: {xy}")
    area = _quad_signed_area(xy)
    if area < 0.0:
        # summed again: the reversed corners' sum adds the same terms in
        # another order, so it need not be the negation bit for bit
        xy = (x0, y0, x3, y3, x2, y2, x1, y1)
        area = _quad_signed_area(xy)
    return xy, abs(area)


@dataclass(frozen=True, slots=True, init=False, match_args=False)
class Quad:
    """Simple quadrilateral; corner order is canonicalized to counter-clockwise.

    Build one with ``Quad.from_flat``.  Its value, for equality, hashing,
    repr and pickling, is the flat corner tuple ``as_flat()`` returns.
    """

    _xy: tuple[float, ...]
    # abs(_quad_signed_area(_xy)), taken when the quad is made
    _area: float | None = _cache()
    _convex: bool | None = _cache()
    # (min_x, min_y, max_x, max_y, pad): the axis-aligned extents and the
    # broad phase's outward pad, _BROAD_SLACK of their largest magnitude
    _extents: tuple[float, float, float, float, float] | None = _cache()

    @classmethod
    def _of_flat(cls, xy: tuple[float, ...]) -> "Quad":
        """The quad of eight finite floats, reordered counter-clockwise."""
        quad = object.__new__(cls)
        xy, area = _ccw(xy)
        object.__setattr__(quad, "_xy", xy)
        object.__setattr__(quad, "_area", area)
        object.__setattr__(quad, "_convex", None)
        object.__setattr__(quad, "_extents", None)
        return quad

    @property
    def area(self) -> float:
        """The shoelace area of the stored corners, kept since the quad
        was made."""
        return self._area

    def is_convex(self) -> bool:
        """No corner turns right: each corner triple's orientation, ``(b -
        a) x (c - a)``, is not negative.  Taken on first use in one pass
        over the corners, which also keeps a convex quad's ``_extents``."""
        convex = self._convex
        if convex is None:
            x0, y0, x1, y1, x2, y2, x3, y3 = self._xy
            convex = not ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) < 0.0
                          or (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) < 0.0
                          or (x3 - x2) * (y0 - y2) - (y3 - y2) * (x0 - x2) < 0.0
                          or (x0 - x3) * (y1 - y3) - (y0 - y3) * (x1 - x3) < 0.0)
            if convex:
                # min and max of each axis, each keeping the first of equal
                # values as min() and max() do; the minimum never passes
                # the maximum, so one if/elif per corner
                lo_x = hi_x = x0
                if x1 < lo_x:
                    lo_x = x1
                elif x1 > hi_x:
                    hi_x = x1
                if x2 < lo_x:
                    lo_x = x2
                elif x2 > hi_x:
                    hi_x = x2
                if x3 < lo_x:
                    lo_x = x3
                elif x3 > hi_x:
                    hi_x = x3
                lo_y = hi_y = y0
                if y1 < lo_y:
                    lo_y = y1
                elif y1 > hi_y:
                    hi_y = y1
                if y2 < lo_y:
                    lo_y = y2
                elif y2 > hi_y:
                    hi_y = y2
                if y3 < lo_y:
                    lo_y = y3
                elif y3 > hi_y:
                    hi_y = y3
                pad = _BROAD_SLACK * max(abs(lo_x), abs(hi_x), abs(lo_y), abs(hi_y))
                object.__setattr__(self, "_extents", (lo_x, lo_y, hi_x, hi_y, pad))
            object.__setattr__(self, "_convex", convex)
        return convex

    def _convex_extents(self) -> tuple[float, float, float, float, float]:
        """The ``_extents`` of a convex quad, kept by ``is_convex``; raises
        NonConvexInput for a non-convex one, since overlap math cannot
        use it."""
        extents = self._extents
        if extents is None:
            if not self.is_convex():
                raise NonConvexInput(
                    f"polygon clipping needs convex input, got {self._xy}")
            extents = self._extents
        return extents

    def as_flat(self) -> tuple[float, ...]:
        """The stored corners, ``(x0, y0, ..., x3, y3)``."""
        return self._xy

    @classmethod
    def from_flat(cls, values) -> "Quad":
        """The quad of eight numbers, ``int`` or ``float`` (not ``bool``),
        reordered counter-clockwise."""
        vals = list(values)
        if len(vals) != 8:
            raise ValueError(f"flat quad needs 8 numbers, got {len(vals)}")
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise TypeError(f"flat quad needs numbers, got {type(v).__name__}")
        return cls._of_flat(_finite_floats(vals))


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
        angle = self.angle
        # an inf or a nan in any field makes the sum non-finite; a sum past
        # the float range, or a field the sum refuses, goes field by field
        try:
            finite = math.isfinite(self.cx + self.cy + self.w + self.h + angle)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            for name in ("cx", "cy", "w", "h", "angle"):
                if not math.isfinite(getattr(self, name)):
                    raise ValueError(f"box field {name} must be finite")
        if self.w <= 0.0 or self.h <= 0.0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")
        # canonical_angle returns a float already in range as it is
        if type(angle) is not float or not -_HALF_PI <= angle < _HALF_PI:
            object.__setattr__(self, "angle", canonical_angle(angle))

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

    Corner ``(dx, dy)`` of the unrotated box, ``dx = -w/2, w/2, w/2, -w/2``
    and ``dy = -h/2, -h/2, h/2, h/2``, lands at ``(cx + c*dx - s*dy, cy +
    s*dx + c*dy)``.  The quad is computed on a box's first unroll and kept
    on the box, so every later call, and ``box.quad``, returns that same
    quad.  Raises ValueError when a corner overflows.
    """
    quad = box._quad
    if quad is None:
        c = math.cos(box.angle)
        s = math.sin(box.angle)
        hw = box.w / 2.0
        hh = box.h / 2.0
        # c*(-hw) is -(c*hw) and a + -b is a - b, exactly: the products are
        # taken once and the signs folded into the sums.
        cw, sw, ch, sh = c * hw, s * hw, c * hh, s * hh
        cx, cy = box.cx, box.cy
        quad = Quad._of_flat(_finite_floats((
            cx - cw + sh, cy - sw - ch,
            cx + cw + sh, cy + sw - ch,
            cx + cw - sh, cy + sw + ch,
            cx - cw - sh, cy - sw + ch,
        )))
        object.__setattr__(box, "_quad", quad)
    return quad


def nondegenerate_hull(quad: Quad) -> list[tuple[float, float]]:
    """The convex hull of a quad's corners as ``(x, y)`` pairs,
    counter-clockwise.

    Raises DegenerateQuad when the quad's own area is below
    ``DEGENERATE_AREA`` or its corners are collinear: the quads that
    ``quad_to_rotated`` cannot enclose and the loaders refuse.

    The hull is Andrew's monotone chain over the distinct corners in sorted
    order, a lower then an upper half, each dropping its last point.  A
    half pops its last point while the turn ``o -> a -> p`` onto the next
    point ``p`` is not strictly left, ``(ax - ox) * (py - oy) - (ay - oy) *
    (px - ox) <= 0.0``.  With three or four corners the chain is written
    out, case by case.  Of corners that compare equal (``0.0`` and
    ``-0.0``), the first in corner order stands for them all.
    """
    area = quad._area
    if area < DEGENERATE_AREA:
        raise DegenerateQuad(f"quad area {area!r} is below {DEGENERATE_AREA!r}")
    x0, y0, x1, y1, x2, y2, x3, y3 = quad._xy
    # a stable sort puts equal corners side by side, the first one first
    pts = sorted([(x0, y0), (x1, y1), (x2, y2), (x3, y3)])
    a, b, c, d = pts
    if a == b or b == c or c == d:
        pts = list(dict.fromkeys(pts))
    if len(pts) == 4:
        (ax, ay), (bx, by), (cx, cy), (dx, dy) = pts
        # lower half over a, b, c, d
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0.0:
            hull = [a] if (cx - ax) * (dy - ay) - (cy - ay) * (dx - ax) <= 0.0 else [a, c]
        elif (cx - bx) * (dy - by) - (cy - by) * (dx - bx) <= 0.0:
            hull = [a] if (bx - ax) * (dy - ay) - (by - ay) * (dx - ax) <= 0.0 else [a, b]
        else:
            hull = [a, b, c]
        # upper half over d, c, b, a
        if (cx - dx) * (by - dy) - (cy - dy) * (bx - dx) <= 0.0:
            hull += [d] if (bx - dx) * (ay - dy) - (by - dy) * (ax - dx) <= 0.0 else [d, b]
        elif (bx - cx) * (ay - cy) - (by - cy) * (ax - cx) <= 0.0:
            hull += [d] if (cx - dx) * (ay - dy) - (cy - dy) * (ax - dx) <= 0.0 else [d, c]
        else:
            hull += [d, c, b]
    elif len(pts) == 3:
        a, b, c = pts
        (ax, ay), (bx, by), (cx, cy) = pts
        hull = [a] if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0.0 else [a, b]
        hull += [c] if (bx - cx) * (ay - cy) - (by - cy) * (ax - cx) <= 0.0 else [c, b]
    else:
        hull = pts
    if len(hull) < 3:
        raise DegenerateQuad("quad corners are collinear")
    return hull


def quad_to_rotated(quad: Quad) -> RotatedBox:
    """Minimum-area enclosing rotated rectangle of a quad.

    The returned box carries the rectangle's longest edge in ``w`` and that
    edge's direction in ``angle``. For a square (sides equal within 1e-9
    relative) the candidate angle closest to zero wins. Raises
    DegenerateQuad for the quads ``nondegenerate_hull`` rejects.

    One side of the minimum-area rectangle lies on a hull edge (Freeman and
    Shapira, 1975), so each edge in hull order is tried and the first of
    equal areas wins.  The extents along an edge are the first minimum and
    maximum of the four corners' projections, as ``min`` and ``max`` pick
    them, found by comparisons in line.
    """
    hull = nondegenerate_hull(quad)
    x0, y0, x1, y1, x2, y2, x3, y3 = quad._xy
    atan2, cos, sin = math.atan2, math.cos, math.sin

    best = None  # (area, theta, cos, sin, u extents, v extents)
    for (px, py), (qx, qy) in zip(hull, hull[1:] + hull[:1]):
        theta = atan2(qy - py, qx - px)
        c = cos(theta)
        s = sin(theta)
        ns = -s
        # the minimum never passes the maximum, so a value below the one is
        # not above the other: one if/elif per projection
        u0 = u1 = c * x0 + s * y0
        u = c * x1 + s * y1
        if u < u0:
            u0 = u
        elif u > u1:
            u1 = u
        u = c * x2 + s * y2
        if u < u0:
            u0 = u
        elif u > u1:
            u1 = u
        u = c * x3 + s * y3
        if u < u0:
            u0 = u
        elif u > u1:
            u1 = u
        v0 = v1 = ns * x0 + c * y0
        v = ns * x1 + c * y1
        if v < v0:
            v0 = v
        elif v > v1:
            v1 = v
        v = ns * x2 + c * y2
        if v < v0:
            v0 = v
        elif v > v1:
            v1 = v
        v = ns * x3 + c * y3
        if v < v0:
            v0 = v
        elif v > v1:
            v1 = v
        area = (u1 - u0) * (v1 - v0)
        if best is None or area < best[0]:
            best = (area, theta, c, s, u0, u1, v0, v1)

    _, theta, c, s, u0, u1, v0, v1 = best
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


def _clip(a: tuple[float, ...], b: tuple[float, ...]) -> list[tuple[float, float]]:
    """Sutherland-Hodgman: clip flat quad ``a`` against each edge of flat
    quad ``b`` in turn, keeping the part on or left of the edge; both must
    be convex.  Returns the intersection's vertices as ``(x, y)`` pairs,
    counter-clockwise, possibly empty or degenerate when the quads only touch.

    Each vertex's side of the edge is computed once.  A crossing, inward
    or outward, lands at ``p + t * (q - p)`` with ``t = p_side / (p_side -
    q_side)`` and comes before ``q`` when ``q`` is kept; one that overflows
    raises ValueError, as a non-finite corner does.
    """
    poly = [(a[0], a[1]), (a[2], a[3]), (a[4], a[5]), (a[6], a[7])]
    for k in (0, 2, 4, 6):
        ax = b[k]
        ay = b[k + 1]
        ex = b[(k + 2) & 7] - ax
        ey = b[(k + 3) & 7] - ay
        out = []
        px, py = poly[-1]
        p_side = ex * (py - ay) - ey * (px - ax)
        for q in poly:
            qx, qy = q
            q_side = ex * (qy - ay) - ey * (qx - ax)
            q_in = q_side >= 0.0
            # p -> q crosses the edge's line, inward or outward; two tests,
            # not q_in != (p_side >= 0.0), so a nan p_side crosses neither way
            if (p_side < 0.0) if q_in else (p_side >= 0.0):
                t = p_side / (p_side - q_side)
                hx = px + t * (qx - px)
                hy = py + t * (qy - py)
                # v - v is 0.0 for a finite v and nan (truthy) otherwise
                if hx - hx or hy - hy:
                    raise _not_finite(hx, hy)
                out.append((hx, hy))
            if q_in:
                out.append(q)
            px = qx
            py = qy
            p_side = q_side
        poly = out
        if not poly:
            break
    return poly


def _area_ratio(inter: float, union: float) -> float:
    """inter/union clamped into [0, 1]: clipping round-off can push the
    intersection of a quad with itself a few ulps past its own area.
    Raises ValueError when either area overflowed the float range."""
    if not (math.isfinite(inter) and math.isfinite(union)):
        raise ValueError(f"overlap areas must be finite, got intersection {inter} "
                         f"and union {union}")
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
    Each quad's area is the one it keeps (``Quad.area``), and so are its
    extents once worked out (and its convexity checked), the first quad's first.
    """
    ea = a._extents
    if ea is None:
        ea = a._convex_extents()
    eb = b._extents
    if eb is None:
        eb = b._convex_extents()
    if _apart(ea, eb):
        return 0.0
    if a._xy == b._xy:
        # identical shapes overlap fully by definition; skipping the clip
        # keeps the result exact where round-off would wobble it: 1 for a
        # positive area, 0 for none, and an area that overflowed raises
        return _area_ratio(a._area, a._area)
    inter = _area(_clip(a._xy, b._xy))
    return _area_ratio(inter, a._area + b._area - inter)


def near_pairs(a: list[Quad], b: list[Quad]) -> list[tuple[int, int]]:
    """The index pairs ``(i, j)``, in order, for which ``quad_iou(a[i],
    b[j])`` can be nonzero: every pair but those whose padded extents are
    apart, the one reject rule of the overlap functions.  A table of IoUs
    needs to score only these pairs.  Raises NonConvexInput for a
    non-convex quad, as quad_iou does, checking every quad of ``b`` first,
    even when ``a`` is empty.

    Each quad's padded bounds, ``(lo_x - pad, lo_y - pad, hi_x + pad, hi_y
    + pad)`` of its ``_extents``, are taken once per call, and each pair's
    four comparisons run inline: the floats and the rule of ``_apart``,
    without a call per pair.
    """
    bounds_b = [(lo_x - pad, lo_y - pad, hi_x + pad, hi_y + pad)
                for lo_x, lo_y, hi_x, hi_y, pad in map(Quad._convex_extents, b)]
    pairs: list[tuple[int, int]] = []
    for i, q in enumerate(a):
        lo_x, lo_y, hi_x, hi_y, pad = q._convex_extents()
        a_lo_x, a_lo_y, a_hi_x, a_hi_y = lo_x - pad, lo_y - pad, hi_x + pad, hi_y + pad
        pairs += [(i, j) for j, (b_lo_x, b_lo_y, b_hi_x, b_hi_y) in enumerate(bounds_b)
                  if not (a_hi_x < b_lo_x or b_hi_x < a_lo_x
                          or a_hi_y < b_lo_y or b_hi_y < a_lo_y)]
    return pairs


def giou(a: RotatedBox, b: RotatedBox) -> float:
    """Generalized IoU: IoU minus the hull penalty, in (-1, 1].

    The enclosing hull is the axis-aligned bounding box of both corner sets,
    not their convex hull.  So a rotated box scores below 1 against itself:
    ``giou(b, b)`` is about 0.55 for ``RotatedBox(0.3, 0.4, 0.05, 0.02, 0.3)``.
    Raises NonConvexInput when rounding left a box's unrolled corners
    non-convex, even when the boxes are far apart, and ValueError, as
    ``_area_ratio`` does, when an area overflowed the float range.  Boxes
    whose padded extents are apart are not clipped: their intersection is
    0, so their score is ``0.0 - (hull - union) / hull`` when the hull
    exceeds the union, and 0 otherwise.
    """
    qa = a._quad
    if qa is None:
        qa = rotated_to_quad(a)
    qb = b._quad
    if qb is None:
        qb = rotated_to_quad(b)
    ea = qa._extents
    if ea is None:
        ea = qa._convex_extents()
    eb = qb._extents
    if eb is None:
        eb = qb._convex_extents()
    a_lo_x, a_lo_y, a_hi_x, a_hi_y, a_pad = ea
    b_lo_x, b_lo_y, b_hi_x, b_hi_y, b_pad = eb
    # max(p, q) and min(p, q) keep p on a tie, and so do these
    hull = (((b_hi_x if b_hi_x > a_hi_x else a_hi_x) - (b_lo_x if b_lo_x < a_lo_x else a_lo_x))
            * ((b_hi_y if b_hi_y > a_hi_y else a_hi_y) - (b_lo_y if b_lo_y < a_lo_y else a_lo_y)))
    union = a.w * a.h + b.w * b.h
    # _apart(ea, eb), spelled out; matching._cost_row repeats this test and
    # the score of an apart pair with the same floats, so change both together
    inter = 0.0
    if not (a_hi_x + a_pad < b_lo_x - b_pad or b_hi_x + b_pad < a_lo_x - a_pad
            or a_hi_y + a_pad < b_lo_y - b_pad or b_hi_y + b_pad < a_lo_y - a_pad):
        inter = _area(_clip(qa._xy, qb._xy))
        union -= inter
    value = _area_ratio(inter, union)
    if hull <= 0.0:
        return value
    gap = hull - union
    if gap <= 0.0:
        return value
    if not hull < math.inf:  # inf / inf would read nan
        raise ValueError(f"overlap areas must be finite, got hull {hull} and union {union}")
    return value - gap / hull
