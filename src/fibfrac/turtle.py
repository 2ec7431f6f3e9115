"""Turtle rendering of i-Fibonacci words and geometry of the resulting curves.

The drawing rule starts at the origin heading straight up (pi/2).  For the
j-th symbol (1-based) it draws one segment of length `unit`, then turns by
alpha after a 0 (left on even j, right on odd j under the default parity)
and keeps its heading after a 1.  Headings are tracked as integer multiples
of alpha so direction never drifts over millions of segments.

draw writes the vertices as complex numbers x + iy.  For each block of
_BLOCK symbols it gathers the symbols' steps from a table of the block's
headings into one complex step array (16 bytes per symbol, reused from block
to block), then runs one cumsum of the steps into the vertex array.

Drawing needs the returned vertex array (16 bytes per vertex) plus about 2
bytes per symbol: the symbols and their turns.  draw, curve_stats and
oriented_box go through the curve in blocks of _BLOCK symbols, so every
other temporary they make, the step array and heading table included, has
at most one block's size.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import words
from .errors import DomainError

INITIAL_HEADING = math.pi / 2

PARITIES = ("even-left", "odd-left")

# symbols (or points) per block in draw and _extent
_BLOCK = 1 << 16


def _turn_signs(bits: np.ndarray, parity: str) -> np.ndarray:
    """Per-symbol turn as an integer multiple of alpha (+1 left, -1 right)."""
    if parity not in PARITIES:
        raise DomainError("parity must be one of %r, got %r" % (PARITIES, parity))
    signs = (bits == 0).view(np.int8)
    # 0-based slot 0::2 is an odd 1-based position, which turns right by default
    right = signs[0::2] if parity == "even-left" else signs[1::2]
    np.negative(right, out=right)
    return signs


@dataclass(frozen=True)
class Polyline:
    """An ordered run of 2D vertices produced by the drawing rule."""

    points: np.ndarray
    final_heading: float
    turn_count: int

    def __len__(self) -> int:
        return int(self.points.shape[0])


def _check_alpha(alpha: float) -> None:
    # True is an int but no angle; a float skips the slower numbers.Real test
    if not isinstance(alpha, float) and (
            isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)):
        raise DomainError("alpha must be a real number, got %r" % (alpha,))
    if not 0.0 <= alpha <= math.pi / 2:
        raise DomainError("alpha must lie in [0, pi/2], got %r" % (alpha,))


def _check_unit(unit: float) -> None:
    # a subnormal unit keeps too few significant bits for the segment steps
    if not sys.float_info.min <= unit < math.inf:
        raise DomainError("unit must be a finite float of at least %r, got %r"
                          % (sys.float_info.min, unit))


def draw(w, alpha: float, unit: float = 1.0, parity: str = "even-left") -> Polyline:
    """Render a word as a polyline; vertex count is word length + 1."""
    _check_alpha(alpha)
    _check_unit(unit)
    bits = words.as_bits(w)
    # no coordinate, and no distance between two vertices, exceeds
    # unit * len(w); the extents that curve_stats and polyline_svg add up
    # stay finite while it is under a quarter of the largest float
    if unit * bits.size > sys.float_info.max / 4:
        raise DomainError("unit %r times %d segments overflows the coordinates"
                          % (unit, bits.size))
    signs = _turn_signs(bits, parity)
    pts = np.zeros((bits.size + 1, 2), dtype=np.float64)
    # vertex j as x + iy; complex addition adds x and y separately, so one
    # complex cumsum makes the same bits as a cumsum per coordinate
    z = pts.view(np.complex128)[:, 0]
    steps = np.empty(min(bits.size, _BLOCK), dtype=np.complex128)
    k0 = 0  # heading index before the block's first symbol
    for s in range(0, bits.size, _BLOCK):
        block = signs[s : s + _BLOCK]
        # k0 + r[j] is the heading index before symbol s + j + 1; a block
        # turns at most _BLOCK times, so r fits in int32
        r = np.empty(block.size, dtype=np.int32)
        r[0] = 0
        np.cumsum(block[:-1], dtype=np.int32, out=r[1:])
        r_min, r_max = int(r.min()), int(r.max())
        # the block's headings take only r_max - r_min + 1 distinct values,
        # so look up cos and sin in a table instead of evaluating them per
        # symbol; a table entry depends only on its own index
        heading = INITIAL_HEADING + alpha * np.arange(k0 + r_min, k0 + r_max + 1)
        tab = np.empty(heading.size, dtype=np.complex128)
        tab.real = unit * np.cos(heading)
        tab.imag = unit * np.sin(heading)
        k0 += int(r[-1]) + int(block[-1])
        r -= r_min
        step = steps[: r.size]
        # every index is in range, so "clip" clips nothing; unlike "raise" it
        # writes straight into out instead of into a copy of it
        np.take(tab, r, out=step, mode="clip")
        # adding the running vertex to the block's first step keeps the
        # additions of one cumsum over the whole word
        step[0] += z[s]
        np.cumsum(step, out=z[s + 1 : s + 1 + r.size])
    return Polyline(
        points=pts, final_heading=INITIAL_HEADING + alpha * k0, turn_count=k0
    )


def turn_count(w, parity: str = "even-left") -> int:
    """Net turn count of a word: the integer k with final heading pi/2 + k*alpha."""
    bits = words.as_bits(w)
    return int(_turn_signs(bits, parity).sum(dtype=np.int64))


@dataclass(frozen=True)
class CurveStats:
    """Chord width, perpendicular height and aspect ratio."""

    w: float
    h: float
    aspect: float


def _as_points(p, name: str = "points") -> np.ndarray:
    # a Polyline comes from draw, which only builds finite points
    if isinstance(p, Polyline):
        return p.points
    pts = np.asarray(p, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("%s must be an (N, 2) point array" % name)
    # min and max carry any NaN and reach any inf, with no temporary array
    if pts.size and not (math.isfinite(pts.min()) and math.isfinite(pts.max())):
        raise DomainError("%s must hold only finite coordinates" % name)
    return pts


def _extent(pts: np.ndarray, ux: float, uy: float) -> tuple:
    """(lo, hi) of (p - pts[0]) . (ux, uy) over the points, a block at a time."""
    lo, hi = math.inf, -math.inf
    for s in range(0, pts.shape[0], _BLOCK):
        b = pts[s : s + _BLOCK]
        t = (b[:, 0] - pts[0, 0]) * ux + (b[:, 1] - pts[0, 1]) * uy
        lo, hi = min(lo, t.min()), max(hi, t.max())
    return float(lo), float(hi)


def curve_stats(p) -> CurveStats:
    """Width w = |last - first|; height h = perpendicular spread across the chord.

    h is the full extent of the signed perpendicular offsets from the chord
    line (equal to the maximum distance when the curve stays on one side).
    The aspect ratio w/h is flagged infinite when h < 1e-12 * w.
    """
    pts = _as_points(p)
    if pts.shape[0] < 2:
        raise DomainError("curve_stats needs at least 2 points")
    chord = pts[-1] - pts[0]
    w = float(math.hypot(chord[0], chord[1]))
    if w > 0.0:
        lo, hi = _extent(pts, -chord[1] / w, chord[0] / w)
        h = hi - lo
    else:
        h = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    # finite points can lie too far apart for their differences to be finite
    if not (math.isfinite(w) and math.isfinite(h)):
        raise DomainError("the curve's extents overflow: w=%r, h=%r" % (w, h))
    if h < 1e-12 * w or h == 0.0:
        aspect = math.inf
    else:
        aspect = w / h
    return CurveStats(w=w, h=h, aspect=aspect)


@dataclass(frozen=True)
class OrientedBox:
    """Minimal rectangle in a given frame containing all of a sub-curve's vertices."""

    center: np.ndarray
    axis: np.ndarray
    half: tuple

    def __post_init__(self):
        # a NaN extent compares False against every bound, so a box with one
        # would pass boxes_disjoint's test
        if not all(np.isfinite(part).all() for part in (self.center, self.axis, self.half)):
            raise DomainError("an oriented box needs a finite center, axis and half-extents")

    def corners(self) -> np.ndarray:
        u = self.axis
        v = np.array([-u[1], u[0]])
        a, b = self.half
        return np.array(
            [
                self.center + a * u + b * v,
                self.center - a * u + b * v,
                self.center - a * u - b * v,
                self.center + a * u - b * v,
            ]
        )

    def diagonal(self) -> float:
        return 2.0 * math.hypot(self.half[0], self.half[1])


def oriented_box(p, frame_angle: float = 0.0) -> OrientedBox:
    """Minimal rectangle whose axes are the global axes rotated by frame_angle."""
    pts = _as_points(p)
    if pts.shape[0] < 2:
        raise DomainError("oriented_box needs at least 2 points")
    if not math.isfinite(frame_angle):
        raise DomainError("frame_angle must be finite, got %r" % (frame_angle,))
    u = np.array([math.cos(frame_angle), math.sin(frame_angle)])
    v = np.array([-u[1], u[0]])
    xi_lo, xi_hi = _extent(pts, u[0], u[1])
    eta_lo, eta_hi = _extent(pts, v[0], v[1])
    center = pts[0] + u * (0.5 * (xi_lo + xi_hi)) + v * (0.5 * (eta_lo + eta_hi))
    half = (0.5 * (xi_hi - xi_lo), 0.5 * (eta_hi - eta_lo))
    return OrientedBox(center=center, axis=u, half=half)


def subcurves(i: int, n: int, alpha: float, parity: str = "even-left"):
    """Five-partite split of the drawn curve, with one oriented box per part.

    Parts share their junction vertices, so part k ends where part k+1
    starts.  A part's turn_count is its own net turn, and its final_heading
    is the global heading at its last vertex.  Each part's box is aligned to
    that part's own drawing frame: the global frame rotated by (entering
    turn count) * alpha, which is the frame in which the part is a copy of
    a free-standing curve.  Returns (list of five Polylines, list of five
    OrientedBoxes).
    """
    fp = words.five_partite(i, n)  # validates n >= 7 and the decomposition
    signs = _turn_signs(fp.word.bits(), parity)
    whole = draw(fp.word, alpha, parity=parity)
    polys = []
    boxes = []
    k1 = 0  # turn count of the prefix before the part; parts are contiguous
    for start, end in fp.parts:
        k0, k1 = k1, k1 + int(signs[start:end].sum(dtype=np.int64))
        pts = whole.points[start : end + 1]
        polys.append(
            Polyline(
                points=pts,
                final_heading=INITIAL_HEADING + alpha * k1,
                turn_count=k1 - k0,
            )
        )
        boxes.append(oriented_box(pts, frame_angle=k0 * alpha))
    return polys, boxes


def _edge_normals(poly: np.ndarray) -> np.ndarray:
    """Outward unit normals of the non-zero edges of a counterclockwise polygon."""
    edges = np.roll(poly, -1, axis=0) - poly
    lens = np.hypot(edges[:, 0], edges[:, 1])
    edges = edges[lens > 0.0] / lens[lens > 0.0, None]
    return np.column_stack([edges[:, 1], -edges[:, 0]])


def _polygon_overlap(pa: np.ndarray, pb: np.ndarray) -> float:
    """Separating-axis overlap depth of two convex polygons (<= 0: separated).

    A polygon with no area has no interior, so its overlap is at most 0.
    """
    axes = np.vstack([_edge_normals(pa), _edge_normals(pb)])
    if axes.shape[0] == 0:  # two single points
        return 0.0
    qa = pa @ axes.T
    qb = pb @ axes.T
    gaps = np.minimum(qa.max(axis=0), qb.max(axis=0)) - np.maximum(
        qa.min(axis=0), qb.min(axis=0)
    )
    return float(gaps.min())


BoxReport = namedtuple("BoxReport", ["disjoint", "violating_pair"])


def boxes_disjoint(boxes) -> BoxReport:
    """Pairwise interior disjointness via the separating-axis test.

    Boundary contact is allowed: overlap up to tau = 1e-9 times the largest
    box diagonal does not count as a violation.  Returns the verdict and the
    first violating pair of indices (or None).
    """
    boxes = list(boxes)
    if not boxes:
        return BoxReport(True, None)
    tau = 1e-9 * max(b.diagonal() for b in boxes)
    for j in range(len(boxes)):
        for k in range(j + 1, len(boxes)):
            if _polygon_overlap(boxes[j].corners(), boxes[k].corners()) > tau:
                return BoxReport(False, (j, k))
    return BoxReport(True, None)


def similar_order(i: int, k: int) -> int:
    """6k + 5 for even i, 6k + 3 for odd i: the orders whose split is a similarity."""
    words._as_int(i, "family index i", 2)
    return 6 * words._as_int(k, "k", 0) + (5 if i % 2 == 0 else 3)


def endpoints_on_box(i: int, n: int, parity: str = "even-left") -> bool:
    """True iff both endpoints of the curve drawn at pi/2 sit on its bounding box.

    At pi/2 the bounding box is axis-aligned.  The claim holds for
    n = 5 (mod 6) when i is even and n = 3 (mod 6) when i is odd.  For even i
    the endpoints land exactly on box corners; for odd i they sit on the top
    and bottom edges.
    """
    want = similar_order(i, 0)
    if n % 6 != want:
        raise DomainError(
            "for i=%d the box property needs n = %d (mod 6), got n=%d" % (i, want, n)
        )
    pts = draw(words.word_concat(i, n), math.pi / 2, parity=parity).points
    box = oriented_box(pts)
    # distance of each endpoint to the nearer edge, along each axis
    gaps = np.abs(np.abs(pts[[0, -1]] - box.center) - box.half)
    return bool((gaps.min(axis=1) <= 1e-9 * box.diagonal()).all())
