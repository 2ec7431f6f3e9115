"""The five-map iterated function system behind the curve family.

The maps are not hard-coded: they are recovered from the five-partite
self-similarity of the drawn curves.  A junction recursion propagates the
six five-partite junction points of f_m and l_m exactly to arbitrarily high
order.  One loop validates it against an actually drawn reference curve,
comparing each of the five parts' own junction points with the drawn
vertices; the similarity parameters are then fitted at a converged order
where the junction hexagons are similar to machine precision.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import turtle, words
from .errors import (
    DegenerateLandmarksError,
    DomainError,
    SelfSimilarityError,
)

CHORD_LENGTH = math.sqrt(2.0)
OSC_TOLERANCE = 1e-9  # how far images of V may reach out of V or overlap


@dataclass(frozen=True)
class Similarity:
    """Planar similarity z -> a * z + t, with optional x-axis mirror first.

    scale = |a|, rotation = arg(a); reflect conjugates the input before the
    rotation and scaling are applied.
    """

    scale: float
    rotation: float
    reflect: bool
    translation: tuple

    def _coeffs(self):
        a = self.scale * complex(math.cos(self.rotation), math.sin(self.rotation))
        t = complex(self.translation[0], self.translation[1])
        return a, t

    def _apply_complex(self, z: np.ndarray, out=None) -> np.ndarray:
        # numpy rounds a * z and z * a differently, and `a * np.conj(z)`
        # computes the second in place on the temporary; np.multiply(a, ...)
        # always computes the first, so `apply` and `attractor` agree to the bit
        a, t = self._coeffs()
        out = np.multiply(a, np.conj(z) if self.reflect else z, out=out)
        out += t
        return out

    def apply(self, pts) -> np.ndarray:
        """Transform an (N, 2) point array."""
        pts = np.asarray(pts, dtype=np.float64)
        out = self._apply_complex(pts[..., 0] + 1j * pts[..., 1])
        return np.stack([out.real, out.imag], axis=-1)


def _fit_complex(src: np.ndarray, dst: np.ndarray):
    """Centered least-squares similarity fit, trying both reflections.

    Centering keeps the normal equations well conditioned regardless of how
    far the landmark cloud sits from the origin.
    """
    zs = src[:, 0] + 1j * src[:, 1]
    zd = dst[:, 0] + 1j * dst[:, 1]
    ms, md = zs.mean(), zd.mean()
    zdc = zd - md
    best = None
    for refl in (False, True):
        zc = np.conj(zs - ms) if refl else (zs - ms)
        denom = float(np.vdot(zc, zc).real)
        if denom == 0.0:
            raise DegenerateLandmarksError("all source landmarks coincide")
        a = complex(np.vdot(zc, zdc)) / denom
        t = md - a * (np.conj(ms) if refl else ms)
        rms = float(np.sqrt(np.mean(np.abs(a * zc - zdc) ** 2)))
        if best is None or rms < best[3]:
            best = (a, t, refl, rms)
    a, t, refl, rms = best
    # finite landmarks far apart can overflow their centered squares
    if not np.isfinite([a, t, rms]).all():
        raise DomainError("the similarity fit overflows: a = %r, t = %r, rms = %r"
                          % (a, t, rms))
    sim = Similarity(
        scale=abs(a),
        rotation=math.atan2(a.imag, a.real),
        reflect=refl,
        translation=(t.real, t.imag),
    )
    return sim, rms


def fit_similarity(src, dst):
    """Least-squares similarity carrying src landmarks onto dst landmarks.

    Tries reflect = False and True and keeps the smaller RMS residual.
    Returns (Similarity, residual).  Collinear landmark sets leave the
    reflection undetermined and are rejected.
    """
    src = turtle._as_points(src, "src")
    dst = turtle._as_points(dst, "dst")
    if src.shape != dst.shape:
        raise DomainError("src and dst must hold the same number of landmarks")
    if src.shape[0] < 3:
        raise DomainError("need at least 3 landmarks, got %d" % src.shape[0])
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    if sv[0] == 0.0 or sv[1] <= 1e-9 * sv[0]:
        raise DegenerateLandmarksError("source landmarks are collinear")
    return _fit_complex(src, dst)


def _rot(t: float) -> np.ndarray:
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


_MIRROR = np.array([[-1.0, 0.0], [0.0, 1.0]])


class _Skeleton:
    """Exact chord and junction-hexagon recursion for drawings of f_m and l_m.

    The f-seeds for 7 <= m <= 12 are read off the reference drawing, which
    has every f_m as a prefix; higher orders follow from the five-partite
    assembly.  At every order, l_m (f_m with its last two symbols swapped)
    takes its chord and turn count from f_m's.  A part starting at an odd
    symbol offset sees the position parity flipped, which mirrors its
    drawing across the initial heading axis and negates its turn count; the
    bookkeeping here carries both effects exactly.  The junction hexagon of
    l_m is that of f_m with its last point moved to l_m's endpoint.
    """

    def __init__(self, i, alpha, parity, m_max, bits, drawn):
        self.alpha = alpha
        self.sgn = 1 if parity == "even-left" else -1
        # exact ints, past int64 too: only the parities of offsets are used
        self.L = [0, *itertools.islice(words._length_terms(i), m_max)]
        self.vl = {}  # chord vector of the l_m drawing
        self.K = {}  # net turn count of f_m
        self.Kl = {}
        self.H = {}  # six-point junction hexagons of f_m; H[m][-1] is its chord
        # the assembly of f_13 reads orders 10 and 7, the lowest any reads
        signs = turtle._turn_signs(bits[: self.L[12]], parity)
        for m in range(7, 13):
            self.K[m] = int(signs[: self.L[m]].sum(dtype=np.int64))
            self.H[m] = drawn[self.cuts(m)]
            self._swap_last_two(m)
        for m in range(13, m_max + 1):
            _, junctions, self.K[m] = self._walk(m)
            self.H[m] = np.array(junctions)
            self._swap_last_two(m)

    def cuts(self, m):
        """Symbol offsets of f_m's five part starts and its end, exact ints."""
        return words._part_offsets(self.L, m)

    def _walk(self, m):
        """Part frames, the six junctions and the net turn of f_m's assembly."""
        turn = 0
        junctions = [np.zeros(2)]
        frames = []
        for start, (back, is_l) in zip(self.cuts(m), words._PARTS):
            sub = m - back
            flip = start % 2 == 1
            vsub = self.vl[sub] if is_l else self.H[sub][-1]
            ksub = self.Kl[sub] if is_l else self.K[sub]
            frames.append(_rot(turn * self.alpha) @ (_MIRROR if flip else np.eye(2)))
            junctions.append(junctions[-1] + frames[-1] @ vsub)
            turn = turn + (-ksub if flip else ksub)
        return frames, junctions, turn

    def _swap_last_two(self, m):
        """Chord and turn count of l_m from those of f_m."""
        a = self.alpha
        # l_m differs from f_m only in its last two symbols, so rebuild the
        # last two segments with the swapped symbols at the same positions;
        # a 0 turns by s at position |f_m| - 1 and by -s at |f_m|
        s = self.sgn if (self.L[m] - 1) % 2 == 0 else -self.sgn
        if words.last_two(m) == "01":
            kpre = self.K[m] - s
            last_f, last_l, self.Kl[m] = kpre + s, kpre, kpre - s
        else:
            kpre = self.K[m] + s
            last_f, last_l, self.Kl[m] = kpre, kpre + s, kpre + s

        def seg(count):
            t = math.pi / 2 + count * a
            return np.array([math.cos(t), math.sin(t)])

        # -seg(kpre) + seg(kpre) cancels only in exact arithmetic; the
        # derived maps, and the digests recorded of them, keep its rounding
        self.vl[m] = self.H[m][-1] - seg(last_f) - seg(kpre) + seg(kpre) + seg(last_l)

    def part_hexagons(self, m):
        """Whole-curve hexagon and the five parts' own junction hexagons."""
        frames, junctions, _ = self._walk(m)
        parts = []
        for k, (back, is_l) in enumerate(words._PARTS):
            hsub = self.H[m - back]
            if is_l:
                hsub = np.vstack([hsub[:-1], self.vl[m - back]])
            parts.append(junctions[k] + hsub @ frames[k].T)
        return self.H[m], parts


@dataclass(frozen=True)
class IFS:
    """Five similarity maps in the canonical frame, which seeds() fixes."""

    maps: tuple
    alpha: float
    parity: str  # "even" or "odd", the parity of the family index i
    chord_direction: float

    def seeds(self) -> np.ndarray:
        """Chord endpoints: the origin and CHORD_LENGTH along chord_direction."""
        e = CHORD_LENGTH * np.array(
            [math.cos(self.chord_direction), math.sin(self.chord_direction)]
        )
        return np.array([[0.0, 0.0], e])


def derive_ifs(i: int, alpha: float, *, parity: str = "even-left",
               draw_parity: str | None = None) -> IFS:
    """Recover the five maps from the self-similarity of the drawn curve.

    One loop validates the junction recursion against the one curve drawn,
    f at the reference order turtle.similar_order(i, 2): each part's own
    junction hexagon must match the drawn vertices to 1e-6 of the curve
    diameter, and part k starts at junction k, so the whole hexagon is
    checked too.  A disagreement raises SelfSimilarityError, which is what a
    mis-set turn parity triggers.  Drawing that curve with a draw_parity
    other than parity deliberately constructs that failure (negative
    control); below alpha of about 1e-5 the swap moves the curve by less
    than the tolerance.

    The similarity parameters are fitted on junction hexagons at the
    converged order turtle.similar_order(i, 24), where the hexagons are
    similar to machine precision.
    """
    turtle._check_alpha(alpha)
    ref, level = turtle.similar_order(i, 2), turtle.similar_order(i, 24)  # checks i
    draw_parity = parity if draw_parity is None else draw_parity
    bits = words.word_concat(i, ref).bits()
    drawn = turtle.draw(bits, alpha, parity=draw_parity).points
    sk = _Skeleton(i, alpha, parity, level, bits, drawn)

    # validate the recursion against the drawn reference curve
    tol = 1e-6 * math.hypot(*np.ptp(drawn, axis=0))
    cuts = sk.cuts(ref)
    _, ref_parts = sk.part_hexagons(ref)
    for k, (back, _) in enumerate(words._PARTS):
        gidx = [cuts[k] + c for c in sk.cuts(ref - back)]
        if np.max(np.abs(drawn[gidx] - ref_parts[k])) > tol:
            raise SelfSimilarityError(
                "five-partite sub-curve %d disagrees with the drawn curve at "
                "n=%d; check the drawing-rule parity configuration" % (k + 1, ref)
            )

    # fit the maps at the converged order in the canonical frame
    hexagon, parts = sk.part_hexagons(level)
    chord = sk.H[level][-1]
    scale = CHORD_LENGTH / math.hypot(*chord)
    src = hexagon * scale
    src_diam = math.hypot(*np.ptp(src, axis=0))
    maps = []
    for k, part in enumerate(parts):
        # the hexagons are collinear at small angles, where the fitted
        # in-line map is still well defined
        sim, rms = _fit_complex(src, part * scale)
        if rms > 1e-6 * src_diam:
            raise SelfSimilarityError(
                "similarity fit for part %d has residual %.3e (diameter %.3e)"
                % (k + 1, rms, src_diam)
            )
        maps.append(sim)
    direction = math.atan2(chord[1], chord[0])
    return IFS(
        maps=tuple(maps),
        alpha=alpha,
        parity="even" if i % 2 == 0 else "odd",
        chord_direction=direction,
    )


def attractor(ifs: IFS, depth: int) -> np.ndarray:
    """Deterministic iteration of the IFS from the two chord endpoints.

    V_0 is the canonical seed pair; each level replaces V with the five map
    images concatenated in map order, so depth d gives exactly 2 * 5^d points
    in canonical depth-first order with duplicates kept.
    """
    depth = words._as_int(depth, "depth", 0)
    z = ifs.seeds().view(np.complex128).ravel()  # (re, im) rows as x + iy
    for _ in range(depth):
        z = _images(ifs, z)
    return z.view(np.float64).reshape(-1, 2)


def _images(ifs: IFS, z: np.ndarray) -> np.ndarray:
    """F(z): the map images of the complex points z, concatenated in map order."""
    n = z.size
    images = np.empty(len(ifs.maps) * n, dtype=np.complex128)
    for k, m in enumerate(ifs.maps):
        m._apply_complex(z, out=images[k * n:(k + 1) * n])
    return images


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    """Convex hull vertices in counterclockwise order (monotone chain).

    Collinear boundary points are dropped.  Degenerate inputs return fewer
    than 3 vertices.  The scan is sequential Python, meant for the few dozen
    points of the attractor hull iteration.
    """
    pts = np.unique(np.asarray(pts, dtype=np.float64), axis=0)
    if pts.shape[0] <= 2:
        return pts

    def chain(seq):
        out = []
        for x, y in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (x - out[-2][0])
            ) <= 0.0:
                out.pop()
            out.append((x, y))
        return out

    seq = [(float(x), float(y)) for x, y in pts]
    lower = chain(seq)
    upper = chain(seq[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _attractor_hull(ifs: IFS) -> np.ndarray:
    """Convex hull of the attractor, the fixed point of K -> conv(K u f_k(K)).

    Starts from the chord seeds, which lie on the attractor, so every iterate
    stays inside the true hull.  Stops once each new vertex lies within
    1e-14 of the chord length of an old one; vertex positions are compared
    because round-off edges make the edge normals unreliable.  The derived
    systems converge in at most a few dozen steps; 200 steps without it
    raise DomainError.
    """
    hull = ifs.seeds()
    for _ in range(200):
        grown = _convex_hull(np.vstack([hull] + [m.apply(hull) for m in ifs.maps]))
        diff = grown[:, None, :] - hull[None, :, :]
        moved = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1).max()
        hull = grown
        if moved <= 1e-14 * CHORD_LENGTH:
            return hull
    raise DomainError("the attractor hull has not converged after 200 steps")


@dataclass(frozen=True)
class OSCReport:
    """Outcome of the open-set-condition check; diam is the hull's bounding-box diagonal."""

    contained: bool
    pairwise_disjoint: bool
    margin: float
    diam: float


def _width(poly: np.ndarray) -> float:
    """Smallest extent of a convex polygon over its own edge normals."""
    reach = poly @ turtle._edge_normals(poly).T
    return float((reach.max(axis=0) - reach.min(axis=0)).min())


def verify_osc(ifs: IFS) -> OSCReport:
    """Check the open set condition with V the interior of the attractor's hull.

    The hull is the fixed point of K -> conv(K u f_k(K)), built from the five
    maps themselves, so it contains its own five images: containment is
    measured as the largest excess of an image's support over the hull's
    support along the hull's edge normals, and interior disjointness as the
    separating-axis overlap between two images.  A pair counts as disjoint
    only if its overlap is at most min(OSC_TOLERANCE, 1e-3 of the narrower
    image's width): touching images overlap by round-off, a duplicated map
    by a whole width, so a thin attractor cannot hide a duplicate under the
    absolute tolerance.  A hull that is a segment, or no wider than
    OSC_TOLERANCE along some edge normal, cannot resolve an overlap; V is then
    the square with the chord as its diagonal, which each map carries to the
    square on its own sub-chord.
    margin is the slack left under OSC_TOLERANCE, with each overlap rescaled
    so that its limit maps onto OSC_TOLERANCE; positive margin means both
    checks passed.
    """
    V = _attractor_hull(ifs)
    diam = math.hypot(*np.ptp(V, axis=0))
    # a two-vertex hull has width 0 across its own edge
    if _width(V) <= OSC_TOLERANCE:
        s0, s1 = ifs.seeds()
        mid, half = (s0 + s1) / 2.0, (s1 - s0) / 2.0
        perp = np.array([-half[1], half[0]])
        V = np.array([s0, mid - perp, s1, mid + perp])
    normals = turtle._edge_normals(V)
    offsets = (V @ normals.T).max(axis=0)
    image_polys = [m.apply(V) for m in ifs.maps]
    widths = [_width(poly) for poly in image_polys]
    worst_violation = max(
        float(((poly @ normals.T) - offsets).max()) for poly in image_polys
    )
    worst_overlap = 0.0
    count = len(image_polys)
    for j in range(count):
        for k in range(j + 1, count):
            limit = min(OSC_TOLERANCE, 1e-3 * min(widths[j], widths[k]))
            overlap = turtle._polygon_overlap(image_polys[j], image_polys[k])
            overlap *= OSC_TOLERANCE / limit
            if overlap > worst_overlap:
                worst_overlap = overlap
    contained = worst_violation <= OSC_TOLERANCE
    disjoint = worst_overlap <= OSC_TOLERANCE
    margin = OSC_TOLERANCE - max(worst_violation, worst_overlap)
    return OSCReport(
        contained=contained,
        pairwise_disjoint=disjoint,
        margin=float(margin),
        diam=float(diam),
    )


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def to_json(ifs: IFS) -> str:
    """Serialize an IFS with 17 significant digits, byte-deterministic."""
    map_items = []
    for m in ifs.maps:
        map_items.append(
            '{"scale": %s, "rotation": %s, "reflect": %s, "tx": %s, "ty": %s}'
            % (
                _fmt(m.scale),
                _fmt(m.rotation),
                "true" if m.reflect else "false",
                _fmt(m.translation[0]),
                _fmt(m.translation[1]),
            )
        )
    return (
        '{"alpha": %s, "parity": "%s", "chord_direction": %s, "maps": [%s]}'
        % (_fmt(ifs.alpha), ifs.parity, _fmt(ifs.chord_direction),
           ", ".join(map_items))
    )


def _finite(v) -> float:
    # a JSON number parses to an int or a float; bool is an int subclass
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError("expected a number, got %r" % (v,))
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("non-finite number %r" % (v,))
    return v


def _map_from_json(m) -> Similarity:
    scale = _finite(m["scale"])
    if not 0.0 < scale < 1.0:
        raise ValueError("map scale must lie in (0, 1), got %r" % (scale,))
    if not isinstance(m["reflect"], bool):
        raise ValueError("reflect must be true or false, got %r" % (m["reflect"],))
    return Similarity(scale=scale, rotation=_finite(m["rotation"]),
                      reflect=m["reflect"],
                      translation=(_finite(m["tx"]), _finite(m["ty"])))


def from_json(text: str) -> IFS:
    """Rebuild an IFS from its JSON serialization.

    Malformed input raises DomainError: a missing key or a wrong type, a
    parity other than "even" or "odd", a non-finite number, an alpha outside
    [0, pi/2], a scale outside (0, 1), or other than five maps.
    """
    try:
        data = json.loads(text)
        if data["parity"] not in ("even", "odd"):
            raise ValueError('parity must be "even" or "odd", got %r'
                             % (data["parity"],))
        maps = tuple(_map_from_json(m) for m in data["maps"])
        if len(maps) != 5:
            raise ValueError("an IFS needs exactly five maps, got %d" % len(maps))
        alpha = _finite(data["alpha"])
        turtle._check_alpha(alpha)
        return IFS(
            maps=maps,
            alpha=alpha,
            parity=data["parity"],
            chord_direction=_finite(data["chord_direction"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError("malformed IFS JSON: %s" % (exc,)) from None
