"""Point-set metric kernels: Hausdorff distance, box counting, collage distance.

The box-count dimension is the slope over a ladder of scales the caller
gives; the collage distance d_H(X, F(X)) brackets a set X's distance to the
attractor of F.  The kernels are exact, and they use structure their inputs
already have.

- Repeated points.  The attractor lists every junction point twice, in
  adjacent rows.  Neither a Hausdorff distance nor a box count depends on
  multiplicity, so each set first drops every row equal to the row before
  it; a set with no such row is used as it is, without a copy.
- Nearest neighbours.  Each directed Hausdorff distance builds one k-d tree
  over the reference set (scipy's cKDTree), takes one exact nearest-
  neighbour query per query point, and keeps the largest distance.  A tree
  over a set larger than the query set answers few queries, so it is built
  unbalanced and uncompacted, which halves the build.  Large query sets run
  on every core.
- Occupancy.  A box count marks each point's grid cell in a boolean array
  when the grid has at most 8 cells per point, and sorts the cell keys with
  np.unique otherwise.  Both count the same cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import turtle, words
from . import ifs as ifs_mod
from .errors import DomainError

# below about 10,000 queries a threaded cKDTree query is no faster than one
# thread on 2 cores; at 30,000 and more it takes about 0.65 of the time
_PARALLEL_QUERIES = 20_000
# a grid with at most this many cells per point is counted by occupancy
_OCCUPANCY_CELLS_PER_POINT = 8


def _drop_repeats(pts: np.ndarray) -> np.ndarray:
    """pts without each row equal to the row before it; pts itself if none is."""
    same = (pts[1:, 0] == pts[:-1, 0]) & (pts[1:, 1] == pts[:-1, 1])
    if not same.any():
        return pts
    return pts[np.concatenate(([True], ~same))]


def _distinct_pointset(pts, name: str) -> np.ndarray:
    arr = turtle._as_points(pts, name)
    if arr.shape[0] == 0:
        raise DomainError("%s must be non-empty" % name)
    return _drop_repeats(arr)


def _brute_directed(queries: np.ndarray, ref: np.ndarray) -> float:
    """Directed Hausdorff distance over every pair: the k-d tree's reference.

    dx*dx + dy*dy has the bits of the squared (block, ref, 2) difference
    tensor summed over its last axis, as numpy squares by x*x and sums two
    terms as x0 + x1; the two 2-D matrices hold no more than that tensor.
    """
    worst = 0.0
    block = max(4_000_000 // ref.shape[0], 1)
    for b0 in range(0, queries.shape[0], block):
        q = queries[b0:b0 + block]
        dx = q[:, 0, None] - ref[None, :, 0]
        dy = q[:, 1, None] - ref[None, :, 1]
        dx *= dx
        dy *= dy
        dx += dy
        worst = max(worst, float(dx.min(axis=1).max()))
    return math.sqrt(worst)


def _directed(queries: np.ndarray, ref: np.ndarray) -> float:
    from scipy.spatial import cKDTree  # deferred: keeps `import fibfrac` light

    balanced = ref.shape[0] <= queries.shape[0]
    tree = cKDTree(ref, balanced_tree=balanced, compact_nodes=balanced)
    workers = -1 if queries.shape[0] >= _PARALLEL_QUERIES else 1
    dist, _ = tree.query(queries, k=1, workers=workers)
    worst = float(dist.max())
    # finite points can lie too far apart for their distance to be finite
    if not math.isfinite(worst):
        raise DomainError("a Hausdorff distance overflows: %r" % (worst,))
    return worst


def directed_hausdorff(queries, ref) -> float:
    """Exact max over queries of the distance to the nearest ref point.

    One exact k-d tree nearest-neighbour query per distinct query point.
    """
    return _directed(_distinct_pointset(queries, "queries"),
                     _distinct_pointset(ref, "ref"))


def hausdorff_distance(a, b) -> float:
    """Standard Hausdorff distance: max of the two directed distances."""
    a = _distinct_pointset(a, "A")
    b = _distinct_pointset(b, "B")
    return max(_directed(a, b), _directed(b, a))


def _box_count_offset(rel: np.ndarray, eps: float, frac: float) -> int:
    """Occupied cells for points already anchored at their bounding-box corner.

    rel is (2, N): a contiguous row of x and one of y.  rel >= 0 and
    frac < 1 keep every grid index >= 0, so the row index needs no shift.  A
    grid of at most 8 cells per point is counted by marking cells, a larger
    one by sorting the cell keys.
    """
    cx, cy = np.floor((rel + frac * eps) / eps).astype(np.int64)
    span = int(cy.max()) + 1
    key = cx * span + cy
    size = (int(cx.max()) + 1) * span
    if size > _OCCUPANCY_CELLS_PER_POINT * key.size:
        return int(np.unique(key).size)
    occupied = np.zeros(size, dtype=bool)
    occupied[key] = True
    return int(np.count_nonzero(occupied))


@dataclass(frozen=True)
class DimensionReport:
    """Box-count dimension estimate and the quality of its log-log fit."""

    boxcount_s: float
    fit_r2: float


def box_counting_dimension(pts, eps_max: float, eps_min: float,
                           levels: int) -> DimensionReport:
    """Least-squares slope of log N(eps) against log(1/eps).

    The ladder has `levels` >= 5 scales, geometrically spaced from eps_max
    down to eps_min.  Counts are averaged over four grid offsets, a quarter
    box apart along the diagonal.
    """
    pts = _distinct_pointset(pts, "A")
    if not 0.0 < eps_min < eps_max < math.inf:
        raise DomainError("need a finite eps_max > eps_min > 0")
    levels = words._as_int(levels, "levels", 5)
    lo = pts.min(axis=0)
    ext = pts.max(axis=0) - lo
    if (ext == 0.0).all():
        raise DomainError("all points coincide; no scaling range")
    # _box_count_offset's grid at eps_min, where offset 0.75 reaches furthest:
    # its int64 cell key needs fewer than 2^62 cells
    top = [(e + 0.75 * eps_min) / eps_min for e in ext.tolist()]
    if not (math.isfinite(top[0] * top[1])
            and (math.floor(top[0]) + 1) * (math.floor(top[1]) + 1) < 2**62):
        raise DomainError("eps_min = %r gives 2^62 grid cells or more" % (eps_min,))
    scales = np.geomspace(eps_max, eps_min, levels)
    rel = np.ascontiguousarray((pts - lo).T)
    counts = [
        np.mean([_box_count_offset(rel, float(eps), f) for f in (0.0, 0.25, 0.5, 0.75)])
        for eps in scales
    ]
    x = np.log(1.0 / scales)
    y = np.log(np.asarray(counts))
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    yhat = design @ coef
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return DimensionReport(boxcount_s=float(coef[0]), fit_r2=r2)


def _normalized_curve(i: int, n: int, alpha: float,
                      parity: str = "even-left") -> np.ndarray:
    """Drawn curve rescaled so its chord has length sqrt(2) (orientation kept)."""
    pts = turtle.draw(words.word_concat(i, n), alpha, parity=parity).points
    chord = math.hypot(pts[-1, 0], pts[-1, 1])
    if chord > 0.0:
        pts *= ifs_mod.CHORD_LENGTH / chord  # the drawn array is our own
    return pts


def collage_distance(ifs, pts) -> float:
    """c = d_H(X, F(X)) for X = pts and F(X) the union of its map images.

    With R the largest map scale, X lies between c / (1 + R) and c / (1 - R)
    of the attractor in Hausdorff distance (the collage theorem).
    """
    pts = np.ascontiguousarray(turtle._as_points(pts, "pts"))
    images = ifs_mod._images(ifs, pts.view(np.complex128).ravel())
    return hausdorff_distance(pts, images.view(np.float64).reshape(-1, 2))
