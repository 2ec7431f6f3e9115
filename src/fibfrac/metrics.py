"""Point-set metric kernels: Hausdorff distance, box counting, probes.

Both kernels are exact, and both use structure their inputs already have.

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

from . import analysis, turtle, words
from . import ifs as ifs_mod
from .errors import DomainError

# below about 10,000 queries a threaded cKDTree query is no faster than one
# thread on 2 cores; at 30,000 and more it takes about 0.65 of the time
_PARALLEL_QUERIES = 20_000
# a grid with at most this many cells per point is counted by occupancy
_OCCUPANCY_CELLS_PER_POINT = 8


def _as_pointset(pts, name: str) -> np.ndarray:
    arr = turtle._as_points(pts, name)
    if arr.shape[0] == 0:
        raise DomainError("%s must be non-empty" % name)
    return arr


def _drop_repeats(pts: np.ndarray) -> np.ndarray:
    """pts without each row equal to the row before it; pts itself if none is."""
    same = (pts[1:, 0] == pts[:-1, 0]) & (pts[1:, 1] == pts[:-1, 1])
    if not same.any():
        return pts
    return pts[np.concatenate(([True], ~same))]


def _distinct_pointset(pts, name: str) -> np.ndarray:
    return _drop_repeats(_as_pointset(pts, name))


def _brute_directed(queries: np.ndarray, ref: np.ndarray) -> float:
    worst = 0.0
    block = max(4_000_000 // ref.shape[0], 1)
    for b0 in range(0, queries.shape[0], block):
        d2 = ((queries[b0:b0 + block, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(d2.min(axis=1).max()))
    return math.sqrt(worst)


def _directed(queries: np.ndarray, ref: np.ndarray) -> float:
    from scipy.spatial import cKDTree  # deferred: keeps `import fibfrac` light

    balanced = ref.shape[0] <= queries.shape[0]
    tree = cKDTree(ref, balanced_tree=balanced, compact_nodes=balanced)
    workers = -1 if queries.shape[0] >= _PARALLEL_QUERIES else 1
    dist, _ = tree.query(queries, k=1, workers=workers)
    return float(dist.max())


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

    rel >= 0 and frac < 1 keep every grid index >= 0, so the row index needs
    no shift.  A grid of at most 8 cells per point is counted by marking
    cells, a larger one by sorting the cell keys.
    """
    cells = np.floor((rel + frac * eps) / eps).astype(np.int64)
    span = int(cells[:, 1].max()) + 1
    key = cells[:, 0] * span + cells[:, 1]
    size = (int(cells[:, 0].max()) + 1) * span
    if size > _OCCUPANCY_CELLS_PER_POINT * key.size:
        return int(np.unique(key).size)
    occupied = np.zeros(size, dtype=bool)
    occupied[key] = True
    return int(np.count_nonzero(occupied))


def box_count(pts, eps: float) -> int:
    """Occupied cells of a side-eps grid anchored at the bounding-box corner."""
    pts = _as_pointset(pts, "A")
    if eps <= 0.0:
        raise DomainError("eps must be positive, got %r" % (eps,))
    return _box_count_offset(pts - pts.min(axis=0), eps, 0.0)


@dataclass(frozen=True)
class DimensionReport:
    """Box-count dimension estimate next to the analytic value."""

    analytic_s: float
    boxcount_s: float
    fit_r2: float
    scales_used: tuple
    counts: tuple


def box_counting_dimension(pts, eps_max: float | None = None,
                           eps_min: float | None = None, levels: int | None = None,
                           alpha: float | None = None) -> DimensionReport:
    """Least-squares slope of log N(eps) against log(1/eps).

    Scales are geometrically spaced.  By default eps_max is diameter/8 and
    the ladder descends by factors of sqrt(2) until cells average fewer than
    4 sample points, which guards against the sampling floor biasing the
    slope down.  Counts are averaged over four grid offsets, a quarter
    box apart along the diagonal.  Fewer than 5 usable levels is an error.
    The floor counts every given point, repeats included; the grids count
    the distinct ones.
    """
    pts = _as_pointset(pts, "A")
    n_given = pts.shape[0]
    pts = _drop_repeats(pts)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    diam = math.hypot(hi[0] - lo[0], hi[1] - lo[1])
    if diam == 0.0:
        raise DomainError("all points coincide; no scaling range")
    if eps_max is None:
        eps_max = diam / 8.0
    if not eps_max > 0.0 or (eps_min is not None and not 0.0 < eps_min < eps_max):
        raise DomainError("need eps_max > eps_min > 0")
    scales = []
    counts = []
    if eps_min is not None:
        if levels is None:
            levels = 12
        if levels < 5:
            raise DomainError("need at least 5 levels, got %d" % levels)
        ladder = np.geomspace(eps_max, eps_min, levels)
    else:
        ratio = math.sqrt(2.0)
        ladder = eps_max / ratio ** np.arange(0, 40)
    rel = pts - lo
    for eps in ladder:
        avg = np.mean(
            [_box_count_offset(rel, float(eps), f) for f in (0.0, 0.25, 0.5, 0.75)]
        )
        if eps_min is None and n_given / avg < 4.0:
            break  # sampling floor: cells no longer hold enough points
        scales.append(float(eps))
        counts.append(float(avg))
    if len(scales) < 5:
        raise DomainError(
            "only %d usable scale levels; need at least 5" % len(scales)
        )
    x = np.log(1.0 / np.asarray(scales))
    y = np.log(np.asarray(counts))
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    yhat = design @ coef
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    analytic = analysis.hausdorff_dimension(alpha) if alpha is not None else math.nan
    return DimensionReport(
        analytic_s=analytic,
        boxcount_s=float(coef[0]),
        fit_r2=r2,
        scales_used=tuple(scales),
        counts=tuple(counts),
    )


def _normalized_curve(i: int, n: int, alpha: float) -> np.ndarray:
    """Drawn curve rescaled so its chord has length sqrt(2) (orientation kept)."""
    pts = turtle.draw(words.word_concat(i, n), alpha).points
    chord = math.hypot(pts[-1, 0], pts[-1, 1])
    if chord > 0.0:
        pts = pts * (math.sqrt(2.0) / chord)
    return pts


@dataclass(frozen=True)
class ConvergenceReport:
    """Hausdorff distances between successive normalized curves."""

    orders: tuple
    distances: tuple
    rate: float


def convergence_report(i: int, alpha: float, k_list) -> ConvergenceReport:
    """d_H between the normalized curves of order n(k) and n(k) + 6.

    n(k) = 6k + 5 for even i and 6k + 3 for odd i.  Also fits a geometric
    decay rate to the distances (nan when a distance vanishes or only one
    k is given).
    """
    base = 5 if i % 2 == 0 else 3
    ks = tuple(int(k) for k in k_list)
    orders = tuple(6 * k + base for k in ks)
    dists = []
    for n in orders:
        a_pts = _normalized_curve(i, n, alpha)
        b_pts = _normalized_curve(i, n + 6, alpha)
        dists.append(hausdorff_distance(a_pts, b_pts))
    dists = tuple(dists)
    if len(dists) >= 2 and min(dists) > 0.0:
        xs = np.asarray(ks, dtype=np.float64)
        ys = np.log(np.asarray(dists))
        slope = np.polyfit(xs, ys, 1)[0]
        rate = float(math.exp(slope))
    else:
        rate = math.nan
    return ConvergenceReport(orders=orders, distances=dists, rate=rate)


def continuity_probe(i: int, alpha: float, delta: float, depth: int) -> float:
    """d_H between the attractors derived at alpha and alpha + delta."""
    if not 0.0 <= alpha <= math.pi / 2 or not 0.0 <= alpha + delta <= math.pi / 2:
        raise DomainError("alpha and alpha + delta must lie in [0, pi/2]")
    a_ifs = ifs_mod.derive_ifs(i, alpha)
    b_ifs = ifs_mod.derive_ifs(i, alpha + delta)
    a_pts = ifs_mod.attractor(a_ifs, depth=depth)
    b_pts = ifs_mod.attractor(b_ifs, depth=depth)
    return hausdorff_distance(a_pts, b_pts)
