"""Point-set metric kernels: Hausdorff distance, box counting, probes.

The Hausdorff kernel is exact: every query point takes one nearest-neighbour
query in a k-d tree over the reference set (scipy's cKDTree), and the
directed distance is the largest of those nearest distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, turtle, words
from . import ifs as ifs_mod
from .errors import DomainError


def _as_pointset(pts, name: str) -> np.ndarray:
    arr = turtle._as_points(pts, name)
    if arr.shape[0] == 0:
        raise DomainError("%s must be non-empty" % name)
    return arr


def _brute_directed(queries: np.ndarray, ref: np.ndarray) -> float:
    worst = 0.0
    block = max(4_000_000 // ref.shape[0], 1)
    for b0 in range(0, queries.shape[0], block):
        d2 = ((queries[b0:b0 + block, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
        worst = max(worst, float(d2.min(axis=1).max()))
    return math.sqrt(worst)


def directed_hausdorff(queries: np.ndarray, ref: np.ndarray) -> float:
    """Exact max over queries of the distance to the nearest ref point.

    One exact k-d tree nearest-neighbour query per point.
    """
    from scipy.spatial import cKDTree  # deferred: keeps `import fibfrac` light

    queries = _as_pointset(queries, "queries")
    ref = _as_pointset(ref, "ref")
    dist, _ = cKDTree(ref).query(queries, k=1)
    return float(dist.max())


def hausdorff_distance(a, b) -> float:
    """Standard Hausdorff distance: max of the two directed distances."""
    a = _as_pointset(a, "A")
    b = _as_pointset(b, "B")
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def _box_count_offset(rel: np.ndarray, eps: float, frac: float) -> int:
    """Occupied cells for points already anchored at their bounding-box corner.

    rel >= 0 and frac < 1 keep every grid index >= 0, so the row index needs
    no shift.
    """
    cells = np.floor((rel + frac * eps) / eps).astype(np.int64)
    span = cells[:, 1].max() + 1
    key = cells[:, 0] * span + cells[:, 1]
    return int(np.unique(key).size)


def box_count(pts, eps: float) -> int:
    """Occupied cells of a side-eps grid anchored at the bounding-box corner."""
    pts = _as_pointset(pts, "A")
    if eps <= 0.0:
        raise DomainError("eps must be positive, got %r" % (eps,))
    return _box_count_offset(pts - pts.min(axis=0), eps, 0.0)


@dataclass(frozen=True)
class DimensionReport:
    """Box-count dimension estimate next to the analytic value."""

    alpha: float
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
    """
    pts = _as_pointset(pts, "A")
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
        if eps_min is None and pts.shape[0] / avg < 4.0:
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
        alpha=alpha if alpha is not None else math.nan,
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
