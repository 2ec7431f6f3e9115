"""Hausdorff kernel exactness, box counting, and the collage distance."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fibfrac
from fibfrac import analysis, metrics
from fibfrac import ifs as ifsmod
from fibfrac.errors import DomainError

PI2 = math.pi / 2


def brute_directed(q, r):
    d2 = ((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1).max()))


def random_pair(rng, clustered):
    nq = int(rng.integers(2, 800))
    nr = int(rng.integers(2, 800))
    if clustered:
        centers = rng.normal(size=(4, 2)) * 10
        q = centers[rng.integers(0, 4, nq)] + rng.normal(size=(nq, 2)) * 0.01
        r = centers[rng.integers(0, 4, nr)] + rng.normal(size=(nr, 2)) * 0.01
    else:
        q = rng.uniform(-5, 5, size=(nq, 2))
        r = rng.uniform(-5, 5, size=(nr, 2))
    return q, r


def test_directed_matches_brute_force():
    rng = np.random.default_rng(17)
    for trial in range(30):
        q, r = random_pair(rng, clustered=trial % 3 == 0)
        assert metrics.directed_hausdorff(q, r) == pytest.approx(
            brute_directed(q, r), abs=1e-12
        )


def test_directed_matches_brute_force_second_seed():
    rng = np.random.default_rng(23)
    for trial in range(25):
        q, r = random_pair(rng, clustered=trial % 3 == 0)
        assert metrics.directed_hausdorff(q, r) == pytest.approx(
            brute_directed(q, r), abs=1e-12
        )


def test_subset_distance_is_zero():
    rng = np.random.default_rng(29)
    r = rng.uniform(-2, 2, size=(6000, 2))
    assert metrics.directed_hausdorff(r[::3], r) == 0.0


def test_metric_axioms():
    rng = np.random.default_rng(31)
    for _ in range(15):
        a = rng.uniform(-3, 3, size=(int(rng.integers(2, 300)), 2))
        b = rng.uniform(-3, 3, size=(int(rng.integers(2, 300)), 2))
        c = rng.uniform(-3, 3, size=(int(rng.integers(2, 300)), 2))
        dab = metrics.hausdorff_distance(a, b)
        assert metrics.hausdorff_distance(a, a) == 0.0
        assert metrics.hausdorff_distance(b, a) == dab
        assert dab <= (metrics.hausdorff_distance(a, c)
                       + metrics.hausdorff_distance(c, b) + 1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(37)
    a = rng.uniform(size=(150, 2))
    b = rng.uniform(size=(130, 2))
    t = np.array([13.7, -4.2])
    assert metrics.hausdorff_distance(a + t, b + t) == pytest.approx(
        metrics.hausdorff_distance(a, b), abs=1e-9
    )


def test_pointset_validation():
    ok = np.zeros((3, 2))
    with pytest.raises(DomainError):
        metrics.directed_hausdorff(np.zeros((0, 2)), ok)
    with pytest.raises(DomainError):
        metrics.directed_hausdorff(np.zeros((3, 3)), ok)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    # unchecked, a NaN drops out of the max and reads as distance 0.0
    ok = [[0.0, 0.0], [1.0, 0.0]]
    broken = [[bad, 0.0], [1.0, 0.0]]
    with pytest.raises(DomainError):
        metrics.hausdorff_distance(ok, broken)
    with pytest.raises(DomainError):
        metrics.hausdorff_distance(broken, ok)
    with pytest.raises(DomainError):
        metrics.directed_hausdorff(broken, ok)
    with pytest.raises(DomainError):
        metrics.box_counting_dimension(broken, eps_max=0.5, eps_min=0.01, levels=5)


def test_overflowing_distance_rejected():
    # finite points 2e308 apart: their distance is not a float
    left, right = [[-1e308, 0.0]], [[1e308, 0.0]]
    with pytest.raises(DomainError):
        metrics.hausdorff_distance(left, right)
    with pytest.raises(DomainError):
        metrics.directed_hausdorff(left, right)


def test_import_does_not_load_scipy():
    # scipy is imported by the Hausdorff kernel on first use, not at import
    src = os.path.dirname(os.path.dirname(fibfrac.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, fibfrac.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


COORDS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def pointsets(draw):
    """Small 2D point sets: general, duplicates, runs, lattices, collinear sets.

    "runs" repeats each row 1-4 times in a row and then appends rows drawn
    from the set, so a point repeats both next to itself and far from it.
    """
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["general", "duplicates", "runs", "lattice",
                                 "collinear"]))
    if kind == "collinear":
        origin = draw(hnp.arrays(np.float64, 2, elements=COORDS))
        direction = draw(hnp.arrays(np.float64, 2, elements=COORDS))
        t = draw(hnp.arrays(np.float64, n, elements=st.floats(-2.0, 2.0)))
        return origin + t[:, None] * direction
    if kind == "lattice":
        return draw(hnp.arrays(np.float64, (n, 2),
                               elements=st.integers(-3, 3).map(float)))
    pts = draw(hnp.arrays(np.float64, (n, 2), elements=COORDS))
    if kind == "duplicates":
        idx = draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))
        pts = pts[idx]
    if kind == "runs":
        reps = draw(hnp.arrays(np.intp, n, elements=st.integers(1, 4)))
        idx = draw(hnp.arrays(np.intp, draw(st.integers(0, n)),
                              elements=st.integers(0, n - 1)))
        pts = np.concatenate([np.repeat(pts, reps, axis=0), pts[idx]])
    return pts


def drop_repeats_reference(pts):
    keep = [j for j in range(len(pts)) if j == 0 or tuple(pts[j]) != tuple(pts[j - 1])]
    return pts[keep]


@settings(max_examples=300, deadline=None)
@given(pointsets())
@example(np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 1.0], [0.0, 1.0]]))
def test_drop_repeats_keeps_every_other_row(pts):
    # only a row equal to the row before it goes; a repeat further away stays
    got = metrics._drop_repeats(pts)
    assert np.array_equal(got, drop_repeats_reference(pts))
    if got.shape[0] == pts.shape[0]:
        assert got is pts  # nothing repeats: no copy


@settings(max_examples=300, deadline=None)
@given(pointsets(), pointsets())
@example(np.array([[1.0, 2.0]]), np.array([[-3.0, 0.5]]))
@example(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0], [1.0, 2.0]]))
@example(np.zeros((40, 2)), np.ones((1, 2)))
def test_directed_equals_brute_force_property(q, r):
    assert metrics.directed_hausdorff(q, r) == metrics._brute_directed(q, r)
    assert metrics.directed_hausdorff(q, q) == 0.0


@settings(max_examples=150, deadline=None)
@given(pointsets(), pointsets(), pointsets())
def test_hausdorff_metric_property(a, b, c):
    dab = metrics.hausdorff_distance(a, b)
    assert metrics.hausdorff_distance(a, a) == 0.0
    assert metrics.hausdorff_distance(b, a) == dab
    dac = metrics.hausdorff_distance(a, c)
    dcb = metrics.hausdorff_distance(c, b)
    assert dab <= (dac + dcb) * (1.0 + 1e-12)


def test_box_count_hand_values():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert metrics._box_count_offset(corners.T, 0.6, 0.0) == 4
    assert metrics._box_count_offset(corners.T, 1.1, 0.0) == 1
    assert metrics._box_count_offset(corners.T, 0.4, 0.0) == 4


def unique_box_count(rel, eps, frac):
    # the kernel's cell arithmetic, counted by sorting every key
    cells = np.floor((rel + frac * eps) / eps).astype(np.int64)
    span = cells[:, 1].max() + 1
    return np.unique(cells[:, 0] * span + cells[:, 1]).size, cells


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 200), st.booleans(), st.sampled_from([0.0, 0.25, 0.5, 0.75]),
       st.integers(0, 2**32 - 1), st.integers(0, 30))
def test_occupancy_count_equals_unique_count(n, sparse, frac, seed, extra):
    # the corners (0, 0) and (1, 1) fix the grid at about (g + 1)^2 cells;
    # g is picked below or above the 8 cells-per-point switch
    rng = np.random.default_rng(seed)
    rel = np.concatenate([[[0.0, 0.0], [1.0, 1.0]], rng.uniform(size=(n, 2))])
    root = math.isqrt(8 * rel.shape[0])
    g = root + 1 + extra if sparse else max(1, root - 2 - extra)
    eps = 1.0 / g
    want, cells = unique_box_count(rel, eps, frac)
    size = (cells[:, 0].max() + 1) * (cells[:, 1].max() + 1)
    assert (size > 8 * rel.shape[0]) == sparse
    assert metrics._box_count_offset(rel.T, eps, frac) == want


def test_repeated_points_leave_the_dimension_unchanged():
    # every point twice in a row: the grids count the same distinct points
    att = ifsmod.attractor(ifsmod.derive_ifs(2, PI2), depth=6)
    diam = math.hypot(*(att.max(axis=0) - att.min(axis=0)))
    ladder = dict(eps_max=diam / 8.0, eps_min=diam / 256.0, levels=6)
    want = metrics.box_counting_dimension(att, **ladder)
    got = metrics.box_counting_dimension(np.repeat(att, 2, axis=0), **ladder)
    assert (got.boxcount_s, got.fit_r2) == (want.boxcount_s, want.fit_r2)


def test_dimension_of_segment():
    seg = np.column_stack([np.linspace(0, 1, 20001), np.zeros(20001)])
    rep = metrics.box_counting_dimension(seg, eps_max=1 / 32, eps_min=1 / 1024,
                                         levels=8)
    assert rep.boxcount_s == pytest.approx(1.0, abs=0.02)
    assert rep.fit_r2 > 0.999


def test_dimension_of_filled_square():
    m = 512
    g = (np.arange(m) + 0.5) / m
    sq = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    rep = metrics.box_counting_dimension(sq, eps_max=math.sqrt(2) / 16,
                                         eps_min=math.sqrt(2) / 128, levels=6)
    assert rep.boxcount_s == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("i", range(2, 8))
def test_box_count_slope_matches_dimension_every_i(i):
    # the Moran ratios (R, R, R^2, R, R) do not depend on i, so neither does
    # s; the ladder and tolerances are verify --level full's
    att = ifsmod.attractor(ifsmod.derive_ifs(i, PI2), depth=8)
    diam = float(math.hypot(*(att.max(axis=0) - att.min(axis=0))))
    rep = metrics.box_counting_dimension(att, eps_max=diam / 8.0,
                                         eps_min=diam / 512.0, levels=7)
    assert rep.boxcount_s == pytest.approx(analysis.hausdorff_dimension(PI2), abs=0.1)
    assert rep.fit_r2 >= 0.98


def test_dimension_argument_validation():
    pts = np.zeros((10, 2))
    with pytest.raises(DomainError):  # no spread at all
        metrics.box_counting_dimension(pts, eps_max=0.5, eps_min=0.01, levels=5)
    seg = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
    for eps_max, eps_min in [(0.1, 0.2), (0.5, 0.0), (math.inf, 0.01),
                             (0.5, math.nan)]:
        with pytest.raises(DomainError):
            metrics.box_counting_dimension(seg, eps_max=eps_max, eps_min=eps_min,
                                           levels=5)
    with pytest.raises(DomainError):
        metrics.box_counting_dimension(seg, eps_max=0.5, eps_min=0.01, levels=3)


def test_box_count_grid_too_large_for_int64_keys_rejected():
    # at eps = 1 these grids have about 2^64 and 10^30 cells: the first key
    # wraps around int64 and counts 2 of 3 cells, the second cannot be cast
    for pts in ([[0, 0], [2**31, 0], [0, 2**33 - 1]], [[0, 0], [1e30, 0]]):
        with pytest.raises(DomainError):
            metrics.box_counting_dimension(np.array(pts, float), eps_max=2.0,
                                           eps_min=1.0, levels=5)
    with pytest.raises(DomainError), np.errstate(over="ignore"):
        metrics.box_counting_dimension(np.array([[-1e308, 0.0], [1e308, 1.0]]),
                                       eps_max=2.0, eps_min=1.0, levels=5)
    # just under 2^62 cells every level counts the 3 distinct cells
    near = np.array([[0, 0], [2**31 - 1, 0], [0, 2**30]], float)
    assert metrics._box_count_offset(near.T, 1.0, 0.75) == 3
    got = metrics.box_counting_dimension(near, eps_max=2.0, eps_min=1.0, levels=5)
    assert abs(got.boxcount_s) < 1e-12


def test_normalized_curve_scales_in_place():
    # the scaled curve is the drawn array itself: beyond it, drawing keeps
    # the symbols and their turns (4 bytes per symbol with the word)
    tracemalloc.start()
    try:
        pts = metrics._normalized_curve(2, 28, math.pi / 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pts.nbytes + 4 * (len(pts) - 1) + 2 * 2**20


def test_normalized_curve_frame():
    pts = metrics._normalized_curve(2, 11, PI2)
    assert pts[0] == pytest.approx([0.0, 0.0])
    assert math.hypot(*pts[-1]) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    mirrored = metrics._normalized_curve(2, 11, PI2, parity="odd-left")
    assert np.allclose(mirrored * [-1.0, 1.0], pts, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("i,n,alpha,parity", [
    (2, 5, PI2, "even-left"), (2, 11, PI2, "odd-left"), (3, 9, math.pi / 3, "even-left"),
    (4, 11, 0.0, "even-left"), (5, 9, 1e-3, "odd-left")])
def test_collage_distance_equals_brute_force(i, n, alpha, parity):
    system = ifsmod.derive_ifs(i, alpha, parity=parity)
    x = metrics._normalized_curve(i, n, alpha, parity=parity)
    fx = np.concatenate([m.apply(x) for m in system.maps])
    want = max(metrics._brute_directed(x, fx), metrics._brute_directed(fx, x))
    assert metrics.collage_distance(system, x) == want
    with pytest.raises(DomainError):
        metrics.collage_distance(system, np.zeros((0, 2)))


def _largest_scale(system):
    return max(m.scale for m in system.maps)


def test_collage_bracket_holds_against_a_fine_cloud():
    # c / (1 + R) <= d_H(X, A) <= c / (1 - R); the depth-8 cloud lies within
    # R^8 diam of A, so its distance to X may leave the bracket by that much
    system = ifsmod.derive_ifs(2, PI2)
    x = metrics._normalized_curve(2, 17, PI2)
    c, r = metrics.collage_distance(system, x), _largest_scale(system)
    att = ifsmod.attractor(system, depth=8)
    floor = r ** 8 * math.hypot(*np.ptp(att, axis=0))
    d = metrics.hausdorff_distance(x, att)
    assert c / (1.0 + r) - floor <= d <= c / (1.0 - r) + floor
    # the bracket, not the floor, decides: it is narrower than the distance
    assert floor < c / (1.0 + r) < d < c / (1.0 - r)


@pytest.mark.parametrize("alpha", [0.0, PI2])
def test_collage_distances_fall_by_r_squared(alpha):
    # n(k + 1) is two levels of the five-part split past n(k); straight
    # curves at alpha = 0 are distinct discrete sets and follow the same rate
    system = ifsmod.derive_ifs(2, alpha)
    c = [metrics.collage_distance(system, metrics._normalized_curve(2, n, alpha))
         for n in (11, 17, 23)]
    r2 = _largest_scale(system) ** 2
    assert [b / a / r2 for a, b in zip(c, c[1:])] == pytest.approx([1.0, 1.0], abs=0.05)


def test_continuity_probe_domain():
    # acceptance test 12's probe derives at alpha and alpha + delta: past
    # either end of [0, pi/2] the derivation refuses the angle
    with pytest.raises(DomainError):
        ifsmod.derive_ifs(2, PI2 + 0.01)
    with pytest.raises(DomainError):
        ifsmod.derive_ifs(2, -0.1)
