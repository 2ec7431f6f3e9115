"""Acceptance gate: thirteen end-to-end checks with pinned tolerances.

Each test is one claim about the package as a whole, asserted with the
tolerance and the runtime budget it was designed against.  Run with -v to
get one pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from fibfrac import analysis, ifs as ifsmod, metrics, turtle, words

PI2 = math.pi / 2
FOUR_ALPHAS = (math.pi / 6, math.pi / 4, math.pi / 3, PI2)

WORD_TABLE = {
    (2, 1): "0",
    (2, 2): "01",
    (2, 3): "010",
    (2, 4): "01001",
    (2, 5): "01001010",
    (3, 1): "0",
    (3, 2): "001",
    (3, 3): "0010",
    (3, 4): "0010001",
    (3, 5): "00100010010",
}


def word_text(i, n):
    return words.word_concat(i, n).text()


def junction_hexagon(pts, i, n):
    """The six five-partite junction vertices of a drawn order-n curve."""
    fp = words.five_partite(i, n)
    idx = [a for a, _ in fp.parts] + [fp.parts[-1][1]]
    return pts[np.array(idx)]


def test_01_first_five_words_match_table():
    t0 = time.monotonic()
    for (i, n), want in sorted(WORD_TABLE.items()):
        assert word_text(i, n) == want, (i, n)
    assert time.monotonic() - t0 < 1.0


def test_02_substitution_equals_concatenation():
    t0 = time.monotonic()
    for i in range(2, 7):
        for n in range(1, 26):
            a = words.word_concat(i, n)
            b = words.word_by_substitution(i, n)
            assert np.array_equal(a.bits(), b.bits()), (i, n)
    assert time.monotonic() - t0 < 5.0


def test_03_five_partite_identity_and_no_11():
    t0 = time.monotonic()
    for i in range(2, 7):
        for n in range(7, 21):
            fp = words.five_partite(i, n)
            bits = fp.word.bits()
            assert not words.contains_11(bits), (i, n)
            pieces = [bits[a:b] for a, b in fp.parts]
            assert np.array_equal(np.concatenate(pieces), bits)
            f3 = words.word_concat(i, n - 3).bits()
            f6 = words.word_concat(i, n - 6).bits()
            l3 = words.l_word_bits(i, n - 3)
            assert np.array_equal(pieces[0], f3)
            assert np.array_equal(pieces[1], f3)
            assert np.array_equal(pieces[2], f6)
            assert np.array_equal(pieces[3], l3)
            assert np.array_equal(pieces[4], l3)
    assert time.monotonic() - t0 < 5.0


def test_04_curve_self_similarity_fits():
    t0 = time.monotonic()
    # every five-partite sub-curve of curve n is an exact similarity image
    # of the free-standing drawing of its own word
    for n in range(8, 21):
        whole = turtle.draw(words.word_concat(2, n), PI2)
        diam = math.hypot(*(whole.points.max(axis=0) - whole.points.min(axis=0)))
        polys, _ = turtle.subcurves(2, n, PI2)
        part_words = [
            words.word_concat(2, n - 3).bits(),
            words.word_concat(2, n - 3).bits(),
            words.word_concat(2, n - 6).bits(),
            words.l_word_bits(2, n - 3),
            words.l_word_bits(2, n - 3),
        ]
        for bits, poly in zip(part_words, polys):
            free = turtle.draw(bits, PI2).points
            _, rms = ifsmod.fit_similarity(free, poly.points)
            assert rms < 1e-9 * diam, n

    # the fitted expansion from one order to the next tends to 1 + sqrt(2):
    # finite-order junction fits close in on it, and the converged fit from
    # the map derivation (validated against the n = 17 drawing) hits it
    target = 1.0 + math.sqrt(2.0)
    errs = []
    for n in (13, 16, 20):
        a = turtle.draw(words.word_concat(2, n - 3), PI2).points
        b = turtle.draw(words.word_concat(2, n), PI2).points
        sim, _ = ifsmod.fit_similarity(junction_hexagon(a, 2, n - 3),
                                       junction_hexagon(b, 2, n))
        errs.append(abs(sim.scale - target))
    assert errs[0] > errs[1] > errs[2]
    system = ifsmod.derive_ifs(2, PI2)
    assert abs(1.0 / system.maps[0].scale - target) < 1e-6
    assert time.monotonic() - t0 < 30.0


def test_05_chord_ratio_converges_to_r_plus():
    t0 = time.monotonic()
    for alpha in FOUR_ALPHAS:
        r_plus = analysis.characteristic_roots(alpha)[0]
        w = {}
        for n in (16, 19, 22, 25, 28):
            p = turtle.draw(words.word_concat(2, n), alpha)
            w[n] = turtle.curve_stats(p).w
        errs = [abs(w[n] / w[n - 3] - r_plus) for n in (19, 22, 25, 28)]
        assert errs[0] > errs[1] > errs[2] > errs[3], alpha
        assert errs[-1] < 1e-6, alpha
    assert time.monotonic() - t0 < 60.0


def test_06_aspect_ratio_limit():
    t0 = time.monotonic()
    for alpha in FOUR_ALPHAS:
        st = turtle.curve_stats(turtle.draw(words.word_concat(2, 35), alpha))
        assert abs(st.aspect - analysis.aspect_limit(alpha)) < 1e-3, alpha
    assert abs(analysis.aspect_limit(PI2) - math.sqrt(2.0)) < 1e-12
    assert time.monotonic() - t0 < 120.0


def test_07_dimension_formula():
    for alpha in np.linspace(0.0, PI2, 1000):
        R = analysis.scaling_ratio(alpha)
        s = analysis.hausdorff_dimension(alpha)
        assert abs(4.0 * R**s + R ** (2.0 * s) - 1.0) < 1e-12
    assert analysis.hausdorff_dimension(0.0) == 1.0
    s_right = analysis.hausdorff_dimension(PI2)
    assert abs(s_right - 1.6379) < 1e-4
    assert s_right == pytest.approx(
        math.log(2.0 + math.sqrt(5.0)) / math.log(1.0 + math.sqrt(2.0)),
        rel=1e-15,
    )


def test_08_box_count_cross_check():
    t0 = time.monotonic()
    system = ifsmod.derive_ifs(2, PI2)
    att = ifsmod.attractor(system, depth=9)
    diam = float(math.hypot(*(att.max(axis=0) - att.min(axis=0))))
    rep = metrics.box_counting_dimension(att, eps_max=diam / 8,
                                         eps_min=diam / 1024, levels=8)
    assert abs(rep.boxcount_s - analysis.hausdorff_dimension(PI2)) < 0.05
    assert rep.fit_r2 > 0.99
    assert time.monotonic() - t0 < 60.0

    seg = np.column_stack([np.linspace(0.0, 1.0, 200001), np.zeros(200001)])
    rs = metrics.box_counting_dimension(seg, eps_max=1 / 32, eps_min=1 / 2896,
                                        levels=14)
    assert abs(rs.boxcount_s - 1.0) < 0.02

    m = 2048
    g = (np.arange(m) + 0.5) / m
    square = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    rq = metrics.box_counting_dimension(square, eps_max=math.sqrt(2) / 32,
                                        eps_min=math.sqrt(2) / 2048, levels=7)
    assert abs(rq.boxcount_s - 2.0) < 0.05


def test_09_fitted_scale_spectrum():
    for i in (2, 3):
        for k in range(0, 11):
            alpha = k * math.pi / 20
            R = analysis.scaling_ratio(alpha)
            system = ifsmod.derive_ifs(i, alpha)
            want = (R, R, R * R, R, R)
            err = max(abs(m.scale - s) for m, s in zip(system.maps, want))
            assert err < 1e-6, (i, k)


def test_10_open_set_condition():
    for i in (2, 3):
        for alpha in FOUR_ALPHAS:
            rep = ifsmod.verify_osc(ifsmod.derive_ifs(i, alpha))
            assert rep.contained and rep.pairwise_disjoint, (i, alpha)
    # negative control: duplicating a map destroys interior disjointness
    system = ifsmod.derive_ifs(2, PI2)
    m = system.maps
    broken = ifsmod.IFS(maps=(m[0], m[0], m[2], m[3], m[4]),
                        alpha=system.alpha, parity=system.parity,
                        chord_direction=system.chord_direction)
    assert not ifsmod.verify_osc(broken).pairwise_disjoint


def test_11_normalized_curves_approach_attractor():
    t0 = time.monotonic()
    system = ifsmod.derive_ifs(2, PI2)
    att = ifsmod.attractor(system, depth=9)
    diam = float(math.hypot(*(att.max(axis=0) - att.min(axis=0))))
    dists = []
    for k in range(1, 6):
        pts = metrics._normalized_curve(2, 6 * k + 5, PI2)
        dists.append(metrics.hausdorff_distance(pts, att))
    assert all(b < a for a, b in zip(dists, dists[1:])), dists
    assert dists[-1] < 0.02 * diam
    assert time.monotonic() - t0 < 120.0


def test_12_attractor_continuity_in_alpha():
    grid = [k * math.pi / 20 for k in range(1, 10)] + [PI2 - 0.01]
    for alpha in grid:
        # d_H between the depth-7 attractors derived at alpha and alpha + 0.01
        pts = ifsmod.attractor(ifsmod.derive_ifs(2, alpha), depth=7)
        near = ifsmod.attractor(ifsmod.derive_ifs(2, alpha + 0.01), depth=7)
        d = metrics.hausdorff_distance(pts, near)
        diam = float(math.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
        assert d < 0.05 * diam, alpha

    # toward alpha = 0 the attractor flattens onto its own chord segment
    seg_dists = []
    for alpha in (0.05, 0.02, 0.01):
        system = ifsmod.derive_ifs(2, alpha)
        pts = ifsmod.attractor(system, depth=7)
        s0, s1 = system.seeds()
        t = np.linspace(0.0, 1.0, 20001)[:, None]
        segment = s0 + t * (s1 - s0)
        seg_dists.append(metrics.hausdorff_distance(pts, segment))
    assert seg_dists[0] > seg_dists[1] > seg_dists[2]
    assert seg_dists[-1] < 0.003
    assert all(d < 0.02 for d in seg_dists)


def test_13_hausdorff_kernel_exact_and_metric():
    rng = np.random.default_rng(20240817)
    for trial in range(200):
        nq = int(rng.integers(2, 2001))
        nr = int(rng.integers(2, 2001))
        if trial % 4 == 0:
            centers = rng.normal(size=(3, 2)) * 8
            q = centers[rng.integers(0, 3, nq)] + rng.normal(size=(nq, 2)) * 0.05
            r = centers[rng.integers(0, 3, nr)] + rng.normal(size=(nr, 2)) * 0.05
        else:
            q = rng.uniform(-4, 4, size=(nq, 2))
            r = rng.uniform(-4, 4, size=(nr, 2))
        got = metrics.directed_hausdorff(q, r)
        d2 = ((q[:, None, :] - r[None, :, :]) ** 2).sum(axis=2)
        want = float(np.sqrt(d2.min(axis=1).max()))
        assert got == want, trial

    for _ in range(20):
        a = rng.uniform(-3, 3, size=(int(rng.integers(2, 200)), 2))
        b = rng.uniform(-3, 3, size=(int(rng.integers(2, 200)), 2))
        c = rng.uniform(-3, 3, size=(int(rng.integers(2, 200)), 2))
        assert metrics.hausdorff_distance(a, a) == 0.0
        assert (metrics.hausdorff_distance(a, b)
                == metrics.hausdorff_distance(b, a))
        assert (metrics.hausdorff_distance(a, b)
                <= metrics.hausdorff_distance(a, c)
                + metrics.hausdorff_distance(c, b) + 1e-12)
