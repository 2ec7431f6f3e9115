"""Drawing rule, curve statistics, and the five-partite box geometry."""

import hashlib
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibfrac import analysis, ifs as ifsmod, turtle, words
from fibfrac.errors import DomainError

PI2 = math.pi / 2


def pts(w, alpha, **kw):
    return turtle.draw(w, alpha, **kw).points


# hand-traced drawings at alpha = pi/2: start at the origin heading up,
# draw one unit per symbol, then turn right on odd positions / left on
# even positions after a 0, keep going after a 1
def test_single_zero():
    p = turtle.draw("0", PI2)
    assert np.allclose(p.points, [[0, 0], [0, 1]])
    assert p.turn_count == -1
    assert p.final_heading == PI2 + -1 * PI2


def test_word_01_traces_unit_corner():
    p = turtle.draw("01", PI2)
    assert np.allclose(p.points, [[0, 0], [0, 1], [1, 1]])
    assert p.turn_count == -1


def test_word_010():
    p = turtle.draw("010", PI2)
    assert np.allclose(p.points, [[0, 0], [0, 1], [1, 1], [2, 1]])
    assert p.turn_count == -2
    assert p.final_heading == PI2 - 2 * PI2


def test_odd_left_mirrors_x():
    a = pts("01001", 0.7)
    b = pts("01001", 0.7, parity="odd-left")
    assert np.allclose(b[:, 0], -a[:, 0])
    assert np.allclose(b[:, 1], a[:, 1])


def test_unit_scales_linearly():
    a = pts(words.word_concat(2, 8), 0.9)
    b = pts(words.word_concat(2, 8), 0.9, unit=2.5)
    assert np.allclose(b, 2.5 * a)


def test_alpha_zero_collinear():
    w = words.word_concat(2, 9)
    p = turtle.draw(w, 0.0)
    assert np.allclose(p.points[:, 0], 0.0)
    assert np.allclose(p.points[:, 1], np.arange(len(w) + 1))


@pytest.mark.parametrize("i,n", [(2, 10), (3, 9), (4, 8)])
def test_vertex_count(i, n):
    p = turtle.draw(words.word_concat(i, n), 1.1)
    assert len(p) == words.fib_length(i, n) + 1


def test_heading_is_exact_multiple():
    # headings are tracked as integer turn counts, so the identity is exact
    for n in range(2, 14):
        w = words.word_concat(2, n)
        p = turtle.draw(w, 0.37)
        assert p.turn_count == turtle.turn_count(w)
        assert p.final_heading == turtle.INITIAL_HEADING + p.turn_count * 0.37


def direct_draw(bits, alpha, unit, parity):
    # one cos and sin per symbol, with the heading index counted from scratch
    j = np.arange(1, bits.size + 1)
    left = (j % 2 == 0) == (parity == "even-left")
    turn = np.where(bits == 0, np.where(left, 1, -1), 0)
    heading = math.pi / 2 + alpha * (np.cumsum(turn) - turn)
    pts = np.zeros((bits.size + 1, 2))
    pts[1:, 0] = np.cumsum(unit * np.cos(heading))
    pts[1:, 1] = np.cumsum(unit * np.sin(heading))
    return pts, int(turn.sum())


# long runs of "01" or "10" put every 0 on one parity, so the heading index
# drifts far from 0; runs of "0" alternate left and right turns
RUNS = st.lists(st.tuples(st.sampled_from(["0", "1", "01", "10"]),
                          st.integers(1, 400)), max_size=12)


def same_bits(a, b):
    # np.array_equal counts -0.0 and 0.0 as equal
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def whole_array_stats(pts):
    # curve_stats' formula applied to the whole array at once
    chord = pts[-1] - pts[0]
    w = float(math.hypot(chord[0], chord[1]))
    if w > 0.0:
        ux, uy = chord[0] / w, chord[1] / w
        eta = (pts[:, 0] - pts[0, 0]) * (-uy) + (pts[:, 1] - pts[0, 1]) * ux
        h = float(eta.max() - eta.min())
    else:
        h = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
    aspect = math.inf if h < 1e-12 * w or h == 0.0 else w / h
    return w, h, aspect


def check_against_reference(bits, alpha, unit, parity):
    want, k_total = direct_draw(bits, alpha, unit, parity)
    p = turtle.draw(bits, alpha, unit=unit, parity=parity)
    assert same_bits(p.points, want)
    assert p.turn_count == k_total
    if bits.size:
        st_ = turtle.curve_stats(p)
        assert (st_.w, st_.h, st_.aspect) == whole_array_stats(want)


@settings(max_examples=150, deadline=None)
@given(RUNS, st.floats(0.0, math.pi / 2), st.floats(0.01, 100.0),
       st.sampled_from(turtle.PARITIES))
def test_draw_equals_direct_formula_property(runs, alpha, unit, parity):
    bits = words.as_bits("".join(piece * count for piece, count in runs))
    check_against_reference(bits, alpha, unit, parity)


# short words, so that blocks of one symbol stay cheap
SHORT_RUNS = st.lists(st.tuples(st.sampled_from(["0", "1", "01", "10"]),
                                st.integers(1, 40)), max_size=8)


@settings(max_examples=150, deadline=None)
@given(SHORT_RUNS, st.sampled_from([1, 2, 3, 64]), st.floats(0.0, math.pi / 2),
       st.floats(0.01, 100.0), st.sampled_from(turtle.PARITIES))
def test_blocks_match_whole_array_property(runs, block, alpha, unit, parity):
    bits = words.as_bits("".join(piece * count for piece, count in runs))
    with mock.patch.object(turtle, "_BLOCK", block):
        check_against_reference(bits, alpha, unit, parity)


@pytest.mark.parametrize("extra", [-1, 0, 1, turtle._BLOCK + 1])
def test_blocks_match_whole_array_at_block_edges(extra):
    bits = words.word_concat(2, 26).bits()[: turtle._BLOCK + extra]
    for parity in turtle.PARITIES:
        check_against_reference(bits, 1.1, 1.0, parity)


@pytest.mark.parametrize("n", [25, 30])
def test_draw_and_stats_temporaries_have_fixed_size(n):
    # beyond the vertices, draw keeps the symbols and their turns (2 bytes
    # per symbol); every other temporary of draw and curve_stats is one block
    w = words.word_concat(2, n)
    tracemalloc.start()
    try:
        p = turtle.draw(w, math.pi / 3)
        draw_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        turtle.curve_stats(p)
        stats_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert draw_peak <= p.points.nbytes + 4 * len(w) + 2 * 2**20
    assert stats_peak < 4 * 2**20


# SHA-256 of draw(word_concat(2, 29), alpha).points.tobytes(): 832,041
# vertices in 13 blocks, on the many-block path of acceptance tests 06 and 11
DRAW_DIGESTS_29 = [
    ("even-left", 0.0,
     "1b2c6d0f008936f020ff84759b6869cb494dacee085cc32dead2bfb8e2bf1513"),
    ("even-left", math.pi / 6,
     "ad77aca636b84b216ac770c0687e9c19255290eb3667dd18628c3e4f3751eac2"),
    ("even-left", math.pi / 4,
     "a300b1e8f9a71a09cbce5629cd11e10d500f5a491a60b390edef7ea69f918006"),
    ("even-left", math.pi / 3,
     "9602205705b09df3fed8bf2102662aa08f9225dfbf72843c23a4d92d70910ca9"),
    ("even-left", PI2,
     "afc74b01fd95e7f00cb6710f08537790349689e98da20baac8a616016ba85b63"),
    ("odd-left", 0.0,
     "1b2c6d0f008936f020ff84759b6869cb494dacee085cc32dead2bfb8e2bf1513"),
    ("odd-left", math.pi / 6,
     "1d530dfe266132dbf2168d9b48e045428aa2566be41dd202d7118241bdc5d102"),
    ("odd-left", math.pi / 4,
     "d2a4b59865ebd68a96ebb4149cc63aee3927d49c76ef4debeac71618c7e71cf0"),
    ("odd-left", math.pi / 3,
     "d590340c697169d8037663cae5223b84d37c9ef7663fb6eb14428d829598bded"),
    ("odd-left", PI2,
     "2437865f3718b982f3bdcf506e9cbffa554f2805c90327d0df76f704d4f70980"),
]


@pytest.mark.parametrize("parity,alpha,digest", DRAW_DIGESTS_29)
def test_draw_bytes_at_scale(parity, alpha, digest):
    p = turtle.draw(words.word_concat(2, 29), alpha, parity=parity)
    assert hashlib.sha256(p.points.tobytes()).hexdigest() == digest


def test_bad_arguments():
    with pytest.raises(DomainError):
        turtle.draw("010", -0.1)
    with pytest.raises(DomainError):
        turtle.draw("010", math.pi / 2 + 0.1)
    with pytest.raises(DomainError):
        turtle.draw("010", 1.0, unit=0.0)
    with pytest.raises(DomainError):
        turtle.draw("010", 1.0, parity="sideways")
    with pytest.raises(DomainError):  # once cast to [0, 1, 0] and drawn
        turtle.draw([0.5, 1.7, 0.2], math.pi / 2)
    with pytest.raises(DomainError):  # an empty word checks its parity too
        turtle.turn_count("", parity="sideways")


@pytest.mark.parametrize("alpha", [True, "0.5", None, 1j, [0.5], np.array([0.1, 0.2])],
                         ids=["bool", "str", "none", "complex", "list", "array"])
def test_angle_of_the_wrong_type_rejected(alpha):
    # True would pass as 1 rad; the rest would leak TypeError or a bare ValueError
    for use in (lambda a: turtle.draw("010", a), analysis.characteristic_roots,
                lambda a: ifsmod.derive_ifs(2, a)):
        with pytest.raises(DomainError):
            use(alpha)


def test_integer_and_numpy_angles_accepted():
    for alpha in (1, np.int64(1), np.float32(0.5), np.float64(0.5)):
        roots = analysis.characteristic_roots(alpha)
        assert roots == analysis.characteristic_roots(float(alpha))
        drawn = turtle.draw("010", alpha).points
        assert np.array_equal(drawn, turtle.draw("010", float(alpha)).points)


def test_unit_that_overflows_the_coordinates_rejected():
    w = words.word_concat(2, 12)  # 233 segments
    with pytest.raises(DomainError):
        turtle.draw(w, PI2, unit=1e308)
    # just under the bound the points and their stats stay finite
    with np.errstate(over="raise", invalid="raise"):
        p = turtle.draw(w, PI2, unit=0.999 * sys.float_info.max / 4 / len(w))
        st_ = turtle.curve_stats(p)
    assert np.isfinite(p.points).all()
    assert math.isfinite(st_.w) and math.isfinite(st_.h)


def test_subnormal_unit_rejected():
    # subnormal steps keep too few bits: at 5e-324 the aspect of f_12 read
    # 4.14 against 2.85
    w = words.word_concat(2, 12)
    for unit in (5e-324, 1e-310):
        with pytest.raises(DomainError):
            turtle.draw(w, 1.0, unit=unit)
    # the smallest normal unit still measures the curve's true aspect
    aspect = turtle.curve_stats(turtle.draw(w, 1.0, unit=sys.float_info.min)).aspect
    assert aspect == pytest.approx(turtle.curve_stats(turtle.draw(w, 1.0)).aspect,
                                   rel=1e-12)


@pytest.mark.parametrize("points", [
    [[-1e308, 0.0], [1e308, 0.0]],  # the chord overflows
    [[0.0, -1e308], [0.0, 1e308], [1.0, -1e308]],  # the height overflows
    [[0.0, -1e308], [0.0, 1e308], [0.0, -1e308]],  # closed curve, w = 0
])
def test_curve_stats_rejects_overflowing_extents(points):
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        turtle.curve_stats(points)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_input_rejected(bad):
    with pytest.raises(DomainError):
        turtle.draw("010", 1.0, unit=bad)
    cloud = np.array([[0.0, 0.0], [1.0, bad], [2.0, 0.0]])
    with pytest.raises(DomainError):
        turtle.curve_stats(cloud)
    with pytest.raises(DomainError):
        turtle.oriented_box(cloud)
    with pytest.raises(DomainError):
        turtle.oriented_box(cloud[::2], frame_angle=bad)
    with pytest.raises(DomainError):
        turtle.oriented_box(cloud[::2], frame_angle=-bad)
    finite = dict(center=np.zeros(2), axis=np.array([1.0, 0.0]), half=(1.0, 1.0))
    for field, value in [("center", np.array([0.0, bad])), ("axis", np.array([bad, 0.0])),
                         ("half", (bad, 1.0))]:
        with pytest.raises(DomainError):
            turtle.boxes_disjoint([turtle.OrientedBox(**{**finite, field: value})])
    with pytest.raises(DomainError), np.errstate(over="ignore", invalid="ignore"):
        turtle.oriented_box([[-1e308, 0.0], [1e308, 0.0]])  # extents overflow


def test_stats_reference_triangle():
    # the corner [(0,0),(0,1),(1,1)] has chord sqrt(2) and height sqrt(2)/2
    s = turtle.curve_stats(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    assert s.w == pytest.approx(math.sqrt(2.0))
    assert s.h == pytest.approx(math.sqrt(2.0) / 2.0)
    assert s.aspect == pytest.approx(2.0)


def test_stats_height_spans_both_sides():
    # h is the full spread of perpendicular offsets, not the one-sided max
    zig = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0], [3.0, 0.0]])
    s = turtle.curve_stats(zig)
    assert s.w == pytest.approx(3.0)
    assert s.h == pytest.approx(2.0)


def test_stats_flat_curve_infinite_aspect():
    s = turtle.curve_stats(turtle.draw(words.word_concat(2, 7), 0.0))
    assert s.h == pytest.approx(0.0)
    assert s.aspect == math.inf


def test_stats_needs_two_points():
    with pytest.raises(DomainError):
        turtle.curve_stats(np.array([[1.0, 2.0]]))


def test_oriented_box_axis_aligned():
    cloud = np.array([[0.0, 0.0], [2.0, 1.0], [1.0, 3.0]])
    box = turtle.oriented_box(cloud, frame_angle=0.0)
    assert np.allclose(box.center, [1.0, 1.5])
    assert box.half == pytest.approx((1.0, 1.5))
    corners = box.corners()
    assert corners.min(axis=0) == pytest.approx([0.0, 0.0])
    assert corners.max(axis=0) == pytest.approx([2.0, 3.0])


def test_oriented_box_rotated_frame():
    rng = np.random.default_rng(3)
    cloud = rng.uniform(-1, 1, size=(40, 2))
    theta = 0.6
    box = turtle.oriented_box(cloud, frame_angle=theta)
    u = box.axis
    v = np.array([-u[1], u[0]])
    assert np.allclose(u, [math.cos(theta), math.sin(theta)])
    rel = cloud - box.center
    assert np.all(np.abs(rel @ u) <= box.half[0] + 1e-12)
    assert np.all(np.abs(rel @ v) <= box.half[1] + 1e-12)


def whole_array_box(cloud, theta):
    # oriented_box's extents taken over the whole array at once
    u = np.array([math.cos(theta), math.sin(theta)])
    rel = cloud - cloud[0]
    return [(float(t.min()), float(t.max())) for t in (rel @ u, rel @ [-u[1], u[0]])]


@pytest.mark.parametrize("block", [1, 3, 64])
def test_oriented_box_blocks_match_whole_array(block):
    rng = np.random.default_rng(block)
    cloud = np.concatenate([rng.uniform(-5, 5, size=(200, 2)),
                            pts(words.word_concat(2, 11), 1.1)])
    for theta in (0.0, 0.6, PI2, 2.5):
        with mock.patch.object(turtle, "_BLOCK", block):
            box = turtle.oriented_box(cloud, frame_angle=theta)
        (xi_lo, xi_hi), (eta_lo, eta_hi) = whole_array_box(cloud, theta)
        u = box.axis
        v = np.array([-u[1], u[0]])
        want_center = cloud[0] + u * (xi_lo + xi_hi) / 2 + v * (eta_lo + eta_hi) / 2
        scale = np.abs(cloud).max()
        assert np.abs(box.center - want_center).max() <= 1e-12 * scale
        assert np.abs(np.subtract(box.half, [(xi_hi - xi_lo) / 2,
                                             (eta_hi - eta_lo) / 2])).max() <= 1e-12 * scale


def test_oriented_box_temporaries_have_fixed_size():
    cloud = pts(words.word_concat(2, 29), PI2)
    tracemalloc.start()
    try:
        turtle.oriented_box(cloud, frame_angle=0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("i,n", [(2, 10), (3, 11), (5, 9)])
def test_subcurves_share_junctions(i, n):
    polys, boxes = turtle.subcurves(i, n, 0.8)
    assert len(polys) == 5 and len(boxes) == 5
    whole = pts(words.word_concat(i, n), 0.8)
    lens = [words.fib_length(i, m) for m in (n - 3, n - 3, n - 6, n - 3, n - 3)]
    assert [len(p) for p in polys] == [m + 1 for m in lens]
    for a, b in zip(polys, polys[1:]):
        assert np.array_equal(a.points[-1], b.points[0])
    glued = np.vstack([polys[0].points] + [p.points[1:] for p in polys[1:]])
    assert np.array_equal(glued, whole)


def test_subcurve_boxes_contain_their_parts():
    polys, boxes = turtle.subcurves(2, 11, 1.2)
    for p, box in zip(polys, boxes):
        u = box.axis
        v = np.array([-u[1], u[0]])
        rel = p.points - box.center
        assert np.all(np.abs(rel @ u) <= box.half[0] + 1e-9)
        assert np.all(np.abs(rel @ v) <= box.half[1] + 1e-9)


@pytest.mark.parametrize("i,n,alpha", [(2, 11, 1.0), (3, 12, 0.7), (2, 17, PI2)])
def test_subcurves_turn_metadata(i, n, alpha):
    polys, _ = turtle.subcurves(i, n, alpha)
    whole = turtle.draw(words.word_concat(i, n), alpha)
    assert sum(p.turn_count for p in polys) == whole.turn_count
    assert polys[-1].final_heading == whole.final_heading
    for p in polys:
        assert math.isfinite(p.final_heading)


def test_subcurves_need_order_seven():
    with pytest.raises(DomainError):
        turtle.subcurves(2, 6, 1.0)


def test_part_boxes_disjoint_right_angle():
    _, boxes = turtle.subcurves(2, 17, PI2)
    report = turtle.boxes_disjoint(boxes)
    assert report.disjoint
    assert report.violating_pair is None


def test_boxes_disjoint_reports_violator():
    mk = lambda cx: turtle.OrientedBox(
        center=np.array([cx, 0.0]), axis=np.array([1.0, 0.0]), half=(1.0, 1.0)
    )
    report = turtle.boxes_disjoint([mk(0.0), mk(5.0), mk(5.5)])
    assert not report.disjoint
    assert report.violating_pair == (1, 2)


def test_zero_area_boxes_have_no_interior():
    # a box of two equal points has no edges, so the separating-axis
    # kernel has no axis to test; it has no interior to overlap either
    point = turtle.oriented_box([[1.0, 2.0], [1.0, 2.0]])
    assert turtle.boxes_disjoint([point, point]).disjoint
    segment = turtle.oriented_box([[0.0, 0.0], [4.0, 0.0]])
    square = turtle.OrientedBox(
        center=np.array([2.0, 0.0]), axis=np.array([1.0, 0.0]), half=(1.0, 1.0)
    )
    assert turtle.boxes_disjoint([segment, square]).disjoint


def test_boxes_touching_edges_allowed():
    mk = lambda cx: turtle.OrientedBox(
        center=np.array([cx, 0.0]), axis=np.array([1.0, 0.0]), half=(1.0, 1.0)
    )
    assert turtle.boxes_disjoint([mk(0.0), mk(2.0)]).disjoint


def test_similar_orders():
    got = [turtle.similar_order(i, k) for i in (2, 3) for k in (0, 2, 24)]
    assert got == [5, 17, 149, 3, 15, 147]
    for bad in [(1, 0), (2, -1), (2, 0.5), (True, 0)]:
        with pytest.raises(DomainError):
            turtle.similar_order(*bad)


@pytest.mark.parametrize("i,n", [(2, 11), (2, 17), (3, 9), (3, 15)])
def test_endpoints_on_box(i, n):
    assert turtle.endpoints_on_box(i, n)


def test_endpoints_on_box_guards():
    # the claim holds only at the similar orders' residue mod 6
    for i, n in [(2, 16), (3, 17)]:
        with pytest.raises(DomainError):
            turtle.endpoints_on_box(i, n)
