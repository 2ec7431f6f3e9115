"""Similarity fitting, IFS derivation, attractor generation, and the OSC."""

import dataclasses
import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fibfrac import ifs as ifsmod
from fibfrac import turtle, words
from fibfrac.errors import (
    DegenerateLandmarksError,
    DomainError,
    SelfSimilarityError,
)

PI2 = math.pi / 2
R_RIGHT = 1.0 / (1.0 + math.sqrt(2.0))


def rand_sim(rng):
    return ifsmod.Similarity(
        scale=float(rng.uniform(0.2, 3.0)),
        rotation=float(rng.uniform(-math.pi, math.pi)),
        reflect=bool(rng.integers(0, 2)),
        translation=(float(rng.normal()), float(rng.normal())),
    )


def test_similarity_apply_hand_check():
    m = ifsmod.Similarity(scale=2.0, rotation=PI2, reflect=False,
                          translation=(1.0, 0.0))
    out = m.apply(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(out, [[1.0, 2.0], [-1.0, 0.0]])


def test_similarity_reflect_conjugates_first():
    m = ifsmod.Similarity(scale=1.0, rotation=0.0, reflect=True,
                          translation=(0.0, 0.0))
    out = m.apply(np.array([[0.5, 2.0]]))
    assert np.allclose(out, [[0.5, -2.0]])


def test_fit_recovers_random_similarity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = rand_sim(rng)
        src = rng.normal(size=(6, 2)) * 3
        fit, rms = ifsmod.fit_similarity(src, m.apply(src))
        assert rms < 1e-12
        assert fit.reflect == m.reflect
        assert fit.scale == pytest.approx(m.scale, rel=1e-12)
        rot_diff = (fit.rotation - m.rotation) % (2 * math.pi)
        assert min(rot_diff, 2 * math.pi - rot_diff) < 1e-12
        assert fit.translation == pytest.approx(m.translation, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.1, 10.0), st.floats(-math.pi, math.pi), st.booleans(),
       st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
       hnp.arrays(np.float64, st.tuples(st.integers(3, 12), st.just(2)),
                  elements=st.integers(-1000, 1000).map(lambda k: k / 100.0)))
def test_fit_recovers_similarity_property(scale, rotation, reflect, tx, ty, src):
    sv = np.linalg.svd(src - src.mean(axis=0), compute_uv=False)
    assume(sv[1] > 0.05 * sv[0])  # landmarks well off a common line
    m = ifsmod.Similarity(scale=scale, rotation=rotation, reflect=reflect,
                          translation=(tx, ty))
    fit, rms = ifsmod.fit_similarity(src, m.apply(src))
    assert rms < 1e-9
    assert fit.reflect == reflect
    assert fit.scale == pytest.approx(scale, rel=1e-9)
    turn = (fit.rotation - rotation) % (2 * math.pi)
    assert min(turn, 2 * math.pi - turn) < 1e-9
    assert fit.translation == pytest.approx((tx, ty), abs=1e-9)


def test_fit_rejects_degenerate_landmarks():
    same = np.zeros((4, 2))
    with pytest.raises(DegenerateLandmarksError):
        ifsmod.fit_similarity(same, same)
    line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(DegenerateLandmarksError):
        ifsmod.fit_similarity(line, 2 * line)
    # derive_ifs fits collinear hexagons at small angles in line
    fit, rms = ifsmod._fit_complex(line, 2 * line)
    assert rms < 1e-12 and fit.scale == pytest.approx(2.0)


def test_fit_input_validation():
    good = np.zeros((3, 2))
    with pytest.raises(DomainError):
        ifsmod.fit_similarity(good, np.zeros((4, 2)))
    with pytest.raises(DomainError):
        ifsmod.fit_similarity(np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["src", "dst"])
def test_fit_rejects_non_finite_landmarks(bad, side):
    # unchecked, NaN landmarks leak numpy's LinAlgError from the SVD
    good = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    broken = good.copy()
    broken[2, 0] = bad
    src, dst = (broken, good) if side == "src" else (good, broken)
    with pytest.raises(DomainError):
        ifsmod.fit_similarity(src, dst)


def test_fit_rejects_landmarks_whose_fit_overflows():
    # finite, but their centered squares overflow
    far = np.array([[0.0, 0.0], [1e300, 0.0], [0.0, 1e300]])
    with pytest.raises(DomainError):
        ifsmod.fit_similarity(far, far)


def test_right_angle_map_table():
    system = ifsmod.derive_ifs(2, PI2)
    assert system.parity == "even"
    assert system.chord_direction == pytest.approx(math.pi / 8, abs=1e-12)
    scales = [m.scale for m in system.maps]
    assert scales == pytest.approx(
        [R_RIGHT, R_RIGHT, R_RIGHT**2, R_RIGHT, R_RIGHT], rel=1e-12
    )
    rots = [math.degrees(m.rotation) for m in system.maps]
    assert rots[0] == pytest.approx(90.0, abs=1e-9)
    assert rots[1] == pytest.approx(0.0, abs=1e-9)
    assert abs(rots[2]) == pytest.approx(180.0, abs=1e-9)
    assert rots[3] == pytest.approx(0.0, abs=1e-9)
    assert rots[4] == pytest.approx(90.0, abs=1e-9)
    assert [m.reflect for m in system.maps] == [True, True, False, True, True]
    # the first map fixes the origin, the last fixes the far chord end
    assert system.maps[0].translation == pytest.approx((0.0, 0.0), abs=1e-12)
    end = system.seeds()[1]
    assert system.maps[4].apply(end[None, :])[0] == pytest.approx(end, abs=1e-12)


def test_odd_family_chord_direction():
    system = ifsmod.derive_ifs(3, PI2)
    assert system.parity == "odd"
    assert system.chord_direction == pytest.approx(3 * math.pi / 8, abs=1e-12)
    scales = [m.scale for m in system.maps]
    assert scales == pytest.approx(
        [R_RIGHT, R_RIGHT, R_RIGHT**2, R_RIGHT, R_RIGHT], rel=1e-12
    )


@pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.2])
def test_scale_spectrum_other_angles(alpha):
    rp = 1.0 + math.cos(alpha) + math.sqrt((1.0 + math.cos(alpha)) ** 2 + 1.0)
    R = 1.0 / rp
    for i in range(2, 8):
        system = ifsmod.derive_ifs(i, alpha)
        assert [m.scale for m in system.maps] == pytest.approx(
            [R, R, R * R, R, R], rel=1e-9
        )


def test_derived_ifs_digest():
    # pins every bit of the fitted maps for i = 2..7, which no CLI digest covers
    h = hashlib.sha256()
    for i in range(2, 8):
        for alpha in (0.0, math.pi / 6, math.pi / 4, math.pi / 3, PI2):
            for parity in ("even-left", "odd-left"):
                system = ifsmod.derive_ifs(i, alpha, parity=parity)
                h.update((ifsmod.to_json(system) + "\n").encode("ascii"))
    assert h.hexdigest() == (
        "26fdbf690f90b5affef025fa4da199aeb68efe6bc3f627b0fd2e995915c3fe78"
    )


@pytest.mark.parametrize("parity", ["even-left", "odd-left"])
@pytest.mark.parametrize("i", [2, 3, 4, 5])
def test_seed_drawings_are_prefixes_of_the_reference_drawing(i, parity):
    # derive_ifs reads the seeds of f_7 .. f_12 off its one reference drawing
    ref_word = words.word_concat(i, turtle.similar_order(i, 2))
    for alpha in (0.0, 1e-3, math.pi / 6, math.pi / 3, PI2):
        ref = turtle.draw(ref_word, alpha, parity=parity).points
        for m in range(7, 13):
            p = turtle.draw(words.word_concat(i, m), alpha, parity=parity).points
            assert p.tobytes() == ref[:p.shape[0]].tobytes(), (alpha, m)


@pytest.mark.parametrize("parity", ["even-left", "odd-left"])
@pytest.mark.parametrize("i", [2, 3, 4, 5])
def test_l_word_chords_follow_from_f_words(i, parity):
    # no l-word is drawn: at every order l_m takes its chord and turn count
    # from f_m's, which must agree with a drawing of l_m at every order
    # small enough to draw
    bits = words.word_concat(i, 12).bits()
    for alpha in (0.0, 1e-3, math.pi / 6, 1.0, PI2):
        drawn = turtle.draw(bits, alpha, parity=parity).points
        sk = ifsmod._Skeleton(i, alpha, parity, 19, bits, drawn)
        for m in range(7, 20):
            lw = words.l_word_bits(i, m)
            want = turtle.draw(lw, alpha, parity=parity).points[-1]
            assert np.max(np.abs(sk.vl[m] - want)) <= 1e-12 * sk.L[m], (alpha, m)
            assert sk.Kl[m] == turtle.turn_count(lw, parity=parity), (alpha, m)


def test_derive_ifs_draws_one_curve():
    with mock.patch.object(ifsmod.turtle, "draw", wraps=turtle.draw) as spy:
        ifsmod.derive_ifs(2, PI2)
    assert spy.call_count == 1


def test_parity_mismatch_detected():
    # the negative control: drawing with the other turn parity moves the
    # curve by more than the 1e-6 * diameter tolerance from alpha ~ 1e-5 up
    swap = {"even-left": "odd-left", "odd-left": "even-left"}
    for i in range(2, 8):
        for parity, other in swap.items():
            for alpha in (1e-5, 1e-3, math.pi / 6, math.pi / 3, PI2):
                with pytest.raises(SelfSimilarityError):
                    ifsmod.derive_ifs(i, alpha, parity=parity, draw_parity=other)
            # at alpha = 0 both parities draw the same straight line
            ifsmod.derive_ifs(i, 0.0, parity=parity, draw_parity=other)


def test_derive_argument_validation():
    with pytest.raises(DomainError):
        ifsmod.derive_ifs(1, PI2)
    with pytest.raises(DomainError):
        ifsmod.derive_ifs(2, 2.0)
    # the reference order is fixed; a third positional argument is refused
    # rather than taken as the parity
    with pytest.raises(TypeError):
        ifsmod.derive_ifs(2, PI2, 17)


def test_attractor_counts():
    system = ifsmod.derive_ifs(2, PI2)
    assert np.array_equal(ifsmod.attractor(system, depth=0),
                          system.seeds())
    for d in range(4):
        assert ifsmod.attractor(system, depth=d).shape == (2 * 5**d, 2)


def test_attractor_argument_validation():
    system = ifsmod.derive_ifs(2, PI2)
    with pytest.raises(TypeError):  # the depth is required
        ifsmod.attractor(system)
    with pytest.raises(DomainError):
        ifsmod.attractor(system, depth=-1)


def test_attractor_levels_nest():
    # every level-k point is the image of a coarser point under some map,
    # and the endpoint maps fix the seeds, so V_k is a subset of V_{k+1}
    system = ifsmod.derive_ifs(2, PI2)
    coarse = ifsmod.attractor(system, depth=3)
    fine = ifsmod.attractor(system, depth=4)
    d2 = ((coarse[:, None, :] - fine[None, :, :]) ** 2).sum(axis=2)
    assert float(d2.min(axis=1).max()) < 1e-24


@pytest.mark.parametrize("i", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.0, 1e-7, 1e-6, 1e-3, math.pi / 6,
                                   math.pi / 4, math.pi / 3, PI2])
def test_open_set_condition(i, alpha):
    # the near-zero angles give hulls with sub-ulp edges whose normals are
    # round-off noise
    report = ifsmod.verify_osc(ifsmod.derive_ifs(i, alpha))
    assert report.contained
    assert report.pairwise_disjoint
    assert report.margin > 0.0


@settings(max_examples=40, deadline=None)
@given(i=st.integers(2, 7), alpha=st.floats(0.0, PI2))
def test_open_set_condition_property(i, alpha):
    report = ifsmod.verify_osc(ifsmod.derive_ifs(i, alpha))
    assert report.contained and report.pairwise_disjoint
    assert report.margin > 0.0


def _support(pts, directions):
    return np.array([float((pts @ u).max()) for u in directions])


@pytest.mark.parametrize("i, alpha", [(2, PI2), (3, math.pi / 3), (2, 0.0),
                                      (2, 1e-7), (5, 1e-6)])
def test_attractor_hull_is_the_fixed_point(i, alpha):
    system = ifsmod.derive_ifs(i, alpha)
    hull = ifsmod._attractor_hull(system)
    sample = ifsmod.attractor(system, depth=8)
    diam = math.hypot(*(sample.max(axis=0) - sample.min(axis=0)))
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    even = np.column_stack([np.cos(theta), np.sin(theta)])
    # outward edge normals; a round-off edge gives a meaningless direction,
    # but with the support taken over all vertices that only weakens the
    # containment bound, it never fakes a violation
    edges = np.roll(hull, -1, axis=0) - hull
    normals = np.column_stack([edges[:, 1], -edges[:, 0]])
    directions = np.vstack([even, normals / np.hypot(*normals.T)[:, None]])
    reach = _support(hull, directions)
    inner = ifsmod.attractor(system, depth=7)
    assert np.all(_support(inner, directions) - reach <= 1e-12 * diam)
    for m in system.maps:
        assert np.all(_support(m.apply(hull), directions) - reach
                      <= 1e-12 * diam)
    # the sample's points are rounded differently from the hull's vertices
    excess = _support(hull, even) - _support(sample, even)
    assert np.all(excess >= -1e-12 * diam)
    assert np.all(excess <= 1e-2 * diam)


@pytest.mark.parametrize("i", [2, 3])
@pytest.mark.parametrize("alpha", [0.0, 1e-12, 1e-9, 5e-9, 1e-8, 1e-6, PI2])
def test_osc_negative_control_duplicate_map(i, alpha):
    # at the smallest angles the hull is thinner than the tolerance and V is
    # the square on the chord; a duplicated map must still fail there, and
    # just above that (5e-9, 1e-8) where its overlap is below the absolute
    # tolerance but is the narrower image's whole width
    system = ifsmod.derive_ifs(i, alpha)
    m = system.maps
    broken = ifsmod.IFS(maps=(m[0], m[0], m[2], m[3], m[4]),
                        alpha=system.alpha, parity=system.parity,
                        chord_direction=system.chord_direction)
    report = ifsmod.verify_osc(broken)
    assert not report.pairwise_disjoint
    assert report.margin <= 0.0


def test_unconverged_hull_raises():
    # with the second map's scale at 0.99 the hull still moves by more than
    # the stop rule's 1e-14 of the chord after 200 steps
    system = ifsmod.derive_ifs(2, PI2)
    m = system.maps
    slow = dataclasses.replace(m[1], scale=0.99)
    broken = dataclasses.replace(system, maps=(m[0], slow) + m[2:])
    with pytest.raises(DomainError):
        ifsmod._attractor_hull(broken)
    with pytest.raises(DomainError):
        ifsmod.verify_osc(broken)


def test_json_round_trip_exact():
    system = ifsmod.derive_ifs(2, 0.8)
    back = ifsmod.from_json(ifsmod.to_json(system))
    assert back.alpha == system.alpha
    assert back.parity == system.parity
    assert back.chord_direction == system.chord_direction
    assert back.maps == system.maps


def test_json_layout():
    doc = json.loads(ifsmod.to_json(ifsmod.derive_ifs(2, PI2)))
    assert set(doc) == {"alpha", "parity", "chord_direction", "maps"}
    assert len(doc["maps"]) == 5
    assert set(doc["maps"][0]) == {"scale", "rotation", "reflect", "tx", "ty"}


def _set_map(k, **fields):
    def change(doc):
        doc["maps"][k].update(fields)
    return change


@pytest.mark.parametrize("change", [
    lambda doc: doc.pop("alpha"),
    lambda doc: doc["maps"][0].pop("tx"),
    lambda doc: doc.update(parity="sideways"),
    lambda doc: doc.update(alpha=math.nan),
    lambda doc: doc.update(chord_direction=math.inf),
    lambda doc: doc.update(maps=doc["maps"][:4]),
    lambda doc: doc.update(maps=3),
    _set_map(1, scale=-0.4),
    _set_map(1, scale=0.0),
    _set_map(1, scale=math.inf),
    _set_map(1, scale=1.0),
    _set_map(1, scale=1.5),
    _set_map(2, tx=math.nan),
    _set_map(2, reflect="false"),
    _set_map(1, scale="0.4"),
    lambda doc: doc.update(alpha=True),
    lambda doc: doc.update(alpha=5.0),
    _set_map(3, ty=10**400),
], ids=["no-alpha", "no-tx", "parity", "nan-alpha", "inf-direction", "four-maps",
        "maps-number", "negative-scale", "zero-scale", "inf-scale", "unit-scale",
        "over-unit-scale", "nan-tx",
        "reflect-string", "scale-string", "alpha-bool", "alpha-out-of-domain",
        "huge-int-ty"])
def test_from_json_rejects_malformed_input(change):
    doc = json.loads(ifsmod.to_json(ifsmod.derive_ifs(2, PI2)))
    change(doc)
    with pytest.raises(DomainError):
        ifsmod.from_json(json.dumps(doc))


@pytest.mark.parametrize("text", ["[1, 2]", "{", "null", '"ifs"'])
def test_from_json_rejects_other_documents(text):
    with pytest.raises(DomainError):
        ifsmod.from_json(text)
