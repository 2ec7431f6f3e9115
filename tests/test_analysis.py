"""Closed-form scaling quantities and the width/height recurrences."""

import math
from collections import namedtuple

import numpy as np
import pytest

from fibfrac import analysis, turtle, words
from fibfrac.errors import DomainError

ALPHAS = [0.0, 0.15, math.pi / 6, 0.9, math.pi / 3, 1.4, math.pi / 2]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_roots_satisfy_vieta(alpha):
    rp, rm = analysis.characteristic_roots(alpha)
    assert rp + rm == pytest.approx(2.0 * (1.0 + math.cos(alpha)), rel=1e-14)
    assert rp * rm == pytest.approx(-1.0, rel=1e-14)
    assert rp > 1.0
    assert -1.0 < rm < 0.0


def test_roots_endpoints():
    rp, _ = analysis.characteristic_roots(math.pi / 2)
    assert rp == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)
    rp0, _ = analysis.characteristic_roots(0.0)
    assert rp0 == pytest.approx(2.0 + math.sqrt(5.0), rel=1e-15)


def test_scaling_ratio_values():
    assert analysis.scaling_ratio(math.pi / 2) == pytest.approx(
        1.0 / (1.0 + math.sqrt(2.0)), rel=1e-15
    )
    assert analysis.scaling_ratio(0.0) == pytest.approx(
        1.0 / (2.0 + math.sqrt(5.0)), rel=1e-15
    )
    assert analysis.scaling_ratio(math.pi / 3) == pytest.approx(
        0.3027756377319946, rel=1e-12
    )


def test_aspect_limit_values():
    assert analysis.aspect_limit(math.pi / 2) == pytest.approx(
        math.sqrt(2.0), rel=1e-15
    )
    assert analysis.aspect_limit(math.pi / 4) == pytest.approx(
        3.7979326519318137, rel=1e-12
    )
    assert analysis.aspect_limit(0.0) == math.inf


def test_dimension_endpoints():
    assert analysis.hausdorff_dimension(0.0) == 1.0
    assert analysis.hausdorff_dimension(math.pi / 2) == pytest.approx(
        1.6379382096763471, abs=1e-12
    )


def test_dimension_monotone():
    grid = np.linspace(0.0, math.pi / 2, 40)
    vals = [analysis.hausdorff_dimension(a) for a in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(1.0 <= v <= 2.0 for v in vals)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_moran_identity(alpha):
    R = analysis.scaling_ratio(alpha)
    s = analysis.hausdorff_dimension(alpha)
    assert 4.0 * R**s + R ** (2.0 * s) == pytest.approx(1.0, abs=1e-12)


WHSequence = namedtuple("WHSequence", ["w", "h", "a", "b"])


def wh_sequence(alpha, seeds, k_max):
    # The 3-step width and height recurrences, run from measured seeds
    # (w1, w2, h1): the chord width of a base curve, the width of the curve
    # three orders later, and the base height.  One k-step advances the
    # order by 3:
    #
    #     w_k = 2 (1 + cos a) w_{k-1} + w_{k-2}
    #     h_k = h_{k-1} + sin(a) w_{k-1}
    #
    # a, b solve w_k = a r_plus^k + b r_minus^k through the two width seeds.
    # For even i these recurrences are exact on the order class n = 1
    # (mod 3), from which curve_seeds takes its orders.  For odd i the width
    # recurrence is exact on no order class: its relative residual is
    # smallest on n = 4 (mod 6) and decays there without vanishing (2.9e-6
    # at n = 22 and 8.5e-8 at n = 28 for i = 3, alpha = pi/2).
    w1, w2, h1 = seeds
    coef = 2.0 * (1.0 + math.cos(alpha))
    s = math.sin(alpha)
    w = np.empty(k_max, dtype=np.float64)
    h = np.empty(k_max, dtype=np.float64)
    w[0], w[1] = w1, w2
    h[0] = h1
    h[1] = h1 + s * w1
    for k in range(2, k_max):
        w[k] = coef * w[k - 1] + w[k - 2]
        h[k] = h[k - 1] + s * w[k - 1]
    r_plus, r_minus = analysis.characteristic_roots(alpha)
    system = np.array([[r_plus, r_minus], [r_plus**2, r_minus**2]])
    a, b = np.linalg.solve(system, np.array([w1, w2]))
    return WHSequence(w=w, h=h, a=float(a), b=float(b))


def curve_seeds(i, alpha):
    # (w1, w2, h1) measured on the drawn curves of orders 10 and 13, which
    # lie in the order class n = 1 (mod 3)
    s1, s2 = (turtle.curve_stats(turtle.draw(words.word_concat(i, n), alpha))
              for n in (10, 13))
    return (s1.w, s2.w, s1.h)


# an i = 2 case is named by its alpha alone
RECURRENCE_CASES = [pytest.param(alpha, i,
                                 id=str(alpha) if i == 2 else "%s-%d" % (alpha, i))
                    for i in (2, 4, 6)
                    for alpha in (math.pi / 2, math.pi / 3, 0.9, 0.15)]


@pytest.mark.parametrize("alpha,i", RECURRENCE_CASES)
def test_recurrence_matches_drawn_curves(alpha, i):
    # route one: measure each curve; route two: run the recurrences from
    # the first two widths and the first height (exact for even i only)
    seeds = curve_seeds(i, alpha)
    seq = wh_sequence(alpha, seeds, 5)
    for k, n in enumerate(range(10, 25, 3)):
        st = turtle.curve_stats(turtle.draw(words.word_concat(i, n), alpha))
        assert seq.w[k] == pytest.approx(st.w, rel=1e-10)
        assert seq.h[k] == pytest.approx(st.h, rel=1e-10)


@pytest.mark.parametrize("alpha", [math.pi / 2, 0.9, 0.15])
def test_closed_form_interpolates_widths(alpha):
    seeds = curve_seeds(2, alpha)
    seq = wh_sequence(alpha, seeds, 6)
    rp, rm = analysis.characteristic_roots(alpha)
    k = np.arange(1, 7)
    model = seq.a * rp**k + seq.b * rm**k
    assert np.allclose(model, seq.w, rtol=1e-12)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 0.15])
def test_aspect_converges_to_limit(alpha):
    seq = wh_sequence(alpha, curve_seeds(2, alpha), 40)
    assert seq.w[-1] / seq.h[-1] == pytest.approx(
        analysis.aspect_limit(alpha), rel=1e-9
    )


def test_alpha_validation():
    with pytest.raises(DomainError):
        analysis.characteristic_roots(-0.2)
    with pytest.raises(DomainError):
        analysis.aspect_limit(2.0)

