"""Closed-form scaling quantities and the width/height recurrences."""

import math

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


# an i = 2 case is named by its alpha alone
RECURRENCE_CASES = [pytest.param(alpha, i,
                                 id=str(alpha) if i == 2 else "%s-%d" % (alpha, i))
                    for i in (2, 4, 6)
                    for alpha in (math.pi / 2, math.pi / 3, 0.9, 0.15)]


@pytest.mark.parametrize("alpha,i", RECURRENCE_CASES)
def test_recurrence_matches_drawn_curves(alpha, i):
    # route one: measure each curve; route two: run the recurrences from
    # the first two widths and the first height (exact for even i only)
    seeds = analysis.curve_seeds(i, alpha)
    seq = analysis.wh_sequence(alpha, seeds, 5)
    for k, n in enumerate(range(10, 25, 3)):
        st = turtle.curve_stats(turtle.draw(words.word_concat(i, n), alpha))
        assert seq.w[k] == pytest.approx(st.w, rel=1e-10)
        assert seq.h[k] == pytest.approx(st.h, rel=1e-10)


@pytest.mark.parametrize("alpha", [math.pi / 2, 0.9, 0.15])
def test_closed_form_interpolates_widths(alpha):
    seeds = analysis.curve_seeds(2, alpha)
    seq = analysis.wh_sequence(alpha, seeds, 6)
    rp, rm = analysis.characteristic_roots(alpha)
    k = np.arange(1, 7)
    model = seq.a * rp**k + seq.b * rm**k
    assert np.allclose(model, seq.w, rtol=1e-12)


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3, 0.15])
def test_aspect_converges_to_limit(alpha):
    seq = analysis.wh_sequence(alpha, analysis.curve_seeds(2, alpha), 40)
    assert seq.w[-1] / seq.h[-1] == pytest.approx(
        analysis.aspect_limit(alpha), rel=1e-9
    )


def test_seed_validation():
    with pytest.raises(DomainError):
        analysis.wh_sequence(1.0, (1.0, -2.0, 1.0), 5)
    with pytest.raises(DomainError):
        analysis.wh_sequence(1.0, (1.0, 2.0, 1.0), 1)
    with pytest.raises(DomainError):
        analysis.characteristic_roots(-0.2)
    with pytest.raises(DomainError):
        analysis.aspect_limit(2.0)

