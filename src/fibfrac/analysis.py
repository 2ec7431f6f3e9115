"""Closed-form scaling quantities of the curve family as functions of alpha.

Chord widths of every third curve obey w_k = 2(1 + cos a) w_{k-1} + w_{k-2},
so the characteristic roots of r^2 - 2(1 + cos a) r - 1 control the geometry:
the contraction ratio, the limiting aspect ratio, and the attractor dimension
all come from r_plus.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import turtle, words
from .errors import DomainError


def characteristic_roots(alpha: float) -> tuple:
    """Roots (r_plus, r_minus) of r^2 - 2(1 + cos a) r - 1 = 0.

    r_plus > 1 is the growth factor of chord widths across a 3-step of the
    order; r_minus in (-1, 0) is the decaying root.  Vieta: the roots sum to
    2(1 + cos a) and multiply to -1.
    """
    turtle._check_alpha(alpha)
    c = 1.0 + math.cos(alpha)
    d = math.sqrt(c * c + 1.0)
    return c + d, c - d


def scaling_ratio(alpha: float) -> float:
    """Contraction ratio R = 1/r_plus of the dominant similarity maps."""
    r_plus, _ = characteristic_roots(alpha)
    return 1.0 / r_plus


def aspect_limit(alpha: float) -> float:
    """Limit of width/height, (r_plus - 1)/sin(a); infinite at a = 0."""
    turtle._check_alpha(alpha)
    if alpha == 0.0:
        return math.inf
    r_plus, _ = characteristic_roots(alpha)
    return (r_plus - 1.0) / math.sin(alpha)


def hausdorff_dimension(alpha: float) -> float:
    """Similarity dimension s of the attractor.

    s solves the Moran equation 4 R^s + R^(2s) = 1 for the five map ratios
    (R, R, R^2, R, R); in closed form s = ln(2 + sqrt 5) / ln(r_plus), which
    gives exactly 1 at a = 0 and increases with a.
    """
    r_plus, _ = characteristic_roots(alpha)
    return math.log(2.0 + math.sqrt(5.0)) / math.log(r_plus)


WHSequence = namedtuple("WHSequence", ["w", "h", "a", "b"])


def wh_sequence(alpha: float, seeds: tuple, k_max: int) -> WHSequence:
    """Stream the 3-step width and height recurrences from measured seeds.

    seeds = (w1, w2, h1) are the chord width of a base curve, the width of
    the curve three orders later, and the base height.  One k-step advances
    the order by 3:

        w_k = 2 (1 + cos a) w_{k-1} + w_{k-2}
        h_k = h_{k-1} + sin(a) w_{k-1}

    The returned a, b solve w_k = a r_plus^k + b r_minus^k through the two
    width seeds.  For even i these recurrences are exact on the order class
    n = 1 (mod 3), from which curve_seeds takes its orders.  For
    odd i the width recurrence is exact on no order class: its relative
    residual is smallest on n = 4 (mod 6) and decays there without
    vanishing (2.9e-6 at n = 22 and 8.5e-8 at n = 28 for i = 3, alpha = pi/2).
    """
    turtle._check_alpha(alpha)
    w1, w2, h1 = (float(v) for v in seeds)
    if not (w1 > 0.0 and w2 > 0.0 and h1 > 0.0):
        raise DomainError("seeds must be positive, got %r" % (seeds,))
    k_max = words._as_int(k_max, "k_max", 2)  # room for both width seeds
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
    r_plus, r_minus = characteristic_roots(alpha)
    system = np.array([[r_plus, r_minus], [r_plus**2, r_minus**2]])
    a, b = np.linalg.solve(system, np.array([w1, w2]))
    return WHSequence(w=w, h=h, a=float(a), b=float(b))


def curve_seeds(i: int, alpha: float, parity: str = "even-left") -> tuple:
    """Measure (w1, w2, h1) seeds from the drawn curves of orders 10 and 13.

    Order 10 lies in the order class n = 1 (mod 3) on which the recurrences
    hold exactly at every alpha for even i.  For odd i they hold only
    approximately on every class; see wh_sequence.
    """
    s1, s2 = (turtle.curve_stats(turtle.draw(words.word_concat(i, n), alpha,
                                             parity=parity))
              for n in (10, 13))
    return (s1.w, s2.w, s1.h)

