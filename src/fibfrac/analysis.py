"""Closed-form scaling quantities of the curve family as functions of alpha.

Chord widths of every third curve obey w_k = 2(1 + cos a) w_{k-1} + w_{k-2},
so the characteristic roots of r^2 - 2(1 + cos a) r - 1 control the geometry:
the contraction ratio, the limiting aspect ratio, and the attractor dimension
all come from r_plus.
"""

from __future__ import annotations

import math

from . import turtle


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
