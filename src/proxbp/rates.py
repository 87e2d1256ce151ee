"""Per-source scalar update: maximize U(x) - W*x - alpha*(x - x_prev)^2.

The objective is 2*alpha strongly concave, so the maximizer over the utility
domain is unique. Its slope h(x) = U'(x) - W - 2*alpha*(x - x_prev) is
strictly decreasing; the optimum is the root of h, or the left domain edge
when h is already nonpositive there. For both utility kinds h(x) = 0 is a
quadratic in x, so rate_root solves it in closed form. solve_rates solves
every source of a slot at once; solve_rate and RateProblem are its scalar
reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import ContractError, NumericError, Utility


@dataclass(frozen=True)
class RateProblem:
    """One source's slot problem. pressure is the queue weight W multiplying x."""

    utility: Utility
    pressure: float
    x_prev: float
    alpha: float

    def __post_init__(self):
        if not (float(self.alpha) > 0 and math.isfinite(self.alpha)):
            raise ContractError(f"alpha must be positive, got {self.alpha!r}")
        if not (float(self.x_prev) >= 0 and math.isfinite(self.x_prev)):
            raise ContractError(f"x_prev must lie in the domain closure, got {self.x_prev!r}")
        if not math.isfinite(float(self.pressure)):
            raise ContractError(f"pressure must be finite, got {self.pressure!r}")
        object.__setattr__(self, "pressure", float(self.pressure))
        object.__setattr__(self, "x_prev", float(self.x_prev))
        object.__setattr__(self, "alpha", float(self.alpha))


def positive_quad_root(a, b, c):
    """Positive root of a*x^2 + b*x + c = 0 with a > 0, c < 0, avoiding
    cancellation for large positive b. Elementwise on arrays; a 0-d array for
    scalar arguments. b*b overflows for |b| > 1.3e154, and the caller decides
    whether that warns."""
    bb = b * b
    disc = np.sqrt(bb - 4.0 * a * c)
    if np.isinf(bb).any():
        # hypot forms the same discriminant without b*b, so for b > 0 the tiny
        # root -2c / (b + disc) is not lost to 0
        disc = np.where(np.isinf(bb) & (b > 0.0), np.hypot(b, 2.0 * np.sqrt(-a * c)), disc)
    # one division per lane: the numerator and denominator of its branch
    low = b <= 0.0
    return (np.where(low, disc - b, -2.0 * c)
            / np.where(low, 2.0 * a, b + disc))


def rate_root(is_wlog, weight, a, d):
    """Maximizer of U(x) - d*x - (a/2)*x^2 over the utility domain, for a > 0,
    elementwise; a 0-d array for scalar arguments.

    The slope is U'(x) - d - a*x. For wlog, w/x = d + a*x gives
    a*x^2 + d*x - w = 0, and the root is always interior. For wlog1p, the
    slope w - d at 0 pins x = 0 when it is nonpositive; otherwise
    w/(1+x) = d + a*x gives a*x^2 + (a+d)*x + d - w = 0. Raises NumericError
    where the root is not finite.
    """
    dw = d - weight
    free = is_wlog | (dw < 0.0)
    b = np.where(is_wlog, d, a + d)
    c = np.where(is_wlog, -weight, dw)
    # A pinned lane has c = d - w >= 0, so its discriminant may be negative;
    # its root is discarded below.
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.where(free, positive_quad_root(a, b, c), 0.0)
    if not np.isfinite(x).all():
        raise NumericError("rate root is not finite")
    return x


def solve_rate(p: RateProblem) -> float:
    """Maximizer of the slot objective over the utility domain."""
    two_alpha = 2.0 * p.alpha
    return float(rate_root(p.utility.kind == "wlog", p.utility.weight, two_alpha,
                           p.pressure - two_alpha * p.x_prev))


def solve_rates(is_wlog, weight, pressure, x_prev, a) -> np.ndarray:
    """solve_rate for many sources at once, all arguments (F,) arrays: is_wlog
    picks the utility kind, weight its weight, and a = 2*alpha is the
    curvature of the proximal term. Returns x (F,), bitwise equal to
    solve_rate on each source, since both take rate_root with the slot's a and
    d = W - a*x_prev.
    """
    a_ok = (a > 0.0) & (a < math.inf)
    x_ok = (x_prev >= 0.0) & (x_prev < math.inf)
    p_ok = np.isfinite(pressure)
    if not (a_ok & x_ok & p_ok).all():
        if not a_ok.all():
            raise ContractError("alpha must be positive")
        if not x_ok.all():
            raise ContractError("x_prev must lie in the domain closure")
        raise ContractError("pressure must be finite")
    return rate_root(is_wlog, weight, a, pressure - a * x_prev)
