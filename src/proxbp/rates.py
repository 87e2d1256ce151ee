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


def objective(p: RateProblem, x) -> float:
    x = float(x)
    return p.utility.value(x) - p.pressure * x - p.alpha * (x - p.x_prev) ** 2


def slope(p: RateProblem, x) -> float:
    """h(x), the derivative of the slot objective. Strictly decreasing."""
    x = float(x)
    return p.utility.derivative(x) - p.pressure - 2.0 * p.alpha * (x - p.x_prev)


def positive_quad_root(a, b, c):
    """Positive root of a*x^2 + b*x + c = 0 with a > 0, c < 0, avoiding
    cancellation for large positive b. Elementwise on arrays; a 0-d array for
    scalar arguments."""
    disc = np.sqrt(b * b - 4.0 * a * c)
    # |b| keeps the unused branch's denominator positive where b <= 0.
    return np.where(b <= 0, (disc - b) / (2.0 * a), -2.0 * c / (np.abs(b) + disc))


def rate_root(is_wlog, weight, a, d):
    """Maximizer of U(x) - d*x - (a/2)*x^2 over the utility domain, for a > 0,
    elementwise; a 0-d array for scalar arguments.

    The slope is U'(x) - d - a*x. For wlog, w/x = d + a*x gives
    a*x^2 + d*x - w = 0, and the root is always interior. For wlog1p, the
    slope w - d at 0 pins x = 0 when it is nonpositive; otherwise
    w/(1+x) = d + a*x gives a*x^2 + (a+d)*x + d - w = 0. Raises NumericError
    where the root is not finite.
    """
    free = is_wlog | (weight - d > 0)
    b = np.where(is_wlog, d, a + d)
    # pinned wlog1p lanes get c = 0, which keeps their discriminant b*b >= 0
    c = np.where(is_wlog, -weight, np.minimum(d - weight, 0.0))
    with np.errstate(over="ignore"):
        x = np.where(free, positive_quad_root(a, b, c), 0.0)
    if not np.isfinite(x).all():
        raise NumericError("rate root is not finite")
    return x


def solve_rate(p: RateProblem) -> float:
    """Maximizer of the slot objective over the utility domain."""
    two_alpha = 2.0 * p.alpha
    return float(rate_root(p.utility.kind == "wlog", p.utility.weight, two_alpha,
                           p.pressure - two_alpha * p.x_prev))


def solve_rates(is_wlog, weight, pressure, x_prev, alpha) -> np.ndarray:
    """solve_rate for many sources at once, all arguments (F,) arrays: is_wlog
    picks the utility kind, weight its weight. Returns x (F,), bitwise equal
    to solve_rate on each source, since both take rate_root with the slot's
    a = 2*alpha and d = W - 2*alpha*x_prev.
    """
    if not ((alpha > 0) & np.isfinite(alpha)).all():
        raise ContractError("alpha must be positive")
    if not ((x_prev >= 0) & np.isfinite(x_prev)).all():
        raise ContractError("x_prev must lie in the domain closure")
    if not np.isfinite(pressure).all():
        raise ContractError("pressure must be finite")
    two_alpha = 2.0 * alpha
    return rate_root(is_wlog, weight, two_alpha, pressure - two_alpha * x_prev)
