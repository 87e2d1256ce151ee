"""Per-source scalar update: maximize U(x) - W*x - alpha*(x - x_prev)^2.

The objective is 2*alpha strongly concave, so the maximizer over the utility
domain is unique. Its slope h(x) = U'(x) - W - 2*alpha*(x - x_prev) is
strictly decreasing; the optimum is the root of h, or the left domain edge
when h is already nonpositive there. Weighted-log problems admit a closed
form; weighted-log1p problems use bisection with a doubling bracket.
solve_rates solves every source of a slot at once; solve_rate and
RateProblem are its scalar reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import ContractError, NumericError, Utility

# Final bisection bracket width of wlog1p rate solves.
RATE_TOL = 1e-10


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


def closed_form_wlog(p: RateProblem) -> float:
    """Unique root of h for weighted-log utilities.

    h(x) = w/x - D - 2*alpha*x with D = W - 2*alpha*x_prev, so
    2*alpha*x^2 + D*x - w = 0.
    """
    if p.utility.kind != "wlog":
        raise ContractError(f"closed form requires a wlog utility, got {p.utility.kind!r}")
    d = p.pressure - 2.0 * p.alpha * p.x_prev
    return float(positive_quad_root(2.0 * p.alpha, d, -p.utility.weight))


def solve_rate(p: RateProblem, tol: float = RATE_TOL) -> float:
    """Maximizer of the slot objective over the utility domain.

    For wlog the closed form is used exclusively (h diverges at 0+, so the
    optimum is always interior). For wlog1p, h(0) <= 0 pins the boundary
    x = 0; otherwise the root is bracketed by doubling and bisected until the
    bracket width is below tol.
    """
    if not (tol > 0):
        raise ContractError(f"tol must be positive, got {tol!r}")
    if p.utility.kind == "wlog":
        return closed_form_wlog(p)
    lo = 0.0
    if slope(p, lo) <= 0:
        return 0.0
    hi = max(1.0, 2.0 * p.x_prev)
    for _ in range(64):
        if slope(p, hi) < 0:
            break
        hi *= 2.0
    else:
        raise NumericError("rate bracket expansion failed after 64 doublings")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(p, mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def solve_rates(is_wlog, weight, pressure, x_prev, alpha) -> np.ndarray:
    """solve_rate for many sources at once, all arguments (F,) arrays: is_wlog
    picks the utility kind, weight its weight. Returns x (F,), bitwise equal
    to solve_rate at its default tolerance on each source: wlog sources take
    the closed form elementwise, and each interior wlog1p source goes through
    exactly the scalar sequence of doublings and bisection midpoints.
    """
    if not ((alpha > 0) & np.isfinite(alpha)).all():
        raise ContractError("alpha must be positive")
    if not ((x_prev >= 0) & np.isfinite(x_prev)).all():
        raise ContractError("x_prev must lie in the domain closure")
    if not np.isfinite(pressure).all():
        raise ContractError("pressure must be finite")
    two_alpha = 2.0 * alpha
    x = positive_quad_root(two_alpha, pressure - two_alpha * x_prev, -weight)
    x[~is_wlog] = 0.0
    # wlog1p: h(0) <= 0 pins x = 0; the rest are bracketed and bisected.
    j = np.nonzero(~is_wlog & (_wlog1p_slope(0.0, weight, pressure, two_alpha, x_prev) > 0))[0]
    if j.size:
        x[j] = _bisect_wlog1p(weight[j], pressure[j], two_alpha[j], x_prev[j])
    return x


def _bisect_wlog1p(weight, pressure, two_alpha, x_prev):
    """solve_rate's doubling bracket and bisection for wlog1p sources with
    h(0) > 0, elementwise."""
    args = (weight, pressure, two_alpha, x_prev)
    lo = np.zeros(x_prev.size)
    hi = np.maximum(1.0, 2.0 * x_prev)
    for _ in range(64):
        grow = ~(_wlog1p_slope(hi, *args) < 0)
        if not np.count_nonzero(grow):
            break
        hi[grow] *= 2.0
    else:
        raise NumericError("rate bracket expansion failed after 64 doublings")
    # Brackets narrower than RATE_TOL are final; the others move to their midpoint.
    open_ = hi - lo > RATE_TOL
    while np.count_nonzero(open_):
        mid = 0.5 * (lo + hi)
        up = open_ & (_wlog1p_slope(mid, *args) > 0)
        np.copyto(lo, mid, where=up)
        np.copyto(hi, mid, where=open_ ^ up)
        open_ = hi - lo > RATE_TOL
    return 0.5 * (lo + hi)


def _wlog1p_slope(v, weight, pressure, two_alpha, x_prev):
    """slope() of wlog1p problems, elementwise, in the same operation order."""
    return weight / (1.0 + v) - pressure - two_alpha * (v - x_prev)
