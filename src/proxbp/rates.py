"""Per-source scalar update: maximize U(x) - W*x - alpha*(x - x_prev)^2.

The objective is 2*alpha strongly concave, so the maximizer over the utility
domain is unique. Its slope h(x) = U'(x) - W - 2*alpha*(x - x_prev) is
strictly decreasing; the optimum is the root of h, or the left domain edge
when h is already nonpositive there. For both utility kinds h(x) = 0 is a
quadratic in x, so rate_lanes solves it in closed form, elementwise. A slot
solves all sources at once with the run's SlotConstants, which check alpha;
solve_rate and RateProblem are the scalar reference.
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


def rate_lanes(k, weight, d, a, ak, two_a, four_a):
    """Maximizer of U(x) - d*x - (a/2)*x^2 over the utility domain, for a > 0,
    elementwise. k is the utility shift in U(x) = w*log(k + x), 0.0 for wlog
    and 1.0 for wlog1p (Scenario.utility_shift); ak = a*k, two_a = 2a,
    four_a = 4a.

    The slope U'(x) - d - a*x vanishes where a*x^2 + b*x - e = 0, b = a*k + d,
    e = w - d*k (w/x = d + a*x, or w/(1+x) = d + a*x). wlog has e = w > 0;
    wlog1p is pinned at 0 where its slope at 0, e, is nonpositive: there e is
    clamped at +0.0, and as d >= w > 0 makes b > 0, the root is +0.0. The
    root avoids cancellation for large positive b, and hypot stands in where
    b*b overflows (|b| > 1.3e154). Raises NumericError where it is not
    finite. Overflow on the way warns unless the caller holds
    np.errstate(over="ignore", invalid="ignore"), as run() and solve_rate do.
    """
    b = ak + d
    e = np.maximum(weight - d * k, 0.0)
    bb = b * b
    disc = np.sqrt(bb + four_a * e)
    if bb.max(initial=0.0) == math.inf:  # no b is NaN for finite d
        disc = np.where(np.isinf(bb) & (b > 0.0), np.hypot(b, 2.0 * np.sqrt(a * e)), disc)
    # one division per lane: the numerator and denominator of its branch
    low = b <= 0.0
    x = np.where(low, disc - b, e + e) / np.where(low, two_a, b + disc)
    # every root is positive, +0.0 or NaN
    if not x.max(initial=0.0) < math.inf:
        raise NumericError("rate root is not finite")
    return x


def solve_rate(p: RateProblem) -> float:
    """Maximizer of the slot objective over the utility domain."""
    a = 2.0 * p.alpha
    k = np.float64(p.utility.kind != "wlog")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(rate_lanes(k, p.utility.weight, p.pressure - a * p.x_prev, a, a * k,
                                2.0 * a, 4.0 * a))
