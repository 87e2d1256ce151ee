"""Euclidean projection onto the capped simplex {z >= 0, sum(z) <= b}.

Solves min 0.5*||z - a||^2 subject to z >= 0, sum(z) <= b, the inner step of
every link update. The optimum is a soft threshold z_k = max(0, a_k - theta)
with a water level theta >= 0 chosen so the budget holds with complementary
slackness, found by a descending sort and prefix scan. project_rows applies
it to every row of a matrix at once, the link phase of a slot;
project_sorted is its scalar reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .net import ContractError, NumericError


@dataclass(frozen=True, eq=False)
class ProjectionInstance:
    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if a.ndim != 1 or a.size < 1:
            raise ContractError(f"a must be a nonempty vector, got shape {a.shape}")
        b = float(self.b)
        if not (b >= 0 and math.isfinite(b)):
            raise ContractError(f"b must be a nonnegative real, got {self.b!r}")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def project_sorted(inst: ProjectionInstance) -> tuple:
    """Exact projection by descending sort and prefix scan. O(K log K).

    Returns (z, theta). Ties in a are ordered by original index, which cannot
    change z since z depends on values only.
    """
    a = inst.a
    b = inst.b
    clipped = np.maximum(a, 0.0)
    if clipped.sum() <= b:
        return clipped, 0.0
    # budget is tight: theta = (prefix_sum - b) / m for the active prefix m.
    order = np.argsort(-a, kind="stable")
    srt = a[order]
    prefix = np.cumsum(srt)
    m = np.arange(1, a.size + 1)
    theta_candidates = (prefix - b) / m
    ok = srt - theta_candidates >= 0.0
    # ok[0] always holds (a_max - (a_max - b) = b >= 0) and falsehood is
    # downward-closed, so the last True index is the active-set size.
    idx = np.nonzero(ok)[0]
    if idx.size == 0:
        raise NumericError("projection scan found no admissible active set")
    theta = float(max(theta_candidates[idx[-1]], 0.0))
    z = np.maximum(a - theta, 0.0)
    return z, theta


def project_rows(a, b, forbidden) -> np.ndarray:
    """Project every row of a (L, K) onto {z >= 0, sum(z) <= b_l}, with the
    entries at forbidden, flat indices into the C-ordered (L, K) matrix
    (Scenario.forbidden_entries), fixed at zero. Returns z (L, K).

    project_sorted applied to each row's allowed entries, with the same
    arithmetic: rows whose clipped sum fits the budget return the clipped row
    and skip the sort; the others sort descending and take the water level of
    the last admissible prefix, dividing by the ranks 1.0 .. K, which only
    this tight path builds. z matches project_sorted bitwise on fully
    allowed rows and on rows of fewer than 8 entries. Otherwise numpy's
    pairwise row sum may group the clipped entries differently, which moves
    the budget test by rounding only.

    The pairwise sum of a returned row exceeds b_l by at most 4 K^2 eps A,
    A = max |a_l|, u = eps / 2, to first order in u. Let s be the sorted
    clipped row, all in [0, A]. A row that skips the sort sums to at most b_l
    in one order, so within 2 gamma(K - 1) K A <= K^2 eps A of it in any
    other. A tight row has b_l < K A (1 + gamma). Its scan forms P_m, the
    sequential sum of s_1 .. s_m, within (m - 1) u m A of the exact sum, and
    theta_m from it and b_l with two roundings, so theta_m is within e_m =
    (m - 1) u A + 2 u K A / m <= 2 K u A of (sum - b_l) / m. At the last
    admissible m, s_m >= theta_m, so the top m entries give b_l plus at most
    m e_m; each later entry, s_(m+1) < theta_(m+1) being exact up to
    e_(m+1), exceeds theta_m by less than 2 e_(m+1) + e_m. Clipping theta
    at 0 only raises it, so the exact sum of the max(s - theta, 0) is at
    most b_l + 3 K max e_j <= b_l + 3 K^2 eps A. Rounding each entry and
    then their sum adds (u + gamma(K - 1)) b_l <= K^2 u A, and the K^2 u A
    left below the bound covers the higher orders.
    """
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ContractError("projection input must be finite")
    # Forbidden and negative entries of z are 0.0: they add +0.0 to every
    # sum, which leaves it unchanged. A tight row has a positive water level,
    # so no zero is admissible, the admissible prefix holds only positive
    # allowed entries, and a sort of z scans the same prefix as one of a.
    z = np.maximum(a, 0.0)
    if len(forbidden):
        z.put(forbidden, 0.0)
    # a is finite, so no row sum is NaN
    tight = (z.sum(axis=1) > b).nonzero()[0]
    if not tight.size:
        return z
    at = z.take(tight, axis=0)
    srt = at.copy()
    srt.sort(axis=1)
    srt = srt[:, ::-1]  # descending
    k = a.shape[1]
    theta_candidates = (srt.cumsum(axis=1) - b.take(tight)[:, None]) / np.arange(1.0, k + 1.0)
    # for finite values, srt - theta >= 0 exactly
    ok = srt >= theta_candidates
    # flat index of each row's last admissible entry, the first True of the
    # reversed row
    last = np.arange(k - 1, ok.size, k) - ok[:, ::-1].argmax(axis=1)
    if not ok.take(last).all():
        raise NumericError("projection scan found no admissible active set")
    theta = np.maximum(theta_candidates.take(last), 0.0)
    z[tight] = np.maximum(at - theta[:, None], 0.0)
    return z
