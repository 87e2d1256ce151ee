import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import objective, slope

import proxbp as P
from proxbp.rates import RateProblem, rate_lanes, solve_rate


def test_wlog_closed_form_examples():
    # zero pressure, zero history, alpha 1: max log x - x^2 at x = 1/sqrt(2)
    p = RateProblem(P.Utility("wlog", 1.0), 0.0, 0.0, 1.0)
    assert abs(solve_rate(p) - 1.0 / math.sqrt(2.0)) < 1e-12
    # root of 1/x = W when the proximal pull cancels: W=2, x_prev=0.5, alpha large
    p = RateProblem(P.Utility("wlog", 1.0), 1.0, 1.0, 1.0)
    # h(x) = 1/x - 1 - 2(x - 1) = 0 -> 2x^2 - x - 1 = 0 -> x = 1
    assert abs(solve_rate(p) - 1.0) < 1e-12


def test_wlog1p_boundary_and_interior():
    u = P.Utility("wlog1p", 1.0)
    # slope at 0 is w - W - 2 a (0 - x_prev); pressure 2 with x_prev 0 pins 0
    assert solve_rate(RateProblem(u, 2.0, 0.0, 1.0)) == 0.0
    assert solve_rate(RateProblem(u, 1.0, 0.0, 1.0)) == 0.0  # slope(0) = 0 exactly
    # interior: pressure 0, x_prev 0, alpha 1: 1/(1+x) = 2x -> x = (sqrt(3)-1)/2
    x = solve_rate(RateProblem(u, 0.0, 0.0, 1.0))
    assert abs(x - (math.sqrt(3.0) - 1.0) / 2.0) < 1e-9


def test_negative_pressure_raises_rate():
    u = P.Utility("wlog", 1.0)
    base = solve_rate(RateProblem(u, 0.0, 1.0, 1.0))
    pulled = solve_rate(RateProblem(u, -3.0, 1.0, 1.0))
    assert pulled > base


def _stationarity_scale(p, x):
    """Magnitude of the terms of h(x), so that |h(x)| / scale is a relative residual."""
    return p.utility.weight + abs(p.pressure) + 2.0 * p.alpha * (x + p.x_prev)


def test_solution_is_stationary_and_optimal():
    rng = np.random.default_rng(4)
    start = time.monotonic()
    for _ in range(1000):
        kind = "wlog" if rng.uniform() < 0.5 else "wlog1p"
        u = P.Utility(kind, float(rng.uniform(0.1, 5.0)))
        p = RateProblem(u, float(rng.normal(0.0, 10.0)), float(rng.uniform(0.0, 4.0)),
                        10.0 ** float(rng.uniform(-1.3, 3.0)))
        x = solve_rate(p)
        assert x >= 0.0
        if kind == "wlog" or x > 0:
            assert abs(slope(p, x)) <= 1e-12 * _stationarity_scale(p, x), \
                (kind, p.pressure, p.x_prev, p.alpha, x)
        else:
            assert slope(p, 0.0) <= 0.0
        # strong concavity: any other point loses at least alpha * distance^2
        for probe in (x + 0.1, x * 0.5 + 1e-3, x + 1.0):
            if probe <= 0 and kind == "wlog":
                continue
            assert objective(p, x) >= objective(p, probe) + p.alpha * (x - probe) ** 2 - 1e-8
    assert time.monotonic() - start < 5.0


def test_closed_form_matches_bisection():
    rng = np.random.default_rng(5)
    for kind in ("wlog", "wlog1p"):
        for _ in range(300):
            u = P.Utility(kind, float(rng.uniform(0.2, 4.0)))
            p = RateProblem(u, float(rng.normal(0.0, 8.0)), float(rng.uniform(0.0, 3.0)),
                            float(rng.uniform(0.1, 10.0)))
            x_closed = solve_rate(p)
            if kind == "wlog1p" and slope(p, 0.0) <= 0:
                assert x_closed == 0.0
                continue
            lo, hi = (1e-12 if kind == "wlog" else 0.0), max(1.0, 2.0 * x_closed)
            while slope(p, hi) > 0:
                hi *= 2.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if slope(p, mid) > 0:
                    lo = mid
                else:
                    hi = mid
            assert abs(x_closed - 0.5 * (lo + hi)) < 1e-8


def test_objective_beats_fine_grid():
    # grid values computed directly from the formula, not through objective()
    rng = np.random.default_rng(6)
    for _ in range(40):
        kind = "wlog" if rng.uniform() < 0.5 else "wlog1p"
        w = float(rng.uniform(0.2, 3.0))
        u = P.Utility(kind, w)
        p = RateProblem(u, float(rng.normal(0.0, 5.0)), float(rng.uniform(0.0, 2.0)),
                        float(rng.uniform(0.2, 5.0)))
        x = solve_rate(p)
        x_hi = max(2.0 * x, 1.0)
        grid = np.arange(1e-4 if kind == "wlog" else 0.0, x_hi, 1e-4)
        util = w * np.log(grid) if kind == "wlog" else w * np.log1p(grid)
        vals = util - p.pressure * grid - p.alpha * (grid - p.x_prev) ** 2
        assert objective(p, x) >= float(vals.max()) - 1e-9


def test_monotone_in_pressure():
    u = P.Utility("wlog", 1.0)
    xs = [solve_rate(RateProblem(u, w, 0.5, 2.0)) for w in (-2.0, 0.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(xs, xs[1:]))


def test_contract_errors():
    u = P.Utility("wlog", 1.0)
    with pytest.raises(P.ContractError):
        RateProblem(u, 0.0, 0.0, 0.0)
    with pytest.raises(P.ContractError):
        RateProblem(u, 0.0, -1.0, 1.0)
    with pytest.raises(P.ContractError):
        RateProblem(u, math.inf, 0.0, 1.0)


def _utility(shift, weight):
    """The Utility whose utility shift is shift: wlog at 0.0, wlog1p at 1.0."""
    return P.Utility(P.UTILITY_KINDS[int(shift)], float(weight))


# pinned wlog1p lanes, one with slope exactly 0 at x = 0; d = -0.0 for both
# kinds; |b| > 1.3e154, where b*b overflows, for both kinds; a pressure of
# -1e30, whose wlog1p root near 5e29 is finite. Columns: shift, weight,
# pressure, x_prev, alpha.
PINNED_LANES = ((1.0, 1.0, 2.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0, 1.0),
                (0.0, 1.0, -0.0, 0.0, 1.0), (1.0, 1.0, -0.0, 0.0, 1.0),
                (0.0, 1.0, 1e200, 0.0, 1.0), (1.0, 1.0, 1e200, 0.0, 1.0),
                (0.0, 2.0, 3e170, 0.5, 3.0), (1.0, 0.5, -1e150, 0.0, 1.0),
                (1.0, 1.0, -1e30, 0.0, 1.0))


def _random_lanes(seed, n, zero_share):
    """n random lanes, zero_share of them with x_prev = 0: the columns of
    PINNED_LANES as arrays."""
    rng = np.random.default_rng(seed)
    shift = np.where(rng.uniform(size=n) < 0.5, 0.0, 1.0)
    weight = rng.uniform(0.1, 5.0, n)
    pressure = rng.normal(0.0, 10.0, n)
    x_prev = np.where(rng.uniform(size=n) < zero_share, 0.0, rng.uniform(0.0, 4.0, n))
    alpha = rng.uniform(0.05, 20.0, n)
    return shift, weight, pressure, x_prev, alpha


def _slot_rates(shift, weight, pressure, x_prev, alpha):
    """The rates of one slot's rate phase: rate_lanes over every lane at once
    with the per-run constants that SlotConstants forms, under the errstate
    that run() holds."""
    a = 2.0 * alpha
    with np.errstate(over="ignore", invalid="ignore"):
        return rate_lanes(shift, weight, pressure - a * x_prev, a, a * shift,
                          2.0 * a, 4.0 * a)


def _scalar_rates(shift, weight, pressure, x_prev, alpha):
    """solve_rate lane by lane: the reference for the batch rate path."""
    return np.array([solve_rate(RateProblem(_utility(k, u), float(p), float(xp), float(al)))
                     for k, u, p, xp, al in zip(shift, weight, pressure, x_prev, alpha)])


def test_solve_rates_matches_solve_rate():
    # the batch rate path solves many random lanes at once, bit for bit as
    # solve_rate does one by one, and pins some wlog1p sources at 0
    cols = _random_lanes(12, 2000, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _slot_rates(*cols)
    assert x.tobytes() == _scalar_rates(*cols).tobytes()
    wlog1p = x[cols[0] == 1.0]
    assert np.any(wlog1p == 0.0) and np.any(wlog1p > 0.0)


def test_slot_rate_path_matches_solve_rate_lane_by_lane():
    random = _random_lanes(31, 400, 0.2)
    n = random[0].size
    cols = [np.concatenate((c, v)) for c, v in zip(random, zip(*PINNED_LANES))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = _slot_rates(*cols)
    assert x.tobytes() == _scalar_rates(*cols).tobytes()
    tail = x[n:].tolist()
    # the pinned lanes sit at +0.0; at d = -0.0 the roots of 1/x = 2x and
    # 1/(1+x) = 2x
    assert [repr(v) for v in tail[:2]] == ["0.0", "0.0"]
    assert abs(tail[2] - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert abs(tail[3] - (math.sqrt(3.0) - 1.0) / 2.0) <= 1e-15
    assert repr(tail[5]) == "0.0" and abs(tail[4] - 1e-200) <= 1e-15 * 1e-200
    p = RateProblem(P.Utility("wlog1p", 1.0), -1e30, 0.0, 1.0)
    assert abs(slope(p, tail[8])) <= 1e-12 * _stationarity_scale(p, tail[8])


def test_overflow_raises_in_both_solvers():
    # at -1e200 the root overflows, for either utility kind; in the slot's
    # path, a lane that does so among the finite pinned lanes
    for shift in (0.0, 1.0):
        with pytest.raises(P.NumericError):
            solve_rate(RateProblem(_utility(shift, 1.0), -1e200, 0.0, 1.0))
        bad = [np.array(c) for c in zip(*PINNED_LANES, (shift, 1.0, -1e200, 0.0, 1.0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(P.NumericError):
                _slot_rates(*bad)


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(a=_log_uniform(-6, 6), neg_c=_log_uniform(-6, 6), ratio=_log_uniform(-3, 8),
       sign=st.sampled_from((-1.0, 1.0)))
def test_positive_quad_root_residual(a, neg_c, ratio, sign):
    # b = ratio * sqrt(a|c|): ratio >> 1 with sign +1 is the regime where the
    # textbook (-b + disc) / 2a loses every digit to cancellation. A wlog
    # lane with d = b and weight -c solves a*x^2 + b*x + c = 0.
    c = -neg_c
    b = sign * ratio * math.sqrt(a * neg_c)
    k = np.float64(0.0)
    r = rate_lanes(k, neg_c, b, a, a * k, 2.0 * a, 4.0 * a)
    assert r > 0
    terms = (a * r * r, b * r, c)
    assert abs(sum(terms)) <= 1e-12 * max(abs(v) for v in terms)
