"""Hypothesis strategies for random scenarios and slot inputs, shared by the
tests that check the batched slot kernels against their scalar references.

Values are drawn from short lists or from intervals: the lists make ties (in
the projection input, in DPP differentials) and boundary cases (a wlog1p
source pinned at x = 0, an empty backlog) common, the intervals cover
everything in between. Capacities are tiny or huge so that both tight and
slack projection budgets occur.

Hypothesis spends its time per value drawn, so arrays are drawn whole with
hypothesis.extra.numpy, and each link or session is one integer code.
"""
import numpy as np
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import proxbp as P

SESSION_COUNTS = (1, 2, 3, 8, 9, 12)  # 8 and up: numpy sums rows pairwise
CAPACITIES = (0.05, 0.5, 1.0, 50.0)
UTILITY_WEIGHTS = (0.5, 1.0, 2.0)
# tokens that a mutation writes into a trace CSV or an oracle report: special
# and signed floats, integers past float precision and past int64, a
# non-ASCII digit, nothing
CSV_TOKENS = ("nan", "inf", "-0.0", "1e999", str(10**20), str(2**63), "\u0663", "")


def arrays(draw, shape, choices, lo, hi, coarse=False):
    """Float array of the given shape. A coarse array takes its entries from
    choices, most of them sharing one fill value; otherwise every entry is
    drawn on its own from [lo, hi], which holds the choices."""
    if coarse:
        return draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(choices)))
    return draw(hnp.arrays(np.float64, shape, elements=st.floats(lo, hi), fill=st.nothing()))


def _codes(draw, count, top):
    """count integers in [0, top], each drawn on its own."""
    return draw(hnp.arrays(np.int64, count, elements=st.integers(0, top),
                           fill=st.nothing())).tolist()


def _ends(draw, n, count):
    """count (tail, head) pairs on n nodes, one code each: the head is
    tail + offset (mod n) with offset in 1 .. n - 1, so never the tail."""
    return [(c // (n - 1), (c // (n - 1) + 1 + c % (n - 1)) % n)
            for c in _codes(draw, count, n * (n - 1) - 1)]


@st.composite
def scenarios(draw, allow=("full", "mixed")):
    """Random scenario. allow "full" lets every session use every link;
    "mixed" gives each link a full, an empty or a random allow-set."""
    n = draw(st.integers(2, 6))
    n_l = draw(st.integers(1, 12))
    caps = (CAPACITIES[c] for c in _codes(draw, n_l, len(CAPACITIES) - 1))
    links = tuple(P.Link(t, h, c) for (t, h), c in zip(_ends(draw, n, n_l), caps))
    f = draw(st.sampled_from(SESSION_COUNTS))
    # one code per session for its utility: kind and weight
    n_k = len(P.UTILITY_KINDS)
    utilities = [P.Utility(P.UTILITY_KINDS[c % n_k], UTILITY_WEIGHTS[c // n_k])
                 for c in _codes(draw, f, n_k * len(UTILITY_WEIGHTS) - 1)]
    sessions = tuple(P.Session(i, s, d, u)
                     for i, ((s, d), u) in enumerate(zip(_ends(draw, n, f), utilities)))
    full = frozenset(range(f))
    if draw(st.sampled_from(allow)) == "full":
        allowed = [full] * n_l
    else:
        # one code per link: full, empty, or the sessions of a bit mask
        allowed = [full if c == 0 else frozenset() if c == 1
                   else frozenset(i for i in range(f) if (c - 2) >> i & 1)
                   for c in _codes(draw, n_l, 2 ** f + 1)]
    return P.Scenario(P.Network(n, links), sessions, tuple(allowed))


@st.composite
def slot_cases(draw):
    """(scenario, Q, x_prev, mu_prev, config) for one proximal slot from arbitrary
    queues and previous decisions. Half of the cases are coarse, which makes
    tied projection inputs common."""
    sc = draw(scenarios())
    n, f, l = sc.n_nodes, sc.n_sessions, sc.n_links
    coarse = draw(st.booleans())
    q = arrays(draw, (n, f), (-2.0, 0.0, 0.5, 1.0, 3.0, 10.0), -10.0, 10.0, coarse)
    x_prev = arrays(draw, (f,), (0.0, 0.5, 1.0), 0.0, 3.0, coarse)
    mu_prev = arrays(draw, (l, f), (0.0, 0.25, 0.5), 0.0, 2.0, coarse)
    alpha = arrays(draw, (n,), (0.5, 1.0, 4.5, 12.5), 0.1, 20.0, coarse)
    return sc, q, x_prev, mu_prev, P.AlgConfig(alpha)
