"""Hypothesis strategies for random scenarios and slot states, shared by the
tests that check the batched slot kernels against their scalar references.

Values are drawn from short lists or from intervals: the lists make ties (in
the projection input, in DPP differentials) and boundary cases (a wlog1p
source pinned at x = 0, an empty backlog) common, the intervals cover
everything in between. Capacities are tiny or huge so that both tight and
slack projection budgets occur.
"""
import numpy as np
from hypothesis import strategies as st

import proxbp as P

SESSION_COUNTS = (1, 2, 3, 8, 9, 12)  # 8 and up: numpy sums rows pairwise


def arrays(draw, shape, choices, lo, hi, coarse=False):
    """Array of the given shape; coarse draws only from choices."""
    size = int(np.prod(shape))
    value = st.sampled_from(choices)
    if not coarse:
        value = st.one_of(value, st.floats(lo, hi))
    return np.array(draw(st.lists(value, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def scenarios(draw, allow=("full", "mixed")):
    """Random scenario. allow "full" lets every session use every link;
    "mixed" gives each link a full, an empty or a random allow-set."""
    n = draw(st.integers(2, 6))
    # (tail, offset): the head tail + offset (mod n) is never the tail
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    ends = draw(st.lists(pair, min_size=1, max_size=12))
    caps = draw(st.lists(st.sampled_from((0.05, 0.5, 1.0, 50.0)),
                         min_size=len(ends), max_size=len(ends)))
    links = tuple(P.Link(t, (t + k) % n, c) for (t, k), c in zip(ends, caps))
    f = draw(st.sampled_from(SESSION_COUNTS))
    utility = st.builds(P.Utility, st.sampled_from(P.UTILITY_KINDS), st.sampled_from((0.5, 1.0, 2.0)))
    ends = draw(st.lists(pair, min_size=f, max_size=f))
    utilities = draw(st.lists(utility, min_size=f, max_size=f))
    sessions = tuple(P.Session(i, s, (s + k) % n, u)
                     for i, ((s, k), u) in enumerate(zip(ends, utilities)))
    full = frozenset(range(f))
    if draw(st.sampled_from(allow)) == "full":
        allowed = [full] * len(links)
    else:
        subset = st.one_of(st.just(full), st.just(frozenset()),
                           st.frozensets(st.integers(0, f - 1)))
        allowed = draw(st.lists(subset, min_size=len(links), max_size=len(links)))
    return P.Scenario(P.Network(n, links), sessions, tuple(allowed))


@st.composite
def slot_cases(draw):
    """(scenario, state, config) for one proximal slot from an arbitrary state.
    Half of the states are coarse, which makes tied projection inputs common."""
    sc = draw(scenarios())
    n, f, l = sc.n_nodes, sc.n_sessions, sc.n_links
    coarse = draw(st.booleans())
    q = arrays(draw, (n, f), (-2.0, 0.0, 0.5, 1.0, 3.0, 10.0), -10.0, 10.0, coarse)
    x_prev = arrays(draw, (f,), (0.0, 0.5, 1.0), 0.0, 3.0, coarse)
    mu_prev = arrays(draw, (l, f), (0.0, 0.25, 0.5), 0.0, 2.0, coarse)
    alpha = arrays(draw, (n,), (0.5, 1.0, 4.5, 12.5), 0.1, 20.0, coarse)
    state = P.BpState(q, P.DecisionVector(x_prev, mu_prev), 1)
    return sc, state, P.AlgConfig(alpha)
