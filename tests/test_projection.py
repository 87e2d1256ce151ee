import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference import kkt_residual, project_bisect, project_rows_masked
from strategies import CAPACITIES, SESSION_COUNTS, arrays

import proxbp as P
from proxbp.projection import ProjectionInstance, project_rows, project_sorted

# (a, b, expected z, expected theta)
PINNED = (
    ([3.0, 1.0], 2.0, [2.0, 0.0], 1.0),
    ([1.0, 1.0], 1.0, [0.5, 0.5], 0.5),
    ([0.2, 0.1], 1.0, [0.2, 0.1], 0.0),          # slack budget, identity
    ([-1.0, -2.0], 1.0, [0.0, 0.0], 0.0),        # all negative, clip only
    ([2.0, -1.0], 0.0, [0.0, 0.0], 2.0),         # zero budget forces theta = max(a)
    ([5.0, 4.0, 1.0], 3.0, [2.0, 1.0, 0.0], 3.0),
)


def test_pinned_projections():
    for a, b, z_want, theta_want in PINNED:
        z, theta = project_sorted(ProjectionInstance(np.array(a), b))
        assert np.max(np.abs(z - np.array(z_want))) < 1e-12, (a, b, z)
        assert abs(theta - theta_want) < 1e-12, (a, b, theta)
        assert kkt_residual(ProjectionInstance(np.array(a), b), z, theta) < 1e-12


def test_sorted_handles_ties():
    inst = ProjectionInstance(np.array([2.0, 2.0, 2.0]), 3.0)
    z, theta = project_sorted(inst)
    assert np.max(np.abs(z - 1.0)) < 1e-12
    assert abs(theta - 1.0) < 1e-12


def test_random_instances_sorted_vs_bisect():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    for _ in range(1000):
        k = int(rng.integers(1, 17))
        a = rng.normal(0.0, 2.0, k)
        b = float(rng.uniform(0.0, 3.0))
        inst = ProjectionInstance(a, b)
        z, theta = project_sorted(inst)
        zb, _ = project_bisect(inst, tol=1e-12)
        assert kkt_residual(inst, z, theta) <= 1e-9
        assert np.max(np.abs(z - zb)) <= 1e-8
        assert z.sum() <= b + 1e-9
        assert np.all(z >= 0)
    assert time.monotonic() - start < 5.0


def test_projection_is_nonexpansive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        a1 = rng.normal(0.0, 3.0, k)
        a2 = a1 + rng.normal(0.0, 0.5, k)
        b = float(rng.uniform(0.0, 2.0))
        z1, _ = project_sorted(ProjectionInstance(a1, b))
        z2, _ = project_sorted(ProjectionInstance(a2, b))
        assert np.linalg.norm(z1 - z2) <= np.linalg.norm(a1 - a2) + 1e-12


def test_grid_optimality_small_instances():
    # exhaustive 1e-2 grid in two dimensions: nothing feasible beats the output
    rng = np.random.default_rng(2)
    for _ in range(30):
        a = rng.normal(0.5, 1.0, 2)
        b = float(rng.uniform(0.1, 2.0))
        inst = ProjectionInstance(a, b)
        z, _ = project_sorted(inst)
        best = float(np.sum((z - a) ** 2))
        axis = np.arange(0.0, b + 1e-12, 1e-2)
        for g0 in axis:
            rem = b - g0
            g1 = np.arange(0.0, rem + 1e-12, 1e-2)
            d = (g0 - a[0]) ** 2 + (g1 - a[1]) ** 2
            assert float(d.min()) >= best - 1e-12


def test_local_lattice_and_random_probes():
    rng = np.random.default_rng(3)
    deltas = np.array([-0.02, -0.01, 0.0, 0.01, 0.02])
    lattice = {k: np.array(list(itertools.product(deltas, repeat=k))) for k in range(2, 7)}
    start = time.monotonic()
    for _ in range(200):
        k = int(rng.integers(2, 7))
        a = rng.normal(0.3, 1.2, k)
        b = float(rng.uniform(0.1, 2.5))
        inst = ProjectionInstance(a, b)
        z, _ = project_sorted(inst)
        best = float(np.sum((z - a) ** 2))
        # +-0.02 lattice around the output, restricted to the feasible set
        cand = z[None, :] + lattice[k]
        feas = np.all(cand >= 0, axis=1) & (cand.sum(axis=1) <= b)
        if feas.any():
            dists = np.sum((cand[feas] - a[None, :]) ** 2, axis=1)
            assert float(dists.min()) >= best - 1e-12
        # random feasible probes
        probes = rng.uniform(0.0, 1.0, (25, k))
        scale = rng.uniform(0.0, 1.0, 25)
        sums = probes.sum(axis=1)
        sums[sums == 0] = 1.0
        probes = probes / sums[:, None] * (scale * b)[:, None]
        dists = np.sum((probes - a[None, :]) ** 2, axis=1)
        assert float(dists.min()) >= best - 1e-12
    assert time.monotonic() - start < 5.0


def test_instance_contract_errors():
    with pytest.raises(P.ContractError):
        ProjectionInstance(np.array([]), 1.0)
    with pytest.raises(P.ContractError):
        ProjectionInstance(np.array([1.0]), -0.5)
    with pytest.raises(P.ContractError):
        project_bisect(ProjectionInstance(np.array([1.0]), 1.0), tol=0.0)


def test_kkt_residual_flags_suboptimal_points():
    inst = ProjectionInstance(np.array([3.0, 1.0]), 2.0)
    z, theta = project_sorted(inst)
    assert kkt_residual(inst, z, theta) < 1e-12
    assert kkt_residual(inst, np.array([1.0, 1.0]), 0.0) > 0.1
    assert kkt_residual(inst, np.array([2.0, 0.0]), 0.0) > 0.1  # wrong multiplier


def test_project_rows_matches_project_sorted_per_row():
    rng = np.random.default_rng(13)
    for k in (1, 3, 8, 20):
        a = np.round(rng.normal(0.3, 1.0, (200, k)), 1)  # one decimal: many ties
        b = rng.choice([0.05, 0.5, 2.0, 50.0], 200)
        z = project_rows(a, b, ())
        for r in range(200):
            ref, _ = project_sorted(ProjectionInstance(a[r], b[r]))
            assert z[r].tobytes() == ref.tobytes()
    # masked rows, mixing zeros, -0.0, negatives and ties; under 8 entries a
    # row sums its clipped entries in the same order as its allowed entries
    values = np.array([0.0, -0.0, -1.0, -0.5, 0.5, 0.5, 1.0, 2.0])
    for k in (1, 2, 3, 5, 7):
        a = rng.choice(values, (400, k))
        mask = rng.uniform(size=(400, k)) < 0.6
        b = rng.choice([0.05, 0.5, 1.0, 2.0, 50.0], 400)
        z = project_rows(a, b, np.flatnonzero(~mask))
        assert z[~mask].tobytes() == np.zeros(int((~mask).sum())).tobytes()
        for r in range(400):
            if mask[r].any():
                ref, _ = project_sorted(ProjectionInstance(a[r, mask[r]], b[r]))
                assert z[r, mask[r]].tobytes() == ref.tobytes()


def test_project_rows_without_a_mask():
    rng = np.random.default_rng(21)
    for k in (1, 2, 3, 8, 9, 17):
        a = rng.normal(0.0, 2.0, (40, k))
        b = rng.choice([0.0, 0.5, 1.0, 50.0], 40)
        z = project_rows(a, b, ())
        assert project_rows_masked(a, b, None).tobytes() == z.tobytes()


def test_project_rows_masks_entries_out():
    a = np.array([[3.0, 5.0, 1.0], [2.0, -1.0, 4.0], [9.0, 9.0, 9.0]])
    mask = np.array([[True, False, True], [False, False, False], [True, True, True]])
    z = project_rows(a, np.array([2.0, 1.0, 3.0]), np.flatnonzero(~mask))
    assert z.tolist() == [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]


def test_project_rows_rejects_non_finite_input():
    # also at a forbidden pair: the input is checked before those are zeroed
    for bad, forbidden in itertools.product((math.nan, math.inf, -math.inf), ((), [3])):
        with pytest.raises(P.ContractError, match="^projection input must be finite$"):
            project_rows(np.array([[1.0, 0.0], [0.0, bad]]), np.ones(2), forbidden)


def test_project_rows_without_admissible_active_set():
    # a negative budget leaves the feasible set empty: no prefix is admissible
    with pytest.raises(P.NumericError):
        project_rows(np.array([[1.0, 0.5]]), np.array([-1.0]), ())


@st.composite
def _masked_rows(draw):
    """(a, b, mask): an (L, K) input, coarse (most entries tied, zeros and
    negatives common) or drawn entry by entry, budgets that bind or not, and
    a random allow mask."""
    n_l = draw(st.integers(1, 12))
    k = draw(st.sampled_from(SESSION_COUNTS + (17,)))
    coarse = draw(st.booleans())
    a = arrays(draw, (n_l, k), (-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.0), -2.0, 3.0,
               coarse)
    b = arrays(draw, (n_l,), (0.0,) + CAPACITIES, 0.0, 50.0, coarse)
    mask = draw(hnp.arrays(bool, (n_l, k), elements=st.booleans(), fill=st.nothing()))
    return a, b, mask


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_masked_rows())
def test_project_rows_matches_the_masked_reference(case):
    a, b, mask = case
    want = project_rows_masked(a, b, mask)
    forbidden = np.flatnonzero(~mask)
    z = project_rows(a, b, forbidden)
    assert z.tobytes() == want.tobytes()
    # the rounding bound of project_rows's docstring, which decision_faults
    # allows a proximal run's loads: 4 K^2 eps max |a_l| over the budget
    k = a.shape[1]
    assert (z.sum(axis=1) - b <= 4 * k * k * np.finfo(float).eps * np.abs(a).max(axis=1)).all()
