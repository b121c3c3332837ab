"""The column kernel agrees bit for bit with the (n, 3)-array oracle, the
rank-ordered blocks with the sorting network, and the annealer's
incremental energy table with the exhaustive sum."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anneal_oracle
import kernel_oracle as oracle
from menger_surf import geom, minimize
from menger_surf.integrand import (IntegrandSpec, _canonical_points,
                                   _ranked_block, _symmetric, eval_batch)
from menger_surf.surface import TriMesh, shapes

KERNEL_SETTINGS = settings(max_examples=40, deadline=None)
SPECS = (IntegrandSpec(kind="menger"), IntegrandSpec(kind="circumsphere"),
         IntegrandSpec(kind="scaled", s=0.5),
         IntegrandSpec(kind="leger", mean="geometric", alpha=2.5))
SIZES = (1, 2, 5, geom.TETRA_CHUNK - 1, geom.TETRA_CHUNK, geom.TETRA_CHUNK + 1)


def stack(n, seed, log_scale, grid):
    """Quadruples with repeated points, tied coordinates, coplanar and
    collinear members and signed zeros, scaled by 10**log_scale."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n, 4, 3))
    if grid:
        # coarse coordinates: lexicographic ties on x and on (x, y)
        P = np.round(P * 2.0) / 2.0
    kind = rng.integers(0, 6, n)
    i, j = rng.integers(0, 4, (2, n))
    rows = np.flatnonzero(kind == 1)
    P[rows, i[rows]] = P[rows, j[rows]]                       # repeated point
    rows = np.flatnonzero(kind == 2)
    a, b = rng.random((2, len(rows), 1))
    P[rows, 3] = P[rows, 0] + a * (P[rows, 1] - P[rows, 0]) + b * (P[rows, 2] - P[rows, 0])
    rows = np.flatnonzero(kind == 3)
    P[rows, :, 2] = 0.0                                       # flat stack
    rows = np.flatnonzero(kind == 4)
    P[rows] = P[rows, :1] + rng.random((len(rows), 4, 1)) * (P[rows, 1:2] - P[rows, :1])
    rows = np.flatnonzero(kind == 5)
    P[rows, i[rows], 0] = -0.0
    P[rows, j[rows], 0] = 0.0
    return P * 10.0**log_scale


stacks = st.builds(stack, st.sampled_from(SIZES), st.integers(0, 2**32 - 1),
                   st.floats(-150.0, 150.0), st.booleans())


def assert_bits_equal(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape
        # NaN only where both overflow at the extreme scales
        assert np.array_equal(g, w, equal_nan=True)


@KERNEL_SETTINGS
@given(stacks)
def test_tetra_quantities_match_oracle(P):
    with np.errstate(all="ignore"):
        assert_bits_equal(geom.tetra_quantities(P), oracle.tetra_quantities(P))
        # the column kernel's bits do not depend on the memory layout of
        # its input; the oracle's einsum sums in another order on strided rows
        C = _canonical_points(P)
        assert_bits_equal(geom.tetra_quantities(C),
                          oracle.tetra_quantities(np.ascontiguousarray(C)))


@KERNEL_SETTINGS
@given(stacks)
def test_circumsphere_radius_matches_oracle(P):
    with np.errstate(all="ignore"):
        assert_bits_equal(geom.circumsphere_radius_batch(P),
                          oracle.circumsphere_radius_batch(P))


@KERNEL_SETTINGS
@given(stacks)
def test_eval_batch_matches_oracle(P):
    with np.errstate(all="ignore"):
        for spec in SPECS:
            assert_bits_equal([eval_batch(spec, P)], [oracle.eval_batch(spec, P)])


@KERNEL_SETTINGS
@given(stacks)
def test_sorting_network_matches_lexsort(P):
    # equal up to the sign of zeros, which == does not see
    assert np.array_equal(_canonical_points(P), oracle.canonical_points(P))
    assert np.array_equal(_canonical_points(P[:, :3]), oracle.canonical_points(P[:, :3]))


def test_circumsphere_does_not_rerun_tetra_quantities(monkeypatch):
    P = stack(16, 0, 0.0, False)
    want = geom.circumsphere_radius_batch(P)

    def fail(P):
        raise AssertionError("tetra_quantities called")
    monkeypatch.setattr(geom, "tetra_quantities", fail)
    assert_bits_equal(geom.circumsphere_radius_batch(P), want)


def test_empty_stack():
    out = geom.tetra_quantities(np.zeros((0, 4, 3)))
    assert [a.shape for a in out] == [(0,)] * 5
    assert eval_batch(SPECS[0], np.zeros((0, 4, 3))).shape == (0,)


def point_set(n, seed):
    """n points with ties in x and in (x, y), repeated points and signed
    zero coordinates."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    i, j = rng.integers(0, n, (2, 4 * n))
    X[i[:n], 0] = X[j[:n], 0]                      # ties in x
    X[i[n:2 * n], :2] = X[j[n:2 * n], :2]          # ties in (x, y)
    X[i[2 * n:2 * n + n // 4]] = X[j[2 * n:2 * n + n // 4]]  # repeated points
    zeros = rng.random((n, 3)) < 0.15
    X[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
    return X


point_sets = st.builds(point_set, st.integers(4, 64), st.integers(0, 2**32 - 1))
SYMMETRIC = SPECS[:3]


@KERNEL_SETTINGS
@given(point_sets, st.integers(0, 2**32 - 1))
def test_ranked_block_matches_canonical_points(X, seed):
    # random index quadruples, repeated indices too, and every 4-subset
    n = len(X)
    quads = np.random.default_rng(seed).integers(0, n, (300, 4))
    if n <= 12:
        quads = np.vstack([quads, list(itertools.combinations(range(n), 4))])
    P = X[quads]
    out = np.empty((4, 3, len(quads)))
    got = _ranked_block(X, quads.T, out)
    assert np.shares_memory(got, out)
    # equal up to the sign of zeros, which == does not see
    assert np.array_equal(got, _canonical_points(P))
    for spec in SYMMETRIC:
        assert _symmetric(spec, got).tobytes() == eval_batch(spec, P).tobytes()


# C(n, 4) rows: 1, 7,315 and 8,855 (either side of one TETRA_CHUNK),
# 10,626, 12,650, 111,930 and 635,376
@pytest.mark.parametrize("n", [4, 22, 23, 24, 25, 42, 64])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 9.0]))
def test_energy_table_rows_match_eval_batch(n, seed, p):
    X = point_set(n, seed)
    table = minimize._EnergyTable(X, np.array([[0, 1, 2]]), p)
    combos = np.array(list(itertools.combinations(range(n), 4)))
    want = np.concatenate([eval_batch(SPECS[0], X[rows]) ** p
                           for rows in np.array_split(combos, -(-len(combos) // 2**16))])
    assert table.kp.tobytes() == want.tobytes()


@pytest.mark.parametrize("level", [0, 1])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_energy_table_moves_and_undos_match_discrete_energy(level, seed):
    mesh = shapes.icosphere(level)
    rng = np.random.default_rng(seed)
    cfg = minimize.DiscreteEnergyConfig(p=9.0)
    table = minimize._EnergyTable(mesh.vertices, mesh.faces, cfg.p)
    for _ in range(12 if level == 0 else 4):
        vi = int(rng.integers(len(mesh.vertices)))
        undo = table.move(vi, table.verts[vi] + 0.05 * rng.standard_normal(3))
        if rng.random() < 0.4:
            undo()
        moved = TriMesh(table.verts.copy(), mesh.faces)
        assert table.energy() == anneal_oracle.exhaustive_energy(moved, cfg.p)
        assert table.energy() == minimize.discrete_energy(moved, cfg)


@pytest.mark.parametrize("n", [4, 5, 6, 23, 42, 64])
def test_combos_match_itertools(n):
    cols, (t0, t1, t2, reps), rows_of = minimize._combos(n)
    quads = np.array(list(itertools.combinations(range(n), 4)))
    triples = np.array(list(itertools.combinations(range(n), 3)))
    assert np.array_equal(np.stack(cols, axis=1), quads)
    assert np.array_equal(np.stack([t0, t1, t2], axis=1), triples)
    # each 3-subset begins the next reps[i] rows of the 4-subsets
    assert np.array_equal(np.repeat(triples, reps, axis=0), quads[:, :3])
    for v in (0, n // 2, n - 1):
        assert np.array_equal(rows_of[v], np.flatnonzero((quads == v).any(axis=1)))


def test_combos_keeps_the_two_latest_sizes():
    minimize._combos.cache_clear()
    for n in (4, 5, 6):
        minimize._combos(n)
    info = minimize._combos.cache_info()
    assert info.currsize == 2 and info.misses == 3
    assert minimize._combos(5) is minimize._combos(5)
    assert minimize._combos.cache_info().hits == 2
