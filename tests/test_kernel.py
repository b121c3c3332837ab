"""The column kernel agrees bit for bit with the (n, 3)-array oracle, and the
annealer's incremental energy table with the exhaustive sum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from menger_surf import geom, minimize
from menger_surf.integrand import IntegrandSpec, _canonical_points, eval_batch
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
        exhaustive = minimize.discrete_energy(TriMesh(table.verts.copy(), mesh.faces), cfg)
        assert table.energy() == exhaustive
