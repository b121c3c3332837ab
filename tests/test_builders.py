"""The shared Fibonacci and grid builders and the array-code icosphere and
capsule builders against the code they replaced."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from menger_surf import geom
from menger_surf.surface import shapes

import builder_oracle

BUILD_SETTINGS = settings(max_examples=60, deadline=None)


def _same(got, want):
    """Equal dtype, shape and bytes, so the sign of every zero counts."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _beta_grid(n):
    return np.stack(geom.fibonacci_columns(2.0, n), axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 500, 2000, 8000, 32000, 128000,
                               512000])
def test_beta_grid_matches_oracle(n):
    _same(_beta_grid(n), builder_oracle.fibonacci_directions(n))


def _random_cap(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v), rng.uniform(1e-6, np.pi)


@BUILD_SETTINGS
@given(n=st.integers(1, 100000), seed=st.integers(0, 2**32))
def test_fibonacci_sets_match_oracle(n, seed):
    _same(_beta_grid(n), builder_oracle.fibonacci_directions(n))
    v, phi = _random_cap(np.random.default_rng(seed))
    _same(geom.cap_fibonacci(v, phi, n), builder_oracle.cap_fibonacci(v, phi, n))


@pytest.mark.parametrize("n", [1, 256, 600, 4096])
def test_cap_fibonacci_matches_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        v, phi = _random_cap(rng)
        _same(geom.cap_fibonacci(v, phi, n),
              builder_oracle.cap_fibonacci(v, phi, n))


def _check_graph(n):
    _same(shapes.graph_mesh(lambda x, y: x * y, 1.0, n).faces,
          builder_oracle.graph_faces(n))


def _check_torus(nu, nv):
    _same(shapes.torus_mesh(2.0, 1.0, nu, nv).faces,
          builder_oracle.torus_faces(nu, nv))


def _check_capsule(n_profile, n_around, length=2.0, radius=0.5):
    args = (length, radius, n_profile, n_around)
    mesh = shapes.capsule_mesh(*args)
    _same(mesh.vertices, builder_oracle.capsule_vertices(*args))
    rings = (len(mesh.vertices) - 2) // n_around  # between the two poles
    _same(mesh.faces, builder_oracle.capsule_faces(rings, n_around))


@pytest.mark.parametrize("n", [1, 3, 64, 128])
def test_graph_faces_match_oracle(n):
    _check_graph(n)


@pytest.mark.parametrize("nu, nv", [(3, 3), (7, 5), (192, 96)])
def test_torus_faces_match_oracle(nu, nv):
    _check_torus(nu, nv)


@pytest.mark.parametrize("n_profile, n_around", [(64, 128), (8, 6), (4, 3)])
def test_capsule_faces_match_oracle(n_profile, n_around):
    _check_capsule(n_profile, n_around)


@BUILD_SETTINGS
@given(a=st.integers(3, 40), b=st.integers(3, 40))
def test_grid_meshes_match_oracle(a, b):
    _check_graph(a)
    _check_torus(a, b)
    _check_capsule(a, b)


@pytest.mark.parametrize("k", range(6))
def test_icosphere_arrays_match_oracle(k):
    verts, faces = shapes._icosphere_arrays(k)
    want_verts, want_faces = builder_oracle.icosphere_arrays(k)
    assert len(verts) == 10 * 4**k + 2 and len(faces) == 20 * 4**k
    _same(verts, want_verts)
    _same(faces, want_faces)


@pytest.mark.parametrize("mesh, scale, k", [
    (shapes.icosphere(3, 2.5), 2.5, 3),
    (shapes.ellipsoid(1.3, 1.0, 0.8, 1), np.array([1.3, 1.0, 0.8]), 1)])
def test_icosphere_meshes_match_oracle(mesh, scale, k):
    verts, faces = builder_oracle.icosphere_arrays(k)
    assert len(mesh.vertices) == 10 * 4**k + 2
    _same(mesh.vertices, verts * scale)
    _same(mesh.faces, faces)


@pytest.mark.parametrize("length, radius, n_profile, n_around", [
    (2, 0.5, 64, 128), (10, 0.2, 64, 128), (1, 3, 8, 6), (5, 0.1, 3, 5),
    (2, 0.5, 2, 4)])
def test_capsule_vertices_match_oracle(length, radius, n_profile, n_around):
    _check_capsule(n_profile, n_around, length, radius)
