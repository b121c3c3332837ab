"""Samplers against the bodies they replaced, and ball-culled sampling
against the full sample it culls."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from menger_surf import analysis, energy
from menger_surf.integrand import IntegrandSpec
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, TriMesh, shapes
from menger_surf.surface.analytic import Capsule, SaddlePatch, Sphere, Torus

import sample_oracle

SAMPLE_SETTINGS = settings(max_examples=300, deadline=None)
CALLER_SETTINGS = settings(max_examples=12, deadline=None)

BACKINGS = ("sphere", "torus", "thin-hole torus", "capsule", "saddle",
            "mesh", "kink")


@functools.cache
def backing(kind):
    if kind == "sphere":
        return Sphere(0.7, center=(0.3, -0.2, 0.5))
    if kind == "torus":
        return Torus(2.0, 1.0)
    if kind == "thin-hole torus":
        return Torus(1.5, 1.2)
    if kind == "capsule":
        return Capsule(2.0, 0.5)
    if kind == "saddle":
        return SaddlePatch(1.0)
    if kind == "kink":
        from conftest import kink_box
        return kink_box(n=16)
    base = shapes.icosphere(2)
    radial = 1.0 + 0.05 * np.random.default_rng(3).standard_normal(
        (len(base.vertices), 1))
    return TriMesh(base.vertices * radial + np.array([5.0, 0.0, -1.0]),
                   base.faces)


def _center(surf, pts, where, r, seed):
    """A sampled point, one near it, one at distance r from it along an axis,
    or a point anywhere in the bounding box."""
    rng = np.random.default_rng(seed)
    p = pts[rng.integers(len(pts))]
    if where == "on":
        return p
    if where == "near":
        return p + rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-8.0, 0.0)
    if where == "edge":
        return p + r * np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
    box = surf.sample(substream(seed, 2), 64)[0]
    lo, hi = box.min(axis=0), box.max(axis=0)
    return lo + (hi - lo) * rng.random(3)


@SAMPLE_SETTINGS
@given(kind=st.sampled_from(BACKINGS),
       where=st.sampled_from(["on", "near", "edge", "box"]),
       rel_radius=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
       n=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_ball_keeps_full_sample_rows(kind, where, rel_radius, n, seed):
    surf = backing(kind)
    # radii from 1e-6 of three diameters up to three diameters
    r = 3.0 * surf.diameter * rel_radius
    full, ball = substream(seed, 3), substream(seed, 3)
    pts, nrm = surf.sample(full, n)
    x = _center(surf, pts, where, r, seed)
    bpts, bnrm = surf.sample(ball, n, (x, r))
    # the same draws: the generator ends in the same state
    assert np.array_equal(full.random(4), ball.random(4))
    row = {p.tobytes(): i for i, p in enumerate(pts)}
    rows = np.array([row[p.tobytes()] for p in bpts], dtype=np.int64)
    assert np.all(np.diff(rows) > 0)
    assert np.array_equal(pts[rows], bpts) and np.array_equal(nrm[rows], bnrm)
    # every row a caller's own test would accept survives the cull
    d = pts - x
    near = ((np.einsum("ij,ij->i", d, d) <= r * r)
            | (np.linalg.norm(d, axis=1) <= r))
    assert np.isin(np.flatnonzero(near), rows).all()


@SAMPLE_SETTINGS
@given(kind=st.sampled_from(BACKINGS),
       where=st.sampled_from(["none", "on", "near", "edge", "box"]),
       rel_radius=st.floats(-6.0, 0.0).map(lambda e: 10.0**e),
       n=st.integers(0, 9000), seed=st.integers(0, 2**32))
def test_samplers_match_oracle(kind, where, rel_radius, n, seed):
    surf = backing(kind)
    ball = None
    if where != "none":
        r = 3.0 * surf.diameter * rel_radius
        pts = sample_oracle.sample(surf, substream(seed, 5), 64)[0]
        ball = (_center(surf, pts, where, r, seed), r)
    ref_rng, both_rng, pts_rng = (substream(seed, 4) for _ in range(3))
    ref_pts, ref_nrm = sample_oracle.sample(surf, ref_rng, n, ball)
    got_pts, got_nrm = surf.sample(both_rng, n, ball)
    only_pts = surf.sample_points(pts_rng, n, ball)
    for got in (got_pts, got_nrm, only_pts):
        assert got.shape == ref_pts.shape and got.dtype == np.float64
    assert np.array_equal(got_pts, ref_pts) and np.array_equal(got_nrm, ref_nrm)
    assert np.array_equal(only_pts, ref_pts)
    # the same draws: every generator ends in the same state
    end = ref_rng.random(4)
    assert np.array_equal(both_rng.random(4), end)
    assert np.array_equal(pts_rng.random(4), end)


def test_sample_points_forms_no_normal(monkeypatch):
    """The oracle's points path reaches neither ``sample`` (so a traced
    ``surface.sample`` span never nests) nor any backing's normals."""
    def refuse(*args):
        raise AssertionError("normals formed")

    monkeypatch.setattr(SurfaceOracle, "sample", refuse)
    for kind in BACKINGS:
        monkeypatch.setattr(type(backing(kind)), "_normals", refuse)
    for kind in BACKINGS:
        surf = backing(kind)
        x = sample_oracle.sample(surf, substream(0, 1), 1)[0][0]
        for ball in (None, (x, 0.1 * surf.diameter)):
            assert len(SurfaceOracle(surf).sample_points(substream(0, 2), 500,
                                                         ball)) > 0


def _sliver_mesh(rng, tiny):
    """One large face with `tiny` faces of 1e-12 of its area on either side
    of it in the face list, so that they share one or two guide buckets."""
    big = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    small = rng.random((2 * tiny, 1, 3)) * 5.0 + np.array(
        [[0.0, 0.0, 2.0], [1e-5, 0.0, 2.0], [0.0, 1e-5, 2.0]])
    tris = np.concatenate([small[:tiny], big[None], small[tiny:]])
    return TriMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))


def _random_soup(rng, m):
    """m unconnected triangles with areas spread over eight decades."""
    tris = rng.random((m, 3, 3)) * 10.0 ** rng.uniform(-4.0, 0.0, (m, 1, 1))
    return TriMesh(tris.reshape(-1, 3), np.arange(3 * m).reshape(-1, 3))


def _grid(m):
    """m half-unit right triangles on an integer grid: every cumulative area
    times the guide scale (2) is an integer, so each lies on a bucket edge."""
    x = np.arange(m + 1, dtype=float)
    verts = np.concatenate([np.stack([x, 0 * x, 0 * x], axis=1),
                            np.stack([x, 0 * x + 1.0, 0 * x], axis=1)])
    i = np.arange(m)
    faces = np.stack([i, i + 1, i + m + 1], axis=1)
    faces[1::2] = np.stack([i + 1, i + m + 2, i + m + 1], axis=1)[1::2]
    return TriMesh(verts, faces)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["sliver", "soup", "grid", "mesh", "kink"]),
       size=st.integers(1, 3000), seed=st.integers(0, 2**32))
def test_guide_lookup_equals_searchsorted(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "sliver":
        surf = _sliver_mesh(rng, size)
    elif kind == "soup":
        surf = _random_soup(rng, size)
    elif kind == "grid":
        surf = _grid(size)
    else:
        surf = backing(kind)
    cum, total = surf.cum_areas, surf.total_area
    # every cumulative area, its neighbours, the ends, and uniform draws
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, np.inf),
                        [0.0, total, np.nextafter(total, 0.0)],
                        np.nextafter(total, 0.0) - np.arange(64) * 1e-16 * total,
                        rng.random(4096) * total, cum[:1] * rng.random(64)])
    u = rng.permutation(np.clip(u, 0.0, total))
    want = np.minimum(np.searchsorted(cum, u), len(cum) - 1)
    assert np.array_equal(surf._face_at(u), want)


@pytest.mark.parametrize("kind", BACKINGS)
def test_small_ball_culls_most_draws(kind):
    surf = backing(kind)
    x = surf.sample(substream(0, 1), 1)[0][0]
    pts, _ = surf.sample(substream(0, 2), 4096, (x, 0.05 * surf.diameter))
    assert 0 < len(pts) < 4096 // 2


class FullSampler(SurfaceOracle):
    """Reference oracle: ignores the ball, so every caller filters the full
    sample(rng, n) with its own exact test."""

    def sample(self, rng, n, ball=None):
        return self.backing.sample(rng, n)

    def sample_points(self, rng, n, ball=None):
        return self.backing.sample(rng, n)[0]


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


caller_kinds = st.sampled_from(["sphere", "torus", "thin-hole torus",
                                  "capsule", "saddle", "mesh"])


@CALLER_SETTINGS
@given(kind=caller_kinds, rel_radius=st.floats(0.01, 0.4),
       seed=st.integers(0, 2**32))
def test_patch_samples_match_full_sample(kind, rel_radius, seed):
    surf = backing(kind)
    x = surf.sample(substream(seed, 1), 1)[0][0]
    r = rel_radius * surf.diameter
    got = analysis.patch_samples(SurfaceOracle(surf), x, r, 3000, seed)
    ref = analysis.patch_samples(FullSampler(surf), x, r, 3000, seed)
    assert len(got) > 0 and np.array_equal(got, ref)


@CALLER_SETTINGS
@given(kind=caller_kinds, rel_radius=st.floats(0.005, 0.4),
       seed=st.integers(0, 2**32))
def test_local_energy_matches_full_sample(kind, rel_radius, seed):
    surf = backing(kind)
    x = surf.sample(substream(seed, 1), 1)[0][0]
    r = rel_radius * surf.diameter
    spec = IntegrandSpec("menger")
    got = _outcome(lambda: energy.local_energy(SurfaceOracle(surf), x, r, spec,
                                               8.0, 200, seed))
    ref = _outcome(lambda: energy.local_energy(FullSampler(surf), x, r, spec,
                                               8.0, 200, seed))
    assert got == ref


@CALLER_SETTINGS
@given(kind=caller_kinds, seed=st.integers(0, 2**32))
def test_oscillation_matches_full_sample(kind, seed):
    surf = backing(kind)
    x = surf.sample(substream(seed, 1), 1)[0][0]
    scales = [f * surf.diameter for f in (0.02, 0.05, 0.1, 0.3)]
    got = _outcome(lambda: analysis.normal_oscillation_profile(
        SurfaceOracle(surf), x, scales, 100, seed))
    ref = _outcome(lambda: analysis.normal_oscillation_profile(
        FullSampler(surf), x, scales, 100, seed))
    assert got == ref
