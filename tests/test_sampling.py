"""Ball-culled sampling returns exactly the rows of the full sample it can keep."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from menger_surf import analysis, energy
from menger_surf.integrand import IntegrandSpec
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, TriMesh, shapes
from menger_surf.surface.analytic import Capsule, SaddlePatch, Sphere, Torus

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
