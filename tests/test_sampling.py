"""Whole-surface samplers against the bodies they replaced, and the samplers
of a ball's cover against the whole-surface sample culled to the ball."""

import functools
import math

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
    box = SurfaceOracle(surf).sample(substream(seed, 2), 64)[0]
    lo, hi = box.min(axis=0), box.max(axis=0)
    return lo + (hi - lo) * rng.random(3)


@SAMPLE_SETTINGS
@given(kind=st.sampled_from([k for k in BACKINGS if k != "capsule"]),
       n=st.integers(0, 9000), seed=st.integers(0, 2**32))
def test_samplers_match_oracle(kind, n, seed):
    surf = backing(kind)
    ref_rng, both_rng, pts_rng = (substream(seed, 4) for _ in range(3))
    ref_pts, ref_nrm = sample_oracle.sample(surf, ref_rng, n)
    got_pts, got_nrm = SurfaceOracle(surf).sample(both_rng, n)
    only_pts = SurfaceOracle(surf).sample_points(pts_rng, n)
    for got in (got_pts, got_nrm, only_pts):
        assert got.shape == ref_pts.shape and got.dtype == np.float64
    assert np.array_equal(got_pts, ref_pts) and np.array_equal(got_nrm, ref_nrm)
    assert np.array_equal(only_pts, ref_pts)
    # the same draws: every generator ends in the same state
    end = ref_rng.random(4)
    assert np.array_equal(both_rng.random(4), end)
    assert np.array_equal(pts_rng.random(4), end)


@pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 20000])
def test_full_circle_torus_draws_unchanged(n):
    """The minor-angle rejection on the arc [0, 2 pi) with peak weight R + r
    makes the draws of the former whole-torus sampler, so every whole-surface
    estimate keeps its bits."""
    surf = backing("torus")
    ref_rng, rng = substream(n, 6), substream(n, 6)
    want = sample_oracle.torus(surf, ref_rng, n)[0]
    (u0, du), (v0, dv) = surf._arcs(None)
    assert (u0, du, v0, dv) == (0.0, 2.0 * np.pi, 0.0, 2.0 * np.pi)
    assert np.array_equal(SurfaceOracle(surf).sample_points(rng, n), want)
    assert np.array_equal(rng.random(4), ref_rng.random(4))


@pytest.mark.parametrize("n", [1, 4096, 9000])
def test_whole_capsule_is_its_full_band(n):
    """A whole-capsule draw is the draw with a ball that holds the whole
    capsule: the same rows and the same end state of the generator."""
    surf = backing("capsule")
    big = (np.zeros(3), 2.0 * surf.diameter)
    whole_rng, ball_rng = substream(n, 13), substream(n, 13)
    got = SurfaceOracle(surf).sample(whole_rng, n)
    want = SurfaceOracle(surf).sample(ball_rng, n, big)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert np.array_equal(whole_rng.random(4), ball_rng.random(4))


@pytest.mark.parametrize("kind", ["sphere", "torus", "capsule", "saddle", "mesh"])
@pytest.mark.parametrize("ball", [False, True])
def test_sample_points_fills_out(kind, ball):
    """With ``out`` the rows of the allocating call, bit for bit and with the
    same end state of the generator, land in ``out``, which comes back; a
    ball that misses the surface draws no rows and returns ``out[:0]``."""
    oracle = SurfaceOracle(backing(kind))
    x = oracle.sample_points(substream(0, 15), 1)[0]
    ball = (x, 0.2 * oracle.diameter) if ball else None
    want_rng, rng = substream(1, 15), substream(1, 15)
    want = oracle.sample_points(want_rng, 5000, ball)
    buf = np.full((5000, 3), np.nan)
    assert oracle.sample_points(rng, 5000, ball, out=buf) is buf
    assert np.array_equal(buf, want)
    assert np.array_equal(rng.random(4), want_rng.random(4))
    if ball is not None and kind != "torus":  # a torus cover is never empty
        far = (x + 10.0 * oracle.diameter, 1e-3)
        got = oracle.sample_points(rng, 5000, far, out=buf)
        assert len(got) == 0 and got.base is buf


def test_whole_capsule_heights_and_azimuths_are_uniform():
    """Archimedes: every height of the capsule carries the same area, so the
    whole-capsule points fall evenly into 10 height slices times 8 azimuth
    sectors (one-sample chi-square at level 1e-6)."""
    surf = backing("capsule")
    pts = SurfaceOracle(surf).sample_points(substream(0, 14), 40000)
    end = surf.half + surf.radius
    height = np.minimum(((pts[:, 2] + end) / (2.0 * end) * 10).astype(int), 9)
    azimuth = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * np.pi)
    sector = np.minimum((azimuth / (2.0 * np.pi) * 8).astype(int), 7)
    counts = np.bincount(8 * height + sector, minlength=80)
    expected = len(pts) / 80.0
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat <= _chi2_quantile(79, GOF_Z), stat


def _gauss_legendre(f, a, b, nodes=96):
    t, w = np.polynomial.legendre.leggauss(nodes)
    half = (b - a) / 2.0
    return float(np.sum(w * half * f(a + half + t * half)))


def _cover_closed_form(surf, x, r):
    """The area of the cover of B(x, r) by a formula or a quadrature of its
    own: the patch area on the sphere (the cover is the patch), Archimedes on
    the capsule, a 96-node quadrature of the
    area element on the torus and the saddle, the face sum on a mesh."""
    if isinstance(surf, Sphere):
        d = np.linalg.norm(x - surf.center)
        rho = surf.radius
        if d == 0.0:
            return surf.total_area if r >= rho else 0.0
        # the sphere's area inside a ball whose centre is d from its centre
        area = np.pi * rho * (r**2 - (rho - d) ** 2) / d
        return min(max(area, 0.0), surf.total_area)
    if isinstance(surf, Torus):
        (_, du), (v0, dv) = surf._arcs((x, r))
        return du * _gauss_legendre(
            lambda t: surf.r * (surf.R + surf.r * np.cos(v0 + t)), 0.0, dv)
    if isinstance(surf, Capsule):
        top = surf.half + surf.radius
        return 2.0 * np.pi * surf.radius * max(
            min(x[2] + r, top) - max(x[2] - r, -top), 0.0)
    if isinstance(surf, SaddlePatch):
        lo = np.maximum(x[:2] - r, -surf.L)
        hi = np.minimum(x[:2] + r, surf.L)
        if np.any(hi <= lo):
            return 0.0
        t, w = np.polynomial.legendre.leggauss(96)
        half = (hi - lo) / 2.0
        xs, ys = (lo + half)[:, None] + t * half[:, None]
        return float(np.sum(np.outer(w * half[0], w * half[1])
                            * np.sqrt(1.0 + xs[:, None]**2 + ys[None] ** 2)))
    return math.fsum(surf.face_areas[surf.box_distances(x)[0] <= r])


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(BACKINGS),
       where=st.sampled_from(["on", "near", "edge", "box"]),
       rel_radius=st.floats(-6.0, 0.5).map(lambda e: 10.0**e),
       seed=st.integers(0, 2**32))
def test_cover_area_matches_closed_form(kind, where, rel_radius, seed):
    surf = backing(kind)
    # radii from 1e-6 of a diameter up to about three diameters
    r = rel_radius * surf.diameter
    x = _center(surf, sample_oracle.sample(surf, substream(seed, 11), 64)[0],
                where, r, seed)
    want = _cover_closed_form(surf, x, r)
    got = surf.cover_area((x, r))
    assert abs(got - want) <= 1e-12 * want, (got, want)
    assert got <= surf.total_area * (1.0 + 1e-12)
    if got == 0.0:  # an empty cover: no draw at all
        assert len(SurfaceOracle(surf).sample_points(substream(seed, 12), 100,
                                                     (x, r))) == 0


def test_whole_cover_is_the_surface():
    for kind in BACKINGS:
        surf = backing(kind)
        big = (np.zeros(3) + 0.5, 4.0 * surf.diameter)
        assert surf.cover_area(big) == pytest.approx(surf.total_area, rel=1e-12)


def test_no_ball_covers_the_whole_surface():
    """Without a ball the cover is the whole surface, on every backing."""
    for kind in BACKINGS:
        oracle = SurfaceOracle(backing(kind))
        assert oracle.cover_area(None) == oracle.total_area, kind


def _chi2_quantile(df, z):
    """Upper quantile of the chi-square law with df degrees of freedom at the
    standard normal quantile z (Wilson and Hilferty 1931)."""
    a = 2.0 / (9.0 * df)
    return df * (1.0 - a + z * np.sqrt(a)) ** 3


# the two-sample goodness-of-fit tests reject at level 1e-6 (z = 4.753)
GOF_Z = 4.753


def _same_law(a, b, x, r, min_count=25):
    """Two-sample chi-square test that the patch points a and b of B(x, r)
    come from one law, over 4 shells of equal area in |p - x|^2 times the 8
    octants of p - x; bins with fewer than min_count points in all are
    pooled.  Returns (statistic, critical value at level 1e-6)."""
    def bins(p):
        d = p - x
        shell = np.minimum((4.0 * np.einsum("ij,ij->i", d, d) / r**2).astype(int), 3)
        octant = (d > 0.0) @ np.array([1, 2, 4])
        return np.bincount(8 * shell + octant, minlength=32)

    ca, cb = bins(a), bins(b)
    small = ca + cb < min_count
    ca = np.append(ca[~small], ca[small].sum())
    cb = np.append(cb[~small], cb[small].sum())
    keep = ca + cb > 0
    ca, cb = ca[keep], cb[keep]
    na, nb = ca.sum(), cb.sum()
    stat = float(np.sum((ca * np.sqrt(nb / na) - cb * np.sqrt(na / nb)) ** 2
                        / (ca + cb)))
    return stat, _chi2_quantile(max(len(ca) - 1, 1), GOF_Z)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(BACKINGS), rel_radius=st.floats(0.1, 0.4),
       offset=st.floats(0.0, 0.3), seed=st.integers(0, 2**32))
def test_local_sampler_is_area_uniform(kind, rel_radius, offset, seed):
    """The draws of a ball's cover that land in the ball follow the law of
    the whole-surface draws that land in it (``sample_oracle.patch``)."""
    surf = backing(kind)
    rng = np.random.default_rng(seed)
    r = rel_radius * surf.diameter
    x = (sample_oracle.sample(surf, substream(seed, 7), 1)[0][0]
         + offset * r * rng.standard_normal(3) / np.sqrt(3.0))
    pts = SurfaceOracle(surf).sample_points(substream(seed, 9), 4000, (x, r))
    d = pts - x
    got = pts[np.einsum("ij,ij->i", d, d) <= r * r]
    ref = sample_oracle.patch(surf, substream(seed, 10), 200000, (x, r))
    assert len(pts) == 4000
    if len(ref) < 100:  # a patch too small for the reference to judge
        return
    stat, critical = _same_law(got, ref, x, r)
    assert stat <= critical, (stat, critical, len(got), len(ref))


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
    """The cover of a small ball leaves out most of the surface before any
    draw, and the n draws on it reach the ball."""
    surf = backing(kind)
    x = SurfaceOracle(surf).sample(substream(0, 1), 1)[0][0]
    ball = (x, 0.05 * surf.diameter)
    pts, _ = SurfaceOracle(surf).sample(substream(0, 2), 4096, ball)
    d = np.linalg.norm(pts - x, axis=1)
    assert len(pts) == 4096 and np.any(d <= ball[1])
    assert 0.0 < surf.cover_area(ball) < surf.total_area / 2.0


class FullSampler(SurfaceOracle):
    """Reference oracle: its cover of every ball is the whole surface, so
    every caller filters the full sample(rng, n) with its own exact test."""

    def sample(self, rng, n, ball=None):
        return super().sample(rng, n)

    def sample_points(self, rng, n, ball=None):
        return super().sample(rng, n)[0]

    def cover_area(self, ball):
        return self.total_area


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


caller_kinds = st.sampled_from(["sphere", "torus", "thin-hole torus",
                                  "capsule", "saddle", "mesh"])


@CALLER_SETTINGS
@given(kind=caller_kinds, rel_radius=st.floats(0.1, 0.4),
       seed=st.integers(0, 2**32))
def test_patch_samples_match_full_sample(kind, rel_radius, seed):
    """The patch samples from the cover follow the law of those culled from
    whole-surface draws, and the cover fills every request."""
    surf = backing(kind)
    x = SurfaceOracle(surf).sample(substream(seed, 1), 1)[0][0]
    r = rel_radius * surf.diameter
    got = analysis.patch_samples(SurfaceOracle(surf), x, r, 3000, seed)
    ref = analysis.patch_samples(FullSampler(surf), x, r, 3000, seed)
    assert len(got) == 3000
    stat, critical = _same_law(got, ref, x, r)
    assert stat <= critical, (stat, critical, len(ref))


CIRCUM = IntegrandSpec("circumsphere")


@CALLER_SETTINGS
@given(kind=caller_kinds, rel_radius=st.floats(0.05, 0.4),
       seed=st.integers(0, 2**32))
def test_local_energy_matches_full_sample(kind, rel_radius, seed):
    """The estimate from the cover, with patch area cover_area * q, agrees
    with the one from whole-surface draws within 4 combined error bars."""
    surf = backing(kind)
    x = SurfaceOracle(surf).sample(substream(seed, 1), 1)[0][0]
    r = rel_radius * surf.diameter
    got = energy.local_energy(SurfaceOracle(surf), x, r, CIRCUM, 1.0, 500,
                              seed)
    ref = _outcome(lambda: energy.local_energy(FullSampler(surf), x, r, CIRCUM,
                                               1.0, 500, seed))
    assert got.n_samples == 500
    if isinstance(ref, str):  # too few whole-surface draws landed
        return
    assert abs(got.value - ref.value) <= 4.0 * np.hypot(got.std_error,
                                                        ref.std_error)
