import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from pytest import approx

import beta_oracle
import density_oracle
from conftest import exactly
from menger_surf import InputError, analysis, geom
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, sample_point, shapes
from menger_surf.surface.trimesh import _point_tri_sqdist


@pytest.fixture(scope="module")
def flat_oracle():
    mesh = shapes.flat_patch(2.0, 24)
    oracle = SurfaceOracle.from_mesh(mesh)
    verts = mesh.vertices
    center = int(np.argmin(np.einsum("ij,ij->i", verts, verts)))
    return oracle, verts[center]


class TestExponents:
    def test_p10(self):
        e = analysis.exponents(10.0)
        assert e["kappa"] == approx(2.0 / 26.0)
        assert e["lambda"] == approx(0.2)

    def test_p24(self):
        e = analysis.exponents(24.0)
        assert e["kappa"] == approx(0.4)
        assert e["lambda"] == approx(2.0 / 3.0)

    def test_limits(self):
        e = analysis.exponents(1e9)
        assert e["kappa"] == approx(1.0, abs=1e-7)
        assert e["lambda"] == approx(1.0, abs=1e-8)

    def test_ordering(self):
        for p in (8.5, 9.0, 12.0, 100.0):
            e = analysis.exponents(p)
            assert 0.0 < e["kappa"] < e["lambda"] < 1.0

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError):
            analysis.exponents(8.0)


class TestBalanceEpsilon:
    def test_solves_equation(self):
        eta, p, d, E = 0.01, 10.0, 0.1, 1.0
        eps = analysis.balance_epsilon(eta, p, d, E)
        lhs = (16.0 + p) * np.log(eps) + (8.0 - p) * np.log(d)
        rhs = p * (np.log(18e4) - 3.0 * np.log(eta)) + np.log(E)
        assert lhs == approx(rhs, abs=1e-9)

    def test_monotone_in_d_and_E(self):
        vals_d = [analysis.balance_epsilon(0.1, 10.0, d, 1.0)
                  for d in (0.01, 0.1, 1.0, 10.0)]
        assert all(b > a for a, b in zip(vals_d, vals_d[1:]))
        vals_e = [analysis.balance_epsilon(0.1, 10.0, 1.0, E)
                  for E in (0.1, 1.0, 10.0)]
        assert all(b > a for a, b in zip(vals_e, vals_e[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.balance_epsilon(1.5, 10.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            analysis.balance_epsilon(0.1, 8.0, 1.0, 1.0)


class TestDensity:
    def test_unit_sphere_cap(self, unit_sphere):
        x = unit_sphere.tessellate().vertices[0]
        rep = analysis.density_quotient(unit_sphere, x, 0.5, depth=8)
        assert rep.quotient == approx(np.pi, rel=0.01)
        assert rep.passes_lower_bound

    def test_flat_patch_disk(self, flat_oracle):
        oracle, center = flat_oracle
        rep = analysis.density_quotient(oracle, center, 0.35, depth=8)
        assert rep.quotient == approx(np.pi, rel=0.01)
        assert rep.passes_lower_bound

    def test_error_bound_honored(self, unit_sphere):
        x = unit_sphere.tessellate().vertices[0]
        for depth in (6, 7, 8):
            rep = analysis.density_quotient(unit_sphere, x, 0.4, depth=depth)
            exact = np.pi * 0.4**2
            # tessellation bias is well below the clipping bound here
            assert abs(rep.patch_area - exact) <= rep.error_bound + 2e-4

    def test_off_surface_rejected(self, unit_sphere):
        with pytest.raises(InputError,
                           match=exactly("x lies 0.5 off the surface")):
            analysis.density_quotient(unit_sphere, [0.0, 0.0, 1.5], 0.3)


@pytest.fixture(scope="module")
def density_surfaces():
    return {"sphere": SurfaceOracle.sphere(1.0),
            "icosphere3": SurfaceOracle.from_mesh(shapes.icosphere(3)),
            "torus": SurfaceOracle.torus(2.0, 1.0),
            "saddle": SurfaceOracle.saddle(1.0)}


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["sphere", "icosphere3", "torus", "saddle"]),
       seed=st.integers(0, 2**32 - 1), at_vertex=st.booleans(),
       t=st.floats(0.0, 1.0), depth=st.integers(0, 10))
@example(name="sphere", seed=0, at_vertex=False, t=1.0, depth=10)
def test_density_matches_oracle(density_surfaces, name, seed, at_vertex, t,
                                depth):
    """Every DensityReport equals the former exhaustive classification's,
    field for field: centres on the surface or at a tessellation vertex, r
    log-uniform in [1e-3, 1.2 diameter].  Depths past 7 run on the smaller
    balls only (each level doubles the straddling faces), apart from the
    sphere's r = 1.9 at depth 10."""
    oracle = density_surfaces[name]
    rng = substream(seed)
    if at_vertex:
        vertices = oracle.tessellate().vertices
        x = vertices[rng.integers(len(vertices))]
    else:
        x = sample_point(oracle, rng).position
    r = 1e-3 * (1.2 * oracle.diameter / 1e-3) ** t
    if name == "sphere" and t == 1.0:
        r = 1.9
    elif r > 0.1 * oracle.diameter:
        depth = min(depth, 7)
    got = analysis.density_quotient(oracle, x, r, depth)
    want = density_oracle.density_quotient(oracle, x, r, depth)
    for field in dataclasses.fields(want):
        assert np.all(getattr(got, field.name) == getattr(want, field.name)), field


def _triangle(corners, shape, t, tiny):
    """A (3,3) triangle from three drawn corners: as drawn, a sliver (c
    within ``tiny`` of the line ab), collinear, or with a repeated corner."""
    a, b, c = np.array(corners, dtype=float).reshape(3, 3)
    if shape == "sliver":
        c = a + t * (b - a) + tiny * (c - a)
    elif shape == "collinear":
        c = a + t * (b - a)
    elif shape == "repeated":
        c = a
    return np.array([a, b, c])


COORDS = st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9)
SHAPES = st.sampled_from(["free", "sliver", "collinear", "repeated"])
POINT = st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3)


EQUILATERAL = [1.0, 0.0, 0.0, -0.5, 0.75**0.5, 0.0, -0.5, -(0.75**0.5), 0.0]


@settings(max_examples=400, deadline=None)
@given(corners=COORDS, shape=SHAPES, t=st.floats(-1.0, 2.0),
       tiny=st.floats(1e-17, 1e-6), point=POINT,
       where=st.sampled_from(["drawn", "edge", "centroid"]),
       s=st.floats(0.0, 1.0), scale=st.sampled_from([1e-4, 1.0, 1e3]))
@example(corners=EQUILATERAL, shape="free", t=0.0, tiny=1e-17,
         point=[0.0, 0.0, 0.0], where="centroid", s=0.0, scale=1.0)
def test_corner_bound_is_below_exact_distance(corners, shape, t, tiny, point,
                                              where, s, scale):
    """The exact squared distance is never below the corner bound minus its
    rounding slack, on slivers and degenerate triangles too, and for a point
    on an edge or next to the centroid, where the bound is tight on an
    equilateral triangle."""
    tri = scale * _triangle(corners, shape, t, tiny)
    x = scale * np.array(point)
    if where == "edge":
        x = tri[0] + s * (tri[1] - tri[0])
    elif where == "centroid":
        x = tri.mean(axis=0) + 1e-3 * s * x
    lower = analysis._corner_bound(analysis._face_columns(tri[None], x))[0]
    slack = analysis.CORNER_SLACK * analysis._size2(x, tri)
    assert _point_tri_sqdist(x, tri[None])[0] >= lower - slack


# a sliver of area / edge^2 ~ 1e-10 whose corner a lies 1.99e-29 from x,
# which lies inside it: the former region cascade put x 5e-15 away
SLIVER = [-1.99e-29, 1e-4, 0.0, 0.0, 0.0, 0.0, 1e-14, 1.9999999999e-4, 0.0]


@settings(max_examples=400, deadline=None)
@given(corners=COORDS, point=POINT, near=st.sampled_from([None, 1e-3, 1e-8]),
       k=st.integers(0, 2), grow=st.sampled_from([0.0, 1e-12, 0.5]),
       scale=st.sampled_from([1e-4, 1.0, 1e3]))
@example(corners=SLIVER, point=[0.0, 1e-4, 0.0], near=None, k=0, grow=0.0,
         scale=1.0)
def test_corner_in_ball_passes_exact_test(corners, point, near, k, grow,
                                          scale):
    """A face with a corner in the closed ball passes the former exact test
    sqrt(d^2) <= r, also with that corner on the sphere and the centre next
    to it, on slivers and degenerate faces too."""
    tri = scale * np.array(corners, dtype=float).reshape(3, 3)
    x = scale * np.array(point)
    if near is not None:
        x = tri[k] + near * x
    d2 = analysis._face_columns(tri[None], x)[9 + k, 0]
    r = np.sqrt(d2) * (1.0 + grow)
    if d2 > r * r:
        r = np.nextafter(r, np.inf)
    assert np.sqrt(_point_tri_sqdist(x, tri[None])[0]) <= r


def _exact_sqdist(x, tri):
    """The squared distance from x to the closed triangle tri, in rationals:
    to the projection when it lies in the face, else to the nearest edge."""
    x = [Fraction(v) for v in x]
    a, b, c = ([Fraction(v) for v in row] for row in tri)
    sub = lambda u, w: [ui - wi for ui, wi in zip(u, w)]
    dot = lambda u, w: sum(ui * wi for ui, wi in zip(u, w))

    def edge(s, e):
        se, sp = sub(e, s), sub(x, s)
        t = min(max(dot(sp, se) / dot(se, se), 0), 1) if any(se) else 0
        d = sub(sp, [t * v for v in se])
        return dot(d, d)

    best = min(edge(a, b), edge(b, c), edge(c, a))
    e1, e2, ap = sub(b, a), sub(c, a), sub(x, a)
    g11, g22, g12 = dot(e1, e1), dot(e2, e2), dot(e1, e2)
    det = g11 * g22 - g12 * g12
    if det > 0:
        v = (g22 * dot(ap, e1) - g12 * dot(ap, e2)) / det
        w = (g11 * dot(ap, e2) - g12 * dot(ap, e1)) / det
        if v >= 0 and w >= 0 and v + w <= 1:
            d = [p - v * q - w * r for p, q, r in zip(ap, e1, e2)]
            best = min(best, dot(d, d))
    return best


@settings(max_examples=400, deadline=None)
@given(corners=COORDS, shape=SHAPES, t=st.floats(-1.0, 2.0),
       tiny=st.floats(1e-17, 1e-6), point=POINT,
       weights=st.tuples(*[st.floats(1.0, 2.0)] * 3), above=st.booleans(),
       scale=st.sampled_from([1e-4, 1.0, 1e3]))
def test_distance_is_at_most_any_face_point(corners, shape, t, tiny, point,
                                            weights, above, scale):
    """The squared distance never exceeds the squared distance to a corner,
    bit for bit, nor, up to rounding, to a fixed barycentric point q of the
    face, also from a point right above q, where the two agree; and it is
    the exact squared distance up to rounding.  Both roundings stay below
    ~1e-15 of the squared size, slivers and collinear faces included."""
    tri = scale * _triangle(corners, shape, t, tiny)
    q = (np.array(weights) / sum(weights)) @ tri
    x = scale * np.array(point)
    if above:
        x = q + point[0] / scale * np.cross(tri[1] - tri[0], tri[2] - tri[0])
    d2 = _point_tri_sqdist(x, tri[None])[0]
    slack = 1e-14 * analysis._size2(x, tri)
    assert d2 <= analysis._face_columns(tri[None], x)[9:, 0].min()
    assert d2 <= np.sum((x - q) ** 2) + slack
    assert abs(d2 - _exact_sqdist(x, tri)) <= slack


class TestBeta:
    def test_flat_patch_is_zero(self, flat_oracle):
        oracle, center = flat_oracle
        rep = analysis.beta_number(oracle, center, 0.5, 2000, 1, seed=0)
        assert rep.beta <= 1e-6

    def test_sphere_cap_height(self, unit_sphere):
        x = np.array([0.0, 0.0, 1.0])
        for r in (0.4, 0.2, 0.1, 0.05):
            rep = analysis.beta_number(unit_sphere, x, r, 4000, 1, seed=0)
            assert rep.beta <= r / 2.0 + 0.01

    def test_sphere_decay_slope(self, unit_sphere):
        x = np.array([0.0, 0.0, 1.0])
        radii = (0.4, 0.2, 0.1, 0.05)
        betas = [analysis.beta_number(unit_sphere, x, r, 4000, 1, seed=0).beta
                 for r in radii]
        fit = analysis.holder_exponent_fit(list(zip(radii, betas)))
        assert fit.exponent == approx(1.0, abs=0.15)

    def test_monotone_in_grid_level(self, unit_sphere):
        x = np.array([0.0, 0.0, 1.0])
        vals = [analysis.beta_number(unit_sphere, x, 0.3, 2000, lvl, seed=0).beta
                for lvl in (0, 1, 2)]
        assert vals[1] <= vals[0] + 1e-15
        assert vals[2] <= vals[1] + 1e-15

    def test_empty_patch_rejected(self, unit_sphere):
        # an outcome, not bad input: the point passes as on the surface, but
        # its ball of radius 1e-7 misses the sphere 2e-6 away
        with pytest.raises(ValueError, match="empty patch") as info:
            analysis.beta_number(unit_sphere, [0.0, 0.0, 1.000002], 1e-7, 100, 0)
        assert not isinstance(info.value, InputError)

    def test_small_torus_patch_fills(self, torus_2_1):
        # the cover of B(x, 1e-3) holds ~half its draws in the ball, where
        # whole-surface draws once kept none of 400 blocks
        x = np.array([3.0, 0.0, 0.0])
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            pts = analysis.patch_samples(torus_2_1, x, 1e-3, 4000, seed=1)
            best = min(best, time.perf_counter() - t0)
        assert len(pts) == 4000
        assert np.all(np.linalg.norm(pts - x, axis=1) <= 1e-3)
        assert best <= 0.02

    @pytest.mark.parametrize("n_patch", [0, -5])
    def test_patch_sample_count_below_one(self, unit_sphere, n_patch):
        # a negative count once sliced all but the last points of a block
        with pytest.raises(InputError, match=exactly(
                f"n_patch must be an integer in [1, inf), got {n_patch}")):
            analysis.patch_samples(unit_sphere, [0.0, 0.0, 1.0], 0.3, n_patch)


class _AnnulusCounter(SurfaceOracle):
    """An oracle that counts, per ball radius d, the sampled points at
    distance [d/2, d] from the ball's centre."""

    def __init__(self, backing):
        super().__init__(backing)
        self.pairs = {}

    def sample(self, rng, n, ball=None):
        pts, normals = super().sample(rng, n, ball)
        dist = np.linalg.norm(pts - ball[0], axis=1)
        inside = (dist >= ball[1] / 2.0) & (dist <= ball[1])
        self.pairs[ball[1]] = self.pairs.get(ball[1], 0) + int(inside.sum())
        return pts, normals


class TestOscillation:
    def test_flat_patch_zero(self, flat_oracle):
        oracle, center = flat_oracle
        prof = analysis.normal_oscillation_profile(oracle, center,
                                                   [0.1, 0.2, 0.4], 200, seed=1)
        assert all(osc == 0.0 for _, osc in prof)

    def test_sphere_matches_chord_angle(self, unit_sphere):
        x = np.array([0.0, 0.0, 1.0])
        prof = analysis.normal_oscillation_profile(
            unit_sphere, x, [0.05, 0.1, 0.2, 0.4], 400, seed=2)
        for d, osc in prof:
            assert osc == approx(2.0 * np.arcsin(d / 2.0), rel=0.02)

    def test_torus_curvature_bound(self, torus_2_1):
        x = np.array([3.0, 0.0, 0.0])
        prof = analysis.normal_oscillation_profile(torus_2_1, x,
                                                   [0.05, 0.1, 0.2], 400, seed=3)
        for d, osc in prof:
            assert osc <= (d / 1.0) * 1.1
        # smooth decay rate dominates the finite-energy exponents
        fit = analysis.holder_exponent_fit(prof)
        for p in (9.0, 16.0, 24.0):
            assert fit.exponent >= analysis.exponents(p)["lambda"]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_small_scale_collects_every_pair(self, torus_2_1, seed):
        oracle = _AnnulusCounter(torus_2_1.backing)
        analysis.normal_oscillation_profile(oracle, [3.0, 0.0, 0.0],
                                            [0.05, 0.1, 0.2], 400, seed)
        assert all(oracle.pairs[d] >= 400 for d in (0.05, 0.1, 0.2))

    def test_empty_scale_is_an_error_not_flat(self, unit_sphere):
        # the point passes as on the surface, but the sphere lies 2e-6 away,
        # past the scale 1e-6; reporting 0.0 would read as a flat patch
        with pytest.raises(ValueError, match="scale 1e-06") as info:
            analysis.normal_oscillation_profile(unit_sphere, [0, 0, 1.000002],
                                                [1e-6, 0.001], 400, seed=0)
        assert not isinstance(info.value, InputError)  # an outcome

    @pytest.mark.parametrize("pairs", [0, -4])
    def test_pair_count_below_one(self, unit_sphere, pairs):
        with pytest.raises(InputError, match=exactly(
                f"pairs_per_scale must be an integer in [1, inf), got {pairs}")):
            analysis.normal_oscillation_profile(unit_sphere, [0, 0, 1],
                                                [0.1, 0.2], pairs, seed=0)

    def test_scale_beyond_diameter(self, unit_sphere):
        with pytest.raises(InputError, match=exactly(
                "scales must not exceed the surface diameter 2.0, got 3.0")):
            analysis.normal_oscillation_profile(unit_sphere, [0, 0, 1],
                                                [0.5, 3.0], 100, seed=0)


class TestHolderFit:
    def test_exact_power(self):
        ds = np.array([0.01, 0.05, 0.1, 0.4])
        prof = [(d, 3.0 * d**0.5) for d in ds]
        fit = analysis.holder_exponent_fit(prof)
        assert fit.exponent == approx(0.5, abs=1e-12)
        assert fit.log_constant == approx(np.log(3.0), abs=1e-12)
        assert fit.r_squared == approx(1.0, abs=1e-12)

    def test_constant_profile(self):
        fit = analysis.holder_exponent_fit([(0.1, 2.0), (0.2, 2.0), (0.4, 2.0)])
        assert fit.exponent == approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.holder_exponent_fit([(0.1, 1.0), (0.2, 2.0)])
        with pytest.raises(ValueError):
            analysis.holder_exponent_fit([(0.1, 1.0), (0.2, 2.0), (-0.3, 1.0)])


# beta_number's direction counts: the SVD candidate, each refinement cap, and
# the Fibonacci grids of levels 0-3
BETA_DIRECTION_COUNTS = [1, 600] + [500 * 4**k for k in range(4)]


def _beta_directions(count, rel):
    if count == 1:
        return np.linalg.svd(rel, full_matrices=False)[2][-1:]
    if count == 600:
        return geom.cap_fibonacci(np.array([0.0, 0.6, 0.8]), 0.1, 600)
    return np.stack(geom.fibonacci_columns(2.0, count), axis=-1)


def _check_one_product(count, n_points, seed):
    rel = 0.2 * np.random.default_rng(seed).standard_normal((n_points, 3))
    dirs = _beta_directions(count, rel)
    prod = rel @ dirs.T
    want = np.maximum(prod.max(axis=0), -prod.min(axis=0))
    assert np.array_equal(analysis._max_abs_dot(dirs, rel), want), n_points


# _max_abs_dot works in blocks of 512 directions.  BLAS rounds a block that
# ends 1-15 columns past a multiple of 512 differently from one product over
# all directions, for some small patch sizes; no count beta_number uses makes
# such a block, and these tests pin that.
@pytest.mark.parametrize("count", BETA_DIRECTION_COUNTS)
def test_max_abs_dot_equals_one_product_small_patches(count):
    for n_points in range(1, 65):
        _check_one_product(count, n_points, n_points)


@pytest.mark.parametrize("count", BETA_DIRECTION_COUNTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_max_abs_dot_equals_one_product(count, data, seed):
    """Up to beta's 4000 patch points, fewer where one product over all
    directions would pass 2^22 entries."""
    _check_one_product(
        count, data.draw(st.integers(1, min(4000, (1 << 22) // count))), seed)


# The pruned beta search (analysis._step) against the exhaustive one
# (tests/beta_oracle.py).  Values are compared by their hex form and
# directions by their bytes, so the sign of a zero counts too.

def _same_best(got, want):
    if want[0] is None:
        return got[0] is None and got[1] == want[1]
    return (got[0].tobytes() == want[0].tobytes()
            and float(got[1]).hex() == float(want[1]).hex())


def _check_rim_bound(count, rel):
    """The rim scores exceed the whole-patch scores by no more than the
    margin, element by element, although the two products have different
    row counts."""
    dirs = _beta_directions(count, rel)
    rim, margin = analysis._rim(rel)
    assert len(rim) == min(len(rel), 256)
    assert np.all(analysis._max_abs_dot(dirs, rim)
                  <= analysis._max_abs_dot(dirs, rel) + margin), len(rel)


@pytest.mark.parametrize("count", [1, 500, 600, 2000])
def test_rim_bound_is_below_every_score_small_patches(count):
    """Every patch size 1-300, across the 256-point rim."""
    for n_points in range(1, 301):
        _check_rim_bound(count, np.random.default_rng(n_points).standard_normal(
            (n_points, 3)))


@pytest.mark.parametrize("count", BETA_DIRECTION_COUNTS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), decade=st.integers(-6, 3))
def test_rim_bound_is_below_every_score(count, data, seed, decade):
    """Up to beta's 4000 patch points, fewer where one product over all
    directions would pass 2^22 entries, at magnitudes 1e-6 to 1e3."""
    n_points = data.draw(st.integers(1, min(4000, (1 << 22) // count)))
    _check_rim_bound(count, 10.0**decade * np.random.default_rng(
        seed).standard_normal((n_points, 3)))


def _point_set(kind, seed, n):
    """About n points of one of the random, symmetric or flat kinds."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6, 2)
    if kind == "random":    # a Gaussian patch of random flatness
        return scale * rng.standard_normal((n, 3)) * [1, 1, rng.uniform(0, 1)]
    if kind == "pairs":     # +- pairs: p and -p score alike on any direction
        half = rng.standard_normal(((n + 1) // 2, 3))
        return scale * np.concatenate([half, -half])
    if kind == "prism":     # a regular polygon at heights +-h, repeated
        t = 2 * np.pi * np.arange(max(n // 2, 3)) / max(n // 2, 3)
        ring = np.stack([np.cos(t), np.sin(t), np.full_like(t, 0.1)], axis=-1)
        return scale * np.concatenate([ring, ring * [1, 1, -1]])
    if kind == "cube":      # the 8 corners of a box, each up to n // 8 times
        corners = np.array(np.meshgrid([-1, 1], [-1, 1], [-1, 1])).reshape(3, -1)
        return scale * np.tile(corners.T * rng.uniform(0, 1, 3), (max(n // 8, 1), 1))
    if kind == "line":      # a segment through x: most directions tie at 0
        return scale * np.outer(rng.standard_normal(n), rng.standard_normal(3))
    if kind == "zero":      # every point at x: every direction scores 0
        return np.zeros((n, 3))
    rel = np.zeros((max(n, 3), 3))  # flat: the plane z = 0 through x
    rel[:, :2] = scale * rng.standard_normal((max(n, 3), 2))
    return rel


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "pairs", "prism", "cube", "line", "zero",
                             "flat"]),
       seed=st.integers(0, 2**32), n=st.integers(1, 700),
       grid_level=st.integers(0, 2))
def test_beta_search_matches_oracle(kind, seed, n, grid_level):
    """The pruned search returns the exhaustive search's value and
    direction bit for bit: on random patches, on symmetric sets where many
    points and directions score alike, and on a flat patch, where beta is
    exactly zero."""
    rel = _point_set(kind, seed, n)
    got = analysis._beta_search(rel, grid_level)
    assert _same_best(got, beta_oracle.beta_search(rel, grid_level))
    if kind == "flat":
        assert got[1] == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 700),
       n_dirs=st.integers(1, 2100), distinct=st.integers(1, 8),
       best=st.sampled_from(["none", "least", "above", "below"]))
def test_step_keeps_lowest_index_and_strict_rule(seed, n, n_dirs, distinct,
                                                 best):
    """Directions d and -d score alike bit for bit, so a few directions with
    random signs, spread over several 512-blocks, make exact ties across
    blocks: the step takes the lowest-index minimum, as the exhaustive one
    does, and keeps a running best that the minimum only ties."""
    rng = np.random.default_rng(seed)
    rel = rng.standard_normal((n, 3)) * [1, 1, rng.uniform(0, 1)]
    base = rng.standard_normal((distinct, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    dirs = base[rng.integers(distinct, size=n_dirs)]
    dirs *= rng.choice([-1.0, 1.0], size=(n_dirs, 1))
    least = beta_oracle.step(dirs, rel, (None, np.inf))
    start = {"none": (None, np.inf), "least": (base[0], least[1]),
             "above": (base[0], np.nextafter(least[1], np.inf)),
             "below": (base[0], np.nextafter(least[1], -np.inf))}[best]
    got = analysis._step(dirs, rel, *analysis._rim(rel), start)
    assert _same_best(got, beta_oracle.step(dirs, rel, start))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["sphere", "icosphere3", "torus", "saddle"]),
       seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 1.0),
       n_patch=st.sampled_from([1, 3, 100, 256, 257, 1000, 4000]),
       grid_level=st.integers(0, 2))
@example(name="sphere", seed=0, t=0.5, n_patch=4000, grid_level=1)
def test_beta_number_matches_oracle(density_surfaces, name, seed, t, n_patch,
                                    grid_level):
    """Every BetaReport equals the exhaustive search's, field for field, on
    patches of the four surfaces: centres sampled on the surface, r
    log-uniform in [1e-3, 0.5 diameter]."""
    oracle = density_surfaces[name]
    x = sample_point(oracle, substream(seed)).position
    r = 1e-3 * (0.5 * oracle.diameter / 1e-3) ** t
    got = analysis.beta_number(oracle, x, r, n_patch, grid_level, seed)
    want = beta_oracle.beta_number(oracle, x, r, n_patch, grid_level, seed)
    for field in dataclasses.fields(want):
        assert (np.asarray(getattr(got, field.name)).tobytes()
                == np.asarray(getattr(want, field.name)).tobytes()), field


@pytest.mark.parametrize("name, x", [("sphere", (0.0, 0.0, 1.0)),
                                     ("torus", (3.0, 0.0, 0.0))])
def test_beta_scores_few_blocks_on_the_whole_patch(density_surfaces,
                                                   monkeypatch, name, x):
    """At the benchmark's beta call (r = 0.2, 4000 points, grid level 1,
    seed 0) the search scores at most 3 blocks of 512 directions on the
    whole patch; scoring every direction takes 10 (the SVD normal, 500,
    600, 2000 and 600 directions).  A silent fall back to the exhaustive
    search keeps every bit and fails only here."""
    blocks = []
    kernel = analysis._max_abs_dot

    def counted(dirs, rel):
        if len(rel) == 4000:
            blocks.append(-(-len(dirs) // 512))
        return kernel(dirs, rel)

    monkeypatch.setattr(analysis, "_max_abs_dot", counted)
    monkeypatch.setattr(beta_oracle, "_max_abs_dot", counted)
    beta_oracle.beta_number(density_surfaces[name], x, 0.2, 4000, 1, seed=0)
    assert sum(blocks) == 10
    blocks.clear()
    analysis.beta_number(density_surfaces[name], x, 0.2, 4000, 1, seed=0)
    assert sum(blocks) <= 3
