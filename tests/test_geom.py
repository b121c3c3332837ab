import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

import kernel_oracle
from conftest import random_rotations, random_tetrahedra, voluminous_tetrahedra
from menger_surf import InputError, geom
from menger_surf.surface import TriMesh

REG_TET = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.5, np.sqrt(3.0) / 2.0, 0.0],
    [0.5, np.sqrt(3.0) / 6.0, np.sqrt(2.0 / 3.0)],
])

COPLANAR = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)


class TestSimplexMeasures:
    def test_regular_tetrahedron(self):
        m = geom.simplex_measures(REG_TET)
        assert m.volume == approx(np.sqrt(2.0) / 12.0, rel=1e-12)
        assert m.total_area == approx(np.sqrt(3.0), rel=1e-12)
        assert m.diameter == approx(1.0)
        assert m.min_height == approx(np.sqrt(2.0 / 3.0), rel=1e-12)

    def test_coplanar(self):
        m = geom.simplex_measures(COPLANAR)
        assert m.volume == 0.0
        assert m.min_height == 0.0

    def test_scaling_homogeneity(self):
        m1 = geom.simplex_measures(REG_TET)
        m2 = geom.simplex_measures(2.0 * REG_TET)
        assert m2.volume == approx(8.0 * m1.volume, rel=1e-12)
        assert m2.total_area == approx(4.0 * m1.total_area, rel=1e-12)
        assert m2.diameter == approx(2.0 * m1.diameter, rel=1e-12)
        assert m2.min_height == approx(2.0 * m1.min_height, rel=1e-12)

    def test_invariants_random(self, rng):
        pts = random_tetrahedra(rng, 2000)
        vol, area, diam, hmin, _ = geom.tetra_quantities(pts)
        assert (vol >= 0).all() and (area >= 0).all()
        assert (hmin <= diam * (1 + 1e-12)).all()

    def test_nonfinite_rejected(self):
        bad = REG_TET.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            geom.simplex_measures(bad)


class TestCircumradii:
    def test_right_triangle(self):
        r = geom.circumradius_triangle([0, 0, 0], [1, 0, 0], [0, 1, 0])
        assert r == approx(np.sqrt(2.0) / 2.0, rel=1e-14)

    def test_equilateral(self):
        r = geom.circumradius_triangle(*REG_TET[:3])
        assert r == approx(1.0 / np.sqrt(3.0), rel=1e-13)

    def test_collinear_raises(self):
        with pytest.raises(ValueError, match="degenerate triangle"):
            geom.circumradius_triangle([0, 0, 0], [1, 0, 0], [2, 0, 0])

    def test_circumsphere_standard_simplex(self):
        T = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        assert geom.circumsphere_radius(T) == approx(np.sqrt(3.0) / 2.0, rel=1e-13)
        c = kernel_oracle.circumsphere_center(T)
        assert c == approx(np.array([0.5, 0.5, 0.5]), rel=1e-12)

    def test_circumsphere_regular(self):
        assert geom.circumsphere_radius(REG_TET) == approx(np.sqrt(3.0 / 8.0),
                                                           rel=1e-13)

    def test_coplanar_raises(self):
        with pytest.raises(ValueError, match="coplanar"):
            geom.circumsphere_radius(COPLANAR)

    def test_formula_matches_solve(self, rng):
        pts = random_tetrahedra(rng, 5000)
        r, coplanar = geom.circumsphere_radius_batch(pts)
        assert not coplanar.any()
        for T, ri in zip(pts[:500], r[:500]):
            assert ri == approx(kernel_oracle.circumsphere_radius_solve(T), rel=1e-10)

    def test_scaling_degree_one(self, rng):
        pts = random_tetrahedra(rng, 200)
        lam = rng.uniform(0.1, 10.0, 200)
        r1, _ = geom.circumsphere_radius_batch(pts)
        r2, _ = geom.circumsphere_radius_batch(pts * lam[:, None, None])
        assert r2 == approx(lam * r1, rel=1e-10)

    def test_rigid_invariance(self, rng):
        pts = random_tetrahedra(rng, 10_000)
        rots = random_rotations(rng, 10_000)
        shifts = rng.standard_normal((10_000, 3))
        moved = np.einsum("nij,nvj->nvi", rots, pts) + shifts[:, None, :]
        r1, _ = geom.circumsphere_radius_batch(pts)
        r2, _ = geom.circumsphere_radius_batch(moved)
        assert r2 == approx(r1, rel=1e-9)
        v1, a1, d1, h1, _ = geom.tetra_quantities(pts)
        v2, a2, d2, h2, _ = geom.tetra_quantities(moved)
        assert v2 == approx(v1, rel=1e-9)
        assert a2 == approx(a1, rel=1e-9)
        assert d2 == approx(d1, rel=1e-9)
        assert h2 == approx(h1, rel=1e-9)


class TestPointPlane:
    def test_unit_height(self):
        assert geom.point_plane_distance([0, 0, 1], [0, 0, 0], [1, 0, 0],
                                         [0, 1, 0]) == approx(1.0)

    def test_on_plane(self):
        assert geom.point_plane_distance([0.3, 0.4, 0], [0, 0, 0], [1, 0, 0],
                                         [0, 1, 0]) == approx(0.0, abs=1e-15)

    def test_diagonal_point(self):
        assert geom.point_plane_distance([1, 1, 1], [0, 0, 0], [1, 0, 0],
                                         [0, 1, 0]) == approx(1.0)

    def test_degenerate_plane(self):
        with pytest.raises(ValueError, match="degenerate plane"):
            geom.point_plane_distance([0, 0, 1], [0, 0, 0], [1, 0, 0], [2, 0, 0])


# dyadic coordinates, so that scaling by 2**k is exact and never underflows
coords = st.integers(-640, 640).map(lambda i: i / 64.0)
points = st.tuples(coords, coords, coords).map(np.array)


@st.composite
def corner_triples(draw):
    """The corners of a general, a nearly collinear or a one-point triangle."""
    a, b = draw(points), draw(points)
    kind = draw(st.sampled_from(["general", "sliver", "point"]))
    if kind == "general":
        return a, b, draw(points)
    if kind == "point":
        return a, a, a
    # off the line through a and b by 1e-20 to 1e-4, across the threshold
    along, off = draw(coords), 10.0 ** draw(st.floats(-20.0, -4.0))
    return a, b, a + along * (b - a) + off * draw(points)


class TestTriangles:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(corner_triples(), min_size=1, max_size=6),
           k=st.integers(-30, 30))
    def test_one_degeneracy_rule(self, rows, k):
        a, b, c = (np.array(col) for col in zip(*rows))
        ok = geom.triangles(a, b, c)[3]
        scaled = geom.triangles(a * 2.0**k, b * 2.0**k, c * 2.0**k)[3]
        assert np.array_equal(scaled, ok)
        for i, keep in enumerate(ok):
            calls = (lambda: geom.circumradius_triangle(a[i], b[i], c[i]),
                     lambda: geom.point_plane_distance(a[i], a[i], b[i], c[i]))
            for call in calls:
                if keep:
                    call()
                else:
                    with pytest.raises(InputError, match="degenerate"):
                        call()
        m = len(rows)
        faces = np.arange(3 * m).reshape(3, m).T
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dropped .* zero-area faces")
            if not ok.any():
                with pytest.raises(InputError, match="empty mesh"):
                    TriMesh(np.concatenate([a, b, c]), faces)
                return
            mesh = TriMesh(np.concatenate([a, b, c]), faces)
        assert mesh.n_dropped == m - ok.sum()

    def test_area_has_corner_areas_bits(self, rng):
        a, b, c = rng.standard_normal((3, 1000, 3))
        assert np.array_equal(geom.triangles(a, b, c)[1],
                              geom.corner_areas(a, b, c))


class TestTetraDistance:
    def test_identity_and_permutation(self, rng):
        T = random_tetrahedra(rng, 1)[0]
        assert geom.tetra_distance(T, T) == 0.0
        assert geom.tetra_distance(T, T[[2, 0, 3, 1]]) == 0.0

    def test_uniform_translation(self, rng):
        T = random_tetrahedra(rng, 1)[0]
        delta = 0.37
        T2 = T + np.array([delta, 0.0, 0.0])
        assert geom.tetra_distance(T, T2) == approx(delta, rel=1e-12)

    def test_pseudometric(self, rng):
        for _ in range(40):
            A, B, C = random_tetrahedra(rng, 3)
            dab = geom.tetra_distance(A, B)
            assert dab == approx(geom.tetra_distance(B, A), rel=1e-12)
            assert dab <= geom.tetra_distance(A, C) + geom.tetra_distance(C, B) + 1e-12


class TestSimplexClasses:
    def test_regular_tet_thresholds(self):
        # height sqrt(2/3) ~ 0.8165 separates the two theta values
        assert geom.classify_voluminous(REG_TET, 0.8, 1.0)
        assert not geom.classify_voluminous(REG_TET, 0.9, 1.0)

    def test_coplanar_rejected(self):
        assert not geom.classify_voluminous(COPLANAR, 0.1, 1.0)

    def test_wide_examples(self):
        tri = REG_TET[:3]
        assert geom.classify_wide(tri, 0.9, 1.0)
        assert not geom.classify_wide([[0, 0, 0], [1, 0, 0], [2, 0, 0]], 0.5, 1.0)
        short = np.array([[0, 0, 0], [0.4, 0, 0], [0, 1, 0]], dtype=float)
        assert not geom.classify_wide(short, 0.9, 1.0)

    def test_voluminous_implies_wide_base(self, rng):
        quads = voluminous_tetrahedra(rng, 300, theta=0.3, d=1.0)
        assert geom.classify_wide_batch(quads[:, :3], 0.3, 1.0).all()

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            geom.classify_voluminous(REG_TET, 1.5, 1.0)
        with pytest.raises(ValueError):
            geom.classify_wide(REG_TET[:3], 0.5, -1.0)


class TestSlantedConstants:
    def test_c1_at_pi_over_4(self):
        assert geom.slanted_constants(np.pi / 4, np.pi / 3).c1 == approx(0.0625)

    def test_c0_subcase_angle(self):
        phi = np.arccos(np.tan(np.pi / 8.0))
        assert phi == approx(1.1437, abs=2e-4)
        c0 = geom.slanted_constants(np.pi / 4, phi).c0
        assert c0 == approx(0.0795, abs=5e-4)

    def test_c0_formula_value(self):
        # the formula value; the quarter sometimes quoted for this pair does
        # not solve the defining expression
        c0 = geom.slanted_constants(np.pi / 4, np.pi / 3).c0
        assert c0 == approx(0.5 * (1.0 - np.cos(np.pi / 6.0)), rel=1e-14)
        assert c0 == approx(0.0669873, abs=1e-6)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            geom.slanted_constants(0.0, 1.0)
        with pytest.raises(ValueError):
            geom.slanted_constants(np.pi / 4, np.pi)


class TestPerturbation:
    def test_value_at_half(self):
        assert geom.perturbation_radius(0.5) == approx(2.1701e-4, rel=1e-3)
        assert geom.perturbation_radius(0.5) == approx(min(0.5**5 / 10, 0.5**7 / 36))

    def test_monotone_to_zero(self):
        etas = np.linspace(1e-3, 0.5, 50)
        vals = [geom.perturbation_radius(e) for e in etas]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-16

    def test_out_of_range(self):
        for eta in (0.0, 0.6, -0.1):
            with pytest.raises(ValueError):
                geom.perturbation_radius(eta)

    def test_height_survives_perturbation(self, rng):
        # randomized check of the perturbed-height guarantee
        eta, d = 0.2, 1.0
        eps = geom.perturbation_radius(eta)
        quads = voluminous_tetrahedra(rng, 1000, theta=eta, d=d)
        shift = rng.standard_normal(quads.shape)
        shift *= eps * d / np.maximum(
            np.linalg.norm(shift, axis=2, keepdims=True), 1e-300)
        shift *= rng.random((len(quads), 4, 1))
        moved = quads + shift
        for T in moved:
            h = geom.point_plane_distance(T[3], T[0], T[1], T[2])
            assert h >= eta * d / 2.0

    def test_voluminous_stability(self, rng):
        # perturbations up to alpha(eta) d keep the halved class
        eta, d = 0.2, 1.0
        alpha = geom.perturbation_alpha(eta)
        assert alpha < eta / 20.0
        quads = voluminous_tetrahedra(rng, 300, theta=eta, d=d)
        shift = rng.standard_normal(quads.shape)
        shift *= alpha * d / np.maximum(
            np.linalg.norm(shift, axis=2, keepdims=True), 1e-300)
        moved = quads + shift
        assert geom.classify_voluminous_batch(moved, eta / 2.0, 1.5 * d).all()


class TestFrames:
    @staticmethod
    def np_orthobasis(v):
        a = np.array([1.0, 0.0, 0.0]) if abs(v[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        e1 = np.cross(v, a)
        e1 /= np.linalg.norm(e1)
        return e1, np.cross(v, e1)

    def test_orthobasis_matches_np_cross_bits(self, rng):
        v = rng.standard_normal((2000, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        # axes of both signs carry signed zeros; 0.9 is the switch point
        edge = [[0.9, 0.0, np.sqrt(0.19)], [-0.9, np.sqrt(0.19), 0.0]]
        for u in np.concatenate([v, np.eye(3), -np.eye(3), edge]):
            got, want = geom.orthobasis(u), self.np_orthobasis(u)
            assert [e.tobytes() for e in got] == [e.tobytes() for e in want]

    def test_cross3_of_columns_matches_np_cross_bits(self, rng):
        v = rng.standard_normal((500, 3))
        v[:100, 1] = -0.0
        axis = np.array([0.0, -0.6, 0.8])
        got = np.stack(geom.cross3(v.T, axis.tolist()), axis=1)
        assert got.tobytes() == np.cross(v, axis).tobytes()
