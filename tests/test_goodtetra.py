import numpy as np
import pytest
from pytest import approx

from menger_surf import geom, goodtetra
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, SurfacePoint

ETA_FLOOR = 1.0 / 100.0 - 0.005


def seed_at(oracle, position, normal):
    return SurfacePoint(np.asarray(position, float), np.asarray(normal, float))


class TestSphereSearch:
    def test_stopping_scale_and_class(self, unit_sphere):
        res = goodtetra.find_good_tetra(
            unit_sphere, seed_at(unit_sphere, [0, 0, 1], [0, 0, -1]))
        assert 0.9 <= res.stopping_distance <= 2.0
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)
        assert res.eta_achieved >= ETA_FLOOR
        # first contact happens on the cone rim (angle pi/4 from the axis),
        # so the stopping sphere carries a wide pair, not a central hit
        assert res.case_label == "wide_pair"
        assert res.stopping_distance == approx(np.sqrt(2.0), rel=1e-3)
        assert res.iterations == 1

    def test_projection_witness(self, unit_sphere):
        res = goodtetra.find_good_tetra(
            unit_sphere, seed_at(unit_sphere, [0, 0, 1], [0, 0, -1]))
        frac = goodtetra.verify_projection(
            unit_sphere, res.vertices[0], res.stopping_distance / 2.0,
            res.witness_plane_normal, n_rays=400, seed=1)
        assert frac >= 0.99

    def test_scale_free_tolerances(self):
        # relative hit detection keeps the whole search scale-free
        params = goodtetra.GoodTetraParams(ray_count=1024)
        ratios = []
        for rho in (1e-3, 1.0, 1e3):
            oracle = SurfaceOracle.sphere(rho)
            sp = seed_at(oracle, [0.0, 0.0, rho], [0.0, 0.0, -1.0])
            res = goodtetra.find_good_tetra(oracle, sp, params)
            assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                            res.stopping_distance)
            ratios.append(res.stopping_distance / rho)
        assert max(ratios) - min(ratios) < 1e-9 * max(ratios)

    def test_iteration_bound(self, unit_sphere):
        res = goodtetra.find_good_tetra(
            unit_sphere, seed_at(unit_sphere, [0, 0, 1], [0, 0, -1]))
        bound = 1 + np.log2(unit_sphere.diameter / res.first_hit_radius) + 1e-9
        assert res.iterations <= bound + 1


class TestCapsuleSearch:
    def test_thin_scale_stopping(self):
        cap = SurfaceOracle.capsule(10.0, 0.2)
        res = goodtetra.find_good_tetra(
            cap, seed_at(cap, cap.backing.tip(), [0, 0, -1]))
        assert res.stopping_distance <= 1.0
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)

    def test_side_seed(self):
        cap = SurfaceOracle.capsule(10.0, 0.2)
        res = goodtetra.find_good_tetra(
            cap, seed_at(cap, [0.2, 0.0, 0.0], [-1.0, 0.0, 0.0]))
        assert res.stopping_distance <= 1.0
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)


class TestMeshSearch:
    def test_icosphere_seeds(self, icosphere4):
        oracle = SurfaceOracle.from_mesh(icosphere4)
        for vi in (0, 600, 1800):
            sp = SurfacePoint(icosphere4.vertices[vi],
                              icosphere4.vertex_normals[vi])
            res = goodtetra.find_good_tetra(oracle, sp)
            assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                            res.stopping_distance)
            assert 0.9 <= res.stopping_distance <= 2.0

    def test_deterministic(self, icosphere4):
        oracle = SurfaceOracle.from_mesh(icosphere4)
        sp = SurfacePoint(icosphere4.vertices[5], icosphere4.vertex_normals[5])
        a = goodtetra.find_good_tetra(oracle, sp)
        b = goodtetra.find_good_tetra(oracle, sp)
        assert (a.vertices == b.vertices).all()
        assert a.stopping_distance == b.stopping_distance
        assert a.case_label == b.case_label

    def test_perturbation_stability(self, icosphere4):
        oracle = SurfaceOracle.from_mesh(icosphere4)
        rng = substream(404)
        sp = SurfacePoint(icosphere4.vertices[9], icosphere4.vertex_normals[9])
        res = goodtetra.find_good_tetra(oracle, sp)
        eta = min(res.eta_achieved, 0.45)
        alpha = geom.perturbation_alpha(eta)
        d_s = res.stopping_distance
        for _ in range(100):
            shift = rng.standard_normal((4, 3))
            shift *= (alpha * d_s / 2.0) / np.linalg.norm(shift, axis=1)[:, None]
            shift *= rng.random((4, 1))
            moved = res.vertices + shift
            assert geom.classify_voluminous(moved, eta / 2.0, 1.5 * d_s)


class TestTorusSearch:
    def test_outer_and_inner_equator(self, torus_2_1):
        # the tube looks locally like its minor circle, so the first cone
        # contact is the rim at sqrt(2) * r_minor from either equator
        params = goodtetra.GoodTetraParams(ray_count=1024)
        for x0 in (np.array([3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])):
            sp = seed_at(torus_2_1, x0, torus_2_1.normal_at(x0))
            res = goodtetra.find_good_tetra(torus_2_1, sp, params)
            assert res.stopping_distance == approx(np.sqrt(2.0), rel=1e-3)
            assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                            res.stopping_distance)


class TestCentralCases:
    def test_axial_hit_in_a_box(self):
        # a plain box seeded at the top center: the lower cone half meets the
        # bottom face dead on the axis
        from conftest import kink_box
        oracle = SurfaceOracle.from_mesh(kink_box(neg=(100.0, 0.0)))
        sp = SurfacePoint(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        res = goodtetra.find_good_tetra(oracle, sp)
        assert res.case_label == "central_hit_a"
        assert res.stopping_distance == approx(4.0, rel=1e-3)
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)
        assert res.eta_achieved > 0.5

    def test_central_after_rotation(self):
        # shallow one-sided roof: one rotated continuation, then the bottom
        # face is hit well inside the narrowed cone
        from conftest import kink_box
        oracle = SurfaceOracle.from_mesh(kink_box(neg=(0.3, 60.0)))
        sp = SurfacePoint(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        res = goodtetra.find_good_tetra(oracle, sp)
        assert res.case_label == "central_hit_b"
        assert res.iterations == 2
        assert res.radii[1] > 2.0 * res.radii[0]
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)


class TestAntipodalCases:
    """Kinked boxes: flat at the seed, steep roofs a little distance away."""

    def test_one_sided_kink_rotates_until_central(self):
        from conftest import kink_box
        oracle = SurfaceOracle.from_mesh(kink_box())
        sp = SurfacePoint(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        res = goodtetra.find_good_tetra(oracle, sp)
        assert res.iterations > 1  # at least one rotated continuation
        # radii more than double across every continuation
        for a, b in zip(res.radii, res.radii[1:]):
            assert b > 2.0 * a
        bound = 1 + np.log2(oracle.diameter / res.first_hit_radius)
        assert res.iterations <= bound + 1
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)

    def test_rotating_cap_finds_new_point(self):
        from conftest import kink_box
        oracle = SurfaceOracle.from_mesh(kink_box(pos=(0.30, 77.0)))
        sp = SurfacePoint(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        res = goodtetra.find_good_tetra(oracle, sp)
        assert res.case_label == "antipodal_3a"
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)

    def test_forward_annulus_stop(self):
        from conftest import kink_box
        oracle = SurfaceOracle.from_mesh(kink_box(pos=(0.45, 77.0)))
        sp = SurfacePoint(np.zeros(3), np.array([0.0, 0.0, -1.0]))
        res = goodtetra.find_good_tetra(oracle, sp)
        assert res.case_label == "antipodal_3b"
        assert geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance)


class TestVerifyProjection:
    def test_flat_patch_true_plane(self, flat_patch):
        oracle = SurfaceOracle.from_mesh(flat_patch)
        frac = goodtetra.verify_projection(oracle, np.zeros(3), 0.8,
                                           [0.0, 0.0, 1.0], n_rays=300, seed=2)
        assert frac == 1.0

    def test_flat_patch_wrong_plane(self, flat_patch):
        # witness normal rotated into the patch plane: segments run parallel
        oracle = SurfaceOracle.from_mesh(flat_patch)
        frac = goodtetra.verify_projection(oracle, np.zeros(3), 0.8,
                                           [1.0, 0.0, 0.0], n_rays=300, seed=2)
        assert frac < 0.1


class TestValidation:
    def test_no_interior_rejected(self):
        saddle = SurfaceOracle.saddle(1.0)
        sp = SurfacePoint(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="no interior"):
            goodtetra.find_good_tetra(saddle, sp)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            goodtetra.GoodTetraParams(hit_tolerance=0.0)

    @pytest.mark.parametrize("rays", [0, 3])
    def test_too_few_rays_rejected(self, rays):
        # fewer than 4 used to divide by zero inside the first cone growth
        with pytest.raises(ValueError, match="ray_count"):
            goodtetra.GoodTetraParams(ray_count=rays)
