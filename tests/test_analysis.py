import numpy as np
import pytest
from pytest import approx

from menger_surf import analysis
from menger_surf.surface import SurfaceOracle, shapes


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
        with pytest.raises(ValueError, match="not on the surface"):
            analysis.density_quotient(unit_sphere, [0.0, 0.0, 1.5], 0.3)


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
        with pytest.raises(ValueError, match="empty patch"):
            analysis.beta_number(unit_sphere, [0.0, 0.0, 5.0], 0.1, 100, 0)


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

    def test_empty_scale_is_an_error_not_flat(self, unit_sphere):
        # 400 blocks of 4096 draws expect ~0.08 points at distance
        # [0.00025, 0.0005] of x; reporting 0.0 would read as a flat patch
        with pytest.raises(ValueError, match="scale 0.0005"):
            analysis.normal_oscillation_profile(unit_sphere, [0, 0, 1],
                                                [0.0005, 0.001], 400, seed=0)

    def test_scale_beyond_diameter(self, unit_sphere):
        with pytest.raises(ValueError, match="exceeds"):
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
