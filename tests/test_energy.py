import numpy as np
import pytest
from pytest import approx

from menger_surf import energy
from menger_surf.integrand import IntegrandSpec
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, TriMesh

MENGER = IntegrandSpec(kind="menger")
CIRCUM = IntegrandSpec(kind="circumsphere")


def combined_sigma(a, b):
    return np.sqrt(a.std_error**2 + b.std_error**2)


class TestEstimateMp:
    def test_sphere_circumsphere_zero_variance(self, unit_sphere):
        for p in (2.0, 4.0, 9.0):
            est = energy.estimate_mp(unit_sphere, CIRCUM, p, 2000, seed=3)
            assert est.value == approx((4.0 * np.pi) ** 4, rel=1e-9)
            assert est.std_error <= 1e-10 * est.value

    def test_flat_mesh_is_exactly_zero(self):
        mesh = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float),
                       np.array([[0, 1, 2]]))
        est = energy.estimate_mp(SurfaceOracle.from_mesh(mesh), MENGER, 8.0,
                                 5000, seed=1)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_seed_consistency(self, unit_sphere):
        a = energy.estimate_mp(unit_sphere, MENGER, 8.0, 50000, seed=10)
        b = energy.estimate_mp(unit_sphere, MENGER, 8.0, 50000, seed=11)
        assert abs(a.value - b.value) <= 3.0 * combined_sigma(a, b)

    def test_worker_count_invariance(self, unit_sphere):
        ests = [energy.estimate_mp(unit_sphere, MENGER, 8.0, 30000, seed=5,
                                   threads=t) for t in (1, 4, 8)]
        assert ests[0].value == ests[1].value == ests[2].value
        assert ests[0].std_error == ests[1].std_error == ests[2].std_error

    def test_constant_integrand_is_unbiased(self, unit_sphere, monkeypatch):
        monkeypatch.setattr(energy, "eval_batch",
                            lambda spec, pts: np.ones(len(pts)))
        est = energy.estimate_mp(unit_sphere, MENGER, 8.0, 4096, seed=0)
        assert est.value == unit_sphere.total_area ** 4
        assert est.std_error == 0.0

    def test_nonfinite_integrand_raises(self, unit_sphere, monkeypatch):
        monkeypatch.setattr(energy, "eval_batch",
                            lambda spec, pts: np.full(len(pts), np.inf))
        with pytest.raises(FloatingPointError, match="non-finite"):
            energy.estimate_mp(unit_sphere, MENGER, 8.0, 2000, seed=0)

    def test_minimum_sample_count(self, unit_sphere):
        with pytest.raises(ValueError):
            energy.estimate_mp(unit_sphere, MENGER, 8.0, 100, seed=0)


class TestLocalEnergy:
    def test_whole_surface_ball_matches_global(self, unit_sphere):
        glob = energy.estimate_mp(unit_sphere, MENGER, 8.0, 40000, seed=2)
        loc = energy.local_energy(unit_sphere, [0, 0, 0], 2.0, MENGER, 8.0,
                                  40000, seed=3)
        assert abs(glob.value - loc.value) <= 3.0 * combined_sigma(glob, loc)

    def test_flat_region_zero(self):
        mesh = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float),
                       np.array([[0, 1, 2]]))
        loc = energy.local_energy(SurfaceOracle.from_mesh(mesh), [0.3, 0.3, 0],
                                  0.4, MENGER, 8.0, 2000, seed=0)
        assert loc.value == 0.0

    def test_patch_below_global(self, unit_sphere):
        glob = energy.estimate_mp(unit_sphere, MENGER, 9.0, 60000, seed=4)
        loc = energy.local_energy(unit_sphere, [0, 0, 1], 0.5, MENGER, 9.0,
                                  60000, seed=5)
        assert 0.0 < loc.value < glob.value

    def test_error_bar_covers_the_patch_area(self, unit_sphere):
        # the circumsphere integrand is constant on the sphere, so the
        # estimate spreads over seeds only through its estimated patch area
        ests = [energy.local_energy(unit_sphere, [0, 0, 1], 0.5, CIRCUM, 4.0,
                                    2000, seed) for seed in range(8)]
        spread = np.std([e.value for e in ests], ddof=1)
        errors = np.array([e.std_error for e in ests])
        assert np.all((errors > 0.5 * spread) & (errors < 2.0 * spread))

    def test_patch_too_small(self, unit_sphere):
        with pytest.raises(ValueError, match="patch too small"):
            energy.local_energy(unit_sphere, [0, 0, 1], 1e-4, MENGER, 8.0,
                                5000, seed=0)

    def test_subunit_exponent_rejected(self, unit_sphere):
        # the same floor as estimate_mp
        with pytest.raises(ValueError, match="p must be >= 1"):
            energy.local_energy(unit_sphere, [0, 0, 1], 0.5, MENGER, 0.5,
                                2000, seed=0)


class TestScaling:
    def test_p8_scale_invariance(self):
        rows = energy.scaling_study(MENGER, 8.0, [0.5, 1.0, 2.0, 4.0],
                                    200000, seed=1)
        base = rows[0]
        for row in rows[1:]:
            sigma = np.sqrt((base.estimate.std_error * base.radius**0)**2
                            + row.estimate.std_error**2)
            assert abs(row.normalized - base.normalized) <= 3.0 * sigma

    def test_p10_ratio(self):
        rows = energy.scaling_study(MENGER, 10.0, [1.0, 2.0], 400000, seed=2)
        v1, v2 = rows[0].estimate, rows[1].estimate
        ratio = v2.value / v1.value
        sigma = ratio * np.sqrt((v1.std_error / v1.value) ** 2
                                + (v2.std_error / v2.value) ** 2)
        assert abs(ratio - 0.25) <= 3.0 * sigma

    def test_p10_monotone_decrease(self):
        rows = energy.scaling_study(MENGER, 10.0, [1.0, 2.0, 4.0], 100000,
                                    seed=3)
        vals = [r.estimate.value for r in rows]
        assert vals[0] > vals[1] > vals[2]


class TestStoppingRadius:
    def test_fixed_point(self):
        alpha, p = 0.3, 10.0
        assert energy.stopping_radius_r0(alpha ** (5 * p), p, alpha) == approx(1.0)

    def test_arithmetic(self):
        assert energy.stopping_radius_r0(1.0, 10.0, 0.01) == approx(1e-50, rel=1e-9)

    def test_monotone_in_energy(self):
        r = [energy.stopping_radius_r0(E, 12.0, 0.1) for E in (0.5, 1.0, 2.0, 8.0)]
        assert all(b < a for a, b in zip(r, r[1:]))

    def test_subcritical_rejected(self):
        with pytest.raises(ValueError, match="supercritical"):
            energy.stopping_radius_r0(1.0, 8.0, 0.1)


class TestDivergence:
    def test_divergent_regime_slope(self):
        rows, slope = energy.divergence_study(3.0, 8.0, "geometric", 0.05,
                                              4, 50000, seed=1)
        assert slope == approx(-4.0, abs=0.5)
        vals = [r.patch_integral for r in rows]
        assert vals[-1] > vals[0]  # terms grow: divergence

    def test_convergent_regime_slope(self):
        rows, slope = energy.divergence_study(3.0, 3.0, "geometric", 0.05,
                                              4, 50000, seed=2)
        assert slope == approx(6.0, abs=0.5)
        vals = [r.patch_integral for r in rows]
        assert vals[-1] < vals[0]

    def test_plane_stays_far_from_apex(self):
        # the mechanism: triples in the shrunken caps span planes that stay
        # at distance >= r_n/4 from the apex
        from menger_surf.energy import _cap_centers, sample_cap
        from menger_surf import geom
        rng = substream(77)
        for n in range(1, 6):
            r_n = 2.0 ** (-2 * n)
            c = 0.05 * r_n**2
            a, b, cc = _cap_centers(r_n)
            xs = sample_cap(a, c, rng, 2000)
            ys = sample_cap(b, c, rng, 2000)
            zs = sample_cap(cc, c, rng, 2000)
            xi = np.array([0.0, 0.0, 1.0])
            for i in range(0, 2000, 97):
                d = geom.point_plane_distance(xi, xs[i], ys[i], zs[i])
                assert d >= r_n / 4.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            energy.divergence_study(0.5, 8.0, "geometric", 0.05, 3, 1000, 0)
        with pytest.raises(ValueError):
            energy.divergence_study(3.0, 8.0, "geometric", 1.5, 3, 1000, 0)
        for n_max in (1, 9):  # one scale fitted a slope through one point
            with pytest.raises(ValueError, match="2..8"):
                energy.divergence_study(3.0, 8.0, "geometric", 0.05, n_max,
                                        1000, 0)
        for samples in (0, -5):  # -5 once ran 4091 samples per row
            with pytest.raises(ValueError, match="positive"):
                energy.divergence_study(3.0, 8.0, "geometric", 0.05, 3,
                                        samples, 0)


class TestBoundedIntegrand:
    def test_smooth_surfaces_bounded(self, unit_sphere, torus_2_1):
        from menger_surf.integrand import eval_batch
        for oracle in (unit_sphere, torus_2_1):
            rng = substream(13, 1)
            pts = oracle.sample_points(rng, 800000).reshape(200000, 4, 3)
            vals = eval_batch(MENGER, pts)
            assert np.isfinite(vals).all()
            assert vals.max() < 10.0
