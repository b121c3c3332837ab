import numpy as np
import pytest
from pytest import approx

from menger_surf import energy, minimize
from menger_surf.integrand import IntegrandSpec
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, TriMesh, shapes

P = 9.0
CFG = minimize.DiscreteEnergyConfig(p=P)


def noisy_icosphere(scale=0.05, seed=5):
    base = shapes.icosphere(1)
    rng = substream(seed)
    radial = 1.0 + scale * rng.standard_normal((len(base.vertices), 1))
    return TriMesh(base.vertices * radial, base.faces)


class TestDiscreteEnergy:
    def test_weights_sum_to_area(self):
        mesh = shapes.icosphere(1)
        w = minimize._lumped_weights(mesh.face_areas, mesh.faces,
                                     len(mesh.vertices))
        assert w.sum() == approx(mesh.total_area, rel=1e-12)
        assert (w >= 0).all()

    def test_flat_grid_is_zero(self):
        mesh = shapes.flat_patch(1.0, 4)
        assert minimize.discrete_energy(mesh, CFG) == 0.0

    def test_scaling_is_exact(self):
        mesh = shapes.icosphere(1)
        e1 = minimize.discrete_energy(mesh, CFG)
        e2 = minimize.discrete_energy(TriMesh(3.0 * mesh.vertices, mesh.faces),
                                      CFG)
        assert e2 == approx(e1 * 3.0 ** (8.0 - P), rel=1e-12)

    def test_vertex_budget(self):
        mesh = shapes.icosphere(2)  # 162 vertices
        with pytest.raises(ValueError, match="vertex budget"):
            minimize.discrete_energy(mesh, CFG)
        triangle = TriMesh(np.eye(3), [[0, 1, 2]])
        with pytest.raises(ValueError, match="at least 4 vertices"):
            minimize.discrete_energy(triangle, CFG)

    def test_brute_force_reference(self):
        # independent reference: scalar loop over unordered quadruples with
        # freshly recomputed lumped weights
        from itertools import combinations
        from menger_surf.integrand import eval_integrand
        mesh = shapes.icosphere(0)  # the icosahedron, 12 vertices
        verts, faces = mesh.vertices, mesh.faces
        w = np.zeros(len(verts))
        for f in faces:
            tri = verts[f]
            area = 0.5 * np.linalg.norm(np.cross(tri[1] - tri[0],
                                                 tri[2] - tri[0]))
            for v in f:
                w[v] += area / 3.0
        ref = 0.0
        spec = IntegrandSpec(kind="menger")
        for quad in combinations(range(len(verts)), 4):
            kp = eval_integrand(spec, verts[list(quad)]) ** P
            ref += 24.0 * w[list(quad)].prod() * kp
        assert minimize.discrete_energy(mesh, CFG) == approx(ref, rel=1e-12)

    def test_mc_same_order_of_magnitude(self):
        # the faceted mesh concentrates curvature at its edges, where the
        # p > 8 integral diverges, so truncated Monte-Carlo runs high and
        # only order-of-magnitude consistency is meaningful here
        mesh = shapes.icosphere(0)
        exact = minimize.discrete_energy(mesh, CFG)
        est = energy.estimate_mp(SurfaceOracle.from_mesh(mesh),
                                 IntegrandSpec(kind="menger"), P,
                                 2_000_000, seed=8)
        assert est.value / 2.5 < exact < est.value * 2.5


class TestEnergyUnderAreaCap:
    def test_best_objective_monotone_and_projection(self):
        mesh = noisy_icosphere()
        state = minimize.minimize_energy_area_cap(mesh, P, mesh.total_area,
                                                  iters=400, seed=7)
        accepted = [ob for _, ob, _, acc in state.audit if acc]
        best = np.minimum.accumulate(accepted)
        assert (np.diff(best) <= 0).all()
        target = min(mesh.total_area, mesh.total_area)
        assert abs(state.mesh.total_area - target) / target <= 1e-6
        assert state.best_objective <= accepted[0]

    def test_energy_decreases_and_beats_round_baseline(self):
        mesh = noisy_icosphere()
        target = mesh.total_area
        initial = minimize.discrete_energy(mesh, CFG)
        round_mesh = shapes.icosphere(1)
        s = np.sqrt(target / round_mesh.total_area)
        baseline = minimize.discrete_energy(
            TriMesh(s * round_mesh.vertices, round_mesh.faces), CFG)
        state = minimize.minimize_energy_area_cap(mesh, P, target,
                                                  iters=1500, seed=2)
        assert state.objective < initial
        assert state.objective < baseline * 1.05

    def test_audit_reproduces_final_energy_exactly(self):
        mesh = noisy_icosphere(seed=9)
        state = minimize.minimize_energy_area_cap(mesh, P, mesh.total_area,
                                                  iters=150, seed=1)
        assert minimize.discrete_energy(state.mesh, CFG) == state.objective

    def test_prescaled_start_above_cap(self):
        mesh = shapes.icosphere(1)
        cap = 0.5 * mesh.total_area
        state = minimize.minimize_energy_area_cap(mesh, P, cap, iters=50,
                                                  seed=3)
        assert abs(state.mesh.total_area - cap) / cap <= 1e-6

    def test_determinism(self):
        mesh = noisy_icosphere(seed=11)
        a = minimize.minimize_energy_area_cap(mesh, P, mesh.total_area,
                                              iters=120, seed=21)
        b = minimize.minimize_energy_area_cap(mesh, P, mesh.total_area,
                                              iters=120, seed=21)
        assert (a.mesh.vertices == b.mesh.vertices).all()
        assert a.objective == b.objective
        assert a.audit == b.audit


class TestAreaUnderEnergyCap:
    def test_area_decreases_under_generous_cap(self):
        mesh = shapes.ellipsoid(1.3, 1.0, 0.8, subdivisions=1)
        e0 = minimize.discrete_energy(mesh, CFG)
        state = minimize.minimize_area_energy_cap(mesh, P, 3.0 * e0,
                                                  iters=600, seed=4)
        assert state.objective < mesh.total_area
        cap = 3.0 * e0
        for _, _, cv, acc in state.audit:
            if acc:
                assert cv <= cap * (1.0 + 1e-6)

    def test_infeasible_start(self):
        mesh = shapes.icosphere(1)
        e0 = minimize.discrete_energy(mesh, CFG)
        with pytest.raises(ValueError, match="infeasible"):
            minimize.minimize_area_energy_cap(mesh, P, 0.5 * e0, iters=10,
                                              seed=0)

    def test_degenerate_cap_stalls(self):
        # at the flat minimum (energy exactly 0) every off-plane move breaks
        # the cap, so the optimizer stalls instead of violating it
        mesh = shapes.flat_patch(1.0, 3)
        state = minimize.minimize_area_energy_cap(mesh, P, 0.0, iters=200,
                                                  seed=6)
        assert state.accepted_moves == 0
        assert state.objective == approx(mesh.total_area)
        for _, _, cv, acc in state.audit[1:]:
            assert not acc


@pytest.mark.parametrize("anneal", [minimize.minimize_energy_area_cap,
                                    minimize.minimize_area_energy_cap])
@pytest.mark.parametrize("p", [5.0, 8.0])
def test_subcritical_exponent_rejected(anneal, p):
    with pytest.raises(ValueError, match="p must exceed 8"):
        anneal(shapes.icosphere(0), p, 100.0, iters=3, seed=0)


class TestSelfIntersectionFlag:
    def test_clean_mesh(self):
        assert not minimize.has_self_intersections(shapes.icosphere(1))

    def test_crossing_triangles(self):
        verts = np.array([
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [0.2, 0.2, -0.5], [0.4, 0.2, 0.5], [0.2, 0.4, 0.5],
        ], dtype=float)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = TriMesh(verts, faces)
        assert minimize.has_self_intersections(mesh)
