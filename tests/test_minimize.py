import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from pytest import approx

import anneal_oracle
from conftest import exactly
from menger_surf import InputError, energy, minimize
from menger_surf.integrand import IntegrandSpec
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, TriMesh, shapes, trimesh

P = 9.0
CFG = minimize.DiscreteEnergyConfig(p=P)
ANNEALERS = [minimize.minimize_energy_area_cap, minimize.minimize_area_energy_cap]


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


@pytest.mark.parametrize("anneal", ANNEALERS)
@pytest.mark.parametrize("p", [5.0, 8.0])
def test_subcritical_exponent_rejected(anneal, p):
    with pytest.raises(InputError, match=exactly(
            f"p must be a finite number in (8, inf), got {p}")):
        anneal(shapes.icosphere(0), p, 100.0, iters=3, seed=0)


class TestInputChecks:
    @pytest.mark.parametrize("anneal", ANNEALERS)
    def test_negative_iters_rejected(self, anneal):
        with pytest.raises(InputError, match=exactly(
                "iters must be an integer in [0, inf), got -5")):
            anneal(shapes.icosphere(0), 9.0, 100.0, iters=-5, seed=0)

    @pytest.mark.parametrize("anneal", ANNEALERS)
    def test_zero_iters_keeps_the_start(self, anneal):
        mesh = shapes.icosphere(0)
        state = anneal(mesh, 9.0, 100.0, iters=0, seed=0)
        assert state.iteration == 0 and state.accepted_moves == 0
        assert len(state.audit) == 1

    def test_nan_energy_cap_rejected(self):
        with pytest.raises(InputError, match=exactly(
                "energy_cap must be a finite number in [0, inf), got nan")):
            minimize.minimize_area_energy_cap(shapes.icosphere(0), 9.0,
                                              float("nan"), iters=20, seed=0)


def assert_same_state(a, b):
    """Every OptimizerState field equal, the final mesh bit for bit."""
    for f in dataclasses.fields(minimize.OptimizerState):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "mesh":
            assert x.vertices.tobytes() == y.vertices.tobytes()
            assert x.faces.tobytes() == y.faces.tobytes()
        else:
            assert x == y, f.name


def _bench_inputs(seed):
    """Inputs in the form of the anneal benchmark's: a noisy icosphere(1),
    the ellipsoid and one annealer seed for each."""
    rng = substream(seed)
    base = shapes.icosphere(1)
    noisy = TriMesh(base.vertices * (1.0 + 0.05 * rng.standard_normal((42, 1))),
                    base.faces)
    return (noisy, shapes.ellipsoid(1.3, 1.0, 0.8, 1),
            int(rng.integers(2**62)), int(rng.integers(2**62)))


class TestAnnealOracle:
    """The annealers against the former mode-switching loop."""

    @pytest.mark.parametrize("seed", [301, 302, 303])
    def test_benchmark_inputs(self, seed):
        noisy, ell, energy_seed, area_seed = _bench_inputs(seed)
        target = noisy.total_area
        assert_same_state(
            minimize.minimize_energy_area_cap(noisy, P, target, 150, energy_seed),
            anneal_oracle.minimize_energy_area_cap(noisy, P, target, 150,
                                                   energy_seed))
        cap = 3.0 * minimize.discrete_energy(ell, CFG)
        assert_same_state(
            minimize.minimize_area_energy_cap(ell, P, cap, 100, area_seed),
            anneal_oracle.minimize_area_energy_cap(ell, P, cap, 100, area_seed))

    def test_acceptance_inputs(self):
        # the inputs of acceptance criterion 13
        base = shapes.icosphere(1)
        rng = substream(113)
        noisy = TriMesh(base.vertices * (1.0 + 0.05 * rng.standard_normal(
            (len(base.vertices), 1))), base.faces)
        assert_same_state(
            minimize.minimize_energy_area_cap(noisy, 9.0, noisy.total_area,
                                              1500, 113),
            anneal_oracle.minimize_energy_area_cap(noisy, 9.0, noisy.total_area,
                                                   1500, 113))
        ell = shapes.ellipsoid(1.3, 1.0, 0.8, subdivisions=1)
        cap = 3.0 * minimize.discrete_energy(ell, CFG)
        assert_same_state(
            minimize.minimize_area_energy_cap(ell, 9.0, cap, 600, 114),
            anneal_oracle.minimize_area_energy_cap(ell, 9.0, cap, 600, 114))

    def test_cap_below_the_area_and_stalled_start(self):
        mesh = shapes.icosphere(1)
        assert_same_state(
            minimize.minimize_energy_area_cap(mesh, P, 0.5 * mesh.total_area,
                                              50, 3),
            anneal_oracle.minimize_energy_area_cap(mesh, P,
                                                   0.5 * mesh.total_area, 50, 3))
        flat = shapes.flat_patch(1.0, 3)
        assert_same_state(
            minimize.minimize_area_energy_cap(flat, P, 0.0, 200, 6),
            anneal_oracle.minimize_area_energy_cap(flat, P, 0.0, 200, 6))


def _pair(a, b):
    return TriMesh(np.array(a + b, dtype=float), np.array([[0, 1, 2], [3, 4, 5]]))


FLAT = [[0, 0, 0], [2, 0, 0], [0, 2, 0]]
PAIRS = {  # two faces without a shared vertex, and whether they cross
    "edge-through-face": (_pair(FLAT, [[0.5, 0.5, -1], [0.5, 0.5, 1],
                                       [3, 3, 0]]), True),
    "touch-along-an-edge": (_pair(FLAT, [[0.2, 0.2, 0], [0.8, 0.2, 0],
                                         [0.5, 0.2, 1]]), False),
    "shared-edge-line": (_pair(FLAT, [[0.5, 0, 0], [1.5, 0, 0],
                                      [1, 0, 1]]), False),
    "vertex-on-face": (_pair(FLAT, [[0.5, 0.5, 0], [0.5, 0.5, 1],
                                    [1, 0.5, 1]]), False),
    "coplanar-overlap": (_pair(FLAT, [[0.5, 0.5, 0], [3, 0.5, 0],
                                      [0.5, 3, 0]]), False),
    "apart": (_pair(FLAT, [[0, 0, 1], [2, 0, 1], [0, 2, 1]]), False),
}


class TestSelfIntersectionFlag:
    def test_clean_mesh(self):
        assert not trimesh.has_self_intersections(shapes.icosphere(1))

    def test_crossing_triangles(self):
        verts = np.array([
            [0, 0, 0], [1, 0, 0], [0, 1, 0],
            [0.2, 0.2, -0.5], [0.4, 0.2, 0.5], [0.2, 0.4, 0.5],
        ], dtype=float)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = TriMesh(verts, faces)
        assert trimesh.has_self_intersections(mesh)

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_face_pairs(self, name):
        mesh, crosses = PAIRS[name]
        assert trimesh.has_self_intersections(mesh) == crosses
        assert anneal_oracle.has_self_intersections(mesh) == crosses

    def test_row_blocks(self, monkeypatch):
        # a crossing pair split across row blocks, and one inside a block
        mesh = PAIRS["edge-through-face"][0]
        for rows in (1, 2):
            monkeypatch.setattr(trimesh, "_PAIR_ROWS", rows)
            assert trimesh.has_self_intersections(mesh)
            assert not trimesh.has_self_intersections(shapes.icosphere(1))

    @settings(max_examples=60, deadline=None)
    @given(level=st.integers(0, 2), seed=st.integers(0, 2**32 - 1),
           noise=st.sampled_from([0.0, 0.01, 0.1, 0.3, 0.6]))
    @example(level=0, seed=14, noise=0.3)  # crossing
    @example(level=1, seed=3, noise=0.3)  # crossing
    @example(level=2, seed=13, noise=0.3)  # clean
    def test_matches_the_face_pair_loop(self, level, seed, noise):
        # vertices moved by noise times the mean edge in each coordinate
        base = shapes.icosphere(level)
        rng = np.random.default_rng(seed)
        step = noise * base.mean_edge * rng.standard_normal(base.vertices.shape)
        mesh = TriMesh(base.vertices + step, base.faces)
        assert (trimesh.has_self_intersections(mesh)
                == anneal_oracle.has_self_intersections(mesh))
