import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from menger_surf import geom, goodtetra
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, SurfacePoint, TriMesh, shapes

import goodtetra_oracle
from conftest import kink_box

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
        # from PHI0 / 4 on, every hit would classify as central
        for tol in (0.0, goodtetra.PHI0 / 4.0, 5.0, 1e200):
            with pytest.raises(ValueError, match="hit_tolerance"):
                goodtetra.GoodTetraParams(hit_tolerance=tol)
        goodtetra.GoodTetraParams(
            hit_tolerance=np.nextafter(goodtetra.PHI0 / 4.0, 0.0))

    @pytest.mark.parametrize("rays", [0, 3])
    def test_too_few_rays_rejected(self, rays):
        # fewer than 4 used to divide by zero inside the first cone growth
        with pytest.raises(ValueError, match="ray_count"):
            goodtetra.GoodTetraParams(ray_count=rays)


# ---------------------------------------------------------------------------
# the coarse pass in distance shells, against the one-band cone growth
# ---------------------------------------------------------------------------

SHELL_SETTINGS = settings(max_examples=30, deadline=None)
SHELL_PARAMS = goodtetra.GoodTetraParams()


def noisy_icosphere(level):
    base = shapes.icosphere(level)
    radial = 1.0 + 0.05 * substream(7).standard_normal((len(base.vertices), 1))
    return SurfaceOracle.from_mesh(TriMesh(base.vertices * radial, base.faces))


SHELL_SURFACES = {
    "noisy2": lambda: noisy_icosphere(2),
    "noisy3": lambda: noisy_icosphere(3),
    "icosphere3": lambda: SurfaceOracle.from_mesh(shapes.icosphere(3)),
    "kink_wide": lambda: SurfaceOracle.from_mesh(kink_box(n=24)),
    "kink_central": lambda: SurfaceOracle.from_mesh(
        kink_box(n=24, neg=(0.3, 60.0))),
    "kink_3a": lambda: SurfaceOracle.from_mesh(kink_box(n=24, pos=(0.30, 77.0))),
    "torus": lambda: SurfaceOracle.torus(2.0, 1.0),
    "torus_mesh": lambda: SurfaceOracle.from_mesh(
        shapes.torus_mesh(2.0, 1.0, 48, 24)),
    "capsule": lambda: SurfaceOracle.capsule(10.0, 0.2),
    "capsule_mesh": lambda: SurfaceOracle.from_mesh(
        shapes.capsule_mesh(10.0, 0.2, 16, 32)),
}


@functools.lru_cache(maxsize=None)
def shell_oracle(name):
    return SHELL_SURFACES[name]()


def seed_on(oracle, k):
    """A point of the surface: a mesh vertex, or a sampled analytic point."""
    if oracle.is_mesh:
        verts = oracle.backing.vertices
        return verts[k % len(verts)]
    return oracle.sample_points(substream(k), 1)[0]


def cone_growths(oracle, x0, v, t_lo):
    """(rho, hits) or the error of the search's and the oracle's growth."""
    out = []
    for grow in (goodtetra._grow_cone, goodtetra_oracle.grow_cone):
        try:
            out.append(grow(oracle, x0, v, t_lo, SHELL_PARAMS))
        except RuntimeError as exc:
            out.append(str(exc))
    return out


def assert_same_growth(new, old):
    if isinstance(old, str):
        assert new == old
        return
    assert new[0] == old[0]
    assert new[1].shape == old[1].shape
    assert new[1].tobytes() == old[1].tobytes()


unit_axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda a: np.linalg.norm(a) > 0.1)


@SHELL_SETTINGS
@given(name=st.sampled_from(sorted(SHELL_SURFACES)),
       k=st.integers(0, 10**6), axis=unit_axes, tilt=st.floats(0.0, 1.0),
       t_lo=st.sampled_from([1e-7, 0.05, 0.3]))
def test_shell_pass_matches_one_band(name, k, axis, tilt, t_lo):
    oracle = shell_oracle(name)
    x0 = seed_on(oracle, k)
    # axes from the surface normal (the search's first growth) to arbitrary
    v = (1.0 - tilt) * oracle.normal_at(x0) + tilt * np.asarray(axis)
    if np.linalg.norm(v) < 1e-3:
        v = np.asarray(axis)
    v = v / np.linalg.norm(v)
    new, old = cone_growths(oracle, x0, v, t_lo * oracle.diameter)
    assert_same_growth(new, old)


@pytest.mark.parametrize("name", ["noisy2", "torus"])
def test_cone_that_meets_nothing(name):
    # from far out along the axis the surface lies beyond 2 * diameter + t_lo
    oracle = shell_oracle(name)
    v = np.array([0.0, 0.0, 1.0])
    new, old = cone_growths(oracle, -10.0 * oracle.diameter * v, v, 1e-7)
    assert new == old == "cone growth found no surface hit"


class Recorder:
    """An oracle that records the (ray count, tmax) of each banded cast."""

    def __init__(self, oracle):
        self.oracle, self.casts = oracle, []

    def __getattr__(self, name):
        return getattr(self.oracle, name)

    def band_min_hits(self, origin, dirs, tmin, tmax):
        self.casts.append((len(dirs), tmax))
        return self.oracle.band_min_hits(origin, dirs, tmin, tmax)


def boundary_growth(x0, axis, eps):
    """Growths from x0 inside icosphere(3) whose second coarse shell ends at
    (1 + eps) times the least coarse hit, and the search's coarse shells."""
    oracle = shell_oracle("icosphere3")
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(axis) / np.linalg.norm(axis)
    coarse = goodtetra._double_cone_dirs(v, goodtetra.PHI0, 128, 64)
    m = float(np.min(oracle.band_min_hits(x0, coarse, 0.0, oracle.diameter)))
    t_lo = m * (1.0 + eps) / goodtetra.SHELL_GROWTH \
        - goodtetra.SHELL_START * oracle.diameter
    recorder = Recorder(oracle)
    new = goodtetra._grow_cone(recorder, x0, v, t_lo, SHELL_PARAMS)
    old = goodtetra_oracle.grow_cone(oracle, x0, v, t_lo, SHELL_PARAMS)
    return new, old, [tmax for n, tmax in recorder.casts if n == len(coarse)]


@SHELL_SETTINGS
@given(direction=unit_axes, offset=st.floats(0.0, 0.4), axis=unit_axes,
       eps=st.floats(-2e-3, 8e-3))
def test_least_hit_at_a_shell_boundary(direction, offset, axis, eps):
    x0 = offset * np.asarray(direction) / np.linalg.norm(direction)
    new, old, _ = boundary_growth(x0, axis, eps)
    assert_same_growth(new, old)


def test_shell_short_of_the_tolerance_band_recasts():
    # from the centre, many coarse rays hit within the tolerance band of the
    # least hit; the second shell ends inside that band, so the pass recasts
    tol = SHELL_PARAMS.hit_tolerance
    new, old, shells = boundary_growth(np.zeros(3), (0.1, 0.5, 1.0), tol / 2.0)
    assert_same_growth(new, old)
    assert len(shells) == 3
    assert shells[2] > shells[1] > shells[0]


def test_wide_pair_box_tests_half_the_pairs(monkeypatch):
    oracle = SurfaceOracle.from_mesh(kink_box())
    kernel = TriMesh._ray_block
    pairs = []

    def counted(self, origins, dirs, faces):
        t, ok = kernel(self, origins, dirs, faces)
        pairs[-1] += t.size
        return t, ok

    monkeypatch.setattr(TriMesh, "_ray_block", counted)
    x0, v = np.zeros(3), np.array([0.0, 0.0, -1.0])
    t_lo = 1e-7 * oracle.diameter
    params = goodtetra.GoodTetraParams()
    for grow in (goodtetra_oracle.grow_cone, goodtetra._grow_cone):
        pairs.append(0)
        grow(oracle, x0, v, t_lo, params)
    assert pairs[1] <= 0.5 * pairs[0]


# ---------------------------------------------------------------------------
# the case analysis, against its former bodies
# ---------------------------------------------------------------------------

# kinked boxes seeded at the origin: a plain box's first growth is central;
# on the others it is antipodal, and the rotated cap ends it in subcase (a),
# (b) or, on the one-sided kink, (c)
CASE_KINKS = {"box48": dict(neg=(100.0, 0.0)),
              "kink48_3a": dict(pos=(0.30, 77.0)),
              "kink48_3b": dict(pos=(0.45, 77.0)), "kink48_3c": dict()}
CASE_SURFACES = ["icosphere3", "noisy3", "torus", *CASE_KINKS]


@functools.lru_cache(maxsize=None)
def case_oracle(name):
    if name in CASE_KINKS:
        return SurfaceOracle.from_mesh(kink_box(n=48, **CASE_KINKS[name]))
    return shell_oracle(name)


def same_bits(a, b):
    if a is None or b is None:
        return a is b
    return (np.shape(a) == np.shape(b)
            and np.asarray(a).tobytes() == np.asarray(b).tobytes())


def compare_cases(name, x0, v):
    """The search's and the former classification and antipodal case of the
    first growth from x0 about v, fed the hit the classification picked;
    returns both labels (the antipodal one None for subcase (c))."""
    oracle = case_oracle(name)
    t_lo = 1e-7 * oracle.diameter
    rho, hits = goodtetra._grow_cone(oracle, x0, v, t_lo, SHELL_PARAMS)
    label, payload = goodtetra._classify(hits, x0, v, rho, SHELL_PARAMS)
    old_label, old_payload = goodtetra_oracle.classify(hits, x0, v, rho,
                                                       SHELL_PARAMS)
    assert label == old_label
    assert same_bits(np.stack(payload), np.stack(old_payload))
    y1 = payload[0]
    new = goodtetra._case_antipodal(oracle, x0, v, rho, y1, SHELL_PARAMS)
    old = goodtetra_oracle.case_antipodal(oracle, x0, v, rho, y1, SHELL_PARAMS)
    assert same_bits(new[0], old[0]) and same_bits(new[1], old[1])
    assert new[2] == old[2]
    return label, new[2]


@SHELL_SETTINGS
@given(name=st.sampled_from(CASE_SURFACES), k=st.integers(0, 10**6),
       axis=unit_axes, tilt=st.floats(0.0, 0.5))
def test_cases_match_their_former_bodies(name, k, axis, tilt):
    oracle = case_oracle(name)
    x0 = np.zeros(3) if name in CASE_KINKS else seed_on(oracle, k)
    v = (1.0 - tilt) * oracle.normal_at(x0) + tilt * np.asarray(axis)
    if np.linalg.norm(v) < 1e-3:
        v = np.asarray(axis)
    compare_cases(name, x0, v / np.linalg.norm(v))


def test_cases_reach_every_label():
    down = np.array([0.0, 0.0, -1.0])
    labels = [compare_cases(name, np.zeros(3), down) for name in CASE_KINKS]
    assert [label for label, _ in labels] == ["central"] + 3 * ["antipodal"]
    assert [sub for _, sub in labels[1:]] == ["antipodal_3a", "antipodal_3b",
                                             None]
    # a sphere's first contact is the cone's rim
    ico = case_oracle("icosphere3")
    x0 = ico.backing.vertices[0]
    assert compare_cases("icosphere3", x0, ico.normal_at(x0))[0] == "wide"
