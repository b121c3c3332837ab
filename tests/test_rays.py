"""The culled and batched ray queries agree bit for bit with brute force."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from menger_surf import geom, goodtetra
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, TriMesh, shapes, trimesh
from menger_surf.surface.analytic import Capsule, SaddlePatch, Sphere, Torus
from torus_oracle import capsule_ray_hits, segment_roots, sphere_ray_hits

RAY_SETTINGS = settings(max_examples=60, deadline=None)


@functools.cache
def mesh(kind, noise_seed):
    if kind == "kink":
        from conftest import kink_box
        return kink_box(n=16)
    base = shapes.icosphere(2)
    radial = 1.0 + 0.05 * np.random.default_rng(noise_seed).standard_normal(
        (len(base.vertices), 1))
    return TriMesh(base.vertices * radial, base.faces)


meshes = st.builds(mesh, st.sampled_from(["ico", "kink"]), st.integers(0, 3))
unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
caps = st.floats(-6.0, np.log10(np.pi / 4.0)).map(lambda e: 10.0**e)
# direction lengths down to where a torus quartic's leading coefficient
# drops below 1e-14 times its largest
scales = st.floats(-7.0, 0.0).map(lambda e: 10.0**e)


def every_face(m):
    """The ray kernel's view of all faces of m, with no cull."""
    return m._face_block(np.arange(len(m.faces)))


def brute_band_min(m, origin, dirs, tmin, tmax):
    t, ok = m._ray_block(origin[None], dirs, every_face(m))
    ok &= (t >= tmin) & (t <= tmax)
    return np.where(ok, t, np.inf).min(axis=1)


@RAY_SETTINGS
@given(m=meshes, seed=st.integers(0, 2**32), n=st.integers(2, 64),
       shared_origin=st.booleans())
def test_ray_kernel_bits_do_not_depend_on_the_face_subset(m, seed, n,
                                                          shared_origin):
    rng = np.random.default_rng(seed)
    origins = m.vertices[rng.integers(len(m.vertices),
                                      size=1 if shared_origin else n)]
    dirs = rng.standard_normal((n, 3))
    idx = np.sort(rng.choice(len(m.faces), rng.integers(1, len(m.faces)),
                             replace=False))
    t_all, ok_all = m._ray_block(origins, dirs, every_face(m))
    t, ok = m._ray_block(origins, dirs, m._face_block(idx))
    assert np.array_equal(t, t_all[:, idx])
    assert np.array_equal(ok, ok_all[:, idx])


@RAY_SETTINGS
@given(m=meshes, vertex=st.integers(0, 10**6), along_normal=st.booleans(),
       axis=unit_vectors, cap=caps, double=st.booleans(),
       n=st.integers(1, 96), band=st.tuples(st.floats(0.0, 1.0),
                                            st.floats(0.0, 2.0)),
       chunk_pairs=st.sampled_from([trimesh.CHUNK_PAIRS, 64]))
def test_mesh_band_min_hits_matches_all_faces(m, vertex, along_normal, axis,
                                              cap, double, n, band,
                                              chunk_pairs):
    vi = vertex % len(m.vertices)
    origin = m.vertices[vi]
    if along_normal:  # the search's own situation: cone around the normal
        axis = m.vertex_normals[vi]
    dirs = geom.cap_fibonacci(axis, cap, n)
    if double:
        dirs = np.concatenate([dirs, -dirs])
    tmin = band[0] * band[1] * m.diameter
    tmax = band[1] * m.diameter
    with pytest.MonkeyPatch.context() as mp:  # small chunks split the rays
        mp.setattr(trimesh, "CHUNK_PAIRS", chunk_pairs)
        got = SurfaceOracle(m).band_min_hits(origin, dirs, tmin, tmax)
    assert np.array_equal(got, brute_band_min(m, origin, dirs, tmin, tmax))


@RAY_SETTINGS
@given(m=meshes, vertex=st.integers(0, 10**6), d=unit_vectors,
       length=st.floats(0.01, 2.0), shift=st.floats(-1.0, 1.0))
def test_mesh_segment_hits_match_all_faces(m, vertex, d, length, shift):
    a = m.vertices[vertex % len(m.vertices)] + shift * length * m.diameter * d
    b = a + length * m.diameter * d
    t, ok = m._ray_block(a[None], (b - a)[None], every_face(m))
    ok &= (t >= -1e-12) & (t <= 1.0 + 1e-12)
    ts = np.sort(t[ok])
    if len(ts):
        ts = ts[np.concatenate([[True], np.diff(ts) > 1e-12])]
    expected = a[None] + ts[:, None] * (b - a)[None]
    assert np.array_equal(SurfaceOracle(m).segment_hits(a, b), expected)


def cone_origin(m, vertex, offset):
    """A mesh vertex, or a point up to a diameter off it."""
    return m.vertices[vertex % len(m.vertices)] + offset * m.diameter


offsets = st.one_of(st.just(np.zeros(3)),
                    st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array))


@RAY_SETTINGS
@given(m=meshes, vertex=st.integers(0, 10**6), offset=offsets,
       axis=unit_vectors, cap=caps, double=st.booleans(), n=st.integers(1, 96),
       band=st.tuples(st.floats(-0.5, 1.0), st.floats(0.0, 2.0)))
def test_shaft_keeps_every_face_hit(m, vertex, offset, axis, cap, double, n,
                                    band):
    origin = cone_origin(m, vertex, offset)
    dirs = geom.cap_fibonacci(axis, cap, n)
    if double:
        dirs = np.concatenate([dirs, -dirs])
    tmin, tmax = band[0] * band[1] * m.diameter, band[1] * m.diameter
    t, ok = m._ray_block(origin, dirs, every_face(m))
    hit = np.flatnonzero((ok & (t >= tmin) & (t <= tmax)).any(axis=0))
    kept = m._shaft_faces(origin, dirs, tmin, tmax)
    assert np.array_equal(kept, np.unique(kept))
    assert np.isin(hit, kept).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["ico", "kink"])
def test_shaft_keeps_a_face_centred_on_the_ray(kind):
    # a ray along (1, 1, 1) at a box centre rounds the cosine between them
    # above 1 for many faces; the cone test must still keep the face
    m = mesh(kind, 0)
    dirs = np.ones((1, 3))
    for f, centre in enumerate(0.5 * (m.tri_lo + m.tri_hi)):
        origin = centre - 0.5
        assert f in m._shaft_faces(origin, dirs, 0.0, m.diameter)
        got = SurfaceOracle(m).band_min_hits(origin, dirs, 0.0, m.diameter)
        assert np.array_equal(got, brute_band_min(m, origin, dirs, 0.0,
                                                  m.diameter))


@RAY_SETTINGS
@given(kind=st.sampled_from(["ico", "kink"]), vertices=st.tuples(
           st.integers(0, 10**6), st.integers(0, 10**6)),
       offset=offsets, axis=unit_vectors, cap=caps, n=st.integers(1, 64),
       seg=st.tuples(unit_vectors, st.floats(0.01, 2.0)))
def test_alternating_origins_match_a_fresh_mesh(kind, vertices, offset, axis,
                                                cap, n, seg):
    m = mesh(kind, 0)  # shared across examples, so it holds a stale view
    origins = [cone_origin(m, vertices[0], 0.0),
               cone_origin(m, vertices[1], offset)]
    dirs = geom.cap_fibonacci(axis, cap, n)
    dirs = np.concatenate([dirs, -dirs])
    a = origins[0]
    b = a + seg[1] * m.diameter * seg[0]
    oracle = SurfaceOracle(m)
    for o in (origins[0], origins[1], None, origins[0], origins[1]):
        fresh = SurfaceOracle(TriMesh(m.vertices, m.faces))
        if o is None:
            assert np.array_equal(oracle.segment_hits(a, b),
                                  fresh.segment_hits(a, b))
            continue
        assert np.array_equal(oracle.band_min_hits(o, dirs, 0.0, m.diameter),
                              fresh.band_min_hits(o, dirs, 0.0, m.diameter))


TORUS = Torus(2.0, 1.0)
TORUS_ORACLE = SurfaceOracle(TORUS)
# points of the torus whose implicit value is exactly 0.0, so every ray's
# quartic has a zero constant term
EXACT_ON_TORUS = [np.array(p, dtype=float) for p in
                  ([3, 0, 0], [0, -3, 0], [1, 0, 0], [0, 1, 0], [2, 0, 1],
                   [0, -2, -1])]


def torus_origins():
    u, v = (st.floats(0.0, 2.0 * np.pi),) * 2
    on = st.tuples(u, v).map(lambda uv: np.array([
        (2.0 + np.cos(uv[1])) * np.cos(uv[0]),
        (2.0 + np.cos(uv[1])) * np.sin(uv[0]), np.sin(uv[1])]))
    off = st.tuples(*[st.floats(-4.0, 4.0)] * 3).map(np.array)
    return st.one_of(st.sampled_from(EXACT_ON_TORUS), on, off)


def per_ray_band_min(origin, dirs, tmin, tmax):
    out = np.full(len(dirs), np.inf)
    for i, d in enumerate(dirs):
        ts = segment_roots(TORUS, origin, d)
        ts = ts[(ts >= tmin) & (ts <= tmax)]
        if len(ts):
            out[i] = ts.min()
    return out


@RAY_SETTINGS
@given(origin=torus_origins(), axis=unit_vectors, cap=caps, scale=scales,
       double=st.booleans(), n=st.integers(1, 64),
       band=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 8.0)))
def test_torus_band_min_hits_matches_per_ray_roots(origin, axis, cap, scale,
                                                   double, n, band):
    dirs = geom.cap_fibonacci(axis, cap, n) * scale
    if double:
        dirs = np.concatenate([dirs, -dirs])
    # the same stretch of each ray, whatever the direction length
    tmin, tmax = band[0] * band[1] / scale, band[1] / scale
    assert np.array_equal(TORUS_ORACLE.band_min_hits(origin, dirs, tmin, tmax),
                          per_ray_band_min(origin, dirs, tmin, tmax))


@RAY_SETTINGS
@given(origin=torus_origins(), axis=unit_vectors, cap=caps, scale=scales,
       n=st.integers(1, 64))
def test_torus_roots_match_per_ray_roots(origin, axis, cap, scale, n):
    dirs = geom.cap_fibonacci(axis, cap, n) * scale
    rays, ts = TORUS._ray_roots(origin, dirs)
    for i, d in enumerate(dirs):
        assert np.array_equal(np.sort(ts[rays == i]),
                              np.sort(segment_roots(TORUS, origin, d)))


def test_torus_batch_keeps_per_ray_rounding():
    # rays whose libm square d[0]**2 differs from d[0] * d[0] in the last
    # bit, which moves the first hit by an ulp: the batch and the per-ray
    # roots must square alike
    cases = [([-1.9588128824443378, -0.7475168052714901, 0.3748572069461935],
              [0.38231912738393503, -0.698761714081058, 0.6046190137358304]),
             ([3.0, 0.0, 0.0],
              [-0.9697651745784389, 0.03567910988076383, 0.24141770294029039])]
    for origin, d in cases:
        origin, dirs = np.array(origin), np.array([d])
        assert np.array_equal(TORUS_ORACLE.band_min_hits(origin, dirs, 1e-6, 10.0),
                              per_ray_band_min(origin, dirs, 1e-6, 10.0))


def test_torus_zero_constant_term_deflates():
    # np.roots drops the zero root before solving; so must the batch
    origin = EXACT_ON_TORUS[0]
    assert TORUS._implicit(origin)[0] == 0.0
    rays, ts = TORUS._ray_roots(origin, np.array([[-1.0, 0.0, 0.0]]))
    assert list(rays) == [0, 0, 0, 0]
    assert np.sort(ts) == approx([0.0, 2.0, 4.0, 6.0], abs=1e-12)


@pytest.mark.parametrize("origin", [EXACT_ON_TORUS[0],
                                    np.array([0.5, 1.0, 3.0])],
                         ids=["on", "off"])
def test_torus_zero_direction_has_no_roots(origin):
    # every coefficient is zero on the torus, all but the constant one off it
    dirs = np.zeros((2, 3))
    rays, ts = TORUS._ray_roots(origin, dirs)
    assert len(rays) == len(ts) == 0
    assert len(segment_roots(TORUS, origin, dirs[0])) == 0
    assert (TORUS_ORACLE.band_min_hits(origin, dirs, 0.0, np.inf)
            == np.inf).all()


def test_torus_negligible_leading_coefficient_deflates(monkeypatch):
    # a segment of length 2e-6 across the torus at (3, 0, 0): its quartic's
    # leading coefficient is ~1e-23 against a largest of ~1e-4, so the
    # companion matrix is the cubic's
    eigvals, sizes = np.linalg.eigvals, []
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: sizes.append(m.shape[-1]) or eigvals(m))
    a, b = np.array([3.0 + 1e-6, 0.0, 0.0]), np.array([3.0 - 1e-6, 0.0, 0.0])
    hits = TORUS_ORACLE.segment_hits(a, b)
    assert sizes == [3]
    assert hits == approx(np.array([[3.0, 0.0, 0.0]]), abs=1e-12)
    _, ts = TORUS._ray_roots(a, (b - a)[None])
    assert np.array_equal(np.sort(ts), np.sort(segment_roots(TORUS, a, b - a)))


def unculled(m):
    """The same mesh with infinite face boxes, so that no cull drops a face."""
    out = copy.copy(m)
    out.tri_lo = np.full_like(m.tri_lo, -np.inf)
    out.tri_hi = np.full_like(m.tri_hi, np.inf)
    out._view = None  # a face view of m holds m's boxes
    return out


@pytest.mark.filterwarnings("error")
@RAY_SETTINGS
@given(m=meshes, vertex=st.integers(0, 10**6), normal=unit_vectors,
       r=st.floats(0.02, 0.5), n_rays=st.integers(1, 200),
       seed=st.integers(0, 2**32))
def test_witness_fraction_matches_all_faces(m, vertex, normal, r, n_rays,
                                            seed):
    x0 = m.vertices[vertex % len(m.vertices)]
    args = (x0, r * m.diameter, normal, n_rays, seed)
    culled = goodtetra.verify_projection(SurfaceOracle.from_mesh(m), *args)
    full = goodtetra.verify_projection(SurfaceOracle.from_mesh(unculled(m)),
                                       *args)
    assert culled == full


@pytest.mark.filterwarnings("error")
def test_near_parallel_ray_is_silent():
    # the ray meets the flat faces at z = 0 with den ~ 1e-312, so the masked
    # num / den overflows
    from conftest import kink_box
    m = kink_box(n=16)
    t, ok = m._ray_block(np.array([[0.0, 0.0, 1.0]]),
                         np.array([[1.0, 0.0, 1e-310]]), every_face(m))
    flat = np.abs(m.face_normals[:, 2]) == 1.0
    assert flat.any()
    assert not ok[0, flat].any() and np.isinf(t[0, flat]).all()


# -- ray_hits: one primitive, whatever the batch ------------------------------

BACKINGS = {"sphere": Sphere(1.3, center=(0.2, -0.1, 0.3)),
            "torus": Torus(2.0, 1.0), "saddle": SaddlePatch(1.0),
            "capsule": Capsule(3.0, 0.5)}
backings = st.one_of(st.sampled_from(sorted(BACKINGS)).map(BACKINGS.get),
                     meshes)
bands = st.one_of(
    st.tuples(st.floats(-2.0, 1.0), st.floats(0.0, 6.0)).map(
        lambda b: (b[0], b[0] + b[1])),
    st.floats(-1.0, 1.0).map(lambda lo: (lo, np.inf)))


def ray_batch(seed, n):
    """Generic origins in [-3, 3]^3 and directions of mixed lengths."""
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-3.0, 3.0, (n, 3))
    dirs = rng.standard_normal((n, 3)) * rng.uniform(0.2, 3.0, (n, 1))
    return origins, dirs


def assert_same_pairs(got, expected):
    assert np.array_equal(got[0], expected[0])
    assert np.array_equal(got[1], expected[1])


@RAY_SETTINGS
@given(backing=backings, seed=st.integers(0, 2**32), n=st.integers(1, 40),
       band=bands)
def test_shared_origin_equals_repeated_origin(backing, seed, n, band):
    origins, dirs = ray_batch(seed, n)
    repeated = np.tile(origins[0], (n, 1))
    assert_same_pairs(backing.ray_hits(origins[0], dirs, *band),
                      backing.ray_hits(repeated, dirs, *band))


@RAY_SETTINGS
@given(backing=backings, seed=st.integers(0, 2**32), n=st.integers(2, 40),
       band=bands)
def test_each_ray_equals_its_row_in_a_batch(backing, seed, n, band):
    origins, dirs = ray_batch(seed, n)
    ray, t = backing.ray_hits(origins, dirs, *band)
    for i in range(n):
        one = backing.ray_hits(origins[i:i + 1], dirs[i:i + 1], *band)
        assert_same_pairs(one, (ray[ray == i] - i, t[ray == i]))


QUADRIC_ORACLES = [(Sphere(1.3, center=(0.2, -0.1, 0.3)), sphere_ray_hits),
                   (Capsule(3.0, 0.5), capsule_ray_hits)]


def pair_multiset(pairs):
    ray, t = pairs
    order = np.lexsort((t, ray))
    return ray[order], t[order]


@RAY_SETTINGS
@given(quadric=st.sampled_from(QUADRIC_ORACLES), seed=st.integers(0, 2**32),
       n=st.integers(1, 40), shared_origin=st.booleans(),
       vertical=st.floats(0.0, 1.0), band=bands)
def test_sphere_and_capsule_match_their_former_bodies(quadric, seed, n,
                                                      shared_origin, vertical,
                                                      band):
    backing, former = quadric
    origins, dirs = ray_batch(seed, n)
    if shared_origin:
        origins = origins[0]
    # a share of the rays parallel to the capsule's axis, where the wall's
    # quadratic has A = 0
    dirs[np.random.default_rng(seed).random(n) < vertical, :2] = 0.0
    assert_same_pairs(pair_multiset(backing.ray_hits(origins, dirs, *band)),
                      pair_multiset(former(backing, origins, dirs, *band)))


@RAY_SETTINGS
@given(m=meshes, seed=st.integers(0, 2**32), n=st.integers(1, 60),
       shared_origin=st.booleans(), band=bands,
       chunk_pairs=st.sampled_from([trimesh.CHUNK_PAIRS, 64]))
def test_mesh_ray_hits_match_all_faces(m, seed, n, shared_origin, band,
                                       chunk_pairs):
    origins, dirs = ray_batch(seed, n)
    if shared_origin:
        origins = origins[0]
    with pytest.MonkeyPatch.context() as mp:  # small chunks split the rays
        mp.setattr(trimesh, "CHUNK_PAIRS", chunk_pairs)
        got = m.ray_hits(origins, dirs, *band)
    t, ok = m._ray_block(origins, dirs, every_face(m))
    ray, face = np.nonzero(ok & (t >= band[0]) & (t <= band[1]))
    assert_same_pairs(got, (ray, t[ray, face]))


def per_segment_fraction(oracle, x0, r, normal, n_rays, seed, tol=1e-3):
    """verify_projection as one segment_hits call per disk point."""
    v = normal / np.linalg.norm(normal)
    e1, e2 = geom.orthobasis(v)
    rng = substream(seed, goodtetra._PROJ_TAG)
    rad = (r / np.sqrt(2.0)) * np.sqrt(rng.random(n_rays))
    psi = rng.random(n_rays) * 2.0 * np.pi
    w = (x0[None] + rad[:, None] * (np.cos(psi)[:, None] * e1[None]
                                    + np.sin(psi)[:, None] * e2[None]))
    good = 0
    for k in range(n_rays):
        pts = oracle.segment_hits(w[k] - r * v, w[k] + r * v)
        if len(pts) and (np.linalg.norm(pts - x0[None], axis=1)
                         <= r * (1.0 + tol)).any():
            good += 1
    return good / float(n_rays)


@RAY_SETTINGS
@given(kind=st.sampled_from(["torus", "capsule"]), seed=st.integers(0, 2**32),
       normal=unit_vectors, r=st.floats(0.02, 2.0), n_rays=st.integers(1, 120))
def test_witness_fraction_matches_per_segment_loop(kind, seed, normal, r,
                                                   n_rays):
    oracle = SurfaceOracle(BACKINGS[kind])
    x0 = oracle.sample_points(np.random.default_rng(seed), 1)[0]
    args = (x0, r, normal, n_rays, seed)
    assert (goodtetra.verify_projection(oracle, *args)
            == per_segment_fraction(oracle, *args))
