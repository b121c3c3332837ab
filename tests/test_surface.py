import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from pytest import approx

import orient_oracle
from conftest import exactly, kink_box, load_perfbench
from menger_surf import InputError
from menger_surf.rng import substream
from menger_surf.surface import (MeshParseError, SurfaceOracle, TriMesh,
                                 load_mesh, load_obj, load_off, sample_point,
                                 save_obj, save_off, shapes)
from menger_surf.surface.analytic import Sphere
from menger_surf.surface.trimesh import _point_tri_sqdist

CUBE_OBJ = """# unit cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3 4
f 8 7 6 5
f 1 5 6 2
f 2 6 7 3
f 3 7 8 4
f 4 8 5 1
"""


class TestLoaders:
    def test_obj_cube_area(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        mesh = load_mesh(path)
        assert len(mesh.vertices) == 8
        assert len(mesh.faces) == 12  # quads fan-triangulated
        assert mesh.total_area == approx(6.0)
        assert mesh.watertight

    def test_off_icosphere_area(self, tmp_path):
        ico = shapes.icosphere(3)
        path = tmp_path / "ico.off"
        save_off(path, ico.vertices, ico.faces)
        mesh = load_mesh(path)
        assert mesh.total_area == approx(4.0 * np.pi, rel=0.01)
        assert mesh.watertight

    def test_obj_round_trip(self, tmp_path):
        ico = shapes.icosphere(1)
        path = tmp_path / "m.obj"
        save_obj(path, ico.vertices, ico.faces)
        back = load_mesh(path)
        assert back.vertices == approx(ico.vertices)
        assert (back.faces == ico.faces).all()

    @pytest.mark.parametrize("save,load", [(save_obj, load_obj),
                                           (save_off, load_off)])
    def test_writers_read_back_bit_for_bit(self, tmp_path, save, load):
        rng = substream(25, 1)
        vertices = np.concatenate([shapes.icosphere(2).vertices,
                                   rng.standard_normal((50, 3)) * 1e-300,
                                   rng.standard_normal((50, 3)) * 1e300,
                                   [[-0.0, 5e-324, 2.0**-1074]]])
        faces = rng.integers(0, len(vertices), (40, 3))
        path = tmp_path / "m"
        save(path, vertices, faces)
        got = load(path)
        for want, back in zip((vertices, faces.astype(np.int64)), got):
            assert back.dtype == want.dtype and back.shape == want.shape
            assert back.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name,text,line", [
        ("nan.obj", "v 0 0 0\nv 1 0 0\nv nan 1 0\nv 0 0 1\nf 1 2 3\n", 3),
        ("inf.obj", "v 0 0 0\n\n# c\nv 1 0 -inf\nv 0 1 0\nf 1 2 3\n", 4),
        ("nan.off", "OFF\n4 1 0\n0 0 0\n1 0 0\n0 NaN 0\n0 0 1\n3 0 1 2\n", 5),
        ("inf.off", "OFF\n4 1 0\n0 0 0\n1 0 0\ninf 1 0\n0 0 1\n3 0 1 2\n", 5),
        ("big.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1e999 0\n3 0 1 2\n", 5),
    ])
    def test_non_finite_vertex_reports_its_line(self, tmp_path, name, text,
                                                line):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MeshParseError, match=exactly(
                f"{path}:{line}: non-finite vertex coordinates")):
            load_mesh(path)

    @pytest.mark.parametrize("counts", ["-3 1 0", "3 -1 0", "3 1 -1"])
    def test_negative_off_count_is_a_counts_error(self, tmp_path, counts):
        path = tmp_path / "neg.off"
        path.write_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshParseError, match=exactly(
                f"{path}:2: bad counts line")):
            load_mesh(path)

    def test_face_index_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(MeshParseError, match="bad.obj:4"):
            load_mesh(path)

    def test_bad_coordinate_reports_line(self, tmp_path):
        path = tmp_path / "bad.off"
        path.write_text("OFF\n3 1 0\n0 0 0\n1 0 zz\n0 1 0\n3 0 1 2\n")
        with pytest.raises(MeshParseError, match="bad.off:4"):
            load_mesh(path)

    def test_empty_mesh_rejected(self, tmp_path):
        path = tmp_path / "empty.obj"
        path.write_text("v 0 0 0\n")
        with pytest.raises(MeshParseError, match="empty"):
            load_mesh(path)

    def test_headerless_off(self, tmp_path):
        path = tmp_path / "plain.off"
        path.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        mesh = load_mesh(path)
        assert len(mesh.faces) == 1
        assert mesh.total_area == 0.5

    def test_off_colour_columns_are_skipped(self, tmp_path):
        plain = ("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
                 "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n")
        colour = ("OFF\n4 4 0\n0 0 0 255 0 0\n1 0 0 255 0 0\n0 1 0 255 0 0\n"
                  "0 0 1 255 0 0\n3 0 2 1 0 0 255\n3 0 1 3 0 0 255\n"
                  "3 0 3 2 0.1 0.2 0.3 1\n3 1 2 3\n")
        (tmp_path / "plain.off").write_text(plain)
        (tmp_path / "color.off").write_text(colour)
        want = load_off(tmp_path / "plain.off")
        got = load_off(tmp_path / "color.off")
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name,text,message", [
        ("short.off", "OFF\n3 1 0\n0 0 0\n1 0\n0 0\n0 1 0\n3 0 1 2\n",
         "4: vertex needs 3 coordinates"),
        ("face.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n2\n",
         "6: face needs 3 indices, got 2"),
        ("small.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n2 0 1\n",
         "6: face needs at least 3 vertices"),
        ("end.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n",
         "4: unexpected end of file while reading vertex"),
    ])
    def test_off_record_errors_name_their_line(self, tmp_path, name, text,
                                               message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MeshParseError, match=exactly(f"{path}:{message}")):
            load_off(path)

    def test_off_counts_on_the_header_line(self, tmp_path):
        path = tmp_path / "one.off"
        path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert load_off(path)[1].tolist() == [[0, 1, 2]]

    def test_negative_obj_indices(self, tmp_path):
        path = tmp_path / "neg.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
        mesh = load_mesh(path)
        assert len(mesh.faces) == 1

    def test_slash_tokens(self, tmp_path):
        path = tmp_path / "tex.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n")
        assert len(load_mesh(path).faces) == 1

    def test_flipped_face_is_not_watertight(self):
        base = shapes.icosphere(1)
        assert base.watertight
        faces = base.faces.copy()
        faces[7] = faces[7, ::-1]
        assert not TriMesh(base.vertices, faces).watertight

    def test_edge_on_three_faces_is_not_watertight(self):
        base = shapes.icosphere(0)
        a, b, _ = base.faces[0]
        fin = np.array([[b, a, len(base.vertices)]])
        verts = np.concatenate([base.vertices, [[3.0, 0.5, 0.25]]])
        mesh = TriMesh(verts, np.concatenate([base.faces, fin]))
        assert not mesh.watertight

    def test_watertight_matches_edge_dict(self, flat_patch):
        def by_edge_dict(faces):  # the per-edge loop the vectorised test replaced
            seen = {}
            for i, j, k in faces:
                for a, b in ((i, j), (j, k), (k, i)):
                    seen.setdefault((min(a, b), max(a, b)), []).append(a < b)
            return all(len(o) == 2 and o[0] != o[1] for o in seen.values())

        base = shapes.icosphere(2)
        rng = substream(8, 8)
        for flips in (0, 1, 2):
            faces = base.faces.copy()
            pick = rng.choice(len(faces), flips, replace=False)
            faces[pick] = faces[pick, ::-1]
            mesh = TriMesh(base.vertices, faces)
            assert mesh.watertight == by_edge_dict(faces) == (flips == 0)
        for mesh in (flat_patch, shapes.torus_mesh(2.0, 1.0, 12, 8)):
            assert mesh.watertight == by_edge_dict(mesh.faces)

    def test_zero_area_faces_dropped_with_warning(self, tmp_path):
        path = tmp_path / "degen.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n")
        with pytest.warns(UserWarning, match="dropped 1"):
            mesh = load_mesh(path)
        assert len(mesh.faces) == 1
        assert mesh.n_dropped == 1

    def test_all_faces_degenerate_is_a_parse_error(self, tmp_path):
        path = tmp_path / "collinear.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
        # the error comes alone: pytest turns a warning before it into an error
        with pytest.raises(MeshParseError, match="collinear.obj:1: empty"):
            load_mesh(path)


# valid OBJ and OFF documents with a few words or separators swapped reach
# the parsers' deeper branches, which random bytes almost never do
VALID_MESHES = [
    b"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\nf -1 1/1 2//2 3 # q\n",
    b"OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n4 0 1 2 3\n"]
MESH_WORDS = [b"", b" ", b"\n", b"#", b"v", b"f", b"OFF", b"0", b"2", b"-1",
              b"-9", b"2.5", b"1e999", b"nan", b"99999999999", b"zz", b"1/x",
              b"\xff"]


def edited(doc, edits):
    words = re.split(rb"(\s+)", doc)
    for pos, word in edits:
        words[pos % len(words)] = word
    return b"".join(words)


mesh_bytes = st.one_of(
    st.binary(max_size=300),
    st.builds(edited, st.sampled_from(VALID_MESHES),
              st.lists(st.tuples(st.integers(0, 99),
                                 st.sampled_from(MESH_WORDS)), max_size=3)))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None)
@given(data=mesh_bytes, loader=st.sampled_from([load_obj, load_off]))
def test_loaders_raise_only_parse_errors(fuzz_dir, data, loader):
    path = fuzz_dir / "m"
    path.write_bytes(data)
    try:
        vertices, faces = loader(path)
    except MeshParseError:
        return
    assert vertices.ndim == 2 and vertices.shape[1] == 3
    assert np.all(np.isfinite(vertices))
    assert faces.ndim == 2 and faces.shape[1] == 3
    assert faces.min() >= 0 and faces.max() < len(vertices)

class TestSampling:
    def test_sphere_mean_near_origin(self, unit_sphere):
        rng = substream(123, 0)
        pts = unit_sphere.sample_points(rng, 1_000_000)
        assert np.abs(pts.mean(axis=0)).max() < 0.01

    def test_cap_fraction_matches_area(self, unit_sphere):
        # fraction inside a cap of chordal radius R is R^2/4 exactly
        rng = substream(7, 0)
        pts = unit_sphere.sample_points(rng, 1_000_000)
        for R in (0.5, 1.0):
            frac = (np.linalg.norm(pts - [0.0, 0.0, 1.0], axis=1) <= R).mean()
            expect = R * R / 4.0
            se = np.sqrt(expect * (1 - expect) / len(pts))
            assert abs(frac - expect) <= 3.0 * se

    def test_single_triangle_mesh(self):
        mesh = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float),
                       np.array([[0, 1, 2]]))
        rng = substream(5, 1)
        pts, _ = SurfaceOracle(mesh).sample(rng, 2000)
        assert (pts[:, 2] == 0).all()
        assert (pts[:, 0] >= -1e-12).all() and (pts[:, 1] >= -1e-12).all()
        assert (pts[:, 0] + pts[:, 1] <= 1 + 1e-12).all()

    def test_fixed_seed_reproducible(self, unit_sphere, icosphere2):
        for oracle in (unit_sphere, SurfaceOracle.from_mesh(icosphere2)):
            a = oracle.sample_points(substream(99, 3), 1000)
            b = oracle.sample_points(substream(99, 3), 1000)
            assert (a == b).all()

    def test_torus_samples_on_surface(self, torus_2_1):
        rng = substream(11, 0)
        pts, normals = torus_2_1.sample(rng, 50000)
        rho = np.hypot(pts[:, 0], pts[:, 1])
        resid = (rho - 2.0) ** 2 + pts[:, 2] ** 2
        assert resid == approx(np.ones(len(pts)), rel=1e-10)
        assert np.linalg.norm(normals, axis=1) == approx(np.ones(len(pts)))
        # area-uniformity: the inner half (cos v < 0) carries weight
        # (pi R - 2 r) / (2 pi R)
        inner = rho < 2.0
        expect = (2.0 * np.pi - 2.0) / (4.0 * np.pi)
        se = np.sqrt(expect * (1 - expect) / len(pts))
        assert abs(inner.mean() - expect) < 4 * se

    def test_sample_point_normal_unit(self, unit_sphere):
        sp = sample_point(unit_sphere, substream(1, 2))
        assert np.linalg.norm(sp.normal) == approx(1.0, abs=1e-12)
        assert np.linalg.norm(sp.position) == approx(1.0, abs=1e-12)


class TestSegmentHits:
    def test_sphere_diametral(self, unit_sphere):
        hits = unit_sphere.segment_hits([0, 0, -2], [0, 0, 2])
        assert hits == approx(np.array([[0, 0, -1], [0, 0, 1]]), abs=1e-12)

    def test_inside_ball_empty(self, unit_sphere):
        assert len(unit_sphere.segment_hits([0, 0, -0.5], [0, 0, 0.5])) == 0

    def test_mesh_matches_analytic_sphere(self, unit_sphere):
        mesh = SurfaceOracle.from_mesh(shapes.icosphere(5))
        rng = substream(17, 0)
        inner = rng.standard_normal((1000, 3))
        inner *= 0.3 * rng.random((1000, 1)) / np.linalg.norm(inner, axis=1)[:, None]
        outer = rng.standard_normal((1000, 3))
        outer *= 2.0 / np.linalg.norm(outer, axis=1)[:, None]
        worst = 0.0
        for a, b in zip(inner, outer):
            ha = unit_sphere.segment_hits(a, b)
            hm = mesh.segment_hits(a, b)
            assert len(ha) == 1 and len(hm) == 1
            worst = max(worst, float(np.linalg.norm(ha[0] - hm[0])))
        assert worst < 1e-3

    def test_saddle_quadratic_hit(self):
        saddle = SurfaceOracle.saddle(1.0)
        hits = saddle.segment_hits([0.5, 0.5, -1.0], [0.5, 0.5, 1.0])
        assert hits == approx(np.array([[0.5, 0.5, 0.25]]), abs=1e-12)
        assert len(saddle.segment_hits([2.5, 0.5, -9], [2.5, 0.5, 9])) == 0

    def test_torus_axis_line(self, torus_2_1):
        hits = torus_2_1.segment_hits([0, 0, 0], [4, 0, 0])
        assert hits == approx(np.array([[1, 0, 0], [3, 0, 0]]), abs=1e-9)

    def test_capsule_axis(self):
        cap = SurfaceOracle.capsule(10.0, 0.2)
        hits = cap.segment_hits([0, 0, -6], [0, 0, 6])
        assert hits[:, 2] == approx(np.array([-5.2, 5.2]), abs=1e-12)


# the off-centre sphere of the ray tests, a torus and a capsule, each with
# points of its core: the centre, the axis and centre circle, the axis segment
TUBES = {"sphere": (SurfaceOracle(Sphere(1.3, center=(0.2, -0.1, 0.3))),
                    [[0.2, -0.1, 0.3]]),
         "torus": (SurfaceOracle.torus(2.0, 1.0),
                   [[0.0, 0.0, 0.0], [0.0, 0.0, 1.5], [2.0, 0.0, 0.0],
                    [0.0, -2.0, 0.0], [-1.2, 1.6, 0.0]]),
         "capsule": (SurfaceOracle.capsule(2.0, 0.5),
                     [[0.0, 0.0, -1.0], [0.0, 0.0, 0.3], [0.0, 0.0, 1.0]])}


@pytest.fixture(scope="module")
def builder_meshes():
    """Every watertight mesh that the builders and the benchmark make."""
    meshes = {f"icosphere{k}": shapes.icosphere(k) for k in range(5)}
    meshes["ellipsoid"] = shapes.ellipsoid(1.3, 1.0, 0.8)
    meshes["torus"] = shapes.torus_mesh(2.0, 1.0)
    meshes["capsule"] = shapes.capsule_mesh(2.0, 0.5)
    workloads = load_perfbench("workloads")
    meshes.update((f"kink/{label}", TriMesh(*workloads.kink_box(**kw)))
                  for label, kw in workloads.KINK_BOXES)
    return meshes


BUILDER_MESHES = ["icosphere0", "icosphere1", "icosphere2", "icosphere3",
                  "icosphere4", "ellipsoid", "torus", "capsule",
                  "kink/central_hit_a", "kink/central_hit_b", "kink/wide_pair",
                  "kink/antipodal_3a", "kink/antipodal_3b"]


@pytest.mark.parametrize("name", BUILDER_MESHES)
@settings(max_examples=8, deadline=None)
@given(reverse=st.booleans(),
       shift=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3),
       decade=st.floats(-3.0, 3.0))
@example(reverse=False, shift=[0.0, 0.0, 0.0], decade=0.0)
@example(reverse=True, shift=[0.0, 0.0, 0.0], decade=0.0)
def test_signed_volume_orientation_matches_the_vote(builder_meshes, name,
                                                    reverse, shift, decade):
    """The signed volume flips the stored normals exactly where the former
    25-probe parity vote does (``tests/orient_oracle.py``): on each builder
    mesh, in either winding, scaled by 1e-3 to 1e3 and moved by up to 1e3."""
    base = builder_meshes[name]
    faces = base.faces[:, ::-1] if reverse else base.faces
    mesh = TriMesh(base.vertices * 10.0**decade + np.array(shift), faces)
    assert mesh.watertight and mesh.n_dropped == 0
    flipped = mesh.face_normals[0] @ mesh._kernel_arrays[0][0] < 0.0
    assert flipped == orient_oracle.winding_points_outward(mesh)
    assert flipped != reverse  # the builders wind their faces outward


class TestInside:
    def test_sphere(self, unit_sphere):
        assert unit_sphere.inside([0, 0, 0])
        assert not unit_sphere.inside([0, 0, 2])

    def test_saddle_has_no_interior(self):
        saddle = SurfaceOracle.saddle(1.0)
        with pytest.raises(ValueError, match="no interior"):
            saddle.inside([0, 0, 0])
        assert not saddle.has_interior()

    def test_open_mesh_has_no_interior(self, flat_patch):
        assert not flat_patch.watertight
        with pytest.raises(ValueError, match="no interior"):
            flat_patch.inside(np.zeros(3))

    def test_mesh_parity_consistency(self, icosphere2):
        # inside() agrees with crossing parity of a long probe segment
        rng = substream(31, 0)
        pts = rng.uniform(-1.3, 1.3, (1000, 3))
        far = np.array([3.1, 2.9, 3.3])
        for p in pts:
            crossings = len(SurfaceOracle(icosphere2).segment_hits(p, far))
            assert icosphere2.inside(p) == (crossings % 2 == 1)

    def test_normals_point_inward(self, icosphere2, builder_meshes):
        assert icosphere2.normals_inward
        eps = 1e-3
        for i in range(0, len(icosphere2.vertices), 17):
            v = icosphere2.vertices[i]
            n = icosphere2.vertex_normals[i]
            assert icosphere2.inside(v + eps * n)
        # every watertight builder mesh, in both windings
        for name, base in builder_meshes.items():
            for mesh in (base, TriMesh(base.vertices, base.faces[:, ::-1])):
                assert mesh.normals_inward, name
                eps = 1e-3 * mesh.mean_edge
                for i in np.linspace(0, len(mesh.vertices) - 1, 24, dtype=int):
                    v, n = mesh.vertices[i], mesh.vertex_normals[i]
                    assert mesh.inside(v + eps * n), (name, i)
        # the tubes answer every point query from their core: on sampled
        # points, and at the core points where no normal exists
        for oracle, singular in TUBES.values():
            pts, normals = oracle.sample(substream(4, 4), 200)
            for p, n in zip(pts, normals):
                assert oracle.surface_distance(p) <= 1e-12 * oracle.diameter
                assert np.abs(oracle.normal_at(p) - n).max() <= 1e-12
                assert oracle.inside(p + 1e-6 * n)
                assert not oracle.inside(p - 1e-6 * n)
            for p in singular:
                with pytest.raises(InputError, match="which has no normal"):
                    oracle.normal_at(p)
        # every centre-circle point is nearest to a point of the torus axis
        torus = TUBES["torus"][0]
        for z in (0.0, 0.5, -3.0):
            assert torus.surface_distance([0.0, 0.0, z]) == approx(
                np.hypot(2.0, z) - 1.0, rel=1e-15)
            assert not torus.inside([0.0, 0.0, z])


class TestTessellation:
    def test_torus_tessellation_area(self, torus_2_1):
        mesh = torus_2_1.tessellate()
        assert mesh.total_area == approx(torus_2_1.total_area, rel=0.01)
        assert mesh.watertight
        assert torus_2_1.tessellate() is mesh

    def test_capsule_tessellation_area(self):
        cap = SurfaceOracle.capsule(3.0, 0.5)
        mesh = cap.tessellate()
        assert mesh.total_area == approx(cap.total_area, rel=0.01)
        assert mesh.watertight
        assert cap.tessellate() is mesh

    def test_saddle_tessellation_area(self):
        saddle = SurfaceOracle.saddle(1.0)
        mesh = saddle.tessellate()
        assert mesh.total_area == approx(saddle.total_area, rel=0.01)
        assert saddle.tessellate() is mesh

    def test_mesh_oracle_tessellate_is_identity(self, icosphere2):
        oracle = SurfaceOracle.from_mesh(icosphere2)
        assert oracle.tessellate() is icosphere2
        assert oracle.tessellate() is oracle.tessellate()


# small meshes of each kind the searches run on: closed, holed and kinked
DISTANCE_MESHES = {"icosphere": shapes.icosphere(2),
                   "torus": shapes.torus_mesh(2.0, 1.0, 24, 12),
                   "kink": kink_box(n=8, neg=(0.3, 80.0), pos=(0.5, 60.0))}


class TestSurfaceDistance:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(DISTANCE_MESHES)),
           vertex=st.integers(0, 10**6),
           offset=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           scale=st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e3]))
    def test_culled_distance_is_the_full_scan(self, name, vertex, offset,
                                              scale):
        # near a vertex (on the surface at scale 0), beside it and far away
        mesh = DISTANCE_MESHES[name]
        p = mesh.vertices[vertex % len(mesh.vertices)] + scale * np.array(offset)
        full = float(np.sqrt(_point_tri_sqdist(p, mesh._tri).min()))
        assert mesh.surface_distance(p) == full


class TestOracleValidation:
    def test_mesh_errors_are_input_errors(self, tmp_path):
        assert issubclass(MeshParseError, InputError)
        with pytest.raises(InputError, match=exactly("unknown mesh format 'ply'")):
            load_mesh(tmp_path / "noisy.ply")

    def test_from_mesh_type_check(self):
        with pytest.raises(InputError,
                           match=exactly("mesh must be of type TriMesh, got str")):
            SurfaceOracle.from_mesh("not a mesh")

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            SurfaceOracle.sphere(-1.0)
        with pytest.raises(ValueError):
            SurfaceOracle.torus(1.0, 2.0)
        with pytest.raises(ValueError):
            SurfaceOracle.saddle(0.0)
        with pytest.raises(ValueError):
            SurfaceOracle.capsule(0.0, 1.0)
