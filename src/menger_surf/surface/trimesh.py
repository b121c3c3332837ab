"""Triangle meshes: areas, sampling, normals, spatial queries, inside test."""

import warnings

import numpy as np

from .. import geom

# fixed, axis-avoiding directions of the inside test's three parity rays
# (deterministic runs)
_PARITY_DIRS = np.array([
    [0.53772154625261, -0.12349872938470, 0.83400044827373],
    [-0.29834709218370, 0.74290184728349, 0.59930750947102],
    [0.10923847102930, 0.31415926535898, -0.94339483746290],
])
_PARITY_DIRS /= np.linalg.norm(_PARITY_DIRS, axis=1)[:, None]

# OpenBLAS runs the last (m mod 8) columns of a matrix product through a
# micro-kernel that rounds differently from the main one; padding the face
# list to a multiple of 8 gives each face the same bits in every subset
_COL_BLOCK = 8
# angular slack (radians) of the cone cull against rounding in its angles;
# arccos of a dot product near 1 is off by up to ~2e-8
_CONE_SLACK = 1e-7
# ray x face pairs per kernel call: temporaries of 512 KiB stay in cache
CHUNK_PAIRS = 1 << 16
# guide-table steps before a face lookup falls back to binary search
_GUIDE_STEPS = 4
# faces per row block of the self-intersection test's candidate-pair search
_PAIR_ROWS = 256


class TriMesh:
    """Immutable triangle mesh with area tables, face boxes and oriented normals.

    ``ray_hits`` tests only the faces that can matter (see there).  Stored
    normals point into the bounded component when the mesh is watertight
    (established by the sign of its enclosed volume); ``normals_inward`` is
    None for open meshes, which have no interior.  Only the face view of the
    last shared ray origin changes after construction, one attribute replaced
    whole.
    """

    def __init__(self, vertices, faces):
        vertices = geom.as_points(vertices, "vertices")
        faces = np.asarray(faces, dtype=np.int64)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise geom.InputError("faces must be (m, 3) vertex indices")
        if len(faces) and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise geom.InputError("faces: face index out of range")

        tri = vertices[faces]
        cross, areas, edges, keep = geom.triangles(tri[:, 0], tri[:, 1], tri[:, 2])
        self.n_dropped = int(len(faces) - keep.sum())
        if self.n_dropped == len(faces):  # the error alone, without a warning
            raise geom.InputError("empty mesh after removing degenerate faces")
        if self.n_dropped:
            warnings.warn(f"dropped {self.n_dropped} zero-area faces")
            faces, tri, cross, areas = faces[keep], tri[keep], cross[keep], areas[keep]
            edges = edges[keep]

        self.vertices = vertices
        self.faces = faces
        self.face_areas = areas
        self.cum_areas = np.cumsum(areas)
        self.total_area = float(self.cum_areas[-1])
        # guide table (Chen and Asau 1974) of one bucket per face: u lies in
        # bucket int(u * scale), and guide[b] is the first face whose
        # cumulative area falls in bucket b or later.  Rounding in the bucket
        # index is monotone in u, so no face left of guide[b] reaches u.
        self._guide_scale = len(faces) / self.total_area
        buckets = (self.cum_areas * self._guide_scale).astype(np.intp)
        self._guide = np.minimum(
            np.searchsorted(buckets, np.arange(len(faces) + 1)), len(faces) - 1)
        # _corners[c, k] is coordinate c of corner k of every face, a view
        self._corners = tri.transpose(2, 1, 0)
        self.face_normals = cross / np.linalg.norm(cross, axis=1)[:, None]
        self._tri = tri
        # precomputed plane + barycentric gradients: ray batches then reduce
        # to matrix products instead of per-pair cross products
        v0 = tri[:, 0]
        e1 = tri[:, 1] - v0
        e2 = tri[:, 2] - v0
        e11 = np.einsum("ij,ij->i", e1, e1)
        e22 = np.einsum("ij,ij->i", e2, e2)
        e12 = np.einsum("ij,ij->i", e1, e2)
        gram_det = np.maximum(e11 * e22 - e12 * e12, 1e-300)
        g1 = (e22[:, None] * e1 - e12[:, None] * e2) / gram_det[:, None]
        g2 = (e11[:, None] * e2 - e12[:, None] * e1) / gram_det[:, None]
        self._kernel_arrays = (cross, np.einsum("ij,ij->i", v0, cross), g1, g2,
                               np.einsum("ij,ij->i", v0, g1),
                               np.einsum("ij,ij->i", v0, g2),
                               np.linalg.norm(cross, axis=1))
        # face boxes, padded past the ray kernel's barycentric slack so that
        # no cull drops a face the kernel would report a hit on
        lo, hi = tri.min(axis=1), tri.max(axis=1)
        pad = 1e-9 * (hi - lo).max(axis=1, keepdims=True)
        self.tri_lo = lo - pad
        self.tri_hi = hi + pad
        self._view = None  # see _shaft_faces

        lo, hi = vertices.min(axis=0), vertices.max(axis=0)
        self.diameter = float(np.linalg.norm(hi - lo))
        self.mean_edge = float(edges.mean())

        self.watertight = self._check_watertight()
        self.vertex_normals = self._angle_weighted_normals()
        self.normals_inward = None
        if self.watertight:
            self._orient_inward()

    # -- construction helpers -------------------------------------------------

    def _check_watertight(self):
        """Every edge lies on exactly two faces that run it in opposite senses."""
        a = self.faces.ravel()
        b = self.faces[:, [1, 2, 0]].ravel()
        key = np.minimum(a, b) * len(self.vertices) + np.maximum(a, b)
        _, edge, count = np.unique(key, return_inverse=True, return_counts=True)
        forward = np.bincount(edge, weights=a < b)
        return bool(np.all(count == 2) and np.all(forward == 1))

    def _angle_weighted_normals(self):
        normals = np.zeros_like(self.vertices)
        tri = self._tri
        for corner in range(3):
            a = tri[:, (corner + 1) % 3] - tri[:, corner]
            b = tri[:, (corner + 2) % 3] - tri[:, corner]
            na = np.linalg.norm(a, axis=1)
            nb = np.linalg.norm(b, axis=1)
            cosang = np.einsum("ij,ij->i", a, b) / np.maximum(na * nb, 1e-300)
            ang = np.arccos(np.clip(cosang, -1.0, 1.0))
            np.add.at(normals, self.faces[:, corner], ang[:, None] * self.face_normals)
        nrm = np.linalg.norm(normals, axis=1)
        nz = nrm > 0.0
        normals[nz] /= nrm[nz, None]
        return normals

    def _orient_inward(self):
        """Make the stored normals point inward.  By the divergence theorem
        the sum over the faces of (v0 - c) . (v1 - v0) x (v2 - v0) is six
        times the enclosed volume, positive exactly when the winding normals
        point outward; c, the vertex centroid, keeps the precision of a mesh
        far from the origin."""
        lever = self._tri[:, 0] - self.vertices.mean(axis=0)
        if np.einsum("ij,ij->", lever, self._kernel_arrays[0]) > 0.0:
            self.face_normals = -self.face_normals
            self.vertex_normals = -self.vertex_normals
        self.normals_inward = True

    # -- sampling ---------------------------------------------------------------

    def _draw(self, rng, n, ball):
        """Face indices and barycentric draws (sqrt r1, r2); with a ball, on
        the faces whose boxes reach it (``_near_faces``)."""
        if ball is None:
            fi = self._face_at(rng.random(n) * self.total_area)
        else:
            near, cum = self._near_faces(ball)
            fi = near[:0]
            if len(near):
                u = rng.random(n) * cum[-1]
                fi = near[np.minimum(np.searchsorted(cum, u), len(near) - 1)]
        r1 = rng.random(len(fi))
        r2 = rng.random(len(fi))
        return fi, np.sqrt(r1), r2

    def _near_faces(self, ball):
        """The faces whose padded boxes come within reach of the ball
        (center, reach), and the cumulative table of their areas, built per
        call."""
        near = np.flatnonzero(self.box_distances(ball[0])[0] <= ball[1])
        return near, np.cumsum(self.face_areas[near])

    def cover_area(self, ball):
        """Area of the faces that ``_draw`` draws from for this ball."""
        cum = self._near_faces(ball)[1]
        return float(cum[-1]) if len(cum) else 0.0

    def _face_at(self, u):
        """The first face whose cumulative area reaches u, for u in
        [0, total_area]: ``np.searchsorted(cum_areas, u)``, by a guide table.

        Start at the guide entry of u's bucket, which is never right of the
        answer, and step right while the cumulative area is below u.  Rows
        still short after a few steps (many tiny faces in one bucket) finish
        by binary search.
        """
        fi = self._guide[(u * self._guide_scale).astype(np.intp)]
        for _ in range(_GUIDE_STEPS):
            right = self.cum_areas[fi] < u
            if not right.any():
                return fi
            fi += right
        rest = np.flatnonzero(self.cum_areas[fi] < u)
        fi[rest] = np.searchsorted(self.cum_areas, u[rest])
        return fi

    def _points(self, fi, r1, r2, out=None):
        """(1 - r1) a + r1 (1 - r2) b + r1 r2 c on faces fi with corners a, b,
        c, summed left to right one coordinate column at a time."""
        weights = (1.0 - r1, r1 * (1.0 - r2), r1 * r2)
        pts = np.empty((len(fi), 3)) if out is None else out
        term = np.empty(len(fi))
        for col, corners in zip(pts.T, self._corners):
            np.multiply(weights[0], corners[0][fi], out=col)
            for w, corner in zip(weights[1:], corners[1:]):
                col += np.multiply(w, corner[fi], out=term)
        return pts

    def _normals(self, fi, r1, r2):
        return self.face_normals[fi]

    # -- queries ------------------------------------------------------------------

    def ray_hits(self, origins, dirs, tmin, tmax):
        """Every hit of the rays origins + t * dirs[i] with tmin <= t <= tmax.

        ``origins`` is one shared point (3,) or one point per ray (k, 3).
        Returns (ray index, t) pairs, grouped by ray.  The faces tested depend
        on the input: for a shared origin, those that ``_shaft_faces`` keeps;
        for per-ray origins and a finite tmax, those whose boxes meet the
        bounding box of all segments; otherwise all of them.  A ray's hits
        have the same bits whichever faces are tested.
        """
        no_hits = np.empty(0, dtype=np.int64), np.empty(0)
        if len(dirs) == 0:
            return no_hits
        if origins.ndim == 1:
            idx = self._shaft_faces(origins, dirs, tmin, tmax)
        elif np.isfinite(tmax):
            ends = np.concatenate([origins + tmin * dirs, origins + tmax * dirs])
            idx = np.nonzero(np.all((self.tri_lo <= ends.max(axis=0))
                                    & (self.tri_hi >= ends.min(axis=0)), axis=1))[0]
        else:
            idx = np.arange(len(self.faces))
        if len(idx) == 0:
            return no_hits
        faces = self._face_block(idx)
        rays, ts = [], []
        step = max(2, CHUNK_PAIRS // len(idx))
        for s in range(0, len(dirs), step):
            o = origins if origins.ndim == 1 else origins[s:s + step]
            t, ok = self._ray_block(o, dirs[s:s + step], faces)
            # hits are sparse: a flat index scan is ~10x faster than 2-D nonzero
            ray, face = divmod(np.flatnonzero(ok & (t >= tmin) & (t <= tmax)),
                               len(idx))
            rays.append(s + ray)
            ts.append(t[ray, face])
        return np.concatenate(rays), np.concatenate(ts)

    def _shaft_faces(self, origin, dirs, tmin, tmax):
        """The faces, ascending, that a ray from origin along some row of
        dirs can meet with tmin <= t <= tmax: one shaft (Haines and Wallace
        1991) around the rays, cut from the face view of origin.

        A face stays when its box reaches the distance shell of [tmin, tmax]
        and its bounding sphere reaches the double cone around the rays'
        sign-aligned mean direction, of the widest ray's angle to it.  The
        mesh keeps the view of the last origin, so the cone growths of one
        search, which all cast from the seed point, build it once.
        """
        view = self._view
        if view is None or view[0] != origin.tobytes():
            view = self._view = self._face_view(origin)
        _, order, dmin, dmax, centre_dirs, beta = view
        lens = np.linalg.norm(dirs, axis=1)
        n = np.searchsorted(dmin, max(-tmin, tmax) * lens.max(), side="right")
        keep = dmax[:n] >= tmin * lens.min()
        unit = dirs / lens[:, None]
        axis = (np.where(unit @ unit[0] < 0.0, -1.0, 1.0)[:, None] * unit).sum(axis=0)
        axis /= np.linalg.norm(axis)
        half = _line_angle(unit, axis).max() + _CONE_SLACK
        if half < 0.5 * np.pi:  # False also for a zero ray or a zero mean
            # a centre on the axis can round its |cos| above 1: clamp, or NaN
            cos = np.minimum(np.abs(centre_dirs[:n] @ axis), 1.0)
            keep &= np.arccos(cos) <= half + beta[:n]
        return np.sort(order[:n][keep])

    def _face_view(self, origin):
        """(origin bytes, face order by dmin, and in that order dmin, dmax,
        unit directions to the bounding-sphere centres and their angular
        radii beta); beta is pi/2 when origin is inside the sphere."""
        dmin, dmax = self.box_distances(origin)
        order = np.argsort(dmin, kind="stable")
        lo, hi = self.tri_lo[order], self.tri_hi[order]
        q = 0.5 * (lo + hi) - origin
        rad = 0.5 * np.linalg.norm(hi - lo, axis=1)
        reach = np.maximum(np.linalg.norm(q, axis=1), rad)
        return (origin.tobytes(), order, dmin[order], dmax[order],
                q / reach[:, None], np.arcsin(rad / reach))

    def box_distances(self, p):
        """Least and greatest distance from p to each padded face box."""
        below, above = self.tri_lo - p, p - self.tri_hi
        gap = np.maximum(np.maximum(below, above), 0.0)
        far = -np.minimum(below, above)
        return (np.sqrt(np.einsum("ij,ij->i", gap, gap)),
                np.sqrt(np.einsum("ij,ij->i", far, far)))

    def inside(self, p):
        """Ray-parity membership with 3 fixed directions and majority vote."""
        if not self.watertight:
            raise ValueError("no interior")
        ray, t = self.ray_hits(np.tile(p, (3, 1)), _PARITY_DIRS, 0.0, np.inf)
        return bool((np.bincount(ray[t > 0.0], minlength=3) % 2).sum() >= 2)

    def has_interior(self):
        return self.watertight

    def normal_at(self, p):
        """Oriented normal of the vertex nearest to p."""
        d = self.vertices - p
        return self.vertex_normals[int(np.argmin(np.einsum("ij,ij->i", d, d)))].copy()

    def surface_distance(self, p):
        """Distance from p to the mesh: exact point-triangle distances to the
        faces whose padded box can hold the nearest point.  A face's distance
        is at least its least box distance and every face's at most its
        greatest, so the nearest face has a least box distance no greater
        than the smallest greatest one; the relative slack covers rounding."""
        near, far = self.box_distances(p)
        tri = self._tri[near <= far.min() * (1.0 + 1e-12)]
        return float(np.sqrt(_point_tri_sqdist(p, tri).min()))

    def _face_block(self, face_idx):
        """(m, kernel arrays of the m faces padded to a multiple of _COL_BLOCK)."""
        m = len(face_idx)
        face_idx = np.concatenate([face_idx, np.zeros((-m) % _COL_BLOCK, dtype=np.int64)])
        return m, [a[face_idx] for a in self._kernel_arrays]

    def _ray_block(self, origins, dirs, faces):
        """Ray/triangle hit parameters against the faces of a ``_face_block``.

        origins (3,), (1,3) or (k,3), dirs (k,3).  Everything reduces to
        matrix products against the precomputed plane normals and barycentric
        gradients: one row-vector product per origin, and (k,3)x(3,m) for the
        directions, padded to two rows when k = 1.  Returns (t, ok) of shape
        (k, m); the parallel test is scale-free.
        """
        m, (fc, v0c, g1, g2, v0g1, v0g2, cn) = faces
        k = len(dirs)
        if k == 1:  # a one-row product takes another BLAS path
            dirs = np.concatenate([dirs, dirs])
        origins = origins.reshape(-1, 1, 3)
        den = dirs @ fc.T                              # (k, m)
        num = v0c[None, :] - (origins @ fc.T)[:, 0]    # broadcasts (1|k, m)
        dn = np.linalg.norm(dirs, axis=1)[:, None] + 1e-300
        ok = np.abs(den) > 1e-13 * dn * cn[None, :]
        # divide only the pairs that pass: near-parallel ones would overflow
        t = np.divide(num, den, out=np.full(den.shape, np.inf), where=ok)
        tf = np.where(ok, t, 0.0)  # keep inf out of the barycentric products
        a1 = (origins @ g1.T)[:, 0] - v0g1[None, :]
        a2 = (origins @ g2.T)[:, 0] - v0g2[None, :]
        u = a1 + tf * (dirs @ g1.T)
        v = a2 + tf * (dirs @ g2.T)
        slack = 1e-10
        ok &= (u >= -slack) & (v >= -slack) & (u + v <= 1.0 + slack)
        return t[:k, :m], ok[:k, :m]

    def tessellate(self):
        return self

    def describe(self):
        return {"kind": "mesh", "n_vertices": int(len(self.vertices)),
                "n_faces": int(len(self.faces)),
                "watertight": bool(self.watertight)}


def _line_angle(v, axis):
    """Angle in [0, pi/2] between each row of v and the line through axis."""
    cross = np.stack(geom.cross3(v.T, axis.tolist()), axis=1)
    return np.arctan2(np.linalg.norm(cross, axis=1), np.abs(v @ axis))


def _point_tri_sqdist(p, tri):
    """Squared distance from one point to each triangle of an (m, 3, 3) stack.

    The squared distance to the face's plane where p projects into the face,
    that is where the Gram determinant |e1 x e2|^2 of its edges from corner a
    is positive and the barycentrics of the projection lie in [0, 1]; else,
    and at most, the least squared distance to its three edges.
    """
    a, b, c = tri.transpose(1, 2, 0)
    e1, e2, ap = geom._sub(b, a), geom._sub(c, a), geom._sub(p, a)
    n = geom.cross3(e1, e2)
    gram = geom._dot(n, n)
    # the barycentrics of b and c, times the Gram determinant
    v = geom._dot(n, geom.cross3(ap, e2))
    w = geom._dot(n, geom.cross3(e1, ap))
    into = (gram > 0.0) & (v >= 0.0) & (w >= 0.0) & (v + w <= gram)
    h = geom._dot(n, ap)
    plane = np.divide(h * h, gram, out=np.full(len(tri), np.inf), where=into)
    edges = [_point_seg_sqdist(p, s, e) for s, e in ((a, b), (b, c), (c, a))]
    return np.minimum(plane, np.min(edges, axis=0))


def _point_seg_sqdist(p, s, e):
    """Squared distance from one point to each segment [s, e] of column
    triples, and at most |p - s|^2 itself, so that each corner of a face,
    the start of one of its edges, enters the least distance exactly."""
    se, sp = geom._sub(e, s), geom._sub(p, s)
    length2 = geom._dot(se, se)
    t = np.clip(np.divide(geom._dot(sp, se), length2, out=np.zeros(len(length2)),
                          where=length2 > 0.0), 0.0, 1.0)
    d = [spc - t * sec for spc, sec in zip(sp, se)]
    return np.minimum(geom._dot(d, d), geom._dot(sp, sp))


def has_self_intersections(mesh):
    """True when a face edge crosses the inside of a face it shares no vertex
    with, tested on the pairs whose closed boxes overlap, a row block at a
    time.  This covers every transversal face/face crossing; exactly coplanar
    overlaps are not detected.  Report flag only."""
    faces = mesh.faces
    tri = mesh.vertices[faces]
    lo, hi = tri.min(axis=1).T, tri.max(axis=1).T
    m = len(tri)
    for start in range(0, m, _PAIR_ROWS):
        rows = np.arange(start, min(start + _PAIR_ROWS, m))
        near = rows[:, None] < np.arange(start, m)
        for k in range(3):
            near &= lo[k, rows, None] <= hi[k, start:]
            near &= lo[k, start:] <= hi[k, rows, None]
        i, j = np.argwhere(near).T + start
        apart = ~(faces[i, :, None] == faces[j, None, :]).any(axis=(1, 2))
        i, j = i[apart], j[apart]
        if (_edges_cross(tri[i], tri[j]) | _edges_cross(tri[j], tri[i])).any():
            return True
    return False


def _edges_cross(a, b):
    """Whether an edge of each triangle of stack ``a`` crosses the inside of
    the matching triangle of ``b`` (Moller and Trumbore 1997): 0 < t < 1
    along the edge and both barycentrics above 1e-12 with a sum below
    1 - 1e-12.  Edges nearly parallel to the plane of ``b`` are skipped."""
    e1, e2 = b[:, 1:2] - b[:, :1], b[:, 2:] - b[:, :1]
    d = a[:, [1, 2, 0]] - a  # edge k runs from corner k to corner k + 1
    s = a - b[:, :1]
    pvec, q = np.cross(d, e2), np.cross(s, e1)
    den = np.sum(e1 * pvec, axis=2)  # -n.d for the face normal n = e1 x e2
    slack = np.linalg.norm(np.cross(e1, e2), axis=2) * np.linalg.norm(d, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v, t = (np.sum(x * y, axis=2) / den for x, y in ((s, pvec), (d, q), (e2, q)))
        hit = (0.0 < t) & (t < 1.0) & (u > 1e-12) & (v > 1e-12) & (u + v < 1.0 - 1e-12)
    return (hit & (np.abs(den) >= 1e-14 * (slack + 1e-300))).any(axis=1)
