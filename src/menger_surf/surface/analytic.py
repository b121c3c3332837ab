"""Closed-form surfaces: sphere, torus, saddle patch, capsule.

Each kind provides area-exact sampling, closed-form ray intersection
(``ray_hits``: every hit of a batch of rays within a parameter band),
normals, an inside test when the surface bounds a volume, and a triangulated
stand-in via ``tessellate`` for the face-based diagnostics.  Normals point
into the bounded component (inward) where one exists.
"""

import numpy as np

from .. import geom
from . import shapes


def _solve_quadratic_batch(A, B, C):
    """Stable roots of A t^2 + B t + C = 0, vectorized.

    Returns (t1, t2, valid) with t1 <= t2; linear equations fill both slots
    with the single root; no real root -> valid False.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    lin = np.abs(A) < 1e-300
    disc = B * B - 4.0 * A * C
    valid = (disc >= 0.0) & ~lin
    sq = np.sqrt(np.where(disc >= 0.0, disc, 0.0))
    q = -0.5 * (B + np.where(B >= 0.0, sq, -sq))
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(valid, q / np.where(A == 0.0, 1.0, A), np.inf)
        r2 = np.where(valid & (np.abs(q) > 0.0), C / np.where(q == 0.0, 1.0, q), r1)
        tlin = np.where(np.abs(B) > 0.0, -C / np.where(B == 0.0, 1.0, B), np.inf)
    r1 = np.where(lin, tlin, r1)
    r2 = np.where(lin, tlin, r2)
    valid = valid | (lin & np.isfinite(r1))
    t1 = np.minimum(r1, r2)
    t2 = np.maximum(r1, r2)
    return t1, t2, valid


def _origin_dots(dirs, o):
    """dirs[i] @ o, or dirs[i] @ o[i] for per-ray origins (k, 3).

    Always in the bits of a matrix-vector product of two or more rows: a
    one-row product takes another BLAS path, so it is padded, and per-ray
    origins run one two-row product each.
    """
    if o.ndim == 2:
        return (np.stack([dirs, dirs], axis=1) @ o[:, :, None])[:, 0, 0]
    if len(dirs) == 1:
        return (np.concatenate([dirs, dirs]) @ o)[:1]
    return dirs @ o


def _dots(u, w):
    """u @ w row by row for (3,) or (k, 3) operands, in the bits of a 1-D dot."""
    if u.ndim == w.ndim == 1:
        return u @ w
    u, w = np.broadcast_arrays(u, w)
    return (u[:, None, :] @ w[:, :, None])[:, 0, 0]


def _squares_xy(v):
    """v_x**2 + v_y**2 per row of v, squared by C ``pow`` as numpy scalars are;
    ``np.square`` (x * x) differs from it in the last bit on ~0.1 % of inputs."""
    sq = np.asarray(v, dtype=object)[..., :2] ** 2
    return np.asarray(sq[..., 0] + sq[..., 1], dtype=float)


def _hits(ts, ok, tmin, tmax):
    """The (ray, t) pairs of a (k, c) table of candidate roots that hold."""
    ray, col = divmod(np.flatnonzero(ok & (ts >= tmin) & (ts <= tmax)),
                      ts.shape[1])
    return ray, ts[ray, col]


class Sphere:
    def __init__(self, radius, center=(0.0, 0.0, 0.0)):
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)
        self.total_area = 4.0 * np.pi * self.radius**2
        self.diameter = 2.0 * self.radius
        self._tess = {}

    def sample(self, rng, n, ball=None):
        # Archimedes: z uniform on [-rho, rho] is area-uniform
        z = rng.random(n) * 2.0 - 1.0
        phi = rng.random(n) * 2.0 * np.pi
        if ball is not None:
            x, reach = geom.ball_reach(ball, self.diameter)
            keep = np.abs(self.center[2] + self.radius * z - x[2]) <= reach
            z, phi = z[keep], phi[keep]
        s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        w = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)
        return self.center + self.radius * w, -w

    def ray_hits(self, origins, dirs, tmin, tmax):
        o = np.asarray(origins, dtype=float) - self.center
        dirs = np.asarray(dirs, dtype=float)
        t1, t2, valid = _solve_quadratic_batch(
            np.einsum("ij,ij->i", dirs, dirs), _origin_dots(2.0 * dirs, o),
            _dots(o, o) - self.radius**2)
        return _hits(np.stack([t1, t2], axis=1), valid[:, None], tmin, tmax)

    def inside(self, p):
        return bool(np.linalg.norm(np.asarray(p, dtype=float) - self.center)
                    < self.radius)

    def has_interior(self):
        return True

    def normal_at(self, p):
        w = np.asarray(p, dtype=float) - self.center
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            raise ValueError("center has no normal")
        return -w / nrm

    def surface_distance(self, p):
        return float(abs(np.linalg.norm(np.asarray(p, dtype=float) - self.center)
                         - self.radius))

    def tessellate(self, subdivisions=5):
        key = ("sphere", subdivisions)
        if key not in self._tess:
            mesh = shapes.icosphere(subdivisions, radius=self.radius)
            if np.any(self.center != 0.0):
                mesh = shapes.TriMesh(mesh.vertices + self.center, mesh.faces)
            self._tess[key] = mesh
        return self._tess[key]

    def describe(self):
        return {"kind": "sphere", "radius": self.radius}


class Torus:
    """Torus of revolution about the z axis: major radius R, minor radius r."""

    def __init__(self, major_radius, minor_radius):
        if not (major_radius > minor_radius > 0.0):
            raise ValueError("need major_radius > minor_radius > 0")
        self.R = float(major_radius)
        self.r = float(minor_radius)
        self.total_area = 4.0 * np.pi**2 * self.R * self.r
        self.diameter = 2.0 * (self.R + self.r)
        self._tess = {}

    def sample(self, rng, n, ball=None):
        # minor angle by rejection with weight (R + r cos v)/(R + r): exact
        # area measure r (R + r cos v) du dv
        v = np.empty(0)
        while len(v) < n:
            prop = rng.random(4096) * 2.0 * np.pi
            acc = rng.random(4096) <= (self.R + self.r * np.cos(prop)) / (self.R + self.r)
            v = np.concatenate([v, prop[acc]])
        v = v[:n]
        u = rng.random(n) * 2.0 * np.pi
        if ball is not None:
            # |p - x| >= 2 sqrt(rho_p rho_x) sin(|u - u_x| / 2), rho_p >= R - r
            x, reach = geom.ball_reach(ball, self.diameter)
            chord = 2.0 * np.sqrt((self.R - self.r) * np.hypot(x[0], x[1]))
            if reach < chord:
                # | |u - (u_x + pi)| - pi | is the wrapped angle from u to u_x
                off = np.abs(np.abs(u - (np.arctan2(x[1], x[0]) + np.pi)) - np.pi)
                keep = off <= 2.0 * np.arcsin(reach / chord) + 1e-9
                u, v = u[keep], v[keep]
        cu, su = np.cos(u), np.sin(u)
        cv, sv = np.cos(v), np.sin(v)
        pts = np.stack([(self.R + self.r * cv) * cu,
                        (self.R + self.r * cv) * su,
                        self.r * sv], axis=-1)
        outward = np.stack([cv * cu, cv * su, sv], axis=-1)
        return pts, -outward

    def _implicit(self, p):
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        q = x * x + y * y + z * z + self.R**2 - self.r**2
        return q * q - 4.0 * self.R**2 * (x * x + y * y)

    def _segment_roots(self, a, d):
        # (|p|^2 + R^2 - r^2)^2 = 4 R^2 (px^2 + py^2) as a quartic in t
        q = np.array([a @ a + self.R**2 - self.r**2, 2.0 * (a @ d), d @ d])
        w = np.array([a[0]**2 + a[1]**2,
                      2.0 * (a[0] * d[0] + a[1] * d[1]),
                      d[0]**2 + d[1]**2])
        poly = np.convolve(q, q)
        poly[:3] -= 4.0 * self.R**2 * w
        # highest-degree first for np.roots
        coeffs = poly[::-1]
        lead = np.max(np.abs(coeffs)) + 1e-300
        nz = np.nonzero(np.abs(coeffs) > 1e-14 * lead)[0]
        if len(nz) == 0 or len(coeffs) - nz[0] <= 1:
            return np.empty(0)
        roots = np.roots(coeffs[nz[0]:])
        real = roots[np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))].real
        return self._polish(a, np.tile(d, (len(real), 1)), real)

    def _ray_roots(self, a, dirs):
        """Polished real roots of every ray's quartic, as (ray index, t).

        ``a`` is one origin (3,) or one per ray (k, 3).  The batched form of
        ``_segment_roots``: the same coefficients, the same companion matrices
        as ``np.roots`` (a zero constant term deflates to a lower degree plus
        a root at 0), one stacked ``eigvals`` call per degree and one Newton
        polish for all roots.  Rays whose leading coefficient is negligible
        take the per-ray path.
        """
        # 1-D dots and pow squares, as _segment_roots forms them, so that
        # both paths agree to the bit
        ad, dd, dxy = _dots(a, dirs), _dots(dirs, dirs), _squares_xy(dirs)
        q0 = _dots(a, a) + self.R**2 - self.r**2
        q1 = 2.0 * ad
        k = 4.0 * self.R**2
        coeffs = np.stack(np.broadcast_arrays(
            dd * dd,
            q1 * dd + dd * q1,
            q0 * dd + q1 * q1 + dd * q0 - k * dxy,
            q0 * q1 + q1 * q0
            - k * (2.0 * (a[..., 0] * dirs[:, 0] + a[..., 1] * dirs[:, 1])),
            q0 * q0 - k * _squares_xy(a)), axis=1)
        lead = np.max(np.abs(coeffs), axis=1) + 1e-300
        quartic = np.abs(coeffs[:, 0]) > 1e-14 * lead
        # exact trailing zeros deflate, as in np.roots
        zeros = np.argmax(coeffs[:, ::-1] != 0.0, axis=1)

        rays, ts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for z in np.unique(zeros[quartic]):
            sel = np.nonzero(quartic & (zeros == z))[0]
            deg = 4 - z
            if deg:
                comp = np.zeros((len(sel), deg, deg))
                comp[:, 0] = -coeffs[sel, 1:deg + 1] / coeffs[sel, :1]
                comp[:, 1:, :-1] += np.eye(deg - 1)
                roots = np.linalg.eigvals(comp)
                real = np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))
                row, col = np.nonzero(real)
                rays.append(sel[row])
                ts.append(roots.real[row, col])
            rays.append(np.repeat(sel, z))
            ts.append(np.zeros(len(sel) * z))
        rays = np.concatenate(rays)
        ts = self._polish(a if a.ndim == 1 else a[rays], dirs[rays],
                          np.concatenate(ts))
        for i in np.nonzero(~quartic)[0]:
            t = self._segment_roots(a if a.ndim == 1 else a[i], dirs[i])
            rays = np.concatenate([rays, np.full(len(t), i)])
            ts = np.concatenate([ts, t])
        return rays, ts

    def _polish(self, a, dirs, t):
        """Safeguarded polish: three Newton steps on the implicit form along
        a + t * dirs[i] (a shared or one origin per root) for each root t[i]."""
        for _ in range(3):
            p = a + t[:, None] * dirs
            f = self._implicit(p)
            x, y, z = p[:, 0], p[:, 1], p[:, 2]
            qv = x * x + y * y + z * z + self.R**2 - self.r**2
            grad = np.stack([4.0 * x * qv - 8.0 * self.R**2 * x,
                             4.0 * y * qv - 8.0 * self.R**2 * y,
                             4.0 * z * qv], axis=-1)
            df = np.einsum("ij,ij->i", grad, dirs)
            step = np.where(np.abs(df) > 1e-300, f / np.where(df == 0, 1.0, df), 0.0)
            t = t - np.clip(step, -0.1, 0.1)
        return t

    def ray_hits(self, origins, dirs, tmin, tmax):
        rays, ts = self._ray_roots(np.asarray(origins, dtype=float),
                                   np.asarray(dirs, dtype=float))
        band = (ts >= tmin) & (ts <= tmax)
        return rays[band], ts[band]

    def inside(self, p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[0], p[1])
        return bool((rho - self.R)**2 + p[2]**2 < self.r**2)

    def has_interior(self):
        return True

    def normal_at(self, p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[0], p[1])
        if rho == 0.0:
            raise ValueError("axis point has no torus normal")
        ring = np.array([self.R * p[0] / rho, self.R * p[1] / rho, 0.0])
        w = p - ring
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            raise ValueError("tube center has no normal")
        return -w / nrm

    def surface_distance(self, p):
        p = np.asarray(p, dtype=float)
        rho = np.hypot(p[0], p[1])
        return float(abs(np.hypot(rho - self.R, p[2]) - self.r))

    def tessellate(self, nu=192, nv=96):
        key = ("torus", nu, nv)
        if key not in self._tess:
            self._tess[key] = shapes.torus_mesh(self.R, self.r, nu, nv)
        return self._tess[key]

    def describe(self):
        return {"kind": "torus", "major_radius": self.R, "minor_radius": self.r}


class SaddlePatch:
    """Graph of f(x, y) = x*y over the square [-L, L]^2.  Open: no interior."""

    def __init__(self, extent):
        if not extent > 0.0:
            raise ValueError("extent must be positive")
        self.L = float(extent)
        self.total_area = self._area()
        self._tess = {}
        zspan = 2.0 * self.L**2
        self.diameter = float(np.sqrt(8.0 * self.L**2 + zspan**2))

    def _area(self):
        # Gauss-Legendre quadrature of sqrt(1 + x^2 + y^2); the integrand is
        # analytic, so 64 nodes per axis are far beyond float accuracy
        x, wx = np.polynomial.legendre.leggauss(64)
        x = x * self.L
        wx = wx * self.L
        X, Y = np.meshgrid(x, x, indexing="ij")
        W = np.outer(wx, wx)
        return float(np.sum(W * np.sqrt(1.0 + X**2 + Y**2)))

    def sample(self, rng, n, ball=None):
        wmax = np.sqrt(1.0 + 2.0 * self.L**2)
        xy = np.empty((0, 2))
        while len(xy) < n:
            prop = (rng.random((4096, 2)) * 2.0 - 1.0) * self.L
            w = np.sqrt(1.0 + prop[:, 0]**2 + prop[:, 1]**2) / wmax
            acc = rng.random(4096) <= w
            xy = np.concatenate([xy, prop[acc]])
        xy = xy[:n]
        if ball is not None:
            c, reach = geom.ball_reach(ball, self.diameter)
            xy = xy[np.all(np.abs(xy - c[:2]) <= reach, axis=1)]
        x, y = xy[:, 0], xy[:, 1]
        pts = np.stack([x, y, x * y], axis=-1)
        nrm = np.sqrt(1.0 + x**2 + y**2)
        normals = np.stack([-y / nrm, -x / nrm, 1.0 / nrm], axis=-1)
        return pts, normals

    def ray_hits(self, origins, dirs, tmin, tmax):
        o = np.asarray(origins, dtype=float)
        dirs = np.asarray(dirs, dtype=float)
        # x(t) y(t) - z(t) = 0 is quadratic in the ray parameter
        c2 = dirs[:, 0] * dirs[:, 1]
        c1 = o[..., 0] * dirs[:, 1] + o[..., 1] * dirs[:, 0] - dirs[:, 2]
        c0 = o[..., 0] * o[..., 1] - o[..., 2]
        t1, t2, valid = _solve_quadratic_batch(c2, c1, c0)
        ts = np.stack([t1, t2], axis=1)
        p = o[..., None, :] + ts[..., None] * dirs[:, None]
        on_patch = (np.abs(p[..., 0]) <= self.L) & (np.abs(p[..., 1]) <= self.L)
        return _hits(ts, valid[:, None] & np.isfinite(ts) & on_patch, tmin, tmax)

    def inside(self, p):
        raise ValueError("no interior")

    def has_interior(self):
        return False

    def normal_at(self, p):
        x, y = float(p[0]), float(p[1])
        nrm = np.sqrt(1.0 + x * x + y * y)
        return np.array([-y, -x, 1.0]) / nrm

    def surface_distance(self, p):
        # first-order approximation |z - xy| / |grad|; used only as an
        # on-surface sanity check, never in the estimators
        x, y, z = (float(v) for v in p)
        return abs(z - x * y) / np.sqrt(1.0 + x * x + y * y)

    def tessellate(self, n=128):
        if ("saddle", n) not in self._tess:
            self._tess[("saddle", n)] = shapes.graph_mesh(
                lambda x, y: x * y, self.L, n)
        return self._tess[("saddle", n)]

    def describe(self):
        return {"kind": "saddle", "extent": self.L}


class Capsule:
    """Cylinder of given length about the z axis capped by two hemispheres."""

    def __init__(self, length, radius):
        if not (length > 0.0 and radius > 0.0):
            raise ValueError("length and radius must be positive")
        self.length = float(length)
        self.radius = float(radius)
        self.half = self.length / 2.0
        self.cyl_area = 2.0 * np.pi * self.radius * self.length
        self.cap_area = 4.0 * np.pi * self.radius**2
        self.total_area = self.cyl_area + self.cap_area
        self._tess = {}
        self.diameter = self.length + 2.0 * self.radius

    def tip(self, sign=1):
        """The apex of the +z (or -z) end cap, a convenient seed point."""
        return np.array([0.0, 0.0, sign * (self.half + self.radius)])

    def sample(self, rng, n, ball=None):
        u = rng.random(n) * self.total_area
        phi = rng.random(n) * 2.0 * np.pi
        h = rng.random(n)
        cyl = u < self.cyl_area
        if ball is not None:
            x, reach = geom.ball_reach(ball, self.diameter)
            top = np.where(u < self.cyl_area + self.cap_area / 2.0, 1.0, -1.0)
            z = np.where(cyl, (h - 0.5) * self.length, top * (self.half + self.radius * h))
            keep = np.abs(z - x[2]) <= reach
            u, phi, h, cyl = u[keep], phi[keep], h[keep], cyl[keep]
        pts = np.empty((len(u), 3))
        normals = np.empty((len(u), 3))
        c, s = np.cos(phi), np.sin(phi)
        # cylinder wall
        z = (h[cyl] - 0.5) * self.length
        pts[cyl] = np.stack([self.radius * c[cyl], self.radius * s[cyl], z], axis=-1)
        normals[cyl] = np.stack([-c[cyl], -s[cyl], np.zeros(int(cyl.sum()))], axis=-1)
        # end caps: split the remaining area evenly, hemisphere z-uniform
        cap = ~cyl
        top = u[cap] < self.cyl_area + self.cap_area / 2.0
        zc = h[cap]  # uniform in [0, 1] -> hemisphere by Archimedes
        sc = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
        w = np.stack([sc * c[cap], sc * s[cap], np.where(top, zc, -zc)], axis=-1)
        centers = np.zeros((int(cap.sum()), 3))
        centers[:, 2] = np.where(top, self.half, -self.half)
        pts[cap] = centers + self.radius * w
        normals[cap] = -w
        return pts, normals

    def ray_hits(self, origins, dirs, tmin, tmax):
        o = np.asarray(origins, dtype=float)
        dirs = np.asarray(dirs, dtype=float)
        cands = np.full((len(dirs), 6), np.inf)
        # wall
        A = dirs[:, 0]**2 + dirs[:, 1]**2
        B = 2.0 * (o[..., 0] * dirs[:, 0] + o[..., 1] * dirs[:, 1])
        C = _squares_xy(o) - self.radius**2
        t1, t2, valid = _solve_quadratic_batch(A, B, C)
        for col, t in ((0, t1), (1, t2)):
            tf = np.where(np.isfinite(t), t, 0.0)
            z = o[..., 2] + tf * dirs[:, 2]
            ok = valid & np.isfinite(t) & (np.abs(z) <= self.half)
            cands[:, col] = np.where(ok, t, np.inf)
        # caps
        for col, sign in ((2, 1.0), (4, -1.0)):
            cz = sign * self.half
            oz = o.copy()
            oz[..., 2] -= cz
            A = np.einsum("ij,ij->i", dirs, dirs)
            B = _origin_dots(2.0 * dirs, oz)
            C = _dots(oz, oz) - self.radius**2
            t1, t2, valid = _solve_quadratic_batch(A, B, C)
            for dcol, t in ((0, t1), (1, t2)):
                tf = np.where(np.isfinite(t), t, 0.0)
                z = o[..., 2] + tf * dirs[:, 2]
                ok = valid & np.isfinite(t) & (sign * (z - cz) >= -1e-12)
                cands[:, col + dcol] = np.where(ok, t, np.inf)
        return _hits(cands, np.isfinite(cands), tmin, tmax)

    def inside(self, p):
        p = np.asarray(p, dtype=float)
        z = np.clip(p[2], -self.half, self.half)
        return bool(np.linalg.norm(p - np.array([0.0, 0.0, z])) < self.radius)

    def has_interior(self):
        return True

    def normal_at(self, p):
        p = np.asarray(p, dtype=float)
        z = np.clip(p[2], -self.half, self.half)
        w = p - np.array([0.0, 0.0, z])
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            raise ValueError("axis point has no normal")
        return -w / nrm

    def surface_distance(self, p):
        p = np.asarray(p, dtype=float)
        z = np.clip(p[2], -self.half, self.half)
        return float(abs(np.linalg.norm(p - np.array([0.0, 0.0, z])) - self.radius))

    def tessellate(self, n_profile=64, n_around=128):
        key = ("capsule", n_profile, n_around)
        if key not in self._tess:
            self._tess[key] = shapes.capsule_mesh(self.length, self.radius,
                                                  n_profile, n_around)
        return self._tess[key]

    def describe(self):
        return {"kind": "capsule", "length": self.length, "radius": self.radius}
