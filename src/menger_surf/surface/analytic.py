"""Closed-form surfaces: sphere, torus, saddle patch, capsule.

Each kind provides area-exact sampling, on the whole surface or on a cover
of a ball (``cover_area`` gives its exact area; torus, saddle and capsule
draw the whole surface as a cover that holds it: whole arcs, the square, the
full z band), closed-form ray intersection
(``ray_hits``: every hit of a batch of rays within a parameter band),
normals, an inside test when the surface bounds a volume, and a triangulated
stand-in via ``tessellate`` for the face-based diagnostics.  Normals point
into the bounded component (inward) where one exists.  Every ``ray_hits``
solves its whole batch on one root path, with no per-ray fallback.

Sphere, capsule and torus are tubes (``_Tube``): they answer ``inside``,
``normal_at`` and ``surface_distance`` from the nearest point of their core.
Point queries take the finite (3,) array that the oracle has checked.
"""

import numpy as np

from .. import geom
from . import shapes

# proposals per block of the rejection samplers
_BLOCK = 4096


def _solve_quadratic_batch(A, B, C):
    """Stable roots of A t^2 + B t + C = 0, vectorized.

    Returns a (k, 2) table of roots, ascending in each row, and the (k, 2)
    mask of the real ones; a linear equation fills both slots with its
    single root.
    """
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
    ts = np.stack([np.minimum(r1, r2), np.maximum(r1, r2)], axis=1)
    return ts, np.stack([valid, valid], axis=1)


def _dot(u, w):
    """u @ w over the last axis, row by row, for broadcast operands."""
    return np.einsum("...i,...i->...", u, w)


def _sphere_roots(o, dirs, radius):
    """``_solve_quadratic_batch`` for |o + t dirs[i]| = radius, with one
    origin or one per ray relative to the centre; on (..., 2) operands,
    the circle of the xy plane."""
    return _solve_quadratic_batch(_dot(dirs, dirs), _dot(2.0 * dirs, o),
                                  _dot(o, o) - radius**2)


def _arc(center, chord, reach):
    """(start, width) of the angles t with chord * sin(|t - center| / 2) <=
    reach, widened by 1e-9 for rounding; all of [0, 2 pi) when that reaches
    past pi."""
    if reach < chord:
        half = 2.0 * np.arcsin(reach / chord) + 1e-9
        if half < np.pi:
            return center - half, 2.0 * half
    return 0.0, 2.0 * np.pi


def _hits(ts, ok, tmin, tmax):
    """The (ray, t) pairs of a (k, c) table of candidate roots that hold."""
    ray, col = divmod(np.flatnonzero(ok & (ts >= tmin) & (ts <= tmax)),
                      ts.shape[1])
    return ray, ts[ray, col]


class _Tube:
    """The points at distance ``radius`` from a core: the sphere's centre,
    the capsule's axis segment or the torus's centre circle.  Each point
    query works from ``_core(p)``: the nearest core point to p, and whether
    it is the only one.  Where it is not, or p lies on the core, p has no
    normal."""

    def inside(self, p):
        return bool(np.linalg.norm(p - self._core(p)[0]) < self.radius)

    def has_interior(self):
        return True

    def normal_at(self, p):
        core, unique = self._core(p)
        w = p - core
        nrm = np.linalg.norm(w)
        if nrm == 0.0 or not unique:
            raise geom.InputError(f"p {self._SINGULAR}, which has no normal")
        return -w / nrm

    def surface_distance(self, p):
        return float(abs(np.linalg.norm(p - self._core(p)[0]) - self.radius))


class Sphere(_Tube):
    _SINGULAR = "is the center"

    def __init__(self, radius, center=(0.0, 0.0, 0.0)):
        self.radius = geom.finite_in(radius, "radius", 0)
        self.center = np.asarray(center, dtype=float)
        self.total_area = 4.0 * np.pi * self.radius**2
        self.diameter = 2.0 * self.radius

    def _draw(self, rng, n, ball):
        """The x, y and z arrays of the outward unit vectors: (s cos phi,
        s sin phi, z) on the whole sphere, or the cap that covers the ball."""
        if ball is not None:
            axis, height = self._cap(ball)
            return tuple(geom.sample_cap(axis, height, rng,
                                         n if height > 0.0 else 0).T)
        # Archimedes: z uniform on [-rho, rho] is area-uniform
        z = rng.random(n) * 2.0 - 1.0
        phi = rng.random(n) * 2.0 * np.pi
        s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        return s * np.cos(phi), s * np.sin(phi), z

    def _cap(self, ball):
        """Axis and height 1 - cos(theta) of the cap of outward unit vectors
        w whose points center + radius w lie in the ball (center, reach)."""
        v = ball[0] - self.center
        d = np.linalg.norm(v)
        if d == 0.0:
            return np.array([0.0, 0.0, 1.0]), 2.0 if ball[1] >= self.radius else 0.0
        # |p - x|^2 = radius^2 + d^2 - 2 radius d cos(theta)
        h = (ball[1]**2 - (self.radius - d)**2) / (2.0 * self.radius * d)
        return v, min(max(h, 0.0), 2.0)

    def cover_area(self, ball):
        """Area of the cap that ``_draw`` draws from for this ball."""
        return 2.0 * np.pi * self.radius**2 * self._cap(ball)[1]

    def _points(self, *w, out=None):
        pts = np.empty((len(w[2]), 3)) if out is None else out
        for c in range(3):
            col = np.multiply(self.radius, w[c], out=pts[:, c])
            col += self.center[c]
        return pts

    def _normals(self, *w):
        return -np.stack(w, axis=-1)

    def _core(self, p):
        return self.center, True

    def ray_hits(self, origins, dirs, tmin, tmax):
        return _hits(*_sphere_roots(origins - self.center, dirs, self.radius),
                     tmin, tmax)

    def tessellate(self):
        mesh = shapes.icosphere(5, radius=self.radius)
        if np.any(self.center != 0.0):
            mesh = shapes.TriMesh(mesh.vertices + self.center, mesh.faces)
        return mesh

    def describe(self):
        return {"kind": "sphere", "radius": self.radius}


class Torus(_Tube):
    """Torus of revolution about the z axis: major radius R, minor radius r."""

    _SINGULAR = "lies on the axis or the tube's center circle"
    radius = property(lambda self: self.r)  # the tube radius, as _Tube reads it

    def __init__(self, major_radius, minor_radius):
        self.r = geom.finite_in(minor_radius, "minor_radius", 0)
        self.R = geom.finite_in(major_radius, "major_radius", self.r)
        self.total_area = 4.0 * np.pi**2 * self.R * self.r
        self.diameter = 2.0 * (self.R + self.r)

    def _arcs(self, ball):
        """The (start, width) arcs of the major angle u and the minor angle v
        that hold every torus point of the ball (center, reach); whole
        circles without a ball."""
        if ball is None:
            return (0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)
        x, reach = ball
        rho = np.hypot(x[0], x[1])
        # |p - x| >= 2 sqrt(rho_p rho_x) sin(|u - u_x| / 2), rho_p >= R - r
        major = _arc(np.arctan2(x[1], x[0]),
                     2.0 * np.sqrt((self.R - self.r) * rho), reach)
        # in its meridian plane x lies delta from the tube's centre circle:
        # |p - x| >= 2 sqrt(r delta) sin(|v - v_x| / 2)
        delta = np.hypot(rho - self.R, x[2])
        minor = _arc(np.arctan2(x[2], rho - self.R),
                     2.0 * np.sqrt(self.r * delta), reach)
        return major, minor

    def _minor_mass(self, start, width):
        """The integral of R + r cos v over the arc [start, start + width],
        with sin b - sin a = 2 cos((a + b) / 2) sin((b - a) / 2)."""
        return (self.R * width
                + 2.0 * self.r * np.cos(start + width / 2.0) * np.sin(width / 2.0))

    def cover_area(self, ball):
        """Area r du (R dv + r (sin v_hi - sin v_lo)) of the arcs' product."""
        (_, du), (v0, dv) = self._arcs(ball)
        return self.r * du * self._minor_mass(v0, dv)

    def _minor_angles(self, rng, n, start, width):
        """n minor angles v on the arc [start, start + width] and their
        cosines, by rejection with weight (R + r cos v) over its largest value
        on the arc: exact area measure r (R + r cos v) du dv.

        Every block draws its proposals and test values in full, but tests
        proposals only up to the n-th acceptance: a slice at a time, each
        slice as long as the missing acceptances need on average.
        """
        end = start + width
        # cos v peaks at 1 where the arc holds a multiple of 2 pi, else at an end
        peak = (1.0 if np.ceil(start / (2.0 * np.pi)) * 2.0 * np.pi <= end
                else max(np.cos(start), np.cos(end)))
        wmax = self.R + self.r * peak
        rate = self._minor_mass(start, width) / (width * wmax)  # mean acceptance
        v, cv, have = [np.empty(0)], [np.empty(0)], 0
        while have < n:
            prop = rng.random(_BLOCK) * width + start
            test = rng.random(_BLOCK)
            lo = 0
            while lo < _BLOCK and have < n:
                hi = min(_BLOCK, lo + int((n - have) / rate) + 1)
                c = np.cos(prop[lo:hi])
                acc = test[lo:hi] <= (self.R + self.r * c) / wmax
                v.append(prop[lo:hi][acc])
                cv.append(c[acc])
                have += len(cv[-1])
                lo = hi
        return np.concatenate(v)[:n], np.concatenate(cv)[:n]

    def _draw(self, rng, n, ball):
        """cos u, sin u, cos v, sin v of the major angles u, uniform on their
        arc, and the minor angles v on theirs (``_arcs``)."""
        (u0, du), (v0, dv) = self._arcs(ball)
        v, cv = self._minor_angles(rng, n, v0, dv)
        u = rng.random(n) * du + u0
        return np.cos(u), np.sin(u), cv, np.sin(v)

    def _points(self, cu, su, cv, sv, out=None):
        pts = np.empty((len(cu), 3)) if out is None else out
        rho = np.multiply(self.r, cv)
        rho += self.R
        np.multiply(rho, cu, out=pts[:, 0])
        np.multiply(rho, su, out=pts[:, 1])
        np.multiply(self.r, sv, out=pts[:, 2])
        return pts

    def _normals(self, cu, su, cv, sv):
        return -np.stack([cv * cu, cv * su, sv], axis=-1)

    def _implicit(self, p):
        """(|p|^2 + R^2 - r^2)^2 - 4 R^2 (x^2 + y^2), zero on the torus, and
        its inner term q = |p|^2 + R^2 - r^2."""
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        q = x * x + y * y + z * z + self.R**2 - self.r**2
        return q * q - 4.0 * self.R**2 * (x * x + y * y), q

    def _ray_roots(self, a, dirs):
        """Polished real roots of every ray's quartic, as (ray index, t).

        ``a`` is one origin (3,) or one per ray (k, 3).  The roots are those
        of ``np.roots`` on the coefficients from the first one above 1e-14
        times the largest, found by one stacked ``eigvals`` call per
        (leading skip, trailing zeros) group and one Newton polish for all.
        """
        ad, dd = _dot(a, dirs), _dot(dirs, dirs)
        dxy = dirs[:, 0] * dirs[:, 0] + dirs[:, 1] * dirs[:, 1]
        q0 = _dot(a, a) + self.R**2 - self.r**2
        q1 = 2.0 * ad
        k = 4.0 * self.R**2
        coeffs = np.stack(np.broadcast_arrays(
            dd * dd,
            q1 * dd + dd * q1,
            q0 * dd + q1 * q1 + dd * q0 - k * dxy,
            q0 * q1 + q1 * q0
            - k * (2.0 * (a[..., 0] * dirs[:, 0] + a[..., 1] * dirs[:, 1])),
            q0 * q0 - k * (a[..., 0] * a[..., 0] + a[..., 1] * a[..., 1])),
            axis=1)
        lead = np.max(np.abs(coeffs), axis=1, keepdims=True) + 1e-300
        big = np.abs(coeffs) > 1e-14 * lead
        # no root where only the constant coefficient, or none, is above it
        skip = np.where(big.any(axis=1), np.argmax(big, axis=1), 4)
        zeros = np.argmax(coeffs[:, ::-1] != 0.0, axis=1)

        rays, ts = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for s, z in sorted(set(zip(skip[skip < 4], zeros[skip < 4]))):
            sel = np.nonzero((skip == s) & (zeros == z))[0]
            deg = 4 - s - z
            if deg:
                c = coeffs[sel, s:]
                comp = np.zeros((len(sel), deg, deg))
                comp[:, 0] = -c[:, 1:deg + 1] / c[:, :1]
                comp[:, 1:, :-1] += np.eye(deg - 1)
                roots = np.linalg.eigvals(comp)
                real = np.abs(roots.imag) < 1e-8 * (1.0 + np.abs(roots.real))
                row, col = np.nonzero(real)
                rays.append(sel[row])
                ts.append(roots.real[row, col])
            rays.append(np.repeat(sel, z))
            ts.append(np.zeros(len(sel) * z))
        rays = np.concatenate(rays)
        return rays, self._polish(a if a.ndim == 1 else a[rays], dirs[rays],
                                  np.concatenate(ts))

    def _polish(self, a, dirs, t):
        """Safeguarded polish: three Newton steps on the implicit form along
        a + t * dirs[i] (a shared or one origin per root) for each root t[i]."""
        for _ in range(3):
            p = a + t[:, None] * dirs
            f, q = self._implicit(p)
            x, y, z = p[:, 0], p[:, 1], p[:, 2]
            grad = np.stack([4.0 * x * q - 8.0 * self.R**2 * x,
                             4.0 * y * q - 8.0 * self.R**2 * y,
                             4.0 * z * q], axis=-1)
            df = np.einsum("ij,ij->i", grad, dirs)
            step = np.where(np.abs(df) > 1e-300, f / np.where(df == 0, 1.0, df), 0.0)
            t = t - np.clip(step, -0.1, 0.1)
        return t

    def ray_hits(self, origins, dirs, tmin, tmax):
        rays, ts = self._ray_roots(origins, dirs)
        band = (ts >= tmin) & (ts <= tmax)
        return rays[band], ts[band]

    def _core(self, p):
        """R (x, y, 0) / rho; on the axis every circle point is nearest."""
        rho = np.hypot(p[0], p[1])
        if rho == 0.0:
            return np.array([self.R, 0.0, 0.0]), False
        return np.array([self.R * p[0] / rho, self.R * p[1] / rho, 0.0]), True

    def tessellate(self):
        return shapes.torus_mesh(self.R, self.r, 192, 96)

    def describe(self):
        return {"kind": "torus", "major_radius": self.R, "minor_radius": self.r}


class SaddlePatch:
    """Graph of f(x, y) = x*y over the square [-L, L]^2.  Open: no interior."""

    def __init__(self, extent):
        self.L = geom.finite_in(extent, "extent", 0)
        self.total_area = self._area(*self._box(None))
        zspan = 2.0 * self.L**2
        self.diameter = float(np.sqrt(8.0 * self.L**2 + zspan**2))

    def _box(self, ball):
        """Centre and half-widths (2,) of the xy box within reach of the ball
        (center, reach) on each axis, clipped to the square; the square
        without a ball.  A half-width <= 0 means the box is empty."""
        if ball is None:
            return np.zeros(2), np.full(2, self.L)
        x, reach = ball
        lo = np.maximum(x[:2] - reach, -self.L)
        hi = np.minimum(x[:2] + reach, self.L)
        return (lo + hi) / 2.0, (hi - lo) / 2.0

    def _area(self, mid, half):
        """The area over the box: Gauss-Legendre quadrature of sqrt(1 + x^2 +
        y^2); the integrand is analytic, so 64 nodes per axis are far beyond
        float accuracy."""
        t, wt = np.polynomial.legendre.leggauss(64)
        X, Y = np.meshgrid(t * half[0] + mid[0], t * half[1] + mid[1],
                           indexing="ij")
        W = np.outer(wt * half[0], wt * half[1])
        return float(np.sum(W * np.sqrt(1.0 + X**2 + Y**2)))

    def cover_area(self, ball):
        """Area of the patch over the box that ``_draw`` draws from."""
        mid, half = self._box(ball)
        return self._area(mid, half) if np.all(half > 0.0) else 0.0

    def _draw(self, rng, n, ball):
        """The (x, y) coordinates on the box (``_box``), by rejection with the
        area element over its largest value there."""
        mid, half = self._box(ball)
        if not np.all(half > 0.0):
            n = 0
        far = np.maximum(np.abs(mid - half), np.abs(mid + half))
        wmax = np.sqrt(1.0 + (far[0]**2 + far[1]**2))
        xy = np.empty((0, 2))
        while len(xy) < n:
            prop = (rng.random((_BLOCK, 2)) * 2.0 - 1.0) * half + mid
            w = np.sqrt(1.0 + prop[:, 0]**2 + prop[:, 1]**2) / wmax
            acc = rng.random(_BLOCK) <= w
            xy = np.concatenate([xy, prop[acc]])
        xy = xy[:n]
        return xy[:, 0], xy[:, 1]

    def _points(self, x, y, out=None):
        return np.stack([x, y, x * y], axis=-1, out=out)

    def _normals(self, x, y):
        nrm = np.sqrt(1.0 + x**2 + y**2)
        return np.stack([-y / nrm, -x / nrm, 1.0 / nrm], axis=-1)

    def ray_hits(self, o, dirs, tmin, tmax):
        # x(t) y(t) - z(t) = 0 is quadratic in the ray parameter
        c2 = dirs[:, 0] * dirs[:, 1]
        c1 = o[..., 0] * dirs[:, 1] + o[..., 1] * dirs[:, 0] - dirs[:, 2]
        c0 = o[..., 0] * o[..., 1] - o[..., 2]
        ts, valid = _solve_quadratic_batch(c2, c1, c0)
        p = o[..., None, :] + ts[..., None] * dirs[:, None]
        on_patch = (np.abs(p[..., 0]) <= self.L) & (np.abs(p[..., 1]) <= self.L)
        return _hits(ts, valid & np.isfinite(ts) & on_patch, tmin, tmax)

    def inside(self, p):
        raise ValueError("no interior")

    def has_interior(self):
        return False

    def normal_at(self, p):
        return self._normals(p[:1], p[1:2])[0]

    def surface_distance(self, p):
        # first-order approximation |z - xy| / |grad|, combined with the xy
        # distance to the square off it; used only as an on-surface check,
        # never in the estimators
        x, y, z = (float(v) for v in p)
        off = np.hypot(max(abs(x) - self.L, 0.0), max(abs(y) - self.L, 0.0))
        return float(np.hypot(abs(z - x * y) / np.sqrt(1.0 + x * x + y * y), off))

    def tessellate(self):
        return shapes.graph_mesh(lambda x, y: x * y, self.L, 128)

    def describe(self):
        return {"kind": "saddle", "extent": self.L}


class Capsule(_Tube):
    """Cylinder of given length about the z axis capped by two hemispheres."""

    _SINGULAR = "lies on the axis segment"

    def __init__(self, length, radius):
        self.length = geom.finite_in(length, "length", 0)
        self.radius = geom.finite_in(radius, "radius", 0)
        self.half = self.length / 2.0
        self.cyl_area = 2.0 * np.pi * self.radius * self.length
        self.cap_area = 4.0 * np.pi * self.radius**2
        self.total_area = self.cyl_area + self.cap_area
        self.diameter = self.length + 2.0 * self.radius

    def tip(self):
        """The apex of the +z end cap, a convenient seed point."""
        return np.array([0.0, 0.0, self.half + self.radius])

    def _band(self, ball):
        """The heights (lo, hi) of the capsule points within reach of the
        ball (center, reach) in z; the whole capsule without a ball.  Every
        height carries the same area 2 pi radius per unit (Archimedes on the
        caps), so the band's area is 2 pi radius (hi - lo)."""
        end = self.half + self.radius
        if ball is None:
            return -end, end
        z, reach = ball[0][2], ball[1]
        return max(z - reach, -end), min(z + reach, end)

    def cover_area(self, ball):
        """Area of the z band that ``_draw`` draws from."""
        lo, hi = self._band(ball)
        return 2.0 * np.pi * self.radius * max(hi - lo, 0.0)

    def _draw(self, rng, n, ball):
        """cos phi, sin phi, the height z and the wall mask of every row, and
        for the cap rows whether they lie on the top cap and their outward
        unit vectors about the cap centres: z uniform on the band (``_band``),
        the whole capsule without a ball, then phi uniform."""
        lo, hi = self._band(ball)
        z = rng.random(n if hi > lo else 0) * (hi - lo) + lo
        phi = rng.random(len(z)) * 2.0 * np.pi
        cyl = np.abs(z) <= self.half
        cap = ~cyl
        top = z[cap] > 0.0
        zc = (np.abs(z[cap]) - self.half) / self.radius
        c, s = np.cos(phi), np.sin(phi)
        sc = np.sqrt(np.maximum(1.0 - zc * zc, 0.0))
        w = np.stack([sc * c[cap], sc * s[cap], np.where(top, zc, -zc)], axis=-1)
        return c, s, z, cyl, top, w

    def _points(self, c, s, z, cyl, top, w, out=None):
        pts = np.empty((len(z), 3)) if out is None else out
        # cylinder wall
        pts[cyl] = np.stack([self.radius * c[cyl], self.radius * s[cyl], z[cyl]],
                            axis=-1)
        centers = np.zeros((len(w), 3))
        centers[:, 2] = np.where(top, self.half, -self.half)
        pts[~cyl] = centers + self.radius * w
        return pts

    def _normals(self, c, s, z, cyl, top, w):
        normals = np.empty((len(z), 3))
        normals[cyl] = np.stack([-c[cyl], -s[cyl], np.zeros(int(cyl.sum()))], axis=-1)
        normals[~cyl] = -w
        return normals

    def ray_hits(self, o, dirs, tmin, tmax):
        # the roots on the wall (columns 0-1), the top cap (2-3) and the
        # bottom cap (4-5), each kept if its point lies on that part
        roots = [_sphere_roots(o[..., :2], dirs[:, :2], self.radius)]
        roots += [_sphere_roots(o - (0.0, 0.0, cz), dirs, self.radius)
                  for cz in (self.half, -self.half)]
        ts = np.concatenate([t for t, _ in roots], axis=1)
        ok = np.concatenate([v for _, v in roots], axis=1) & np.isfinite(ts)
        z = o[..., 2, None] + np.where(ok, ts, 0.0) * dirs[:, 2, None]
        ok[:, :2] &= np.abs(z[:, :2]) <= self.half
        ok[:, 2:4] &= z[:, 2:4] - self.half >= -1e-12
        ok[:, 4:] &= z[:, 4:] + self.half <= 1e-12
        return _hits(ts, ok, tmin, tmax)

    def _core(self, p):
        return np.array([0.0, 0.0, np.clip(p[2], -self.half, self.half)]), True

    def tessellate(self):
        return shapes.capsule_mesh(self.length, self.radius, 64, 128)

    def describe(self):
        return {"kind": "capsule", "length": self.length, "radius": self.radius}
