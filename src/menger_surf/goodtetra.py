"""Cone-growing search for voluminous tetrahedra with vertices on a surface.

Starting from a seed point with its surface normal, a double cone grows until
it first meets the surface; the hit pattern is classified (central hit, wide
pair, or antipodal position with rotated-cap subcases).  Each case picks an
axis and two vertices besides the seed; one scan of vertical segments through
the rim of the stopping cone then picks the fourth, far from the plane of the
other three.  The stopping radius together with the cone's base plane
witnesses a large projection of the surrounding patch.
"""

from dataclasses import dataclass

import numpy as np

from . import geom
from .rng import substream
from .surface import SurfaceOracle, SurfacePoint

_PROJ_TAG = 0x50524F4A

PHI0 = np.pi / 4.0  # cone half-angle; the construction needs <= pi/4
BISECTION_TOL = 1e-6  # relative gain or rotation step that ends a refinement
MAX_ITERATIONS = 64  # cone growths before the search gives up
WITNESS_TOL = 1e-3  # relative slack of verify_projection's witness ball
SHELL_START = 1.0 / 64.0  # first coarse shell, in diameters past t_lo
SHELL_GROWTH = 4.0  # shell factor after a coarse cast that hits nothing


@dataclass
class GoodTetraParams:
    hit_tolerance: float = 1e-3
    ray_count: int = 4096

    def __post_init__(self):
        # from PHI0 / 4 on, the central test cone 0.75 PHI0 + hit_tolerance
        # covers the search cone PHI0, and every hit is central
        geom.finite_in(self.hit_tolerance, "hit_tolerance", 0, PHI0 / 4.0)
        # a cone growth casts ray_count // 4 rays on its cap and on its rim
        geom.integer_in(self.ray_count, "ray_count", 4)


@dataclass
class GoodTetraResult:
    vertices: np.ndarray          # (4, 3), seed first
    stopping_distance: float
    case_label: str
    eta_achieved: float
    iterations: int
    witness_plane_normal: np.ndarray
    first_hit_radius: float
    radii: list                   # stopping radius of every growth step


# ---------------------------------------------------------------------------
# direction sets
# ---------------------------------------------------------------------------

def _circle(v, psi):
    """Unit vectors cos(psi) e1 + sin(psi) e2 orthogonal to the unit v."""
    e1, e2 = geom.orthobasis(v)
    return np.cos(psi)[:, None] * e1[None] + np.sin(psi)[:, None] * e2[None]


def _double_cone_dirs(v, phi, n_cap, n_rim):
    """Axis, interior Fibonacci cover and the exact rim ring, mirrored."""
    psi = np.arange(n_rim) * (2.0 * np.pi / n_rim)
    rim = np.cos(phi) * v[None] + np.sin(phi) * _circle(v, psi)
    up = np.concatenate([v[None], geom.cap_fibonacci(v, phi, n_cap), rim])
    return np.concatenate([up, -up])


def _rotation(axis, angle):
    """Rodrigues rotation matrix about a unit axis."""
    k = np.asarray(axis, dtype=float)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


# ---------------------------------------------------------------------------
# cone growth
# ---------------------------------------------------------------------------

def _grow_cone(oracle, x0, v, t_lo, params):
    """First radius where the double cone around v meets the surface.

    A coarse pass bounds the stopping radius from above, which lets the full
    pass restrict its search band (and, for meshes, its face set).  On a mesh,
    whose cast culls faces by distance, it casts in growing distance shells:
    the first ends SHELL_START diameters past t_lo, and each cast that hits
    nothing multiplies the shell by SHELL_GROWTH, up to twice the diameter
    past t_lo.  Once a ray hits, the shell is widened once more if it stops
    short of a coarse hit that the stopping sphere could keep.  A ray whose
    first hit lies beyond the last shell counts as a miss, which changes
    neither the bound nor the hits.  The full pass casts a Fibonacci cover
    plus the exact rim ring, then refines the minimum with shrinking
    direction caps until the radius improves by less than the relative
    bisection tolerance.  Returns (rho, hit_points) where the hits lie within
    hit_tolerance of the stopping sphere.
    """
    t_far = 2.0 * oracle.diameter + t_lo
    t_hi = t_far
    n_cap = n_rim = params.ray_count // 4
    coarse = _double_cone_dirs(v, PHI0, 128, 64)
    # an analytic backing solves every ray in full whatever the band
    shell = t_lo + SHELL_START * oracle.diameter if oracle.is_mesh else t_far
    cts = oracle.band_min_hits(x0, coarse, t_lo, shell)
    while not np.isfinite(cts).any() and shell < t_far:
        shell = min(SHELL_GROWTH * shell, t_far)
        cts = oracle.band_min_hits(x0, coarse, t_lo, shell)
    if np.isfinite(cts).any():
        t_hi = float(np.min(cts)) * (1.0 + 4.0 * params.hit_tolerance)
        # the hits kept below lie within rho * (1 + hit_tolerance), rho <= t_hi
        reach = min(t_hi * (1.0 + params.hit_tolerance), t_far)
        if reach > shell:
            cts = oracle.band_min_hits(x0, coarse, t_lo, reach)
    dirs = _double_cone_dirs(v, PHI0, n_cap, n_rim)
    ts = oracle.band_min_hits(x0, dirs, t_lo, t_hi)
    if not np.isfinite(ts).any():
        raise RuntimeError("cone growth found no surface hit")
    all_dirs = [dirs, coarse]
    all_ts = [ts, cts]

    best = int(np.argmin(ts))
    rho = float(ts[best])
    best_dir = dirs[best]
    spacing = np.sqrt(2.0 * np.pi * (1.0 - np.cos(PHI0)) / max(n_cap, 1))
    radius = 2.0 * spacing
    for _ in range(24):
        local = geom.cap_fibonacci(best_dir, radius, 256)
        # keep candidates inside the double cone
        local = local[np.abs(local @ v) >= np.cos(PHI0) - 1e-12]
        if len(local) == 0:
            break
        lts = oracle.band_min_hits(x0, local, t_lo, t_hi)
        all_dirs.append(local)
        all_ts.append(lts)
        lbest = int(np.argmin(lts))
        if np.isfinite(lts[lbest]) and lts[lbest] < rho:
            improvement = (rho - lts[lbest]) / rho
            rho = float(lts[lbest])
            best_dir = local[lbest]
            if improvement < BISECTION_TOL:
                break
        else:
            radius *= 0.5
            if radius < BISECTION_TOL:
                break

    dirs = np.concatenate(all_dirs)
    ts = np.concatenate(all_ts)
    on_sphere = np.isfinite(ts) & (ts <= rho * (1.0 + params.hit_tolerance))
    hits = x0[None] + ts[on_sphere, None] * dirs[on_sphere]
    return rho, hits


# ---------------------------------------------------------------------------
# classification and vertex selection
# ---------------------------------------------------------------------------

def _classify(hits, x0, v, rho, params):
    """Case label plus the relevant hit(s), in local surface coordinates."""
    y = hits - x0[None]
    yv = (y / np.linalg.norm(y, axis=1)[:, None]) @ v
    axial = np.abs(yv)
    # the most axial hit: central if any hit is, else the antipodal one
    pick = int(np.argmax(axial))
    if axial[pick] >= np.cos(0.75 * PHI0 + params.hit_tolerance):
        return "central", (y[pick],)

    # projected directions through the central projection onto the lid plane:
    # antipodal hits identify, so flip by the sign of the axial component
    w = y - np.outer(y @ v, v)
    wnorm = np.linalg.norm(w, axis=1)
    idx = np.nonzero(wnorm > 1e-12 * rho)[0]
    if len(idx) > 512:
        idx = idx[np.linspace(0, len(idx) - 1, 512).astype(int)]
    if len(idx) >= 2:
        sign = np.where(yv[idx] >= 0.0, 1.0, -1.0)
        sub = (sign[:, None] * w[idx]) / wnorm[idx, None]
        gram = np.clip(sub @ sub.T, -1.0, 1.0)
        ang = np.arccos(gram)
        i, j = np.unravel_index(int(np.argmax(ang)), ang.shape)
        if ang[i, j] >= np.pi / 3.0:
            return "wide", (y[idx[i]], y[idx[j]])
    return "antipodal", (y[pick],)


_RIM_FACTORS = (1.0, 0.996, 0.99, 0.97, 0.94)
_RIM_SCAN = 96  # rim points scanned per factor


def _rim_hit(oracle, v, segments, score):
    """The best-scored hit of the first of the (mid, half) segments, of
    half-length half along v through mid, that meets the surface."""
    for mid, half in segments:
        pts = oracle.segment_hits(mid - half * v, mid + half * v)
        if len(pts):
            return pts[int(np.argmax(score(pts)))]
    raise RuntimeError("no rim segment met the surface "
                       "(cone condition failed at mesh resolution)")


def _rim_vertex(oracle, x0, v, r, plane_normal, params, first=None):
    """Vertex on a vertical segment through the stopping rim, far from a plane.

    Scans the rim circle (and slightly shrunken copies, which keeps the
    segments transversal when the exact rim grazes the surface) in order of
    decreasing guaranteed distance to the plane and returns the first surface
    point found, maximizing its actual plane distance on that segment.  The
    rim point x0 + first, when given, is tried at every factor before the
    scan.
    """
    halves = [f * r * (1.0 + 2.0 * params.hit_tolerance) for f in _RIM_FACTORS]
    ring = _circle(v, np.arange(_RIM_SCAN) * (2.0 * np.pi / _RIM_SCAN))
    segments, scores = [], []
    for f, half in zip(_RIM_FACTORS, halves):
        mid = x0 + f * r * ring
        dlo = (mid - half * v - x0) @ plane_normal
        dhi = (mid + half * v - x0) @ plane_normal
        crossing = np.sign(dlo) != np.sign(dhi)
        scores.append(np.where(crossing, 0.0,
                               np.minimum(np.abs(dlo), np.abs(dhi))))
        segments += [(m, half) for m in mid]
    # stable, so equal scores keep the scan's (factor, k) order
    order = np.argsort(-np.concatenate(scores), kind="stable")
    segments = [segments[i] for i in order]
    if first is not None:
        segments[:0] = [(x0 + f * first, half)
                        for f, half in zip(_RIM_FACTORS, halves)]
    return _rim_hit(oracle, v, segments,
                    lambda pts: np.abs((pts - x0) @ plane_normal))


def _plane_normal(x0, p1, p2):
    cross, area, _, ok = geom.triangles(x0[None], p1[None], p2[None])
    if not ok[0]:
        raise RuntimeError("selected vertices are collinear with the seed")
    return cross[0] / (2.0 * area[0])


def _eta_achieved(T, d_s):
    """Largest theta (up to float slack) with T in the (theta, d_s) class."""
    T = np.asarray(T, dtype=float)
    reach = max(np.linalg.norm(T[i] - T[0]) for i in (1, 2, 3))
    if reach > 2.0 * d_s * (1.0 + 1e-9):
        raise RuntimeError("selected vertex escaped the stopping ball")
    pair_min = min(np.linalg.norm(T[i] - T[j])
                   for i in range(4) for j in range(i + 1, 4))
    ang = geom.angle_between(T[1] - T[0], T[2] - T[0])
    height = geom.point_plane_distance(T[3], T[0], T[1], T[2])
    eta = min(pair_min / d_s, ang, np.pi - ang, height / d_s, 1.0 - 1e-12)
    return float(eta)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

def find_good_tetra(oracle, seed_point, params=None):
    """Grow cones from a surface point until a voluminous tetrahedron appears.

    ``seed_point`` is a SurfacePoint (position + unit normal).  Returns a
    GoodTetraResult whose tetrahedron passes the voluminosity test at the
    achieved eta and whose witness plane carries the large-projection
    property up to the stopping distance.
    """
    geom.instance_of(oracle, SurfaceOracle, "oracle")
    geom.instance_of(seed_point, SurfacePoint, "seed_point")
    params = (GoodTetraParams() if params is None
              else geom.instance_of(params, GoodTetraParams, "params"))
    if not oracle.has_interior():
        raise geom.InputError("oracle has no interior")
    x0 = oracle.point_on_surface(seed_point.position, "seed_point.position")
    v = geom.unit_vector(seed_point.normal, "seed_point.normal")

    t_lo = max(1e-7 * oracle.diameter, 0.0)
    radii = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        rho, hits = _grow_cone(oracle, x0, v, t_lo, params)
        radii.append(float(rho))
        label, payload = _classify(hits, x0, v, rho, params)
        y1 = payload[0]
        r = rho * np.sin(PHI0)  # radius of the stopping rim

        first = None
        if label == "central":
            axis, x2, first, case = _case_central(oracle, x0, v, r, y1, params)
        elif label == "wide":
            axis, x2, case = v, x0 + payload[1], "wide_pair"
        else:
            axis, x2, case = _case_antipodal(oracle, x0, v, rho, y1, params)
            if x2 is None:
                # subcase (c): continue growing around the rotated axis; the
                # emptiness of the forward annulus forces the next stopping
                # radius beyond twice the current one
                v = axis
                t_lo = rho * (1.0 + 2.0 * params.hit_tolerance)
                continue

        x1 = x0 + y1
        n_p = _plane_normal(x0, x1, x2)
        x3 = _rim_vertex(oracle, x0, axis, r, n_p, params, first)
        T = np.stack([x0, x1, x2, x3])
        return GoodTetraResult(T, float(rho), case, _eta_achieved(T, rho),
                               iteration, v.copy(), radii[0], radii)
    raise RuntimeError(f"{MAX_ITERATIONS} cone growths exceeded "
                       "(insufficient resolution or non-admissible surface)")


def _hit_frame(y, v, tol):
    """The frame of a hit y seen along the unit axis v: (v turned toward y,
    the unit part u of y across it, v x u, whether ``orthobasis`` stood in
    for u because that part is shorter than tol)."""
    if (y @ v) < 0.0:
        v = -v
    w = y - (y @ v) * v
    nrm = np.linalg.norm(w)
    if nrm < tol:
        return (v, *geom.orthobasis(v), True)
    u = w / nrm
    return v, u, np.array(geom.cross3(v, u)), False


def _case_central(oracle, x0, v, r, y1, params):
    """Central hit: the hit is one vertex, the most central point of a rim
    segment another.

    Returns (axis, x2, first, label); for a hit on the axis, ``first`` is the
    rim point that the fourth vertex's scan tries first, else None.
    """
    v, u, e2, axial = _hit_frame(y1, v, params.hit_tolerance * r)
    z2 = -r * e2
    # most central hit keeps the base wide
    x2 = _rim_hit(oracle, v, [(x0 + f * z2,
                               f * r * (1.0 + 2.0 * params.hit_tolerance))
                              for f in _RIM_FACTORS],
                  lambda pts: -np.abs((pts - x0) @ v))
    if axial:
        return v, x2, r * u, "central_hit_a"
    return v, x2, None, "central_hit_b"


def _case_antipodal(oracle, x0, v, rho, y1, params):
    """Antipodal hits: rotate the outer conical cap away from the hit.

    Returns (axis, x2, label) when subcase (a) or (b) stops the iteration,
    or (rotated_axis, None, None) when the search must continue (subcase
    (c)); the axis is rotated away from the hit's side, as seen from the cone
    half that contains the hit.
    """
    v, _, vu, _ = _hit_frame(y1, v, 1e-12 * rho)
    w = -vu  # u x v, the axis that turns v away from the hit

    band_lo = 0.5 * rho * (1.0 - params.hit_tolerance)
    band_hi = rho * (1.0 + params.hit_tolerance)
    cos_old = np.cos(PHI0 + 2.0 * params.hit_tolerance)

    def new_point(s):
        axis = _rotation(w, s * PHI0) @ v
        dirs = _double_cone_dirs(axis, PHI0, 512, 192)
        ts = oracle.band_min_hits(x0, dirs, band_lo, band_hi)
        okm = np.isfinite(ts)
        pts = x0[None] + ts[okm, None] * dirs[okm]
        y = pts - x0[None]
        yhat = y / np.linalg.norm(y, axis=1)[:, None]
        fresh = np.abs(yhat @ v) < cos_old
        return pts[np.argmax(fresh)] if fresh.any() else None

    # scan 64 rotations up to PHI0 / 2 until one sees a new point, then
    # bisect toward the earliest rotation that still does; lo is the latest
    # rotation that saw none, hi the latest that saw one and x2 its point
    scan = iter(np.linspace(0.0, 0.5, 65)[1:])
    lo, hi, x2 = 0.0, None, None
    while hi is None or hi - lo > BISECTION_TOL:
        s = next(scan, None) if hi is None else 0.5 * (lo + hi)
        if s is None:
            break
        pt = new_point(s)
        if pt is None:
            lo = s
        else:
            hi, x2 = s, pt
    if x2 is not None:
        return v, x2, "antipodal_3a"

    # subcase (b): forward annulus of the half-rotated cone
    v_star = _rotation(w, 0.5 * PHI0) @ v
    v_star /= np.linalg.norm(v_star)
    dirs = _double_cone_dirs(v_star, PHI0, 1024, 256)
    ts = oracle.band_min_hits(x0, dirs, rho * (1.0 + params.hit_tolerance),
                              2.0 * rho * (1.0 - 1e-6))
    pick = int(np.argmin(ts))  # a miss is inf
    if np.isfinite(ts[pick]):
        return v, x0 + ts[pick] * dirs[pick], "antipodal_3b"

    return v_star, None, None  # subcase (c): caller continues with this axis


# ---------------------------------------------------------------------------
# projection witness
# ---------------------------------------------------------------------------

def verify_projection(oracle, x0, r, witness_plane_normal, n_rays=1000,
                      seed=0):
    """Fraction of the witness disk whose perpendicular segments meet the surface.

    Samples points w uniformly in the disk of radius r/sqrt(2) around x0
    inside the witness plane and casts the segment of half-length r through w
    perpendicular to the plane; a hit counts when it lies in
    B(x0, r (1 + WITNESS_TOL)).
    """
    geom.instance_of(oracle, SurfaceOracle, "oracle")
    x0 = geom.as_point(x0, "x0")
    geom.finite_in(r, "r", 0)
    v = geom.unit_vector(witness_plane_normal, "witness_plane_normal")
    geom.integer_in(n_rays, "n_rays", 1)
    rng = substream(seed, _PROJ_TAG)
    rad = (r / np.sqrt(2.0)) * np.sqrt(rng.random(n_rays))
    psi = rng.random(n_rays) * 2.0 * np.pi
    w = x0[None] + rad[:, None] * _circle(v, psi)
    limit = r * (1.0 + WITNESS_TOL)
    # all segments in one query; dirs = b - a, the bits of a segment_hits(a, b)
    origins = w - r * v[None]
    dirs = (w + r * v[None]) - origins
    ray, t = oracle.ray_hits(origins, dirs, -1e-12, 1.0 + 1e-12)
    pts = origins[ray] + t[:, None] * dirs[ray]
    good = np.zeros(n_rays, dtype=bool)
    good[ray[np.linalg.norm(pts - x0[None], axis=1) <= limit]] = True
    return int(good.sum()) / float(n_rays)
