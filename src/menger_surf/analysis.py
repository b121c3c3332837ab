"""Geometric-measure diagnostics: density quotients, beta numbers, normal
oscillation, and empirical Holder exponents."""

from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import InputError, as_point, finite_in, integer_in
from .rng import blocks, substream
from .surface.trimesh import _point_tri_sqdist

_PATCH_TAG = 0x50415443
_OSC_TAG = 0x4F534349
# blocks a patch rejection loop reads at most, so that an empty patch ends
MAX_BLOCKS = 256


@dataclass
class DensityReport:
    center: np.ndarray
    radius: float
    patch_area: float
    quotient: float
    passes_lower_bound: bool   # quotient >= pi/2
    error_bound: float


@dataclass
class BetaReport:
    center: np.ndarray
    radius: float
    beta: float
    best_normal: np.ndarray
    grid_level: int


@dataclass
class HolderFit:
    exponent: float
    log_constant: float
    r_squared: float


def exponents(p):
    """The two oscillation decay exponents for supercritical p.

    kappa = (p - 8)/(p + 16) governs the first-pass tangent-plane estimate,
    lambda = 1 - 8/p the optimal one; 0 < kappa < lambda < 1 for all p > 8.
    """
    finite_in(p, "p", 8)
    kappa = (p - 8.0) / (p + 16.0)
    lam = 1.0 - 8.0 / p
    assert 0.0 < kappa < lam < 1.0
    return {"kappa": kappa, "lambda": lam}


def balance_epsilon(eta, p, d, E):
    """The flatness epsilon solving eps^(16+p) d^(8-p) = c1(eta, p) E.

    c1(eta, p) = eta^(-3p) (18*10^4)^p; the solution is monotone increasing
    in both d and E, so boxes get flatter as the scale shrinks.
    """
    finite_in(eta, "eta", 0, 1)
    finite_in(p, "p", 8)
    finite_in(d, "d", 0)
    finite_in(E, "E", 0)
    log_c1 = p * (np.log(18e4) - 3.0 * np.log(eta))
    log_eps = (log_c1 + np.log(E) + (p - 8.0) * np.log(d)) / (16.0 + p)
    return float(np.exp(log_eps))


# ---------------------------------------------------------------------------
# Ahlfors density quotient by face clipping
# ---------------------------------------------------------------------------

def density_quotient(oracle, x, radius, depth=8):
    """Area of the patch inside B(x, radius) over radius^2.

    Faces fully inside the ball count exactly; straddling faces are
    quadrisected ``depth`` times (at most 10: each step doubles the
    straddling faces), and surviving leaves count half their area when their
    centroid is inside.  The reported error bound is
    (initially straddling area) * 2^-depth.
    """
    x = oracle.point_on_surface(x, "x")
    finite_in(radius, "radius", 0)
    depth = integer_in(depth, "depth", 0, 10)
    mesh = oracle.tessellate()
    tri = mesh.vertices[mesh.faces]

    area_in = 0.0
    inside, straddle = _classify_tris(tri, x, radius)
    area_in += geom.tri_areas(tri[inside]).sum()
    straddle_area0 = float(geom.tri_areas(tri[straddle]).sum())
    work = tri[straddle]
    for _ in range(depth):
        if len(work) == 0:
            break
        work = _quadrisect(work)
        inside, straddle = _classify_tris(work, x, radius)
        area_in += geom.tri_areas(work[inside]).sum()
        work = work[straddle]
    if len(work):
        centroids = work.mean(axis=1)
        d = centroids - x
        in_c = np.einsum("ij,ij->i", d, d) <= radius * radius
        area_in += 0.5 * geom.tri_areas(work[in_c]).sum()

    quotient = float(area_in) / radius**2
    return DensityReport(x, float(radius), float(area_in), quotient,
                         quotient >= np.pi / 2.0,
                         straddle_area0 * 2.0 ** (-depth))


def _classify_tris(tri, x, radius):
    """Masks (fully inside ball, straddling) for a (m,3,3) stack."""
    if len(tri) == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, empty
    d = tri - x[None, None, :]
    vert_in = np.einsum("mvj,mvj->mv", d, d) <= radius * radius
    inside = vert_in.all(axis=1)
    touching = np.sqrt(_point_tri_sqdist(x, tri)) <= radius
    straddle = touching & ~inside
    return inside, straddle


def _quadrisect(tri):
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = 0.5 * (a + b)
    bc = 0.5 * (b + c)
    ca = 0.5 * (c + a)
    return np.concatenate([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1)])


# ---------------------------------------------------------------------------
# Jones beta numbers by direction-grid search
# ---------------------------------------------------------------------------

def _fibonacci_directions(n):
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def _max_abs_dot(dirs, rel):
    """max_i |rel_i . dir| for each direction, 512 directions per product."""
    out = np.empty(len(dirs))
    for s in range(0, len(dirs), 512):
        prod = rel @ dirs[s:s + 512].T
        out[s:s + 512] = np.maximum(prod.max(axis=0), -prod.min(axis=0))
    return out


def _ball_points(oracle, x, r, need, stream, block, threads=1):
    """Surface points in B(x, r) by rejection, and the number of blocks drawn.

    Block k draws ``block`` points of the oracle's cover of the ball from
    ``substream(*stream, k)`` and keeps those in the ball; blocks are read
    until ``need`` points are kept or ``MAX_BLOCKS`` are drawn."""
    def work(k):
        pts = oracle.sample_points(substream(*stream, k), block, (x, r))
        d = pts - x
        return pts[np.einsum("ij,ij->i", d, d) <= r * r]

    kept = []
    have = 0
    for pts in blocks(work, MAX_BLOCKS, threads):
        kept.append(pts)
        have += len(pts)
        if have >= need:
            break
    return np.concatenate(kept), len(kept)


def patch_samples(oracle, x, r, n_patch, seed=0):
    """Up to n_patch area-uniform samples of the patch inside B(x, r); fewer
    only when the patch holds too little of the oracle's cover of the ball
    (such as none, for a centre off the surface)."""
    x = as_point(x, "x")
    finite_in(r, "r", 0)
    n_patch = integer_in(n_patch, "n_patch", 1)
    return _ball_points(oracle, x, r, n_patch, (seed, _PATCH_TAG),
                        8192)[0][:n_patch]


def beta_number(oracle, x, r, n_patch=4000, grid_level=1, seed=0):
    """Scale-normalized sup-distance of the patch to its best plane through x.

    The infimum over planes is approximated from above by a nested
    direction-grid search (500 * 4^k Fibonacci directions for k = 0..level,
    so a finer level can only lower the value; the cap of 6 bounds time and
    memory), plus the patch SVD normal and one refinement pass around the
    best direction.
    """
    x = oracle.point_on_surface(x, "x")
    grid_level = integer_in(grid_level, "grid_level", 0, 6)
    pts = patch_samples(oracle, x, r, n_patch, seed)
    if len(pts) == 0:
        raise ValueError("empty patch")
    rel = pts - x

    # the small-residual plane normal is an excellent candidate and makes
    # exactly flat patches come out at machine zero
    _, _, vt = np.linalg.svd(rel, full_matrices=False)
    best_dir = vt[-1]
    best_val = float(_max_abs_dot(best_dir[None], rel)[0])

    # levels are cumulative (each adds its grid and a refinement around the
    # running best), so a finer grid_level can only lower the reported value
    for k in range(grid_level + 1):
        dirs = _fibonacci_directions(500 * 4**k)
        vals = _max_abs_dot(dirs, rel)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_dir, best_val = dirs[i], float(vals[i])
        spacing = 2.0 / np.sqrt(500 * 4**k)
        refine = geom.cap_fibonacci(best_dir / np.linalg.norm(best_dir),
                                    2.0 * spacing, 600)
        rvals = _max_abs_dot(refine, rel)
        i = int(np.argmin(rvals))
        if rvals[i] < best_val:
            best_dir, best_val = refine[i], float(rvals[i])

    return BetaReport(x, float(r), float(best_val / r), best_dir, grid_level)


# ---------------------------------------------------------------------------
# normal oscillation profiles
# ---------------------------------------------------------------------------

def normal_oscillation_profile(oracle, x, scales, pairs_per_scale=400, seed=0):
    """Max angle between the normal at x and normals at distance ~d.

    For each scale d the angle is maximized over sampled surface points y
    with |y - x| in [d/2, d]; the max (not the mean) matches the sup-type
    oscillation bounds.  Each scale draws blocks of 4096 points of the
    oracle's cover of B(x, d) until it has pairs_per_scale pairs or has drawn
    ``MAX_BLOCKS`` blocks; every pair of a block counts, so a scale may
    collect more pairs than asked.  A scale that collects none (a patch that
    misses the annulus) raises ValueError.
    """
    x = oracle.point_on_surface(x, "x")
    scales = sorted(finite_in(s, "scales", 0) for s in scales)
    if not scales:
        raise InputError("scales must be a non-empty list")
    if scales[-1] > oracle.diameter:
        raise InputError(f"scales must not exceed the surface diameter "
                         f"{oracle.diameter}, got {scales[-1]}")
    integer_in(pairs_per_scale, "pairs_per_scale", 1)
    n0 = oracle.normal_at(x)

    def work(k, si, d):
        pts, normals = oracle.sample(substream(seed, _OSC_TAG, si, k), 4096,
                                     (x, d))
        dist = np.linalg.norm(pts - x, axis=1)
        keep = (dist >= d / 2.0) & (dist <= d)
        cosang = np.clip(normals[keep] @ n0, -1.0, 1.0)
        return len(cosang), float(np.arccos(cosang).max(initial=0.0))

    profile = []
    for si, d in enumerate(scales):
        collected = 0
        max_osc = 0.0
        for count, osc in blocks(lambda k: work(k, si, d), MAX_BLOCKS):
            collected += count
            max_osc = max(max_osc, osc)
            if collected >= pairs_per_scale:
                break
        if collected == 0:
            raise ValueError(f"no sampled point at distance [{d / 2.0}, {d}] "
                             f"from x for scale {d}")
        profile.append((d, max_osc))
    return profile


def holder_exponent_fit(profile):
    """Least-squares fit of log(osc) = exponent * log(d) + log_constant."""
    profile = [(finite_in(d, "profile scales", 0),
                finite_in(o, "profile oscillations", 0, closed=True))
               for d, o in profile]
    if len(profile) < 3:
        raise InputError("profile needs at least 3 points")
    if all(o == 0.0 for _, o in profile):
        return HolderFit(0.0, -np.inf, 1.0)
    if any(o <= 0.0 for _, o in profile):
        raise ValueError("log fit needs positive oscillations")

    lx = np.log([d for d, _ in profile])
    ly = np.log([o for _, o in profile])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float((resid**2).sum()) / ss_tot
    return HolderFit(float(slope), float(intercept), r2)
