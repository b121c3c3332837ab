"""Geometric-measure diagnostics: density quotients, beta numbers, normal
oscillation, and empirical Holder exponents."""

from dataclasses import dataclass

import numpy as np

from . import geom
from .rng import substream
from .surface.trimesh import _point_tri_sqdist

_PATCH_TAG = 0x50415443
_OSC_TAG = 0x4F534349


@dataclass
class DensityReport:
    center: np.ndarray
    radius: float
    patch_area: float
    quotient: float
    passes_lower_bound: bool   # quotient >= pi/2
    error_bound: float

    def to_dict(self):
        return {"center": list(map(float, self.center)), "radius": self.radius,
                "patch_area": self.patch_area, "quotient": self.quotient,
                "passes_lower_bound": bool(self.passes_lower_bound),
                "error_bound": self.error_bound}


@dataclass
class BetaReport:
    center: np.ndarray
    radius: float
    beta: float
    best_normal: np.ndarray
    grid_level: int

    def to_dict(self):
        return {"center": list(map(float, self.center)), "radius": self.radius,
                "beta": self.beta, "best_normal": list(map(float, self.best_normal)),
                "grid_level": self.grid_level}


@dataclass
class HolderFit:
    exponent: float
    log_constant: float
    r_squared: float

    def to_dict(self):
        return {"exponent": self.exponent, "log_constant": self.log_constant,
                "r_squared": self.r_squared}


def exponents(p):
    """The two oscillation decay exponents for supercritical p.

    kappa = (p - 8)/(p + 16) governs the first-pass tangent-plane estimate,
    lambda = 1 - 8/p the optimal one; 0 < kappa < lambda < 1 for all p > 8.
    """
    if not p > 8.0:
        raise ValueError("p must exceed 8")
    kappa = (p - 8.0) / (p + 16.0)
    lam = 1.0 - 8.0 / p
    assert 0.0 < kappa < lam < 1.0
    return {"kappa": kappa, "lambda": lam}


def balance_epsilon(eta, p, d, E):
    """The flatness epsilon solving eps^(16+p) d^(8-p) = c1(eta, p) E.

    c1(eta, p) = eta^(-3p) (18*10^4)^p; the solution is monotone increasing
    in both d and E, so boxes get flatter as the scale shrinks.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    if not p > 8.0:
        raise ValueError("p must exceed 8")
    if not (d > 0.0 and E > 0.0):
        raise ValueError("d and E must be positive")
    log_c1 = p * (np.log(18e4) - 3.0 * np.log(eta))
    log_eps = (log_c1 + np.log(E) + (p - 8.0) * np.log(d)) / (16.0 + p)
    return float(np.exp(log_eps))


# ---------------------------------------------------------------------------
# Ahlfors density quotient by face clipping
# ---------------------------------------------------------------------------

def density_quotient(oracle, x, radius, depth=8):
    """Area of the patch inside B(x, radius) over radius^2.

    Faces fully inside the ball count exactly; straddling faces are
    quadrisected ``depth`` times, and surviving leaves count half their area
    when their centroid is inside.  The reported error bound is
    (initially straddling area) * 2^-depth.
    """
    x = np.asarray(x, dtype=float)
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    if oracle.surface_distance(x) > 1e-6 * (1.0 + oracle.diameter):
        raise ValueError("x is not on the surface")
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


def patch_samples(oracle, x, r, n_patch, seed=0):
    """Up to n_patch area-uniform samples of the patch inside B(x, r)."""
    x = np.asarray(x, dtype=float)
    pts = []
    have = 0
    budget = 400
    for k in range(budget):
        rng = substream(seed, _PATCH_TAG, k)
        block = oracle.sample_points(rng, 8192, (x, r))
        d = block - x
        keep = np.einsum("ij,ij->i", d, d) <= r * r
        pts.append(block[keep])
        have += int(keep.sum())
        if have >= n_patch:
            break
    pts = np.concatenate(pts) if pts else np.empty((0, 3))
    return pts[:n_patch]


def beta_number(oracle, x, r, n_patch=4000, grid_level=1, seed=0):
    """Scale-normalized sup-distance of the patch to its best plane through x.

    The infimum over planes is approximated from above by a nested
    direction-grid search (500 * 4^k Fibonacci directions for k = 0..level,
    so a finer level can only lower the value), plus the patch SVD normal
    and one refinement pass around the best direction.
    """
    x = np.asarray(x, dtype=float)
    if not r > 0.0:
        raise ValueError("radius must be positive")
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
    for k in range(int(grid_level) + 1):
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

    return BetaReport(x, float(r), float(best_val / r), best_dir,
                      int(grid_level))


# ---------------------------------------------------------------------------
# normal oscillation profiles
# ---------------------------------------------------------------------------

def normal_oscillation_profile(oracle, x, scales, pairs_per_scale=400, seed=0):
    """Max angle between the normal at x and normals at distance ~d.

    For each scale d the angle is maximized over sampled surface points y
    with |y - x| in [d/2, d]; the max (not the mean) matches the sup-type
    oscillation bounds.  Each scale stops after pairs_per_scale pairs or 400
    blocks of 4096 draws, whichever comes first, so small scales may collect
    fewer pairs (on torus(2, 1) at (3, 0, 0) the scale 0.05 collects 109-138
    of 400 at seeds 1-3); a scale that collects none raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    scales = sorted(float(s) for s in scales)
    if any(s > oracle.diameter for s in scales):
        raise ValueError("scale exceeds surface diameter")
    n0 = oracle.normal_at(x)

    profile = []
    for si, d in enumerate(scales):
        collected = 0
        max_osc = 0.0
        for k in range(400):
            rng = substream(seed, _OSC_TAG, si, k)
            pts, normals = oracle.sample(rng, 4096, (x, d))
            dist = np.linalg.norm(pts - x, axis=1)
            keep = (dist >= d / 2.0) & (dist <= d)
            if keep.any():
                cosang = np.clip(normals[keep] @ n0, -1.0, 1.0)
                max_osc = max(max_osc, float(np.arccos(cosang).max()))
                collected += int(keep.sum())
            if collected >= pairs_per_scale:
                break
        if collected == 0:
            raise ValueError(f"no sampled point at distance [{d / 2.0}, {d}] "
                             f"from x for scale {d}")
        profile.append((d, max_osc))
    return profile


def holder_exponent_fit(profile):
    """Least-squares fit of log(osc) = exponent * log(d) + log_constant."""
    profile = [(float(d), float(o)) for d, o in profile]
    if len(profile) < 3:
        raise ValueError("need at least 3 points")
    if any(d <= 0.0 for d, _ in profile):
        raise ValueError("scales must be positive")
    if any(o < 0.0 for _, o in profile):
        raise ValueError("oscillations must be nonnegative")
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
