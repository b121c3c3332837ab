"""Geometric-measure diagnostics: density quotients, beta numbers, normal
oscillation, and empirical Holder exponents."""

from dataclasses import dataclass

import numpy as np

from . import geom
from .geom import InputError, as_point, finite_in, instance_of, integer_in
from .rng import blocks, substream
from .surface import SurfaceOracle
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

    Only the faces whose padded box reaches the ball are classified, and
    their corners decide most of them: all three corners in the closed ball
    make a face inside, some in and some out make it straddle.  A face with
    no corner in misses the ball when its corner bound (``_corner_bound``)
    exceeds r^2 by the rounding slack (``CORNER_SLACK``); the exact
    point-triangle distance runs only on the faces with no corner in whose
    bound does not.  The children of a quadrisection reuse their parent's
    squared corner distances and those of its three edge midpoints.
    """
    instance_of(oracle, SurfaceOracle, "oracle")
    x = oracle.point_on_surface(x, "x")
    if finite_in(radius, "radius", 0) ** 2 == 0.0:  # the quotient divides by it
        raise InputError(f"radius {radius!r} is too small: its square is 0")
    depth = integer_in(depth, "depth", 0, 10)
    mesh = oracle.tessellate()
    tri = mesh.vertices[mesh.faces[mesh.box_distances(x)[0] <= radius]]
    work = _face_columns(tri, x)
    # every child lies in the hull of its top-level face
    slack = CORNER_SLACK * (_size2(x, tri) + radius * radius)

    area_in = 0.0
    inside, straddle = _classify(work, x, radius, slack)
    area_in += _areas(work[:9, inside]).sum()
    work = work[:, straddle]
    straddle_area0 = float(_areas(work).sum())
    for _ in range(depth):
        if work.shape[1] == 0:
            break
        work = _children(work, x)
        inside, straddle = _classify(work, x, radius, slack)
        area_in += _areas(work[:9, inside]).sum()
        work = work[:, straddle]
    if work.shape[1]:
        centroids = (work[0:3] + work[3:6] + work[6:9]) / 3.0
        in_c = _sqdist(centroids, x) <= radius * radius
        area_in += 0.5 * _areas(work[:9, in_c]).sum()

    quotient = float(area_in) / radius**2
    return DensityReport(x, float(radius), float(area_in), quotient,
                         quotient >= np.pi / 2.0,
                         straddle_area0 * 2.0 ** (-depth))


# Rounding slack of the corner bound, relative to the squared size of the
# coordinates (``_size2``): on a well-shaped face the bound and the exact
# distance each round by some 1e-15 of it.  ``density_quotient`` adds r^2 to
# the size, so that a face the bound rules out lies more than r^2 (1 + 1e-10)
# from x in squared distance, whose square root rounds above r.
CORNER_SLACK = 1e-10


def _face_columns(tri, x):
    """One column per face of the (m,3,3) stack: the coordinates of its
    corners a, b and c, then their squared distances to x."""
    work = np.empty((12, len(tri)))
    work[:9] = tri.reshape(-1, 9).T
    work[9:] = [_sqdist(work[k:k + 3], x) for k in (0, 3, 6)]
    return work


def _sqdist(p, x):
    """|p - x|^2 for the column triple p, with einsum's bits."""
    d = geom._sub(p, x)
    return geom._dot(d, d)


def _size2(x, tri):
    """An upper bound on the squared norm of x and of every corner in tri."""
    return 3.0 * max(np.abs(x).max(), np.abs(tri).max(initial=0.0)) ** 2


def _areas(cols):
    return geom.corner_areas(cols[0:3].T, cols[3:6].T, cols[6:9].T)


def _corner_bound(cols):
    """A lower bound on the squared distance from x to each face column.

    For p = sum_i l_i v_i on the face, |p - x|^2 = sum_i l_i |v_i - x|^2 -
    sum_{i<j} l_i l_j |v_i - v_j|^2, and sum_{i<j} l_i l_j <= 1/3, so the
    squared distance is at least min_i |v_i - x|^2 - max_{i<j} |v_i - v_j|^2 / 3.
    """
    a, b, c = cols[0:3], cols[3:6], cols[6:9]
    e2 = np.maximum(np.maximum(_sqdist(a, b), _sqdist(b, c)), _sqdist(c, a))
    return np.minimum(np.minimum(cols[9], cols[10]), cols[11]) - e2 / 3.0


def _classify(work, x, radius, slack):
    """Indices of the face columns fully inside the ball, and of those that
    straddle it, in column order."""
    r2 = radius * radius
    ina, inb, inc = work[9] <= r2, work[10] <= r2, work[11] <= r2
    inside = ina & inb & inc
    touch = ina | inb | inc
    straddle = touch & ~inside
    out = np.flatnonzero(~touch)
    near = out[_corner_bound(work[:, out]) <= r2 + slack]
    if len(near):
        tri = work[:9, near].T.reshape(-1, 3, 3)
        straddle[near] = np.sqrt(_point_tri_sqdist(x, tri)) <= radius
    return np.flatnonzero(inside), np.flatnonzero(straddle)


# the corners of the four children, in blocks: the a-, b- and c-corner
# children, then the middle one (a point is a, b, c or the midpoint ab, bc,
# ca).  The area sums add the children in this order, as they always have,
# so every report keeps its bits.
_CHILDREN = ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5))


def _children(work, x):
    """The face columns of the four children of each column of work."""
    m = work.shape[1]
    a, b, c = work[0:3], work[3:6], work[6:9]
    mids = [0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)]
    points = [a, b, c] + mids
    dists = [work[9], work[10], work[11]] + [_sqdist(p, x) for p in mids]
    out = np.empty((12, 4 * m))
    for k, child in enumerate(_CHILDREN):
        cols = out[:, k * m:(k + 1) * m]
        for j, i in enumerate(child):
            cols[3 * j:3 * j + 3] = points[i]
            cols[9 + j] = dists[i]
    return out


# ---------------------------------------------------------------------------
# Jones beta numbers by direction-grid search
# ---------------------------------------------------------------------------

def _max_abs_dot(dirs, rel):
    """max_i |rel_i . dir| for each direction, 512 directions per product."""
    out = np.empty(len(dirs))
    for s in range(0, len(dirs), 512):
        prod = rel @ dirs[s:s + 512].T
        out[s:s + 512] = np.maximum(prod.max(axis=0), -prod.min(axis=0))
    return out


def _read_blocks(work, need, threads=1):
    """The rows that the blocks ``work(0), work(1), ...`` keep, joined, and
    the number of blocks read: blocks are read until ``need`` rows are kept
    or ``MAX_BLOCKS`` are read."""
    kept = []
    have = 0
    for rows in blocks(work, MAX_BLOCKS, threads):
        kept.append(rows)
        have += len(rows)
        if have >= need:
            break
    return np.concatenate(kept), len(kept)


def _ball_points(oracle, x, r, need, stream, block, threads=1):
    """Surface points in B(x, r) by rejection, and the number of blocks drawn.

    Block k draws ``block`` points of the oracle's cover of the ball from
    ``substream(*stream, k)`` and keeps those in the ball (``_read_blocks``)."""
    def work(k):
        pts = oracle.sample_points(substream(*stream, k), block, (x, r))
        d = pts - x
        return pts[np.einsum("ij,ij->i", d, d) <= r * r]

    return _read_blocks(work, need, threads)


def patch_samples(oracle, x, r, n_patch, seed=0):
    """Up to n_patch area-uniform samples of the patch inside B(x, r); fewer
    only when the patch holds too little of the oracle's cover of the ball
    (such as none, for a centre off the surface)."""
    instance_of(oracle, SurfaceOracle, "oracle")
    x = as_point(x, "x")
    finite_in(r, "r", 0)
    n_patch = integer_in(n_patch, "n_patch", 1)
    return _ball_points(oracle, x, r, n_patch, (seed, _PATCH_TAG),
                        8192)[0][:n_patch]


def _rim(rel):
    """The 256 points of the patch ``rel`` farthest from x, and the margin
    16 eps max_i |rel_i| by which a rim score may exceed the whole patch's.

    Each score is a 3-term dot product with a unit direction, so rounding
    moves it by at most gamma_3 |rel_i| ~ 1.5 eps |rel_i| (Higham), whatever
    shape of product BLAS computes it in; the margin covers both sides.
    """
    d2 = np.einsum("ij,ij->i", rel, rel)
    far = np.argpartition(d2, -256)[-256:] if len(rel) > 256 else slice(None)
    return rel[far], 16.0 * np.finfo(float).eps * np.sqrt(d2.max())


def _step(dirs, rel, rim, margin, best):
    """The (direction, value) best, or a better one of dirs: the lowest-index
    minimum of ``_max_abs_dot(dirs, rel)`` if it is below ``best[1]``.

    A max over the rim is at most the max over the patch, so the rim scores
    bound each direction's score from below, up to the margin; they are
    tight because a linear function takes its maximum over a point set at a
    hull vertex, and on a near-flat patch those lie on the far rim.  The
    512-direction blocks of ``_max_abs_dot`` are scored on the whole patch in
    increasing order of their least bound, until that bound exceeds the
    least score so far (or ``best[1]``) by more than the margin: no
    direction left can then reach that score or tie it.  Each block is the
    same product as in one call over all of dirs, so every score keeps its
    bits.
    """
    lb = _max_abs_dot(dirs, rim)
    starts = np.arange(0, len(dirs), 512)
    vals = np.full(len(dirs), np.inf)
    lows = np.minimum.reduceat(lb, starts)
    cut = best[1]
    for b in np.argsort(lows):
        if lows[b] > cut + margin:
            break
        s = starts[b]
        vals[s:s + 512] = _max_abs_dot(dirs[s:s + 512], rel)
        cut = min(cut, vals[s:s + 512].min())
    i = int(np.argmin(vals))
    return (dirs[i], float(vals[i])) if vals[i] < best[1] else best


def _beta_search(rel, grid_level):
    """The (direction, value) of ``beta_number``'s search over the patch
    ``rel`` (points minus x)."""
    rim, margin = _rim(rel)
    # the small-residual plane normal is an excellent candidate and makes
    # exactly flat patches come out at machine zero
    _, _, vt = np.linalg.svd(rel, full_matrices=False)
    best = (vt[-1], float(_max_abs_dot(vt[-1:], rel)[0]))

    # levels are cumulative (each adds its grid and a refinement around the
    # running best), so a finer grid_level can only lower the reported value
    for k in range(grid_level + 1):
        best = _step(np.stack(geom.fibonacci_columns(2.0, 500 * 4**k), axis=-1),
                     rel, rim, margin, best)
        spacing = 2.0 / np.sqrt(500 * 4**k)
        best = _step(geom.cap_fibonacci(best[0] / np.linalg.norm(best[0]),
                                        2.0 * spacing, 600),
                     rel, rim, margin, best)
    return best


def beta_number(oracle, x, r, n_patch=4000, grid_level=1, seed=0):
    """Scale-normalized sup-distance of the patch to its best plane through x.

    The infimum over planes is approximated from above by a nested
    direction-grid search, so a finer level can only lower the value (the
    cap of 6 bounds time and memory).  The candidates are the patch SVD
    normal, then for each k = 0..level the 500 * 4^k Fibonacci directions and
    600 directions of a cap around the best direction so far.  Of each set
    only the 512-direction blocks whose rim bound can still win are scored
    on the whole patch (``_step``); the result is that of scoring every
    direction: the lowest-index minimum, kept only if strictly below the
    best so far.
    """
    instance_of(oracle, SurfaceOracle, "oracle")
    x = oracle.point_on_surface(x, "x")
    grid_level = integer_in(grid_level, "grid_level", 0, 6)
    pts = patch_samples(oracle, x, r, n_patch, seed)
    if len(pts) == 0:
        raise ValueError("empty patch")
    best = _beta_search(pts - x, grid_level)
    return BetaReport(x, float(r), float(best[1] / r), best[0], grid_level)


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
    instance_of(oracle, SurfaceOracle, "oracle")
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
        return np.clip(normals[keep] @ n0, -1.0, 1.0)

    profile = []
    for si, d in enumerate(scales):
        cosang = _read_blocks(lambda k: work(k, si, d), pairs_per_scale)[0]
        if len(cosang) == 0:
            raise ValueError(f"no sampled point at distance [{d / 2.0}, {d}] "
                             f"from x for scale {d}")
        profile.append((d, float(np.arccos(cosang).max())))
    return profile


def holder_exponent_fit(profile):
    """Least-squares fit of log(osc) = exponent * log(d) + log_constant."""
    profile = [(finite_in(d, "profile scales", 0),
                finite_in(o, "profile oscillations", 0, ends="[)"))
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
