"""Monte-Carlo estimation of the four-point curvature energies.

The energy of a surface is the integral of integrand^p over independent
area-uniform quadruples, i.e. (total_area)^4 times the mean of integrand^p.
Sampling is split into fixed-size chunks, each fed by its own counter-based
stream, and partial sums are reduced in chunk order, so the estimate is a
pure function of (seed, n, spec, p, surface) independent of the worker count.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geom import orthobasis
from .integrand import IntegrandSpec, eval_batch
from .rng import CHUNK, chunk_sizes, substream
from .surface import SurfaceOracle

_ENERGY_TAG = 0x4D504E52  # stream namespace for energy estimators
_CAP_TAG = 0x43415053


@dataclass
class EnergyEstimate:
    value: float
    std_error: float
    n_samples: int
    seed: int
    p: float
    spec: IntegrandSpec

    def to_dict(self):
        return {"value": self.value, "std_error": self.std_error,
                "n_samples": self.n_samples, "seed": self.seed,
                "p": self.p, "spec": self.spec.to_dict()}


@dataclass
class ScalingRow:
    radius: float
    estimate: EnergyEstimate
    normalized: float

    def to_dict(self):
        return {"radius": self.radius, "estimate": self.estimate.to_dict(),
                "normalized": self.normalized}


@dataclass
class DivergenceRow:
    n: int
    r_n: float
    patch_integral: float
    std_error: float

    def to_dict(self):
        return {"n": self.n, "r_n": self.r_n,
                "patch_integral": self.patch_integral,
                "std_error": self.std_error}


def _merge_stats(a, b):
    """Chan's parallel-variance merge of (count, mean, M2) triples."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * (nb / n)
    m2 = m2a + m2b + delta * delta * (na * nb / n)
    return n, mean, m2


def _chunk_stats(draw_values, sizes, threads):
    """Per-chunk (count, mean, squared deviations), merged in chunk order.

    Deviations are taken against each chunk's own mean, so the constant
    integrand really does report (near-)zero variance instead of the
    cancellation noise of a global sum-of-squares.
    """
    def work(args):
        k, m = args
        vals = draw_values(k, m)
        if not np.all(np.isfinite(vals)):
            raise FloatingPointError(
                "non-finite integrand value encountered (geometry bug)")
        mean = float(vals.mean())
        dev = vals - mean
        return len(vals), mean, float(dev @ dev)

    jobs = list(enumerate(sizes))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, jobs))
    else:
        parts = [work(j) for j in jobs]
    while len(parts) > 1:
        parts = [_merge_stats(parts[i], parts[i + 1])
                 if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return parts[0]


def _mean_and_stderr(stats):
    n, mean, m2 = stats
    var = max(m2 / (n - 1), 0.0) if n > 1 else 0.0
    return mean, np.sqrt(var / n)


def _stratified_faces(mesh, n):
    """Deterministic largest-remainder allocation of n draws over faces."""
    quota = n * mesh.face_areas / mesh.total_area
    counts = np.floor(quota).astype(np.int64)
    deficit = n - int(counts.sum())
    if deficit > 0:
        order = np.argsort(-(quota - counts), kind="stable")
        counts[order[:deficit]] += 1
    return np.repeat(np.arange(len(counts)), counts)


def estimate_mp(oracle, spec, p, n, seed, threads=1, stratify_by_face=False,
                _integrand_fn=None):
    """Estimate the p-energy of a surface by quadruple Monte-Carlo.

    value     = area^4 * mean of integrand(T)^p over n independent quadruples
    std_error = area^4 * sample standard deviation / sqrt(n)

    With ``stratify_by_face`` (mesh surfaces only) the first point of each
    quadruple is stratified over the faces proportionally to area, which
    keeps the estimator unbiased and usually trims its variance; the
    reported error retains the plain sample-std formula and is then mildly
    conservative.  ``_integrand_fn`` is a test hook replacing integrand^p.
    """
    n = int(n)
    if n < 1000:
        raise ValueError("need at least 10^3 samples")
    if p < 1:
        raise ValueError("p must be >= 1")
    assignment = None
    if stratify_by_face:
        if not getattr(oracle, "is_mesh", False):
            raise ValueError("face stratification needs a mesh surface")
        assignment = _stratified_faces(oracle.backing, n)

    def draw_values(k, m):
        rng = substream(seed, _ENERGY_TAG, k)
        if assignment is None:
            pts = oracle.sample_points(rng, 4 * m).reshape(m, 4, 3)
        else:
            fi = assignment[k * CHUNK:k * CHUNK + m]
            first = oracle.backing.sample_on_faces(fi, rng)
            rest = oracle.sample_points(rng, 3 * m).reshape(m, 3, 3)
            pts = np.concatenate([first[:, None, :], rest], axis=1)
        if _integrand_fn is not None:
            return _integrand_fn(pts)
        return eval_batch(spec, pts) ** p

    stats = _chunk_stats(draw_values, chunk_sizes(n), threads)
    mean, stderr = _mean_and_stderr(stats)
    a4 = oracle.total_area ** 4
    return EnergyEstimate(a4 * mean, a4 * stderr, n, int(seed), float(p), spec)


def local_energy(oracle, center, radius, spec, p, n, seed, threads=1):
    """Energy restricted to the patch inside B(center, radius).

    Quadruples are drawn by rejection from global area-uniform sampling; the
    patch area is estimated from the acceptance fraction q of the same stream,
    and the estimate is (patch_area)^4 * mean over accepted quadruples.  Its
    error bar covers both factors by the delta method: the squared relative
    error of the mean, plus 16 (1 - q) / (q * drawn) for the binomial
    fraction q raised to the 4th power.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need a positive sample count")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)

    need = 4 * n
    accepted = []
    drawn = 0
    block = 4 * CHUNK
    budget = max(200 * need, 10**6)
    k = 0
    while sum(len(a) for a in accepted) < need and drawn < budget:
        rng = substream(seed, _ENERGY_TAG, 1, k)
        pts = oracle.sample_points(rng, block, (center, radius))
        drawn += block
        d = pts - center
        keep = np.einsum("ij,ij->i", d, d) <= radius * radius
        accepted.append(pts[keep])
        k += 1
    pts = np.concatenate(accepted) if accepted else np.empty((0, 3))
    if len(pts) < 100:
        raise ValueError("patch too small for requested n")
    n_quads = min(n, len(pts) // 4)
    quads = pts[:4 * n_quads].reshape(n_quads, 4, 3)
    vals = eval_batch(spec, quads) ** p
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite integrand value encountered")
    q = len(pts) / drawn
    mean_c = float(vals.mean())
    dev = vals - mean_c
    mean, stderr = _mean_and_stderr((n_quads, mean_c, float(dev @ dev)))
    a4 = (oracle.total_area * q) ** 4
    value = a4 * mean
    area_rel = 4.0 * np.sqrt((1.0 - q) / (q * drawn))
    return EnergyEstimate(value, float(np.hypot(a4 * stderr, value * area_rel)),
                          n_quads, int(seed), float(p), spec)


def scaling_study(spec, p, radii, n, seed, threads=1):
    """Sphere energies across radii with the scale-normalized column.

    normalized = value * rho^(p-8); for the inverse-length integrands this is
    constant in rho by exact homogeneity, so at p = 8 the raw values already
    agree across radii up to Monte-Carlo error.
    """
    rows = []
    for i, rho in enumerate(radii):
        if not rho > 0.0:
            raise ValueError("radii must be positive")
        est = estimate_mp(SurfaceOracle.sphere(rho), spec, p, n,
                          seed=substream(seed, 2, i).integers(2**63),
                          threads=threads)
        rows.append(ScalingRow(float(rho), est, est.value * rho ** (p - 8.0)))
    return rows


def stopping_radius_r0(E, p, alpha):
    """The energy-controlled scale R0 = (alpha^(5p) / E)^(1/(p-8)).

    Below this radius every surface of energy at most E has patch density
    quotient at least pi/2.
    """
    if not E > 0.0:
        raise ValueError("E must be positive")
    if not p > 8.0:
        raise ValueError("supercritical exponent required")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return float((alpha ** (5.0 * p) / E) ** (1.0 / (p - 8.0)))


# ---------------------------------------------------------------------------
# spherical-cap patches where the non-symmetric integrand concentrates
# ---------------------------------------------------------------------------

_XI = np.array([0.0, 0.0, 1.0])


def _cap_centers(r_n):
    return (np.array([r_n, 0.0, np.sqrt(1.0 - r_n**2)]),
            np.array([r_n, 2.0 * r_n, np.sqrt(1.0 - 5.0 * r_n**2)]),
            np.array([r_n, -2.0 * r_n, np.sqrt(1.0 - 5.0 * r_n**2)]))


def cap_area(chordal_radius):
    """Exact area of a unit-sphere cap of the given chordal radius."""
    return np.pi * chordal_radius**2


def sample_cap(center, chordal_radius, rng, n):
    """Area-uniform points of the unit-sphere cap |y - center| <= chordal_radius.

    The polar offset 1 - cos(theta) is drawn directly (uniform in the cap
    height), avoiding any cancellation for caps far below float resolution
    around 1.0.
    """
    mu = np.asarray(center, dtype=float)
    mu = mu / np.linalg.norm(mu)
    hmax = 0.5 * chordal_radius**2  # cap height; area-uniform in height
    one_minus_cos = rng.random(n) * hmax
    psi = rng.random(n) * 2.0 * np.pi
    sin_t = np.sqrt(one_minus_cos * (2.0 - one_minus_cos))
    e1, e2 = orthobasis(mu)
    disp = (-one_minus_cos[:, None] * mu[None]
            + (sin_t * np.cos(psi))[:, None] * e1[None]
            + (sin_t * np.sin(psi))[:, None] * e2[None])
    return mu[None] + disp


def divergence_study(alpha, p, mean, eps, n_max, samples, seed, threads=1):
    """Patch energies of the non-symmetric integrand on shrinking sphere caps.

    For n = 1..n_max, three caps of chordal radius eps * r_n^2 with
    r_n = 2^(-2n) sit near the fixed pole xi = (0, 0, 1) so that the plane of
    a sampled triple stays nearly perpendicular to the sphere.  Each row is a
    Monte-Carlo estimate of the triple integral of F^p over the cap product;
    the log-log slope against r_n separates the divergent regime
    (alpha - 1) p >= 12, where the exponent 12 + (1 - alpha) p is negative,
    from the convergent one.
    """
    if not alpha > 1.0:
        raise ValueError("alpha must exceed 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not 1 <= int(n_max) <= 8:
        raise ValueError("n_max must lie in 1..8")
    spec = IntegrandSpec(kind="leger", mean=mean, alpha=float(alpha))

    rows = []
    for n_idx in range(1, int(n_max) + 1):
        r_n = 2.0 ** (-2 * n_idx)
        centers = _cap_centers(r_n)
        c = eps * r_n**2
        measure = cap_area(c) ** 3

        def draw_values(k, m, centers=centers, c=c, n_idx=n_idx):
            quads = np.empty((m, 4, 3))
            for slot, ctr in enumerate(centers):
                rng = substream(seed, _CAP_TAG, n_idx, slot, k)
                quads[:, slot] = sample_cap(ctr, c, rng, m)
            quads[:, 3] = _XI
            return eval_batch(spec, quads) ** p

        stats = _chunk_stats(draw_values, chunk_sizes(samples), threads)
        mval, stderr = _mean_and_stderr(stats)
        rows.append(DivergenceRow(n_idx, r_n, measure * mval, measure * stderr))

    logs_r = np.log([row.r_n for row in rows])
    logs_i = np.log([max(row.patch_integral, 1e-300) for row in rows])
    slope = float(np.polyfit(logs_r, logs_i, 1)[0])
    return rows, slope
