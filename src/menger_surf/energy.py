"""Monte-Carlo estimation of the four-point curvature energies.

The energy of a surface is the integral of integrand^p over independent
area-uniform quadruples, i.e. (total_area)^4 times the mean of integrand^p.
Quadruples come in blocks from ``rng.blocks``, one counter-based stream per
block.  A global estimate merges the statistics of all its blocks pairwise in
block order; a local one reads blocks until enough points land in its patch.
Either way the estimate is a pure function of (seed, n, spec, p, surface),
independent of the worker count.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import _ball_points
from .geom import orthobasis
from .integrand import IntegrandSpec, eval_batch
from .rng import CHUNK, blocks, substream
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


def _moments(vals):
    """(count, mean, squared deviations) of integrand values.  Deviations are
    taken against the values' own mean, so the constant integrand reports
    (near-)zero variance, not the cancellation noise of a sum of squares."""
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite integrand value encountered")
    mean = float(vals.mean())
    dev = vals - mean
    return len(vals), mean, float(dev @ dev)


def _chunk_stats(draw_values, n, threads):
    """Mean and standard error of n values drawn in chunks of CHUNK, from the
    moments of each chunk merged pairwise in chunk order."""
    n = int(n)

    def work(k):
        return _moments(draw_values(k, min(CHUNK, n - k * CHUNK)))

    parts = list(blocks(work, -(-n // CHUNK), threads))
    while len(parts) > 1:
        parts = [_merge_stats(parts[i], parts[i + 1])
                 if i + 1 < len(parts) else parts[i]
                 for i in range(0, len(parts), 2)]
    return _mean_and_stderr(parts[0])


def _mean_and_stderr(stats):
    n, mean, m2 = stats
    var = max(m2 / (n - 1), 0.0) if n > 1 else 0.0
    return mean, np.sqrt(var / n)


MIN_SAMPLES = 1000  # the fewest quadruples estimate_mp accepts


def estimate_mp(oracle, spec, p, n, seed, threads=1):
    """Estimate the p-energy of a surface by quadruple Monte-Carlo.

    value     = area^4 * mean of integrand(T)^p over n independent quadruples
    std_error = area^4 * sample standard deviation / sqrt(n)

    All four points of every quadruple are independent area-uniform draws.
    """
    n = int(n)
    if n < MIN_SAMPLES:
        raise ValueError("need at least 10^3 samples")
    if p < 1:
        raise ValueError("p must be >= 1")

    def draw_values(k, m):
        rng = substream(seed, _ENERGY_TAG, k)
        pts = oracle.sample_points(rng, 4 * m).reshape(m, 4, 3)
        return eval_batch(spec, pts) ** p

    mean, stderr = _chunk_stats(draw_values, n, threads)
    a4 = oracle.total_area ** 4
    return EnergyEstimate(a4 * mean, a4 * stderr, n, int(seed), float(p), spec)


def local_energy(oracle, center, radius, spec, p, n, seed, threads=1):
    """Energy restricted to the patch inside B(center, radius).

    Quadruples are drawn by rejection from global area-uniform sampling; the
    patch area is estimated from the acceptance fraction q of the same stream,
    and the estimate is (patch_area)^4 * mean over accepted quadruples.  Its
    error bar covers both factors by the delta method: the squared relative
    error of the mean, plus 16 (1 - q) / (q * drawn) for the binomial
    fraction q raised to the 4th power.  The draws run in blocks on
    ``threads`` workers; the estimate does not depend on their number.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need a positive sample count")
    if p < 1:
        raise ValueError("p must be >= 1")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)

    block = 4 * CHUNK
    # blocks of up to 200 draws per needed point, and at least 10^6 draws
    budget = -(-max(200 * 4 * n, 10**6) // block)
    pts, n_blocks = _ball_points(oracle, center, radius, 4 * n,
                                 (seed, _ENERGY_TAG, 1), block, budget, threads)
    if len(pts) < 100:
        raise ValueError("patch too small for requested n")
    n_quads = min(n, len(pts) // 4)
    quads = pts[:4 * n_quads].reshape(n_quads, 4, 3)
    mean, stderr = _mean_and_stderr(_moments(eval_batch(spec, quads) ** p))
    drawn = n_blocks * block
    q = len(pts) / drawn
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
    if not 2 <= int(n_max) <= 8:  # the slope needs two scales
        raise ValueError("n_max must lie in 2..8")
    if int(samples) < 1:
        raise ValueError("need a positive sample count")
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

        mval, stderr = _chunk_stats(draw_values, samples, threads)
        rows.append(DivergenceRow(n_idx, r_n, measure * mval, measure * stderr))

    logs_r = np.log([row.r_n for row in rows])
    logs_i = np.log([max(row.patch_integral, 1e-300) for row in rows])
    slope = float(np.polyfit(logs_r, logs_i, 1)[0])
    return rows, slope
