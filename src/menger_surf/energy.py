"""Monte-Carlo estimation of the four-point curvature energies.

The energy of a surface is the integral of integrand^p over independent
area-uniform quadruples, i.e. (total_area)^4 times the mean of integrand^p.
Quadruples come in blocks from ``rng.blocks``, one counter-based stream per
block.  A global estimate merges the statistics of all its blocks pairwise in
block order; a local one reads blocks until enough points land in its patch.
Either way the estimate is a pure function of (seed, n, spec, p, surface),
independent of the worker count.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .analysis import _ball_points
from .geom import (InputError, as_point, finite_in, instance_of, integer_in,
                   sample_cap)
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


@dataclass
class ScalingRow:
    radius: float
    estimate: EnergyEstimate
    normalized: float


@dataclass
class DivergenceRow:
    n: int
    r_n: float
    patch_integral: float
    std_error: float


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
    instance_of(oracle, SurfaceOracle, "oracle")
    instance_of(spec, IntegrandSpec, "spec")
    n = integer_in(n, "n", MIN_SAMPLES)
    finite_in(p, "p", 1, ends="[)")

    # one pair of blocks per worker, filled anew by each of its chunks: the
    # chunk's points and their canonical order (``eval_batch``'s block)
    workspace = threading.local()

    def draw_values(k, m):
        if not hasattr(workspace, "blocks"):
            workspace.blocks = np.empty((2, 12 * min(CHUNK, n)))
        pts, block = workspace.blocks[:, :12 * m]
        rng = substream(seed, _ENERGY_TAG, k)
        pts = oracle.sample_points(rng, 4 * m, out=pts.reshape(4 * m, 3))
        return eval_batch(spec, pts.reshape(m, 4, 3),
                          block=block.reshape(4, 3, m)) ** p

    mean, stderr = _chunk_stats(draw_values, n, threads)
    a4 = oracle.total_area ** 4
    return EnergyEstimate(a4 * mean, a4 * stderr, n, int(seed), float(p), spec)


def local_energy(oracle, center, radius, spec, p, n, seed, threads=1):
    """Energy restricted to the patch inside B(center, radius).

    Quadruples are drawn by rejection from the oracle's cover of the ball, a
    region of area A_c around the patch (``SurfaceOracle.cover_area``).  The
    patch area is estimated as A_c * q, where q is the fraction of the cover
    draws of the same stream that land in the ball, and the estimate is
    (A_c q)^4 * mean over accepted quadruples.  Its error bar covers both
    factors by the delta method: the squared relative error of the mean, plus
    16 (1 - q) / (q * drawn) for the binomial fraction q raised to the 4th
    power.  A_c is exact, and q is of order one for a centre on the surface,
    so the area term stays small however small the patch.  The draws run in
    blocks on ``threads`` workers; the estimate does not depend on their
    number.  A patch that holds fewer than 100 points after the block bound
    (a centre off the surface) raises ValueError.
    """
    instance_of(oracle, SurfaceOracle, "oracle")
    instance_of(spec, IntegrandSpec, "spec")
    n = integer_in(n, "n", 1)
    finite_in(p, "p", 1, ends="[)")
    finite_in(radius, "radius", 0)
    center = as_point(center, "center")

    block = 4 * CHUNK
    pts, n_blocks = _ball_points(oracle, center, radius, 4 * n,
                                 (seed, _ENERGY_TAG, 1), block, threads)
    if len(pts) < 100:
        raise ValueError("patch too small for requested n")
    n_quads = min(n, len(pts) // 4)
    quads = pts[:4 * n_quads].reshape(n_quads, 4, 3)
    mean, stderr = _mean_and_stderr(_moments(eval_batch(spec, quads) ** p))
    drawn = n_blocks * block
    q = len(pts) / drawn
    a4 = (oracle.cover_area((center, radius)) * q) ** 4
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
    radii = [finite_in(rho, "radii", 0) for rho in radii]
    if not radii:
        raise InputError("radii must be a non-empty list")
    rows = []
    for i, rho in enumerate(radii):
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
    finite_in(E, "E", 0)
    finite_in(p, "p", 8)  # supercritical
    finite_in(alpha, "alpha", 0, 1)
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
    finite_in(alpha, "alpha", 1)
    finite_in(p, "p", 0)
    finite_in(eps, "eps", 0, 1)
    n_max = integer_in(n_max, "n_max", 2, 8)  # the slope needs two scales
    samples = integer_in(samples, "samples", 1)
    spec = IntegrandSpec(kind="leger", mean=mean, alpha=float(alpha))

    rows = []
    for n_idx in range(1, n_max + 1):
        r_n = 2.0 ** (-2 * n_idx)
        centers = _cap_centers(r_n)
        c = eps * r_n**2
        measure = cap_area(c) ** 3

        def draw_values(k, m, centers=centers, c=c, n_idx=n_idx):
            quads = np.empty((m, 4, 3))
            for slot, ctr in enumerate(centers):
                rng = substream(seed, _CAP_TAG, n_idx, slot, k)
                quads[:, slot] = sample_cap(ctr, 0.5 * c**2, rng, m)
            quads[:, 3] = _XI
            return eval_batch(spec, quads) ** p

        mval, stderr = _chunk_stats(draw_values, samples, threads)
        rows.append(DivergenceRow(n_idx, r_n, measure * mval, measure * stderr))

    logs_r = np.log([row.r_n for row in rows])
    logs_i = np.log([max(row.patch_integral, 1e-300) for row in rows])
    slope = float(np.polyfit(logs_r, logs_i, 1)[0])
    return rows, slope
