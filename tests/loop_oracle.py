"""The block loops that ``rng.blocks`` replaced, kept as oracles.

Each function is a former loop body: the chunked statistics of
``estimate_mp`` and ``divergence_study`` (fixed chunk sizes, a thread pool
over every chunk at once, then the pairwise merge), the ``while`` loop of
``local_energy`` (which ran on one thread whatever ``threads`` said), the
block loop of ``patch_samples`` and the block loop of each scale of
``normal_oscillation_profile``.  The patch loops read at most
``analysis.MAX_BLOCKS`` blocks of the oracle's cover of the ball, and
``local_energy`` takes its patch area from ``cover_area``, as the functions
on the driver do.  Those must return their results bit for bit at every
thread count (``tests/test_blocks.py``).
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from menger_surf.analysis import _OSC_TAG, _PATCH_TAG, MAX_BLOCKS
from menger_surf.energy import (_ENERGY_TAG, EnergyEstimate, _mean_and_stderr,
                                _merge_stats)
from menger_surf.integrand import eval_batch
from menger_surf.rng import CHUNK, substream


def chunk_sizes(n, chunk=CHUNK):
    n = int(n)
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    return sizes


def chunk_stats(draw_values, sizes, threads):
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


def local_energy(oracle, center, radius, spec, p, n, seed):
    n = int(n)
    center = np.asarray(center, dtype=float)
    need = 4 * n
    accepted = []
    drawn = 0
    block = 4 * CHUNK
    k = 0
    while sum(len(a) for a in accepted) < need and k < MAX_BLOCKS:
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
    a4 = (oracle.cover_area((center, radius)) * q) ** 4
    value = a4 * mean
    area_rel = 4.0 * np.sqrt((1.0 - q) / (q * drawn))
    return EnergyEstimate(value, float(np.hypot(a4 * stderr, value * area_rel)),
                          n_quads, int(seed), float(p), spec)


def patch_samples(oracle, x, r, n_patch, seed=0):
    x = np.asarray(x, dtype=float)
    pts = []
    have = 0
    for k in range(MAX_BLOCKS):
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


def normal_oscillation_profile(oracle, x, scales, pairs_per_scale=400, seed=0):
    x = np.asarray(x, dtype=float)
    scales = sorted(float(s) for s in scales)
    n0 = oracle.normal_at(x)
    profile = []
    for si, d in enumerate(scales):
        collected = 0
        max_osc = 0.0
        for k in range(MAX_BLOCKS):
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
