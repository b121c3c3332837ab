"""Shared fixtures and structured-tetrahedron generators."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from menger_surf import geom
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, shapes

# --integrand texts that are not an object, have a parameter that is not a
# finite int or float, or have an unknown key
BAD_SPECS = ['[1]', '"menger"', '{"kind":"scaled","s":"x"}',
             '{"kind":"leger","mean":"min","alpha":"3"}',
             '{"kind":"scaled","s":Infinity}',
             '{"kind":"leger","mean":"min","alpha":1e400}',
             '{"kind":"scaled","s":true}', '{"kind":"menger","extra":1}']


def load_perfbench(name):
    """The benchmark's module ``perfbench/<name>.py``, imported from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def exactly(message):
    """A ``pytest.raises`` pattern that matches the whole message alone."""
    return "^" + re.escape(message) + "$"


def random_tetrahedra(rng, n, clearance=1e-6):
    """(n,4,3) quadruples uniform in the unit cube, kept clearly non-flat."""
    out = []
    have = 0
    while have < n:
        pts = rng.random((2 * n, 4, 3))
        _, _, diam, hmin, _ = geom.tetra_quantities(pts)
        keep = hmin > clearance * diam
        out.append(pts[keep])
        have += int(keep.sum())
    return np.concatenate(out)[:n]


def _unit_vectors(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _tilted(dir1, angle, psi):
    """Unit vectors at the given angle from dir1, azimuth psi."""
    a = np.where(np.abs(dir1[:, :1]) < 0.9,
                 np.tile([1.0, 0.0, 0.0], (len(dir1), 1)),
                 np.tile([0.0, 1.0, 0.0], (len(dir1), 1)))
    e1 = np.cross(dir1, a)
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    e2 = np.cross(dir1, e1)
    return (np.cos(angle)[:, None] * dir1
            + (np.sin(angle) * np.cos(psi))[:, None] * e1
            + (np.sin(angle) * np.sin(psi))[:, None] * e2)


def voluminous_tetrahedra(rng, n, theta, d):
    """n quadruples passing classify_voluminous(theta, d) exactly."""
    out = []
    have = 0
    while have < n:
        m = max(4 * n, 4096)
        dir1 = _unit_vectors(rng, m)
        r1 = rng.uniform(theta * d, 2.0 * d, m)
        x1 = r1[:, None] * dir1
        ang = rng.uniform(theta, np.pi - theta, m)
        psi = rng.uniform(0.0, 2.0 * np.pi, m)
        dir2 = _tilted(dir1, ang, psi)
        r2 = rng.uniform(theta * d, 2.0 * d, m)
        x2 = r2[:, None] * dir2
        nrm = np.cross(dir1, dir2)
        nn = np.linalg.norm(nrm, axis=1)
        ok = nn > 1e-9
        nrm[ok] /= nn[ok, None]
        a = rng.uniform(-0.6 * d, 0.6 * d, m)
        b = rng.uniform(-0.6 * d, 0.6 * d, m)
        h = rng.uniform(theta * d, 1.4 * d, m) * rng.choice([-1.0, 1.0], m)
        x3 = a[:, None] * dir1 + b[:, None] * dir2 + h[:, None] * nrm
        quads = np.stack([np.zeros((m, 3)), x1, x2, x3], axis=1)
        keep = ok & geom.classify_voluminous_batch(quads, theta, d)
        out.append(quads[keep])
        have += int(keep.sum())
    return np.concatenate(out)[:n]


def wide_base_tetrahedra(rng, n, theta, kappa, d):
    """Quadruples with a (theta,d)-wide base, x3 in B(x0,2d) at height >= kappa d."""
    out = []
    have = 0
    while have < n:
        m = max(4 * n, 4096)
        dir1 = _unit_vectors(rng, m)
        r1 = rng.uniform(theta * d, 2.0 * d, m)
        x1 = r1[:, None] * dir1
        ang = rng.uniform(theta, np.pi - theta, m)
        psi = rng.uniform(0.0, 2.0 * np.pi, m)
        dir2 = _tilted(dir1, ang, psi)
        r2 = rng.uniform(theta * d, 2.0 * d, m)
        x2 = r2[:, None] * dir2
        nrm = np.cross(dir1, dir2)
        nn = np.linalg.norm(nrm, axis=1)
        ok = nn > 1e-9
        nrm[ok] /= nn[ok, None]
        a = rng.uniform(-0.6 * d, 0.6 * d, m)
        b = rng.uniform(-0.6 * d, 0.6 * d, m)
        h = rng.uniform(kappa * d, 1.4 * d, m) * rng.choice([-1.0, 1.0], m)
        x3 = a[:, None] * dir1 + b[:, None] * dir2 + h[:, None] * nrm

        tris = np.stack([np.zeros((m, 3)), x1, x2], axis=1)
        wide = geom.classify_wide_batch(tris, theta, d)
        in_ball = np.linalg.norm(x3, axis=1) <= 2.0 * d
        height = np.abs(np.einsum("ij,ij->i", x3, nrm))
        keep = ok & wide & in_ball & (height >= kappa * d)
        quads = np.stack([np.zeros((m, 3)), x1, x2, x3], axis=1)
        out.append(quads[keep])
        have += int(keep.sum())
    return np.concatenate(out)[:n]


def random_rotations(rng, n):
    """Uniform-ish rotation matrices from batched QR of Gaussian matrices."""
    q, r = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    diag = np.sign(np.einsum("nii->ni", r))
    q = q * diag[:, None, :]
    det = np.linalg.det(q)
    q[det < 0, :, 0] *= -1.0
    return q


def kink_box(L=4.0, depth=4.0, n=96, neg=(0.3, 80.0), pos=None):
    """Closed box whose top is flat near the origin with off-center roofs.

    The seed at the origin sees a flat tangent plane, but one or two steep
    roof sheets start a little distance away; this is the geometry that
    drives the growing cone into the antipodal cases.
    """
    xs = np.linspace(-L, L, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = np.zeros_like(X)
    a_n, s_n = neg
    Z = np.maximum(Z, np.maximum(0.0, -X - a_n) * np.tan(np.radians(s_n)))
    if pos is not None:
        a_p, s_p = pos
        Z = np.maximum(Z, np.maximum(0.0, X - a_p) * np.tan(np.radians(s_p)))
    top = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    bot = np.stack([X.ravel(), Y.ravel(), np.full(X.size, -depth)], axis=-1)
    verts = np.concatenate([top, bot])
    off = len(top)
    faces = []

    def vid(i, j, layer):
        return layer * off + i * (n + 1) + j

    for i in range(n):
        for j in range(n):
            faces += [(vid(i, j, 0), vid(i + 1, j, 0), vid(i + 1, j + 1, 0)),
                      (vid(i, j, 0), vid(i + 1, j + 1, 0), vid(i, j + 1, 0))]
            faces += [(vid(i, j, 1), vid(i + 1, j + 1, 1), vid(i + 1, j, 1)),
                      (vid(i, j, 1), vid(i, j + 1, 1), vid(i + 1, j + 1, 1))]
    for k in range(n):
        faces += [(vid(0, k, 0), vid(0, k + 1, 0), vid(0, k + 1, 1)),
                  (vid(0, k, 0), vid(0, k + 1, 1), vid(0, k, 1))]
        faces += [(vid(n, k, 0), vid(n, k, 1), vid(n, k + 1, 1)),
                  (vid(n, k, 0), vid(n, k + 1, 1), vid(n, k + 1, 0))]
        faces += [(vid(k, 0, 0), vid(k, 0, 1), vid(k + 1, 0, 1)),
                  (vid(k, 0, 0), vid(k + 1, 0, 1), vid(k + 1, 0, 0))]
        faces += [(vid(k, n, 0), vid(k + 1, n, 0), vid(k + 1, n, 1)),
                  (vid(k, n, 0), vid(k + 1, n, 1), vid(k, n, 1))]
    from menger_surf.surface import TriMesh
    return TriMesh(verts, np.asarray(faces, dtype=np.int64))


@pytest.fixture(scope="session")
def unit_sphere():
    return SurfaceOracle.sphere(1.0)


@pytest.fixture(scope="session")
def torus_2_1():
    return SurfaceOracle.torus(2.0, 1.0)


@pytest.fixture(scope="session")
def icosphere4():
    return shapes.icosphere(4)


@pytest.fixture(scope="session")
def icosphere2():
    return shapes.icosphere(2)


@pytest.fixture(scope="session")
def flat_patch():
    return shapes.flat_patch(2.0, n=24)


@pytest.fixture()
def rng():
    return substream(20240811)
