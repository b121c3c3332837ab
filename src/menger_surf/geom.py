"""Floating-point geometry of triangles and tetrahedra.

A point is a numpy array of shape (3,), a triangle any array-like of shape
(3, 3) and a tetrahedron an *ordered* quadruple of shape (4, 3).  Degenerate
quadruples are legal input everywhere: they get zero volume and zero minimal
height instead of raising.  Batched variants act on (n, 4, 3) stacks and back
the Monte-Carlo layers.

Degeneracy is always measured relative to the simplex scale so that every
predicate stays invariant under rescaling:

* a triangle is non-degenerate when ``area >= 1e-14 * longest_edge**2`` and
  ``longest_edge > 0`` (``triangles``, the one place that applies it);
* a quadruple is coplanar when ``min_height < 1e-12 * diameter``.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

TRI_DEGENERACY_REL = 1e-14
TET_COPLANARITY_REL = 1e-12

_PERMS4 = np.array(list(itertools.permutations(range(4))))


class InputError(ValueError):
    """An argument outside what a public function accepts.  The message
    names the argument; failures of a valid call raise other errors."""


def finite_in(value, name, low, high=math.inf, ends="()"):
    """float(value), which must be a finite number (not text) in the interval
    from low to high; ends holds its brackets, "()" open, "[)" or "(]"."""
    try:
        ok = (not isinstance(value, (str, bytes))
              and math.isfinite(value := float(value))
              and (low <= value if ends[0] == "[" else low < value)
              and (value <= high if ends[1] == "]" else value < high))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InputError(f"{name} must be a finite number in "
                         f"{ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return value


def integer_in(value, name, least, most=math.inf):
    """int(value), which must be an integer in [least, most]."""
    try:
        ok = int(value) == value and least <= value <= most
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InputError(f"{name} must be an integer in "
                         f"{'(' if least == -math.inf else '['}{least}, {most}"
                         f"{')' if most == math.inf else ']'}, got {value!r}")
    return int(value)


def as_array(v, name, what, shape=None):
    """v as a float array, of the given shape when one is given.  A ragged,
    non-numeric or wrongly shaped v raises InputError("<name> must be <what>")."""
    try:
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        v = None
    if v is None or shape is not None and v.shape != shape:
        raise InputError(f"{name} must be {what}")
    return v


def _coordinates(v, name, what, shape):
    """v as a finite float array of the given shape."""
    v = as_array(v, name, what, shape)
    if not np.all(np.isfinite(v)):
        raise InputError(f"{name} has non-finite coordinates")
    return v


def as_point(p, name="point"):
    return _coordinates(p, name, "a point of 3 coordinates", (3,))


def unit_vector(v, name):
    """The finite, non-zero vector v scaled to unit length."""
    v = as_point(v, name)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise InputError(f"{name} must be non-zero")
    return v / norm


def as_tetra(T, name="T"):
    return _coordinates(T, name, "4 points of 3 coordinates", (4, 3))


def as_points(v, name):
    """v as a (k, 3) array of finite floats."""
    what = "a (k, 3) array of finite numbers"
    v = as_array(v, name, what)
    if v.ndim != 2 or v.shape[1] != 3 or not np.all(np.isfinite(v)):
        raise InputError(f"{name} must be {what}")
    return v


def instance_of(value, cls, name):
    """value, which must be an instance of cls."""
    if not isinstance(value, cls):
        raise InputError(f"{name} must be of type {cls.__name__}, "
                         f"got {type(value).__name__}")
    return value


class SimplexMeasures(NamedTuple):
    volume: float
    total_area: float
    diameter: float
    min_height: float


class SlantedConstants(NamedTuple):
    c0: float
    c1: float


class LemmaBounds(NamedTuple):
    voluminous_bound: float
    wide_bound: float


# ---------------------------------------------------------------------------
# batched building blocks
# ---------------------------------------------------------------------------

def _norm(v):
    return np.sqrt(np.einsum("...i,...i->...", v, v))


# The column kernel below reproduces, bit for bit, the (n, 3)-array
# formulation it replaced (np.cross, einsum dots, a sum over the four face
# norms), which tests/kernel_oracle.py keeps as its oracle.  It walks the
# stack in chunks of TETRA_CHUNK quadruples so that its temporaries stay small.
TETRA_CHUNK = 8192


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1], a[2] - b[2]


def _dot(a, b):
    """Dot product of column triples in the order einsum sums a length-3 axis."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _tetra_chunk(P):
    """Tetrahedron quantities of one chunk, plus the terms of its circumradii.

    Returns (volume, total_area, diameter, min_height, coplanar) and
    (|z_i|^2, z1 x z2, z2 x z3, z1 x z3, z3.(z1 x z2)) with z_i = x_i - x_0.
    """
    x = [(P[:, i, 0], P[:, i, 1], P[:, i, 2]) for i in range(4)]
    z1, z2, z3 = _sub(x[1], x[0]), _sub(x[2], x[0]), _sub(x[3], x[0])
    c12, c23, c13 = cross3(z1, z2), cross3(z2, z3), cross3(z1, z3)
    c_far = cross3(_sub(z2, z1), _sub(z3, z2))

    triple = _dot(z3, c12)
    volume = np.abs(triple) / 6.0
    f12, f23, f13, f_far = (np.sqrt(_dot(c, c)) for c in (c12, c23, c13, c_far))
    total_area = 0.5 * (((f12 + f23) + f13) + f_far)
    max_face = 0.5 * np.maximum(np.maximum(f12, f23), np.maximum(f13, f_far))

    # |x_0 - x_i| = |z_i| exactly; sqrt is monotone, so the largest square
    # gives the largest norm
    sq = [_dot(z, z) for z in (z1, z2, z3)]
    diam2 = np.maximum(np.maximum(sq[0], sq[1]), sq[2])
    for i, j in ((1, 2), (1, 3), (2, 3)):
        e = _sub(x[i], x[j])
        np.maximum(diam2, _dot(e, e), out=diam2)
    diam = np.sqrt(diam2)

    with np.errstate(divide="ignore", invalid="ignore"):
        min_height = np.where(max_face > 0.0, 3.0 * volume / max_face, 0.0)
    coplanar = min_height <= TET_COPLANARITY_REL * diam
    return (volume, total_area, diam, min_height, coplanar), (sq, c12, c23, c13, triple)


def _over_chunks(kernel, P):
    """Apply ``kernel`` to TETRA_CHUNK-sized slices of a (n,4,3) stack and
    join its output arrays."""
    P = np.asarray(P, dtype=float)
    parts = [kernel(P[s:s + TETRA_CHUNK])
             for s in range(0, max(len(P), 1), TETRA_CHUNK)]
    return tuple(np.concatenate(col) for col in zip(*parts))


def tetra_quantities(P):
    """Volume, total face area, diameter and min height of a (n,4,3) stack.

    Returns (volume, total_area, diameter, min_height, coplanar_mask).
    ``min_height`` is 3V / (largest face area), which equals the smallest
    vertex-to-opposite-plane distance; it is 0 whenever the largest face is
    itself degenerate.
    """
    return _over_chunks(lambda C: _tetra_chunk(C)[0], P)


def tri_areas(tri):
    """Areas of a (m,3,3) stack of triangles."""
    tri = np.asarray(tri, dtype=float)
    return corner_areas(tri[:, 0], tri[:, 1], tri[:, 2])


def corner_areas(a, b, c):
    """Areas of the triangles whose corners are the rows of three (m,3) arrays:
    the bits of ``triangles(a, b, c).area``, without its edges and mask."""
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def triangles(a, b, c):
    """(cross, area, edges, ok) of the triangles whose corners are the rows
    of three (m,3) arrays: (b - a) x (c - a), the area, the (m,3) edge
    lengths |b - a|, |c - a|, |c - b| and the non-degenerate rows (module
    docstring)."""
    ab, ac = b - a, c - a
    cross = np.cross(ab, ac)
    area = 0.5 * np.linalg.norm(cross, axis=1)
    edges = np.stack([np.linalg.norm(ab, axis=1), np.linalg.norm(ac, axis=1),
                      np.linalg.norm(c - b, axis=1)], axis=-1)
    longest = edges.max(axis=-1)
    ok = (area >= TRI_DEGENERACY_REL * longest**2) & (longest > 0.0)
    return cross, area, edges, ok


def simplex_measures(T):
    """Volume, total area, diameter and minimal height of one tetrahedron."""
    T = as_tetra(T)
    volume, area, diam, hmin, _ = tetra_quantities(T[None])
    return SimplexMeasures(float(volume[0]), float(area[0]),
                           float(diam[0]), float(hmin[0]))


# ---------------------------------------------------------------------------
# circumradii
# ---------------------------------------------------------------------------

def circumradius_triangle(x, y, z):
    """Circumcircle radius |x-y||x-z||y-z| / (4 Area).

    Raises InputError for collinear or coincident points (area below the
    relative tolerance).
    """
    x, y, z = as_point(x, "x"), as_point(y, "y"), as_point(z, "z")
    _, area, edges, ok = triangles(x[None], y[None], z[None])
    if not ok[0]:
        raise InputError("x, y, z: degenerate triangle")
    a, b, c = edges[0]
    return float(a * b * c / (4.0 * area[0]))


def _circumsphere_chunk(P):
    quantities, (sq, c12, c23, c13, triple) = _tetra_chunk(P)
    # z3 x z1 = -(z1 x z3) exactly, up to the sign of zeros the norm squares
    mix = tuple((sq[0] * c23[k] - sq[1] * c13[k]) + sq[2] * c12[k] for k in range(3))
    num = np.abs(triple)
    den = np.sqrt(_dot(mix, mix))
    with np.errstate(divide="ignore", invalid="ignore"):
        radius = np.where(num > 0.0, den / (2.0 * num), np.inf)
    return radius, quantities[4]


def circumsphere_radius_batch(P):
    """Circumsphere radii of a (n,4,3) stack.

    Returns (radius, coplanar_mask); radius is meaningless where the mask is
    set.  Uses 1/(2R) = |z3.(z1 x z2)| / | |z1|^2 z2xz3 + |z2|^2 z3xz1 +
    |z3|^2 z1xz2 | with z_i = x_i - x_0.
    """
    return _over_chunks(_circumsphere_chunk, P)


def circumsphere_radius(T):
    """Circumsphere radius of one tetrahedron; InputError if it is flat."""
    T = as_tetra(T)
    r, coplanar = circumsphere_radius_batch(T[None])
    if coplanar[0]:
        raise InputError("T: coplanar")
    return float(r[0])


# ---------------------------------------------------------------------------
# planes and distances
# ---------------------------------------------------------------------------

def point_plane_distance(p, a, b, c):
    """Unsigned distance from p to the affine plane through a, b, c."""
    p, a, b, c = (as_point(v, name) for v, name in zip((p, a, b, c), "pabc"))
    cross, area, _, ok = triangles(a[None], b[None], c[None])
    if not ok[0]:
        raise InputError("a, b, c: degenerate plane")
    return float(abs((p - a) @ cross[0]) / (2.0 * area[0]))


def tetra_distance(T, T2):
    """min over vertex pairings of the max vertex displacement (pseudometric)."""
    T = as_tetra(T)
    T2 = as_tetra(T2, "T2")
    best = np.inf
    for perm in _PERMS4:
        d = np.max(np.linalg.norm(T[perm] - T2, axis=1))
        if d < best:
            best = d
    return float(best)


def angle_between(u, v):
    """Angle in [0, pi] between two nonzero vectors."""
    u, v = as_point(u, "u"), as_point(v, "v")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise InputError("u, v: zero vector has no direction")
    c = np.clip((u @ v) / (nu * nv), -1.0, 1.0)
    return float(np.arccos(c))


# ---------------------------------------------------------------------------
# direction frames and caps
# ---------------------------------------------------------------------------

def cross3(a, b):
    """Components of np.cross(a, b), bit for bit, for a and b given as three
    components each (floats or arrays); skips np.cross's ~30 us set-up."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def orthobasis(v):
    """Unit vectors (e1, e2) completing the unit vector v to a right-handed frame."""
    v = [float(c) for c in v]
    a = (1.0, 0.0, 0.0) if abs(v[0]) < 0.9 else (0.0, 1.0, 0.0)
    e1 = np.array(cross3(v, a))
    e1 /= np.linalg.norm(e1)
    return e1, np.array(cross3(v, e1.tolist()))


def fibonacci_columns(height, n):
    """The x, y and z columns of n Fibonacci directions (Gonzalez, Math.
    Geosci. 2010) covering the cap 1 - z <= height about +z (height 2 is
    the whole sphere)."""
    i = np.arange(n)
    z = 1.0 - height * (i + 0.5) / n
    psi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return s * np.cos(psi), s * np.sin(psi), z


def cap_fibonacci(v, phi, n):
    """n Fibonacci directions covering the solid cap of angular radius phi
    around the unit vector v."""
    e1, e2 = orthobasis(v)
    x, y, z = fibonacci_columns(1.0 - np.cos(phi), n)
    return z[:, None] * v[None] + x[:, None] * e1[None] + y[:, None] * e2[None]


def sample_cap(axis, height, rng, n):
    """n area-uniform unit vectors w of the cap 1 - w.mu <= height, where mu
    is axis scaled to unit length (height 2 is the whole sphere).

    The polar offset 1 - cos(theta) is drawn directly (uniform in the cap
    height, by Archimedes), avoiding any cancellation for caps far below
    float resolution around 1.0.
    """
    mu = np.asarray(axis, dtype=float)
    mu = mu / np.linalg.norm(mu)
    one_minus_cos = rng.random(n) * height
    psi = rng.random(n) * 2.0 * np.pi
    sin_t = np.sqrt(one_minus_cos * (2.0 - one_minus_cos))
    e1, e2 = orthobasis(mu)
    disp = (-one_minus_cos[:, None] * mu[None]
            + (sin_t * np.cos(psi))[:, None] * e1[None]
            + (sin_t * np.sin(psi))[:, None] * e2[None])
    return mu[None] + disp


# ---------------------------------------------------------------------------
# simplex classes
# ---------------------------------------------------------------------------

def classify_voluminous(T, theta, d):
    """True iff the quadruple is (theta, d)-voluminous.

    Conditions: all vertices in B(x0, 2d); pairwise distances >= theta*d;
    base angle at x0 in [theta, pi - theta]; distance of x3 from the base
    plane >= theta*d.
    """
    finite_in(theta, "theta", 0, 1)
    finite_in(d, "d", 0)
    T = as_tetra(T)
    return bool(classify_voluminous_batch(T[None], theta, d)[0])


def classify_voluminous_batch(P, theta, d):
    P = np.asarray(P, dtype=float)
    x0 = P[:, 0]
    ok = classify_wide_batch(P[:, :3], theta, d)
    ok &= _norm(P[:, 3] - x0) <= 2.0 * d
    for i in (0, 1, 2):
        ok &= _norm(P[:, i] - P[:, 3]) >= theta * d

    cross, area, _, base_ok = triangles(x0, P[:, 1], P[:, 2])
    dist = np.zeros(len(P))
    w = P[:, 3] - x0
    dist[base_ok] = (np.abs(np.einsum("ij,ij->i", w[base_ok], cross[base_ok]))
                     / (2.0 * area[base_ok]))
    return ok & base_ok & (dist >= theta * d)


def classify_wide(tri, theta, d):
    """True iff the triple is (theta, d)-wide (voluminous conditions (i)-(iii))."""
    finite_in(theta, "theta", 0, 1)
    finite_in(d, "d", 0)
    tri = _coordinates(tri, "tri", "3 points of 3 coordinates", (3, 3))
    return bool(classify_wide_batch(tri[None], theta, d)[0])


def classify_wide_batch(P, theta, d):
    P = np.asarray(P, dtype=float)
    x0 = P[:, 0]
    ok = (_norm(P[:, 1] - x0) <= 2.0 * d) & (_norm(P[:, 2] - x0) <= 2.0 * d)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        ok &= _norm(P[:, i] - P[:, j]) >= theta * d
    u = P[:, 1] - x0
    v = P[:, 2] - x0
    nu, nv = _norm(u), _norm(v)
    nz = (nu > 0.0) & (nv > 0.0)
    cosang = np.ones(len(P))
    cosang[nz] = np.einsum("ij,ij->i", u[nz], v[nz]) / (nu[nz] * nv[nz])
    ang = np.arccos(np.clip(cosang, -1.0, 1.0))
    return ok & nz & (ang >= theta) & (ang <= np.pi - theta)


# ---------------------------------------------------------------------------
# constants of the slanted-plane lemmas and the perturbation lemma
# ---------------------------------------------------------------------------

def slanted_constants(phi0, phi1):
    """The two slanted-plane constants.

    c0(phi0, phi1) = (1/2) (1 - cos(phi1/2)) sin(2 phi0) and
    c1(phi0) = (1/16) sin(2 phi0).
    """
    phi0 = finite_in(phi0, "phi0", 0, np.pi / 2)
    phi1 = finite_in(phi1, "phi1", 0, np.pi)
    c0 = 0.5 * (1.0 - np.cos(phi1 / 2.0)) * np.sin(2.0 * phi0)
    c1 = np.sin(2.0 * phi0) / 16.0
    return SlantedConstants(float(c0), float(c1))


def perturbation_radius(eta):
    """Perturbation radius eps(eta) = min(eta^5/10, eta^7/36), eta in (0, 1/2].

    Moving each vertex of a tetrahedron with base angle, edge lengths and
    height controlled by (eta, d) at most eps(eta)*d keeps the height of the
    perturbed quadruple above eta*d/2.  The two terms are the proof's
    constraints 10*eps <= eta^5 and 6*eps*eta^-6 <= eta/6; the value is
    sufficient, not tight.
    """
    eta = finite_in(eta, "eta", 0, 0.5, "(]")
    return float(min(eta**5 / 10.0, eta**7 / 36.0))


def perturbation_alpha(eta):
    """Stability radius alpha(eta) = min(eta/20, eps(eta)) / 2, eta in (0, 1/2].

    Any perturbation of a (eta, d)-voluminous tetrahedron by at most
    alpha(eta)*d stays (eta/2, 3d/2)-voluminous.
    """
    return float(min(finite_in(eta, "eta", 0, 0.5, "(]") / 20.0,
                     perturbation_radius(eta)) / 2.0)
