"""Surface oracles: a uniform interface over analytic shapes and meshes.

An oracle provides total area, area-uniform sampling of points with or
without oriented normals,
ray queries, an inside test when the surface bounds a volume, and a
triangulated stand-in for face-based diagnostics.  Oracles are immutable
after construction, apart from the stand-in they build once on first use
and a mesh's face view of its last shared ray origin, and safe to share;
random streams are caller-owned and never stored.

Every backing answers one batched ray query, ``ray_hits(origins, dirs, tmin,
tmax)``: all hits t in [tmin, tmax] of the rays origins + t * dirs[i], as
(ray index, t) pairs, for one shared origin (3,) or one origin per ray
(k, 3).  The analytic backings solve it for all rays at once, with no
per-ray path.  The oracle reduces it to banded first hits
(``band_min_hits``, a shared origin), the sorted hit points of one segment
(``segment_hits``, a one-row per-ray origin, so that the rim probes of a
search leave the face view of its seed point in place) and, on meshes, the
parity votes of the inside test.

The oracle samples area-uniformly through one draw core per backing:
``backing._draw(rng, n, ball)`` makes every random draw of n samples and
returns their per-row parameters p, from which ``backing._points(*p)`` and
``backing._normals(*p)`` form the rows.  ``sample(rng, n, ball=None)``
composes all three.  ``sample_points(rng, n, ball=None)``, for callers that
need no normals, composes ``_draw`` and ``_points`` alone: the same draws,
the same end state of the generator and the rows of ``sample(rng, n,
ball)[0]`` bit for bit, without forming a normal or passing through
``sample``.

Without a ball the draws are area-uniform on the whole surface.  With a ball
(center, radius) they are area-uniform on the backing's cover of the ball: a
region of the surface that holds every surface point of the ball, of exact
area ``cover_area(ball)``.  The cover is a cap on the sphere, a product of a
major-angle arc and a minor-angle arc on the torus, a z band on the capsule,
an xy box on the saddle and the faces whose boxes reach the ball on a mesh.
A cover is empty (area 0, and the draw returns no rows) only where the ball
misses the surface.  Callers that keep only the points of a patch apply their
own exact test to what comes back, and the fraction they keep, times
``cover_area``, estimates the patch area.  The oracle checks its arguments
once per call: InputError for a count that is not an integer >= 0, or a
ball whose centre is not finite or whose radius is not finite and positive;
so do ``band_min_hits`` and ``segment_hits`` for their points, directions
and band.
"""

from typing import NamedTuple

import numpy as np

from ..geom import InputError, as_point, as_points, finite_in, integer_in
from .analytic import Capsule, SaddlePatch, Sphere, Torus
from .io import MeshParseError, load_obj, load_off, save_obj, save_off
from .trimesh import TriMesh
from . import shapes


class SurfacePoint(NamedTuple):
    position: np.ndarray
    normal: np.ndarray


def load_mesh(path, format=None):
    """Load an OBJ or OFF file into a TriMesh.

    ``format`` is "obj" or "off"; when omitted it is taken from the file
    extension.  Another format raises ``InputError``, and a file that does
    not parse, or whose faces are all degenerate, ``MeshParseError``.
    """
    if format is None:
        format = str(path).rsplit(".", 1)[-1].lower()
    if format == "obj":
        vertices, faces = load_obj(path)
    elif format == "off":
        vertices, faces = load_off(path)
    else:
        raise InputError(f"unknown mesh format {format!r}")
    try:
        return TriMesh(vertices, faces)
    except ValueError as exc:  # the parsers leave only "every face degenerate"
        raise MeshParseError(path, 1, str(exc)) from None


class SurfaceOracle:
    """Uniform surface abstraction over an analytic shape or a TriMesh."""

    def __init__(self, backing):
        self.backing = backing
        self.total_area = float(backing.total_area)
        if not 0.0 < self.total_area < np.inf:
            raise InputError(f"surface area must be finite and positive, "
                             f"got {self.total_area!r}")
        self._mesh = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def sphere(cls, radius):
        return cls(Sphere(radius))

    @classmethod
    def torus(cls, major_radius, minor_radius):
        return cls(Torus(major_radius, minor_radius))

    @classmethod
    def saddle(cls, extent):
        return cls(SaddlePatch(extent))

    @classmethod
    def capsule(cls, length, radius):
        return cls(Capsule(length, radius))

    @classmethod
    def from_mesh(cls, mesh):
        if not isinstance(mesh, TriMesh):
            raise TypeError("from_mesh expects a TriMesh")
        return cls(mesh)

    @classmethod
    def from_file(cls, path, format=None):
        return cls(load_mesh(path, format))

    # -- delegation -----------------------------------------------------------

    @property
    def diameter(self):
        return self.backing.diameter

    def sample(self, rng, n, ball=None):
        """n area-uniform draws as (points, normals); with a ball (center,
        radius), draws on the backing's cover of it (module docstring)."""
        p = self.backing._draw(rng, integer_in(n, "n", 0), _checked(ball))
        return self.backing._points(*p), self.backing._normals(*p)

    def sample_points(self, rng, n, ball=None):
        """The points of ``sample(rng, n, ball)``, bit for bit, without forming
        any normal (module docstring)."""
        return self.backing._points(*self.backing._draw(
            rng, integer_in(n, "n", 0), _checked(ball)))

    def cover_area(self, ball):
        """Exact area of the region that ``sample(rng, n, ball)`` draws from."""
        return float(self.backing.cover_area(_checked(ball)))

    def ray_hits(self, origins, dirs, tmin, tmax):
        return self.backing.ray_hits(origins, dirs, tmin, tmax)

    def band_min_hits(self, origin, dirs, tmin, tmax):
        """Per-ray smallest hit parameter within [tmin, tmax] (inf for none).

        Hits below tmin do not occlude the band.  tmin must be finite and
        tmax at least tmin (it may be inf).
        """
        origin, dirs = as_point(origin, "origin"), as_points(dirs, "dirs")
        tmin = finite_in(tmin, "tmin", -np.inf)
        if not tmin <= float(tmax):
            raise InputError(f"tmax must be a number in [tmin, inf], got {tmax!r}")
        out = np.full(len(dirs), np.inf)
        ray, t = self.ray_hits(origin, dirs, tmin, tmax)
        np.minimum.at(out, ray, t)
        return out

    def segment_hits(self, a, b):
        """All intersection points of the segment [a, b], sorted along it.

        Hits closer than 1e-12 in the segment parameter count once (a ray
        through a shared mesh edge meets both faces).
        """
        a = as_point(a, "a")
        d = as_point(b, "b") - a
        # one per-ray origin: a mesh keeps the face view of a search's seed
        _, t = self.ray_hits(a[None], d[None], -1e-12, 1.0 + 1e-12)
        t = np.sort(t)
        keep = np.ones(len(t), dtype=bool)
        keep[1:] = np.diff(t) > 1e-12
        return a[None] + t[keep, None] * d[None]

    def inside(self, p):
        return self.backing.inside(p)

    def has_interior(self):
        return self.backing.has_interior()

    def normal_at(self, p):
        return self.backing.normal_at(as_point(p, "p"))

    def surface_distance(self, p):
        return self.backing.surface_distance(p)

    def point_on_surface(self, p, name):
        """p as a point, which must be finite and lie within 1e-6 (1 +
        diameter) of the surface; else InputError naming the argument."""
        p = as_point(p, name)
        distance = self.surface_distance(p)
        if distance > 1e-6 * (1.0 + self.diameter):
            raise InputError(f"{name} lies {distance:.6g} off the surface")
        return p

    def tessellate(self):
        """The backing's triangulated stand-in, built once per oracle."""
        if self._mesh is None:
            self._mesh = self.backing.tessellate()
        return self._mesh

    def describe(self):
        return self.backing.describe()

    @property
    def is_mesh(self):
        return isinstance(self.backing, TriMesh)


def _checked(ball):
    """None, or the ball as (finite centre (3,), finite radius > 0); else
    InputError naming the ball."""
    if ball is None:
        return None
    return as_point(ball[0], "ball centre"), finite_in(ball[1], "ball radius", 0)


def sample_point(oracle, rng):
    """One area-uniform surface point with its oriented unit normal."""
    pts, normals = oracle.sample(rng, 1)
    return SurfacePoint(pts[0], normals[0])
