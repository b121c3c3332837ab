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
(k, 3).  The oracle reduces it to banded first hits (``band_min_hits``, a
shared origin), the sorted hit points of one segment (``segment_hits``, a
one-row per-ray origin, so that the rim probes of a search leave the face
view of its seed point in place) and, on meshes, the parity votes of the
inside test.

Every backing samples area-uniformly by ``sample(rng, n, ball=None)``.  A
ball (center, radius) changes no random draw, so the generator ends in the
same state: the sampler drops, before forming any point, the draws that
provably land farther than radius from center (up to a padding for rounding,
``geom.ball_reach``) and returns the other rows of ``sample(rng, n)``, bit for
bit and in draw order.  Callers that keep only the points of a patch apply
their own exact test to what comes back.

``sample_points(rng, n, ball=None)`` is the points-only path for callers that
need no normals (the Monte-Carlo estimators and the patch samples).  It makes
the same draws, leaves the generator in the same state and returns the rows
of ``sample(rng, n, ball)[0]`` bit for bit, but forms no normal: each backing
has one draw core that both paths share (``sampler.AreaSampler``), and the
oracle's ``sample_points`` never goes through its ``sample``.  Meshes look up
the face of each area draw in a guide table and form points one coordinate
column at a time from per-corner coordinate arrays.
"""

from typing import NamedTuple

import numpy as np

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
    extension.  A file that does not parse, or whose faces are all
    degenerate, raises ``MeshParseError``.
    """
    if format is None:
        format = str(path).rsplit(".", 1)[-1].lower()
    if format == "obj":
        vertices, faces = load_obj(path)
    elif format == "off":
        vertices, faces = load_off(path)
    else:
        raise ValueError(f"unknown mesh format {format!r}")
    try:
        return TriMesh(vertices, faces)
    except ValueError as exc:  # the parsers leave only "every face degenerate"
        raise MeshParseError(path, 1, str(exc)) from None


class SurfaceOracle:
    """Uniform surface abstraction over an analytic shape or a TriMesh."""

    def __init__(self, backing):
        self.backing = backing
        self.total_area = float(backing.total_area)
        if not self.total_area > 0.0:
            raise ValueError("surface has no area")
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
        radius), only the rows that can land in it (module docstring)."""
        return self.backing.sample(rng, n, ball)

    def sample_points(self, rng, n, ball=None):
        """The points of ``sample(rng, n, ball)``, bit for bit, without forming
        any normal (module docstring)."""
        return self.backing.sample_points(rng, n, ball)

    def ray_hits(self, origins, dirs, tmin, tmax):
        return self.backing.ray_hits(origins, dirs, tmin, tmax)

    def band_min_hits(self, origin, dirs, tmin, tmax):
        """Per-ray smallest hit parameter within [tmin, tmax] (inf for none).

        Hits below tmin do not occlude the band.
        """
        out = np.full(len(dirs), np.inf)
        ray, t = self.ray_hits(origin, dirs, tmin, tmax)
        np.minimum.at(out, ray, t)
        return out

    def segment_hits(self, a, b):
        """All intersection points of the segment [a, b], sorted along it.

        Hits closer than 1e-12 in the segment parameter count once (a ray
        through a shared mesh edge meets both faces).
        """
        a = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a
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
        return self.backing.normal_at(p)

    def surface_distance(self, p):
        return self.backing.surface_distance(p)

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


def sample_point(oracle, rng):
    """One area-uniform surface point with its oriented unit normal."""
    pts, normals = oracle.sample(rng, 1)
    return SurfacePoint(pts[0], normals[0])
