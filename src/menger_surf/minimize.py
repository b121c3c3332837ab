"""Desk-scale constrained optimization of the discrete curvature energy.

The discrete energy lumps one third of each face area onto its vertices and
sums weight-products times integrand^p over vertex quadruples.  Both
variational problems run one simulated-annealing loop that moves one vertex
at a time and differs only in how it scores a state: the area-capped problem
re-projects to its area budget by uniform scaling (the energy of a scaled
mesh follows the exact homogeneity factor, so projection costs nothing), the
energy-capped problem rejects any state whose energy exceeds the cap.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geom import InputError, finite_in, integer_in, tri_areas
from .integrand import IntegrandSpec, eval_batch
from .rng import substream
from .surface.trimesh import TriMesh

_ANNEAL_TAG = 0x414E4C31
_MENGER = IntegrandSpec(kind="menger")

MAX_EXHAUSTIVE_VERTICES = 64


@dataclass
class DiscreteEnergyConfig:
    p: float

    def __post_init__(self):
        finite_in(self.p, "p", 8)


@dataclass
class OptimizerState:
    mesh: TriMesh
    objective: float
    constraint_value: float
    temperature: float
    iteration: int
    best_objective: float
    accepted_moves: int
    audit: list = field(repr=False)
    self_intersecting: bool = False


def _lumped_weights(face_areas, faces, n_verts):
    """Lumped vertex weights: one third of each incident face area."""
    w = np.zeros(n_verts)
    np.add.at(w, faces.ravel(), np.repeat(face_areas / 3.0, 3))
    return w


def discrete_energy(mesh, config):
    """Quadrature of integrand^p over vertex quadruples with lumped weights.

    Sums all unordered quadruples times the 24 orderings (the integrand is
    permutation symmetric; quadruples with a repeated vertex are coplanar and
    contribute 0).  Needs 4 to ``MAX_EXHAUSTIVE_VERTICES`` vertices.
    """
    return _EnergyTable(mesh.vertices, mesh.faces, config.p).energy()


_combo_cache = {}


def _combos(n):
    """The 4-subsets of range(n) as rows, their four index columns and, for
    each vertex, the rows that contain it."""
    if n < 4:
        raise InputError(f"mesh: the discrete energy needs at least 4 "
                         f"vertices, got {n}")
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise InputError(f"mesh: vertex budget exceeded for exhaustive mode "
                         f"({n} > {MAX_EXHAUSTIVE_VERTICES})")
    if n not in _combo_cache:
        combos = np.array(list(itertools.combinations(range(n), 4)), dtype=np.int64)
        _combo_cache[n] = combos, tuple(combos.T.copy()), _rows_by_vertex(combos, n)
    return _combo_cache[n]


def _weight_products(w, cols):
    """w[c0] w[c1] w[c2] w[c3] per quadruple, the bits of w[combos].prod(axis=1)."""
    c0, c1, c2, c3 = cols
    return w[c0] * w[c1] * w[c2] * w[c3]


def _rows_by_vertex(table, n):
    """For each of n vertices, the ascending rows of an index table that hold it."""
    flat = table.ravel()
    order = np.argsort(flat, kind="stable")
    return np.split(order // table.shape[1], np.cumsum(np.bincount(flat, minlength=n))[:-1])


class _EnergyTable:
    """Exhaustive quadrature with incremental updates under vertex moves."""

    def __init__(self, vertices, faces, p):
        self.p = float(p)
        self.verts = vertices.copy()
        self.faces = faces
        self.combos, self.combo_cols, self.rows_of = _combos(len(vertices))
        self.kp = eval_batch(_MENGER, np.take(self.verts, self.combos, axis=0)) ** self.p
        self.face_areas = tri_areas(self.verts[faces])
        self.faces_of = _rows_by_vertex(faces, len(vertices))

    def area(self):
        return float(self.face_areas.sum())

    def energy(self):
        w = _lumped_weights(self.face_areas, self.faces, len(self.verts))
        return 24.0 * float(np.sum(_weight_products(w, self.combo_cols) * self.kp))

    def move(self, vi, new_pos):
        """Apply a vertex move; returns an undo closure."""
        rows = self.rows_of[vi]
        fids = self.faces_of[vi]
        old_pos = self.verts[vi].copy()
        old_kp = self.kp[rows].copy()
        old_areas = self.face_areas[fids].copy()
        self.verts[vi] = new_pos
        self.face_areas[fids] = tri_areas(self.verts[self.faces[fids]])
        quads = np.take(self.combos, rows, axis=0)
        self.kp[rows] = eval_batch(_MENGER, np.take(self.verts, quads, axis=0)) ** self.p

        def undo():
            self.verts[vi] = old_pos
            self.kp[rows] = old_kp
            self.face_areas[fids] = old_areas
        return undo


def _anneal(mesh, p, iters, seed, score, finish):
    """Anneal one vertex at a time.  ``score(area, energy)`` gives a state's
    (objective, constraint value, feasible); ``finish(table)`` gives the
    final (mesh, objective, constraint value)."""
    iters = integer_in(iters, "iters", 0)
    seed = integer_in(seed, "seed", -math.inf)  # iters = 0 never draws
    table = _EnergyTable(mesh.vertices, mesh.faces, p)
    sigma0 = 0.02 * mesh.mean_edge
    temperature = 1.0

    objective, constraint, feasible = score(table.area(), table.energy())
    if not feasible:  # the start mesh and the cap admit no state
        raise InputError("infeasible start: energy above energy_cap")
    tau0 = 0.002 * (objective + 1e-300)
    audit = [(0, objective, constraint, True)]
    best, accepted = objective, 0

    for it in range(1, iters + 1):
        rng = substream(seed, _ANNEAL_TAG, it)
        vi = int(rng.integers(len(table.verts)))
        step = rng.standard_normal(3) * (sigma0 * temperature)
        u = rng.random()

        undo = table.move(vi, table.verts[vi] + step)
        new_obj, new_constraint, ok = score(table.area(), table.energy())
        if ok:
            delta = new_obj - objective
            ok = delta <= 0.0 or u < np.exp(-delta / max(tau0 * temperature, 1e-300))
        if ok:
            objective, constraint = new_obj, new_constraint
            best = min(best, objective)
            accepted += 1
        else:
            undo()
        audit.append((it, objective, constraint, ok))
        if it % 100 == 0:
            temperature *= 0.999

    final, objective, constraint = finish(table)
    return OptimizerState(final, objective, constraint, temperature, iters,
                          min(best, objective), accepted, audit,
                          self_intersecting=has_self_intersections(final))


def minimize_energy_area_cap(mesh, p, area_cap, iters, seed):
    """Anneal the discrete energy at a fixed area budget min(area, cap).

    Growth lowers the energy (homogeneity degree 8 - p < 0), so the area
    constraint saturates; every state is projected onto the budget by uniform
    scaling, which multiplies the energy by the exact homogeneity factor.
    The final state is scaled about its vertex centroid and re-summed.
    """
    area_cap = finite_in(area_cap, "area_cap", 0)
    config = DiscreteEnergyConfig(p=p)
    target = min(mesh.total_area, area_cap)

    def score(area, energy):
        return np.sqrt(target / area) ** (8.0 - p) * energy, target, True

    def finish(table):
        s = np.sqrt(target / table.area())
        centroid = table.verts.mean(axis=0)
        final = TriMesh(centroid + s * (table.verts - centroid), mesh.faces)
        return final, discrete_energy(final, config), float(final.face_areas.sum())

    return _anneal(mesh, p, iters, seed, score, finish)


def minimize_area_energy_cap(mesh, p, energy_cap, iters, seed):
    """Anneal the mesh area, rejecting states above the energy cap."""
    DiscreteEnergyConfig(p=p)
    cap = finite_in(energy_cap, "energy_cap", 0, ends="[)")

    def score(area, energy):
        return area, energy, energy <= cap

    def finish(table):
        final = TriMesh(table.verts, mesh.faces)
        return final, float(final.face_areas.sum()), table.energy()

    return _anneal(mesh, p, iters, seed, score, finish)


_PAIR_ROWS = 256  # faces per row block of the candidate-pair search


def has_self_intersections(mesh):
    """True when a face edge crosses the inside of a face it shares no vertex
    with, tested on the pairs whose closed boxes overlap, a row block at a
    time.  This covers every transversal face/face crossing; exactly coplanar
    overlaps are not detected.  Report flag only."""
    faces = mesh.faces
    tri = mesh.vertices[faces]
    lo, hi = tri.min(axis=1).T, tri.max(axis=1).T
    m = len(tri)
    for start in range(0, m, _PAIR_ROWS):
        rows = np.arange(start, min(start + _PAIR_ROWS, m))
        near = rows[:, None] < np.arange(start, m)
        for k in range(3):
            near &= lo[k, rows, None] <= hi[k, start:]
            near &= lo[k, start:] <= hi[k, rows, None]
        i, j = np.argwhere(near).T + start
        apart = ~(faces[i, :, None] == faces[j, None, :]).any(axis=(1, 2))
        i, j = i[apart], j[apart]
        if (_edges_cross(tri[i], tri[j]) | _edges_cross(tri[j], tri[i])).any():
            return True
    return False


def _edges_cross(a, b):
    """Whether an edge of each triangle of stack ``a`` crosses the inside of
    the matching triangle of ``b`` (Moller and Trumbore 1997): 0 < t < 1
    along the edge and both barycentrics above 1e-12 with a sum below
    1 - 1e-12.  Edges nearly parallel to the plane of ``b`` are skipped."""
    e1, e2 = b[:, 1:2] - b[:, :1], b[:, 2:] - b[:, :1]
    d = a[:, [1, 2, 0]] - a  # edge k runs from corner k to corner k + 1
    s = a - b[:, :1]
    pvec, q = np.cross(d, e2), np.cross(s, e1)
    den = np.sum(e1 * pvec, axis=2)  # -n.d for the face normal n = e1 x e2
    slack = np.linalg.norm(np.cross(e1, e2), axis=2) * np.linalg.norm(d, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v, t = (np.sum(x * y, axis=2) / den for x, y in ((s, pvec), (d, q), (e2, q)))
        hit = (0.0 < t) & (t < 1.0) & (u > 1e-12) & (v > 1e-12) & (u + v < 1.0 - 1e-12)
    return (hit & (np.abs(den) >= 1e-14 * (slack + 1e-300))).any(axis=1)
