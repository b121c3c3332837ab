"""Desk-scale constrained optimization of the discrete curvature energy.

The discrete energy lumps one third of each face area onto its vertices and
sums weight-products times integrand^p over vertex quadruples.  Simulated
annealing moves one vertex at a time; the area-capped variant re-projects to
its area budget by uniform scaling (the energy of a scaled mesh follows the
exact homogeneity factor, so projection costs nothing), the energy-capped
variant rejects any state whose energy exceeds the cap.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .geom import tri_areas
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
        if not self.p > 8.0:
            raise ValueError(f"p must exceed 8, got {self.p}")


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
        raise ValueError(f"the discrete energy needs at least 4 vertices, "
                         f"got {n}")
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise ValueError(f"vertex budget exceeded for exhaustive mode "
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


def _anneal(mesh, p, iters, seed, mode, area_target=None, energy_cap=None):
    config = DiscreteEnergyConfig(p=p)
    table = _EnergyTable(mesh.vertices, mesh.faces, p)
    n_verts = len(table.verts)
    sigma0 = 0.02 * mesh.mean_edge
    temperature = 1.0
    scale_exp = 8.0 - p  # energy of a lambda-scaled mesh is lambda^(8-p) E

    area = table.area()
    energy_raw = table.energy()
    if mode == "energy":
        s = np.sqrt(area_target / area)
        objective = s**scale_exp * energy_raw
        constraint = area_target
        tau0 = 0.002 * (objective + 1e-300)
    else:
        if energy_raw > energy_cap:
            raise ValueError("infeasible start: energy above the cap")
        objective = area
        constraint = energy_raw
        tau0 = 0.002 * (area + 1e-300)

    audit = [(0, objective, constraint, True)]
    best = objective
    accepted = 0

    for it in range(1, iters + 1):
        rng = substream(seed, _ANNEAL_TAG, it)
        vi = int(rng.integers(n_verts))
        step = rng.standard_normal(3) * (sigma0 * temperature)
        u = rng.random()

        undo = table.move(vi, table.verts[vi] + step)
        new_area = table.area()
        new_raw = table.energy()
        ok = True
        if mode == "energy":
            s = np.sqrt(area_target / new_area)
            new_obj = s**scale_exp * new_raw
            new_constraint = area_target
        else:
            new_obj = new_area
            new_constraint = new_raw
            ok = new_raw <= energy_cap
        if ok:
            delta = new_obj - objective
            tau = tau0 * temperature
            ok = delta <= 0.0 or u < np.exp(-delta / max(tau, 1e-300))
        if ok:
            objective = new_obj
            constraint = new_constraint
            best = min(best, objective)
            accepted += 1
        else:
            undo()
        audit.append((it, objective, constraint, ok))
        if it % 100 == 0:
            temperature *= 0.999

    # materialize the final state; in energy mode project exactly onto the
    # area target by uniform scaling about the vertex centroid, and re-sum
    # the energy of the scaled vertices; in area mode the vertices are the
    # table's own, whose energy it holds
    verts = table.verts
    if mode == "energy":
        s = np.sqrt(area_target / table.area())
        centroid = verts.mean(axis=0)
        verts = centroid + s * (verts - centroid)
    final = TriMesh(verts, mesh.faces)
    final_energy = (discrete_energy(final, config)
                    if mode == "energy" else table.energy())
    final_area = float(tri_areas(verts[mesh.faces]).sum())
    if mode == "energy":
        objective, constraint = final_energy, final_area
    else:
        objective, constraint = final_area, final_energy
    return OptimizerState(final, objective, constraint, temperature, iters,
                          min(best, objective) if mode == "energy" else best,
                          accepted, audit,
                          self_intersecting=has_self_intersections(final))


def minimize_energy_area_cap(mesh, p, area_cap, iters, seed):
    """Anneal the discrete energy at a fixed area budget min(area, cap).

    Growth lowers the energy (homogeneity degree 8 - p < 0), so the area
    constraint saturates; every state is projected onto the budget by uniform
    scaling, which multiplies the energy by the exact homogeneity factor.
    """
    if not area_cap > 0.0:
        raise ValueError("area cap must be positive")
    target = min(mesh.total_area, float(area_cap))
    return _anneal(mesh, p, int(iters), seed, "energy", area_target=target)


def minimize_area_energy_cap(mesh, p, energy_cap, iters, seed):
    """Anneal the mesh area, rejecting states above the energy cap."""
    return _anneal(mesh, p, int(iters), seed, "area", energy_cap=float(energy_cap))


# ---------------------------------------------------------------------------
# self-intersection report flag
# ---------------------------------------------------------------------------

def has_self_intersections(mesh):
    """True when a face edge pierces a non-adjacent face.

    Edge-through-triangle covers every transversal face/face crossing;
    exactly coplanar overlaps are not detected.  Report flag only.
    """
    tri = mesh.vertices[mesh.faces]
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    m = len(tri)
    pairs = []
    for i in range(m):
        overlap = np.all((lo[i] <= hi) & (lo <= hi[i]), axis=1)
        overlap[:i + 1] = False
        for j in np.nonzero(overlap)[0]:
            if len(set(mesh.faces[i]) & set(mesh.faces[j])) == 0:
                pairs.append((i, j))
    if not pairs:
        return False
    for i, j in pairs:
        if _edges_cross_tri(tri[i], tri[j]) or _edges_cross_tri(tri[j], tri[i]):
            return True
    return False


def _edges_cross_tri(tri_a, tri_b):
    v0 = tri_b[0]
    e1 = tri_b[1] - tri_b[0]
    e2 = tri_b[2] - tri_b[0]
    n = np.cross(e1, e2)
    gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
    det = np.linalg.det(gram)
    if det <= 0.0:
        return False
    inv = np.linalg.inv(gram)
    for k in range(3):
        a = tri_a[k]
        d = tri_a[(k + 1) % 3] - a
        den = n @ d
        if abs(den) < 1e-14 * (np.linalg.norm(n) * np.linalg.norm(d) + 1e-300):
            continue
        t = (n @ (v0 - a)) / den
        if not 0.0 < t < 1.0:
            continue
        w = a + t * d - v0
        uv = inv @ np.array([e1 @ w, e2 @ w])
        if uv[0] > 1e-12 and uv[1] > 1e-12 and uv.sum() < 1.0 - 1e-12:
            return True
    return False
