"""Desk-scale constrained optimization of the discrete curvature energy.

The discrete energy lumps one third of each face area onto its vertices and
sums weight-products times integrand^p over vertex quadruples.  Both
variational problems run one simulated-annealing loop that moves one vertex
at a time and differs only in how it scores a state: the area-capped problem
re-projects to its area budget by uniform scaling (the energy of a scaled
mesh follows the exact homogeneity factor, so projection costs nothing), the
energy-capped problem rejects any state whose energy exceeds the cap.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geom import TETRA_CHUNK, InputError, finite_in, integer_in, tri_areas
from .integrand import IntegrandSpec, _ranked_block, _symmetric, eval_batch
from .rng import substream
from .surface.trimesh import TriMesh, has_self_intersections

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
    contribute 0).  Needs 4 to ``MAX_EXHAUSTIVE_VERTICES`` vertices.  The
    integrand runs through ``eval_batch``, ``TETRA_CHUNK`` quadruples at a
    time, and not through the annealer's rank-ordered rows, so this sum
    audits the annealer's table: both give the same bits.
    """
    verts = mesh.vertices
    cols, triples, _ = _combos(len(verts))
    kp = np.empty(len(cols[0]))
    block = np.empty((4, 3, min(len(kp), TETRA_CHUNK)))
    for s in range(0, len(kp), TETRA_CHUNK):
        P = np.stack([verts[c[s:s + TETRA_CHUNK]] for c in cols], axis=1)
        kp[s:s + len(P)] = eval_batch(_MENGER, P, block[..., :len(P)]) ** config.p
    w = _lumped_weights(tri_areas(verts[mesh.faces]), mesh.faces, len(verts))
    return _weighted_sum(w, kp, triples, cols[3])


# an annealer's table and discrete_energy share one vertex count; the tables
# of the two latest counts stay, 7.5 MB at 42 vertices and 42 MB at 64
@functools.lru_cache(maxsize=2)
def _combos(n):
    """The 4-subsets of range(n) as four index columns, in the order of
    ``itertools.combinations``; the 3-subsets as three columns plus the
    number of 4-subsets that each begins; and, for each vertex, the rows
    of the 4-subsets that hold it."""
    if n < 4:
        raise InputError(f"mesh: the discrete energy needs at least 4 "
                         f"vertices, got {n}")
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise InputError(f"mesh: vertex budget exceeded for exhaustive mode "
                         f"({n} > {MAX_EXHAUSTIVE_VERTICES})")
    quads, triples = _subsets(n, 4), _subsets(n, 3)
    return (tuple(quads.T.copy()), (*triples.T.copy(), n - 1 - triples[:, 2]),
            _rows_by_vertex(quads, n))


def _subsets(n, k):
    """The k-subsets of range(n) as rows, in the order of
    ``itertools.combinations``: each j-subset, in order, repeated once for
    every index above its last one, which it gains as its next column."""
    table = np.arange(n)[:, None]
    for _ in range(k - 1):
        last = table[:, -1]
        counts = n - 1 - last
        # row i of a run that starts at row first gains last + 1 + (i - first)
        shift = np.repeat(last + 1 - (np.cumsum(counts) - counts), counts)
        table = np.column_stack([np.repeat(table, counts, axis=0),
                                 np.arange(len(shift)) + shift])
    return table


def _weighted_sum(w, kp, triples, c3):
    """24 times the sum of w[c0] w[c1] w[c2] w[c3] kp over the quadruples.

    The rows of each 3-subset (c0, c1, c2) are contiguous, so its weight
    product is formed once and repeated over them; every row still
    multiplies in the order ((w0 w1) w2) w3 kp.
    """
    t0, t1, t2, reps = triples
    prod = np.repeat(w[t0] * w[t1] * w[t2], reps)
    prod *= w[c3]
    prod *= kp
    return 24.0 * float(np.sum(prod))


def _rows_by_vertex(table, n):
    """For each of n vertices, the ascending rows of an index table that hold it."""
    # vertex numbers of at most 16 bits sort by radix; a stable sort gives
    # the same order whatever the integer type
    flat = table.ravel().astype(np.min_scalar_type(n))
    order = np.argsort(flat, kind="stable")
    return np.split(order // table.shape[1], np.cumsum(np.bincount(flat, minlength=n))[:-1])


class _EnergyTable:
    """Exhaustive quadrature with incremental updates under vertex moves.

    The integrand rows are evaluated on rank-ordered blocks
    (``integrand._ranked_block``), ``TETRA_CHUNK`` rows at a time when the
    table is built.  A move re-evaluates only the rows of the quadruples
    that hold the moved vertex; the energy forms one weight product per
    3-subset and repeats it over the rows that the 3-subset begins.
    """

    def __init__(self, vertices, faces, p):
        self.p = float(p)
        self.verts = vertices.copy()
        self.faces = faces
        self.cols, self.triples, self.rows_of = _combos(len(vertices))
        n_rows = len(self.cols[0])
        self.block = np.empty((4, 3, max(len(self.rows_of[0]),
                                         min(n_rows, TETRA_CHUNK))))
        self.kp = np.empty(n_rows)
        for s in range(0, n_rows, TETRA_CHUNK):
            self.kp[s:s + TETRA_CHUNK] = self._values(
                [c[s:s + TETRA_CHUNK] for c in self.cols])
        self.face_areas = tri_areas(self.verts[faces])
        self.faces_of = _rows_by_vertex(faces, len(vertices))

    def _values(self, quads):
        """integrand^p of the quadruples whose vertex indices are the four
        arrays ``quads``."""
        block = self.block[..., :len(quads[0])]
        return _symmetric(_MENGER, _ranked_block(self.verts, quads, block)) ** self.p

    def area(self):
        return float(self.face_areas.sum())

    def energy(self):
        w = _lumped_weights(self.face_areas, self.faces, len(self.verts))
        return _weighted_sum(w, self.kp, self.triples, self.cols[3])

    def move(self, vi, new_pos):
        """Apply a vertex move; returns an undo closure."""
        rows = self.rows_of[vi]
        fids = self.faces_of[vi]
        old_pos = self.verts[vi].copy()
        old_kp = self.kp[rows]
        old_areas = self.face_areas[fids]
        self.verts[vi] = new_pos
        self.face_areas[fids] = tri_areas(self.verts[self.faces[fids]])
        self.kp[rows] = self._values([np.take(c, rows) for c in self.cols])

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
