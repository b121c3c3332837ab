"""The annealer loop, energy sum and self-intersection test that
``minimize`` and ``surface.trimesh`` replaced.

``anneal`` is the former ``_anneal``, one loop that branched on a ``mode``
string ("energy": anneal the discrete energy at the fixed area
``area_target``; "area": anneal the area under ``energy_cap``).
``exhaustive_energy`` is the former discrete energy: ``eval_batch`` on one
stack of every 4-subset and a weight product gathered one column at a time.
``has_self_intersections`` is the former face-pair loop, which called
``edges_cross_tri`` once per pair of non-adjacent faces whose closed boxes
overlap.  ``tests/test_minimize.py`` pins the public annealers' states and
the array-based flag against them, and ``tests/test_kernel.py`` the
annealer's energy table against ``exhaustive_energy``.
"""

import itertools

import numpy as np

from menger_surf.geom import tri_areas
from menger_surf.integrand import IntegrandSpec, eval_batch
from menger_surf.minimize import (_ANNEAL_TAG, DiscreteEnergyConfig,
                                  OptimizerState, _EnergyTable,
                                  _lumped_weights, discrete_energy)
from menger_surf.rng import substream
from menger_surf.surface.trimesh import TriMesh


def anneal(mesh, p, iters, seed, mode, area_target=None, energy_cap=None):
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


def exhaustive_energy(mesh, p):
    verts, faces = mesh.vertices, mesh.faces
    combos = np.array(list(itertools.combinations(range(len(verts)), 4)))
    kp = eval_batch(IntegrandSpec(kind="menger"), verts[combos]) ** p
    w = _lumped_weights(tri_areas(verts[faces]), faces, len(verts))
    c0, c1, c2, c3 = combos.T
    return 24.0 * float(np.sum(w[c0] * w[c1] * w[c2] * w[c3] * kp))


def minimize_energy_area_cap(mesh, p, area_cap, iters, seed):
    target = min(mesh.total_area, float(area_cap))
    return anneal(mesh, p, int(iters), seed, "energy", area_target=target)


def minimize_area_energy_cap(mesh, p, energy_cap, iters, seed):
    return anneal(mesh, p, int(iters), seed, "area", energy_cap=float(energy_cap))


def has_self_intersections(mesh):
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
    for i, j in pairs:
        if edges_cross_tri(tri[i], tri[j]) or edges_cross_tri(tri[j], tri[i]):
            return True
    return False


def edges_cross_tri(tri_a, tri_b):
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
