"""The four study workloads: seeded inputs, timed set-up, gated operations.

Each workload has three steps.  ``inputs(rng, workdir)`` makes everything
that depends on the seed and is not timed.  ``setup(inputs, span)`` builds,
loads and tessellates the surfaces; it is what ``setup_s`` times.
``ops(env, threads)`` returns the operations of one round, each a call into
the package's public functions plus a check of its result.  Checks run
untimed and return a failure message, or None.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from menger_surf import analysis, energy, geom, goodtetra, minimize, surface
from menger_surf.integrand import IntegrandSpec
from menger_surf.surface import SurfaceOracle, SurfacePoint, TriMesh, shapes

MENGER = IntegrandSpec(kind="menger")
CIRCUM = IntegrandSpec(kind="circumsphere")


class Op(NamedTuple):
    name: str
    call: Callable
    check: Callable


def _finite(*values):
    return all(math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# mc-energy: quadruple Monte-Carlo over analytic and mesh surfaces
# ---------------------------------------------------------------------------

MC_SAMPLES = 1 << 15  # 8 chunks of rng.CHUNK, so both workers get work
MC_RUNS = (("menger", MENGER, 8.0), ("circumsphere", CIRCUM, 4.0))


def mc_inputs(rng, workdir):
    mesh = shapes.icosphere(4)
    path = workdir / "icosphere4.obj"
    surface.save_obj(path, mesh.vertices, mesh.faces)
    return {"obj": path, "seed": int(rng.integers(2**62))}


def mc_setup(inp, span):
    return {"seed": inp["seed"],
            "surfaces": {"sphere": SurfaceOracle.sphere(1.0),
                         "torus": SurfaceOracle.torus(2.0, 1.0),
                         "icosphere4": SurfaceOracle.from_mesh(
                             surface.load_mesh(inp["obj"]))}}


def mc_ops(env, threads):
    sphere_exact = (4.0 * np.pi) ** 4
    first = {}

    def check(name, est):
        if not (_finite(est.value, est.std_error) and est.value > 0.0):
            return f"non-finite or non-positive estimate {est.value}"
        if name == "sphere/circumsphere":
            if abs(est.value - sphere_exact) > 4.0 * est.std_error:
                return f"sphere identity off: {est.value} vs {sphere_exact}"
        got = (est.value, est.std_error)
        if first.setdefault(name, got) != got:
            return f"rerun with the same seed changed the estimate: {got}"
        return None

    ops = []
    for sname, oracle in env["surfaces"].items():
        for kname, spec, p in MC_RUNS:
            name = f"{sname}/{kname}"
            ops.append(Op(
                name,
                lambda o=oracle, s=spec, p=p: energy.estimate_mp(
                    o, s, p, MC_SAMPLES, env["seed"], threads=threads),
                lambda est, name=name: check(name, est)))
    return ops


# ---------------------------------------------------------------------------
# goodtetra: cone-growing search plus projection witness
# ---------------------------------------------------------------------------

ETA_FLOOR = 1.0 / 100.0 - 0.005
WITNESS_RAYS = 800  # the goodtetra runner's --proj-rays default
ICO_SEEDS = 2
DOWN = np.array([0.0, 0.0, -1.0])

# Kinked boxes (n = 48) and the case each must end in.  The geometry stays
# fixed across seeds because it pins the case labels.
KINK_BOXES = (
    ("central_hit_a", dict(neg=(100.0, 0.0))),
    ("central_hit_b", dict(neg=(0.3, 60.0))),
    ("wide_pair", dict()),
    ("antipodal_3a", dict(pos=(0.30, 77.0))),
    ("antipodal_3b", dict(pos=(0.45, 77.0))),
)
WIDE_KINK_ITERATIONS = 3


def kink_box(L=4.0, depth=4.0, n=48, neg=(0.3, 80.0), pos=None):
    """Closed box, flat at the origin, with steep roofs a little way off.

    Vertex and face order match the kinked box of the test suite.
    """
    xs = np.linspace(-L, L, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z = np.maximum(0.0, -X - neg[0]) * np.tan(np.radians(neg[1]))
    if pos is not None:
        Z = np.maximum(Z, np.maximum(0.0, X - pos[0]) * np.tan(np.radians(pos[1])))
    top = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=-1)
    bot = np.stack([X.ravel(), Y.ravel(), np.full(X.size, -depth)], axis=-1)
    off = len(top)

    def vid(i, j, layer):
        return layer * off + i * (n + 1) + j

    i, j = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n),
                                           indexing="ij"))
    quad = [[vid(i, j, s), vid(i + 1, j, s), vid(i + 1, j + 1, s),
             vid(i, j + 1, s)] for s in (0, 1)]
    (a, b, c, d), (e, f, g, h) = quad
    cells = np.stack([np.stack(t, axis=-1) for t in
                      ((a, b, c), (a, c, d), (e, g, f), (e, h, g))], axis=1)
    k = np.arange(n)
    sides = np.array([
        (vid(0, k, 0), vid(0, k + 1, 0), vid(0, k + 1, 1)),
        (vid(0, k, 0), vid(0, k + 1, 1), vid(0, k, 1)),
        (vid(n, k, 0), vid(n, k, 1), vid(n, k + 1, 1)),
        (vid(n, k, 0), vid(n, k + 1, 1), vid(n, k + 1, 0)),
        (vid(k, 0, 0), vid(k, 0, 1), vid(k + 1, 0, 1)),
        (vid(k, 0, 0), vid(k + 1, 0, 1), vid(k + 1, 0, 0)),
        (vid(k, n, 0), vid(k + 1, n, 0), vid(k + 1, n, 1)),
        (vid(k, n, 0), vid(k + 1, n, 1), vid(k, n, 1)),
    ]).transpose(2, 0, 1)
    faces = np.concatenate([cells.reshape(-1, 3), sides.reshape(-1, 3)])
    return np.concatenate([top, bot]), faces.astype(np.int64)


def goodtetra_inputs(rng, workdir):
    n_ico = 10 * 4**4 + 2  # vertex count of icosphere(4)
    u, v = rng.random(2) * 2.0 * np.pi
    R, r = 2.0, 1.0
    outward = np.array([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)])
    ring = np.array([R * np.cos(u), R * np.sin(u), 0.0])
    return {"ico_vertices": [int(x) for x in
                             rng.choice(n_ico, ICO_SEEDS, replace=False)],
            "torus_seed": SurfacePoint(ring + r * outward, -outward),
            "witness_seed": int(rng.integers(2**62)),
            "kinks": [(label, kink_box(**kw)) for label, kw in KINK_BOXES]}


def goodtetra_setup(inp, span):
    ico = span("surface.build", shapes.icosphere, 4)
    kinks = [(label, span("surface.build", TriMesh, *arrays))
             for label, arrays in inp["kinks"]]
    capsule = SurfaceOracle.capsule(10.0, 0.2)
    searches = [(f"kink/{label}", SurfaceOracle.from_mesh(mesh),
                 SurfacePoint(np.zeros(3), DOWN), label)
                for label, mesh in kinks]
    ico_oracle = SurfaceOracle.from_mesh(ico)
    searches += [(f"icosphere4/v{vi}", ico_oracle,
                  SurfacePoint(ico.vertices[vi], ico.vertex_normals[vi]), None)
                 for vi in inp["ico_vertices"]]
    searches.append(("torus", SurfaceOracle.torus(2.0, 1.0), inp["torus_seed"],
                     None))
    searches.append(("capsule", capsule,
                     SurfacePoint(capsule.backing.tip(), DOWN), None))
    return {"searches": searches, "witness_seed": inp["witness_seed"]}


def _search_and_witness(oracle, seed_point, witness_seed):
    res = goodtetra.find_good_tetra(oracle, seed_point)
    frac = goodtetra.verify_projection(
        oracle, res.vertices[0], res.stopping_distance / 2.0,
        res.witness_plane_normal, n_rays=WITNESS_RAYS, seed=witness_seed)
    return res, frac


def goodtetra_ops(env, threads):
    def check(name, expected, out):
        res, frac = out
        if not geom.classify_voluminous(res.vertices, ETA_FLOOR,
                                        res.stopping_distance):
            return "tetrahedron is not voluminous"
        if frac < 0.99:
            return f"projection fraction {frac:.3f} < 0.99"
        if expected is not None and res.case_label != expected:
            return f"case {res.case_label}, expected {expected}"
        if expected == "wide_pair" and res.iterations != WIDE_KINK_ITERATIONS:
            return f"wide_pair after {res.iterations} iterations"
        if name == "capsule" and res.stopping_distance > 1.0:
            return f"capsule stopping distance {res.stopping_distance}"
        return None

    return [Op(name, lambda o=oracle, sp=sp: _search_and_witness(
                   o, sp, env["witness_seed"]),
               lambda out, name=name, exp=expected: check(name, exp, out))
            for name, oracle, sp, expected in env["searches"]]


# ---------------------------------------------------------------------------
# anneal: curvature-constrained simulated annealing
# ---------------------------------------------------------------------------

ANNEAL_P = 9.0
ENERGY_ITERS = 150
AREA_ITERS = 100


def anneal_inputs(rng, workdir):
    return {"radial": 1.0 + 0.05 * rng.standard_normal((10 * 4 + 2, 1)),
            "seed": int(rng.integers(2**62)),
            "area_seed": int(rng.integers(2**62))}


def anneal_setup(inp, span):
    base = span("surface.build", shapes.icosphere, 1)
    noisy = span("surface.build", TriMesh, base.vertices * inp["radial"],
                 base.faces)
    ell = span("surface.build", shapes.ellipsoid, 1.3, 1.0, 0.8, 1)
    return {"noisy": noisy, "ellipsoid": ell, "seed": inp["seed"],
            "area_seed": inp["area_seed"]}


def anneal_ops(env, threads):
    cfg = minimize.DiscreteEnergyConfig(p=ANNEAL_P)
    noisy, ell = env["noisy"], env["ellipsoid"]
    target = noisy.total_area
    start = minimize.discrete_energy(noisy, cfg)
    cap = 3.0 * minimize.discrete_energy(ell, cfg)

    def check_energy(st):
        if not st.objective < start:
            return f"energy did not drop: {st.objective} >= {start}"
        if abs(st.mesh.total_area - target) > 1e-6 * target:
            return f"area left its budget: {st.mesh.total_area} vs {target}"
        if minimize.discrete_energy(st.mesh, cfg) != st.objective:
            return "reported objective differs from the final mesh energy"
        return None

    def check_area(st):
        # No check that the area drops: at 100 iterations this annealer is
        # close to a random walk (9 in 10 moves accepted), and on some seeds
        # it never gets below its start (perfbench/README.md).
        accepted = [ob for _, ob, _, acc in st.audit if acc]
        if st.best_objective != min(accepted):
            return f"best area {st.best_objective} is not the least accepted"
        if any(cv > cap * (1.0 + 1e-6) for _, _, cv, acc in st.audit if acc):
            return "an accepted state broke the energy cap"
        if minimize.discrete_energy(st.mesh, cfg) != st.constraint_value:
            return "reported energy differs from the final mesh energy"
        return None

    return [
        Op("noisy-icosphere/energy-at-area",
           lambda: minimize.minimize_energy_area_cap(
               noisy, ANNEAL_P, target, ENERGY_ITERS, env["seed"]),
           check_energy),
        Op("ellipsoid/area-at-energy",
           lambda: minimize.minimize_area_energy_cap(
               ell, ANNEAL_P, cap, AREA_ITERS, env["area_seed"]),
           check_area),
    ]


ANNEAL_ITERS_PER_ROUND = ENERGY_ITERS + AREA_ITERS


# ---------------------------------------------------------------------------
# patch-diagnostics: local energy, density, beta numbers, normal oscillation
# ---------------------------------------------------------------------------

PATCH_POINTS = {"sphere": np.array([0.0, 0.0, 1.0]),
                "torus": np.array([3.0, 0.0, 0.0])}
LOCAL_RADIUS = 0.5
LOCAL_SAMPLES = 5000
DENSITY_RADIUS = 0.5
BETA_RADIUS = 0.2
BETA_POINTS = 4000  # the beta runner's --patch-samples default
OSC_SCALES = (0.05, 0.1, 0.2, 0.4)
OSC_PAIRS = 400  # the oscillation runner's --pairs default


def patch_inputs(rng, workdir):
    return {"seeds": [int(s) for s in rng.integers(2**62, size=3)]}


def patch_setup(inp, span):
    surfaces = {"sphere": SurfaceOracle.sphere(1.0),
                "torus": SurfaceOracle.torus(2.0, 1.0)}
    # Cached on the shape; density_quotient reuses it.  Only the sphere gets a
    # density op: the torus tessellation is a ~10 s TriMesh build, which would
    # add ~20 s of set-up to every run.
    surfaces["sphere"].tessellate()
    return {"surfaces": surfaces, "seeds": inp["seeds"]}


def patch_ops(env, threads):
    s_local, s_beta, s_osc = env["seeds"]

    def check_local(est):
        if not (_finite(est.value, est.std_error) and est.value > 0.0):
            return f"local energy {est.value}"
        if est.n_samples != LOCAL_SAMPLES:
            return f"local energy used {est.n_samples} quadruples"
        return None

    def check_density(rep):
        if not (_finite(rep.quotient) and rep.passes_lower_bound):
            return f"density quotient {rep.quotient}"
        # error_bound bounds the patch area, so on the quotient (area / r^2)
        # it becomes error_bound / r^2
        exact = np.pi * DENSITY_RADIUS**2  # cap area cut by a chordal ball
        if abs(rep.patch_area - exact) > rep.error_bound:
            return (f"sphere patch area {rep.patch_area} is not within "
                    f"{rep.error_bound} of {exact}")
        return None

    def check_beta(rep):
        return None if _finite(rep.beta) and rep.beta >= 0.0 else f"beta {rep.beta}"

    def check_osc(profile):
        bad = [o for _, o in profile if not (_finite(o) and o >= 0.0)]
        return f"oscillation values {bad}" if bad else None

    ops = []
    for name, oracle in env["surfaces"].items():
        x = PATCH_POINTS[name]
        ops.append(
            Op(f"{name}/local_energy",
               lambda o=oracle, x=x: energy.local_energy(
                   o, x, LOCAL_RADIUS, MENGER, 8.0, LOCAL_SAMPLES, s_local,
                   threads=threads),
               check_local))
        if name == "sphere":
            ops.append(
                Op(f"{name}/density",
                   lambda o=oracle, x=x: analysis.density_quotient(
                       o, x, DENSITY_RADIUS),
                   check_density))
        ops += [
            Op(f"{name}/beta",
               lambda o=oracle, x=x: analysis.beta_number(
                   o, x, BETA_RADIUS, BETA_POINTS, 1, seed=s_beta),
               check_beta),
            Op(f"{name}/oscillation",
               lambda o=oracle, x=x: analysis.normal_oscillation_profile(
                   o, x, OSC_SCALES, OSC_PAIRS, seed=s_osc),
               check_osc),
        ]
    return ops


class Workload(NamedTuple):
    inputs: Callable
    setup: Callable
    ops: Callable


WORKLOADS = {
    "mc-energy": Workload(mc_inputs, mc_setup, mc_ops),
    "goodtetra": Workload(goodtetra_inputs, goodtetra_setup, goodtetra_ops),
    "anneal": Workload(anneal_inputs, anneal_setup, anneal_ops),
    "patch-diagnostics": Workload(patch_inputs, patch_setup, patch_ops),
}
