"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not calibrated at run time.
"""

import json
import time

import numpy as np
import pytest

from conftest import random_tetrahedra, voluminous_tetrahedra, wide_base_tetrahedra
from kernel_oracle import menger_cross_form_batch
from menger_surf import analysis, cli, energy, geom, goodtetra, minimize
from menger_surf.integrand import IntegrandSpec, eval_batch, lemma_bounds
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, SurfacePoint, TriMesh, save_obj, shapes

MENGER = IntegrandSpec(kind="menger")
CIRCUM = IntegrandSpec(kind="circumsphere")


def report(num, name, detail=""):
    print(f"ACCEPTANCE {num:2d} {name}: PASS {detail}")


def test_01_circumsphere_cross_validation():
    rng = substream(101)
    pts = random_tetrahedra(rng, 100_000)
    r_formula, coplanar = geom.circumsphere_radius_batch(pts)
    assert not coplanar.any()
    # independent route: batched equidistant-center solve
    A = 2.0 * (pts[:, 1:] - pts[:, :1])
    b = (np.einsum("nij,nij->ni", pts[:, 1:], pts[:, 1:])
         - np.einsum("nj,nj->n", pts[:, 0], pts[:, 0])[:, None])
    centers = np.linalg.solve(A, b[..., None])[..., 0]
    r_solve = np.linalg.norm(centers - pts[:, 0], axis=1)
    rel = np.abs(r_formula - r_solve) / r_solve
    assert rel.max() <= 1e-10
    report(1, "circumsphere formula vs equidistant solve",
           f"(max rel dev {rel.max():.2e} over 1e5)")


def test_02_integrand_algebra():
    import itertools
    rng = substream(102)
    pts = random_tetrahedra(rng, 100_000)
    direct = eval_batch(MENGER, pts)
    cross = menger_cross_form_batch(pts)
    rel = np.abs(direct - cross) / np.maximum(direct, 1e-300)
    assert rel.max() <= 1e-12
    for perm in itertools.permutations(range(4)):
        vals = eval_batch(MENGER, pts[:, perm])
        prel = np.abs(vals - direct) / np.maximum(direct, 1e-300)
        assert prel.max() <= 1e-12
    lam = rng.uniform(0.1, 10.0, len(pts))
    scaled = eval_batch(MENGER, pts * lam[:, None, None])
    srel = np.abs(scaled - direct / lam) / np.maximum(direct / lam, 1e-300)
    assert srel.max() <= 1e-10
    report(2, "menger forms agree, S4 symmetric, homogeneous of degree -1")


def test_03_lemma_lower_bounds():
    rng = substream(103)
    theta, d = 0.6, 1.0
    quads = voluminous_tetrahedra(rng, 10_000, theta, d)
    vals = eval_batch(MENGER, quads)
    bound = lemma_bounds(theta, 1.0, d).voluminous_bound
    violations = int((vals <= bound).sum())
    kappa = 0.4
    wide = wide_base_tetrahedra(rng, 10_000, theta, kappa, d)
    wvals = eval_batch(MENGER, wide)
    wbound = lemma_bounds(theta, kappa, d).wide_bound
    violations_w = int((wvals <= wbound).sum())
    assert violations == 0 and violations_w == 0
    report(3, "voluminous and wide-base lower bounds",
           f"(0 violations in 2x1e4; margins x{vals.min() / bound:.1f}, "
           f"x{wvals.min() / wbound:.1f})")


def test_04_height_sandwich_and_boundedness(unit_sphere, torus_2_1):
    rng = substream(104)
    pts = random_tetrahedra(rng, 100_000)
    vals = eval_batch(MENGER, pts)
    _, _, diam, hmin, _ = geom.tetra_quantities(pts)
    ratio = hmin / diam**2
    assert int((vals < ratio / 12.0 - 1e-15).sum()) == 0
    assert int((vals > ratio / 3.0 + 1e-15).sum()) == 0
    sups = {}
    for name, oracle in (("sphere", unit_sphere), ("torus", torus_2_1)):
        quads = oracle.sample_points(substream(104, name == "torus"),
                                     4_000_000).reshape(1_000_000, 4, 3)
        v = eval_batch(MENGER, quads)
        assert np.isfinite(v).all()
        sups[name] = float(v.max())
        assert sups[name] < 10.0
    report(4, "sandwich bound and smooth-surface boundedness",
           f"(sups {sups['sphere']:.3f}, {sups['torus']:.3f} < 10)")


def test_05_circumsphere_relation_corrected_direction():
    rng = substream(105)
    pts = random_tetrahedra(rng, 100_000)
    vals = eval_batch(MENGER, pts)
    radius, coplanar = geom.circumsphere_radius_batch(pts)
    assert not coplanar.any()
    violations = int((vals > 1.0 / (6.0 * radius) + 1e-13).sum())
    assert violations == 0
    # the printed reversed inequality fails already on the regular tetrahedron
    reg = np.array([[0, 0, 0], [1, 0, 0],
                    [0.5, np.sqrt(3) / 2, 0],
                    [0.5, np.sqrt(3) / 6, np.sqrt(2.0 / 3.0)]])
    k_reg = float(eval_batch(MENGER, reg[None])[0])
    bound_reg = 1.0 / (6.0 * geom.circumsphere_radius(reg))
    assert abs(k_reg - 0.0680) < 1e-3 and abs(bound_reg - 0.2722) < 1e-3
    assert k_reg < bound_reg
    report(5, "integrand <= 1/(6 circumradius)",
           f"(0 violations in 1e5; regular tet {k_reg:.4f} < {bound_reg:.4f})")


def test_06_exact_sphere_identity(unit_sphere):
    expect = (4.0 * np.pi) ** 4
    for p, n in ((2.0, 1000), (4.0, 20_000), (8.0, 5000), (11.5, 1000)):
        est = energy.estimate_mp(unit_sphere, CIRCUM, p, n, seed=106)
        assert abs(est.value - expect) <= 1e-9 * expect
        assert est.std_error <= 1e-10 * expect
    report(6, "unit-sphere circumsphere energy",
           f"(= (4 pi)^4 = {expect:.2f}, zero variance)")


def test_07_scaling_laws():
    rows = energy.scaling_study(MENGER, 8.0, [0.5, 1.0, 2.0, 4.0],
                                1_000_000, seed=107)
    base = rows[0]
    for row in rows[1:]:
        # at p = 8 the normalized column is the raw estimate, so the combined
        # error is the plain quadrature of the two standard errors
        sigma = np.hypot(base.estimate.std_error, row.estimate.std_error)
        assert abs(row.normalized - base.normalized) <= 3.0 * sigma
    rows10 = energy.scaling_study(MENGER, 10.0, [1.0, 2.0], 1_000_000,
                                  seed=108)
    v1, v2 = rows10[0].estimate, rows10[1].estimate
    ratio = v2.value / v1.value
    sigma = ratio * np.hypot(v1.std_error / v1.value, v2.std_error / v2.value)
    assert abs(ratio - 0.25) <= 3.0 * sigma
    report(7, "p=8 scale invariance and p=10 ratio",
           f"(normalized spread ok; ratio {ratio:.4f} ~ 0.25)")


def test_08_ahlfors_density(unit_sphere, icosphere4):
    x = unit_sphere.tessellate().vertices[0]
    rep = analysis.density_quotient(unit_sphere, x, 0.5, depth=8)
    assert abs(rep.quotient - np.pi) <= 0.01 * np.pi
    assert rep.quotient > np.pi / 2.0
    oracle = SurfaceOracle.from_mesh(icosphere4)
    rep_mesh = analysis.density_quotient(oracle, icosphere4.vertices[0],
                                         0.5, depth=8)
    assert abs(rep_mesh.quotient - np.pi) <= 0.03 * np.pi
    assert rep_mesh.quotient > np.pi / 2.0
    report(8, "density quotient = pi at R=0.5",
           f"(analytic {rep.quotient:.4f}, mesh {rep_mesh.quotient:.4f})")


def test_09_beta_decay(unit_sphere, flat_patch):
    oracle = SurfaceOracle.from_mesh(flat_patch)
    verts = flat_patch.vertices
    center = verts[int(np.argmin(np.einsum("ij,ij->i", verts, verts)))]
    plane_beta = analysis.beta_number(oracle, center, 0.5, 2000, 1, seed=109).beta
    assert plane_beta <= 1e-6
    x = np.array([0.0, 0.0, 1.0])
    radii = (0.4, 0.2, 0.1, 0.05)
    betas = []
    for r in radii:
        b = analysis.beta_number(unit_sphere, x, r, 4000, 1, seed=109).beta
        assert b <= r / 2.0 + 0.01
        betas.append(b)
    fit = analysis.holder_exponent_fit(list(zip(radii, betas)))
    assert abs(fit.exponent - 1.0) <= 0.15
    report(9, "beta numbers: plane flat, sphere decay",
           f"(plane {plane_beta:.1e}; slope {fit.exponent:.3f})")


def test_10_oscillation_exponents(unit_sphere):
    x = np.array([0.0, 0.0, 1.0])
    prof = analysis.normal_oscillation_profile(
        unit_sphere, x, [0.05, 0.1, 0.2, 0.4], 400, seed=110)
    fit = analysis.holder_exponent_fit(prof)
    assert abs(fit.exponent - 1.0) <= 0.1
    for p in (9.0, 10.0, 16.0, 24.0):
        lam = analysis.exponents(p)["lambda"]
        assert fit.exponent >= lam  # smooth decay dominates every lambda(p)
    report(10, "sphere normal-oscillation exponent",
           f"({fit.exponent:.3f} >= lambda(p) up to p=24 = 2/3)")


def test_11_good_tetra_search(icosphere4):
    t0 = time.monotonic()
    oracle = SurfaceOracle.from_mesh(icosphere4)
    seeds = np.linspace(0, len(icosphere4.vertices) - 1, 20).astype(int)
    fractions = []
    for vi in seeds:
        sp = SurfacePoint(icosphere4.vertices[vi],
                          icosphere4.vertex_normals[vi])
        res = goodtetra.find_good_tetra(oracle, sp)
        assert geom.classify_voluminous(res.vertices, 1.0 / 100.0 - 0.005,
                                        res.stopping_distance)
        frac = goodtetra.verify_projection(
            oracle, res.vertices[0], res.stopping_distance / 2.0,
            res.witness_plane_normal, n_rays=400, seed=111)
        assert frac >= 0.99
        fractions.append(frac)
    capsule = SurfaceOracle.capsule(10.0, 0.2)
    res_cap = goodtetra.find_good_tetra(
        capsule, SurfacePoint(capsule.backing.tip(),
                              np.array([0.0, 0.0, -1.0])))
    assert res_cap.stopping_distance <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0
    report(11, "good tetrahedra on 20 icosphere seeds + capsule",
           f"(min projection {min(fractions):.3f}; capsule d_s="
           f"{res_cap.stopping_distance:.3f}; {elapsed:.0f}s)")


def test_12_divergence_exponents():
    expected = {(3.0, 8.0): -4.0, (3.0, 3.0): 6.0, (2.0, 12.0): 0.0}
    slopes = {}
    for (alpha, p), want in expected.items():
        rows, slope = energy.divergence_study(alpha, p, "geometric", 0.05,
                                              5, 200_000, seed=112)
        assert abs(slope - want) <= 0.5
        slopes[(alpha, p)] = slope
        divergent = (alpha - 1.0) * p >= 12.0
        if want < 0:
            assert divergent and slope < 0  # terms grow along n
        elif want > 0:
            assert not divergent and slope > 0
    report(12, "cap-patch scaling separates the divergence regimes",
           "(" + ", ".join(f"a={a},p={p}: {s:+.2f}"
                           for (a, p), s in slopes.items()) + ")")


def test_13_minimizer_contracts():
    base = shapes.icosphere(1)
    rng = substream(113)
    radial = 1.0 + 0.05 * rng.standard_normal((len(base.vertices), 1))
    noisy = TriMesh(base.vertices * radial, base.faces)
    cfg = minimize.DiscreteEnergyConfig(p=9.0)
    target = noisy.total_area
    initial = minimize.discrete_energy(noisy, cfg)
    s = np.sqrt(target / base.total_area)
    baseline = minimize.discrete_energy(TriMesh(s * base.vertices, base.faces),
                                        cfg)
    state = minimize.minimize_energy_area_cap(noisy, 9.0, target,
                                              iters=1500, seed=113)
    accepted = [ob for _, ob, _, acc in state.audit if acc]
    assert (np.diff(np.minimum.accumulate(accepted)) <= 0).all()
    assert abs(state.mesh.total_area - target) / target <= 1e-6
    assert minimize.discrete_energy(state.mesh, cfg) == state.objective
    assert state.objective < initial
    assert state.objective < baseline * 1.05

    ell = shapes.ellipsoid(1.3, 1.0, 0.8, subdivisions=1)
    cap = 3.0 * minimize.discrete_energy(ell, cfg)
    st2 = minimize.minimize_area_energy_cap(ell, 9.0, cap, iters=600, seed=114)
    for _, _, cv, acc in st2.audit:
        if acc:
            assert cv <= cap * (1.0 + 1e-6)
    assert st2.objective < ell.total_area
    report(13, "minimizer audits and the noisy-icosphere baseline",
           f"(final {state.objective:.3e} < baseline {baseline:.3e} + 5%)")


def test_14_cli_determinism(tmp_path):
    mesh_path = tmp_path / "ico1.obj"
    m = shapes.icosphere(1)
    save_obj(mesh_path, m.vertices, m.faces)
    runs = {
        "integrand": ["integrand", "--tetra", "0,0,0,1,0,0,0,1,0,0,0,1"],
        "energy": ["energy", "--analytic", "sphere", "--radius", "1",
                   "--p", "8", "--samples", "20000", "--seed", "9"],
        "local-energy": ["local-energy", "--analytic", "sphere", "--radius",
                         "1", "--center", "0,0,1", "--patch-radius", "0.8",
                         "--p", "8", "--samples", "4000", "--seed", "9"],
        "scaling": ["scaling", "--p", "8", "--radii", "0.5,1,2",
                    "--samples", "5000", "--seed", "9"],
        "diverge": ["diverge", "--alpha", "3", "--p", "3", "--nmax", "3",
                    "--samples", "5000", "--seed", "9"],
        "density": ["density", "--analytic", "sphere", "--radius", "1",
                    "--point", "0,0,1", "--patch-radius", "0.4",
                    "--depth", "6", "--seed", "9"],
        "beta": ["beta", "--analytic", "sphere", "--radius", "1", "--point",
                 "0,0,1", "--patch-radius", "0.3", "--patch-samples", "1000",
                 "--grid-level", "0", "--seed", "9"],
        "oscillation": ["oscillation", "--analytic", "sphere", "--radius",
                        "1", "--point", "0,0,1", "--scales", "0.1,0.2,0.4",
                        "--pairs", "150", "--seed", "9"],
        "goodtetra": ["goodtetra", "--analytic", "sphere", "--radius", "1",
                      "--point", "0,0,1", "--rays", "1024", "--proj-rays",
                      "200", "--seed", "9"],
        "minimize": ["minimize", "--mesh", str(mesh_path), "--mode", "energy",
                     "--cap", "100", "--iters", "60", "--p", "9",
                     "--seed", "9"],
    }
    for name, argv in runs.items():
        outputs = []
        for t in (1, 4, 8):
            out = tmp_path / f"{name}-{t}.json"
            code = cli.run(argv + ["--threads", str(t), "--output", str(out)])
            assert code == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name
        json.loads(outputs[0])  # well-formed
    report(14, "CLI determinism across thread counts",
           f"({len(runs)} subcommands x threads 1/4/8 bit-identical)")
