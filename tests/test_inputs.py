"""Every public function refuses bad arguments itself, with an InputError
whose message names the argument, and nothing else escapes a call."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exactly
from menger_surf import InputError, analysis, energy, geom, goodtetra, minimize
from menger_surf.integrand import IntegrandSpec, eval_batch, lemma_bounds
from menger_surf.rng import substream
from menger_surf.surface import SurfaceOracle, SurfacePoint, shapes

NAN, INF = float("nan"), float("inf")
MENGER = IntegrandSpec(kind="menger")
SPHERE = SurfaceOracle.sphere(1.0)
TORUS = SurfaceOracle.torus(2.0, 1.0)
POLE = [0.0, 0.0, 1.0]
ICO0 = shapes.icosphere(0)
ICO2 = SurfaceOracle.from_mesh(shapes.icosphere(2))


def strict(call, *args, **kwargs):
    """The call with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call(*args, **kwargs)


def refused(message, call, *args, **kwargs):
    with pytest.raises(InputError, match=exactly(message)):
        strict(call, *args, **kwargs)


# each probe: a call that once failed late, ran, or raised another error
PROBES = {
    "seed-off-surface": (
        "seed_point.position lies 2 off the surface", goodtetra.find_good_tetra,
        SPHERE, SurfacePoint(np.array([0.0, 0.0, 3.0]), np.array(POLE))),
    "seed-nan": (
        "seed_point.position has non-finite coordinates",
        goodtetra.find_good_tetra, SPHERE,
        SurfacePoint(np.array([NAN, 0.0, 1.0]), np.array(POLE))),
    "seed-zero-normal": (
        "seed_point.normal must be non-zero", goodtetra.find_good_tetra,
        SPHERE, SurfacePoint(np.array(POLE), np.zeros(3))),
    "witness-no-rays": (
        "n_rays must be an integer in [1, inf), got 0",
        goodtetra.verify_projection, SPHERE, POLE, 0.5, POLE, 0),
    "witness-zero-normal": (
        "witness_plane_normal must be non-zero", goodtetra.verify_projection,
        SPHERE, POLE, 0.5, [0.0, 0.0, 0.0]),
    "witness-negative-r": (
        "r must be a finite number in (0, inf), got -1.0",
        goodtetra.verify_projection, SPHERE, POLE, -1.0, POLE),
    "energy-p-nan": (
        "p must be a finite number in [1, inf), got nan", energy.estimate_mp,
        SPHERE, MENGER, NAN, 1000, 0),
    "energy-threads-0": (
        "threads must be an integer in [1, inf), got 0", energy.estimate_mp,
        SPHERE, MENGER, 8.0, 1000, 0, 0),
    "energy-threads-negative": (
        "threads must be an integer in [1, inf), got -3", energy.estimate_mp,
        SPHERE, MENGER, 8.0, 1000, 0, -3),
    "local-energy-p-inf": (
        "p must be a finite number in [1, inf), got inf", energy.local_energy,
        SPHERE, POLE, 0.5, MENGER, INF, 100, 0),
    "scaling-p-nan": (
        "p must be a finite number in [1, inf), got nan", energy.scaling_study,
        MENGER, NAN, [1.0], 1000, 0),
    "scales-negative": (
        "scales must be a finite number in (0, inf), got -1.0",
        analysis.normal_oscillation_profile, TORUS, [3.0, 0.0, 0.0], [-1.0]),
    "scales-nan": (
        "scales must be a finite number in (0, inf), got nan",
        analysis.normal_oscillation_profile, TORUS, [3.0, 0.0, 0.0], [NAN]),
    "scales-empty": (
        "scales must be a non-empty list", analysis.normal_oscillation_profile,
        TORUS, [3.0, 0.0, 0.0], []),
    "holder-nan": (
        "profile oscillations must be a finite number in [0, inf), got nan",
        analysis.holder_exponent_fit, [(0.1, 0.1), (0.2, NAN), (0.4, 0.4)]),
    "density-depth": (
        "depth must be an integer in [0, 10], got -1", analysis.density_quotient,
        SPHERE, POLE, 0.3, -1),
    "density-radius-underflow": (  # divided by zero
        "radius 1e-162 is too small: its square is 0",
        analysis.density_quotient, SPHERE, POLE, 1e-162),
    "local-energy-radius-underflow": (  # "patch too small for requested n"
        "radius 1e-162 is too small: its square is 0", energy.local_energy,
        SPHERE, POLE, 1e-162, MENGER, 8.0, 100, 0),
    "patch-r-underflow": (  # returned no rows
        "r 1e-162 is too small: its square is 0", analysis.patch_samples,
        SPHERE, POLE, 1e-162, 100),
    "beta-r-underflow": (  # "empty patch"
        "r 1e-162 is too small: its square is 0", analysis.beta_number,
        SPHERE, POLE, 1e-162, 100, 0),
    "scales-underflow": (  # "no sampled point at distance ..."
        "scales 1e-162 is too small: its square is 0",
        analysis.normal_oscillation_profile, SPHERE, POLE,
        [1e-162, 1e-100, 1e-50]),
    "scales-repeated": (  # a poorly conditioned polyfit
        "scales must not repeat, got [0.1, 0.1, 0.1]",
        analysis.normal_oscillation_profile, SPHERE, POLE, [0.1, 0.1, 0.1]),
    "holder-repeated-scales": (  # a fit with r^2 = -2.2e-16 and a RankWarning
        "profile needs at least 3 distinct scales", analysis.holder_exponent_fit,
        [(0.1, 0.2), (0.1, 0.3), (0.1, 0.25)]),
    "holder-two-points": (
        "profile needs at least 3 distinct scales", analysis.holder_exponent_fit,
        [(0.1, 0.2), (0.2, 0.3)]),
    "witness-r-underflow": (  # returned 0.0
        "r 1e-162 is too small: its square is 0", goodtetra.verify_projection,
        SPHERE, POLE, 1e-162, POLE),
    "ball-radius-underflow": (  # returned no rows
        "ball radius 1e-162 is too small: its square is 0", SPHERE.sample_points,
        np.random.default_rng(0), 5, (POLE, 1e-162)),
    "beta-grid-level": (
        "grid_level must be an integer in [0, 6], got -1", analysis.beta_number,
        SPHERE, POLE, 0.3, 100, -1),
    "beta-off-surface": (
        "x lies 2 off the surface", analysis.beta_number, SPHERE,
        [0.0, 0.0, 3.0], 0.1, 100, 0),
    "saddle-off-patch": (  # on the graph z = xy, but outside its square
        "x lies 4 off the surface", analysis.density_quotient,
        SurfaceOracle.saddle(1.0), [5.0, 0.0, 0.0], 0.3),
    "sample-negative-n": (
        "n must be an integer in [0, inf), got -1", SPHERE.sample,
        np.random.default_rng(0), -1),
    "normal-nan": (
        "p has non-finite coordinates", SPHERE.normal_at, [NAN, 0.0, 1.0]),
    "normal-nan-mesh": (  # the nearest-vertex search once picked a vertex
        "p has non-finite coordinates", SurfaceOracle.from_mesh(ICO0).normal_at,
        [NAN, 0.0, 1.0]),
    "normal-2-vector": (
        "p must be a point of 3 coordinates", SPHERE.normal_at, [0.0, 1.0]),
    "patch-negative-r": (
        "r must be a finite number in (0, inf), got -1.0",
        analysis.patch_samples, SPHERE, POLE, -1.0, 100),
    "band-inverted": (  # returned [inf inf]
        "tmax must be a number in [tmin, inf], got -1.0", SPHERE.band_min_hits,
        np.zeros(3), np.ones((2, 3)), 1.0, -1.0),
    "band-2-vector-origin": (  # numpy's "operands could not be broadcast"
        "origin must be a point of 3 coordinates", SPHERE.band_min_hits,
        np.zeros(2), np.ones((2, 3)), 0.0, 1.0),
    "segment-nan": (  # returned []
        "b has non-finite coordinates", SPHERE.segment_hits, np.zeros(3),
        [NAN, 0.0, 0.0]),
    "rays-inverted": (  # returned no hits
        "tmax must be a number in [tmin, inf], got -1.0", SPHERE.ray_hits,
        np.zeros(3), np.ones((2, 3)), 1.0, -1.0),
    "rays-nan-mesh": (  # returned no hits
        "dirs must be a (k, 3) array of finite numbers", ICO2.ray_hits,
        np.zeros(3), [[NAN, 0.0, 0.0]], 0.0, 1.0),
    "rays-2-vector-origin": (  # numpy's "operands could not be broadcast"
        "origins must be a point of 3 coordinates", TORUS.ray_hits,
        np.zeros(2), np.ones((2, 3)), 0.0, 1.0),
    "inside-nan": (  # returned False
        "p has non-finite coordinates", SPHERE.inside, [NAN, 0.0, 0.0]),
    "inside-nan-torus": (  # returned False
        "p has non-finite coordinates", TORUS.inside, [NAN, 0.0, 0.0]),
    "inside-nan-mesh": (  # returned False
        "p has non-finite coordinates", ICO2.inside, [NAN, 0.0, 0.0]),
    "distance-nan-mesh": (  # numpy's "zero-size array to reduction operation"
        "p has non-finite coordinates", ICO2.surface_distance, [NAN, 0.0, 0.0]),
    "distance-2-vector": (  # numpy's "operands could not be broadcast"
        "p must be a point of 3 coordinates", SPHERE.surface_distance,
        [0.0, 0.0]),
    "band-ragged-dirs": (  # numpy's "inhomogeneous shape"
        "dirs must be a (k, 3) array of finite numbers", SPHERE.band_min_hits,
        np.zeros(3), [[1.0, 0.0, 0.0], [1.0, 0.0]], 0.0, 1.0),
    "band-text-dirs": (  # numpy's "could not convert string to float"
        "dirs must be a (k, 3) array of finite numbers", SPHERE.band_min_hits,
        np.zeros(3), [["a", "b", "c"]], 0.0, 1.0),
    "rays-ragged-origins": (  # numpy's "inhomogeneous shape" from np.ndim
        "origins must be one point or one per ray", SPHERE.ray_hits,
        [[0.0, 0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0, 0.0]] * 2, 0.0, 1.0),
    "simplex-one-point": (  # numpy's "cannot reshape array of size 3"
        "T must be 4 points of 3 coordinates", geom.simplex_measures,
        [[0.0, 0.0, 0.0]]),
    "angle-nan": (  # returned nan
        "u has non-finite coordinates", geom.angle_between, [NAN, 0.0, 0.0],
        [1.0, 0.0, 0.0]),
    "wide-nan": (  # returned False
        "tri has non-finite coordinates", geom.classify_wide,
        [[NAN, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 0.1, 1.0),
    "simplex-2-by-6": (  # reshaped to (4, 3)
        "T must be 4 points of 3 coordinates", geom.simplex_measures,
        np.arange(12.0).reshape(2, 6)),
    "normal-column": (  # reshaped to (3,), and answered [-0, -0, -1]
        "p must be a point of 3 coordinates", SPHERE.normal_at,
        [[0.0], [0.0], [1.0]]),
    "wide-flat-9": (  # reshaped to (3, 3)
        "tri must be 3 points of 3 coordinates", geom.classify_wide,
        np.eye(3).ravel(), 0.1, 1.0),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_probe_is_refused(name):
    message, call, *args = PROBES[name]
    refused(message, call, *args)


# the public API at small sizes: each argument's good value and bad values
REALS = [NAN, INF, -INF, 0.0, -1.0, "a"]  # bad for every positive real
COUNTS = [0, -1]
POINTS = [[NAN, 0.0, 1.0], [0.0, INF, 1.0]]
ON_SURFACE = POINTS + [[0.0, 0.0, 3.0], [0.0, 0.0, 0.0]]  # for the unit sphere
VECTORS = [[0.0, 0.0, 0.0], [NAN, 0.0, 1.0]]
LISTS = [[], [NAN], [-1.0], [0.0], [INF]]
BALLS = [(p, 0.3) for p in POINTS] + [(POLE, r) for r in REALS]


def _search(a):
    params = goodtetra.GoodTetraParams(a["hit_tolerance"], a["ray_count"])
    seed = SurfacePoint(a["seed_point.position"], a["seed_point.normal"])
    return goodtetra.find_good_tetra(SPHERE, seed, params)


API = {
    "sphere": (lambda a: SurfaceOracle.sphere(a["radius"]).total_area,
               {"radius": (1.0, REALS)}),
    "torus": (lambda a: SurfaceOracle.torus(a["major_radius"],
                                            a["minor_radius"]).total_area,
              {"major_radius": (2.0, REALS + [1.0, 0.5]),
               "minor_radius": (1.0, REALS)}),
    "capsule": (lambda a: SurfaceOracle.capsule(a["length"],
                                                a["radius"]).total_area,
                {"length": (2.0, REALS), "radius": (0.5, REALS)}),
    "saddle": (lambda a: SurfaceOracle.saddle(a["extent"]).total_area,
               {"extent": (1.0, REALS)}),
    "estimate_mp": (lambda a: energy.estimate_mp(
        SPHERE, MENGER, a["p"], a["n"], 0, threads=a["threads"]),
        {"p": (8.0, REALS + [0.5]), "n": (1000, COUNTS + [999]),
         "threads": (1, COUNTS)}),
    "local_energy": (lambda a: energy.local_energy(
        SPHERE, a["center"], a["radius"], MENGER, a["p"], a["n"], 0,
        threads=a["threads"]),
        {"center": (POLE, POINTS), "radius": (0.5, REALS),
         "p": (8.0, REALS + [0.5]), "n": (100, COUNTS),
         "threads": (2, COUNTS)}),
    "scaling_study": (lambda a: energy.scaling_study(
        MENGER, a["p"], a["radii"], a["n"], 0),
        {"p": (8.0, REALS), "radii": ([0.5, 1.0], LISTS),
         "n": (1000, COUNTS + [999])}),
    "divergence_study": (lambda a: energy.divergence_study(
        a["alpha"], a["p"], "geometric", a["eps"], a["n_max"], a["samples"],
        0),
        {"alpha": (3.0, REALS + [1.0]), "p": (3.0, REALS),
         "eps": (0.05, REALS + [1.0]), "n_max": (2, COUNTS + [1, 9]),
         "samples": (50, COUNTS)}),
    "stopping_radius_r0": (lambda a: energy.stopping_radius_r0(
        a["E"], a["p"], a["alpha"]),
        {"E": (1.0, REALS), "p": (10.0, REALS + [8.0]),
         "alpha": (0.3, REALS + [1.0])}),
    "exponents": (lambda a: analysis.exponents(a["p"]),
                  {"p": (10.0, REALS + [8.0])}),
    "balance_epsilon": (lambda a: analysis.balance_epsilon(
        a["eta"], a["p"], a["d"], a["E"]),
        {"eta": (0.5, REALS + [1.0]), "p": (10.0, REALS + [8.0]),
         "d": (0.1, REALS), "E": (1.0, REALS)}),
    "density_quotient": (lambda a: analysis.density_quotient(
        SPHERE, a["x"], a["radius"], a["depth"]),
        {"x": (POLE, ON_SURFACE), "radius": (0.3, REALS),
         "depth": (2, [-1, 11])}),
    "patch_samples": (lambda a: analysis.patch_samples(
        SPHERE, a["x"], a["r"], a["n_patch"]),
        {"x": (POLE, POINTS), "r": (0.3, REALS), "n_patch": (50, COUNTS)}),
    "beta_number": (lambda a: analysis.beta_number(
        SPHERE, a["x"], a["r"], a["n_patch"], a["grid_level"]),
        {"x": (POLE, ON_SURFACE), "r": (0.3, REALS),
         "n_patch": (50, COUNTS), "grid_level": (0, [-1, 7])}),
    "normal_oscillation_profile": (lambda a: analysis.normal_oscillation_profile(
        SPHERE, a["x"], a["scales"], a["pairs_per_scale"]),
        {"x": (POLE, ON_SURFACE), "scales": ([0.2, 0.4], LISTS + [[3.0]]),
         "pairs_per_scale": (20, COUNTS)}),
    "sample": (lambda a: SPHERE.sample(np.random.default_rng(0), a["n"],
                                       a["ball"]),
               {"n": (20, [-1, 2.5, "3"]), "ball": ((POLE, 0.3), BALLS)}),
    "sample_points": (lambda a: SPHERE.sample_points(
        np.random.default_rng(0), a["n"], a["ball"], a["out"]),
        {"n": (20, [-1, 2.5, "3"]), "ball": ((POLE, 0.3), BALLS),
         "out": (None, [np.empty((19, 3)), np.empty((20, 3), dtype=np.float32),
                        [[0.0, 0.0, 0.0]] * 20])}),
    "cover_area": (lambda a: SPHERE.cover_area(a["ball"]),
                   {"ball": ((POLE, 0.3), BALLS)}),
    "holder_exponent_fit": (lambda a: analysis.holder_exponent_fit(
        a["profile"]),
        {"profile": ([(0.1, 0.1), (0.2, 0.3), (0.4, 0.5)],
                     [[], [(0.1, 0.1), (0.2, 0.3)],
                      [(0.1, 0.1), (0.2, NAN), (0.4, 0.5)],
                      [(0.1, 0.1), (INF, 0.3), (0.4, 0.5)],
                      [(0.1, -0.1), (0.2, 0.3), (0.4, 0.5)],
                      [(0.0, 0.1), (0.2, 0.3), (0.4, 0.5)]])}),
    "band_min_hits": (lambda a: SPHERE.band_min_hits(
        a["origin"], a["dirs"], a["tmin"], a["tmax"]),
        {"origin": (np.zeros(3), POINTS + [[0.0, 1.0]]),
         "dirs": (np.eye(3), [np.ones(3), np.ones((2, 2)), [[NAN, 0.0, 1.0]],
                              [[0.0, INF, 1.0]]]),
         "tmin": (0.5, [NAN, INF, -INF]), "tmax": (2.0, [NAN, -INF, 0.0])}),
    "ray_hits": (lambda a: SPHERE.ray_hits(a["origins"], a["dirs"], a["tmin"],
                                           a["tmax"]),
                 {"origins": (np.zeros((3, 3)), POINTS + [[0.0, 1.0],
                                                          np.zeros((2, 3))]),
                  "dirs": (np.eye(3), [np.ones(3), np.ones((3, 2)),
                                       [[NAN, 0.0, 1.0]] * 3]),
                  "tmin": (0.5, [NAN, INF, -INF]),
                  "tmax": (2.0, [NAN, -INF, 0.0])}),
    "segment_hits": (lambda a: SPHERE.segment_hits(a["a"], a["b"]),
                     {"a": (np.zeros(3), POINTS + [[0.0, 1.0]]),
                      "b": (POLE, POINTS + [[0.0, 1.0]])}),
    "find_good_tetra": (_search, {
        "seed_point.position": (POLE, ON_SURFACE),
        "seed_point.normal": (POLE, VECTORS),
        "hit_tolerance": (1e-3, REALS + [0.2]),
        "ray_count": (64, COUNTS + [3])}),
    "verify_projection": (lambda a: goodtetra.verify_projection(
        SPHERE, a["x0"], a["r"], a["witness_plane_normal"], a["n_rays"]),
        {"x0": (POLE, POINTS), "r": (0.5, REALS),
         "witness_plane_normal": (POLE, VECTORS), "n_rays": (16, COUNTS)}),
    # objects of the wrong type, once an AttributeError deep in the call
    "estimate_mp_objects": (lambda a: energy.estimate_mp(
        a["oracle"], a["spec"], 8.0, 1000, 0),
        {"oracle": (SPHERE, [None, "sphere", ICO0]),
         "spec": (MENGER, ["menger", {"kind": "menger"}])}),
    "beta_number_oracle": (lambda a: analysis.beta_number(
        a["oracle"], POLE, 0.3, 50, 0),
        {"oracle": (SPHERE, [None, "sphere", ICO0])}),
    "find_good_tetra_objects": (lambda a: goodtetra.find_good_tetra(
        SPHERE, a["seed_point"], a["params"]),
        {"seed_point": (SurfacePoint(np.array(POLE), np.array(POLE)),
                        [np.array(POLE), (POLE, POLE)]),
         "params": (goodtetra.GoodTetraParams(1e-3, 64), [5, "fast"])}),
    "eval_batch": (lambda a: eval_batch(a["spec"], np.eye(4, 3)[None]),
                   {"spec": (MENGER, ["menger", None])}),
    "minimize_energy_area_cap": (lambda a: minimize.minimize_energy_area_cap(
        ICO0, a["p"], a["area_cap"], a["iters"], 0),
        {"p": (9.0, REALS + [8.0]), "area_cap": (10.0, REALS),
         "iters": (2, COUNTS[1:])}),
    "minimize_area_energy_cap": (lambda a: minimize.minimize_area_energy_cap(
        ICO0, a["p"], a["energy_cap"], a["iters"], 0),
        {"p": (9.0, REALS + [8.0]), "energy_cap": (1e30, [NAN, INF, -1.0]),
         "iters": (2, COUNTS[1:])}),
    "classify_voluminous": (lambda a: geom.classify_voluminous(
        np.eye(4, 3), a["theta"], a["d"]),
        {"theta": (0.1, REALS + [1.0]), "d": (1.0, REALS)}),
    "lemma_bounds": (lambda a: lemma_bounds(a["theta"], a["kappa"], a["d"]),
                     {"theta": (0.5, REALS + [1.0]),
                      "kappa": (1.0, REALS + [1.5]), "d": (1.0, REALS)}),
    "slanted_constants": (lambda a: geom.slanted_constants(a["phi0"], a["phi1"]),
                          {"phi0": (0.5, REALS + [np.pi / 2, 2.0]),
                           "phi1": (np.pi - 0.1, REALS + [np.pi, 4.0])}),
    "perturbation_radius": (lambda a: geom.perturbation_radius(a["eta"]),
                            {"eta": (0.5, REALS + [0.75, 1.0])}),
    "perturbation_alpha": (lambda a: geom.perturbation_alpha(a["eta"]),
                           {"eta": (0.5, REALS + [0.75, 1.0])}),
}


def _finite(value):
    """Whether every number in a result is finite."""
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, (np.ndarray, np.floating, float)):
        return bool(np.all(np.isfinite(value)))
    return True


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(API)))
def test_public_api_refuses_bad_arguments(data, name):
    call, args = API[name]
    bad = data.draw(st.sampled_from([None] + sorted(args)), label="bad")
    values = {arg: good for arg, (good, _) in args.items()}
    if bad is not None:
        values[bad] = data.draw(st.sampled_from(args[bad][1]), label=bad)
    try:
        result = strict(call, values)
    except InputError as exc:
        assert bad is not None, exc
        assert str(exc).split()[0].rstrip(":") == bad, exc
        return
    assert bad is None, f"{bad}={values[bad]!r} was accepted"
    assert _finite(result)



# every seed enters through rng.substream; the annealer checks it before it
# builds its table, since a run of 0 iterations never draws
SEEDED = {
    "estimate_mp": lambda seed: energy.estimate_mp(SPHERE, MENGER, 8.0, 1000,
                                                   seed),
    "beta_number": lambda seed: analysis.beta_number(SPHERE, POLE, 0.3, 50, 0,
                                                     seed),
    "verify_projection": lambda seed: goodtetra.verify_projection(
        SPHERE, POLE, 0.5, POLE, 16, seed),
    "minimize_energy_area_cap": lambda seed: minimize.minimize_energy_area_cap(
        ICO0, 9.0, 10.0, 0, seed),
}


@pytest.mark.parametrize("seed", [1.5, 2.7, NAN, INF, "abc", "3", None])
@pytest.mark.parametrize("name", sorted(SEEDED))
def test_non_integer_seed_is_refused(name, seed):
    refused(f"seed must be an integer in (-inf, inf), got {seed!r}",
            SEEDED[name], seed)


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_integer_seeds_keep_their_streams(name):
    """Negative, numpy and large integer seeds stay legal, and a seed keys
    its streams modulo 2**64, as it always has."""
    for seed in (-3, np.int64(-3), 2**64 - 3, 2**70 + 5):
        want = substream(int(seed) % 2**64, 1, 2).random(4)
        assert np.array_equal(substream(seed, 1, 2).random(4), want)
    a, b = SEEDED[name](-3), SEEDED[name](np.int64(-3))
    if isinstance(a, minimize.OptimizerState):  # its repr names the mesh object
        a, b = (a.audit, a.mesh.vertices.tolist()), (b.audit, b.mesh.vertices.tolist())
    assert repr(a) == repr(b)
