"""Command-line frontend: every study as a reproducible, scriptable run.

Each subcommand writes one JSON document (or a CSV table) containing the
command echo, the resolved configuration, the seed, and the results; elapsed
time goes to the diagnostic stream so the written document is bit-identical
for identical configurations regardless of thread count.  All randomness
flows from the single seed through counter-based streams.

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, analysis, energy, goodtetra, minimize
from .integrand import IntegrandSpec, eval_integrand
from .rng import substream
from .surface import SurfaceOracle, SurfacePoint, sample_point

SUBCOMMANDS = ("integrand", "energy", "local-energy", "scaling", "diverge",
               "density", "beta", "oscillation", "goodtetra", "minimize")

_SKIP_ECHO = {"--output", "--threads", "--audit-out", "--mesh-out"}

# float flags that must be finite and positive in every subcommand that has them
_POSITIVE_FLAGS = ("p", "radius", "major_radius", "minor_radius", "extent",
                   "length", "patch_radius", "cap", "alpha", "eps", "hit_tol")
# integer flags and their (least, greatest) values.  --rays has the floor
# that goodtetra.GoodTetraParams checks for ray_count.  Each --grid-level step
# quadruples beta's directions and each --depth step doubles density's
# straddling faces; the caps bound time and memory.  A wave of the block
# driver starts one OS thread per block, so --threads has a cap too.
# diverge's --nmax is divergence_study's own range.
_INT_RANGES = {"threads": (1, 256), "rays": (4, math.inf),
               "proj_rays": (1, math.inf), "samples": (1, math.inf),
               "pairs": (1, math.inf), "patch_samples": (1, math.inf),
               "iters": (1, math.inf), "grid_level": (0, 6), "depth": (0, 10),
               "nmax": (2, 8)}


class UsageError(Exception):
    pass


def _fmt(x):
    return format(float(x), ".17g")


def _floats(text, n=None):
    try:
        vals = [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}")
    if n is not None and len(vals) != n:
        raise UsageError(f"expected {n} comma-separated numbers, got {text!r}")
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"expected finite numbers, got {text!r}")
    return vals


def _positive(flag, vals):
    """The values of a flag, which must be a non-empty list of finite
    positive numbers."""
    if not vals:
        raise UsageError(f"{flag} needs at least one number")
    for v in vals:
        if not (math.isfinite(v) and v > 0.0):
            raise UsageError(f"{flag} must be finite and positive, got {v!r}")
    return vals


def _check_int_ranges(args):
    """Raise UsageError for an integer flag outside its range."""
    ranges = dict(_INT_RANGES)
    if getattr(args, "subcommand", None) in ("energy", "scaling"):
        ranges["samples"] = (energy.MIN_SAMPLES, math.inf)  # estimate_mp's
    for name, (least, most) in ranges.items():
        value = getattr(args, name, None)
        if value is not None and not least <= value <= most:
            bound = f"at least {least}" if value < least else f"at most {most}"
            raise UsageError(f"--{name.replace('_', '-')} must be {bound}, "
                             f"got {value}")


def _add_surface_flags(sp):
    sp.add_argument("--mesh", help="path to an OBJ/OFF mesh")
    sp.add_argument("--mesh-format", choices=("obj", "off"))
    sp.add_argument("--analytic", choices=("sphere", "torus", "saddle", "capsule"))
    sp.add_argument("--radius", type=float, help="sphere/capsule radius")
    sp.add_argument("--major-radius", type=float)
    sp.add_argument("--minor-radius", type=float)
    sp.add_argument("--extent", type=float, help="saddle patch half-side")
    sp.add_argument("--length", type=float, help="capsule cylinder length")


def _resolve_surface(args):
    if (args.mesh is None) == (args.analytic is None):
        raise UsageError("need exactly one surface source: --mesh or --analytic")
    if args.mesh is not None:
        return SurfaceOracle.from_file(args.mesh, args.mesh_format)
    kind = args.analytic
    if kind == "sphere":
        if args.radius is None:
            raise UsageError("--analytic sphere needs --radius")
        return SurfaceOracle.sphere(args.radius)
    if kind == "torus":
        if args.major_radius is None or args.minor_radius is None:
            raise UsageError("--analytic torus needs --major-radius and --minor-radius")
        return SurfaceOracle.torus(args.major_radius, args.minor_radius)
    if kind == "saddle":
        if args.extent is None:
            raise UsageError("--analytic saddle needs --extent")
        return SurfaceOracle.saddle(args.extent)
    if args.length is None or args.radius is None:
        raise UsageError("--analytic capsule needs --length and --radius")
    return SurfaceOracle.capsule(args.length, args.radius)


def _resolve_spec(args):
    try:
        return IntegrandSpec.from_json(args.integrand)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad integrand spec: {exc}")


def _resolve_point(args, oracle, seed):
    if getattr(args, "point", None) is not None:
        return np.asarray(_floats(args.point, 3))
    if getattr(args, "seed_vertex", None) is not None:
        if not oracle.is_mesh:
            raise UsageError("--seed-vertex needs a mesh surface")
        mesh = oracle.backing
        vi = int(args.seed_vertex)
        if not 0 <= vi < len(mesh.vertices):
            raise UsageError(f"--seed-vertex {vi} out of range "
                             f"(mesh has {len(mesh.vertices)} vertices)")
        return mesh.vertices[vi]
    return sample_point(oracle, substream(seed, 0x504F494E)).position


def build_parser():
    ap = argparse.ArgumentParser(
        prog="menger-surf",
        description="Curvature-energy studies of surfaces")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    common = {}
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--output", help="write the document here (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        common[name] = sp

    for name in ("energy", "local-energy", "density", "beta", "oscillation",
                 "goodtetra"):
        _add_surface_flags(common[name])
    for name in ("integrand", "energy", "local-energy", "scaling"):
        common[name].add_argument("--integrand", default='{"kind":"menger"}')

    common["integrand"].add_argument("--tetra", required=True,
                                     help="12 comma-separated coordinates")

    for name in ("energy", "local-energy", "scaling", "diverge"):
        common[name].add_argument("--p", type=float, required=True)
        common[name].add_argument("--samples", type=int, required=True)

    common["local-energy"].add_argument("--center", required=True)
    common["local-energy"].add_argument("--patch-radius", type=float, required=True)

    common["scaling"].add_argument("--radii", required=True)

    common["diverge"].add_argument("--alpha", type=float, required=True)
    common["diverge"].add_argument("--eps", type=float, default=0.05)
    common["diverge"].add_argument("--nmax", type=int, default=5)
    common["diverge"].add_argument("--mean", default="geometric",
                                   choices=("geometric", "arithmetic", "min", "max"))

    common["density"].add_argument("--point")
    common["density"].add_argument("--seed-vertex", type=int)
    common["density"].add_argument("--patch-radius", type=float, required=True)
    common["density"].add_argument("--depth", type=int, default=8)

    common["beta"].add_argument("--point")
    common["beta"].add_argument("--seed-vertex", type=int)
    common["beta"].add_argument("--patch-radius", type=float, required=True)
    common["beta"].add_argument("--patch-samples", type=int, default=4000)
    common["beta"].add_argument("--grid-level", type=int, default=1)

    common["oscillation"].add_argument("--point")
    common["oscillation"].add_argument("--seed-vertex", type=int)
    common["oscillation"].add_argument("--scales", required=True)
    common["oscillation"].add_argument("--pairs", type=int, default=400)

    common["goodtetra"].add_argument("--point")
    common["goodtetra"].add_argument("--seed-vertex", type=int)
    common["goodtetra"].add_argument("--rays", type=int, default=4096)
    common["goodtetra"].add_argument("--hit-tol", type=float, default=1e-3)
    common["goodtetra"].add_argument("--proj-rays", type=int, default=800)

    mz = common["minimize"]
    mz.add_argument("--mesh", required=True)
    mz.add_argument("--mesh-format", choices=("obj", "off"))
    mz.add_argument("--mode", choices=("energy", "area"), required=True)
    mz.add_argument("--cap", type=float, required=True)
    mz.add_argument("--iters", type=int, required=True)
    mz.add_argument("--p", type=float, required=True)
    mz.add_argument("--audit-out", help="write the iteration audit CSV here")
    mz.add_argument("--mesh-out", help="write the final mesh OBJ here")
    return ap


# ---------------------------------------------------------------------------
# subcommand runners: return (config_dict, results_dict, csv_table)
# ---------------------------------------------------------------------------

def _run_integrand(args, seed, threads):
    spec = _resolve_spec(args)
    T = np.asarray(_floats(args.tetra, 12)).reshape(4, 3)
    value = eval_integrand(spec, T)
    config = {"spec": spec.to_dict(), "tetra": T.tolist()}
    results = {"value": value}
    table = (["value"], [[_fmt(value)]])
    return config, results, table


def _run_energy(args, seed, threads):
    oracle = _resolve_surface(args)
    spec = _resolve_spec(args)
    est = energy.estimate_mp(oracle, spec, args.p, args.samples, seed,
                             threads=threads)
    config = {"surface": oracle.describe(), "spec": spec.to_dict(),
              "p": args.p, "samples": args.samples}
    results = est.to_dict()
    table = (["value", "std_error", "n_samples"],
             [[_fmt(est.value), _fmt(est.std_error), str(est.n_samples)]])
    return config, results, table


def _run_local_energy(args, seed, threads):
    oracle = _resolve_surface(args)
    spec = _resolve_spec(args)
    center = _floats(args.center, 3)
    est = energy.local_energy(oracle, center, args.patch_radius, spec,
                              args.p, args.samples, seed, threads=threads)
    config = {"surface": oracle.describe(), "spec": spec.to_dict(),
              "p": args.p, "samples": args.samples, "center": center,
              "patch_radius": args.patch_radius}
    results = est.to_dict()
    table = (["value", "std_error", "n_samples"],
             [[_fmt(est.value), _fmt(est.std_error), str(est.n_samples)]])
    return config, results, table


def _run_scaling(args, seed, threads):
    spec = _resolve_spec(args)
    radii = _positive("--radii", _floats(args.radii))
    rows = energy.scaling_study(spec, args.p, radii, args.samples, seed,
                                threads=threads)
    config = {"spec": spec.to_dict(), "p": args.p, "samples": args.samples,
              "radii": radii}
    results = {"rows": [r.to_dict() for r in rows]}
    table = (["radius", "value", "std_error", "normalized"],
             [[_fmt(r.radius), _fmt(r.estimate.value),
               _fmt(r.estimate.std_error), _fmt(r.normalized)] for r in rows])
    return config, results, table


def _run_diverge(args, seed, threads):
    rows, slope = energy.divergence_study(args.alpha, args.p, args.mean,
                                          args.eps, args.nmax, args.samples,
                                          seed, threads=threads)
    config = {"alpha": args.alpha, "p": args.p, "mean": args.mean,
              "eps": args.eps, "nmax": args.nmax, "samples": args.samples}
    results = {"rows": [r.to_dict() for r in rows], "fitted_slope": slope,
               "predicted_slope": 12.0 + (1.0 - args.alpha) * args.p}
    table = (["n", "r_n", "patch_integral", "std_error", "fitted_slope"],
             [[str(r.n), _fmt(r.r_n), _fmt(r.patch_integral),
               _fmt(r.std_error), _fmt(slope)] for r in rows])
    return config, results, table


def _run_density(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    rep = analysis.density_quotient(oracle, point, args.patch_radius,
                                    args.depth)
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "patch_radius": args.patch_radius, "depth": args.depth}
    results = rep.to_dict()
    table = (["radius", "patch_area", "quotient", "passes_lower_bound",
              "error_bound"],
             [[_fmt(rep.radius), _fmt(rep.patch_area), _fmt(rep.quotient),
               str(rep.passes_lower_bound).lower(), _fmt(rep.error_bound)]])
    return config, results, table


def _run_beta(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    rep = analysis.beta_number(oracle, point, args.patch_radius,
                               args.patch_samples, args.grid_level, seed)
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "patch_radius": args.patch_radius,
              "patch_samples": args.patch_samples,
              "grid_level": args.grid_level}
    results = rep.to_dict()
    table = (["radius", "beta", "grid_level"],
             [[_fmt(rep.radius), _fmt(rep.beta), str(rep.grid_level)]])
    return config, results, table


def _run_oscillation(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    scales = _positive("--scales", _floats(args.scales))
    profile = analysis.normal_oscillation_profile(oracle, point, scales,
                                                  args.pairs, seed)
    fit = analysis.holder_exponent_fit(profile) if len(profile) >= 3 else None
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "scales": scales, "pairs": args.pairs}
    results = {"profile": [[d, o] for d, o in profile]}
    if fit is not None:
        results["fit"] = fit.to_dict()
    table = (["scale", "max_oscillation"],
             [[_fmt(d), _fmt(o)] for d, o in profile])
    return config, results, table


def _run_goodtetra(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    normal = oracle.normal_at(point)
    params = goodtetra.GoodTetraParams(ray_count=args.rays,
                                       hit_tolerance=args.hit_tol)
    res = goodtetra.find_good_tetra(oracle, SurfacePoint(point, normal), params)
    frac = goodtetra.verify_projection(
        oracle, res.vertices[0], res.stopping_distance / 2.0,
        res.witness_plane_normal, n_rays=args.proj_rays, seed=seed)
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "rays": args.rays, "hit_tol": args.hit_tol,
              "proj_rays": args.proj_rays}
    results = res.to_dict()
    results["projection_fraction"] = frac
    table = (["stopping_distance", "case_label", "eta_achieved", "iterations",
              "projection_fraction"],
             [[_fmt(res.stopping_distance), res.case_label,
               _fmt(res.eta_achieved), str(res.iterations), _fmt(frac)]])
    return config, results, table


def _run_minimize(args, seed, threads):
    from .surface import load_mesh, save_obj
    mesh = load_mesh(args.mesh, args.mesh_format)
    try:  # both annealers need p > 8 and a vertex count the energy can sum
        minimize.DiscreteEnergyConfig(p=args.p)
        minimize._combos(len(mesh.vertices))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.mode == "energy":
        state = minimize.minimize_energy_area_cap(mesh, args.p, args.cap,
                                                  args.iters, seed)
    else:
        state = minimize.minimize_area_energy_cap(mesh, args.p, args.cap,
                                                  args.iters, seed)
    if args.audit_out:
        with open(args.audit_out, "w", encoding="utf-8") as fh:
            fh.write("iteration,objective,constraint_value,accepted\n")
            for it, ob, cv, acc in state.audit:
                fh.write(f"{it},{_fmt(ob)},{_fmt(cv)},{str(bool(acc)).lower()}\n")
    if args.mesh_out:
        save_obj(args.mesh_out, state.mesh.vertices, state.mesh.faces)
    config = {"mesh": args.mesh, "mode": args.mode, "cap": args.cap,
              "iters": args.iters, "p": args.p}
    results = {"objective": state.objective,
               "constraint_value": state.constraint_value,
               "best_objective": state.best_objective,
               "iterations": state.iteration,
               "accepted_moves": state.accepted_moves,
               "self_intersecting": bool(state.self_intersecting)}
    table = (["iteration", "objective", "constraint_value", "accepted"],
             [[str(it), _fmt(ob), _fmt(cv), str(bool(acc)).lower()]
              for it, ob, cv, acc in state.audit])
    return config, results, table


_RUNNERS = {
    "integrand": _run_integrand,
    "energy": _run_energy,
    "local-energy": _run_local_energy,
    "scaling": _run_scaling,
    "diverge": _run_diverge,
    "density": _run_density,
    "beta": _run_beta,
    "oscillation": _run_oscillation,
    "goodtetra": _run_goodtetra,
    "minimize": _run_minimize,
}


def _echo_argv(argv):
    out = []
    skip_next = False
    for tok in argv:
        if skip_next:
            skip_next = False
            continue
        if tok in _SKIP_ECHO:
            skip_next = True
            continue
        if tok.split("=", 1)[0] in _SKIP_ECHO:
            continue
        out.append(tok)
    return out


def _emit(args, document, table):
    if args.format == "json":
        payload = json.dumps(document, sort_keys=True, indent=2) + "\n"
    else:
        header, rows = table
        lines = [",".join(header)]
        lines += [",".join(row) for row in rows]
        payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _env_int(name):
    """Integer value of an environment fallback (0 when unset)."""
    raw = os.environ.get(name, "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{name} must be an integer, got {raw!r}") from None


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    t0 = time.monotonic()
    try:
        for name in _POSITIVE_FLAGS:
            value = getattr(args, name, None)
            if value is not None:
                _positive("--" + name.replace("_", "-"), [value])
        _check_int_ranges(args)
        seed = args.seed
        if seed is None:
            seed = _env_int("MENGER_SEED")
        threads = args.threads
        if threads is None:
            least, most = _INT_RANGES["threads"]
            threads = (_env_int("MENGER_THREADS")
                       or min(os.cpu_count() or 1, most))
            if not least <= threads <= most:
                raise UsageError(f"MENGER_THREADS must lie in "
                                 f"{least}..{most}, got {threads}")
        config, results, table = _RUNNERS[args.subcommand](args, seed, threads)
    except UsageError as exc:
        print(f"menger-surf: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"menger-surf: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.monotonic() - t0) * 1000.0

    document = {
        "command": [args.subcommand] + _echo_argv(argv[1:]),
        "config": config,
        "seed": int(seed),
        "results": results,
        "version": __version__,
    }
    _emit(args, document, table)
    # timing stays on the diagnostic stream so the document is reproducible
    print(f"menger-surf: {args.subcommand} finished in {elapsed_ms:.1f} ms",
          file=sys.stderr)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
