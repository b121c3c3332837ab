"""Command-line frontend: every study as a reproducible, scriptable run.

Each subcommand writes one JSON document (or a CSV table) containing the
command echo, the resolved configuration, the seed, and the results; elapsed
time goes to the diagnostic stream so the written document is bit-identical
for identical configurations regardless of thread count.  All randomness
flows from the single seed through counter-based streams.

A document's results are the fields of the study's result.  Only this module
forms documents, and every CSV table, the audit too, has one writer.

Exit codes: 0 success, 2 any ``InputError`` (an argument that the library
or this module refuses: a flag out of range, a --point off the surface, a
mesh file that fails to parse or is neither OBJ nor OFF, surface parameters
that give no surface or no finite area, a bad --integrand spec), 1 runtime
error (an arithmetic overflow or a numpy RuntimeWarning is one).  The library
checks the arguments it takes; this module checks only its own flags.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, analysis, energy, goodtetra, minimize
from .geom import InputError
from .integrand import IntegrandSpec, eval_integrand
from .rng import substream
from .surface import SurfaceOracle, SurfacePoint, sample_point

SUBCOMMANDS = ("integrand", "energy", "local-energy", "scaling", "diverge",
               "density", "beta", "oscillation", "goodtetra", "minimize")

_SKIP_ECHO = {"--output", "--threads", "--audit-out", "--mesh-out"}

_MESH_FORMATS = ("obj", "off")

# each --analytic kind and the flags of its SurfaceOracle constructor, in order
_ANALYTIC = {"sphere": ("radius",), "torus": ("major_radius", "minor_radius"),
             "saddle": ("extent",), "capsule": ("length", "radius")}

# the integer flags this module checks itself, and their (least, greatest)
# values; the library checks every other argument.  --threads: every
# subcommand takes it, also those that start no worker, and a wave of the
# block driver starts one OS thread per block, hence the cap.  --iters: the
# annealers accept 0, which only scores the start mesh, but a minimize run
# must move.  --proj-rays: verify_projection checks its ray count only after
# the search has run, and a failed search would then hide a bad count.
_INT_RANGES = {"threads": (1, 256), "iters": (1, math.inf),
               "proj_rays": (1, math.inf)}


def _floats(text, n=None):
    try:
        vals = [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}")
    if n is not None and len(vals) != n:
        raise InputError(f"expected {n} comma-separated numbers, got {text!r}")
    return vals


def _check_ranges(args):
    """Raise InputError for an integer flag outside its range."""
    for name, (least, most) in _INT_RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not least <= value <= most:
            bound = f"at least {least}" if value < least else f"at most {most}"
            raise InputError(f"--{name.replace('_', '-')} must be {bound}, "
                             f"got {value}")


def _add_surface_flags(sp):
    sp.add_argument("--mesh", help="path to an OBJ/OFF mesh")
    sp.add_argument("--mesh-format", choices=_MESH_FORMATS)
    sp.add_argument("--analytic", choices=tuple(_ANALYTIC))
    sp.add_argument("--radius", type=float, help="sphere/capsule radius")
    sp.add_argument("--major-radius", type=float)
    sp.add_argument("--minor-radius", type=float)
    sp.add_argument("--extent", type=float, help="saddle patch half-side")
    sp.add_argument("--length", type=float, help="capsule cylinder length")


def _resolve_surface(args):
    if (args.mesh is None) == (args.analytic is None):
        raise InputError("need exactly one surface source: --mesh or --analytic")
    if args.mesh is not None:
        return SurfaceOracle.from_file(args.mesh, args.mesh_format)
    kind, names = args.analytic, _ANALYTIC[args.analytic]
    values = [getattr(args, name) for name in names]
    if None in values:
        raise InputError(f"--analytic {kind} needs " + " and ".join(
            "--" + name.replace("_", "-") for name in names))
    try:
        return getattr(SurfaceOracle, kind)(*values)
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        # no such surface, or one whose size overflows a float
        raise InputError(f"--analytic {kind}: {exc}") from None


def _resolve_spec(args):
    try:
        return IntegrandSpec.from_json(args.integrand)
    except (ValueError, KeyError) as exc:
        raise InputError(f"bad integrand spec: {exc}")


def _resolve_point(args, oracle, seed):
    if getattr(args, "point", None) is not None:
        return oracle.point_on_surface(_floats(args.point, 3), "--point")
    if getattr(args, "seed_vertex", None) is not None:
        if not oracle.is_mesh:
            raise InputError("--seed-vertex needs a mesh surface")
        mesh = oracle.backing
        vi = int(args.seed_vertex)
        if not 0 <= vi < len(mesh.vertices):
            raise InputError(f"--seed-vertex {vi} out of range "
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

    for name in ("density", "beta", "oscillation", "goodtetra"):
        common[name].add_argument("--point")
        common[name].add_argument("--seed-vertex", type=int)

    common["density"].add_argument("--patch-radius", type=float, required=True)
    common["density"].add_argument("--depth", type=int, default=8)

    common["beta"].add_argument("--patch-radius", type=float, required=True)
    common["beta"].add_argument("--patch-samples", type=int, default=4000)
    common["beta"].add_argument("--grid-level", type=int, default=1)

    common["oscillation"].add_argument("--scales", required=True)
    common["oscillation"].add_argument("--pairs", type=int, default=400)

    common["goodtetra"].add_argument("--rays", type=int, default=4096)
    common["goodtetra"].add_argument("--hit-tol", type=float, default=1e-3)
    common["goodtetra"].add_argument("--proj-rays", type=int, default=800)

    mz = common["minimize"]
    mz.add_argument("--mesh", required=True)
    mz.add_argument("--mesh-format", choices=_MESH_FORMATS)
    mz.add_argument("--mode", choices=("energy", "area"), required=True)
    mz.add_argument("--cap", type=float, required=True)
    mz.add_argument("--iters", type=int, required=True)
    mz.add_argument("--p", type=float, required=True)
    mz.add_argument("--audit-out", help="write the iteration audit CSV here")
    mz.add_argument("--mesh-out", help="write the final mesh OBJ here")
    return ap


def _document(value):
    """A result as document values: a dataclass becomes a dict of its fields,
    lists and tuples become lists, and numpy arrays and scalars Python ones.
    A value with its own ``to_dict`` (an ``IntegrandSpec``) uses it."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _document(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_document(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _cell(value):
    """One CSV cell: booleans in lower case, integers and text as they are,
    other numbers at 17 significant digits."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, str)):
        return str(value)
    return format(float(value), ".17g")


def _csv(header, rows):
    """The CSV text of a table, one line per row of values."""
    lines = [",".join(header)]
    lines += [",".join(map(_cell, _document(row))) for row in rows]
    return "\n".join(lines) + "\n"


def _named(results, *names):
    """The one-row table of the named fields of a results dict."""
    return names, [[results[name] for name in names]]


# ---------------------------------------------------------------------------
# subcommand runners: return (config_dict, results_dict, (header, rows))
# ---------------------------------------------------------------------------

def _run_integrand(args, seed, threads):
    spec = _resolve_spec(args)
    T = np.asarray(_floats(args.tetra, 12)).reshape(4, 3)
    results = {"value": eval_integrand(spec, T)}
    config = {"spec": spec.to_dict(), "tetra": T.tolist()}
    return config, results, _named(results, "value")


def _run_energy(args, seed, threads):
    oracle = _resolve_surface(args)
    spec = _resolve_spec(args)
    est = energy.estimate_mp(oracle, spec, args.p, args.samples, seed,
                             threads=threads)
    config = {"surface": oracle.describe(), "spec": spec.to_dict(),
              "p": args.p, "samples": args.samples}
    results = _document(est)
    return config, results, _named(results, "value", "std_error", "n_samples")


def _run_local_energy(args, seed, threads):
    oracle = _resolve_surface(args)
    spec = _resolve_spec(args)
    center = _floats(args.center, 3)
    est = energy.local_energy(oracle, center, args.patch_radius, spec,
                              args.p, args.samples, seed, threads=threads)
    config = {"surface": oracle.describe(), "spec": spec.to_dict(),
              "p": args.p, "samples": args.samples, "center": center,
              "patch_radius": args.patch_radius}
    results = _document(est)
    return config, results, _named(results, "value", "std_error", "n_samples")


def _run_scaling(args, seed, threads):
    spec = _resolve_spec(args)
    radii = _floats(args.radii)
    rows = energy.scaling_study(spec, args.p, radii, args.samples, seed,
                                threads=threads)
    config = {"spec": spec.to_dict(), "p": args.p, "samples": args.samples,
              "radii": radii}
    table = (["radius", "value", "std_error", "normalized"],
             [[r.radius, r.estimate.value, r.estimate.std_error, r.normalized]
              for r in rows])
    return config, {"rows": _document(rows)}, table


def _run_diverge(args, seed, threads):
    rows, slope = energy.divergence_study(args.alpha, args.p, args.mean,
                                          args.eps, args.nmax, args.samples,
                                          seed, threads=threads)
    config = {"alpha": args.alpha, "p": args.p, "mean": args.mean,
              "eps": args.eps, "nmax": args.nmax, "samples": args.samples}
    results = {"rows": _document(rows), "fitted_slope": slope,
               "predicted_slope": 12.0 + (1.0 - args.alpha) * args.p}
    table = (["n", "r_n", "patch_integral", "std_error", "fitted_slope"],
             [[r.n, r.r_n, r.patch_integral, r.std_error, slope] for r in rows])
    return config, results, table


def _run_density(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    rep = analysis.density_quotient(oracle, point, args.patch_radius,
                                    args.depth)
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "patch_radius": args.patch_radius, "depth": args.depth}
    results = _document(rep)
    return config, results, _named(results, "radius", "patch_area", "quotient",
                                   "passes_lower_bound", "error_bound")


def _run_beta(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    rep = analysis.beta_number(oracle, point, args.patch_radius,
                               args.patch_samples, args.grid_level, seed)
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "patch_radius": args.patch_radius,
              "patch_samples": args.patch_samples,
              "grid_level": args.grid_level}
    results = _document(rep)
    return config, results, _named(results, "radius", "beta", "grid_level")


def _run_oscillation(args, seed, threads):
    oracle = _resolve_surface(args)
    point = _resolve_point(args, oracle, seed)
    scales = _floats(args.scales)
    profile = analysis.normal_oscillation_profile(oracle, point, scales,
                                                  args.pairs, seed)
    config = {"surface": oracle.describe(), "point": point.tolist(),
              "scales": scales, "pairs": args.pairs}
    results = {"profile": _document(profile)}
    # fit only the scales with positive oscillation, when 3 or more have it
    positive = [(d, osc) for d, osc in profile if osc > 0.0]
    if len(positive) >= 3:
        results["fit"] = _document(analysis.holder_exponent_fit(positive))
    return config, results, (["scale", "max_oscillation"], profile)


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
    results = {**_document(res), "projection_fraction": frac}
    return config, results, _named(
        results, "stopping_distance", "case_label", "eta_achieved",
        "iterations", "projection_fraction")


def _run_minimize(args, seed, threads):
    from .surface import load_mesh, save_obj
    mesh = load_mesh(args.mesh, args.mesh_format)
    if args.mode == "energy":
        state = minimize.minimize_energy_area_cap(mesh, args.p, args.cap,
                                                  args.iters, seed)
    else:
        state = minimize.minimize_area_energy_cap(mesh, args.p, args.cap,
                                                  args.iters, seed)
    table = (["iteration", "objective", "constraint_value", "accepted"],
             state.audit)
    if args.audit_out:
        _emit(args.audit_out, _csv(*table))
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


def _emit(path, text):
    """Write text to the file at path, or to stdout when path is None."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _env_int(name):
    """Integer value of an environment fallback (0 when unset)."""
    raw = os.environ.get(name, "0")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None


def run(argv):
    """Execute one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    t0 = time.monotonic()
    try:
        _check_ranges(args)
        seed = args.seed
        if seed is None:
            seed = _env_int("MENGER_SEED")
        threads = args.threads
        if threads is None:
            least, most = _INT_RANGES["threads"]
            threads = (_env_int("MENGER_THREADS")
                       or min(os.cpu_count() or 1, most))
            if not least <= threads <= most:
                raise InputError(f"MENGER_THREADS must lie in "
                                 f"{least}..{most}, got {threads}")
        with warnings.catch_warnings():  # e.g. numpy's overflow warnings
            warnings.simplefilter("error", RuntimeWarning)
            config, results, table = _RUNNERS[args.subcommand](args, seed,
                                                               threads)
        if args.format == "csv":
            text = _csv(*table)
        else:  # a non-finite value raises ValueError: it is not JSON
            document = {
                "command": [args.subcommand] + _echo_argv(argv[1:]),
                "config": config,
                "seed": int(seed),
                "results": results,
                "version": __version__,
            }
            text = json.dumps(document, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
    except InputError as exc:  # a bad mesh file is bad input too
        print(f"menger-surf: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, RuntimeError, ArithmeticError,
            RuntimeWarning) as exc:
        print(f"menger-surf: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.monotonic() - t0) * 1000.0

    _emit(args.output, text)
    # timing stays on the diagnostic stream so the document is reproducible
    print(f"menger-surf: {args.subcommand} finished in {elapsed_ms:.1f} ms",
          file=sys.stderr)
    return 0


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
