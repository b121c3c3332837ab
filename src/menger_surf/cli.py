"""Command-line frontend: every study as a reproducible, scriptable run.

Each subcommand writes one JSON document (or a CSV table) containing the
command echo, the resolved configuration, the seed, and the results; elapsed
time goes to the diagnostic stream so the written document is bit-identical
for identical configurations regardless of thread count.  All randomness
flows from the single seed through counter-based streams.

A document's results are the fields of the study's result.  Only this module
forms documents, and every CSV table, the audit too, has one writer.

Exit codes: 0 success, 2 a usage error or any ``InputError`` (an argument
that the library or this module refuses: a flag out of range or that the
surface source does not take, a --point off the surface, a mesh file that
fails to parse or has no reader, surface parameters that give no surface or
no finite area, a bad --integrand spec), 1 runtime error (an arithmetic
overflow or a numpy RuntimeWarning is one).  The library checks the
arguments it takes; this module checks only its own flags.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, energy, goodtetra, minimize
from .geom import InputError
from .integrand import MEANS, IntegrandSpec, eval_integrand
from .rng import substream
from .surface import (READERS, SurfaceOracle, SurfacePoint, load_mesh,
                      sample_point, save_obj)

_SKIP_ECHO = {"--output", "--threads", "--audit-out", "--mesh-out"}

# each --analytic kind and the flags of its SurfaceOracle constructor, in order
_ANALYTIC = {"sphere": ("radius",), "torus": ("major_radius", "minor_radius"),
             "saddle": ("extent",), "capsule": ("length", "radius")}
# every flag of _ANALYTIC, each once
_SHAPE_FLAGS = tuple(dict.fromkeys(f for names in _ANALYTIC.values() for f in names))

# the integer flags this module checks itself, and their (least, greatest)
# values; the library checks every other argument.  --threads: every
# subcommand takes it, also those that start no worker, and a wave of the
# block driver starts one OS thread per block, hence the cap.  --iters: the
# annealers accept 0, which only scores the start mesh, but a minimize run
# must move.  --proj-rays: verify_projection checks its ray count only after
# the search has run, and a failed search would then hide a bad count.
_INT_RANGES = {"threads": (1, 256), "iters": (1, math.inf),
               "proj_rays": (1, math.inf)}


def _flag(name):
    """The command-line spelling of an argument name."""
    return "--" + name.replace("_", "-")


def _floats(text, shape=None):
    """The comma-separated numbers of text, nested to shape if one is given."""
    try:
        vals = [float(v) for v in str(text).split(",") if v != ""]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}")
    n = len(vals) if shape is None else math.prod(shape)
    if len(vals) != n:
        raise InputError(f"expected {n} comma-separated numbers, got {text!r}")
    return np.reshape(vals, shape or n).tolist()


def _check_ranges(args):
    """Raise InputError for an integer flag outside its range."""
    for name, (least, most) in _INT_RANGES.items():
        value = getattr(args, name, None)
        if value is not None and not least <= value <= most:
            bound = f"at least {least}" if value < least else f"at most {most}"
            raise InputError(f"{_flag(name)} must be {bound}, got {value}")


def _add_surface_flags(sp):
    sp.add_argument("--mesh", help="path to a mesh file")
    sp.add_argument("--mesh-format", choices=tuple(READERS))
    sp.add_argument("--analytic", choices=tuple(_ANALYTIC))
    for name in _SHAPE_FLAGS:
        sp.add_argument(_flag(name), type=float, help="for --analytic " + ", ".join(
            kind for kind, names in _ANALYTIC.items() if name in names))


def _resolve_surface(args):
    if (args.mesh is None) == (args.analytic is None):
        raise InputError("need exactly one surface source: --mesh or --analytic")
    takes = _ANALYTIC.get(args.analytic, ("mesh_format",))
    source = "--mesh" if args.mesh is not None else f"--analytic {args.analytic}"
    for name in ("mesh_format",) + _SHAPE_FLAGS:
        if name not in takes and getattr(args, name) is not None:
            raise InputError(f"{source} takes no {_flag(name)}")
    if args.mesh is not None:
        return SurfaceOracle.from_file(args.mesh, args.mesh_format)
    values = [getattr(args, name) for name in takes]
    if None in values:
        raise InputError(f"{source} needs " + " and ".join(map(_flag, takes)))
    try:
        return getattr(SurfaceOracle, args.analytic)(*values)
    except (ValueError, ArithmeticError, RuntimeWarning) as exc:
        # no such surface, or one whose size overflows a float
        raise InputError(f"{source}: {exc}") from None


def _resolve_spec(args):
    try:
        return IntegrandSpec.from_json(args.integrand)
    except InputError as exc:
        raise InputError(f"bad integrand spec: {exc}")


def _resolve_point(args, oracle, seed):
    if args.point is not None:
        return oracle.point_on_surface(_floats(args.point, (3,)), "--point")
    if args.seed_vertex is not None:
        if not oracle.is_mesh:
            raise InputError("--seed-vertex needs a mesh surface")
        mesh = oracle.backing
        vi = int(args.seed_vertex)
        if not 0 <= vi < len(mesh.vertices):
            raise InputError(f"--seed-vertex {vi} out of range "
                             f"(mesh has {len(mesh.vertices)} vertices)")
        return mesh.vertices[vi]
    return sample_point(oracle, substream(seed, 0x504F494E)).position


def _resolve(args, seed):
    """(config, inputs) of args' subcommand: the inputs are args plus the
    surface, point and spec its row resolves, in that order, with each list
    flag parsed; the config holds each of them, then each own flag not quiet."""
    row = _SUBCOMMANDS[args.subcommand]
    got = argparse.Namespace(**vars(args))
    config = {}
    if "surface" in row.resolves:
        got.surface = _resolve_surface(args)
        config["surface"] = got.surface.describe()
    if "point" in row.resolves:
        got.point = _resolve_point(args, got.surface, seed)
        config["point"] = got.point.tolist()
    if "spec" in row.resolves:
        got.spec = _resolve_spec(args)
        config["spec"] = got.spec.to_dict()
    for name, kwargs in row.flags.items():
        if "floats" in kwargs:
            setattr(got, name, _floats(getattr(args, name), kwargs["floats"]))
        if name not in row.quiet:
            config[name] = getattr(got, name)
    return config, got


def build_parser():
    ap = argparse.ArgumentParser(
        prog="menger-surf",
        description="Curvature-energy studies of surfaces")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="subcommand", required=True)

    for name, row in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None)
        sp.add_argument("--output", help="write the document here (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if "surface" in row.resolves:
            _add_surface_flags(sp)
        if "point" in row.resolves:
            point = sp.add_mutually_exclusive_group()
            point.add_argument("--point")
            point.add_argument("--seed-vertex", type=int)
        if "spec" in row.resolves:
            sp.add_argument("--integrand", default='{"kind":"menger"}')
        for flag, kwargs in row.flags.items():
            sp.add_argument(_flag(flag), **{key: value for key, value in
                                            kwargs.items() if key != "floats"})
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
# subcommand runners: take the inputs that _resolve forms, the seed and the
# thread count; return (results_dict, (header, rows))
# ---------------------------------------------------------------------------

def _run_integrand(a, seed, threads):
    results = {"value": eval_integrand(a.spec, a.tetra)}
    return results, _named(results, "value")


def _run_energy(a, seed, threads):
    results = _document(energy.estimate_mp(a.surface, a.spec, a.p, a.samples,
                                           seed, threads=threads))
    return results, _named(results, "value", "std_error", "n_samples")


def _run_local_energy(a, seed, threads):
    results = _document(energy.local_energy(
        a.surface, a.center, a.patch_radius, a.spec, a.p, a.samples, seed,
        threads=threads))
    return results, _named(results, "value", "std_error", "n_samples")


def _run_scaling(a, seed, threads):
    rows = energy.scaling_study(a.spec, a.p, a.radii, a.samples, seed,
                                threads=threads)
    table = (["radius", "value", "std_error", "normalized"],
             [[r.radius, r.estimate.value, r.estimate.std_error, r.normalized]
              for r in rows])
    return {"rows": _document(rows)}, table


def _run_diverge(a, seed, threads):
    rows, slope = energy.divergence_study(a.alpha, a.p, a.mean, a.eps, a.nmax,
                                          a.samples, seed, threads=threads)
    results = {"rows": _document(rows), "fitted_slope": slope,
               "predicted_slope": 12.0 + (1.0 - a.alpha) * a.p}
    table = (["n", "r_n", "patch_integral", "std_error", "fitted_slope"],
             [[r.n, r.r_n, r.patch_integral, r.std_error, slope] for r in rows])
    return results, table


def _run_density(a, seed, threads):
    results = _document(analysis.density_quotient(a.surface, a.point,
                                                  a.patch_radius, a.depth))
    return results, _named(results, "radius", "patch_area", "quotient",
                           "passes_lower_bound", "error_bound")


def _run_beta(a, seed, threads):
    results = _document(analysis.beta_number(
        a.surface, a.point, a.patch_radius, a.patch_samples, a.grid_level, seed))
    return results, _named(results, "radius", "beta", "grid_level")


def _run_oscillation(a, seed, threads):
    profile = analysis.normal_oscillation_profile(a.surface, a.point, a.scales,
                                                  a.pairs, seed)
    results = {"profile": _document(profile)}
    # fit only the scales with positive oscillation, when 3 or more have it
    positive = [(d, osc) for d, osc in profile if osc > 0.0]
    if len(positive) >= 3:
        results["fit"] = _document(analysis.holder_exponent_fit(positive))
    return results, (["scale", "max_oscillation"], profile)


def _run_goodtetra(a, seed, threads):
    params = goodtetra.GoodTetraParams(ray_count=a.rays, hit_tolerance=a.hit_tol)
    res = goodtetra.find_good_tetra(
        a.surface, SurfacePoint(a.point, a.surface.normal_at(a.point)), params)
    frac = goodtetra.verify_projection(
        a.surface, res.vertices[0], res.stopping_distance / 2.0,
        res.witness_plane_normal, n_rays=a.proj_rays, seed=seed)
    results = {**_document(res), "projection_fraction": frac}
    return results, _named(
        results, "stopping_distance", "case_label", "eta_achieved",
        "iterations", "projection_fraction")


def _run_minimize(a, seed, threads):
    anneal = (minimize.minimize_energy_area_cap if a.mode == "energy"
              else minimize.minimize_area_energy_cap)
    state = anneal(load_mesh(a.mesh, a.mesh_format), a.p, a.cap, a.iters, seed)
    table = (["iteration", "objective", "constraint_value", "accepted"],
             state.audit)
    if a.audit_out:
        _emit(a.audit_out, _csv(*table))
    if a.mesh_out:
        save_obj(a.mesh_out, state.mesh.vertices, state.mesh.faces)
    results = {"objective": state.objective,
               "constraint_value": state.constraint_value,
               "best_objective": state.best_objective,
               "iterations": state.iteration,
               "accepted_moves": state.accepted_moves,
               "self_intersecting": bool(state.self_intersecting)}
    return results, table


class _Row(NamedTuple):
    """A subcommand: its runner, the inputs it resolves (of "surface", "point"
    and "spec"), its own flags by dest name with their argparse keywords, and
    the own flags that its config leaves out.  A flag's "floats" keyword, the
    shape or None for any length, makes it a list of numbers that _resolve
    parses after argparse, so that a bad list is an InputError."""
    run: object
    resolves: tuple
    flags: dict
    quiet: tuple = ()


_FLOAT = {"type": float, "required": True}
_INT = {"type": int, "required": True}
_FLOATS = {"required": True, "floats": None}

# every subcommand, in the order of the parser's list
_SUBCOMMANDS = {
    "integrand": _Row(_run_integrand, ("spec",), {"tetra": {
        "required": True, "help": "12 comma-separated coordinates",
        "floats": (4, 3)}}),
    "energy": _Row(_run_energy, ("surface", "spec"),
                   {"p": _FLOAT, "samples": _INT}),
    "local-energy": _Row(_run_local_energy, ("surface", "spec"), {
        "p": _FLOAT, "samples": _INT,
        "center": {"required": True, "floats": (3,)}, "patch_radius": _FLOAT}),
    "scaling": _Row(_run_scaling, ("spec",),
                    {"p": _FLOAT, "samples": _INT, "radii": _FLOATS}),
    "diverge": _Row(_run_diverge, (), {
        "p": _FLOAT, "samples": _INT, "alpha": _FLOAT,
        "eps": {"type": float, "default": 0.05},
        "nmax": {"type": int, "default": 5},
        "mean": {"default": "geometric", "choices": tuple(MEANS)}}),
    "density": _Row(_run_density, ("surface", "point"), {
        "patch_radius": _FLOAT, "depth": {"type": int, "default": 8}}),
    "beta": _Row(_run_beta, ("surface", "point"), {
        "patch_radius": _FLOAT, "patch_samples": {"type": int, "default": 4000},
        "grid_level": {"type": int, "default": 1}}),
    "oscillation": _Row(_run_oscillation, ("surface", "point"), {
        "scales": _FLOATS, "pairs": {"type": int, "default": 400}}),
    "goodtetra": _Row(_run_goodtetra, ("surface", "point"), {
        "rays": {"type": int, "default": 4096},
        "hit_tol": {"type": float, "default": 1e-3},
        "proj_rays": {"type": int, "default": 800}}),
    "minimize": _Row(_run_minimize, (), {
        "mesh": {"required": True}, "mesh_format": {"choices": tuple(READERS)},
        "mode": {"choices": ("energy", "area"), "required": True},
        "cap": _FLOAT, "iters": _INT, "p": _FLOAT,
        "audit_out": {"help": "write the iteration audit CSV here"},
        "mesh_out": {"help": "write the final mesh OBJ here"}},
        quiet=("mesh_format", "audit_out", "mesh_out")),
}
_RUNNERS = {name: row.run for name, row in _SUBCOMMANDS.items()}


def _echo_argv(argv):
    """argv without the flags of _SKIP_ECHO and their values."""
    out, skip = [], False
    for tok in argv:
        if not skip and tok.split("=", 1)[0] not in _SKIP_ECHO:
            out.append(tok)
        skip = not skip and tok in _SKIP_ECHO
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
        seed = _env_int("MENGER_SEED") if args.seed is None else args.seed
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
            config, inputs = _resolve(args, seed)
            results, table = _RUNNERS[args.subcommand](inputs, seed, threads)
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
