"""In-memory span tracer built from wrappers around the package's public names.

Tracing never edits the package: ``Tracer.install`` replaces each traced name
at every place it is looked up (``energy.eval_batch`` and
``minimize.eval_batch`` are separate bindings of ``integrand.eval_batch``, so
each is patched), and ``Tracer.uninstall`` puts the originals back.  Spans
are kept in a list and written out once, at the end of a run.
"""

import functools
import itertools
import json
import threading
import time

from menger_surf import analysis, energy, geom, goodtetra, integrand, minimize
from menger_surf import surface
from menger_surf.surface import SurfaceOracle, TriMesh
from menger_surf.surface.analytic import Torus

# Layers that a traced run of each workload must have seen at least once.
EXPECTED_LAYERS = {
    "mc-energy": ("surface", "geom", "integrand", "energy"),
    "goodtetra": ("surface", "goodtetra"),
    "anneal": ("geom", "integrand", "minimize"),
    "patch-diagnostics": ("surface", "geom", "integrand", "energy", "analysis"),
}

CASE_LABELS = ("central_hit_a", "central_hit_b", "wide_pair",
               "antipodal_3a", "antipodal_3b")

ANNEAL_SPANS = ("minimize.energy_area_cap", "minimize.area_energy_cap")
AUDIT_SPANS = ("minimize.discrete_energy", "minimize.has_self_intersections")
RAY_SPANS = ("surface.band_min_hits", "surface.segment_hits")
PATCH_SPANS = ("energy.local_energy", "analysis.patch_samples")


def _kind(oracle):
    if isinstance(oracle.backing, TriMesh):
        return "mesh"
    if isinstance(oracle.backing, Torus):
        return "torus"
    return "other"


# (owner, attribute, span name, counter) for every traced binding.  A counter
# maps (args, result) to the span's counts.
def _bindings():
    n_quads = lambda a, out: {"n": len(a[1])}
    n_tetra = lambda a, out: {"n": len(a[0])}
    anneal = lambda a, out: {"iters": out.iteration,
                             "accepted": out.accepted_moves}
    return [
        (integrand, "eval_batch", "integrand.eval_batch", n_quads),
        (energy, "eval_batch", "integrand.eval_batch", n_quads),
        (minimize, "eval_batch", "integrand.eval_batch", n_quads),
        (geom, "tetra_quantities", "geom.tetra_quantities", n_tetra),
        (geom, "circumsphere_radius_batch", "geom.circumsphere_radius_batch",
         n_tetra),
        (SurfaceOracle, "sample", "surface.sample",
         lambda a, out: {"n": a[2], "kind": _kind(a[0])}),
        (SurfaceOracle, "sample_points", "surface.sample",
         lambda a, out: {"n": a[2], "kind": _kind(a[0])}),
        (SurfaceOracle, "band_min_hits", "surface.band_min_hits",
         lambda a, out: {"n": len(a[2]), "kind": _kind(a[0])}),
        (SurfaceOracle, "segment_hits", "surface.segment_hits",
         lambda a, out: {"n": 1, "kind": _kind(a[0])}),
        (SurfaceOracle, "tessellate", "surface.tessellate", None),
        (surface, "load_mesh", "surface.load_mesh", None),
        (energy, "estimate_mp", "energy.estimate_mp", None),
        (energy, "local_energy", "energy.local_energy",
         lambda a, out: {"used": 4 * out.n_samples}),
        (analysis, "density_quotient", "analysis.density_quotient", None),
        (analysis, "beta_number", "analysis.beta_number", None),
        (analysis, "normal_oscillation_profile", "analysis.oscillation", None),
        (analysis, "patch_samples", "analysis.patch_samples",
         lambda a, out: {"used": len(out)}),
        (goodtetra, "find_good_tetra", "goodtetra.find_good_tetra",
         lambda a, out: {"iters": out.iterations, "label": out.case_label}),
        (goodtetra, "verify_projection", "goodtetra.verify_projection", None),
        (minimize, "minimize_energy_area_cap", "minimize.energy_area_cap",
         anneal),
        (minimize, "minimize_area_energy_cap", "minimize.area_energy_cap",
         anneal),
        (minimize, "discrete_energy", "minimize.discrete_energy", None),
        (minimize, "has_self_intersections", "minimize.has_self_intersections",
         None),
    ]


class Tracer:
    """Span recorder with one span stack per thread.

    A span opened on a thread whose own stack is empty (a worker of the
    estimator's thread pool) takes the innermost open span of the installing
    thread as its parent; the benchmark runs one operation at a time, so that
    span is the call that started the pool.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._driver_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        else:
            driver = self._driver_stack
            parent = driver[-1]["id"] if driver else None
        span = {"id": next(self._ids), "name": name, "parent": parent,
                "thread": threading.get_ident(), "t0": time.perf_counter()}
        stack.append(span)
        return span

    def close(self, span):
        span["t1"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span, for the benchmark's own calls."""
        if not self.active:
            return fn(*args, **kwargs)
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _wrap(self, original, name, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                out = original(*args, **kwargs)
                if counter is not None:
                    span.update(counter(args, out))
                return out
            finally:
                tracer.close(span)
        return traced

    def install(self):
        for owner, attr, name, counter in _bindings():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# per-layer metrics from recorded spans
# ---------------------------------------------------------------------------

def _self_times(spans):
    """Span duration minus the part of its interval its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, end = 0.0, s["t0"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(setup_spans, round_spans, rounds):
    """Per-layer metrics: setup figures per set-up, the rest per traced round.

    Layers a workload does not reach report 0.
    """
    by_id = {s["id"]: s for s in round_spans}
    self_t = _self_times(round_spans)
    dur = lambda s: s["t1"] - s["t0"]

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def under(s, names):
        p = by_id.get(s["parent"])
        while p is not None:
            if p["name"] in names:
                return True
            p = by_id.get(p["parent"])
        return False

    def named(*names):
        return [s for s in round_spans if s["name"] in names]

    per_round = lambda x: x / rounds
    m = {}

    evals = named("integrand.eval_batch")
    quads = sum(s["n"] for s in evals)
    m["integrand.self_s"] = per_round(sum(self_t[s["id"]] for s in evals))
    m["integrand.quads"] = per_round(quads)
    m["integrand.calls"] = per_round(len(evals))
    m["integrand.ns_per_quad"] = _ratio(sum(map(dur, evals)), quads, 1e9)

    tetra = [s for s in round_spans if s["name"].startswith("geom.")
             and not (parent_name(s) or "").startswith("geom.")]
    n_tetra = sum(s["n"] for s in tetra)
    m["geom.tetra_s"] = per_round(sum(map(dur, tetra)))
    m["geom.tetras"] = per_round(n_tetra)
    m["geom.ns_per_tetra"] = _ratio(sum(map(dur, tetra)), n_tetra, 1e9)

    samples = named("surface.sample")
    points = sum(s["n"] for s in samples)
    drawn = sum(s["n"] for s in samples if under(s, PATCH_SPANS))
    used = sum(s["used"] for s in named(*PATCH_SPANS))
    m["surface.sample_s"] = per_round(sum(map(dur, samples)))
    m["surface.points"] = per_round(points)
    m["surface.ns_per_point"] = _ratio(sum(map(dur, samples)), points, 1e9)
    m["surface.accept_ratio"] = _ratio(used, drawn)

    rays = named(*RAY_SPANS)
    m["surface.ray_s"] = per_round(sum(map(dur, rays)))
    m["surface.rays"] = per_round(sum(s["n"] for s in rays))
    for kind in ("mesh", "torus"):
        of_kind = [s for s in rays if s["kind"] == kind]
        m[f"surface.us_per_ray.{kind}"] = _ratio(
            sum(map(dur, of_kind)), sum(s["n"] for s in of_kind), 1e6)
    m["surface.segment_calls"] = per_round(len(named("surface.segment_hits")))

    def setup_total(name):
        return sum(dur(s) for s in setup_spans if s["name"] == name)
    m["surface.build_s"] = setup_total("surface.build")
    m["surface.load_s"] = setup_total("surface.load_mesh")
    m["surface.tessellate_s"] = setup_total("surface.tessellate")

    energy_spans = named("energy.estimate_mp", "energy.local_energy")
    m["energy.self_s"] = per_round(sum(self_t[s["id"]] for s in energy_spans))
    m["energy.chunks"] = per_round(sum(
        1 for s in evals if parent_name(s) == "energy.estimate_mp"))

    m["analysis.density_s"] = per_round(
        sum(map(dur, named("analysis.density_quotient"))))
    m["analysis.beta_s"] = per_round(sum(map(dur, named("analysis.beta_number"))))
    m["analysis.oscillation_s"] = per_round(
        sum(map(dur, named("analysis.oscillation"))))

    searches = named("goodtetra.find_good_tetra")
    search_rays = sum(s["n"] for s in rays
                      if under(s, ("goodtetra.find_good_tetra",)))
    m["goodtetra.self_s"] = per_round(sum(self_t[s["id"]] for s in searches))
    m["goodtetra.verify_s"] = per_round(
        sum(map(dur, named("goodtetra.verify_projection"))))
    m["goodtetra.iterations"] = per_round(sum(s["iters"] for s in searches))
    m["goodtetra.rays_per_search"] = _ratio(search_rays, len(searches))
    for label in CASE_LABELS:
        m[f"goodtetra.case.{label}"] = per_round(
            sum(1 for s in searches if s["label"] == label))

    anneals = named(*ANNEAL_SPANS)
    m["minimize.self_s"] = per_round(sum(self_t[s["id"]] for s in anneals))
    m["minimize.integrand_s"] = per_round(sum(
        dur(s) for s in evals if parent_name(s) in ANNEAL_SPANS))
    m["minimize.audit_s"] = per_round(sum(
        dur(s) for s in named(*AUDIT_SPANS) if under(s, ANNEAL_SPANS)))
    m["minimize.accept_ratio"] = _ratio(sum(s["accepted"] for s in anneals),
                                        sum(s["iters"] for s in anneals))
    return m


def layers_seen(spans):
    """Span count of each layer, keyed by the layer's module name."""
    seen = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        seen[layer] = seen.get(layer, 0) + 1
    return seen
