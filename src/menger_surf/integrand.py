"""The four-point curvature integrand family and its lemma lower bounds.

Four kinds are supported, all mapping an ordered quadruple T = (x0,x1,x2,x3)
to a nonnegative number and all returning 0 on degenerate input:

* ``menger``       -- V(T) / (A(T) * diam(T)^2), inverse-length scaling;
* ``circumsphere`` -- 1 / R(T), the inverse circumsphere radius;
* ``leger``        -- dist(xi, <x,y,z>) / M(|xi-x|,|xi-y|,|xi-z|)^alpha with
  (x, y, z, xi) = (x0, x1, x2, x3), a mean M and a power alpha > 1; not
  symmetric in the fourth argument;
* ``scaled``       -- h_min(T) / diam(T)^(2+s), inverse-length^(1+s) scaling.
"""

import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import geom
from .geom import LemmaBounds

# each mean of a nonnegative triple, of floats or of arrays
MEANS = {"geometric": lambda a, b, c: np.cbrt(a * b * c),
         "arithmetic": lambda a, b, c: (a + b + c) / 3.0,
         "min": lambda a, b, c: np.minimum(a, np.minimum(b, c)),
         "max": lambda a, b, c: np.maximum(a, np.maximum(b, c))}

# each kind's parameters, each with the test its value must pass and the
# words that the refusal of a failing value ends in
PARAMETERS = {
    "menger": {},
    "circumsphere": {},
    "leger": {"mean": (lambda m: isinstance(m, str) and m in MEANS,
                       f"a mean from {tuple(MEANS)}"),
              "alpha": (lambda a: a is not None and a > 1.0, "alpha > 1")},
    "scaled": {"s": (lambda s: s is not None and s > 0.0, "s > 0")},
}
KINDS = tuple(PARAMETERS)


@dataclass(frozen=True)
class IntegrandSpec:
    """Selects one member of the integrand family.

    A kind takes exactly the parameters that ``PARAMETERS`` lists for it:
    ``mean`` and ``alpha`` for ``leger``, ``s`` for ``scaled``.
    """
    kind: str
    mean: str = None
    alpha: float = None
    s: float = None

    def __post_init__(self):
        for name in ("alpha", "s"):  # ints stay legal, bools do not
            value = getattr(self, name)
            if value is not None and (
                    isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise geom.InputError(f"{name} must be a finite number, got {value!r}")
        if self.kind not in KINDS:
            raise geom.InputError(f"unknown integrand kind {self.kind!r}")
        takes = PARAMETERS[self.kind]
        for name in ("mean", "alpha", "s"):
            value = getattr(self, name)
            if name in takes:
                test, needs = takes[name]
                if not test(value):
                    raise geom.InputError(f"{self.kind} kind needs {needs}")
            elif value is not None:
                raise geom.InputError(f"kind {self.kind!r} takes no parameter {name}")

    def to_dict(self):
        return {"kind": self.kind,
                **{name: getattr(self, name) for name in PARAMETERS[self.kind]}}

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise geom.InputError(f"expected a JSON object, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise geom.InputError(f"unknown keys {unknown}")
        return cls(kind=d.get("kind"), mean=d.get("mean"),
                   alpha=d.get("alpha"), s=d.get("s"))

    @classmethod
    def from_json(cls, text):
        """The spec of a JSON object text; InputError for text that is not
        JSON, with the parser's message."""
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise geom.InputError(str(exc)) from None
        return cls.from_dict(d)


# comparators (i, j) of the sorting networks on 3 and 4 elements
_SORT_NETWORKS = {3: ((0, 1), (1, 2), (0, 1)),
                  4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def _canonical_points(P, out=None):
    """Lexicographically sort the vertices inside each simplex of a stack.

    The symmetric integrands are permutation invariant exactly; fixing a
    canonical vertex order makes the floating-point evaluation invariant too,
    since every ordering then computes the same arithmetic.  Positive scaling
    preserves the canonical order, so exact homogeneity is untouched.

    A sorting network runs on the coordinate columns.  Points that compare
    equal are equal up to the sign of zero coordinates, which no integrand
    depends on, so the order is the one a stable sort gives.  Swaps exchange
    the bits of the columns under an all-ones mask.  The result is an
    (n, k, 3) view of a (k, 3, n) column block, whose columns the geometry
    kernel reads contiguously; given ``out``, a float (k, 3, n) array, the
    block is ``out``, and no new one is made.
    """
    if out is None:
        C = P.transpose(1, 2, 0).copy()
    else:
        C = out
        C[...] = P.transpose(1, 2, 0)
    bits = C.view(np.int64)
    for i, j in _SORT_NETWORKS[P.shape[1]]:
        a, b = C[i], C[j]
        swap = (b[0] < a[0]) | ((b[0] == a[0]) & (
            (b[1] < a[1]) | ((b[1] == a[1]) & (b[2] < a[2]))))
        flip = bits[i] ^ bits[j]
        flip &= -swap.astype(np.int64)
        bits[i] ^= flip
        bits[j] ^= flip
    return C.transpose(2, 0, 1)


def _ranked_block(points, quads, out):
    """Fill ``out``, a float (4, 3, m) array, with the canonical block of
    the quadruples of ``points`` (an (n, 3) array) whose vertex indices are
    the four arrays ``quads``.

    One lexicographic rank of the points orders every quadruple: a sorting
    network of integer minima and maxima sorts its four rank columns, and
    each coordinate column is gathered straight into the block.  The rank
    compares coordinates as the network of ``_canonical_points`` does, so
    points it ties are equal up to the sign of zero coordinates, and the
    block is the one ``_canonical_points(points[quads])`` makes, up to that
    sign.  Like ``_canonical_points``, it returns the (m, 4, 3) view of the
    block.
    """
    order = np.lexsort(points.T[::-1])
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ranked = points[order].T.copy()
    r = [np.take(rank, q) for q in quads]
    for i, j in _SORT_NETWORKS[4]:
        r[i], r[j] = np.minimum(r[i], r[j]), np.maximum(r[i], r[j])
    for i in range(4):
        for k in range(3):
            # mode "clip" writes into ``out`` unbuffered; every rank is in range
            np.take(ranked[k], r[i], out=out[i, k], mode="clip")
    return out.transpose(2, 0, 1)


def eval_batch(spec, P, block=None):
    """Evaluate the integrand on a (n, 4, 3) stack of quadruples.

    ``block``, a float (4, 3, n) array, receives the canonically ordered
    vertices (``_canonical_points``) in place of a new block, so that a
    caller that evaluates chunk after chunk reuses one.
    """
    geom.instance_of(spec, IntegrandSpec, "spec")
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or P.shape[1:] != (4, 3):
        raise geom.InputError("P must be an (n, 4, 3) array of quadruples")
    if spec.kind == "leger":
        base = _canonical_points(P[:, :3], None if block is None else block[:3])
        x, y, z, xi = base[:, 0], base[:, 1], base[:, 2], P[:, 3]
        cross, area, _, base_ok = geom.triangles(x, y, z)
        da = np.linalg.norm(xi - x, axis=1)
        db = np.linalg.norm(xi - y, axis=1)
        dc = np.linalg.norm(xi - z, axis=1)
        m = MEANS[spec.mean](da, db, dc)
        ok = base_ok & (m > 0.0)
        out = np.zeros(len(P))
        dist = (np.abs(np.einsum("ij,ij->i", xi[ok] - x[ok], cross[ok]))
                / (2.0 * area[ok]))
        out[ok] = dist / m[ok] ** spec.alpha
        return out
    return _symmetric(spec, _canonical_points(P, block))


def _symmetric(spec, P):
    """A symmetric kind on a (n, 4, 3) stack whose vertices are canonically
    ordered (``_canonical_points`` or ``_ranked_block``)."""
    out = np.zeros(len(P))
    if spec.kind == "circumsphere":
        radius, coplanar = geom.circumsphere_radius_batch(P)
        ok = ~coplanar & np.isfinite(radius) & (radius > 0.0)
        out[ok] = 1.0 / radius[ok]
        return out
    volume, area, diam, hmin, coplanar = geom.tetra_quantities(P)
    ok = ~coplanar
    if spec.kind == "menger":
        out[ok] = volume[ok] / (area[ok] * diam[ok] ** 2)
    else:
        out[ok] = hmin[ok] / diam[ok] ** (2.0 + spec.s)
    return out


def eval_integrand(spec, T):
    """Evaluate the integrand on one quadruple."""
    T = geom.as_tetra(T)
    return float(eval_batch(spec, T[None])[0])


def lemma_bounds(theta, kappa, d):
    """Lower bounds for the menger integrand on structured tetrahedra.

    A (theta, d)-voluminous tetrahedron has K > theta^4 / (2500 d); one with
    a (theta, d)-wide base, fourth vertex in B(x0, 2d) and at distance at
    least kappa*d from the base plane has K > theta^3 kappa / (2500 d).
    """
    theta = geom.finite_in(theta, "theta", 0, 1)
    kappa = geom.finite_in(kappa, "kappa", 0, 1, "(]")
    d = geom.finite_in(d, "d", 0)
    return LemmaBounds(theta**4 / (2500.0 * d), theta**3 * kappa / (2500.0 * d))
