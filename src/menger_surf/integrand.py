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

KINDS = ("menger", "circumsphere", "leger", "scaled")
MEANS = ("geometric", "arithmetic", "min", "max")


@dataclass(frozen=True)
class IntegrandSpec:
    """Selects one member of the integrand family.

    ``mean`` and ``alpha`` are required for (and only for) kind ``leger``;
    ``s`` is required for (and only for) kind ``scaled``.
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
        if self.kind == "leger":
            if self.mean not in MEANS:
                raise geom.InputError(f"leger kind needs a mean from {MEANS}")
            if self.alpha is None or not self.alpha > 1.0:
                raise geom.InputError("leger kind needs alpha > 1")
            if self.s is not None:
                raise geom.InputError("parameter s is only for the scaled kind")
        elif self.kind == "scaled":
            if self.s is None or not self.s > 0.0:
                raise geom.InputError("scaled kind needs s > 0")
            if self.mean is not None or self.alpha is not None:
                raise geom.InputError("mean/alpha are only for the leger kind")
        else:
            if self.mean is not None or self.alpha is not None or self.s is not None:
                raise geom.InputError(f"kind {self.kind!r} takes no parameters")

    def to_dict(self):
        out = {"kind": self.kind}
        if self.kind == "leger":
            out["mean"] = self.mean
            out["alpha"] = self.alpha
        if self.kind == "scaled":
            out["s"] = self.s
        return out

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


def _canonical_points(P):
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
    kernel reads contiguously.
    """
    C = P.transpose(1, 2, 0).copy()
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


def _mean_batch(name, a, b, c):
    if name == "geometric":
        return np.cbrt(a * b * c)
    if name == "arithmetic":
        return (a + b + c) / 3.0
    if name == "min":
        return np.minimum(a, np.minimum(b, c))
    if name == "max":
        return np.maximum(a, np.maximum(b, c))
    raise geom.InputError(f"unknown mean {name!r}")


def mean_value(name, a, b, c):
    """One of the supported means on a nonnegative triple."""
    return float(_mean_batch(name, float(a), float(b), float(c)))


def eval_batch(spec, P):
    """Evaluate the integrand on a (n, 4, 3) stack of quadruples."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 3 or P.shape[1:] != (4, 3):
        raise geom.InputError("P must be an (n, 4, 3) array of quadruples")
    if spec.kind == "leger":
        base = _canonical_points(P[:, :3])
        x, y, z, xi = base[:, 0], base[:, 1], base[:, 2], P[:, 3]
        cross, area, _, base_ok = geom.triangles(x, y, z)
        da = np.linalg.norm(xi - x, axis=1)
        db = np.linalg.norm(xi - y, axis=1)
        dc = np.linalg.norm(xi - z, axis=1)
        m = _mean_batch(spec.mean, da, db, dc)
        ok = base_ok & (m > 0.0)
        out = np.zeros(len(P))
        dist = (np.abs(np.einsum("ij,ij->i", xi[ok] - x[ok], cross[ok]))
                / (2.0 * area[ok]))
        out[ok] = dist / m[ok] ** spec.alpha
        return out
    # the symmetric kinds, on canonically ordered vertices
    P = _canonical_points(P)
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
    if not (0.0 < theta < 1.0):
        raise geom.InputError("theta must lie in (0, 1)")
    if not (0.0 < kappa <= 1.0):
        raise geom.InputError("kappa must lie in (0, 1]")
    geom.finite_in(d, "d", 0)
    return LemmaBounds(theta**4 / (2500.0 * d), theta**3 * kappa / (2500.0 * d))
