import itertools

import numpy as np
import pytest
from pytest import approx

from conftest import (BAD_SPECS, exactly, random_tetrahedra,
                      voluminous_tetrahedra, wide_base_tetrahedra)
from kernel_oracle import menger_cross_form_batch
from menger_surf import InputError, geom
from menger_surf.integrand import (MEANS, IntegrandSpec, eval_batch,
                                   eval_integrand, lemma_bounds)

REG_TET = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.5, np.sqrt(3.0) / 2.0, 0.0],
    [0.5, np.sqrt(3.0) / 6.0, np.sqrt(2.0 / 3.0)],
])

MENGER = IntegrandSpec(kind="menger")
CIRCUM = IntegrandSpec(kind="circumsphere")


class TestSpec:
    def test_leger_requires_mean_and_alpha(self):
        IntegrandSpec(kind="leger", mean="geometric", alpha=3.0)
        with pytest.raises(ValueError):
            IntegrandSpec(kind="leger", alpha=3.0)
        with pytest.raises(ValueError):
            IntegrandSpec(kind="leger", mean="geometric", alpha=1.0)

    def test_scaled_requires_s(self):
        IntegrandSpec(kind="scaled", s=0.5)
        with pytest.raises(ValueError):
            IntegrandSpec(kind="scaled")
        with pytest.raises(ValueError):
            IntegrandSpec(kind="scaled", s=-1.0)

    def test_extraneous_parameters_rejected(self):
        with pytest.raises(ValueError):
            IntegrandSpec(kind="menger", alpha=2.0)
        with pytest.raises(ValueError):
            IntegrandSpec(kind="leger", mean="geometric", alpha=2.0, s=1.0)

    def test_json_round_trip(self):
        for spec in (MENGER, CIRCUM,
                     IntegrandSpec(kind="leger", mean="min", alpha=2.5),
                     IntegrandSpec(kind="leger", mean="min", alpha=3),
                     IntegrandSpec(kind="scaled", s=0.25),
                     IntegrandSpec(kind="scaled", s=1)):
            assert IntegrandSpec.from_json(spec.to_json()) == spec

    def test_json_documents(self):
        # each kind writes exactly its parameters, in field order
        assert [spec.to_json() for spec in (
            MENGER, CIRCUM, IntegrandSpec(kind="leger", mean="min", alpha=2.5),
            IntegrandSpec(kind="scaled", s=1))] == [
            '{"kind": "menger"}', '{"kind": "circumsphere"}',
            '{"kind": "leger", "mean": "min", "alpha": 2.5}',
            '{"kind": "scaled", "s": 1}']

    @pytest.mark.parametrize("kwargs,message", [
        (dict(kind="menger", alpha=2.0), "kind 'menger' takes no parameter alpha"),
        (dict(kind="circumsphere", mean="min"),
         "kind 'circumsphere' takes no parameter mean"),
        (dict(kind="leger", mean="min", alpha=2.0, s=1.0),
         "kind 'leger' takes no parameter s"),
        (dict(kind="scaled", s=1.0, alpha=2.0), "kind 'scaled' takes no parameter alpha"),
        (dict(kind="leger", mean="median", alpha=2.0),
         "leger kind needs a mean from ('geometric', 'arithmetic', 'min', 'max')"),
        (dict(kind="leger", mean="min"), "leger kind needs alpha > 1"),
        (dict(kind="scaled", s=0), "scaled kind needs s > 0"),
    ])
    def test_parameter_messages(self, kwargs, message):
        with pytest.raises(InputError, match=exactly(message)):
            IntegrandSpec(**kwargs)

    @pytest.mark.parametrize("text", BAD_SPECS)
    def test_bad_json_rejected(self, text):
        with pytest.raises(ValueError):
            IntegrandSpec.from_json(text)

    def test_unparsable_json_is_input_error(self):
        with pytest.raises(InputError, match=exactly(
                "Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)")):
            IntegrandSpec.from_json('{bad')

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            IntegrandSpec(kind="polar-sine")


class TestEval:
    def test_menger_regular_tet(self):
        assert eval_integrand(MENGER, REG_TET) == approx(
            np.sqrt(2.0) / (12.0 * np.sqrt(3.0)), rel=1e-13)

    def test_coplanar_is_zero_for_every_kind(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        for spec in (MENGER, CIRCUM,
                     IntegrandSpec(kind="leger", mean="geometric", alpha=3.0),
                     IntegrandSpec(kind="scaled", s=1.0)):
            assert eval_integrand(spec, flat) == 0.0

    def test_circumsphere_inscribed_is_one(self, rng):
        w = rng.standard_normal((256, 4, 3))
        w /= np.linalg.norm(w, axis=2, keepdims=True)
        vals = eval_batch(CIRCUM, w)
        assert vals == approx(np.ones(256), rel=1e-10)

    def test_leger_zero_when_apex_in_base_plane(self):
        spec = IntegrandSpec(kind="leger", mean="geometric", alpha=3.0)
        T = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.2, 0]], float)
        assert eval_integrand(spec, T) == 0.0

    def test_menger_matches_cross_product_form(self, rng):
        pts = random_tetrahedra(rng, 10000)
        a = eval_batch(MENGER, pts)
        b = menger_cross_form_batch(pts)
        assert a == approx(b, rel=1e-12)


class TestSymmetry:
    def test_full_permutation_symmetry(self, rng):
        pts = random_tetrahedra(rng, 500)
        base_m = eval_batch(MENGER, pts)
        base_c = eval_batch(CIRCUM, pts)
        for perm in itertools.permutations(range(4)):
            assert eval_batch(MENGER, pts[:, perm]) == approx(base_m, rel=1e-12)
            assert eval_batch(CIRCUM, pts[:, perm]) == approx(base_c, rel=1e-12)

    def test_leger_base_symmetry_and_apex_asymmetry(self, rng):
        spec = IntegrandSpec(kind="leger", mean="geometric", alpha=3.0)
        pts = random_tetrahedra(rng, 500)
        base = eval_batch(spec, pts)
        for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (2, 1, 0, 3)):
            assert eval_batch(spec, pts[:, perm]) == approx(base, rel=1e-12)

    def test_leger_apex_witness(self):
        # swapping the apex with a base vertex changes the value by > 10%
        spec = IntegrandSpec(kind="leger", mean="geometric", alpha=3.0)
        T = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.3, 0.05]], float)
        v_apex = eval_integrand(spec, T)
        v_swap = eval_integrand(spec, T[[3, 1, 2, 0]])
        assert abs(v_swap - v_apex) > 0.1 * max(v_apex, v_swap)


class TestHomogeneity:
    @pytest.mark.parametrize("spec,degree", [
        (MENGER, -1.0),
        (CIRCUM, -1.0),
        (IntegrandSpec(kind="leger", mean="arithmetic", alpha=3.0), -2.0),
        (IntegrandSpec(kind="scaled", s=0.5), -1.5),
    ])
    def test_scaling_degree(self, rng, spec, degree):
        pts = random_tetrahedra(rng, 400)
        lam = rng.uniform(0.1, 10.0, 400)
        v1 = eval_batch(spec, pts)
        v2 = eval_batch(spec, pts * lam[:, None, None])
        assert v2 == approx(v1 * lam**degree, rel=1e-10)


class TestBounds:
    def test_sandwich(self, rng):
        pts = random_tetrahedra(rng, 10000)
        vals = eval_batch(MENGER, pts)
        _, _, diam, hmin, _ = geom.tetra_quantities(pts)
        ratio = hmin / diam**2
        assert (vals >= ratio / 12.0 - 1e-15).all()
        assert (vals <= ratio / 3.0 + 1e-15).all()

    def test_circumsphere_relation(self, rng):
        # the integrand is bounded by 1/(6R); the regular tetrahedron shows
        # the reversed inequality cannot hold
        pts = random_tetrahedra(rng, 10000)
        vals = eval_batch(MENGER, pts)
        radius, _ = geom.circumsphere_radius_batch(pts)
        assert (vals <= 1.0 / (6.0 * radius) + 1e-13).all()
        k_reg = eval_integrand(MENGER, REG_TET)
        bound = 1.0 / (6.0 * geom.circumsphere_radius(REG_TET))
        assert k_reg == approx(0.0680, abs=1e-4)
        assert bound == approx(0.2722, abs=1e-4)
        assert k_reg < bound

    def test_mean_axioms(self, rng):
        triples = rng.uniform(0.01, 10.0, (2000, 3))[:200]
        lam = rng.uniform(0.1, 10.0, 2000)[:200]
        for mean in MEANS.values():
            m = mean(*triples.T)
            lo = triples.min(axis=1)
            hi = triples.max(axis=1)
            assert (m >= lo - 1e-12).all() and (m <= hi + 1e-12).all()
            bumped = triples.copy()
            bumped[:, 0] += 0.5
            assert (mean(*bumped.T) >= m - 1e-12).all()
            assert mean(*(lam[:, None] * triples).T) == approx(lam * m, rel=1e-12)


class TestLemmaBounds:
    def test_formula(self):
        lb = lemma_bounds(0.8, 1.0, 1.0)
        assert lb.voluminous_bound == approx(0.4096 / 2500.0)
        lb2 = lemma_bounds(0.5, 0.3, 2.0)
        assert lb2.wide_bound == approx(0.5**3 * 0.3 / (2500.0 * 2.0))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lemma_bounds(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            lemma_bounds(0.5, 1.5, 1.0)
        with pytest.raises(ValueError):
            lemma_bounds(0.5, 0.5, 0.0)

    def test_voluminous_lower_bound_randomized(self, rng):
        theta, d = 0.6, 1.3
        quads = voluminous_tetrahedra(rng, 2000, theta, d)
        vals = eval_batch(MENGER, quads)
        assert (vals > lemma_bounds(theta, 1.0, d).voluminous_bound).all()

    def test_wide_base_lower_bound_randomized(self, rng):
        theta, kappa, d = 0.6, 0.4, 0.9
        quads = wide_base_tetrahedra(rng, 2000, theta, kappa, d)
        vals = eval_batch(MENGER, quads)
        assert (vals > lemma_bounds(theta, kappa, d).wide_bound).all()
