import json

import numpy as np
import pytest

from sqcflow import catalog
from sqcflow.core import DomainSpec, DomainViolation, InvalidParameter
from sqcflow.sampling import sample_pairs
from sqcflow.verify import SampleBudget, check_strong_quasiconvexity


class TestSqrtNorm:
    def test_modulus_formula(self):
        entry = catalog.sqrt_norm(2, 1.0)
        assert entry.constants_known["gamma"] == pytest.approx(0.28117, abs=1e-5)

    def test_modulus_radius_scaling(self):
        g1 = catalog.sqrt_norm(2, 1.0).constants_known["gamma"]
        g4 = catalog.sqrt_norm(2, 4.0).constants_known["gamma"]
        assert g4 == pytest.approx(0.5 * g1)

    def test_value_and_gradient(self):
        entry = catalog.sqrt_norm(2, 2.0)
        x = np.array([1.0, 0.0])
        assert entry.oracle.value(x) == pytest.approx(1.0)
        np.testing.assert_allclose(entry.oracle.grad(x), [0.5, 0.0])

    def test_origin_gradient_rejected(self):
        entry = catalog.sqrt_norm(2, 1.0)
        with pytest.raises(DomainViolation):
            entry.oracle.grad(np.zeros(2))
        assert not entry.oracle.domain.contains(np.zeros(2))

    def test_invalid_radius(self):
        with pytest.raises(InvalidParameter):
            catalog.sqrt_norm(2, 0.0)


class TestQuadraticFraction:
    def canonical(self):
        return catalog.quadratic_fraction(np.eye(2), np.zeros(2), 0.0,
                                          np.zeros((2, 2)), np.zeros(2), 2.0,
                                          1.0, 3.0)

    def test_constant_denominator(self):
        entry = self.canonical()
        assert entry.constants_known["gamma"] == pytest.approx(1.0 / 3.0)
        x = np.array([2.0, 0.0])
        assert entry.oracle.value(x) == pytest.approx(1.0)
        np.testing.assert_allclose(entry.oracle.grad(x), [1.0, 0.0])

    def test_unit_denominator_reduces_to_quadratic(self):
        entry = catalog.quadratic_fraction(np.eye(2), np.zeros(2), 0.0,
                                           np.zeros((2, 2)), np.zeros(2), 1.0,
                                           0.5, 1.0)
        assert entry.constants_known["gamma"] == pytest.approx(1.0)
        x = np.array([1.0, 1.0])
        assert entry.oracle.value(x) == pytest.approx(1.0)

    def test_requires_positive_definite(self):
        with pytest.raises(InvalidParameter):
            catalog.quadratic_fraction(-np.eye(2), np.zeros(2), 0.0,
                                       np.zeros((2, 2)), np.zeros(2), 2.0,
                                       1.0, 3.0)

    def test_requires_band(self):
        with pytest.raises(InvalidParameter):
            catalog.quadratic_fraction(np.eye(2), np.zeros(2), 0.0,
                                       np.zeros((2, 2)), np.zeros(2), 2.0,
                                       3.0, 1.0)

    @pytest.mark.parametrize("alpha,B", [
        # f stays negative on the band while B is negative semidefinite
        (-10.0, -np.eye(2)),
        # B is indefinite, so neither semidefinite premise can hold
        (0.0, np.diag([1.0, -1.0]))], ids=["f_negative", "B_indefinite"])
    def test_unverifiable_premise_refused(self, alpha, B):
        with pytest.raises(InvalidParameter, match="sign premises"):
            catalog.quadratic_fraction(np.eye(2), np.zeros(2), alpha, B,
                                       np.zeros(2), 5.0, 1.0, 6.0)

    def test_curved_denominator_membership(self):
        # f <= 0 on the band with B positive semidefinite: premise (c) holds
        entry = catalog.quadratic_fraction(np.eye(2), np.zeros(2), -10.0,
                                           np.eye(2), np.zeros(2), 1.0,
                                           1.0, 3.0)
        dom = entry.oracle.domain
        assert dom.contains(np.array([1.0, 1.0]))      # g = 2
        assert not dom.contains(np.array([3.0, 0.0]))  # g = 5.5 > 3


class TestCombinators:
    def test_max_idempotent(self):
        e = catalog.strongly_convex_quadratic(2, 1.0, 4.0)
        m = catalog.max_combine(e, e)
        assert m.constants_known["gamma"] == pytest.approx(1.0)
        x = np.array([0.3, -0.2])
        assert m.oracle.value(x) == pytest.approx(e.oracle.value(x))

    def test_max_modulus_min_rule(self):
        e1 = catalog.scale_combine(catalog.strongly_convex_quadratic(1, 1.0, 1.0), 0.3)
        e2 = catalog.scale_combine(catalog.strongly_convex_quadratic(1, 1.0, 1.0), 0.1)
        m = catalog.max_combine(e1, e2)
        assert m.constants_known["gamma"] == pytest.approx(0.1)

    def test_max_hand_example(self):
        # max{x^2/2, (x-1)^2/2} at 0.25: the shifted branch is active
        e1 = catalog.strongly_convex_quadratic(1, 1.0, 1.0)
        e2 = catalog.shifted_isotropic_quadratic(1, [1.0])
        m = catalog.max_combine(e1, e2)
        x = np.array([0.25])
        assert m.oracle.value(x) == pytest.approx(0.28125)
        assert m.oracle.grad(x)[0] == pytest.approx(-0.75)

    def test_max_dimension_mismatch(self):
        with pytest.raises(InvalidParameter):
            catalog.max_combine(catalog.strongly_convex_quadratic(1, 1.0, 1.0),
                                catalog.strongly_convex_quadratic(2, 1.0, 1.0))

    def test_scale_identity(self):
        e = catalog.strongly_convex_quadratic(2, 1.0, 4.0)
        s = catalog.scale_combine(e, 1.0)
        x = np.array([0.7, 0.1])
        assert s.oracle.value(x) == e.oracle.value(x)
        assert s.constants_known["gamma"] == pytest.approx(1.0)

    def test_scale_modulus(self):
        e = catalog.scale_combine(
            catalog.scale_combine(catalog.strongly_convex_quadratic(1, 1.0, 1.0), 0.5),
            2.0)
        assert e.constants_known["gamma"] == pytest.approx(1.0)

    def test_scale_gradient(self):
        e = catalog.scale_combine(catalog.strongly_convex_quadratic(2, 1.0, 1.0), 3.0)
        np.testing.assert_allclose(e.oracle.grad(np.array([1.0, 0.0])), [3.0, 0.0])

    def test_scale_invalid(self):
        with pytest.raises(InvalidParameter):
            catalog.scale_combine(catalog.sin_quadratic(), 0.0)

    def test_scale_then_max_commutes(self):
        e1 = catalog.strongly_convex_quadratic(2, 1.0, 4.0)
        e2 = catalog.shifted_isotropic_quadratic(2, [1.0, 0.0])
        a = catalog.max_combine(catalog.scale_combine(e1, 2.0),
                                catalog.scale_combine(e2, 2.0))
        b = catalog.scale_combine(catalog.max_combine(e1, e2), 2.0)
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, size=(200, 2))
        np.testing.assert_allclose(a.oracle.value(X), b.oracle.value(X),
                                   atol=1e-12)


class TestIntersectDomains:
    def test_box_and_ball(self):
        d = catalog._intersect_domains(DomainSpec.box([-1.0, -1.0], [1.0, 1.0]),
                                       DomainSpec.ball([0.5, 0.0], 1.0))
        assert d.kind == "box"
        np.testing.assert_array_equal(d.lower, [-0.5, -1.0])
        np.testing.assert_array_equal(d.upper, [1.0, 1.0])
        # the box corner lies outside the ball
        assert d.contains(np.array([[0.5, 0.5], [1.0, 1.0]])).tolist() == \
            [True, False]

    def test_predicate_only_domain(self):
        half = DomainSpec.all_space(predicate=lambda x: x[..., 0] > 0.0)
        d = catalog._intersect_domains(half, DomainSpec.box([-1.0], [1.0]))
        assert d.kind == "box"
        np.testing.assert_array_equal(d.lower, [-1.0])
        np.testing.assert_array_equal(d.upper, [1.0])
        assert d.contains(np.array([[-0.5], [0.5], [2.0]])).tolist() == \
            [False, True, False]
        both = catalog._intersect_domains(
            half, DomainSpec.all_space(predicate=lambda x: x[..., 0] < 1.0))
        assert both.kind == "all_space"
        assert both.contains(np.array([[-0.5], [0.5], [2.0]])).tolist() == \
            [False, True, False]

    def test_disjoint_domains(self):
        with pytest.raises(InvalidParameter):
            catalog._intersect_domains(DomainSpec.box([0.0], [1.0]),
                                       DomainSpec.box([2.0], [3.0]))


class TestSinQuadratic:
    def test_minimum(self):
        e = catalog.sin_quadratic()
        assert e.oracle.value(np.zeros(1)) == 0.0
        assert e.oracle.grad(np.zeros(1))[0] == 0.0

    def test_hand_values(self):
        e = catalog.sin_quadratic()
        assert e.oracle.value(np.array([np.pi / 2])) == pytest.approx(
            np.pi ** 2 / 4 + 3.0)
        assert e.oracle.grad(np.array([np.pi / 4]))[0] == pytest.approx(
            np.pi / 2 + 3.0)


class TestStronglyConvexQuadratic:
    def test_one_dimensional(self):
        e = catalog.strongly_convex_quadratic(1, 1.0, 1.0)
        assert e.oracle.value(np.array([2.0])) == pytest.approx(2.0)

    def test_endpoint_eigenvalues(self):
        e = catalog.strongly_convex_quadratic(2, 1.0, 4.0)
        assert e.oracle.value(np.array([1.0, 1.0])) == pytest.approx(2.5)
        np.testing.assert_allclose(e.oracle.grad(np.array([1.0, 1.0])),
                                   [1.0, 4.0])

    def test_geometric_spacing(self):
        e = catalog.strongly_convex_quadratic(3, 1.0, 4.0)
        np.testing.assert_allclose(e.oracle.grad(np.ones(3)), [1.0, 2.0, 4.0])

    def test_invalid_constants(self):
        with pytest.raises(InvalidParameter):
            catalog.strongly_convex_quadratic(2, 4.0, 1.0)
        with pytest.raises(InvalidParameter):
            catalog.strongly_convex_quadratic(1, 1.0, 4.0)


class TestCatalogInvariants:
    @pytest.mark.parametrize("name", sorted(catalog.default_catalog()))
    def test_known_modulus_passes_verifier(self, name):
        entry = catalog.default_catalog()[name]
        gamma = entry.constants_known.get("gamma")
        if gamma is None:
            pytest.skip("no modulus recorded")
        report = check_strong_quasiconvexity(
            entry.oracle, gamma, SampleBudget(pairs=10_000, lambdas_per_pair=1,
                                              seed=2024))
        assert report.holds_on_samples, report.violations[:1]

    @pytest.mark.parametrize("name", sorted(catalog.default_catalog()))
    def test_known_lipschitz_passes_sampled_check(self, name):
        entry = catalog.default_catalog()[name]
        L = entry.constants_known.get("lipschitz")
        if L is None:
            pytest.skip("no Lipschitz constant recorded")
        X, Y, _ = sample_pairs(entry.oracle.domain, entry.oracle.dim, 10_000,
                               1, 5)
        gX = np.asarray(entry.oracle.grad(X))
        gY = np.asarray(entry.oracle.grad(Y))
        lhs = np.linalg.norm(gX - gY, axis=1)
        rhs = L * np.linalg.norm(X - Y, axis=1) * (1 + 1e-10)
        assert np.all(lhs <= rhs)

    def test_metadata_serializable(self):
        for entry in catalog.default_catalog().values():
            meta = json.loads(json.dumps(entry.to_metadata()))
            assert meta["name"] == entry.name
            assert meta["dim"] == entry.oracle.dim

    def test_degenerate_entry_documents_pl(self):
        entry = catalog.default_catalog()["degenerate_quadratic"]
        assert entry.constants_known["mu"] == 1.0
        assert "gamma" not in entry.constants_known

    def test_get_entry_unknown(self):
        with pytest.raises(InvalidParameter):
            catalog.get_entry("nope")
