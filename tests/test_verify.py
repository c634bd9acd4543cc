import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from sqcflow import catalog, cli, estimate, sampling, verify
from sqcflow.core import (DomainSamplingFailure, DomainSpec, FunctionOracle,
                          InvalidParameter, MissingMinimizer)
from sqcflow.sampling import sample_pairs, sample_points
from sqcflow.verify import (SampleBudget, check_convexity,
                            check_gradient_characterization,
                            check_implication_ladder, check_monotone_operator,
                            check_offset_monotonicity, check_pl,
                            check_property,
                            check_quasi_strong_convexity,
                            check_sharp_quasiconvexity,
                            check_strong_pseudomonotonicity,
                            check_strong_quasiconvexity, derive_pl_modulus,
                            ladder_soundness, witness_margin)

CAT = catalog.default_catalog()
BUDGET = SampleBudget(pairs=2000, lambdas_per_pair=2, seed=42)


def cubic_oracle():
    """x^3 on [-1, 1]: quasiconvex (monotone) but not strongly so."""
    return FunctionOracle(
        dim=1,
        value=lambda x: np.asarray(x)[..., 0] ** 3,
        grad=lambda x: 3.0 * np.asarray(x)[..., 0:1] ** 2,
        domain=DomainSpec.box([-1.0], [1.0]))


def linear_oracle():
    return FunctionOracle(
        dim=1,
        value=lambda x: np.asarray(x)[..., 0],
        grad=lambda x: np.ones_like(np.asarray(x, dtype=float)[..., 0:1]))


def assert_witnesses_valid(oracle, report):
    assert report.violations, "expected at least one stored witness"
    for w in report.violations:
        margin, tol = witness_margin(oracle, report, w)
        assert margin < -tol
        assert margin == pytest.approx(w.margin, rel=1e-12, abs=1e-15)


class TestStrongQuasiconvexity:
    def test_isotropic_quadratic_holds(self):
        oracle = catalog.strongly_convex_quadratic(2, 1.0, 1.0).oracle
        report = check_strong_quasiconvexity(oracle, 1.0, BUDGET)
        assert report.holds_on_samples

    def test_degenerate_quadratic_fails_with_witness(self):
        oracle = CAT["degenerate_quadratic"].oracle
        report = check_strong_quasiconvexity(oracle, 0.1, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)

    def test_hand_witness_on_degenerate(self):
        # the value is flat along the second axis: x = 0, y = e2 violates
        oracle = CAT["degenerate_quadratic"].oracle
        x, y, lam = np.zeros(2), np.array([0.0, 1.0]), 0.5
        mid = x + lam * (y - x)
        lhs = max(oracle.value(x), oracle.value(y)) - lam * (1 - lam) * 0.05
        assert oracle.value(mid) > lhs

    def test_sqrt_norm_catalog_modulus_holds(self):
        entry = CAT["sqrt_norm_1d"]
        report = check_strong_quasiconvexity(
            entry.oracle, entry.constants_known["gamma"], BUDGET)
        assert report.holds_on_samples

    def test_gamma_zero_is_quasiconvexity(self):
        report = check_strong_quasiconvexity(cubic_oracle(), 0.0, BUDGET)
        assert report.property_name == "quasiconvexity"
        assert report.holds_on_samples

    def test_modulus_monotonicity(self):
        entry = CAT["sqrt_norm_2d"]
        gamma = entry.constants_known["gamma"]
        budget = SampleBudget(pairs=1500, seed=9)
        assert check_strong_quasiconvexity(entry.oracle, gamma, budget).holds_on_samples
        for frac in (0.5, 0.1, 0.0):
            assert check_strong_quasiconvexity(
                entry.oracle, frac * gamma, budget).holds_on_samples

    def test_determinism(self):
        oracle = CAT["degenerate_quadratic"].oracle
        r1 = check_strong_quasiconvexity(oracle, 0.1, BUDGET)
        r2 = check_strong_quasiconvexity(oracle, 0.1, BUDGET)
        assert r1.to_dict() == r2.to_dict()

    def test_sampling_failure_on_empty_domain(self):
        oracle = FunctionOracle(
            dim=1, value=lambda x: np.asarray(x)[..., 0] ** 2,
            grad=lambda x: 2.0 * np.asarray(x)[..., 0:1],
            domain=DomainSpec.box([-1.0], [1.0], predicate=lambda x: False))
        with pytest.raises(DomainSamplingFailure):
            check_strong_quasiconvexity(oracle, 1.0, SampleBudget(pairs=10))


class TestGradientCharacterization:
    def test_anisotropic_quadratic(self):
        oracle = CAT["quadratic_2d"].oracle
        assert check_gradient_characterization(oracle, 1.0, BUDGET).holds_on_samples

    def test_sin_quadratic_at_empirical_modulus(self):
        entry = CAT["sin_quadratic"]
        gamma = estimate.empirical_modulus(entry.oracle, samples=50_000,
                                           seed=3).safe
        assert gamma > 0
        assert check_gradient_characterization(entry.oracle, gamma,
                                               BUDGET).holds_on_samples
        assert check_strong_quasiconvexity(entry.oracle, gamma,
                                           BUDGET).holds_on_samples

    def test_cubic_fails_at_positive_modulus(self):
        # brute-force grid scan finds pairs violating the inequality, e.g.
        # x=-1, y=0.16: <h'(y), x-y> = 0.0768·(-1.16) > -(1/2)(1.16)^2 fails
        oracle = cubic_oracle()
        report = check_gradient_characterization(oracle, 1.0, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)


class TestOffsetMonotonicity:
    def test_strongly_convex_holds_both_variants(self):
        oracle = catalog.strongly_convex_quadratic(1, 1.0, 1.0).oracle
        report = check_offset_monotonicity(oracle, 1.0, BUDGET)
        assert report.holds_on_samples

    def test_gamma_zero_quasimonotone_sin(self):
        oracle = CAT["sin_quadratic"].oracle
        report = check_offset_monotonicity(oracle, 0.0, BUDGET)
        assert report.holds_on_samples

    def test_linear_fails_at_positive_modulus(self):
        oracle = linear_oracle()
        report = check_offset_monotonicity(oracle, 0.5, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)

    def test_variant_notes_present(self):
        report = check_offset_monotonicity(linear_oracle(), 0.5, BUDGET)
        notes = {w.note for w in report.violations}
        assert notes <= {"strict", "non_strict"} and notes


class TestMonotoneOperator:
    def test_strong_monotonicity_quadratic(self):
        oracle = CAT["quadratic_2d"].oracle
        assert check_monotone_operator(oracle, 1.0, BUDGET).holds_on_samples

    def test_modulus_above_curvature_fails(self):
        oracle = CAT["quadratic_2d"].oracle
        report = check_monotone_operator(oracle, 1.5, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)

    def test_plain_monotonicity_of_convex_max(self):
        oracle = CAT["max_two_quadratics"].oracle
        assert check_monotone_operator(oracle, 0.0, BUDGET).holds_on_samples

    def test_sqrt_norm_not_monotone(self):
        oracle = CAT["sqrt_norm_2d"].oracle
        assert not check_monotone_operator(oracle, 0.0, BUDGET).holds_on_samples


class TestStrongQuasimonotonicity:
    def test_quadratic(self):
        oracle = CAT["quadratic_2d"].oracle
        assert verify.check_strong_quasimonotonicity(oracle, 0.5,
                                                     BUDGET).holds_on_samples

    def test_pseudo_implies_quasi_same_modulus(self):
        oracle = CAT["sqrt_norm_2d"].oracle
        gamma_half = 0.5 * CAT["sqrt_norm_2d"].constants_known["gamma"]
        assert check_strong_pseudomonotonicity(oracle, gamma_half,
                                               BUDGET).holds_on_samples
        assert verify.check_strong_quasimonotonicity(oracle, gamma_half,
                                                     BUDGET).holds_on_samples

    def test_cubic_quasimonotone_but_not_strongly(self):
        oracle = cubic_oracle()
        assert verify.check_strong_quasimonotonicity(oracle, 0.0,
                                                     BUDGET).holds_on_samples
        report = verify.check_strong_quasimonotonicity(oracle, 0.5, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)


class TestStrongPseudomonotonicity:
    def test_quadratic(self):
        oracle = CAT["quadratic_2d"].oracle
        assert check_strong_pseudomonotonicity(oracle, 0.5, BUDGET).holds_on_samples

    def test_offset_implies_pseudo_at_half(self):
        for name in ("quadratic_2d", "sqrt_norm_2d", "quadratic_fraction"):
            entry = CAT[name]
            gamma = entry.constants_known["gamma"]
            if check_offset_monotonicity(entry.oracle, gamma, BUDGET).holds_on_samples:
                assert check_strong_pseudomonotonicity(
                    entry.oracle, 0.5 * gamma, BUDGET).holds_on_samples

    def test_cubic_fails(self):
        oracle = cubic_oracle()
        report = check_strong_pseudomonotonicity(oracle, 0.5, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)


class TestPL:
    def test_derive_modulus(self):
        assert derive_pl_modulus(1.0, 1.0) == 0.5

    def test_half_square(self):
        oracle = CAT["quadratic_1d"].oracle
        assert check_pl(oracle, 0.5, BUDGET).holds_on_samples

    def test_sin_quadratic_with_empirical_constants(self):
        entry = CAT["sin_quadratic"]
        gamma = estimate.empirical_modulus(entry.oracle, samples=50_000,
                                           seed=3).safe
        L = estimate.estimate_lipschitz_sublevel(entry.oracle, [3.0],
                                                 samples=2000, seed=3).safe
        mu = derive_pl_modulus(gamma, L)
        assert check_pl(entry.oracle, mu, BUDGET).holds_on_samples

    def test_pl_without_strong_quasiconvexity(self):
        oracle = CAT["degenerate_quadratic"].oracle
        assert check_pl(oracle, 1.0, BUDGET).holds_on_samples
        assert not check_strong_quasiconvexity(oracle, 0.1, BUDGET).holds_on_samples

    def test_missing_minimizer(self):
        with pytest.raises(MissingMinimizer):
            check_pl(cubic_oracle(), 0.5, BUDGET)


class TestQuasiStrongConvexity:
    def test_isotropic_quadratic(self):
        oracle = catalog.strongly_convex_quadratic(2, 1.0, 1.0).oracle
        assert check_quasi_strong_convexity(oracle, 1.0, BUDGET).holds_on_samples

    def test_implies_strong_quasiconvexity_same_modulus(self):
        oracle = CAT["quadratic_2d"].oracle
        mu = 1.0
        assert check_quasi_strong_convexity(oracle, mu, BUDGET).holds_on_samples
        assert check_strong_quasiconvexity(oracle, mu, BUDGET).holds_on_samples

    def test_sqrt_norm_fails(self):
        # sublinear growth: at x = 0.81 the left side is ~0.45 against ~1.06
        oracle = CAT["sqrt_norm_1d"].oracle
        report = check_quasi_strong_convexity(oracle, 0.5, BUDGET)
        assert not report.holds_on_samples
        assert_witnesses_valid(oracle, report)


class TestSharpQuasiconvexity:
    def test_strongly_quasiconvex_entries_pass(self):
        for name in ("quadratic_2d", "sqrt_norm_2d", "max_two_quadratics"):
            entry = CAT[name]
            assert check_sharp_quasiconvexity(
                entry.oracle, entry.constants_known["gamma"], BUDGET
            ).holds_on_samples

    def test_gamma_zero_quasiconvex(self):
        assert check_sharp_quasiconvexity(cubic_oracle(), 0.0, BUDGET).holds_on_samples

    def test_equivalence_with_pseudomonotonicity(self):
        # sharp at gamma should match strongly pseudomonotone at gamma/2
        for name, entry in sorted(CAT.items()):
            gamma = entry.constants_known.get("gamma")
            if gamma is None:
                continue
            sharp = check_sharp_quasiconvexity(entry.oracle, gamma, BUDGET)
            pseudo = check_strong_pseudomonotonicity(entry.oracle, 0.5 * gamma,
                                                     BUDGET)
            assert sharp.holds_on_samples == pseudo.holds_on_samples


class TestConvexityChecks:
    def test_strong_convexity_quadratic(self):
        oracle = CAT["quadratic_2d"].oracle
        assert check_convexity(oracle, 1.0, BUDGET).holds_on_samples

    def test_sin_quadratic_not_convex(self):
        report = check_convexity(CAT["sin_quadratic"].oracle, 0.0, BUDGET)
        assert not report.holds_on_samples


class TestLadder:
    def test_quadratic_everything_holds(self):
        reports = check_implication_ladder(CAT["quadratic_2d"].oracle, 1.0, BUDGET)
        assert all(r.holds_on_samples for r in reports)
        assert ladder_soundness(reports) == []

    def test_sqrt_norm_nonconvexity_detected(self):
        entry = CAT["sqrt_norm_1d"]
        reports = check_implication_ladder(entry.oracle,
                                           entry.constants_known["gamma"], BUDGET)
        by_name = {r.property_name: r for r in reports}
        assert by_name["strong_quasiconvexity"].holds_on_samples
        assert by_name["sharp_quasiconvexity"].holds_on_samples
        assert by_name["strong_pseudomonotonicity"].holds_on_samples
        assert not by_name["strong_monotonicity"].holds_on_samples
        assert_witnesses_valid(entry.oracle, by_name["strong_monotonicity"])
        assert ladder_soundness(reports) == []

    def test_sin_quadratic_nonconvex_but_strongly_quasiconvex(self):
        entry = CAT["sin_quadratic"]
        gamma = estimate.empirical_modulus(entry.oracle, samples=50_000,
                                           seed=3).safe
        reports = check_implication_ladder(entry.oracle, gamma, BUDGET)
        by_name = {r.property_name: r for r in reports}
        assert by_name["strong_quasiconvexity"].holds_on_samples
        assert not by_name["convexity"].holds_on_samples
        assert ladder_soundness(reports) == []

    def test_soundness_reports_violation(self):
        good = verify.ClassReport("strong_quasiconvexity", True, [], 10)
        bad = verify.ClassReport("sharp_quasiconvexity", False, [], 10,
                                 violations_count=1)
        assert ladder_soundness([good, bad]) == [
            "strong_quasiconvexity holds but sharp_quasiconvexity fails"]


class TestBudgets:
    def test_invalid_budget(self):
        with pytest.raises(InvalidParameter):
            SampleBudget(pairs=0)
        with pytest.raises(InvalidParameter):
            SampleBudget(pairs=10, lambdas_per_pair=0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InvalidParameter):
            check_strong_quasiconvexity(CAT["quadratic_1d"].oracle, -1.0, BUDGET)

    def test_report_counts(self):
        budget = SampleBudget(pairs=100, lambdas_per_pair=3, seed=0)
        report = check_strong_quasiconvexity(CAT["quadratic_1d"].oracle, 1.0,
                                             budget)
        assert report.samples_tested == 100 * (3 + 3)


def ladder_dicts(name, gamma, budget, monkeypatch, pair_budget):
    monkeypatch.setattr(verify, "_PAIR_BUDGET", pair_budget)
    return [r.to_dict() for r in
            check_implication_ladder(CAT[name].oracle, gamma, budget)]


class TestBlockedEvaluation:
    """A check evaluated in blocks reports what one whole-sample pass does."""

    BUDGET = SampleBudget(pairs=200, lambdas_per_pair=2, seed=0)
    # quadratic_2d above its modulus: witnesses capped at 25, offset
    # monotonicity failing under both notes and from both orders of a
    # pair; quadratic_fraction above its modulus: the points-only PL check
    # failing on every point
    CASES = [("quadratic_2d", 1.2), ("quadratic_fraction", 1.5)]
    # one row; a budget that is no multiple of any row's width (dim 2 and
    # 1 or 5 weights), so blocks end inside the 200 pairs; the default;
    # more than the whole sample
    PAIR_BUDGETS = {"one_row": 1, "split": 37, "default": verify._PAIR_BUDGET}
    WHOLE = 10 ** 9

    @pytest.mark.parametrize("pair_budget", sorted(PAIR_BUDGETS))
    @pytest.mark.parametrize("name,gamma", CASES)
    def test_reports_do_not_depend_on_the_budget(self, monkeypatch, name,
                                                 gamma, pair_budget):
        whole = ladder_dicts(name, gamma, self.BUDGET, monkeypatch, self.WHOLE)
        assert ladder_dicts(name, gamma, self.BUDGET, monkeypatch,
                            self.PAIR_BUDGETS[pair_budget]) == whole

    @pytest.mark.parametrize("name", sorted(CAT))
    def test_oracles_evaluate_each_row_on_their_own(self, name):
        # the premise of blocking: a row's value and gradient do not depend
        # on the rows evaluated with it
        o = CAT[name].oracle
        X = sample_points(o.domain, o.dim, 600, 1)
        for pts in (X, X.reshape(120, 5, o.dim)):
            for f in (o.value, o.grad):
                whole = np.asarray(f(pts))
                for rows in (1, 7, 64):
                    blocks = [np.asarray(f(pts[a:a + rows]))
                              for a in range(0, len(pts), rows)]
                    assert np.concatenate(blocks).tobytes() == whole.tobytes()

    def test_cases_reach_across_block_edges(self, monkeypatch):
        reports = {name: {r["property"]: r for r in ladder_dicts(
            name, gamma, self.BUDGET, monkeypatch, self.WHOLE)}
            for name, gamma in self.CASES}
        q2, frac = reports["quadratic_2d"], reports["quadratic_fraction"]
        # the cap is reached on pairs with weights and on points
        assert q2["strong_convexity"]["violations_count"] > verify.MAX_WITNESSES
        assert frac["pl"]["violations_count"] > verify.MAX_WITNESSES
        assert len(frac["pl"]["violations"]) == verify.MAX_WITNESSES
        # fewer strict witnesses than the cap, so non_strict ones follow
        offset = q2["offset_monotonicity"]["violations"]
        assert {w["note"] for w in offset} == {"strict", "non_strict"}
        # witnesses from the (x, y) and the (y, x) order of a pair
        o = CAT["quadratic_2d"].oracle
        X, _, _ = sample_pairs(o.domain, o.dim, self.BUDGET.pairs, 1,
                               self.BUDGET.seed)
        first = {tuple(x) for x in X}
        assert {tuple(w["x"]) in first for w in offset} == {True, False}

    @pytest.mark.parametrize("pair_budget", [1, 2, 9, 10, 37, 1000, 1 << 15])
    # points; pairs with and without weights; ordered pairs with and without
    @pytest.mark.parametrize("name", ["pl", "strong_convexity",
                                      "strong_monotonicity",
                                      "sharp_quasiconvexity",
                                      "offset_monotonicity"])
    def test_blocks_tile_the_rows_within_the_budget(self, monkeypatch, name,
                                                    pair_budget):
        prop = verify.PROPERTIES[name]
        o, budget = CAT["quadratic_2d"].oracle, SampleBudget(pairs=201, seed=4)
        monkeypatch.setattr(verify, "_PAIR_BUDGET", pair_budget)
        blocks = list(verify._draw([prop], o, budget))
        if prop.sample == "points":
            X, Y = sample_points(o.domain, o.dim, budget.pairs,
                                 budget.seed), None
        else:
            X, Y, LAM = sample_pairs(
                o.domain, o.dim, budget.pairs,
                budget.lambdas_per_pair if prop.lambdas else 1, budget.seed)
        # every row once, in order, and in the (x, y) order alone, ordered
        # pairs too: a check reads (y, x) from each block's mirror
        assert np.array_equal(np.concatenate([b.x for b in blocks]), X)
        if Y is None:
            assert all(b.y is None and b.lam is None for b in blocks)
        else:
            assert np.array_equal(np.concatenate([b.y for b in blocks]), Y)
        if prop.lambdas:
            lam = np.concatenate([b.lam for b in blocks])
            assert np.array_equal(lam[:, :2], LAM)
            assert (lam[:, 2:] == [0.0, 0.5, 1.0]).all()
        else:
            assert all(b.lam is None for b in blocks)
        for b in blocks:
            rows, per_row = b.x.shape[0], o.dim * (1 if b.lam is None
                                                   else b.lam.shape[1])
            assert rows == 1 or rows * per_row <= pair_budget

    def test_memory_does_not_grow_with_the_sample_count(self):
        # the heaviest check: ordered pairs with 5 weights each; the ladder
        # runs it with the checks that share its sample
        o = catalog.strongly_convex_quadratic(6, 1.0, 4.0).oracle
        pairs, weights, dim = 20000, 2 + 3, o.dim
        budget = SampleBudget(pairs=pairs, lambdas_per_pair=2)
        # a handful of float64 temporaries of one block: the interpolation
        # points, the weighted differences, the values and the masks
        block = 4 * 8 * verify._PAIR_BUDGET
        # one copy of the sample, and two sampler chunks of rows
        sample = 8 * pairs * (2 * dim + weights) \
            + 2 * 8 * sampling._CHUNK * (2 * dim + 2)
        check_sharp_quasiconvexity(o, 1.0, SampleBudget(pairs=10))
        for run in (check_sharp_quasiconvexity, check_implication_ladder):
            tracemalloc.start()
            try:
                run(o, 1.0, budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # about 3.6 MiB, where whole-sample evaluation peaked at 27.5 MiB
            # and a sampler that held the sample twice at 4.7 MiB; a full
            # (2 * pairs, 5, dim) interpolation array alone takes 9.2 MiB
            assert peak <= block + sample < 8 * 2 * pairs * weights * dim


def ladder_runs(oracle, gamma):
    """The ladder's (name, modulus) runs, written out in its order."""
    runs = [("strong_convexity", gamma), ("convexity", 0.0),
            ("strong_quasiconvexity", gamma), ("quasiconvexity", 0.0),
            ("gradient_characterization", gamma),
            ("sharp_quasiconvexity", gamma), ("strong_monotonicity", gamma),
            ("monotonicity", 0.0), ("offset_monotonicity", gamma),
            ("strong_pseudomonotonicity", 0.5 * gamma),
            ("strong_quasimonotonicity", 0.5 * gamma),
            ("quasimonotonicity", 0.0)]
    if gamma == 0:
        # a strong property at modulus 0 is its weak one, run once
        return [(n, m) for n, m in runs if verify.PROPERTIES[n].weak_name
                in (None, n)]
    L = oracle.known_lipschitz
    if L is not None and oracle.known_minimizer is not None:
        runs.append(("pl", gamma * gamma / (2.0 * L)))
    return runs


def _ladder_gamma(entry):
    """The modulus that ``verify --property ladder`` resolves at seed 0."""
    return cli._constant(entry, {}, "gamma", [],
                         cli._estimate(entry, "gamma", 0), checked=False)


def _shared_sample_cases():
    # every entry at the modulus the CLI resolves (seed 0) and at 0, and
    # quadratic_2d above its modulus, where offset monotonicity fails under
    # both notes
    cases = []
    for name, entry in sorted(CAT.items()):
        gamma = _ladder_gamma(entry)
        cases += [(name, g) for g in dict.fromkeys((gamma, 0.0))]
    return cases + [("quadratic_2d", 1.2)]


class TestSharedSamples:
    """The ladder draws each of its samples once and evaluates each block
    once for every check that reads it, with the reports of the checks run
    one by one."""

    BUDGET = SampleBudget(pairs=200, lambdas_per_pair=2, seed=0)
    CASES = _shared_sample_cases()

    # at one weight per pair the weighted and the unweighted checks share
    # one pairs sample
    @pytest.mark.parametrize("lambdas", [1, 2])
    @pytest.mark.parametrize("pair_budget", [1, 37, verify._PAIR_BUDGET])
    @pytest.mark.parametrize("name,gamma", CASES)
    def test_ladder_equals_its_checks_run_one_by_one(self, monkeypatch, name,
                                                     gamma, pair_budget,
                                                     lambdas):
        monkeypatch.setattr(verify, "_PAIR_BUDGET", pair_budget)
        budget = dataclasses.replace(self.BUDGET, lambdas_per_pair=lambdas)
        o = CAT[name].oracle
        one_by_one = [check_property(n, o, m, budget).to_dict()
                      for n, m in ladder_runs(o, gamma)]
        assert [r.to_dict() for r in
                check_implication_ladder(o, gamma, budget)] == one_by_one

    def test_cases_reach_the_cap_skip_pl_and_note_both_premises(self):
        reports = {(name, gamma): {r.property_name: r for r in
                                   check_implication_ladder(
                                       CAT[name].oracle, gamma, self.BUDGET)}
                   for name, gamma in self.CASES}
        sin = reports["sin_quadratic", _ladder_gamma(CAT["sin_quadratic"])]
        assert sin["convexity"].violations_count > verify.MAX_WITNESSES
        assert len(sin["convexity"].violations) == verify.MAX_WITNESSES
        # no L
        assert "pl" not in reports["max_two_quadratics", 1.0]
        assert "pl" in reports["quadratic_2d", 1.0]
        offset = reports["quadratic_2d", 1.2]["offset_monotonicity"]
        assert {w.note for w in offset.violations} == {"strict", "non_strict"}

    def test_each_sample_is_drawn_and_evaluated_once(self, monkeypatch):
        entry, n = CAT["quadratic_2d"], self.BUDGET.pairs
        rows = {"value": 0, "grad": 0}

        def counted(kind, f):
            def g(x):
                rows[kind] += int(np.prod(np.shape(x)[:-1]))
                return f(x)
            return g
        o = dataclasses.replace(entry.oracle,
                                value=counted("value", entry.oracle.value),
                                grad=counted("grad", entry.oracle.grad))
        draws = []

        def drawn(kind, f):
            def g(domain, dim, n, *args):
                draws.append((kind, args[0] if kind == "pairs" else None))
                return f(domain, dim, n, *args)
            return g
        monkeypatch.setattr(verify, "sample_pairs",
                            drawn("pairs", verify.sample_pairs))
        monkeypatch.setattr(verify, "sample_points",
                            drawn("points", verify.sample_points))
        reports = check_implication_ladder(o, 1.0, self.BUDGET)
        assert len(reports) == 13
        # pairs with the budget's 2 weights, pairs with 1, points: in the
        # order the ladder first needs them
        assert draws == [("pairs", 2), ("pairs", 1), ("points", None)]
        # n = 200 rows per sample, one block each.  Pairs with weights: the
        # convexity and quasiconvexity checks read h(x), h(y) and
        # h(x + lam (y - x)) at 2 + 3 weights, and sharp quasiconvexity also
        # grad h(y); its (y, x) order reads h and grad h from the block and
        # evaluates only h(y + lam (x - y)): values (2 + 5 + 5) n, gradients
        # 2 n.  Pairs without weights: its four ordered-pair checks read
        # h(x), h(y) (gradient characterization's premise), grad h(x) and
        # grad h(y), each once for both orders: values 2 n, gradients 2 n.
        # Points: PL reads h(x), grad h(x) and h at the minimizer once:
        # values n + 1, gradients n.  Drawn and evaluated once per check
        # and order, the 13 checks would evaluate 47 n + 1 value and 25 n
        # gradient rows; a separate (y, x) pass, 19 n + 1 and 7 n.
        assert rows == {"value": 15 * n + 1, "grad": 5 * n}

    def test_one_weight_draws_one_pairs_sample(self, monkeypatch):
        draws = []

        def drawn(*args):
            draws.append(args[3])
            return sample_pairs(*args)
        monkeypatch.setattr(verify, "sample_pairs", drawn)
        budget = dataclasses.replace(self.BUDGET, lambdas_per_pair=1)
        reports = check_implication_ladder(CAT["quadratic_2d"].oracle, 1.0,
                                           budget)
        assert len(reports) == 13
        assert draws == [1]



class TestOrderedPairPins:
    """Single ordered-pair checks whose violations reach the witness cap:
    each premise note keeps its (x, y) witnesses, then its (y, x) ones, at
    most MAX_WITNESSES across both orders, and then the report keeps at
    most MAX_WITNESSES over its notes."""

    # (property, entry, modulus, weights per pair): (violations_count,
    # witnesses kept, how many of them from the (y, x) order, SHA-256 of
    # the report's sorted JSON), taken while the (y, x) order was a second
    # pass over the sample.  In each order on its own at least one note
    # fills the cap, or the (y, x) witnesses fill what the (x, y) ones
    # leave: gradient characterization at 1.15 (20 then 18), sharp
    # quasiconvexity at 3 (18 then 27; 14 then 9 at one weight) and on
    # sin_quadratic (10 and 10), offset monotonicity at 1.1 (21 then 21
    # under each note).
    PINS = {
        ("offset_monotonicity", "quadratic_2d", 1.2, 2): (
            212, 25, 0,
            "ad05a38596eef7ede17d528d4586880d1a57d1809d8c61650ad450c5ecb5a7ae"),
        ("offset_monotonicity", "quadratic_2d", 1.1, 2): (
            84, 25, 4,
            "fc2beece8bceea21d2fa7f6ea2b105163a052a36aec47344a4cd84c6e0d2271c"),
        ("gradient_characterization", "quadratic_2d", 1.2, 2): (
            53, 25, 0,
            "ef850b6ba06705b49b741ca7178aa474d6ec81411c21a97db80e3231a13cc63b"),
        ("gradient_characterization", "quadratic_2d", 1.15, 2): (
            38, 25, 5,
            "9a63a49bb529a499716cd1c30378759d55d4e14caf45a4188a087096d70c584a"),
        ("sharp_quasiconvexity", "quadratic_2d", 4.0, 2): (
            149, 25, 0,
            "de58e4548b33b0c954ee9675a0f00dfd832eb8cec3bd4b3d7b416f648d449a91"),
        ("sharp_quasiconvexity", "quadratic_2d", 3.0, 2): (
            45, 25, 7,
            "77365dbda09c8a88cc6c17353fc30e3ce973f90cc5842860f1b0ace9eb186f66"),
        ("sharp_quasiconvexity", "quadratic_2d", 4.0, 1): (
            75, 25, 0,
            "3dfe3b1b43cb2c5f94114ce17c97d47423bce062c27f6e0485314937e1960afc"),
        ("sharp_quasiconvexity", "quadratic_2d", 3.0, 1): (
            23, 23, 9,
            "74d796c0a8b8da47ef098d334a4e97c757c1134ef0f7466b915b771dfa750070"),
        ("sharp_quasiconvexity", "sin_quadratic", 2.0, 2): (
            20, 20, 10,
            "052efb625d79c564524deefa25048bc93d7450c6ff88e57272e27573cc6e9424"),
        ("strong_pseudomonotonicity", "degenerate_quadratic", 0.6, 2): (
            615, 25, 0,
            "ed3fcb1f184c3c37dad8404e83daa08cb6b33fcdfd66b9be9818054c0c944465"),
        ("strong_quasimonotonicity", "degenerate_quadratic", 0.6, 2): (
            615, 25, 0,
            "c796a36130b4eef6950fe28cca00dc112f4ad93ca55b62200dcbb7cde7dfa940"),
    }

    @pytest.mark.parametrize("case", sorted(PINS))
    def test_reports_are_pinned(self, case):
        name, entry, modulus, lambdas = case
        count, kept, swapped, sha = self.PINS[case]
        o = CAT[entry].oracle
        report = check_property(name, o, modulus, SampleBudget(
            pairs=2000, lambdas_per_pair=lambdas))
        assert (report.violations_count, len(report.violations)) == \
            (count, kept)
        # the witnesses of the (x, y) order are those at a sampled x, and
        # under each note they come first
        X, _, _ = sample_pairs(o.domain, o.dim, 2000,
                               lambdas if verify.PROPERTIES[name].lambdas
                               else 1, 0)
        first = {tuple(x) for x in X}
        for note in {w.note for w in report.violations}:
            from_xy = [tuple(w.x) in first for w in report.violations
                       if w.note == note]
            assert from_xy == sorted(from_xy, reverse=True)
        assert sum(tuple(w.x) not in first
                   for w in report.violations) == swapped
        data = json.dumps(report.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(data).hexdigest() == sha


# Hand-derived (lhs, rhs) of every property at x = (1, 1/2), y = (-1, 1),
# lambda = 1/4, modulus 1 (mu = 1/2 for pl and quasi_strong_convexity; the
# weak names at modulus 0).  Shared quantities: x - y = (2, -1/2),
# |x - y|^2 = 17/4, x + lambda (y - x) = (1/2, 5/8).
#   quadratic_2d, h = (x1^2 + 4 x2^2)/2: h(x) = 1, h(y) = 5/2,
#     h(mid) = 29/32, g(x) = (1, 2), g(y) = (-1, 4).
#   degenerate_quadratic, h = x1^2/2: h(x) = h(y) = 1/2, h(mid) = 1/8,
#     g(x) = (1, 0), g(y) = (-1, 0).
# Both minimizers are the origin with h* = 0.
_PENALTY = 0.25 * 0.75 * 0.5 * 4.25            # lam (1-lam) (gamma/2) |x-y|^2
_HAND_VALUES = {
    #                            quadratic_2d                   degenerate_quadratic
    "strong_quasiconvexity":     ((2.5 - _PENALTY, 29 / 32),    (0.5 - _PENALTY, 1 / 8)),
    "quasiconvexity":            ((2.5, 29 / 32),               (0.5, 1 / 8)),
    "sharp_quasiconvexity":      ((2.5 - _PENALTY, 29 / 32),    (0.5 - _PENALTY, 1 / 8)),
    "strong_convexity":          ((1.375 - _PENALTY, 29 / 32),  (0.5 - _PENALTY, 1 / 8)),
    "convexity":                 ((1.375, 29 / 32),             (0.5, 1 / 8)),
    "gradient_characterization": ((-2.125, -4.0),               (-2.125, -2.0)),
    "offset_monotonicity":       ((-2.125, -4.0),               (-2.125, -2.0)),
    "strong_pseudomonotonicity": ((-4.25, -1.0),                (-4.25, -2.0)),
    "strong_quasimonotonicity":  ((-4.25, -1.0),                (-4.25, -2.0)),
    "quasimonotonicity":         ((0.0, -1.0),                  (0.0, -2.0)),
    "strong_monotonicity":       ((5.0, 4.25),                  (4.0, 4.25)),
    "monotonicity":              ((5.0, 0.0),                   (4.0, 0.0)),
    "pl":                        ((5.0, 0.5),                   (1.0, 0.25)),
    "quasi_strong_convexity":    ((2.0, 1.3125),                (1.0, 0.8125)),
}
_PARAMS = {"strong_pseudomonotonicity": {"gamma_half": 1.0},
           "pl": {"mu": 0.5}, "quasi_strong_convexity": {"mu": 0.5},
           "quasiconvexity": {"gamma": 0.0}, "convexity": {"gamma": 0.0},
           "quasimonotonicity": {"gamma": 0.0}, "monotonicity": {"gamma": 0.0}}


@pytest.mark.parametrize("name", sorted(_HAND_VALUES))
def test_witness_margin_matches_hand_derivation(name):
    points_only = name in ("pl", "quasi_strong_convexity")
    pair_only = name in ("gradient_characterization", "offset_monotonicity",
                         "strong_pseudomonotonicity", "strong_quasimonotonicity",
                         "quasimonotonicity", "strong_monotonicity",
                         "monotonicity")
    witness = verify.Witness(
        x=np.array([1.0, 0.5]),
        y=None if points_only else np.array([-1.0, 1.0]),
        lam=None if points_only or pair_only else 0.25,
        lhs=0.0, rhs=0.0, margin=0.0)
    report = verify.ClassReport(name, False, [witness], 1, 1,
                                params=_PARAMS.get(name, {"gamma": 1.0}))
    for entry, (lhs, rhs) in zip(("quadratic_2d", "degenerate_quadratic"),
                                 _HAND_VALUES[name]):
        margin, tol = witness_margin(CAT[entry].oracle, report, witness)
        assert margin == pytest.approx(lhs - rhs, rel=1e-12, abs=1e-15)
        assert tol == pytest.approx(1e-9 * (1 + abs(lhs) + abs(rhs)), rel=1e-12)
