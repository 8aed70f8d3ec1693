import math

import numpy as np
import pytest

from homsum import bounds, contractions, kernels, moments
from homsum.errors import ValidationError
from conftest import random_kernels

GAUSS = bounds.MomentProfile(beta3=2.0 * math.sqrt(2.0 / math.pi), beta4=3.0)
RADEMACHER = bounds.MomentProfile(beta3=1.0, beta4=1.0)


class TestCStar:
    def test_zero_budget(self):
        assert bounds.c_star(bounds.TestFunctionBudget(), 3) == 0.0

    def test_third_derivative_only(self):
        got = bounds.c_star(bounds.TestFunctionBudget(b3=3.0), 2)
        want = 4 * math.sqrt(2) * 126 * (2 * math.sqrt(2) / math.sqrt(math.pi))
        assert got == pytest.approx(want, rel=1e-14)

    def test_homogeneous_in_b3(self):
        one = bounds.c_star(bounds.TestFunctionBudget(b3=1.0), 2)
        two = bounds.c_star(bounds.TestFunctionBudget(b3=2.0), 2)
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_monotone_in_budget_and_order(self):
        base = bounds.TestFunctionBudget(a=0.5, b=0.5, b3=0.5)
        v0 = bounds.c_star(base, 2)
        assert bounds.c_star(bounds.TestFunctionBudget(a=1.0, b=0.5, b3=0.5), 2) >= v0
        assert bounds.c_star(bounds.TestFunctionBudget(a=0.5, b=1.0, b3=0.5), 2) >= v0
        assert bounds.c_star(bounds.TestFunctionBudget(a=0.5, b=0.5, b3=1.0), 2) >= v0
        assert bounds.c_star(base, 3) >= v0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError, match="budget field a must be finite and >= 0"):
            bounds.TestFunctionBudget(a=-1.0)


class TestT1T2:
    def test_p2(self, p2):
        v, exactness = bounds.t1(p2)
        assert v == pytest.approx(1.0, rel=1e-12)
        assert exactness == bounds.EXACT
        assert bounds.t2(p2, 9.0) == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_pairs(self):
        for m in (4, 100):
            f = kernels.disjoint_pairs(m)
            v, _ = bounds.t1(f)
            assert v == pytest.approx(1 / math.sqrt(m), rel=1e-12)
            assert bounds.t2(f, 3 + 6 / m) == pytest.approx(1 / math.sqrt(m), rel=1e-12)

    def test_gaussian_match_is_zero(self, p2):
        assert bounds.t2(p2, 3.0) == 0.0

    def test_requires_normalization(self):
        f = kernels.make_kernel(2, 2, {(1, 2): 0.7})
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 1.0"):
            bounds.t1(f)
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 1.0"):
            bounds.t2(f, 3.0)

    def test_chain_on_random_kernels(self):
        rng = np.random.default_rng(211)
        for f in random_kernels(rng, 60, d_range=(2, 3), n_max=8, sigma2=1.0):
            v1, exactness = bounds.t1(f)
            v2 = bounds.t2(f, moments.gaussian_fourth_moment(f))
            assert exactness == bounds.EXACT
            assert v1 <= v2 * (1 + 1e-10) + 1e-12

    def test_upper_bound_fallback_flagged(self, monkeypatch):
        # cap too small to materialize the r=1 symmetrization for d=3
        f = kernels.normalize_to_variance(kernels.random_sparse_kernel(3, 8, seed=8), 1.0)
        exact_value, flag = bounds.t1(f)
        monkeypatch.setattr(kernels, "MATERIALIZATION_CAP", 100)
        capped_value, capped_flag = bounds.t1(f)
        assert flag == bounds.EXACT and capped_flag == bounds.UPPER_BOUND
        assert capped_value >= exact_value - 1e-12


class TestT3T4:
    def test_constant_kernel_decreases(self):
        v10, _ = bounds.t3(kernels.constant_kernel(10, sigma2=2.0), 1)
        v50, _ = bounds.t3(kernels.constant_kernel(50, sigma2=2.0), 1)
        assert v50 < v10

    def test_chi_square_moment_match_kills_t4(self):
        assert bounds.t4(8.0, 60.0, 1, 2) == 0.0

    @pytest.mark.parametrize("nu", [0, -1, 1.5, math.nan, math.inf])
    def test_degrees_must_be_positive_integers(self, nu):
        with pytest.raises(ValidationError, match="degrees of freedom must be a positive integer"):
            bounds.t4(8.0, 60.0, nu, 2)

    def test_odd_order_rejected(self):
        f = kernels.normalize_to_variance(kernels.random_sparse_kernel(3, 6, seed=9), 2.0)
        with pytest.raises(ValidationError, match="needs even order >= 2, got d=3"):
            bounds.t3(f, 1)

    def test_wrong_variance_rejected(self, p2):
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 2.0"):
            bounds.t3(p2, 1)  # second moment 1, needs 2

    def test_chain_with_exact_gaussian_moments(self):
        rng = np.random.default_rng(223)
        for trial in range(40):
            d = 2 if trial % 4 else 4
            nu = int(rng.integers(1, 4))
            f = random_kernels(rng, 1, d_range=(d, d), n_max=7, sigma2=2.0 * nu)[0]
            comb = moments.gaussian_chi_square_combination(f, nu)
            v3, _ = bounds.t3(f, nu)
            v4 = math.sqrt((d - 1) / (3 * d) * abs(comb - 12 * nu ** 2 + 48 * nu))
            assert v3 <= v4 * (1 + 1e-10) + 1e-12


class TestNormalSmoothBound:
    def test_total_recomputes(self):
        f = kernels.disjoint_pairs(100)
        report = bounds.normal_smooth_bound(
            f, RADEMACHER, bounds.TestFunctionBudget(b3=1.0), eq4x=3.06
        )
        assert report.total == report.recompute_total()
        assert report.kind == "normal"

    def test_decreasing_in_m_for_rademacher(self):
        totals = []
        for m in (3, 6, 11):
            f = kernels.disjoint_pairs(m)
            eq4 = moments.exact_rademacher_distribution(f).moment(4)
            totals.append(
                bounds.normal_smooth_bound(f, RADEMACHER, bounds.TestFunctionBudget(b3=1.0), eq4).total
            )
        assert totals[0] > totals[1] > totals[2] > 0

    def test_p2_dominated_by_moment_component(self, p2):
        budget = bounds.TestFunctionBudget(b3=1.0)
        report = bounds.normal_smooth_bound(p2, GAUSS, budget, 9.0)
        floor = bounds.c_star(budget, 2) * math.sqrt(1 / 6) * math.sqrt(6)
        assert report.total >= floor

    def test_exactness_flag_carried(self):
        f = kernels.disjoint_pairs(4)
        report = bounds.normal_smooth_bound(
            f, GAUSS, bounds.TestFunctionBudget(b3=1.0), 4.49, bounds.MONTE_CARLO, 0.01
        )
        assert report.exactness["eq4x"] == bounds.MONTE_CARLO
        assert report.mc_standard_error == 0.01


class TestWassersteinBound:
    def test_p2_inapplicable(self, p2):
        report = bounds.wasserstein_bound(p2, GAUSS, 9.0)
        assert not report.applicable
        assert math.isnan(report.total)

    def test_boundary_value(self):
        report = bounds.BoundReport(
            kind="wasserstein",
            components={"b1": 1.5 / (4 * math.sqrt(2)), "b2": 1.5 / (4 * math.sqrt(2)),
                        "threshold": 3 / (4 * math.sqrt(2)), "d": 2.0},
        )
        assert report.recompute_total() == pytest.approx(
            4 * (3 / (4 * math.sqrt(2))) ** (1 / 3), rel=1e-12
        )

    def test_components_shrink_with_m(self):
        # the explicit constants keep real kernels inapplicable at desk
        # scale; the components themselves must still decay like m^{-1/4}
        small = bounds.wasserstein_bound(kernels.disjoint_pairs(10), GAUSS, 3 + 6 / 10)
        big = bounds.wasserstein_bound(kernels.disjoint_pairs(10_000), GAUSS, 3 + 6 / 10_000)
        for key in ("b1", "b2"):
            assert big.components[key] < small.components[key]
        assert not big.applicable


class TestChiSquareSmoothBound:
    def test_prefactor(self):
        assert bounds.chi2_prefactor(1) == 3.0
        assert bounds.chi2_prefactor(2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_moment_match_drops_moment_term(self):
        f = kernels.constant_kernel(20, sigma2=2.0)
        report = bounds.chi_square_smooth_bound(
            f, GAUSS, bounds.TestFunctionBudget(b3=1.0), 1, 8.0, 60.0
        )
        assert report.components["moment_term"] == 0.0
        assert report.total == report.recompute_total()

    def test_odd_order_and_variance_checks(self, p2):
        f3 = kernels.normalize_to_variance(kernels.random_sparse_kernel(3, 6, seed=4), 2.0)
        with pytest.raises(ValidationError, match="needs even order >= 2, got d=3"):
            bounds.chi_square_smooth_bound(f3, GAUSS, bounds.TestFunctionBudget(), 1, 8.0, 60.0)
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 2.0"):
            bounds.chi_square_smooth_bound(p2, GAUSS, bounds.TestFunctionBudget(), 1, 8.0, 60.0)


class TestDeltaIJ:
    def test_disjoint_pairs_self(self):
        for m in (4, 100):
            f = kernels.disjoint_pairs(m)
            assert bounds.delta_ij(f, f) == pytest.approx(math.sqrt(2 / m), rel=1e-12)

    def test_symmetric_for_equal_orders(self):
        a = kernels.normalize_to_variance(kernels.random_sparse_kernel(2, 7, seed=41), 1.0)
        b = kernels.normalize_to_variance(kernels.random_sparse_kernel(2, 7, seed=42), 1.0)
        assert bounds.delta_ij(a, b) == pytest.approx(bounds.delta_ij(b, a), rel=1e-14)

    def test_order_mismatch(self):
        f2 = kernels.disjoint_pairs(3)
        f4 = kernels.normalize_to_variance(kernels.random_sparse_kernel(4, 8, seed=43), 1.0)
        with pytest.raises(ValidationError, match="need d_i <= d_j, got d_i=4, d_j=2"):
            bounds.delta_ij(f4, f2)

    def test_mixed_orders_include_indicator_term(self):
        f2 = kernels.disjoint_pairs(3)
        f4 = kernels.normalize_to_variance(kernels.random_sparse_kernel(4, 8, seed=44), 1.0)
        total = bounds.delta_ij(f2, f4)
        indicator = math.sqrt(
            math.factorial(4) * math.comb(4, 2) * contractions.contraction_norm(f4, 2)
        )
        assert total >= indicator - 1e-12


class TestMultivariate:
    def test_two_copies_of_disjoint_pairs(self):
        f = kernels.disjoint_pairs(100)
        report = bounds.multivariate_smooth_bound(
            [f, f], RADEMACHER, bounds.TestFunctionBudget(b2m=1.0, b3m=1.0)
        )
        np.testing.assert_allclose(report.delta, math.sqrt(2) / 10, rtol=1e-12)
        assert report.components["c_influence_sum"] == pytest.approx(0.5, rel=1e-12)
        assert report.total == report.recompute_total()

    def test_zero_budget_is_zero(self):
        f = kernels.disjoint_pairs(10)
        report = bounds.multivariate_smooth_bound([f], RADEMACHER, bounds.TestFunctionBudget())
        assert report.total == 0.0

    def test_single_kernel_degenerates(self):
        f = kernels.disjoint_pairs(9)
        report = bounds.multivariate_smooth_bound(
            [f], RADEMACHER, bounds.TestFunctionBudget(b2m=1.0, b3m=0.0)
        )
        assert report.total == pytest.approx(bounds.delta_ij(f, f), rel=1e-12)

    def test_requires_unit_variance(self):
        f = kernels.disjoint_pairs(5, sigma2=2.0)
        with pytest.raises(ValidationError, match="kernel second moment is .*, expected 1.0"):
            bounds.multivariate_smooth_bound([f], RADEMACHER, bounds.TestFunctionBudget())


class TestReportInvariants:
    def test_overflowing_terms_raise(self, p2):
        huge4 = bounds.MomentProfile(beta3=1.0, beta4=1e200)
        f, budget = kernels.disjoint_pairs(10), bounds.TestFunctionBudget(b3=1.0, b2m=1.0, b3m=1.0)
        for build in (
            lambda: bounds.normal_smooth_bound(f, huge4, budget, 3.0),
            lambda: bounds.wasserstein_bound(f, huge4, 3.0),
            lambda: bounds.chi_square_smooth_bound(
                kernels.disjoint_pairs(10, sigma2=2.0), huge4, budget, 1, 8.0, 60.0),
            # float products reach inf without an OverflowError
            lambda: bounds.multivariate_smooth_bound(
                [f, f], bounds.MomentProfile(beta3=1e300, beta4=1.0), budget),
        ):
            with pytest.raises(ValidationError, match="beta4=.* at d=2"):
                build()
        # an inapplicable Wasserstein bound has a nan total by definition
        assert math.isnan(bounds.wasserstein_bound(p2, GAUSS, 9.0).total)

    def test_upper_bound_t1_dominates_exact(self, monkeypatch):
        rng = np.random.default_rng(251)
        for f in random_kernels(rng, 10, d_range=(3, 3), n_max=7, sigma2=1.0):
            exact_value, _ = bounds.t1(f)
            with monkeypatch.context() as m:
                m.setattr(kernels, "MATERIALIZATION_CAP", 10)
                upper_value, flag = bounds.t1(f)
            assert flag == bounds.UPPER_BOUND
            assert upper_value >= exact_value - 1e-12
