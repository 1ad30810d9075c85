"""OLS regression, t-distribution p-values, and significance stars."""

import logging
import math

import numpy as np
import pytest

from morphsplit.errors import DomainError, SingularityError, ValidationError
from morphsplit.stats import (
    RegressionRecord,
    RegressionResult,
    build_design_matrix,
    fit_regression,
    ols_fit,
    significance_stars,
    student_t_cdf,
    two_sided_p,
)

# P(T <= t) computed to 50 decimal digits with an independent
# arbitrary-precision evaluation of the regularized incomplete beta
# function, frozen before the module was written.
T_CDF_REFERENCE = {
    (1, 0.0): 0.5,
    (1, 1.0): 0.75,
    (1, 2.0): 0.85241638234956673,
    (1, 4.0): 0.92202086962263067,
    (10, 0.0): 0.5,
    (10, 1.0): 0.82955343384897006,
    (10, 2.0): 0.96330598261462982,
    (10, 4.0): 0.99874083368763165,
    (100, 0.0): 0.5,
    (100, 1.0): 0.84013792210793832,
    (100, 2.0): 0.97589391063443316,
    (100, 4.0): 0.99993923817784962,
}


class TestStudentT:
    @pytest.mark.parametrize("key", sorted(T_CDF_REFERENCE))
    def test_cdf_matches_frozen_reference(self, key):
        dof, t = key
        assert student_t_cdf(t, dof) == pytest.approx(
            T_CDF_REFERENCE[key], abs=1e-8
        )

    @pytest.mark.parametrize("key", sorted(T_CDF_REFERENCE))
    def test_negative_t_symmetry(self, key):
        dof, t = key
        assert student_t_cdf(-t, dof) == pytest.approx(
            1.0 - T_CDF_REFERENCE[key], abs=1e-8
        )

    @pytest.mark.parametrize("dof", [1, 5, 42])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7, 6.0])
    def test_two_sided_matches_tail_doubling(self, dof, t):
        assert two_sided_p(t, dof) == pytest.approx(
            2.0 * (1.0 - student_t_cdf(abs(t), dof)), abs=1e-12
        )

    def test_infinite_t(self):
        assert two_sided_p(math.inf, 7) == 0.0
        assert student_t_cdf(math.inf, 7) == 1.0
        assert student_t_cdf(-math.inf, 7) == 0.0

    def test_bad_dof(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, 0)

    @pytest.mark.parametrize("dof", [1, 2, 5, 30, 1000])
    def test_cdf_is_the_betainc_tail_bit_for_bit(self, dof):
        from scipy.special import betainc

        def reference(t):
            # the tail written out on its own, with its own edge cases
            if t == 0.0:
                return 0.5
            if math.isinf(t):
                return 1.0 if t > 0 else 0.0
            tail = 0.5 * float(betainc(dof / 2, 0.5, dof / (dof + t * t)))
            return 1.0 - tail if t > 0 else tail

        for t in (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e-8, 0.3, -0.3,
                  1.7, -2.5, 6.0, -40.0, 1e6):
            assert student_t_cdf(t, dof).hex() == reference(t).hex(), t


class TestStars:
    @pytest.mark.parametrize(
        "p,stars",
        [
            (0.0005, "***"),
            (0.001, "**"),
            (0.005, "**"),
            (0.01, "*"),
            (0.03, "*"),
            (0.05, ""),
            (0.2, ""),
            (1.0, ""),
        ],
    )
    def test_thresholds_are_strict(self, p, stars):
        assert significance_stars(p) == stars

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            significance_stars(1.5)


def record(
    f1=0.5,
    strategy=0,
    new_test_gen=0,
    overlap=0.5,
    wcr=2.0,
    mpw=1.5,
    mtpw=0.8,
    arch="crf",
):
    return RegressionRecord(
        f1=f1,
        strategy=strategy,
        new_test_gen=new_test_gen,
        morpheme_overlap=overlap,
        word_count_ratio=wcr,
        morph_per_word_ratio=mpw,
        morph_type_per_word_ratio=mtpw,
        model_arch=arch,
    )


def random_records(n, n_arch=4, seed=0):
    rng = np.random.default_rng(seed)
    archs = [f"arch{i}" for i in range(n_arch)]
    out = []
    for i in range(n):
        out.append(
            record(
                f1=float(rng.uniform(0.05, 0.95)),
                strategy=int(i % 2),
                new_test_gen=int(rng.integers(0, 2)),
                overlap=float(rng.uniform(0.1, 0.9)),
                wcr=float(rng.uniform(0.5, 3.0)),
                mpw=float(rng.uniform(0.8, 2.0)),
                mtpw=float(rng.uniform(0.3, 1.5)),
                arch=archs[int(rng.integers(0, n_arch))],
            )
        )
    return out


class TestRecordValidation:
    def test_valid_record(self):
        record()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f1": 1.2},
            {"strategy": 2},
            {"new_test_gen": -1},
            {"overlap": 1.1},
            {"wcr": 0.0},
            {"mpw": -0.5},
            {"arch": ""},
        ],
    )
    def test_invalid_records(self, kwargs):
        with pytest.raises(ValidationError):
            record(**kwargs)


class TestDesignMatrix:
    def test_hand_constructed_layout(self):
        records = [
            record(strategy=1, new_test_gen=0, overlap=0.5, wcr=2.0,
                   mpw=1.5, mtpw=0.8, arch="b"),
            record(strategy=0, new_test_gen=1, overlap=0.25, wcr=1.0,
                   mpw=1.0, mtpw=0.5, arch="a"),
        ]
        X, y, terms = build_design_matrix(records)
        assert terms == (
            "intercept", "strategy", "new_test_gen", "morpheme_overlap",
            "word_count_ratio", "morph_per_word_ratio",
            "morph_type_per_word_ratio", "model[b]",
            "strategy:new_test_gen", "strategy:morpheme_overlap",
            "strategy:word_count_ratio", "strategy:morph_per_word_ratio",
            "strategy:morph_type_per_word_ratio",
        )
        np.testing.assert_allclose(
            X[0],
            [1, 1, 0, 0.5, 2.0, 1.5, 0.8, 1, 0, 0.5, 2.0, 1.5, 0.8],
        )
        np.testing.assert_allclose(
            X[1],
            [1, 0, 1, 0.25, 1.0, 1.0, 0.5, 0, 0, 0, 0, 0, 0],
        )
        np.testing.assert_allclose(y, [0.5, 0.5])

    def test_four_archs_give_three_dummies(self):
        records = random_records(20, n_arch=4)
        _, _, terms = build_design_matrix(records)
        dummies = [t for t in terms if t.startswith("model[")]
        assert dummies == ["model[arch1]", "model[arch2]", "model[arch3]"]

    def test_single_record_rejected(self):
        with pytest.raises(DomainError):
            build_design_matrix([record()])

    def test_single_strategy_level_rejected(self):
        with pytest.raises(DomainError):
            build_design_matrix([record(strategy=1), record(strategy=1)])

    def test_constant_column_warns(self, caplog):
        records = [
            record(strategy=1, new_test_gen=1),
            record(strategy=0, new_test_gen=1),
            record(strategy=1, new_test_gen=1),
        ]
        with caplog.at_level(logging.WARNING, logger="morphsplit.stats"):
            build_design_matrix(records)
        assert any("new_test_gen" in r.getMessage() for r in caplog.records)


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(1.0, 7.0)
        X = np.column_stack([np.ones_like(x), x])
        y = 2.0 * x
        result = ols_fit(X, y, ("intercept", "x"))
        assert result.beta[0] == pytest.approx(0.0, abs=1e-10)
        assert result.beta[1] == pytest.approx(2.0, rel=1e-12)
        assert result.r_squared == pytest.approx(1.0, abs=1e-12)
        # zero residual variance: zero coefficient is certain, nonzero exact
        assert result.p[1] == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_response(self):
        X = np.column_stack([np.ones(4), [-1.0, -1.0, 1.0, 1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        result = ols_fit(X, y)
        assert result.beta[1] == pytest.approx(0.0, abs=1e-12)
        assert result.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        """12-point fit vs an independent solve of X'X b = X'y, with
        p-values recomputed through an arbitrary-precision beta integral."""
        import mpmath

        rng = np.random.default_rng(42)
        n, k = 12, 3
        X = np.column_stack([np.ones(n), rng.uniform(-2, 2, size=(n, k - 1))])
        true_beta = np.array([0.3, 1.7, -0.9])
        y = X @ true_beta + 1e-3 * rng.standard_normal(n)
        result = ols_fit(X, y)

        beta_o = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(result.beta, beta_o, atol=1e-6)
        np.testing.assert_allclose(result.beta, true_beta, atol=1e-2)

        resid = y - X @ beta_o
        sigma2 = float(resid @ resid) / (n - k)
        cov = sigma2 * np.linalg.inv(X.T @ X)
        se_o = np.sqrt(np.diag(cov))
        np.testing.assert_allclose(result.se, se_o, atol=1e-6)

        mpmath.mp.dps = 50
        for j in range(k):
            t = beta_o[j] / se_o[j]
            x = n - k
            p_o = float(
                mpmath.betainc(
                    x / 2, mpmath.mpf(1) / 2, 0, x / (x + t * t), regularized=True
                )
            )
            assert result.p[j] == pytest.approx(p_o, abs=1e-6)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 4))])
        y = rng.standard_normal(40)
        result = ols_fit(X, y)
        resid = y - X @ np.asarray(result.beta)
        scaled = X.T @ resid / np.linalg.norm(X, axis=0)
        assert np.max(np.abs(scaled)) < 1e-8

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        y = X @ np.array([0.1, 0.5, -0.2, 0.9]) + 0.05 * rng.standard_normal(30)
        base = ols_fit(X, y)
        X2 = X.copy()
        X2[:, 2] *= 100.0
        scaled = ols_fit(X2, y)
        assert scaled.beta[2] == pytest.approx(base.beta[2] / 100.0, rel=1e-9)
        assert scaled.t[2] == pytest.approx(base.t[2], rel=1e-9)
        assert scaled.p[2] == pytest.approx(base.p[2], abs=1e-9)
        assert scaled.beta[1] == pytest.approx(base.beta[1], rel=1e-9)

    def test_r_squared_recomputed(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(25), rng.standard_normal((25, 2))])
        y = X @ np.array([0.2, 0.7, -0.4]) + 0.1 * rng.standard_normal(25)
        result = ols_fit(X, y)
        resid = y - X @ np.asarray(result.beta)
        rss = float(resid @ resid)
        tss = float(np.sum((y - y.mean()) ** 2))
        assert result.r_squared == pytest.approx(1.0 - rss / tss, abs=1e-12)
        assert 0.0 <= result.r_squared <= 1.0

    def test_duplicate_column_named_in_error(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        y = np.arange(10.0)
        with pytest.raises(SingularityError, match="right"):
            ols_fit(X, y, ("intercept", "left", "right"))

    def test_constant_column_is_singular(self):
        records = [
            record(strategy=i % 2, new_test_gen=i % 2, overlap=0.05 * i + 0.05,
                   wcr=1.0 + i, mpw=1.0 + 0.1 * i, mtpw=0.5 + 0.05 * i,
                   f1=0.05 * i + 0.1, arch="a" if i < 7 else "b")
            for i in range(14)
        ]
        # morpheme ratios vary but new_test_gen == strategy exactly:
        # the interaction column strategy:new_test_gen duplicates strategy
        with pytest.raises(SingularityError):
            fit_regression(records)

    def test_too_few_rows_rejected(self):
        X = np.ones((3, 3))
        with pytest.raises(DomainError):
            ols_fit(X, np.ones(3))

    def test_result_validation(self):
        with pytest.raises(ValidationError):
            RegressionResult(
                terms=("a",), beta=(1.0,), se=(1.0,), t=(1.0,), p=(0.5,),
                r_squared=0.5, n=5, dof=3,
            )


class TestEndToEnd:
    def test_fit_regression_matches_oracle(self):
        records = random_records(80, n_arch=4, seed=3)
        result = fit_regression(records)
        X, y, terms = build_design_matrix(records)
        assert result.terms == terms
        beta_o = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(result.beta, beta_o, atol=1e-8)
        assert result.n == 80
        assert result.dof == 80 - len(terms)
        rows = result.rows()
        assert [r["term"] for r in rows] == list(terms)
        for row in rows:
            assert row["stars"] == significance_stars(row["p"])
