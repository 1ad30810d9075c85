"""Ordinary least squares with interactions, t-based p-values, and stars.

The design matrix has a fixed, documented column order:

    1. intercept
    2. strategy           (1 = random residual split, 0 otherwise)
    3. each of ``COVARIATES`` in order: new_test_gen (1 = random new-test
       carve, 0 otherwise), morpheme_overlap, and the train-to-eval ratios
       word_count_ratio, morph_per_word_ratio and morph_type_per_word_ratio
    4. model dummies, one per non-reference architecture in sorted order
       (the first sorted architecture is the dropped reference level)
    5. strategy x each of ``COVARIATES``

Fitting uses a pivoted QR decomposition; rank deficiency raises
:class:`SingularityError` naming the dependent columns. Two-sided p-values
come from the Student-t distribution through the regularized incomplete
beta function.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import betainc

from .errors import DomainError, SingularityError, ValidationError
from .records import Record

logger = logging.getLogger(__name__)

#: The corpus covariates of the regression, in design-matrix order. Records,
#: the records CSV and the design matrix all take their columns from here.
COVARIATES = (
    "new_test_gen",
    "morpheme_overlap",
    "word_count_ratio",
    "morph_per_word_ratio",
    "morph_type_per_word_ratio",
)


@dataclass(frozen=True)
class RegressionRecord(Record):
    """One regression observation: a response F1 plus its covariates.

    ``from_dict`` reads a record row, persisted or read as CSV text, and
    ignores its provenance columns (``cell_id``, ``score_on``).
    """

    f1: float
    strategy: int
    new_test_gen: int
    morpheme_overlap: float
    word_count_ratio: float
    morph_per_word_ratio: float
    morph_type_per_word_ratio: float
    model_arch: str

    def __post_init__(self) -> None:
        if not 0.0 <= self.f1 <= 1.0:
            raise ValidationError(f"f1 must lie in [0, 1], got {self.f1}")
        if self.strategy not in (0, 1):
            raise ValidationError("strategy must be 0 or 1")
        if self.new_test_gen not in (0, 1):
            raise ValidationError("new_test_gen must be 0 or 1")
        if not 0.0 <= self.morpheme_overlap <= 1.0:
            raise ValidationError("morpheme_overlap must lie in [0, 1]")
        for name in COVARIATES:
            if name.endswith("_ratio") and getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if not self.model_arch:
            raise ValidationError("model_arch must be non-empty")


@dataclass(frozen=True)
class RegressionResult:
    """Fitted coefficients with their uncertainty and fit quality."""

    terms: tuple[str, ...]
    beta: tuple[float, ...]
    se: tuple[float, ...]
    t: tuple[float, ...]
    p: tuple[float, ...]
    r_squared: float
    n: int
    dof: int

    def __post_init__(self) -> None:
        k = len(self.terms)
        if not (len(self.beta) == len(self.se) == len(self.t) == len(self.p) == k):
            raise ValidationError("term/coefficient arrays must align")
        if self.dof != self.n - k or self.dof <= 0:
            raise ValidationError("dof must equal n - #terms and be positive")
        if any(not 0.0 <= v <= 1.0 for v in self.p):
            raise ValidationError("p-values must lie in [0, 1]")

    def stars(self) -> tuple[str, ...]:
        return tuple(significance_stars(v) for v in self.p)

    def rows(self) -> list[dict]:
        """Per-term rows in design-matrix order, ready for CSV writing."""
        return [
            {
                "term": term,
                "beta": b,
                "se": s,
                "t": t,
                "p": p,
                "stars": significance_stars(p),
            }
            for term, b, s, t, p in zip(self.terms, self.beta, self.se, self.t, self.p)
        ]


def build_design_matrix(
    records: Sequence[RegressionRecord],
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Assemble the fixed-layout design matrix and response vector.

    Requires at least two records and both strategy levels present. A
    non-intercept column that is constant across records is logged as a
    rank-deficiency warning; the subsequent fit will reject it.
    """
    if len(records) < 2:
        raise DomainError("build_design_matrix needs at least two records")
    strategies = {r.strategy for r in records}
    if len(strategies) < 2:
        raise DomainError("records must include both residual strategy levels")
    archs = sorted({r.model_arch for r in records})
    terms = ["intercept", "strategy", *COVARIATES]
    terms += [f"model[{a}]" for a in archs[1:]]
    terms += [f"strategy:{c}" for c in COVARIATES]

    rows = []
    for r in records:
        controls = [float(getattr(r, c)) for c in COVARIATES]
        row = [1.0, float(r.strategy), *controls]
        row += [1.0 if r.model_arch == a else 0.0 for a in archs[1:]]
        row += [r.strategy * c for c in controls]
        rows.append(row)
    X = np.asarray(rows, dtype=float)
    y = np.asarray([r.f1 for r in records], dtype=float)

    constant = [
        terms[j]
        for j in range(1, X.shape[1])
        if np.all(X[:, j] == X[0, j])
    ]
    if constant:
        logger.warning(
            "design matrix has constant non-intercept columns (rank "
            "deficiency ahead): %s", ", ".join(constant)
        )
    return X, y, tuple(terms)


def student_t_cdf(t: float, dof: int) -> float:
    """P(T <= t) for Student's t with ``dof`` degrees of freedom."""
    if dof < 1:
        raise DomainError("dof must be >= 1")
    if t == 0.0:
        return 0.5
    if math.isinf(t):
        return 1.0 if t > 0 else 0.0
    tail = 0.5 * float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))
    return 1.0 - tail if t > 0 else tail


def two_sided_p(t: float, dof: int) -> float:
    """P(|T| >= |t|), the two-sided t-test p-value."""
    if dof < 1:
        raise DomainError("dof must be >= 1")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return float(betainc(dof / 2.0, 0.5, dof / (dof + t * t)))


def significance_stars(p: float) -> str:
    """Star notation with strict thresholds at 0.05, 0.01, and 0.001."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0, 1], got {p}")
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def ols_fit(
    X: np.ndarray,
    y: np.ndarray,
    term_names: Sequence[str] | None = None,
) -> RegressionResult:
    """Least squares via pivoted QR, with SEs, t statistics, and p-values.

    Raises :class:`SingularityError` when X is rank deficient, naming the
    columns the pivoting marked as dependent.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DomainError("X must be (n, k) and y must be length n")
    n, k = X.shape
    if term_names is None:
        term_names = tuple(f"x{j}" for j in range(k))
    else:
        term_names = tuple(term_names)
        if len(term_names) != k:
            raise DomainError("term_names must match the column count")
    if n <= k:
        raise DomainError(f"need more observations ({n}) than terms ({k})")

    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    tol = max(n, k) * np.finfo(float).eps * (diag[0] if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < k:
        dependent = sorted(term_names[j] for j in piv[rank:])
        raise SingularityError(
            "design matrix is rank deficient; dependent columns: "
            + ", ".join(dependent)
        )

    qty = Q.T @ y
    beta_piv = solve_triangular(R, qty)
    beta = np.empty(k)
    beta[piv] = beta_piv

    residuals = y - X @ beta
    rss = float(residuals @ residuals)
    dof = n - k
    sigma2 = rss / dof

    r_inv = solve_triangular(R, np.eye(k))
    cov_piv = r_inv @ r_inv.T
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = cov_piv
    se = np.sqrt(np.maximum(sigma2 * np.diag(xtx_inv), 0.0))

    t_stats = []
    p_vals = []
    for b, s in zip(beta, se):
        if s == 0.0:
            t = 0.0 if b == 0.0 else math.copysign(math.inf, b)
        else:
            t = b / s
        t_stats.append(t)
        p_vals.append(two_sided_p(t, dof))

    tss = float(np.sum((y - y.mean()) ** 2))
    if tss == 0.0:
        r_squared = 1.0 if rss == 0.0 else 0.0
    else:
        r_squared = 1.0 - rss / tss

    return RegressionResult(
        terms=term_names,
        beta=tuple(float(b) for b in beta),
        se=tuple(float(s) for s in se),
        t=tuple(float(t) for t in t_stats),
        p=tuple(float(p) for p in p_vals),
        r_squared=float(r_squared),
        n=n,
        dof=dof,
    )


def fit_regression(records: Sequence[RegressionRecord]) -> RegressionResult:
    """Build the design matrix from records and fit it in one step."""
    X, y, terms = build_design_matrix(records)
    return ols_fit(X, y, terms)
