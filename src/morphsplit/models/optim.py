"""Deterministic smooth minimization behind a single entry point.

Two optimizers: batch L-BFGS (scipy, memory 10) and plain gradient descent
with Armijo backtracking. Both treat ``convergence_tol`` as a relative
objective-decrease threshold and stop at ``max_iterations``. A non-finite
objective or gradient raises :class:`TrainingError` with diagnostics; a run
that stops without converging logs a warning.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ..errors import TrainingError, ValidationError

OPTIMIZERS = ("lbfgs", "gradient_descent")
LBFGS_MEMORY = 10

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Shared training knobs for the gradient-trained models."""

    optimizer: str = "lbfgs"
    max_iterations: int = 200
    convergence_tol: float = 1e-6
    l2_lambda: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.optimizer not in OPTIMIZERS:
            raise ValidationError(f"optimizer must be one of {OPTIMIZERS}")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if self.convergence_tol <= 0:
            raise ValidationError("convergence_tol must be > 0")
        if self.l2_lambda < 0:
            raise ValidationError("l2_lambda must be >= 0")


@dataclass(frozen=True)
class OptimResult:
    x: np.ndarray
    objective: float
    history: tuple[float, ...]
    iterations: int
    converged: bool


def _checked(fun, context: str):
    state = {"evals": 0, "last_f": np.nan}

    def wrapped(x):
        f, g = fun(x)
        state["evals"] += 1
        if not np.isfinite(f) or not np.all(np.isfinite(g)):
            raise TrainingError(
                f"{context}: non-finite objective or gradient at evaluation "
                f"{state['evals']} (objective={f!r}, max|w|={np.abs(x).max():.3e})"
            )
        state["last_f"] = float(f)
        return f, g

    return wrapped, state


def minimize(fun, x0: np.ndarray, config: TrainConfig, context: str = "training") -> OptimResult:
    """Minimize ``fun`` (returning (objective, gradient)) from ``x0``.

    The history holds the accepted objective value per iteration; for
    gradient descent it is monotone non-increasing by construction.
    """
    result = _run(fun, x0, config, context)
    if not result.converged:
        logger.warning(
            "%s: stopped without converging after %d iterations (objective %.10g)",
            context, result.iterations, result.objective,
        )
    return result


def _run(fun, x0: np.ndarray, config: TrainConfig, context: str) -> OptimResult:
    wrapped, state = _checked(fun, context)
    if config.optimizer == "lbfgs":
        history: list[float] = []
        res = optimize.minimize(
            wrapped,
            np.asarray(x0, dtype=float),
            jac=True,
            method="L-BFGS-B",
            callback=lambda xk: history.append(state["last_f"]),
            options={
                "maxiter": config.max_iterations,
                "maxcor": LBFGS_MEMORY,
                "ftol": config.convergence_tol,
                "gtol": 1e-12,
            },
        )
        return OptimResult(
            x=np.asarray(res.x, dtype=float),
            objective=float(res.fun),
            history=tuple(history) if history else (float(res.fun),),
            iterations=int(res.nit),
            converged=bool(res.success),
        )
    return _gradient_descent(wrapped, x0, config)


def _gradient_descent(fun, x0, config: TrainConfig) -> OptimResult:
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun(x)
    history = [float(f)]
    step = 1.0
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        gg = float(g @ g)
        if gg == 0.0:
            converged = True
            break
        t = step
        accepted = False
        for _ in range(60):
            xn = x - t * g
            fn, gn = fun(xn)
            if fn <= f - 1e-4 * t * gg:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            converged = True
            break
        iterations += 1
        rel = (f - fn) / max(abs(f), abs(fn), 1.0)
        x, f, g = xn, float(fn), gn
        history.append(f)
        step = min(t * 2.0, 1e6)
        if rel <= config.convergence_tol:
            converged = True
            break
    return OptimResult(
        x=x, objective=f, history=tuple(history), iterations=iterations, converged=converged
    )
