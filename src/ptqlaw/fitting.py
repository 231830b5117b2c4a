"""Nonlinear least-squares estimation of scaling-law parameters.

Fitting happens on the untransformed accuracy scale: the objective is
``sum_i (acc_i - model(cfg_i; theta))^2`` over the free parameters. Low
accuracies make log-transformed ordinary least squares unreliable as a final
estimator, so the log-linear solution is used only as a warm start for a
damped Gauss-Newton (Levenberg-Marquardt) refinement with an analytic
Jacobian.

Goodness of fit is the coefficient of determination computed on the original
accuracy scale,

    r2 = 1 - sum((y_i - yhat_i)^2) / sum((y_i - ybar)^2),

with the adjusted variant applying the standard (n - 1)/(n - p - 1) penalty,
where p counts the constant plus the free exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateDesignError,
    FitError,
    UndefinedRSquaredError,
    ValidationError,
)
from .model import (
    EXPONENT_FIELDS,
    FACTOR_ORDER,
    Factor,
    PtqConfig,
    ScalingLawParams,
    evaluate,
    factor_columns,
)

# Keep the warm-start constant strictly positive so its log stays finite.
_C_FLOOR = 1e-12


class Observation(NamedTuple):
    """One measured point: a configuration, its task label, and its accuracy."""

    config: PtqConfig
    task: str
    accuracy: float


@dataclass(frozen=True)
class FitOptions:
    """Levenberg-Marquardt controls.

    An accepted step shrinks the damping by 10x, a rejected one grows it by
    10x. Convergence is declared when the accepted (or smallest rejected)
    step norm falls below ``tol_step`` relative to the parameter norm, or the
    relative cost decrease falls below ``tol_cost``.
    """

    max_iter: int = 200
    tol_step: float = 1e-10
    tol_cost: float = 1e-12
    damping_init: float = 1e-3

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        for name in ("tol_step", "tol_cost", "damping_init"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class FitProblem:
    """Observations plus the factor mask (and optional pinned exponents) to fit.

    ``fixed`` maps factors to exponent values that are held constant instead
    of being estimated (used for slice fits); pinned factors must be in the
    mask. At least ``free parameters + 2`` observations are required.
    """

    observations: tuple[Observation, ...]
    mask: frozenset[Factor]
    fixed: Mapping[Factor, float] | None = None

    def __post_init__(self):
        observations = tuple(
            o if isinstance(o, Observation) else Observation(*o) for o in self.observations
        )
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "mask", frozenset(self.mask))
        fixed = dict(self.fixed or {})
        for factor, value in fixed.items():
            if factor not in self.mask:
                raise ValidationError(
                    f"fixed exponent given for {factor.value}, which is not in the mask"
                )
            if not math.isfinite(value):
                raise ValidationError(f"fixed exponent for {factor.value} must be finite")
        object.__setattr__(self, "fixed", fixed)
        if not observations:
            raise ValidationError("a fit needs at least one observation")
        for index, obs in enumerate(observations):
            if not (math.isfinite(obs.accuracy) and obs.accuracy > 0):
                raise ValidationError(
                    f"observation {index}: accuracy must be positive and finite, "
                    f"got {obs.accuracy!r}"
                )
        needed = self.n_parameters + 2
        if len(observations) < needed:
            raise ValidationError(
                f"insufficient observations: {len(observations)} given, "
                f"{needed} needed for {self.n_parameters} free parameters"
            )

    @property
    def free_factors(self) -> tuple[Factor, ...]:
        """Masked-in factors whose exponents are estimated, canonical order."""
        return tuple(f for f in FACTOR_ORDER if f in self.mask and f not in self.fixed)

    @property
    def n_parameters(self) -> int:
        """Free parameter count: the constant plus the free exponents."""
        return 1 + len(self.free_factors)

    @property
    def task(self) -> str:
        labels = {obs.task for obs in self.observations}
        return labels.pop() if len(labels) == 1 else "custom"


@dataclass(frozen=True)
class GoodnessOfFit:
    r_squared: float
    adjusted_r_squared: float
    sse: float


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with residual statistics and convergence diagnostics."""

    params: ScalingLawParams
    r_squared: float
    adjusted_r_squared: float
    sse: float
    iterations: int
    converged: bool
    final_step_norm: float
    n_observations: int
    sse_trace: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.adjusted_r_squared > self.r_squared + 1e-12:
            raise ValidationError("adjusted r_squared cannot exceed r_squared")
        if self.sse < 0:
            raise ValidationError(f"sse must be non-negative, got {self.sse!r}")


class _Design(NamedTuple):
    """Vectorized problem data shared by the warm start and the LM loop."""

    y: np.ndarray
    columns: dict[Factor, np.ndarray]  # transformed factor values per observation
    fixed_term: np.ndarray             # product of pinned factors' contributions


def _build_design(problem: FitProblem) -> _Design:
    y = np.array([obs.accuracy for obs in problem.observations], dtype=float)
    columns = factor_columns([obs.config for obs in problem.observations], problem.mask)
    fixed_term = np.ones_like(y)
    for factor, exponent in problem.fixed.items():
        fixed_term = fixed_term * columns[factor] ** exponent
    return _Design(y=y, columns=columns, fixed_term=fixed_term)


def _model_values(theta: np.ndarray, design: _Design, free: tuple[Factor, ...]) -> np.ndarray:
    values = theta[0] * design.fixed_term
    for position, factor in enumerate(free, start=1):
        values = values * design.columns[factor] ** theta[position]
    return values


def _jacobian(
    theta: np.ndarray, values: np.ndarray, design: _Design, free: tuple[Factor, ...]
) -> np.ndarray:
    """Partial derivatives of the model values w.r.t. [c, free exponents]."""
    cols = [values / theta[0]]
    for factor in free:
        cols.append(values * np.log(design.columns[factor]))
    return np.column_stack(cols)


def _params_from_theta(problem: FitProblem, theta: np.ndarray) -> ScalingLawParams:
    exponents = {EXPONENT_FIELDS[f]: v for f, v in problem.fixed.items()}
    for position, factor in enumerate(problem.free_factors, start=1):
        exponents[EXPONENT_FIELDS[factor]] = float(theta[position])
    return ScalingLawParams(
        task=problem.task, c=float(theta[0]), mask=problem.mask, **exponents
    )


def warm_start(problem: FitProblem) -> ScalingLawParams:
    """Ordinary least squares on the log-linearized model.

    Solving ``log(acc) = log c + sum_k e_k * log(t_k)`` over the free factors
    is exact for noiseless data and gives a cheap, deterministic starting
    point otherwise. Pinned exponents are subtracted from the target first.

    Raises:
        DegenerateDesignError: a free factor is constant across observations,
            or the design is otherwise rank deficient.
    """
    return _warm_start(problem, _build_design(problem))


def _warm_start(problem: FitProblem, design: _Design) -> ScalingLawParams:
    """``warm_start`` on the already built design of ``problem``."""
    free = problem.free_factors
    target = np.log(design.y) - np.log(design.fixed_term)
    feature_cols = []
    for factor in free:
        col = np.log(design.columns[factor])
        spread = float(np.max(col) - np.min(col))
        if spread == 0.0:
            raise DegenerateDesignError(
                f"factor {factor.value} is constant across all observations "
                f"but is in the mask; pin or drop it",
                factors=(factor,),
            )
        feature_cols.append(col)
    matrix = np.column_stack([np.ones_like(target)] + feature_cols)
    solution, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    if rank < matrix.shape[1]:
        raise DegenerateDesignError(
            "design matrix is rank deficient: the masked factors are collinear "
            f"over these observations ({', '.join(f.value for f in free)})",
            factors=free,
        )
    theta = np.empty(1 + len(free))
    theta[0] = max(float(np.exp(solution[0])), _C_FLOOR)
    theta[1:] = solution[1:]
    return _params_from_theta(problem, theta)


def fit_nls(problem: FitProblem, options: FitOptions | None = None) -> FitResult:
    """Levenberg-Marquardt fit on the accuracy scale, from the OLS warm start.

    Steps solve ``(J'J + damping * diag(J'J)) step = J'residual``; only steps
    that reduce the squared error are accepted, so the cost trace is
    monotonically non-increasing. Returns the best parameters found, with
    ``converged=False`` when ``max_iter`` ends the search first.

    Raises:
        FitError: non-finite residuals or Jacobian at an accepted iterate
            (carries the iteration index).
        ValidationError: the problem or options are invalid.
        DegenerateDesignError: from the warm start, see ``warm_start``.
    """
    options = options or FitOptions()
    design = _build_design(problem)
    free = problem.free_factors
    start = _warm_start(problem, design)
    theta = np.empty(1 + len(free))
    theta[0] = start.c
    for position, factor in enumerate(free, start=1):
        theta[position] = start.exponent(factor)

    with np.errstate(over="ignore", invalid="ignore"):
        values = _model_values(theta, design, free)
    if not np.all(np.isfinite(values)):
        raise FitError("non-finite residuals at the starting point", iteration=0)
    sse = float(np.sum((design.y - values) ** 2))
    if not math.isfinite(sse):
        raise FitError("non-finite cost at the starting point", iteration=0)
    trace = [sse]
    damping = options.damping_init
    converged = False
    final_step_norm = 0.0
    iterations = 0

    for iteration in range(1, options.max_iter + 1):
        iterations = iteration
        residuals = design.y - values
        jac = _jacobian(theta, values, design, free)
        if not np.all(np.isfinite(jac)):
            raise FitError("non-finite Jacobian", iteration=iteration)
        normal = jac.T @ jac
        gradient = jac.T @ residuals
        if not (np.all(np.isfinite(normal)) and np.all(np.isfinite(gradient))):
            raise FitError("non-finite normal equations", iteration=iteration)
        diag = np.diag(np.maximum(np.diag(normal), 1e-300))
        try:
            step = np.linalg.solve(normal + damping * diag, gradient)
        except np.linalg.LinAlgError:
            damping *= 10.0
            if damping > 1e14:
                break
            continue
        step_norm = float(np.linalg.norm(step))
        trial = theta + step
        trial_values = None
        if trial[0] > 0:
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = _model_values(trial, design, free)
            if np.all(np.isfinite(candidate)):
                trial_values = candidate
        if trial_values is not None:
            with np.errstate(over="ignore"):
                trial_sse = float(np.sum((design.y - trial_values) ** 2))
            if not math.isfinite(trial_sse):
                trial_sse = math.inf
        else:
            trial_sse = math.inf

        if trial_sse < sse:
            decrease = sse - trial_sse
            theta, values, sse = trial, trial_values, trial_sse
            trace.append(sse)
            final_step_norm = step_norm
            damping = max(damping / 10.0, 1e-15)
            if step_norm < options.tol_step * (1.0 + float(np.linalg.norm(theta))):
                converged = True
                break
            if decrease < options.tol_cost * max(sse, 1e-300):
                converged = True
                break
        else:
            # No descent along this step; if the proposal is already tiny the
            # current point is a minimizer to within tolerance.
            if step_norm < options.tol_step * (1.0 + float(np.linalg.norm(theta))):
                converged = True
                final_step_norm = step_norm
                break
            damping *= 10.0
            if damping > 1e14:
                break

    stats = _r2_from_sse(design.y, sse, problem.n_parameters)
    return FitResult(
        params=_params_from_theta(problem, theta),
        r_squared=stats.r_squared,
        adjusted_r_squared=stats.adjusted_r_squared,
        sse=sse,
        iterations=iterations,
        converged=converged,
        final_step_norm=final_step_norm,
        n_observations=len(problem.observations),
        sse_trace=tuple(trace),
    )


def _r2_from_sse(y: np.ndarray, sse: float, n_parameters: int) -> GoodnessOfFit:
    n = len(y)
    if n < 2:
        raise ValidationError("r_squared needs at least 2 observations")
    total = float(np.sum((y - np.mean(y)) ** 2))
    if total == 0.0:
        raise UndefinedRSquaredError(
            "all observed accuracies are identical; r_squared is undefined"
        )
    r_squared = 1.0 - sse / total
    denominator = n - n_parameters - 1
    if denominator < 1:
        raise ValidationError(
            f"adjusted r_squared needs n > p + 1 (n={n}, p={n_parameters})"
        )
    adjusted = 1.0 - (1.0 - r_squared) * (n - 1) / denominator
    return GoodnessOfFit(r_squared=r_squared, adjusted_r_squared=adjusted, sse=sse)


def goodness_of_fit(
    observations: Sequence[Observation],
    params: ScalingLawParams,
    n_free_params: int | None = None,
) -> GoodnessOfFit:
    """R-squared statistics of ``params`` against measured observations.

    ``n_free_params`` defaults to the constant plus every masked-in exponent;
    pass the actual free count when some exponents were pinned.

    Raises:
        UndefinedRSquaredError: the observed accuracies have zero variance.
    """
    observations = [o if isinstance(o, Observation) else Observation(*o) for o in observations]
    y = np.array([obs.accuracy for obs in observations], dtype=float)
    predictions = evaluate(params, [obs.config for obs in observations])
    sse = float(np.sum((y - predictions) ** 2))
    p = n_free_params if n_free_params is not None else 1 + len(params.mask)
    return _r2_from_sse(y, sse, p)


def prediction_jacobian(params: ScalingLawParams, cfg: PtqConfig) -> np.ndarray:
    """Analytic partials of the predicted accuracy w.r.t. [c, masked exponents].

    Entries follow canonical factor order. For the multiplicative law the
    closed forms are ``df/dc = f / c`` and ``df/de_k = f * ln(t_k)`` with
    ``t_k`` the transformed factor value.
    """
    value = float(evaluate(params, (cfg,))[0])
    columns = factor_columns((cfg,), params.mask).values()
    return np.array([value / params.c] + [value * math.log(col[0]) for col in columns])


def fit_report_extras(result: FitResult) -> dict[str, object]:
    """Diagnostic keys appended to a serialized fit (see ``params_to_text``)."""
    return {
        "r_squared": result.r_squared,
        "adjusted_r_squared": result.adjusted_r_squared,
        "sse": result.sse,
        "n_observations": result.n_observations,
        "iterations": result.iterations,
        "converged": str(result.converged).lower(),
        "final_step_norm": result.final_step_norm,
    }
