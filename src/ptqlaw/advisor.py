"""Configuration advice from a fitted law: sweeps, Pareto frontiers, and
minimum-storage lookups.

Storage cost counts weights plus group metadata only: ``n_params * b_eff``
bits per configuration. Calibration set size costs no storage; it is carried
through as a separate effort column so the accuracy/effort trade-off stays
visible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from .errors import ExtrapolationWarning, ValidationError
from .model import (
    Factor,
    PtqConfig,
    ScalingLawParams,
    _factor_index,
    _FactorIndex,
    effective_bit_width,
    evaluate,
)

#: Ranges the shipped fits were calibrated on. Predictions outside these are
#: extrapolations and must be requested explicitly.
FITTED_RANGES: dict[Factor, tuple[float, float]] = {
    Factor.N: (125e6, 13e9),
    Factor.C_B: (8, 4096),
    Factor.G: (32, 1024),
    Factor.B_EFF: (2, 8),  # nominal bits; checked against w_base
}


class _Grid(NamedTuple):
    """A space's grid points and what every sweep needs of each, in grid order."""

    configs: tuple[PtqConfig, ...]
    storage_bits: tuple[float, ...]
    outside: tuple[tuple[str, ...], ...]  # fields outside FITTED_RANGES
    index: _FactorIndex  # each factor's distinct keys and each point's index into them


@dataclass(frozen=True)
class SearchSpace:
    """Candidate lists for each configuration axis.

    ``symmetric`` selects the zero-point convention for every generated
    configuration (b_z = 0 rather than b_z = w_base).

    The grid (its configurations, their storage costs and range checks, and
    the factor index that maps each configuration to the distinct values of
    each factor) is built once per space, on first use, and reused by every
    later sweep of it. It is not a field: equality, hashing, repr and
    pickling see only the candidate lists.
    """

    n_params: tuple[float, ...]
    w_base: tuple[int, ...]
    c_b: tuple[int, ...]
    g: tuple[int, ...]
    symmetric: bool = False

    def __post_init__(self):
        for name in ("n_params", "w_base", "c_b", "g"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValidationError(f"search space list {name} is empty")
            object.__setattr__(self, name, values)
        # Bound each axis here; each grid point is fully validated by
        # PtqConfig when the grid is built.
        for n in self.n_params:
            if not n >= 1:
                raise ValidationError(f"n_params candidate must be >= 1, got {n!r}")
        for w in self.w_base:
            if not w >= 1:
                raise ValidationError(f"w_base candidate must be >= 1, got {w!r}")
        for cb in self.c_b:
            if not cb >= 2:
                raise ValidationError(f"c_b candidate must be >= 2, got {cb!r}")
        for g in self.g:
            if not g >= 1:
                raise ValidationError(f"g candidate must be >= 1, got {g!r}")

    @cached_property
    def _grid(self) -> _Grid:
        b_z = 0 if self.symmetric else None
        configs = tuple(
            PtqConfig(n_params=n, w_base=w, c_b=cb, g=g, b_z=b_z)
            for n in sorted(self.n_params)
            for w in sorted(self.w_base)
            for cb in sorted(self.c_b)
            for g in sorted(self.g)
        )
        return _Grid(
            configs=configs,
            storage_bits=tuple(cfg.n_params * effective_bit_width(cfg).value for cfg in configs),
            outside=tuple(_out_of_range_fields(cfg) for cfg in configs),
            index=_factor_index(configs),
        )

    def __getstate__(self) -> dict:
        # The cached grid is derived from the fields; pickle the fields only.
        state = dict(self.__dict__)
        state.pop("_grid", None)
        return state

    def configs(self) -> tuple[PtqConfig, ...]:
        """All grid points, ordered by ascending (n_params, w_base, c_b, g).

        The tuple is built on the first call and the same one returned after.
        """
        return self._grid.configs

    def __len__(self) -> int:
        return len(self.n_params) * len(self.w_base) * len(self.c_b) * len(self.g)


def default_space(symmetric: bool = False) -> SearchSpace:
    """The grid the shipped fits were estimated on.

    Six model sizes from 125M to 13B, 2/3/4/8-bit weights, calibration sets
    of 8 to 4096 samples, and group sizes 32 to 1024: 384 configurations.
    """
    return SearchSpace(
        n_params=(125e6, 350e6, 1.3e9, 2.7e9, 6.7e9, 13e9),
        w_base=(2, 3, 4, 8),
        c_b=(8, 128, 1024, 4096),
        g=(32, 64, 128, 1024),
        symmetric=symmetric,
    )


@dataclass(frozen=True)
class ParetoPoint:
    """A swept configuration with its predicted accuracy and storage cost."""

    cfg: PtqConfig
    predicted_accuracy: float
    storage_bits: float
    extrapolation: bool = False

    def __post_init__(self):
        if not self.storage_bits > 0:
            raise ValidationError(f"storage_bits must be positive, got {self.storage_bits!r}")


def _out_of_range_fields(cfg: PtqConfig) -> tuple[str, ...]:
    checks = (
        ("n_params", cfg.n_params, FITTED_RANGES[Factor.N]),
        ("w_base", cfg.w_base, FITTED_RANGES[Factor.B_EFF]),
        ("c_b", cfg.c_b, FITTED_RANGES[Factor.C_B]),
        ("g", cfg.g, FITTED_RANGES[Factor.G]),
    )
    return tuple(name for name, value, (lo, hi) in checks if not lo <= value <= hi)


def _evaluate_grid(
    params: ScalingLawParams, space: SearchSpace, allow_extrapolation: bool
) -> tuple[_Grid, list[float]]:
    """The space's grid and each point's predicted accuracy, in grid order.

    Applies the extrapolation policy of ``sweep`` and ``min_cost_config``,
    which call this directly: its warning names their caller's line.
    """
    space.configs()  # builds the grid on the space's first sweep
    grid = space._grid
    first = next((i for i, fields in enumerate(grid.outside) if fields), None)
    if first is not None:
        if not allow_extrapolation:
            cfg = grid.configs[first]
            raise ValidationError(
                f"{', '.join(grid.outside[first])} outside the fitted ranges for config "
                f"(n={cfg.n_params:g}, w={cfg.w_base}, c_b={cfg.c_b}, g={cfg.g}); "
                f"pass allow_extrapolation to evaluate anyway"
            )
        warnings.warn(
            "sweep extrapolates beyond the fitted ranges; treat those rows with care",
            ExtrapolationWarning,
            stacklevel=3,
        )
    return grid, evaluate(params, grid.configs, _index=grid.index).tolist()


def sweep(
    params: ScalingLawParams,
    space: SearchSpace,
    allow_extrapolation: bool = False,
) -> list[ParetoPoint]:
    """Evaluate the law over every grid point of ``space``.

    Points are emitted in the space's deterministic grid order. Configurations
    outside the fitted ranges raise unless ``allow_extrapolation`` is set, in
    which case they are stamped and a single ``ExtrapolationWarning`` is
    emitted.

    The grid, its storage costs, its range checks and its factor index come
    from the space, which builds them once; repeated sweeps of one space (for
    several presets, or by ``min_cost_config``) pay only for evaluating the
    law and building the points.

    Raises:
        ValidationError: an out-of-range configuration without the
            extrapolation flag, or an invalid space.
        DomainError: from ``evaluate``, naming the offending configuration.
    """
    grid, accuracies = _evaluate_grid(params, space, allow_extrapolation)
    return [
        ParetoPoint(
            cfg=cfg,
            predicted_accuracy=accuracy,
            storage_bits=storage_bits,
            extrapolation=bool(fields),
        )
        for cfg, accuracy, storage_bits, fields in zip(
            grid.configs, accuracies, grid.storage_bits, grid.outside
        )
    ]


def _tie_break_key(cfg: PtqConfig) -> tuple:
    return (cfg.w_base, cfg.g, cfg.c_b)


def _cost_key(storage_bits: float, accuracy: float, cfg: PtqConfig) -> tuple:
    """Cheapest first, then most accurate, then the tie-break fields."""
    return (storage_bits, -accuracy, _tie_break_key(cfg))


def _point_cost_key(point: ParetoPoint) -> tuple:
    return _cost_key(point.storage_bits, point.predicted_accuracy, point.cfg)


def pareto_frontier(points: list[ParetoPoint]) -> list[ParetoPoint]:
    """Maximal points under (maximize accuracy, minimize storage).

    A point survives iff no other point has accuracy >= and storage <= with
    one of the two strict. Points identical in both objectives collapse to
    the one with the smallest (w_base, g, c_b). The result is sorted by
    ascending storage.
    """
    if not points:
        raise ValidationError("pareto_frontier needs a non-empty point list")
    deduped: dict[tuple[float, float], ParetoPoint] = {}
    for point in points:
        key = (point.storage_bits, point.predicted_accuracy)
        kept = deduped.get(key)
        if kept is None or _tie_break_key(point.cfg) < _tie_break_key(kept.cfg):
            deduped[key] = point
    ordered = sorted(deduped.values(), key=_point_cost_key)
    frontier: list[ParetoPoint] = []
    best_accuracy = float("-inf")
    for point in ordered:
        if point.predicted_accuracy > best_accuracy:
            frontier.append(point)
            best_accuracy = point.predicted_accuracy
    return frontier


def _cheapest(
    accuracies: list[float],
    storage_bits: Sequence[float],
    configs: Sequence[PtqConfig],
    target_accuracy: float,
) -> int | None:
    """Row of the cheapest configuration reaching ``target_accuracy``, or None.

    Rows are compared by ``_cost_key``; of equal keys the first row wins.
    """
    if not target_accuracy > 0:
        raise ValidationError(f"target_accuracy must be positive, got {target_accuracy!r}")
    feasible = (i for i, accuracy in enumerate(accuracies) if accuracy >= target_accuracy)
    return min(
        feasible,
        key=lambda i: _cost_key(storage_bits[i], accuracies[i], configs[i]),
        default=None,
    )


def min_cost_config(
    params: ScalingLawParams,
    space: SearchSpace,
    target_accuracy: float,
    allow_extrapolation: bool = False,
) -> ParetoPoint | None:
    """Cheapest grid point predicted to reach ``target_accuracy``.

    Returns None when no point qualifies; infeasibility is a value, not an
    error. Ties resolve exactly as in ``pareto_frontier``. The extrapolation
    policy, and the point returned, are those of ``sweep``. Like ``sweep``,
    it reuses the space's grid and factor index, built once per space; it
    chooses from the evaluated grid and builds only the point it returns.
    """
    grid, accuracies = _evaluate_grid(params, space, allow_extrapolation)
    best = _cheapest(accuracies, grid.storage_bits, grid.configs, target_accuracy)
    if best is None:
        return None
    return ParetoPoint(
        cfg=grid.configs[best],
        predicted_accuracy=accuracies[best],
        storage_bits=grid.storage_bits[best],
        extrapolation=bool(grid.outside[best]),
    )


def cheapest_reaching(points: list[ParetoPoint], target_accuracy: float) -> ParetoPoint | None:
    """The point of ``points`` that ``min_cost_config`` selects, or None."""
    best = _cheapest(
        [p.predicted_accuracy for p in points],
        [p.storage_bits for p in points],
        [p.cfg for p in points],
        target_accuracy,
    )
    return None if best is None else points[best]
