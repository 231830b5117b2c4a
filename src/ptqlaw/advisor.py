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

from .errors import ExtrapolationWarning, ValidationError
from .model import (
    Factor,
    PtqConfig,
    ScalingLawParams,
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


@dataclass(frozen=True)
class SearchSpace:
    """Candidate lists for each configuration axis.

    ``symmetric`` selects the zero-point convention for every generated
    configuration (b_z = 0 rather than b_z = w_base).
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
        # Validate every candidate combination cheaply via one probe config
        # per axis extreme; full validation happens as configs are built.
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

    def configs(self) -> tuple[PtqConfig, ...]:
        """All grid points, ordered by ascending (n_params, w_base, c_b, g)."""
        built = []
        for n in sorted(self.n_params):
            for w in sorted(self.w_base):
                for cb in sorted(self.c_b):
                    for g in sorted(self.g):
                        built.append(
                            PtqConfig(
                                n_params=n,
                                w_base=w,
                                c_b=cb,
                                g=g,
                                b_z=0 if self.symmetric else None,
                            )
                        )
        return tuple(built)

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


def _out_of_range_fields(cfg: PtqConfig) -> list[str]:
    checks = (
        ("n_params", cfg.n_params, FITTED_RANGES[Factor.N]),
        ("w_base", cfg.w_base, FITTED_RANGES[Factor.B_EFF]),
        ("c_b", cfg.c_b, FITTED_RANGES[Factor.C_B]),
        ("g", cfg.g, FITTED_RANGES[Factor.G]),
    )
    return [name for name, value, (lo, hi) in checks if not lo <= value <= hi]


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

    Raises:
        ValidationError: an out-of-range configuration without the
            extrapolation flag, or an invalid space.
        DomainError: from ``evaluate``, naming the offending configuration.
    """
    configs = space.configs()
    outside = [_out_of_range_fields(cfg) for cfg in configs]
    first = next((i for i, fields in enumerate(outside) if fields), None)
    if first is not None:
        if not allow_extrapolation:
            cfg = configs[first]
            raise ValidationError(
                f"{', '.join(outside[first])} outside the fitted ranges for config "
                f"(n={cfg.n_params:g}, w={cfg.w_base}, c_b={cfg.c_b}, g={cfg.g}); "
                f"pass allow_extrapolation to evaluate anyway"
            )
        warnings.warn(
            "sweep extrapolates beyond the fitted ranges; treat those rows with care",
            ExtrapolationWarning,
            stacklevel=2,
        )
    accuracies = evaluate(params, configs).tolist()
    return [
        ParetoPoint(
            cfg=cfg,
            predicted_accuracy=accuracy,
            storage_bits=cfg.n_params * effective_bit_width(cfg).value,
            extrapolation=bool(fields),
        )
        for cfg, accuracy, fields in zip(configs, accuracies, outside)
    ]


def _tie_break_key(point: ParetoPoint) -> tuple:
    return (point.cfg.w_base, point.cfg.g, point.cfg.c_b)


def _cost_key(point: ParetoPoint) -> tuple:
    """Cheapest first, then most accurate, then the tie-break fields."""
    return (point.storage_bits, -point.predicted_accuracy, _tie_break_key(point))


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
        if kept is None or _tie_break_key(point) < _tie_break_key(kept):
            deduped[key] = point
    ordered = sorted(deduped.values(), key=_cost_key)
    frontier: list[ParetoPoint] = []
    best_accuracy = float("-inf")
    for point in ordered:
        if point.predicted_accuracy > best_accuracy:
            frontier.append(point)
            best_accuracy = point.predicted_accuracy
    return frontier


def min_cost_config(
    params: ScalingLawParams,
    space: SearchSpace,
    target_accuracy: float,
    allow_extrapolation: bool = False,
) -> ParetoPoint | None:
    """Cheapest grid point predicted to reach ``target_accuracy``.

    Returns None when no point qualifies; infeasibility is a value, not an
    error. Ties resolve exactly as in ``pareto_frontier``.
    """
    return cheapest_reaching(
        sweep(params, space, allow_extrapolation=allow_extrapolation), target_accuracy
    )


def cheapest_reaching(points: list[ParetoPoint], target_accuracy: float) -> ParetoPoint | None:
    """The point of ``points`` that ``min_cost_config`` selects, or None."""
    if not target_accuracy > 0:
        raise ValidationError(f"target_accuracy must be positive, got {target_accuracy!r}")
    feasible = (p for p in points if p.predicted_accuracy >= target_accuracy)
    return min(feasible, key=_cost_key, default=None)
