"""Core domain model: quantization configurations, effective bit-width, and
the multiplicative power law relating PTQ factors to task accuracy.

The central quantities are:

* ``PtqConfig`` -- one post-training-quantization configuration (model size,
  nominal weight bit-width, calibration set size, group size, and the
  per-group metadata widths for scale and zero-point).
* ``effective_bit_width`` -- the true per-parameter storage cost: the nominal
  width plus the group metadata amortized over the group.
* ``ScalingLawParams`` / ``evaluate`` -- accuracy modeled as
  ``c * n^alpha * log2(c_b)^beta * g^gamma * log2(b_eff)^delta``,
  where any factor can be excluded (its term is pinned to 1). ``evaluate``
  computes the law for a sequence of configurations at once and is the only
  place it is computed; ``predict`` is its one-configuration form.

Exponents act as elasticities: the proportional change in accuracy per
proportional change in the factor. ``sensitivity_report`` compares two fitted
laws factor by factor on that basis.

All types are immutable values; every function here is pure and thread-safe.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from operator import attrgetter
from typing import Collection, Sequence

import numpy as np

from .errors import DomainError, PredictionRangeWarning, ValidationError

_LN2 = math.log(2.0)


def log2(x: float) -> float:
    """Base-2 logarithm, computed as a natural-log ratio."""
    return math.log(x) / _LN2


class Factor(str, Enum):
    """The four tunable factors of the scaling law."""

    N = "n"          # model size, raw parameter count
    C_B = "c_b"      # calibration set size, samples
    G = "g"          # quantization group size
    B_EFF = "b_eff"  # effective bit-width


#: Canonical reporting order for factors.
FACTOR_ORDER: tuple[Factor, ...] = (Factor.N, Factor.C_B, Factor.G, Factor.B_EFF)

#: All four factors; the default inclusion mask.
ALL_FACTORS: frozenset[Factor] = frozenset(FACTOR_ORDER)

# Task labels. Anything else is treated as a custom label.
GENERAL = "general"
MEMORIZATION = "memorization"
UTILIZATION = "utilization"

#: Maps each factor to its exponent field on ScalingLawParams.
EXPONENT_FIELDS: dict[Factor, str] = {
    Factor.N: "alpha",
    Factor.C_B: "beta",
    Factor.G: "gamma",
    Factor.B_EFF: "delta",
}


def parse_factor(text: str) -> Factor:
    """Parse a factor name such as ``"n"`` or ``"b_eff"``."""
    key = text.strip().lower()
    for factor in FACTOR_ORDER:
        if key == factor.value:
            return factor
    valid = ", ".join(f.value for f in FACTOR_ORDER)
    raise ValidationError(f"unknown factor {text!r}; expected one of: {valid}")


def parse_mask(text: str) -> frozenset[Factor]:
    """Parse a comma-separated factor list; ``""`` or ``"none"`` is the empty mask."""
    body = text.strip().lower()
    if body in ("", "none"):
        return frozenset()
    return frozenset(parse_factor(part) for part in body.split(","))


def mask_to_text(mask: frozenset[Factor]) -> str:
    """Render a mask in canonical factor order (``"none"`` when empty)."""
    if not mask:
        return "none"
    return ",".join(f.value for f in FACTOR_ORDER if f in mask)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _as_whole(value, name: str) -> int:
    """Coerce an integer-valued number to int, rejecting fractional values."""
    if type(value) is int:  # the common case; bool is a subclass, not int itself
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be a number, got bool")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise ValidationError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class PtqConfig:
    """One post-training-quantization configuration point.

    Attributes:
        n_params: total model parameters, raw count (e.g. 6.7e9).
        w_base: nominal weight bit-width in bits (2/3/4/8 in the shipped fits).
        c_b: calibration set size in samples; must be >= 2 so log2(c_b) > 0
            (the smallest calibrated value in the shipped fits is 8).
        g: quantization group size (weights sharing one scale/zero-point).
        b_s: storage width of the per-group scale factor; 16 (FP16) by default.
        b_z: storage width of the per-group zero-point. Defaults to ``w_base``
            (asymmetric scheme); pass 0 for a symmetric scheme.
    """

    n_params: float
    w_base: int
    c_b: int
    g: int
    b_s: int = 16
    b_z: int | None = None

    def __post_init__(self):
        n = float(self.n_params)
        _require(math.isfinite(n) and n >= 1, f"n_params must be >= 1, got {self.n_params!r}")
        object.__setattr__(self, "n_params", n)
        object.__setattr__(self, "w_base", _as_whole(self.w_base, "w_base"))
        object.__setattr__(self, "c_b", _as_whole(self.c_b, "c_b"))
        object.__setattr__(self, "g", _as_whole(self.g, "g"))
        object.__setattr__(self, "b_s", _as_whole(self.b_s, "b_s"))
        _require(self.w_base >= 1, f"w_base must be >= 1, got {self.w_base}")
        _require(self.c_b >= 2, f"c_b must be >= 2 so log2(c_b) > 0, got {self.c_b}")
        _require(self.g >= 1, f"g must be >= 1, got {self.g}")
        _require(self.b_s >= 0, f"b_s must be >= 0, got {self.b_s}")
        b_z = self.w_base if self.b_z is None else _as_whole(self.b_z, "b_z")
        _require(b_z >= 0, f"b_z must be >= 0, got {b_z}")
        object.__setattr__(self, "b_z", b_z)


def round_half_up(value: float, places: int = 2) -> str:
    """Format ``value`` with ``places`` decimals, rounding halves away from zero.

    Published bit-width tables round 3.125 to 3.13 and 4.625 to 4.63; Python's
    default float formatting rounds halves to even and would print 3.12/4.62.
    """
    quantum = Decimal(1).scaleb(-places)
    return str(Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class EffectiveBitWidth:
    """Per-parameter storage cost in bits, metadata overhead included."""

    value: float

    def __post_init__(self):
        _require(self.value > 0, f"effective bit-width must be positive, got {self.value!r}")

    def __float__(self) -> float:
        return self.value

    @property
    def display(self) -> str:
        """Two-decimal display form (half-up rounding)."""
        return round_half_up(self.value, 2)


def effective_bits(w_base: int, g: int, b_s: int = 16, b_z: int | None = None) -> EffectiveBitWidth:
    """Effective bit-width from raw fields: ``w_base + (b_s + b_z) / g``.

    ``b_z`` defaults to ``w_base`` (asymmetric quantization); use 0 for
    symmetric schemes. The value is exact in working precision; rounding to
    two decimals is a display concern (see ``EffectiveBitWidth.display``).
    """
    w_base = _as_whole(w_base, "w_base")
    g = _as_whole(g, "g")
    b_s = _as_whole(b_s, "b_s")
    b_z = w_base if b_z is None else _as_whole(b_z, "b_z")
    _require(w_base >= 1, f"w_base must be >= 1, got {w_base}")
    _require(g >= 1, f"g must be >= 1 (group size 0 would divide by zero), got {g}")
    _require(b_s >= 0, f"b_s must be >= 0, got {b_s}")
    _require(b_z >= 0, f"b_z must be >= 0, got {b_z}")
    return EffectiveBitWidth(_b_eff(w_base, g, b_s, b_z))


def _b_eff(w_base: int, g: int, b_s: int, b_z: int) -> float:
    return w_base + (b_s + b_z) / g


def effective_bit_width(cfg: PtqConfig) -> EffectiveBitWidth:
    """Effective bit-width of a configuration (see ``effective_bits``).

    ``PtqConfig`` has already validated these fields, so they are not
    checked again.
    """
    return EffectiveBitWidth(_b_eff(cfg.w_base, cfg.g, cfg.b_s, cfg.b_z))


@dataclass(frozen=True)
class ScalingLawParams:
    """Fitted constants of the multiplicative power law.

    ``mask`` lists the included factors; an excluded factor contributes a
    fixed term of 1 and its exponent must be 0. ``task`` is one of the
    canonical labels (``general``/``memorization``/``utilization``) or any
    custom label.
    """

    task: str
    c: float
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    mask: frozenset[Factor] = ALL_FACTORS

    def __post_init__(self):
        _require(bool(self.task), "task label must be non-empty")
        _require(math.isfinite(self.c) and self.c > 0, f"c must be positive, got {self.c!r}")
        object.__setattr__(self, "mask", frozenset(self.mask))
        for factor, fieldname in EXPONENT_FIELDS.items():
            exponent = getattr(self, fieldname)
            _require(math.isfinite(exponent), f"{fieldname} must be finite, got {exponent!r}")
            if factor not in self.mask and exponent != 0.0:
                raise ValidationError(
                    f"{fieldname}={exponent!r} is nonzero but {factor.value} is not in the mask"
                )

    def exponent(self, factor: Factor) -> float:
        """Exponent for ``factor`` (0.0 when the factor is excluded)."""
        return getattr(self, EXPONENT_FIELDS[factor])

    @property
    def masked_factors(self) -> tuple[Factor, ...]:
        """Included factors in canonical order."""
        return tuple(f for f in FACTOR_ORDER if f in self.mask)


#: Per factor: its key on a configuration, and the base its exponent acts on
#: as a function of that key. Model size and group size enter raw;
#: calibration size and effective bit-width enter through log2.
_FACTOR_BASES = {
    Factor.N: (attrgetter("n_params"), float),
    Factor.C_B: (attrgetter("c_b"), log2),
    Factor.G: (attrgetter("g"), float),
    Factor.B_EFF: (attrgetter("w_base", "g", "b_s", "b_z"), lambda key: log2(_b_eff(*key))),
}

#: Per factor: its distinct keys in first-appearance order, and each row's
#: index into them (a read-only array).
_FactorIndex = dict[Factor, tuple[tuple, np.ndarray]]


def _factor_keys(factor: Factor, configs: Sequence[PtqConfig]) -> tuple[tuple, np.ndarray]:
    """Distinct keys of ``factor`` in first-appearance order, and each row's index into them."""
    key = _FACTOR_BASES[factor][0]
    slots: dict = {}
    rows = np.array([slots.setdefault(key(cfg), len(slots)) for cfg in configs], dtype=np.intp)
    rows.flags.writeable = False
    return tuple(slots), rows


def _factor_index(configs: Sequence[PtqConfig]) -> _FactorIndex:
    """Every factor's keys and row indices, for configurations evaluated repeatedly."""
    return {factor: _factor_keys(factor, configs) for factor in FACTOR_ORDER}


def _factor_bases(
    factor: Factor, keys: tuple, rows: np.ndarray, configs: Sequence[PtqConfig]
) -> list[float]:
    """Base of ``factor`` for each of its distinct ``keys``.

    Raises:
        DomainError: effective bit-width <= 1; the first such row is named.
    """
    if factor is Factor.B_EFF:
        for slot, fields in enumerate(keys):
            b_eff = _b_eff(*fields)
            if b_eff <= 1.0:
                cfg = configs[int(np.argmax(rows == slot))]
                raise DomainError(
                    f"log2(b_eff) requires b_eff > 1, got {b_eff!r} at config "
                    f"(n={cfg.n_params:g}, w_base={cfg.w_base}, c_b={cfg.c_b}, g={cfg.g}, "
                    f"b_s={cfg.b_s}, b_z={cfg.b_z})"
                )
    base = _FACTOR_BASES[factor][1]
    return [base(k) for k in keys]


def factor_columns(configs: Sequence[PtqConfig], mask: Collection[Factor]) -> dict[Factor, np.ndarray]:
    """Per-row base of each factor in ``mask`` (the value its exponent acts on).

    Columns follow the canonical factor order.
    """
    columns = {}
    for factor in FACTOR_ORDER:
        if factor in mask:
            keys, rows = _factor_keys(factor, configs)
            columns[factor] = np.array(_factor_bases(factor, keys, rows, configs), dtype=float)[rows]
    return columns


def evaluate(
    params: ScalingLawParams,
    configs: Sequence[PtqConfig],
    *,
    _index: _FactorIndex | None = None,
) -> np.ndarray:
    """Predicted accuracy of every configuration under ``params``, as an array.

    Row ``i`` is ``c`` times each masked-in factor's term for ``configs[i]``,
    multiplied in canonical factor order. Each term is the Python float
    ``base ** exponent``, taken once per distinct base, so every row equals
    the same product computed one configuration at a time. Values are not
    clamped and not warned about (``predict`` warns above 1).

    ``_index`` is internal: the ``_factor_index`` of ``configs``, kept by a
    caller that evaluates the same configurations repeatedly (a search
    space's grid) so their keys are extracted once, not on every call.

    Raises:
        DomainError: a masked-in effective bit-width is <= 1; the first
            offending configuration is named.
    """
    values = np.full(len(configs), params.c, dtype=float)
    with np.errstate(over="ignore"):
        for factor in params.masked_factors:
            keys, rows = _factor_keys(factor, configs) if _index is None else _index[factor]
            bases = _factor_bases(factor, keys, rows, configs)
            exponent = params.exponent(factor)
            values = values * np.array([b ** exponent for b in bases], dtype=float)[rows]
    return values


def predict(params: ScalingLawParams, cfg: PtqConfig) -> float:
    """Predicted accuracy of ``cfg`` under ``params``, as a fraction.

    The result is ``c`` times the product of each masked-in factor's term;
    0.3607 means 36.07% accuracy. The value is not clamped: the law is an
    empirical fit with no ceiling, so predictions above 1 are returned as-is
    and reported with a ``PredictionRangeWarning``. This is ``evaluate`` on
    one configuration.

    Raises:
        DomainError: a masked-in logarithmic factor has argument <= 1.
        ValidationError: the configuration is invalid.
    """
    accuracy = float(evaluate(params, (cfg,))[0])
    if accuracy > 1.0:
        warnings.warn(
            f"predicted accuracy {accuracy!r} exceeds 1; the fitted law has no ceiling",
            PredictionRangeWarning,
            stacklevel=2,
        )
    return accuracy


@dataclass(frozen=True)
class FactorComparison:
    """Per-factor row of a sensitivity report.

    ``difference`` is ``exponent_a - exponent_b``; ``more_sensitive`` names
    the task whose exponent has the larger magnitude, or None on a tie.
    """

    factor: Factor
    exponent_a: float
    exponent_b: float
    difference: float
    more_sensitive: str | None


@dataclass(frozen=True)
class SensitivityReport:
    """Factor-by-factor elasticity comparison of two fitted laws."""

    task_a: str
    task_b: str
    rows: tuple[FactorComparison, ...]

    def format(self) -> str:
        lines = [
            f"{'factor':8} {self.task_a:>14} {self.task_b:>14} {'difference':>12}  more_sensitive",
        ]
        for row in self.rows:
            winner = row.more_sensitive if row.more_sensitive is not None else "(tied)"
            lines.append(
                f"{row.factor.value:8} {row.exponent_a:>14.6g} {row.exponent_b:>14.6g} "
                f"{row.difference:>12.6g}  {winner}"
            )
        return "\n".join(lines) + "\n"


def sensitivity_report(a: ScalingLawParams, b: ScalingLawParams) -> SensitivityReport:
    """Compare two laws' exponents factor by factor.

    Both laws must share the same factor mask. Rows follow the canonical
    factor order (n, c_b, g, b_eff).
    """
    if a.mask != b.mask:
        raise ValidationError(
            f"mask mismatch: {mask_to_text(a.mask)} vs {mask_to_text(b.mask)}"
        )
    rows = []
    for factor in FACTOR_ORDER:
        if factor not in a.mask:
            continue
        ea, eb = a.exponent(factor), b.exponent(factor)
        if abs(ea) > abs(eb):
            winner = a.task
        elif abs(eb) > abs(ea):
            winner = b.task
        else:
            winner = None
        rows.append(FactorComparison(factor, ea, eb, ea - eb, winner))
    return SensitivityReport(task_a=a.task, task_b=b.task, rows=tuple(rows))


def format_law(params: ScalingLawParams) -> str:
    """Human-readable rendering of a fitted law, masked terms only."""
    terms = [f"{params.c:.6g}"]
    for factor in params.masked_factors:
        exponent = params.exponent(factor)
        if factor in (Factor.C_B, Factor.B_EFF):
            terms.append(f"[log2({factor.value})]^{exponent:.6g}")
        else:
            terms.append(f"{factor.value}^{exponent:.6g}")
    return " * ".join(terms)
