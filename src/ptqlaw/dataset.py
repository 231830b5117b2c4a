"""Measured-accuracy dataset handling: ingestion, validation, aggregation,
and the seeded synthetic generator used to exercise the fitter.

The on-disk format is CSV with the exact header

    model_family,n_params,w_base,c_b,g,benchmark,task_category,accuracy

(UTF-8 with an optional byte-order mark, ``.`` decimal point, accuracy as a
fraction in [0, 1]). A JSON-lines mirror with identical field names is
accepted interchangeably; ``load_dataset`` sniffs the format.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .advisor import SearchSpace
from .errors import DatasetError, ValidationError
from .fitting import Observation
from .model import (
    GENERAL,
    MEMORIZATION,
    UTILIZATION,
    PtqConfig,
    ScalingLawParams,
    evaluate,
)

CSV_HEADER = "model_family,n_params,w_base,c_b,g,benchmark,task_category,accuracy"
_COLUMNS = tuple(CSV_HEADER.split(","))
#: The grid columns, in file order, with how each one's text is parsed.
_GRID_PARSERS = (
    ("n_params", float, "number"),
    ("w_base", int, "integer"),
    ("c_b", int, "integer"),
    ("g", int, "integer"),
)
_TEXT_COLUMNS = ("model_family", "benchmark", "task_category")

#: The two cloze-style factual-recall probes.
MEMORIZATION_BENCHMARKS = ("lama-conceptnet", "lama-squad")
#: The four commonsense-reasoning / QA benchmarks.
UTILIZATION_BENCHMARKS = ("hellaswag", "winogrande", "arc-e", "arc-c")
#: Default benchmark -> task-category mapping.
DEFAULT_BENCHMARK_CATEGORIES: dict[str, str] = {
    **{b: MEMORIZATION for b in MEMORIZATION_BENCHMARKS},
    **{b: UTILIZATION for b in UTILIZATION_BENCHMARKS},
}

_CATEGORIES = (MEMORIZATION, UTILIZATION)


@lru_cache(maxsize=1024, typed=True)
def _checked_n_params(n_params, w_base, c_b, g) -> float:
    """``n_params`` as ``PtqConfig`` stores it, once the grid fields pass its checks.

    A dataset repeats each configuration once per benchmark, so each distinct
    (and, with ``typed``, same-typed) combination is checked once.
    """
    return PtqConfig(n_params=n_params, w_base=w_base, c_b=c_b, g=g).n_params


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured benchmark accuracy for one quantization configuration.

    The checks here are the only record-level validation: the loaders parse
    text and leave every range and category check to this constructor. The
    grid fields obey the ``PtqConfig`` invariants, checked once per distinct
    configuration through a small bounded cache.
    """

    model_family: str
    n_params: float
    w_base: int
    c_b: int
    g: int
    benchmark: str
    task_category: str
    accuracy: float

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise DatasetError(
                f"accuracy must be in [0, 1], got {self.accuracy!r}", column="accuracy"
            )
        if not self.model_family:
            raise ValidationError("model_family must be non-empty")
        if not self.benchmark:
            raise ValidationError("benchmark must be non-empty")
        if self.task_category not in _CATEGORIES:
            raise ValidationError(
                f"task_category must be one of {_CATEGORIES}, got {self.task_category!r}"
            )
        n_params = _checked_n_params(self.n_params, self.w_base, self.c_b, self.g)
        object.__setattr__(self, "n_params", n_params)

    @property
    def key(self) -> tuple:
        """Uniqueness key within a dataset."""
        return (self.model_family, self.n_params, self.w_base, self.c_b, self.g, self.benchmark)

    @property
    def config_key(self) -> tuple:
        return (self.model_family, self.n_params, self.w_base, self.c_b, self.g)


class _DuplicateRecordError(DatasetError):
    """Two records share a key; carries both indices so a loader can name rows."""

    def __init__(self, key: tuple, first: int, index: int):
        super().__init__(f"duplicate record for {key} (records {first} and {index})")
        self.key = key
        self.first = first
        self.index = index


class _Groups:
    """A dataset's records grouped by configuration, built once per dataset."""

    def __init__(self, records: tuple[ExperimentRecord, ...]):
        grouped: dict[tuple, dict[str, float]] = {}
        categories: dict[str, str] = {}
        for record in records:
            grouped.setdefault(record.config_key, {})[record.benchmark] = record.accuracy
            categories.setdefault(record.benchmark, record.task_category)
        #: Config keys by ascending (n_params, w_base, c_b, g), then family.
        self.keys = tuple(sorted(grouped, key=lambda k: (k[1], k[2], k[3], k[4], k[0])))
        #: Per key, in the same order: benchmark -> accuracy.
        self.accuracies = tuple(grouped[key] for key in self.keys)
        #: Benchmark -> task category, in first-seen order.
        self.categories = categories
        self.benchmarks = tuple(sorted(categories))
        self._configs: dict[bool, tuple[PtqConfig, ...]] = {}

    def configs(self, symmetric: bool) -> tuple[PtqConfig, ...]:
        """One ``PtqConfig`` per key, built on the first call per ``symmetric``."""
        symmetric = bool(symmetric)
        if symmetric not in self._configs:
            b_z = 0 if symmetric else None
            self._configs[symmetric] = tuple(
                PtqConfig(n_params=n_params, w_base=w_base, c_b=c_b, g=g, b_z=b_z)
                for _, n_params, w_base, c_b, g in self.keys
            )
        return self._configs[symmetric]


@dataclass(frozen=True)
class ExperimentDataset:
    """Validated, immutable collection of experiment records.

    Construction checks that no two records share a key and that each
    benchmark has one task category. The grouping by configuration that
    ``aggregate``, ``benchmarks`` and ``categories`` read is built on first
    use and reused, so aggregating one dataset for several scopes groups its
    records once.
    """

    records: tuple[ExperimentRecord, ...]
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        records = tuple(self.records)
        if not records:
            raise ValidationError("a dataset must contain at least one record")
        seen: dict[tuple, int] = {}
        categories: dict[str, str] = {}
        for index, record in enumerate(records):
            key = record.key
            first = seen.setdefault(key, index)
            if first != index:
                raise _DuplicateRecordError(key, first, index)
            known = categories.setdefault(record.benchmark, record.task_category)
            if known != record.task_category:
                raise DatasetError(
                    f"benchmark {record.benchmark!r} appears with conflicting "
                    f"task categories {known!r} and {record.task_category!r}"
                )
        object.__setattr__(self, "records", records)

    @cached_property
    def _groups(self) -> _Groups:
        return _Groups(self.records)

    def __getstate__(self) -> dict:
        # The cached grouping is derived from the records; pickle the fields only.
        state = dict(self.__dict__)
        state.pop("_groups", None)
        return state

    def __len__(self) -> int:
        return len(self.records)

    def benchmarks(self) -> tuple[str, ...]:
        """Distinct benchmark names, sorted."""
        return self._groups.benchmarks

    def categories(self) -> dict[str, str]:
        """Benchmark -> task-category map observed in the data."""
        return dict(self._groups.categories)

    def filter(self, keep: Callable[[ExperimentRecord], bool], description: str = "filter") -> "ExperimentDataset":
        """Sub-dataset of records satisfying ``keep``; errors when empty."""
        kept = tuple(r for r in self.records if keep(r))
        if not kept:
            raise ValidationError(f"no records match {description}")
        provenance = dict(self.provenance)
        provenance["filter"] = description
        # A subset of a validated dataset cannot repeat a key or give a
        # benchmark a second category, so the constructor's scan is skipped.
        # The fields are set in the constructor's order so pickles match.
        subset = object.__new__(ExperimentDataset)
        object.__setattr__(subset, "records", kept)
        object.__setattr__(subset, "provenance", provenance)
        return subset

    def fingerprint(self) -> str:
        """Stable content hash of the records (provenance excluded)."""
        digest = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.key):
            digest.update(_record_line(record).encode("utf-8"))
        return digest.hexdigest()


def _format_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _record_line(record: ExperimentRecord) -> str:
    return ",".join(
        (
            record.model_family,
            _format_count(record.n_params),
            str(record.w_base),
            str(record.c_b),
            str(record.g),
            record.benchmark,
            record.task_category,
            repr(record.accuracy),
        )
    ) + "\n"


def _number(text: str, column: str, caster, description: str, row: int):
    text = text.strip()
    try:
        return caster(text)
    except ValueError:
        raise DatasetError(
            f"row {row}, column {column}: malformed {description}: {text!r}",
            row=row,
            column=column,
        ) from None


def _parse_row(fields: Sequence[str], row: int, grids: dict[tuple, tuple]) -> ExperimentRecord:
    """The record of one row's field texts, given in ``_COLUMNS`` order.

    ``grids`` maps the text of a row's four grid fields to their parsed
    values for the duration of one load, so the rows that repeat an earlier
    row's configuration skip the number parsing. ``ExperimentRecord`` then
    checks every row.
    """
    text = tuple(fields[1:5])
    grid = grids.get(text)
    if grid is None:
        grid = grids[text] = tuple(
            _number(value, column, caster, description, row)
            for value, (column, caster, description) in zip(text, _GRID_PARSERS)
        )
    accuracy = _number(fields[7], "accuracy", float, "number", row)
    try:
        return ExperimentRecord(
            fields[0].strip(), *grid, fields[5].strip(), fields[6].strip(), accuracy
        )
    except ValidationError as exc:
        raise DatasetError(
            f"row {row}: {exc}", row=row, column=getattr(exc, "column", None)
        ) from None


def _finish_load(
    records: list[ExperimentRecord], rows: list[int], source: str
) -> ExperimentDataset:
    """The dataset of a file's records; ``rows[i]`` is the line of ``records[i]``."""
    try:
        return ExperimentDataset(
            records=tuple(records),
            provenance={
                "source": source,
                "loaded_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            },
        )
    except _DuplicateRecordError as exc:
        row = rows[exc.index]
        raise DatasetError(
            f"row {row}: duplicate of row {rows[exc.first]} (key {exc.key})", row=row
        ) from None


def _read_text(path, chars: int = -1) -> str:
    """The file's text (its first ``chars`` characters if given), minus a UTF-8 BOM."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read(chars)
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_csv(path) -> ExperimentDataset:
    """Load and validate a CSV dataset.

    Every row is checked; the grid fields of each distinct configuration text
    are parsed and validated once per load. Every error names the 1-based
    physical line (header is line 1) and, where one field is at fault, the
    offending column.
    """
    lines = _read_text(path).splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty file", row=1)
    header = lines[0].strip()
    if header != CSV_HEADER:
        raise DatasetError(
            f"{path}: header mismatch: expected {CSV_HEADER!r}, got {header!r}", row=1
        )
    records: list[ExperimentRecord] = []
    rows: list[int] = []
    grids: dict[tuple, tuple] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_COLUMNS):
            raise DatasetError(
                f"row {lineno}: expected {len(_COLUMNS)} fields, got {len(parts)}",
                row=lineno,
            )
        records.append(_parse_row(parts, lineno, grids))
        rows.append(lineno)
    if not records:
        raise DatasetError(f"{path}: no data rows", row=1)
    return _finish_load(records, rows, str(path))


def load_jsonl(path) -> ExperimentDataset:
    """Load the JSON-lines mirror format (one object per line, same fields).

    Validation matches ``load_csv``; in addition each line must be a JSON
    object and its text fields JSON strings.
    """
    records: list[ExperimentRecord] = []
    rows: list[int] = []
    grids: dict[tuple, tuple] = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"row {lineno}: invalid JSON: {exc}", row=lineno) from None
        if not isinstance(payload, dict):
            raise DatasetError(f"row {lineno}: expected a JSON object", row=lineno)
        missing = [c for c in _COLUMNS if c not in payload]
        if missing:
            raise DatasetError(
                f"row {lineno}: missing fields {missing}", row=lineno, column=missing[0]
            )
        for column in _TEXT_COLUMNS:
            if not isinstance(payload[column], str):
                raise DatasetError(
                    f"row {lineno}, column {column}: expected a JSON string, "
                    f"got {json.dumps(payload[column])}",
                    row=lineno,
                    column=column,
                )
        records.append(_parse_row([str(payload[c]) for c in _COLUMNS], lineno, grids))
        rows.append(lineno)
    if not records:
        raise DatasetError(f"{path}: no data rows", row=1)
    return _finish_load(records, rows, str(path))


def load_dataset(path) -> ExperimentDataset:
    """Load a dataset, sniffing CSV vs JSON-lines from the first character."""
    return load_jsonl(path) if _read_text(path, 1) == "{" else load_csv(path)


def dataset_to_csv(ds: ExperimentDataset) -> str:
    """Canonical CSV rendering; numbers use shortest round-trip formatting."""
    return CSV_HEADER + "\n" + "".join(_record_line(r) for r in ds.records)


def write_csv(ds: ExperimentDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(dataset_to_csv(ds))


def dataset_to_jsonl(ds: ExperimentDataset) -> str:
    lines = []
    for r in ds.records:
        lines.append(
            json.dumps(
                {
                    "model_family": r.model_family,
                    "n_params": int(r.n_params) if r.n_params.is_integer() else r.n_params,
                    "w_base": r.w_base,
                    "c_b": r.c_b,
                    "g": r.g,
                    "benchmark": r.benchmark,
                    "task_category": r.task_category,
                    "accuracy": r.accuracy,
                }
            )
        )
    return "\n".join(lines) + "\n"


def write_jsonl(ds: ExperimentDataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(dataset_to_jsonl(ds))


def _scope_benchmarks(ds: ExperimentDataset, scope: str) -> tuple[str, ...]:
    categories = ds._groups.categories
    if scope == GENERAL:
        return ds.benchmarks()
    if scope in _CATEGORIES:
        selected = tuple(sorted(b for b, cat in categories.items() if cat == scope))
        if not selected:
            raise ValidationError(f"dataset has no {scope} benchmarks")
        return selected
    raise ValidationError(
        f"unknown scope {scope!r}; expected {GENERAL!r}, {MEMORIZATION!r} or {UTILIZATION!r}"
    )


def aggregate(
    ds: ExperimentDataset,
    scope: str = GENERAL,
    benchmarks: Iterable[str] | None = None,
    symmetric: bool = False,
) -> list[Observation]:
    """Per-configuration unweighted mean accuracy over the scope's benchmarks.

    ``scope`` selects all benchmarks (``general``) or one task category;
    ``benchmarks`` overrides the list explicitly (some figure reproductions
    average four or five tasks rather than six). Every configuration must
    carry every selected benchmark. Output is ordered by ascending
    (n_params, w_base, c_b, g).

    The dataset's grouping by configuration, and its ``PtqConfig`` per
    configuration and ``symmetric`` value, are built on the first call and
    reused by later ones, so each call only computes the means.
    """
    wanted = tuple(benchmarks) if benchmarks is not None else _scope_benchmarks(ds, scope)
    if not wanted:
        raise ValidationError("benchmark list for aggregation is empty")
    groups = ds._groups
    unknown = [b for b in wanted if b not in groups.categories]
    if unknown:
        raise ValidationError(f"benchmarks not present in dataset: {unknown}")

    observations = []
    for key, per_benchmark, cfg in zip(
        groups.keys, groups.accuracies, groups.configs(symmetric)
    ):
        missing = [b for b in wanted if b not in per_benchmark]
        if missing:
            family, n_params, w_base, c_b, g = key
            raise DatasetError(
                f"config (family={family}, n={n_params:g}, w={w_base}, c_b={c_b}, g={g}) "
                f"is missing benchmark {missing[0]!r}"
            )
        mean = sum(per_benchmark[b] for b in wanted) / len(wanted)
        observations.append(Observation(config=cfg, task=scope, accuracy=mean))
    return observations


def generate_synthetic(
    params: ScalingLawParams,
    grid: SearchSpace,
    noise_sigma: float = 0.0,
    seed: int = 0,
    model_family: str = "synthetic",
    benchmarks: Iterable[str] | None = None,
    categories: dict[str, str] | None = None,
) -> ExperimentDataset:
    """Dataset of law predictions plus seeded Gaussian noise.

    Each grid configuration gets one record per benchmark (default: the six
    canonical ones), with independent noise per record. Accuracies are
    clamped to [0, 1]; the clamp count lands in ``provenance["clamped_rows"]``.
    The same seed always produces a byte-identical dataset. The grid's
    configurations are already validated, and each record's grid fields are
    checked once per distinct configuration, not once per benchmark.
    """
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0):
        raise ValidationError(f"noise_sigma must be finite and >= 0, got {noise_sigma!r}")
    names = tuple(benchmarks) if benchmarks is not None else (
        MEMORIZATION_BENCHMARKS + UTILIZATION_BENCHMARKS
    )
    category_map = dict(DEFAULT_BENCHMARK_CATEGORIES)
    if categories:
        category_map.update(categories)
    unknown = [b for b in names if b not in category_map]
    if unknown:
        raise ValidationError(
            f"no task category known for benchmarks {unknown}; pass a categories map"
        )
    configs = grid.configs()
    # One draw per (configuration, benchmark) in row-major order: the same
    # stream as one scalar draw per record.
    noise = np.random.default_rng(seed).normal(0.0, noise_sigma, (len(configs), len(names)))
    accuracies = evaluate(params, configs)[:, None] + noise
    clamped = int(np.count_nonzero((accuracies < 0.0) | (accuracies > 1.0)))
    accuracies = np.clip(accuracies, 0.0, 1.0).tolist()
    records = [
        ExperimentRecord(
            model_family=model_family,
            n_params=cfg.n_params,
            w_base=cfg.w_base,
            c_b=cfg.c_b,
            g=cfg.g,
            benchmark=benchmark,
            task_category=category_map[benchmark],
            accuracy=accuracy,
        )
        for cfg, row in zip(configs, accuracies)
        for benchmark, accuracy in zip(names, row)
    ]
    return ExperimentDataset(
        records=tuple(records),
        provenance={
            "source": "synthetic",
            "seed": seed,
            "noise_sigma": noise_sigma,
            "clamped_rows": clamped,
            "benchmarks": list(names),
            "generated_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        },
    )
