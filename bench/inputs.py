"""Seeded inputs for every workload, generated without calling ptqlaw.

Everything here uses numpy, the stdlib and the shipped law constants, which
are parsed from ``src/ptqlaw/data/presets.txt`` by this module's own reader.
A change to the library (``generate_synthetic`` included) therefore cannot
change what the benchmark feeds it; only a change to the shipped constants
or to this file can, and either one changes the input digest.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PRESETS_FILE = ROOT / "src" / "ptqlaw" / "data" / "presets.txt"
FIXTURE_CSV = ROOT / "tests" / "data" / "synthetic_384.csv"

CSV_HEADER = "model_family,n_params,w_base,c_b,g,benchmark,task_category,accuracy"
MEMORIZATION = ("lama-conceptnet", "lama-squad")
UTILIZATION = ("hellaswag", "winogrande", "arc-e", "arc-c")
BENCHMARKS = MEMORIZATION + UTILIZATION
SCOPES = {
    "general": BENCHMARKS,
    "memorization": MEMORIZATION,
    "utilization": UTILIZATION,
}
EXPONENTS = ("alpha", "beta", "gamma", "delta")
FACTORS = ("n", "c_b", "g", "b_eff")

#: The published 6 x 4 x 4 x 4 configuration grid (384 points).
PUBLISHED_GRID = {
    "n": (125e6, 350e6, 1.3e9, 2.7e9, 6.7e9, 13e9),
    "w": (2, 3, 4, 8),
    "c_b": (8, 128, 1024, 4096),
    "g": (32, 64, 128, 1024),
}
#: Ranges the shipped fits were calibrated on (w_base stands in for b_eff).
FITTED = {"n": (125e6, 13e9), "w": (2, 8), "c_b": (8, 4096), "g": (32, 1024)}

# Workload shapes. Pools are large enough that no run reuses an advise grid,
# and fixed in size so that the input digest does not depend on run length.
FIT_FILES = 16           # generated files; the shipped fixture is added
FIT_NOISY_EVERY = 4      # one generated file in four is drawn at sigma 0.3
FIT_SIGMA, FIT_NOISY_SIGMA = 0.05, 0.3
FIT_TRUTHS = ("opt-general", "llama2-general")
ADVISE_POOL = 256
ADVISE_INFEASIBLE_SHARE = 0.1
SYNTH_POOL = 64
CLI_POOL = 32
CLI_FILES = 4

_WORKLOAD_CODES = {"fit": 1, "advise": 2, "synth": 3, "cli": 4}


def parse_presets(text: str) -> dict[str, dict]:
    """``[name]`` sections of ``key = value`` lines, as plain dicts.

    Each preset becomes ``{"c": float, "mask": tuple, "alpha": ..., ...}``
    with excluded exponents set to 0.
    """
    presets: dict[str, dict] = {}
    current: dict | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            current = presets.setdefault(line[1:-1].strip(), {})
            continue
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    parsed = {}
    for name, block in presets.items():
        mask = tuple(f for f in block["mask"].split(",") if f)
        entry = {"c": float(block["c"]), "mask": mask, "task": block.get("task", "custom")}
        for exponent in EXPONENTS:
            entry[exponent] = float(block.get(exponent, 0.0))
        parsed[name] = entry
    return parsed


def load_presets() -> dict[str, dict]:
    return parse_presets(PRESETS_FILE.read_text(encoding="utf-8"))


def features(n, w, c_b, g, b_s=16.0, b_z=None) -> dict[str, np.ndarray]:
    """Transformed law inputs: n, log2(c_b), g and log2(b_eff), as arrays."""
    n, w, c_b, g = (np.asarray(x, dtype=float) for x in (n, w, c_b, g))
    b_z = w if b_z is None else np.asarray(b_z, dtype=float)
    b_eff = w + (b_s + b_z) / g
    return {"n": n, "c_b": np.log2(c_b), "g": g, "b_eff": np.log2(b_eff)}


def law(params: dict, feats: dict[str, np.ndarray]) -> np.ndarray:
    """``c * prod(t_k ** e_k)`` over the masked-in factors, in plain numpy."""
    values = np.full(feats["n"].shape, params["c"], dtype=float)
    for factor, exponent in zip(FACTORS, EXPONENTS):
        if factor in params["mask"]:
            values = values * feats[factor] ** params[exponent]
    return values


def storage_bits(n, w, g, b_s=16.0) -> np.ndarray:
    n, w, g = (np.asarray(x, dtype=float) for x in (n, w, g))
    return n * (w + (b_s + w) / g)


def grid_columns(axes: dict) -> dict[str, np.ndarray]:
    """All grid points, ordered by ascending (n, w, c_b, g) like the library."""
    mesh = np.meshgrid(
        *(np.array(sorted(axes[k]), dtype=float) for k in ("n", "w", "c_b", "g")),
        indexing="ij",
    )
    return {k: m.ravel() for k, m in zip(("n", "w", "c_b", "g"), mesh)}


# ---------------------------------------------------------------------------
# datasets


@dataclass
class DatasetSpec:
    """One generated dataset: the rows as columns, and how they were drawn."""

    name: str
    sigma: float
    truth: dict                  # generating law (opt-general for the fixture)
    columns: dict[str, np.ndarray]
    benchmark: np.ndarray        # benchmark index per row, into BENCHMARKS
    accuracy: np.ndarray
    csv_text: str = ""
    jsonl_text: str = ""


def _format_count(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def dataset_rows(spec: DatasetSpec):
    cols = spec.columns
    for i in range(len(spec.accuracy)):
        bench = BENCHMARKS[spec.benchmark[i]]
        category = "memorization" if bench in MEMORIZATION else "utilization"
        yield (
            "bench", float(cols["n"][i]), int(cols["w"][i]), int(cols["c_b"][i]),
            int(cols["g"][i]), bench, category, float(spec.accuracy[i]),
        )


def to_csv(spec: DatasetSpec) -> str:
    lines = [CSV_HEADER]
    for fam, n, w, cb, g, bench, cat, acc in dataset_rows(spec):
        lines.append(f"{fam},{_format_count(n)},{w},{cb},{g},{bench},{cat},{acc!r}")
    return "\n".join(lines) + "\n"


def to_jsonl(spec: DatasetSpec) -> str:
    keys = CSV_HEADER.split(",")
    out = []
    for row in dataset_rows(spec):
        record = dict(zip(keys, row))
        record["n_params"] = int(row[1]) if row[1].is_integer() else row[1]
        out.append(json.dumps(record))
    return "\n".join(out) + "\n"


def scope_means(spec: DatasetSpec, scope: str) -> np.ndarray:
    """Per-configuration mean accuracy over the scope, in grid order."""
    wanted = [BENCHMARKS.index(b) for b in SCOPES[scope]]
    per_config = spec.accuracy.reshape(-1, len(BENCHMARKS))
    return per_config[:, wanted].mean(axis=1)


def config_columns(spec: DatasetSpec) -> dict[str, np.ndarray]:
    """One entry per configuration (rows are config-major, benchmark-minor)."""
    return {k: v[:: len(BENCHMARKS)] for k, v in spec.columns.items()}


def draw_dataset(name: str, rng: np.random.Generator, truth: dict, sigma: float) -> DatasetSpec:
    """Law values on the published grid plus per-record Gaussian noise, clamped."""
    grid = grid_columns(PUBLISHED_GRID)
    clean = law(truth, features(grid["n"], grid["w"], grid["c_b"], grid["g"]))
    k = len(BENCHMARKS)
    accuracy = np.clip(np.repeat(clean, k) + rng.normal(0.0, sigma, clean.size * k), 0.0, 1.0)
    spec = DatasetSpec(
        name=name,
        sigma=sigma,
        truth=truth,
        columns={key: np.repeat(col, k) for key, col in grid.items()},
        benchmark=np.tile(np.arange(k), clean.size),
        accuracy=accuracy,
    )
    spec.csv_text = to_csv(spec)
    spec.jsonl_text = to_jsonl(spec)
    return spec


def read_fixture(presets: dict) -> DatasetSpec:
    """The shipped noisy fixture, parsed with the stdlib only."""
    import csv

    with open(FIXTURE_CSV, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    spec = DatasetSpec(
        name=FIXTURE_CSV.name,
        sigma=0.05,
        truth=presets["opt-general"],
        columns={
            "n": np.array([float(r["n_params"]) for r in rows]),
            "w": np.array([int(r["w_base"]) for r in rows], dtype=float),
            "c_b": np.array([int(r["c_b"]) for r in rows], dtype=float),
            "g": np.array([int(r["g"]) for r in rows], dtype=float),
        },
        benchmark=np.array([BENCHMARKS.index(r["benchmark"]) for r in rows]),
        accuracy=np.array([float(r["accuracy"]) for r in rows]),
    )
    spec.csv_text = FIXTURE_CSV.read_text(encoding="utf-8")
    spec.jsonl_text = to_jsonl(spec)
    return spec


def _jittered(base: dict, rng: np.random.Generator) -> dict:
    truth = dict(base)
    for exponent in EXPONENTS:
        truth[exponent] = base[exponent] * float(rng.uniform(0.9, 1.1))
    return truth


# ---------------------------------------------------------------------------
# per-workload input sets


@dataclass
class Inputs:
    """Everything one run feeds the program, plus what the checks need."""

    workload: str
    seed: int
    presets: dict
    items: list            # one entry per op, used round-robin
    datasets: list[DatasetSpec] = field(default_factory=list)
    warmup: dict | None = None   # the warm-up and set-up op's item; items[0] if None

    def digest(self) -> str:
        """SHA-256 over every generated input, independent of file locations."""
        h = hashlib.sha256()
        h.update(f"{self.workload}:{self.seed}\n".encode())
        for spec in self.datasets:
            h.update(spec.name.encode() + b"\n" + spec.csv_text.encode())
            h.update(spec.jsonl_text.encode())
        h.update(json.dumps(self.items, sort_keys=True).encode())
        return h.hexdigest()


def _rng(seed: int, workload: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_CODES[workload], *stream])


def fit_inputs(seed: int, presets: dict) -> Inputs:
    datasets = [read_fixture(presets)]
    for i in range(FIT_FILES):
        rng = _rng(seed, "fit", i)
        sigma = FIT_NOISY_SIGMA if i % FIT_NOISY_EVERY == FIT_NOISY_EVERY - 1 else FIT_SIGMA
        base = presets[FIT_TRUTHS[i % len(FIT_TRUTHS)]]
        datasets.append(draw_dataset(f"fit-{i:02d}.csv", rng, _jittered(base, rng), sigma))
    order = [int(i) for i in _rng(seed, "fit", 999).permutation(len(datasets))]
    # warm up, and time set-up, on the shipped fixture: the same file for every seed
    return Inputs("fit", seed, presets, [{"dataset": i} for i in order], datasets,
                  warmup={"dataset": 0})


def _advise_axes(rng: np.random.Generator) -> dict:
    """About 1,000 points; about a fifth of each axis lies outside the fitted ranges."""
    lo, hi = FITTED["n"]
    n_in = np.exp(rng.uniform(math.log(lo), math.log(hi), 8))
    n_out = [float(rng.uniform(30e6, lo * 0.95)), float(rng.uniform(hi * 1.05, 70e9))]
    n = sorted({float(f"{v:.3g}") for v in list(n_in) + n_out})
    w = sorted(rng.choice([2, 3, 4, 5, 6, 8], 4, replace=False).tolist()
               + [int(rng.choice([1, 10, 12, 16]))])
    c_b = sorted(rng.choice([8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096], 4,
                            replace=False).tolist() + [int(rng.choice([2, 4, 8192, 16384]))])
    g = sorted(rng.choice([32, 64, 128, 256, 512, 1024], 3, replace=False).tolist()
               + [int(rng.choice([8, 16, 2048, 4096]))])
    return {"n": n, "w": [int(x) for x in w], "c_b": [int(x) for x in c_b],
            "g": [int(x) for x in g]}


def _target_between(values: np.ndarray, rng: np.random.Generator, infeasible: bool) -> float:
    """A target halfway between two distinct predicted values, never on one.

    Keeping the target away from every grid value means rounding differences
    between the library and the reference cannot change which points reach it.
    """
    distinct = np.unique(values)
    if infeasible:
        return float(distinct[-1] * 1.05)
    i = int(rng.integers(len(distinct) // 5, len(distinct) - 1))
    return float((distinct[i] + distinct[i + 1]) / 2.0)


def advise_inputs(seed: int, presets: dict) -> Inputs:
    items = []
    names = sorted(presets)
    for i in range(ADVISE_POOL):
        rng = _rng(seed, "advise", i)
        axes = _advise_axes(rng)
        grid = grid_columns(axes)
        feats = features(grid["n"], grid["w"], grid["c_b"], grid["g"])
        targets = {}
        for name in names:
            infeasible = bool(rng.random() < ADVISE_INFEASIBLE_SHARE)
            targets[name] = _target_between(law(presets[name], feats), rng, infeasible)
        items.append({"axes": axes, "targets": targets})
    return Inputs("advise", seed, presets, items)


def synth_inputs(seed: int, presets: dict) -> Inputs:
    names = sorted(presets)
    items = []
    for i in range(SYNTH_POOL):
        rng = _rng(seed, "synth", i)
        items.append({
            "preset": names[int(rng.integers(len(names)))],
            "seed": int(rng.integers(2**31)),
            "sigma": 0.05,
        })
    return Inputs("synth", seed, presets, items)


def cli_inputs(seed: int, presets: dict) -> Inputs:
    datasets = []
    for i in range(CLI_FILES):
        rng = _rng(seed, "cli", 1000 + i)
        base = presets[FIT_TRUTHS[int(rng.integers(len(FIT_TRUTHS)))]]
        datasets.append(draw_dataset(f"cli-{i}", rng, _jittered(base, rng), FIT_SIGMA))
    names = sorted(presets)
    advisable = [n for n in names if "b_eff" in presets[n]["mask"]]
    grid = grid_columns(PUBLISHED_GRID)
    feats = features(grid["n"], grid["w"], grid["c_b"], grid["g"])
    items = []
    for i in range(CLI_POOL):
        rng = _rng(seed, "cli", i)
        advise_preset = advisable[int(rng.integers(len(advisable)))]
        items.append({
            "csv": int(rng.integers(CLI_FILES)),
            "jsonl": int(rng.integers(CLI_FILES)),
            "synth_preset": names[int(rng.integers(len(names)))],
            "synth_seed": int(rng.integers(2**31)),
            "replay": {
                "n": float(f"{math.exp(rng.uniform(math.log(125e6), math.log(13e9))):.3g}"),
                "c_b": int(rng.choice(PUBLISHED_GRID["c_b"])),
                "g": int(rng.choice(PUBLISHED_GRID["g"])),
                "w": int(rng.choice(PUBLISHED_GRID["w"])),
            },
            "advise_preset": advise_preset,
            "target": _target_between(law(presets[advise_preset], feats), rng, False),
            "frontier_preset": advisable[int(rng.integers(len(advisable)))],
            "plot_preset": names[int(rng.integers(len(names)))],
        })
    return Inputs("cli", seed, presets, items, datasets)


GENERATORS = {
    "fit": fit_inputs,
    "advise": advise_inputs,
    "synth": synth_inputs,
    "cli": cli_inputs,
}


def make_inputs(workload: str, seed: int) -> Inputs:
    return GENERATORS[workload](seed, load_presets())
