"""Per-op correctness checks against references that share no code with ptqlaw.

The references recompute every checked quantity with plain numpy from the
generated inputs (``inputs.law``, ``inputs.scope_means``) or re-read outputs
with the stdlib ``csv`` and ``json`` modules. Each check returns a list of
failure messages; an empty list means the op passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from inputs import (
    BENCHMARKS,
    EXPONENTS,
    FACTORS,
    FITTED,
    PUBLISHED_GRID,
    ROOT,
    SCOPES,
    config_columns,
    features,
    grid_columns,
    law,
    scope_means,
    storage_bits,
)

GOLDEN_DIR = ROOT / "tests" / "data"
#: Largest |fitted - truth| / standard error accepted for a sigma=0.05 fit.
#: Calibrated on 1,440 fits (480 files of seeds 0-39, three scopes each),
#: whose largest |z| was 4.2.
RECOVERY_Z = 6.0
REL_VALUE = 1e-12   # scalar library evaluation vs vectorised reference
REL_SSE = 1e-8      # sums of squares over a few hundred residuals
GOLDEN_ABS = 1e-9   # tolerance of the frozen ablation golden's own test


def params_dict(params) -> dict:
    """A ScalingLawParams as the reference's plain dict."""
    entry = {"c": params.c, "mask": tuple(f.value for f in params.mask)}
    for exponent in EXPONENTS:
        entry[exponent] = getattr(params, exponent)
    return entry


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _non_increasing(trace) -> bool:
    return all(b <= a for a, b in zip(trace, trace[1:]))


def _sse(params: dict, feats: dict, y: np.ndarray) -> float:
    return float(np.sum((y - law(params, feats)) ** 2))


def _r2(sse: float, y: np.ndarray, n_parameters: int) -> tuple[float, float]:
    n = len(y)
    r2 = 1.0 - sse / float(np.sum((y - y.mean()) ** 2))
    return r2, 1.0 - (1.0 - r2) * (n - 1) / (n - n_parameters - 1)


def _standard_errors(truth: dict, feats: dict, sigma: float) -> np.ndarray:
    values = law(truth, feats)
    jac = np.column_stack([values / truth["c"]] + [values * np.log(feats[f]) for f in FACTORS])
    return np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)) * sigma**2)


# ---------------------------------------------------------------------------
# fit


def _check_result(label: str, result, feats: dict, y: np.ndarray, n_parameters: int) -> list[str]:
    errors = []
    if result.n_observations != len(y):
        errors.append(f"{label}: {result.n_observations} observations, expected {len(y)}")
        return errors
    if not _non_increasing(result.sse_trace):
        errors.append(f"{label}: sse_trace increases")
    reference = _sse(params_dict(result.params), feats, y)
    if not _rel_close(reference, result.sse, REL_SSE):
        errors.append(f"{label}: sse {result.sse!r} != reference {reference!r}")
    r2, adjusted = _r2(result.sse, y, n_parameters)
    if not (_rel_close(r2, result.r_squared, REL_SSE)
            and _rel_close(adjusted, result.adjusted_r_squared, REL_SSE)):
        errors.append(f"{label}: r_squared {result.r_squared!r} != reference {r2!r}")
    return errors


def _rejection(label: str, result, y: np.ndarray) -> list[str] | None:
    """None if ``result`` is a fit; else the errors its rejection implies.

    The library may refuse observations with an accuracy of 0 (those only),
    and must raise its own ``PtqLawError`` when it does.
    """
    if not isinstance(result, Exception):
        return None
    if float(np.min(y)) <= 0.0:
        return []
    return [f"{label}: fit rejected without an aggregated zero: {result}"]


def check_fit(spec, out: dict, presets: dict) -> list[str]:
    cfg = config_columns(spec)
    feats = features(cfg["n"], cfg["w"], cfg["c_b"], cfg["g"])
    errors = []
    for scope, (observations, result, gof) in out["scopes"].items():
        y = scope_means(spec, scope)
        observed = np.array([o.accuracy for o in observations])
        if observed.shape != y.shape or np.max(np.abs(observed - y)) > 1e-12:
            errors.append(f"{scope}: aggregated accuracies differ from the reference means")
            continue
        preset = presets[{"general": "opt-general", "memorization": "opt-mem",
                          "utilization": "opt-util"}[scope]]
        sse = _sse(preset, feats, y)
        r2, adjusted = _r2(sse, y, 5)
        if not (_rel_close(sse, gof.sse, REL_SSE) and _rel_close(r2, gof.r_squared, REL_SSE)
                and _rel_close(adjusted, gof.adjusted_r_squared, REL_SSE)):
            errors.append(f"{scope}: goodness_of_fit differs from the reference")
        rejected = _rejection(scope, result, y)
        if rejected is not None:
            errors += rejected
            continue
        errors += _check_result(scope, result, feats, y, 5)
        truth_sse = _sse(spec.truth, feats, y)
        if result.sse > truth_sse * (1 + 1e-9):
            errors.append(f"{scope}: fit sse {result.sse!r} above the truth's {truth_sse!r}")
        if spec.sigma <= 0.05:
            se = _standard_errors(spec.truth, feats, spec.sigma / math.sqrt(len(SCOPES[scope])))
            fitted = np.array([result.params.c] + [getattr(result.params, e) for e in EXPONENTS])
            truth = np.array([spec.truth["c"]] + [spec.truth[e] for e in EXPONENTS])
            z = float(np.max(np.abs(fitted - truth) / se))
            if z > RECOVERY_Z:
                errors.append(f"{scope}: exponents {z:.1f} standard errors from the truth")

    report = out["ablation"]
    y = scope_means(spec, "general")
    masks = {",".join(f.value for f in e.mask) for e in report.entries}
    if len(report.entries) != 4 or len(masks) != 4:
        errors.append(f"ablation: {len(report.entries)} entries for 4 default masks")
    fitted = [e for e in report.entries if not e.failed]
    adjusted = [e.result.adjusted_r_squared for e in fitted]
    if adjusted != sorted(adjusted, reverse=True):
        errors.append("ablation: entries not sorted by adjusted r_squared")
    if len(fitted) < len(report.entries) and float(np.min(y)) > 0.0:
        errors.append("ablation: a mask failed without an aggregated zero")
    for entry in fitted:
        label = "ablation " + ",".join(f.value for f in _ordered(entry.mask))
        errors += _check_result(label, entry.result, feats, y, 1 + len(entry.mask))

    sliced = out["slice"]
    two_bit = cfg["w"] == 2
    rejected = _rejection("slice w_base=2", sliced, y[two_bit])
    if rejected is not None:
        return errors + rejected
    slice_feats = {k: v[two_bit] for k, v in feats.items()}
    errors += _check_result("slice w_base=2", sliced, slice_feats, y[two_bit], 4)
    if {f.value for f in sliced.params.mask} != {"n", "c_b", "g"}:
        errors.append("slice: wrong mask")
    return errors


def rejected_fits(out: dict) -> int:
    """Fits of one fit op that the library refused."""
    results = [result for _, result, _ in out["scopes"].values()] + [out["slice"]]
    return sum(isinstance(r, Exception) for r in results) + sum(
        e.failed for e in out["ablation"].entries)


def check_ablation_golden(report) -> list[str]:
    golden = json.loads((GOLDEN_DIR / "ablation_golden.json").read_text(encoding="utf-8"))
    errors = []
    if report.dataset_fingerprint != golden["dataset_fingerprint"]:
        errors.append("fixture: ablation fingerprint differs from the golden")
    frozen = {row["mask"]: row for row in golden["entries"]}
    for entry in report.entries:
        row = frozen[",".join(f.value for f in _ordered(entry.mask))]
        for key in ("r_squared", "adjusted_r_squared"):
            if abs(getattr(entry.result, key) - row[key]) > GOLDEN_ABS:
                errors.append(f"fixture: ablation {row['mask']} {key} differs from the golden")
    return errors


def _ordered(mask):
    return sorted(mask, key=lambda f: FACTORS.index(f.value))


def check_noisy_fit_golden() -> list[str]:
    """Refit the frozen noisy-fit problem; it must land on the oracle's minimum."""
    import ptqlaw

    golden = json.loads((GOLDEN_DIR / "noisy_fit_golden.json").read_text(encoding="utf-8"))
    grid = grid_columns(PUBLISHED_GRID)
    truth = {"c": golden["truth"]["c"], "mask": FACTORS,
             **{e: golden["truth"][e] for e in EXPONENTS}}
    rng = np.random.default_rng(golden["seed"])
    y = law(truth, features(grid["n"], grid["w"], grid["c_b"], grid["g"]))
    y = y + rng.normal(0.0, golden["noise_sigma"], y.size)
    observations = tuple(
        ptqlaw.Observation(ptqlaw.PtqConfig(n_params=n, w_base=int(w), c_b=int(cb), g=int(g)),
                           "general", float(acc))
        for n, w, cb, g, acc in zip(grid["n"], grid["w"], grid["c_b"], grid["g"], y)
    )
    result = ptqlaw.fit_nls(ptqlaw.FitProblem(observations, ptqlaw.ALL_FACTORS))
    gap = max(abs(getattr(result.params, k) - golden["oracle"][k]) for k in ("c",) + EXPONENTS)
    return [] if gap <= 1e-4 else [f"noisy-fit golden: |fit - oracle| = {gap:.2e}"]


# ---------------------------------------------------------------------------
# advise


def _out_of_range(n, w, c_b, g) -> np.ndarray:
    outside = np.zeros(len(n), dtype=bool)
    for key, values in (("n", n), ("w", w), ("c_b", c_b), ("g", g)):
        lo, hi = FITTED[key]
        outside |= (values < lo) | (values > hi)
    return outside


def frontier_reference(acc: np.ndarray, storage: np.ndarray, tie_key: np.ndarray) -> set[int]:
    """Indices on the frontier by an all-pairs dominance scan.

    Points identical in both objectives collapse to the smallest
    (w_base, g, c_b), given as ``tie_key`` ranks.
    """
    ge = acc[None, :] >= acc[:, None]
    le = storage[None, :] <= storage[:, None]
    strict = (acc[None, :] > acc[:, None]) | (storage[None, :] < storage[:, None])
    dominated = np.any(ge & le & strict, axis=1)
    keep = {}
    for i in np.flatnonzero(~dominated):
        key = (storage[i], acc[i])
        if key not in keep or tie_key[i] < tie_key[keep[key]]:
            keep[key] = int(i)
    return set(keep.values())


def min_cost_reference(acc, storage, tie_key, target) -> int | None:
    feasible = np.flatnonzero(acc >= target)
    if feasible.size == 0:
        return None
    order = np.lexsort((tie_key[feasible], -acc[feasible], storage[feasible]))
    return int(feasible[order[0]])


def _tie_rank(w, g, c_b) -> np.ndarray:
    order = np.lexsort((c_b, g, w))
    rank = np.empty(len(w), dtype=np.int64)
    rank[order] = np.arange(len(w))
    return rank


def check_advise(item: dict, out: dict, presets: dict, samples: np.ndarray) -> list[str]:
    grid = grid_columns(item["axes"])
    feats = features(grid["n"], grid["w"], grid["c_b"], grid["g"])
    outside = _out_of_range(grid["n"], grid["w"], grid["c_b"], grid["g"])
    ref_storage = storage_bits(grid["n"], grid["w"], grid["g"])
    tie = _tie_rank(grid["w"], grid["g"], grid["c_b"])
    errors = []
    for name, (points, frontier, best) in out.items():
        if len(points) != len(grid["n"]):
            errors.append(f"{name}: {len(points)} points for a {len(grid['n'])}-point grid")
            continue
        cfg = np.array([(p.cfg.n_params, p.cfg.w_base, p.cfg.c_b, p.cfg.g) for p in points])
        if not np.array_equal(cfg, np.column_stack([grid[k] for k in ("n", "w", "c_b", "g")])):
            errors.append(f"{name}: sweep order differs from the grid order")
            continue
        acc = np.array([p.predicted_accuracy for p in points])
        storage = np.array([p.storage_bits for p in points])
        expected = law(presets[name], feats)
        sample = samples % len(acc)
        if np.max(np.abs(acc[sample] - expected[sample]) / np.abs(expected[sample])) > REL_VALUE:
            errors.append(f"{name}: predicted_accuracy differs from the reference law")
        if np.max(np.abs(storage - ref_storage) / ref_storage) > REL_VALUE:
            errors.append(f"{name}: storage_bits differ from n * b_eff")
        if not np.array_equal(np.array([p.extrapolation for p in points]), outside):
            errors.append(f"{name}: extrapolation flags differ from the fitted ranges")
        where = {tuple(row): i for i, row in enumerate(cfg.tolist())}
        got = [where[(p.cfg.n_params, p.cfg.w_base, p.cfg.c_b, p.cfg.g)] for p in frontier]
        if set(got) != frontier_reference(acc, storage, tie):
            errors.append(f"{name}: frontier differs from the all-pairs dominance scan")
        if [storage[i] for i in got] != sorted(storage[i] for i in got):
            errors.append(f"{name}: frontier not sorted by storage")
        want = min_cost_reference(acc, storage, tie, item["targets"][name])
        if want is None:
            if best is not None:
                errors.append(f"{name}: min_cost_config found a point none reaches")
        elif best is None or (best.cfg.n_params, best.cfg.w_base, best.cfg.c_b, best.cfg.g) != \
                tuple(cfg[want].tolist()):
            errors.append(f"{name}: min_cost_config differs from the numpy argmin")
    return errors


# ---------------------------------------------------------------------------
# synth and cli outputs


def _dataset_ok(cols: dict[str, list], label: str) -> list[str]:
    expected = len(grid_columns(PUBLISHED_GRID)["n"]) * len(BENCHMARKS)
    accuracy = np.array(cols.get("accuracy", ()), dtype=float)
    if len(accuracy) != expected:
        return [f"{label}: {len(accuracy)} rows, expected {expected}"]
    if not np.all((accuracy >= 0.0) & (accuracy <= 1.0)):
        return [f"{label}: accuracy outside [0, 1]"]
    keys = set(zip(np.array(cols["n_params"], dtype=float).tolist(),
                   *(np.array(cols[k], dtype=int).tolist() for k in ("w_base", "c_b", "g")),
                   cols["benchmark"]))
    if len(keys) != expected:
        return [f"{label}: rows do not cover the grid once per benchmark"]
    return []


def read_csv_columns(text: str) -> dict[str, list]:
    rows = list(csv.reader(io.StringIO(text)))
    return {name: list(column) for name, column in zip(rows[0], zip(*rows[1:]))}


def read_jsonl_columns(text: str) -> dict[str, list]:
    records = json.loads("[" + ",".join(line for line in text.splitlines() if line.strip()) + "]")
    return {key: [r[key] for r in records] for key in (records[0] if records else ())}


def check_synth(out: dict) -> list[str]:
    csv_file = out["csv_path"].read_text(encoding="utf-8")
    jsonl_file = out["jsonl_path"].read_text(encoding="utf-8")
    errors = []
    if csv_file != out["csv_text"] or jsonl_file != out["jsonl_text"]:
        errors.append("written files differ from the rendered text")
    csv_cols, json_cols = read_csv_columns(csv_file), read_jsonl_columns(jsonl_file)
    errors += _dataset_ok(csv_cols, "csv") + _dataset_ok(json_cols, "jsonl")
    if not errors and not np.array_equal(np.array(csv_cols["accuracy"], dtype=float),
                                         np.array(json_cols["accuracy"], dtype=float)):
        errors.append("csv and jsonl records differ")
    if out["records"] != len(csv_cols.get("accuracy", ())) or len(out["fingerprint"]) != 64:
        errors.append("dataset size or fingerprint malformed")
    return errors


def _parse_params(text: str) -> dict:
    block = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        if value:
            block[key.strip()] = value.strip()
    entry = {"c": float(block["c"]), "mask": tuple(block["mask"].split(","))}
    for exponent in EXPONENTS:
        entry[exponent] = float(block.get(exponent, 0.0))
    return entry, block


def check_cli(item: dict, results: list, datasets: list, presets: dict, out_dir) -> list[str]:
    errors = [f"{r.sub}: exit {r.code}: {r.stderr.strip()[-200:]}" for r in results if r.code]
    if errors:
        return errors
    beff, readme, synth_csv, synth_jsonl, fit, replay, ablate, target, frontier, plot = results
    if beff.stdout != "2.5625 (2.56)\n":
        errors.append(f"beff printed {beff.stdout!r}")
    # the README quotes this prediction to 16 significant digits
    if f"{float(readme.stdout):.16g}" != "0.3604968753322231":
        errors.append(f"README predict printed {readme.stdout!r}")
    errors += _dataset_ok(read_csv_columns((out_dir / "synth.csv").read_text()), "synth csv")
    errors += _dataset_ok(read_jsonl_columns((out_dir / "synth.jsonl").read_text()),
                          "synth jsonl")

    params, block = _parse_params((out_dir / "mem.params").read_text())
    spec = datasets[item["csv"]]
    cfg = config_columns(spec)
    y = scope_means(spec, "memorization")
    sse = _sse(params, features(cfg["n"], cfg["w"], cfg["c_b"], cfg["g"]), y)
    if not _rel_close(sse, float(block["sse"]), REL_SSE):
        errors.append(f"fit: sse {block['sse']} != reference {sse!r}")
    r = item["replay"]
    expected = float(law(params, features([r["n"]], [r["w"]], [r["c_b"]], [r["g"]]))[0])
    if not _rel_close(float(replay.stdout), expected, REL_VALUE):
        errors.append(f"predict --params-file printed {replay.stdout.strip()}, expected {expected!r}")

    lines = ablate.stdout.splitlines()
    if len(lines) != 5 or any("FAILED" in line for line in lines):
        errors.append("ablate: expected a header and four fitted masks")

    grid = grid_columns(PUBLISHED_GRID)
    feats = features(grid["n"], grid["w"], grid["c_b"], grid["g"])
    storage = storage_bits(grid["n"], grid["w"], grid["g"])
    tie = _tie_rank(grid["w"], grid["g"], grid["c_b"])
    keys = np.column_stack([grid[k] for k in ("n", "w", "c_b", "g")])

    def configs(text):
        cols = read_csv_columns(text)
        return set(zip(*(np.array(cols[k], dtype=float).tolist()
                         for k in ("n_params", "w_base", "c_b", "g"))))

    acc = law(presets[item["advise_preset"]], feats)
    want = min_cost_reference(acc, storage, tie, item["target"])
    if configs(target.stdout) != {tuple(keys[want])}:
        errors.append("advise --target differs from the numpy argmin")
    acc = law(presets[item["frontier_preset"]], feats)
    want = {tuple(keys[i]) for i in frontier_reference(acc, storage, tie)}
    if configs(frontier.stdout) != want:
        errors.append("advise --frontier differs from the all-pairs dominance scan")

    cols = read_csv_columns(plot.stdout)
    n = np.array(cols["n_params"], dtype=float)
    g = np.array(cols["g"], dtype=float)
    expected = law(presets[item["plot_preset"]], features(n, np.full(len(n), 2.0),
                                                         np.full(len(n), 128.0), g))
    got = np.array(cols["accuracy"], dtype=float)
    if len(got) != 24 or np.max(np.abs(got - expected) / expected) > REL_VALUE:
        errors.append("plotdata gs-curve differs from the reference law")
    return errors
