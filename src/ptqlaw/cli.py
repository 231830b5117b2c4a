"""Command-line interface.

One binary with subcommands covering the whole library: effective bit-width
arithmetic, predictions from shipped or fitted parameters, NLS fitting,
mask ablations, configuration advice, plot-ready data series, and synthetic
dataset generation.

Conventions shared by every subcommand:

* exit codes: 0 success, 1 computation/fit failure, 2 usage/validation error
* stdout carries data only; diagnostics and warnings go to stderr
* ``--output -`` (the default) streams to stdout; file outputs are written
  atomically (temp file + rename)
* ``--json`` switches tabular output to JSON lines
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .ablation import DEFAULT_MASKS, run_ablation
from .advisor import (
    SearchSpace,
    cheapest_reaching,
    default_space,
    pareto_frontier,
    sweep,
)
from .dataset import (
    aggregate,
    dataset_to_csv,
    dataset_to_jsonl,
    generate_synthetic,
    load_dataset,
)
from .errors import ExtrapolationWarning, PtqLawError, ValidationError
from .fitting import FitOptions, FitProblem, fit_nls, fit_report_extras
from .model import (
    EXPONENT_FIELDS,
    Factor,
    PtqConfig,
    ScalingLawParams,
    effective_bit_width,
    effective_bits,
    evaluate,
    mask_to_text,
    parse_factor,
    parse_mask,
    sensitivity_report,
)
from .presets import load_params_file, load_registry, params_to_text

_EXIT_NOTE = "exit codes: 0 success, 1 computation/fit failure, 2 usage/validation error"


def _write_output(args, text: str) -> None:
    target = getattr(args, "output", None)
    if target in (None, "-"):
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(target)) or "."
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=directory, delete=False, newline=""
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _rows_to_text(rows: list[dict], columns: tuple[str, ...], as_json: bool) -> str:
    if as_json:
        return "".join(json.dumps({c: row[c] for c in columns}) + "\n" for row in rows)
    lines = [",".join(columns)]
    for row in rows:
        rendered = []
        for column in columns:
            value = row[column]
            if isinstance(value, bool):
                rendered.append("1" if value else "0")
            elif isinstance(value, float):
                rendered.append(str(int(value)) if value.is_integer() else repr(value))
            else:
                rendered.append(str(value))
        lines.append(",".join(rendered))
    return "\n".join(lines) + "\n"


def _float_list(text: str) -> tuple[float, ...]:
    body = text.strip()
    if not body:
        return ()
    return tuple(float(part) for part in body.split(","))


def _int_list(text: str) -> tuple[int, ...]:
    body = text.strip()
    if not body:
        return ()
    return tuple(int(part) for part in body.split(","))


def _load_params(args) -> ScalingLawParams:
    if getattr(args, "params_file", None):
        return load_params_file(args.params_file)
    if getattr(args, "preset", None):
        return load_registry().get(args.preset)
    raise ValidationError("pass --preset NAME or --params-file PATH")


def _config_from_args(args) -> PtqConfig:
    b_z = 0 if args.symmetric else args.b_z
    return PtqConfig(
        n_params=args.n_params,
        w_base=args.w_base,
        c_b=args.cb,
        g=args.g,
        b_s=args.b_s,
        b_z=b_z,
    )


def _space_from_args(args) -> SearchSpace:
    base = default_space()
    return SearchSpace(
        n_params=args.n_params if args.n_params is not None else base.n_params,
        w_base=args.w_base if args.w_base is not None else base.w_base,
        c_b=args.cb if args.cb is not None else base.c_b,
        g=args.g if args.g is not None else base.g,
        symmetric=args.symmetric,
    )


def _add_output_flags(sub) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON lines instead of text/CSV")
    sub.add_argument("-o", "--output", default="-", help="output path, or - for stdout")


def _add_space_flags(sub) -> None:
    sub.add_argument("--n-params", type=_float_list, default=None, metavar="LIST",
                     help="comma-separated model sizes (raw parameter counts)")
    sub.add_argument("--w-base", type=_int_list, default=None, metavar="LIST",
                     help="comma-separated nominal bit-widths")
    sub.add_argument("--cb", type=_int_list, default=None, metavar="LIST",
                     help="comma-separated calibration set sizes")
    sub.add_argument("--g", type=_int_list, default=None, metavar="LIST",
                     help="comma-separated group sizes")
    sub.add_argument("--symmetric", action="store_true",
                     help="symmetric quantization (zero-point stored in 0 bits)")


def _add_params_source(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--preset", help="named preset from the shipped registry")
    group.add_argument("--params-file", help="key-value parameter file (fit output works)")


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_beff(args) -> int:
    b_z = 0 if args.symmetric else args.b_z
    bits = effective_bits(args.w_base, args.g, b_s=args.b_s, b_z=b_z)
    if args.json:
        _write_output(args, json.dumps({"b_eff": bits.value, "display": bits.display}) + "\n")
    else:
        _write_output(args, f"{bits.value!r} ({bits.display})\n")
    return 0


def cmd_predict(args) -> int:
    params = _load_params(args)
    cfg = _config_from_args(args)
    accuracy = float(evaluate(params, (cfg,))[0])
    exceeds = accuracy > 1.0
    if exceeds:
        print(f"warning: predicted accuracy {accuracy!r} exceeds 1", file=sys.stderr)
    if args.json:
        _write_output(args, json.dumps({"accuracy": accuracy, "exceeds_one": exceeds}) + "\n")
    else:
        _write_output(args, f"{accuracy!r}\n")
    return 0


def _fit_options_from(args) -> FitOptions:
    settings = {}
    if args.options_file:
        from .presets import _parse_blocks  # same key-value syntax as parameter files

        with open(args.options_file, "r", encoding="utf-8") as handle:
            blocks = _parse_blocks(handle.read(), args.options_file)
        known = {"max_iter": int, "tol_step": float, "tol_cost": float, "damping_init": float}
        for _, block in blocks:
            for key, value in block.items():
                if key not in known:
                    raise ValidationError(f"{args.options_file}: unknown fit option {key!r}")
                try:
                    settings[key] = known[key](value)
                except ValueError:
                    raise ValidationError(
                        f"{args.options_file}: {key} = {value!r} is not a {known[key].__name__}"
                    ) from None
    for key in ("max_iter", "tol_step", "tol_cost", "damping_init"):
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    return FitOptions(**settings)


def _parse_fixed(entries) -> dict[Factor, float]:
    fixed = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ValidationError(f"--fix expects factor=value, got {entry!r}")
        name, _, value = entry.partition("=")
        try:
            fixed[parse_factor(name)] = float(value)
        except ValueError:
            raise ValidationError(f"--fix {entry!r}: value is not a number") from None
    return fixed


def cmd_fit(args) -> int:
    ds = load_dataset(args.data)
    if args.where:
        keep, description = _predicate_from(args.where)
        ds = ds.filter(keep, description=description)
    observations = _aggregate_for(args, ds)
    problem = FitProblem(
        tuple(observations), parse_mask(args.mask), fixed=_parse_fixed(args.fix)
    )
    result = fit_nls(problem, _fit_options_from(args))
    print(
        f"fit: {len(observations)} observations, converged={result.converged} "
        f"after {result.iterations} iterations",
        file=sys.stderr,
    )
    if args.json:
        payload = {
            "task": result.params.task,
            "mask": mask_to_text(result.params.mask),
            "c": result.params.c,
            **{
                EXPONENT_FIELDS[f]: result.params.exponent(f)
                for f in result.params.masked_factors
            },
            **fit_report_extras(result),
        }
        _write_output(args, json.dumps(payload) + "\n")
    else:
        _write_output(args, params_to_text(result.params, extras=fit_report_extras(result)))
    return 0


def _aggregate_for(args, ds):
    benchmarks = None
    if getattr(args, "benchmarks", None):
        benchmarks = tuple(b.strip() for b in args.benchmarks.split(",") if b.strip())
    return aggregate(ds, args.scope, benchmarks=benchmarks)


def _predicate_from(text: str):
    """Build a record predicate from ``field=value[,field=value...]``."""
    clauses = []
    for part in text.split(","):
        if "=" not in part:
            raise ValidationError(f"--where expects field=value pairs, got {part!r}")
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if name not in ("model_family", "n_params", "w_base", "c_b", "g"):
            raise ValidationError(f"--where cannot filter on {name!r}")
        if name != "model_family":
            try:
                value = float(value)
            except ValueError:
                raise ValidationError(f"--where {part!r}: value is not a number") from None
        clauses.append((name, value))

    def keep(record) -> bool:
        for name, value in clauses:
            actual = getattr(record, name)
            if (actual if name == "model_family" else float(actual)) != value:
                return False
        return True

    return keep, text


def _parse_masks_arg(text: str):
    if text.strip().lower() == "default":
        return DEFAULT_MASKS
    masks = [parse_mask(part) for part in text.split(";") if part.strip()]
    if not masks:
        raise ValidationError("--masks is empty")
    return masks


def cmd_ablate(args) -> int:
    ds = load_dataset(args.data)
    benchmarks = None
    if args.benchmarks:
        benchmarks = tuple(b.strip() for b in args.benchmarks.split(",") if b.strip())
    report = run_ablation(
        ds, args.scope, masks=_parse_masks_arg(args.masks), benchmarks=benchmarks
    )
    print(f"ablation on {args.data} (fingerprint {report.dataset_fingerprint[:12]})",
          file=sys.stderr)
    if args.json:
        lines = []
        for entry in report.entries:
            payload = {
                "scope": report.scope,
                "dataset_fingerprint": report.dataset_fingerprint,
                "mask": mask_to_text(entry.mask),
            }
            if entry.failed:
                payload["error"] = entry.error
            else:
                r = entry.result
                payload.update(
                    {
                        "c": r.params.c,
                        **{
                            EXPONENT_FIELDS[f]: r.params.exponent(f)
                            for f in r.params.masked_factors
                        },
                        "r_squared": r.r_squared,
                        "adjusted_r_squared": r.adjusted_r_squared,
                        "sse": r.sse,
                        "converged": r.converged,
                    }
                )
            lines.append(json.dumps(payload))
        _write_output(args, "\n".join(lines) + "\n")
    else:
        _write_output(args, report.format())
    return 0


_ADVISE_COLUMNS = (
    "n_params", "w_base", "c_b", "g", "b_eff",
    "predicted_accuracy", "storage_bits", "frontier_flag", "extrapolation_flag",
)


def _advise_row(point, on_frontier: bool) -> dict:
    cfg = point.cfg
    return {
        "n_params": cfg.n_params,
        "w_base": cfg.w_base,
        "c_b": cfg.c_b,
        "g": cfg.g,
        "b_eff": effective_bit_width(cfg).value,
        "predicted_accuracy": point.predicted_accuracy,
        "storage_bits": point.storage_bits,
        "frontier_flag": on_frontier,
        "extrapolation_flag": point.extrapolation,
    }


def cmd_advise(args) -> int:
    params = _load_params(args)
    space = _space_from_args(args)
    points = sweep(params, space, allow_extrapolation=args.allow_extrapolation)
    frontier = pareto_frontier(points)
    frontier_ids = {id(p) for p in frontier}
    if args.target is not None:
        best = cheapest_reaching(points, args.target)
        if best is None:
            print(f"no configuration reaches target accuracy {args.target}", file=sys.stderr)
            rows = []
        else:
            rows = [_advise_row(best, id(best) in frontier_ids)]
    elif args.frontier:
        rows = [_advise_row(p, True) for p in frontier]
    else:
        rows = [_advise_row(p, id(p) in frontier_ids) for p in points]
    _write_output(args, _rows_to_text(rows, _ADVISE_COLUMNS, args.json))
    return 0


def _pinned_sweep(params, space: SearchSpace, **pinned) -> list:
    """Sweep ``space`` with the named axes pinned; figures extrapolate silently."""
    pinned_space = dataclasses.replace(space, **{k: (v,) for k, v in pinned.items()})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        return sweep(params, pinned_space, allow_extrapolation=True)


def _plot_row(point) -> dict:
    row = _advise_row(point, on_frontier=False)
    return {**row, "accuracy": row["predicted_accuracy"]}


def cmd_plotdata(args) -> int:
    if args.figure == "sensitivity":
        return _plot_sensitivity(args)
    params = _load_params(args)
    space = _space_from_args(args)
    if args.figure == "beff-curve":
        columns = ("n_params", "w_base", "g", "c_b", "b_eff", "accuracy")
        rows = [_plot_row(p) for p in _pinned_sweep(params, space, c_b=args.fixed_cb)]
        # one series per model size, each in ascending b_eff (stable)
        per_n = len(rows) // len(space.n_params)
        rows = [
            row
            for start in range(0, len(rows), per_n)
            for row in sorted(rows[start:start + per_n], key=lambda r: r["b_eff"])
        ]
    elif args.figure == "cb-curve":
        columns = ("n_params", "w_base", "g", "c_b", "accuracy")
        rows = [_plot_row(p) for p in _pinned_sweep(params, space, g=args.fixed_g)]
    elif args.figure == "gs-curve":
        columns = ("n_params", "w_base", "c_b", "g", "accuracy")
        points = _pinned_sweep(params, space, w_base=args.fixed_w, c_b=args.fixed_cb)
        rows = [_plot_row(p) for p in points]
    elif args.figure == "surface-2bit":
        columns = ("n_params", "g", "c_b", "accuracy")
        points = _pinned_sweep(params, space, w_base=2)
        # the sweep's (n, c_b, g) grid order, transposed to (n, g, c_b)
        order = np.arange(len(points)).reshape(
            len(space.n_params), len(space.c_b), len(space.g)
        ).transpose(0, 2, 1).ravel()
        rows = [_plot_row(points[i]) for i in order]
    else:  # pragma: no cover - argparse choices guard this
        raise ValidationError(f"unknown figure {args.figure!r}")
    _write_output(args, _rows_to_text(rows, columns, args.json))
    return 0


def _plot_sensitivity(args) -> int:
    registry = load_registry()
    params_a = registry.get(args.preset_a)
    params_b = registry.get(args.preset_b)
    report = sensitivity_report(params_a, params_b)
    print(report.format(), file=sys.stderr, end="")
    space = _space_from_args(args)
    baseline = {
        "n_params": args.baseline_n, "w_base": args.fixed_w,
        "c_b": args.fixed_cb, "g": args.fixed_g,
    }
    # factor -> (the axis it varies, the column shown as its value)
    axes = {
        Factor.N: ("n_params", "n_params"),
        Factor.C_B: ("c_b", "c_b"),
        Factor.B_EFF: ("w_base", "b_eff"),
    }
    columns = ("factor", "value", "task", "accuracy", "relative_gain_pct")
    rows = []
    for factor, (varied, shown) in axes.items():
        if factor not in params_a.mask:
            continue
        pinned = {k: v for k, v in baseline.items() if k != varied}
        for params in (params_a, params_b):
            series = [_plot_row(p) for p in _pinned_sweep(params, space, **pinned)]
            for row in series:
                rows.append({
                    "factor": factor.value,
                    "value": float(row[shown]),
                    "task": params.task,
                    "accuracy": row["accuracy"],
                    "relative_gain_pct": 100.0 * (row["accuracy"] / series[0]["accuracy"] - 1.0),
                })
    _write_output(args, _rows_to_text(rows, columns, args.json))
    return 0


def cmd_synth(args) -> int:
    params = _load_params(args)
    space = _space_from_args(args)
    ds = generate_synthetic(
        params,
        space,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        model_family=args.model_family,
    )
    clamped = ds.provenance.get("clamped_rows", 0)
    print(f"generated {len(ds)} records ({clamped} clamped to [0, 1])", file=sys.stderr)
    _write_output(args, dataset_to_jsonl(ds) if args.json else dataset_to_csv(ds))
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptqlaw",
        description="Scaling-law toolkit for post-training-quantized LLMs.",
        epilog=_EXIT_NOTE,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    sub = subs.add_parser("beff", help="effective bit-width of one configuration",
                          epilog=_EXIT_NOTE)
    sub.add_argument("-w", "--w-base", type=int, required=True, help="nominal bit-width")
    sub.add_argument("-g", "--group-size", dest="g", type=int, required=True, help="group size")
    sub.add_argument("--b-s", type=int, default=16, help="scale storage bits (default 16)")
    sub.add_argument("--b-z", type=int, default=None,
                     help="zero-point storage bits (default: w_base, asymmetric)")
    sub.add_argument("--symmetric", action="store_true", help="symmetric scheme (b_z = 0)")
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_beff)

    sub = subs.add_parser("predict", help="predicted accuracy for one configuration",
                          epilog=_EXIT_NOTE)
    _add_params_source(sub)
    sub.add_argument("-n", "--n-params", type=float, required=True, help="model size, raw count")
    sub.add_argument("--cb", type=int, required=True, help="calibration set size")
    sub.add_argument("-g", "--group-size", dest="g", type=int, required=True, help="group size")
    sub.add_argument("-w", "--w-base", type=int, required=True, help="nominal bit-width")
    sub.add_argument("--b-s", type=int, default=16)
    sub.add_argument("--b-z", type=int, default=None)
    sub.add_argument("--symmetric", action="store_true")
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_predict)

    sub = subs.add_parser("fit", help="NLS fit of the law to a dataset", epilog=_EXIT_NOTE)
    sub.add_argument("data", help="dataset file (CSV or JSON lines)")
    sub.add_argument("--scope", default="general",
                     choices=("general", "memorization", "utilization"))
    sub.add_argument("--mask", default="n,c_b,g,b_eff", help="factors to include")
    sub.add_argument("--fix", action="append", metavar="FACTOR=VALUE",
                     help="pin an exponent instead of fitting it (repeatable)")
    sub.add_argument("--where", default=None, metavar="FIELD=VALUE[,...]",
                     help="fit a data slice, e.g. w_base=2")
    sub.add_argument("--benchmarks", default=None,
                     help="comma-separated benchmark override for aggregation")
    sub.add_argument("--max-iter", dest="max_iter", type=int, default=None)
    sub.add_argument("--tol-step", dest="tol_step", type=float, default=None)
    sub.add_argument("--tol-cost", dest="tol_cost", type=float, default=None)
    sub.add_argument("--damping-init", dest="damping_init", type=float, default=None)
    sub.add_argument("--options-file", default=None,
                     help="key-value file with fit options (flags take precedence)")
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_fit)

    sub = subs.add_parser("ablate", help="fit the law under several factor masks",
                          epilog=_EXIT_NOTE)
    sub.add_argument("data", help="dataset file (CSV or JSON lines)")
    sub.add_argument("--scope", default="general",
                     choices=("general", "memorization", "utilization"))
    sub.add_argument("--masks", default="default",
                     help="semicolon-separated masks, e.g. 'n,b_eff;n,c_b,b_eff'")
    sub.add_argument("--benchmarks", default=None)
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_ablate)

    sub = subs.add_parser("advise", help="sweep a search space and rank configurations",
                          epilog=_EXIT_NOTE)
    _add_params_source(sub)
    _add_space_flags(sub)
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--target", type=float, default=None,
                       help="emit the cheapest configuration reaching this accuracy")
    group.add_argument("--frontier", action="store_true",
                       help="emit only Pareto-frontier rows")
    sub.add_argument("--allow-extrapolation", action="store_true",
                     help="permit configurations outside the fitted ranges")
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_advise)

    sub = subs.add_parser("plotdata", help="plot-ready data series for the standard figures",
                          epilog=_EXIT_NOTE)
    sub.add_argument("--figure", required=True,
                     choices=("beff-curve", "cb-curve", "gs-curve", "surface-2bit", "sensitivity"))
    _add_params_source(sub)
    _add_space_flags(sub)
    sub.add_argument("--fixed-cb", type=int, default=128,
                     help="calibration size held fixed where the figure needs one")
    sub.add_argument("--fixed-g", type=int, default=128,
                     help="group size held fixed where the figure needs one")
    sub.add_argument("--fixed-w", type=int, default=2,
                     help="nominal bit-width held fixed where the figure needs one")
    sub.add_argument("--baseline-n", type=float, default=1.3e9,
                     help="model size baseline for the sensitivity figure")
    sub.add_argument("--preset-a", default="opt-mem",
                     help="first preset for the sensitivity figure")
    sub.add_argument("--preset-b", default="opt-util",
                     help="second preset for the sensitivity figure")
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_plotdata)

    sub = subs.add_parser("synth", help="generate a synthetic dataset from a law",
                          epilog=_EXIT_NOTE)
    _add_params_source(sub)
    _add_space_flags(sub)
    sub.add_argument("--noise-sigma", type=float, default=0.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--model-family", default="synthetic")
    _add_output_flags(sub)
    sub.set_defaults(handler=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PtqLawError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())
