"""One operation of each workload, written against ptqlaw's public modules.

This module imports only the stdlib and ptqlaw, so the set-up probe can time
``import ptqlaw`` without numpy already loaded by the benchmark. Every library
call goes through a module attribute (``dataset.load_dataset``, not a name
imported here), so the traced run's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from ptqlaw import ablation, advisor, dataset, fitting, model, presets
from ptqlaw.errors import PtqLawError

#: Each fit op fits every scope against the matching OPT preset.
FIT_SCOPES = (("general", "opt-general"), ("memorization", "opt-mem"),
              ("utilization", "opt-util"))
SLICE_MASK = "n,c_b,g"
CHILD_TIMEOUT_S = 60


@dataclass
class Context:
    """Run-wide state an op needs: where inputs live and how to start children."""

    work: Path
    paths: list[str] = field(default_factory=list)   # dataset files, by index
    jsonl_paths: list[str] = field(default_factory=list)
    python: str = sys.executable
    env: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# in-process workloads


def fit_op(ctx: Context, item: dict) -> dict:
    """Fit every scope, ablate, and fit the 2-bit slice.

    A fit the library rejects (today: an aggregated accuracy of 0 in a noisy
    dataset) is kept as its ``PtqLawError``; the check decides whether the
    rejection was due, and the op goes on with the next step.
    """
    ds = dataset.load_dataset(ctx.paths[item["dataset"]])
    registry = presets.load_registry()
    scopes = {}
    for scope, preset in FIT_SCOPES:
        observations = dataset.aggregate(ds, scope)
        try:
            result = fitting.fit_nls(fitting.FitProblem(tuple(observations), model.ALL_FACTORS))
        except PtqLawError as exc:
            result = exc
        fit = fitting.goodness_of_fit(observations, registry.get(preset))
        scopes[scope] = (observations, result, fit)
    report = ablation.run_ablation(ds, "general")
    try:
        sliced = ablation.fit_slice(
            ds, "general", _is_two_bit, model.parse_mask(SLICE_MASK), description="w_base=2"
        )
    except PtqLawError as exc:
        sliced = exc
    return {"scopes": scopes, "ablation": report, "slice": sliced}


def _is_two_bit(record) -> bool:
    return record.w_base == 2


def advise_op(ctx: Context, item: dict) -> dict:
    axes = item["axes"]
    space = advisor.SearchSpace(
        n_params=tuple(axes["n"]), w_base=tuple(axes["w"]),
        c_b=tuple(axes["c_b"]), g=tuple(axes["g"]),
    )
    registry = presets.load_registry()
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # extrapolation and accuracy > 1 are expected
        for name in sorted(item["targets"]):
            params = registry.get(name)
            points = advisor.sweep(params, space, allow_extrapolation=True)
            frontier = advisor.pareto_frontier(points)
            best = advisor.min_cost_config(
                params, space, item["targets"][name], allow_extrapolation=True
            )
            results[name] = (points, frontier, best)
    return results


def synth_op(ctx: Context, item: dict) -> dict:
    params = presets.load_registry().get(item["preset"])
    ds = dataset.generate_synthetic(
        params, advisor.default_space(), noise_sigma=item["sigma"], seed=item["seed"]
    )
    csv_text = dataset.dataset_to_csv(ds)
    jsonl_text = dataset.dataset_to_jsonl(ds)
    csv_path, jsonl_path = ctx.work / "synth.csv", ctx.work / "synth.jsonl"
    dataset.write_csv(ds, csv_path)
    dataset.write_jsonl(ds, jsonl_path)
    return {
        "records": len(ds),
        "csv_text": csv_text,
        "jsonl_text": jsonl_text,
        "csv_path": csv_path,
        "jsonl_path": jsonl_path,
        "fingerprint": ds.fingerprint(),
    }


# ---------------------------------------------------------------------------
# cli workload: whole `python -m ptqlaw` processes, one at a time

README_PREDICT = ["predict", "--preset", "opt-general", "-n", "6.7e9", "--cb", "128",
                  "-g", "128", "-w", "4"]


def cli_session(ctx: Context, item: dict, out: Path) -> list[tuple[str, list[str]]]:
    """The scripted session: (subcommand, argv) pairs, run in order."""
    synth = ["synth", "--preset", item["synth_preset"], "--noise-sigma", "0.05",
             "--seed", str(item["synth_seed"])]
    replay = item["replay"]
    return [
        ("beff", ["beff", "-w", "2", "-g", "32"]),
        ("predict", list(README_PREDICT)),
        ("synth", synth + ["-o", str(out / "synth.csv")]),
        ("synth", synth + ["--json", "-o", str(out / "synth.jsonl")]),
        ("fit", ["fit", ctx.paths[item["csv"]], "--scope", "memorization",
                 "-o", str(out / "mem.params")]),
        ("predict", ["predict", "--params-file", str(out / "mem.params"),
                     "-n", repr(replay["n"]), "--cb", str(replay["c_b"]),
                     "-g", str(replay["g"]), "-w", str(replay["w"])]),
        ("ablate", ["ablate", ctx.jsonl_paths[item["jsonl"]]]),
        ("advise", ["advise", "--preset", item["advise_preset"],
                    "--target", repr(item["target"])]),
        ("advise", ["advise", "--preset", item["frontier_preset"], "--frontier"]),
        ("plotdata", ["plotdata", "--figure", "gs-curve", "--preset", item["plot_preset"]]),
    ]


@dataclass
class ProcessResult:
    sub: str
    code: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kib: int


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout()


def run_process(ctx: Context, sub: str, args: list[str]) -> ProcessResult:
    """Run ``python <args>`` to completion; return its output, wall time and peak RSS.

    ``os.wait4`` reaps the child and reports that child's own resource usage,
    so the peak RSS is this process's, not the largest of any child so far.
    """
    out_path, err_path = ctx.work / "child.out", ctx.work / "child.err"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([ctx.python, *args], cwd=ctx.work, env=ctx.env,
                                stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return ProcessResult(sub, proc.returncode, out.read().decode(),
                             err.read().decode(), wall, usage.ru_maxrss)


def cli_op(ctx: Context, item: dict) -> list[ProcessResult]:
    out = ctx.work / "session"
    out.mkdir(exist_ok=True)
    return [run_process(ctx, sub, ["-m", "ptqlaw", *argv])
            for sub, argv in cli_session(ctx, item, out)]


def cli_in_process(ctx: Context, item: dict) -> list[int]:
    """The same session through ``ptqlaw.cli.main`` in this process."""
    from ptqlaw import cli

    out = ctx.work / "inproc"
    out.mkdir(exist_ok=True)
    codes = []
    for _, argv in cli_session(ctx, item, out):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
    return codes


OPS = {"fit": fit_op, "advise": advise_op, "synth": synth_op, "cli": cli_op}


def setup_op(workload: str, ctx: Context, item: dict) -> None:
    """The warm-up op the set-up probe times: one op, or one CLI command in-process."""
    if workload == "cli":
        from ptqlaw import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["beff", "-w", "2", "-g", "32"])
    else:
        OPS[workload](ctx, item)
