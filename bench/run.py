"""ptqlaw benchmark: one closed-loop client, one op at a time.

Usage:

    python3 bench/run.py --workload {fit,advise,synth,cli} --seed N \
        --seconds S --trace {0,1}

Each run generates its inputs from the seed (``inputs.py``), times set-up in
fresh processes, runs one untimed warm-up op, then runs ops back to back until
the ops themselves have taken ``--seconds``. Every op is checked against an
independent reference (``checks.py``) outside the timed region.

Op and set-up times are CPU time (user plus system, of this process and of
every child it reaped), not wall time: on a shared virtual machine the
hypervisor takes the CPU away for stretches that swamp a wall clock, and CPU
time does not count them. The host also runs everything faster for stretches
of tens of seconds, so each op's CPU time is divided by the CPU time of a fixed
reference computation (``reference_cpu``) timed right before and after it:
op costs are reported in reference units. Raw CPU and wall figures are
printed in ``meta``.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced ops and prints the per-layer metrics, which
come from wrappers bound over ptqlaw's public functions (``tracer.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it, ``meta {...}``,
records the seed, the input digest, versions and the machine.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

# One BLAS thread, here and in every child, before numpy loads: the client is
# a single closed loop, and idle BLAS workers would add to the CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import inputs  # noqa: E402

WORKLOADS = ("fit", "advise", "synth", "cli")
SETUP_REPS = 3
TAIL_BEYOND = 10   # op_ref_tail: the highest percentile with this many samples beyond it
#: After each op the reference computation runs for this share of the op's CPU
#: time (at least once), so a long op's cost rests on many reference samples.
REFERENCE_SHARE = 0.05

END_TO_END = {
    "setup_s": "s",
    "op_ref_p75": "ref",
    "op_ref_tail": "ref",
    "success_rate": "fraction",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "dataset.load_dataset.ms": "ms",
    "dataset.load_dataset.rows": "count",
    "dataset.aggregate.ms": "ms",
    "dataset.aggregate.calls": "count",
    "dataset.ExperimentDataset.filter.ms": "ms",
    "fitting.FitProblem.ms": "ms",
    "fitting.warm_start.ms": "ms",
    "fitting.fit_nls.ms": "ms",
    "fitting.fit_nls.calls": "count",
    "fitting.fit_nls.failed": "count",
    "fitting.fit_nls.iterations": "count",
    "fitting.fit_nls.accept_ratio": "ratio",
    "fitting.goodness_of_fit.ms": "ms",
    "ablation.run_ablation.ms": "ms",
    "ablation.run_ablation.masks_failed": "count",
    "ablation.fit_slice.ms": "ms",
    "advisor.SearchSpace.configs.ms": "ms",
    "advisor.sweep.ms": "ms",
    "advisor.sweep.points": "count",
    "advisor.sweep.extrapolated": "count",
    "model.predict.calls": "count",
    "model.predict.ms": "ms",
    "advisor.evals_per_point": "ratio",
    "advisor.pareto_frontier.ms": "ms",
    "advisor.pareto_frontier.points": "count",
    "advisor.min_cost_config.ms": "ms",
    "advisor.min_cost_config.infeasible": "count",
    "dataset.generate_synthetic.ms": "ms",
    "dataset.generate_synthetic.records": "count",
    "dataset.generate_synthetic.clamped_rows": "count",
    "dataset.dataset_to_csv.ms": "ms",
    "dataset.dataset_to_jsonl.ms": "ms",
    "dataset.write_csv.ms": "ms",
    "dataset.write_jsonl.ms": "ms",
    "dataset.bytes_written": "bytes",
    "dataset.ExperimentDataset.fingerprint.ms": "ms",
    "presets.load_registry.ms": "ms",
    "presets.load_params_file.ms": "ms",
    "presets.params_to_text.ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.beff.wall_ms": "ms",
    "cli.predict.wall_ms": "ms",
    "cli.synth.wall_ms": "ms",
    "cli.fit.wall_ms": "ms",
    "cli.ablate.wall_ms": "ms",
    "cli.advise.wall_ms": "ms",
    "cli.plotdata.wall_ms": "ms",
    "cli.main.ms": "ms",
    "trace.overhead_pct": "%",
}
#: Counted per traced op and averaged, since their median over ops is 0.
RARE_EVENTS = ("fitting.fit_nls.failed", "ablation.run_ablation.masks_failed",
               "advisor.min_cost_config.infeasible")
CLI_SUBCOMMANDS = ("beff", "predict", "synth", "fit", "ablate", "advise", "plotdata")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed op wall time to accumulate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with 10 samples beyond it.

    With fewer than ``2 * TAIL_BEYOND`` samples that percentile would lie below
    the median (with 11 samples it is the minimum), so the maximum (percentile
    100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND          # 1-based rank with TAIL_BEYOND samples above it
    return ordered[rank - 1], 100.0 * rank / n, n


def upper_quartile(values: list[float]) -> float:
    """The 75th percentile, interpolated between samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


#: Input of the reference computation: fixed, so it is the same for every seed.
_REFERENCE_CSV = "\n".join(
    f"{i % 7},{1e8 * (1 + i % 13):.6g},{2 + i % 4},{8 << i % 4},{32 << i % 3},"
    f"{0.25 + (i % 97) / 400:.6f}"
    for i in range(2000)
)


def reference_cpu() -> float:
    """CPU seconds of a fixed computation that shares no code with ptqlaw.

    It mixes what the ops do: CSV parsing into floats, grouping in dicts,
    a small numpy solve and an interpreted loop, about 15 ms in all. An op's
    CPU time over the reference's, timed next to it, is the op's cost in
    reference units: it follows changes to ptqlaw, but not the host's
    stretches of running everything faster or slower.
    """
    import numpy as np

    started = time.process_time()
    groups: dict = {}
    for row in csv.reader(io.StringIO(_REFERENCE_CSV)):
        group = groups.setdefault((row[0], int(row[2])), [0.0, 0])
        group[0] += float(row[5]) * math.log(float(row[1]))
        group[1] += 1
    means = np.array([total / count for total, count in groups.values()])
    np.linalg.lstsq(np.vander(means, 4), means, rcond=None)
    checksum = 0
    for i in range(80_000):
        checksum += i * i % 7
    return time.process_time() - started


def reference_samples(cpu_s: float) -> list[float]:
    """Run the reference until it has taken ``REFERENCE_SHARE * cpu_s`` (once at least)."""
    samples = [reference_cpu()]
    while sum(samples) < REFERENCE_SHARE * cpu_s:
        samples.append(reference_cpu())
    return samples


class OpRecord(NamedTuple):
    wall_s: float
    cpu_s: float
    ref: float        # cpu_s over the median reference CPU time around the op
    ok: bool
    traced: bool


def cpu_seconds() -> float:
    """User plus system CPU of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# ---------------------------------------------------------------------------
# run metadata


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------------------
# the run


class Run:
    def __init__(self, args):
        import numpy

        self.args = args
        self.numpy_version = numpy.__version__
        self.inputs = inputs.make_inputs(args.workload, args.seed)
        self.digest = self.inputs.digest()
        self.work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.failures: list[str] = []
        self.peak_child_kib = 0   # cli: the largest session child's peak RSS
        self.rejected_fits = 0    # fit: fits ptqlaw refused, each checked as due
        self.warmup_item = self.inputs.warmup or self.inputs.items[0]

    # -- preparation ------------------------------------------------------

    def write_inputs(self):
        self.work.mkdir(parents=True)
        paths, jsonl_paths = [], []
        for index, spec in enumerate(self.inputs.datasets):
            path = self.work / f"data-{index:02d}.csv"
            path.write_text(spec.csv_text, encoding="utf-8")
            paths.append(str(path))
            if self.args.workload == "cli":
                path = self.work / f"data-{index:02d}.jsonl"
                path.write_text(spec.jsonl_text, encoding="utf-8")
                jsonl_paths.append(str(path))
        return paths, jsonl_paths

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def measure_setup(self, ops, ctx) -> list[dict]:
        """Set-up stage times from ``SETUP_REPS`` fresh interpreters."""
        spec_file = self.work / "setup.json"
        spec_file.write_text(json.dumps({
            "src": str(SRC), "work": str(self.work), "paths": ctx.paths,
            "jsonl_paths": ctx.jsonl_paths, "item": self.warmup_item,
        }), encoding="utf-8")
        # compile bytecode once so every timed probe starts from the same state
        ops.run_process(ctx, "compile", ["-c", "import ptqlaw, ptqlaw.cli"])
        probes = []
        for _ in range(SETUP_REPS):
            result = ops.run_process(ctx, "setup", [
                str(BENCH / "setup_probe.py"), self.args.workload, str(spec_file)])
            if result.code:
                raise RuntimeError(f"set-up probe failed: {result.stderr.strip()}")
            probes.append(json.loads(result.stdout.splitlines()[-1]))
        return probes

    # -- checking ---------------------------------------------------------

    def check(self, checks, item, out, error) -> list[str]:
        """Failure messages for one op."""
        workload = self.args.workload
        if error is not None:
            return [f"{type(error).__name__}: {error}"]
        presets = self.inputs.presets
        if workload == "fit":
            spec = self.inputs.datasets[item["dataset"]]
            self.rejected_fits += checks.rejected_fits(out)
            errors = checks.check_fit(spec, out, presets)
            if spec.name == inputs.FIXTURE_CSV.name:
                errors += checks.check_ablation_golden(out["ablation"])
                errors += checks.check_noisy_fit_golden()
            return errors
        if workload == "advise":
            return checks.check_advise(item, out, presets, self.samples)
        if workload == "synth":
            return checks.check_synth(out)
        return checks.check_cli(item, out, self.inputs.datasets, presets,
                                self.work / "session")

    # -- main loop --------------------------------------------------------

    def execute(self) -> dict:
        args = self.args
        paths, jsonl_paths = self.write_inputs()
        sys.path.insert(0, str(SRC))
        import ops

        ctx = ops.Context(work=self.work, paths=paths, jsonl_paths=jsonl_paths,
                          env=self.child_env())
        probes = self.measure_setup(ops, ctx)

        import checks
        import numpy as np
        import ptqlaw

        if args.workload == "cli":
            import ptqlaw.cli  # noqa: F401  (bound before the tracer installs)
        self.samples = np.random.default_rng([args.seed, 7]).integers(0, 1 << 30, 64)
        registry = ptqlaw.load_registry()
        for name, entry in self.inputs.presets.items():
            params = checks.params_dict(registry.get(name))
            if any(params[k] != entry[k] for k in ("c", "alpha", "beta", "gamma", "delta")):
                self.failures.append(f"registry constants for {name} differ from presets.txt")

        tracer = None
        if args.trace:
            import tracer as tracer_module

            tracer = tracer_module.Tracer()
        op_fn = ops.OPS[args.workload]
        items = self.inputs.items

        # warm-up: fill caches and finish lazy set-up before timing
        _, _, out, error = self.timed_op(op_fn, ctx, self.warmup_item)
        self.failures.extend(self.check(checks, self.warmup_item, out, error)[:5])
        self.rejected_fits = 0

        records: list[OpRecord] = []
        reference = reference_samples(0.0)   # refreshed after every op
        layer_ops = []
        timed = 0.0
        started = time.perf_counter()
        limit = max(3 * args.seconds, args.seconds + 30)
        op_index = 0
        # a traced run always finishes its untraced/traced pair
        while (timed < args.seconds or (tracer and op_index % 2)) and \
                time.perf_counter() - started < limit:
            # a traced run times each item untraced, then traced
            step = op_index // 2 if tracer else op_index
            item = items[(step + 1) % len(items)]
            traced = bool(tracer) and op_index % 2 == 1
            if traced:
                tracer.install()
                tracer.begin_op(op_index)
            seconds, cpu, out, error = self.timed_op(op_fn, ctx, item)
            before, reference = reference, reference_samples(cpu)
            if traced:
                tracer.end_op()
                totals = tracer.op_totals(op_index)
                if args.workload == "cli":
                    totals.update(self.cli_layers(ops, ctx, item, out, tracer, op_index))
                tracer.remove()
            errors = self.check(checks, item, out, error)
            failed = bool(errors)
            self.failures.extend(errors[:5])
            if traced:
                layer_ops.append((self.derive_layers(totals, item), not failed))
            if args.workload == "cli" and out:
                self.peak_child_kib = max([self.peak_child_kib] + [r.maxrss_kib for r in out])
            records.append(OpRecord(seconds, cpu, cpu / statistics.median(before + reference),
                                    not failed, traced))
            timed += seconds
            op_index += 1
        if tracer is not None:
            out_dir = BENCH / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        return self.summarise(probes, records, layer_ops, timed)

    def timed_op(self, op_fn, ctx, item):
        import ptqlaw

        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        out = error = None
        try:
            out = op_fn(ctx, item)
        except ptqlaw.PtqLawError as exc:
            error = exc
        t1 = time.perf_counter()
        return t1 - t0, cpu_seconds() - cpu0, out, error

    # -- per-layer values -------------------------------------------------

    def cli_layers(self, ops, ctx, item, results, tracer, op_index) -> dict:
        """Start-up probes and the in-process session, for one traced cli op."""
        values = {f"cli.{sub}.wall_ms": 0.0 for sub in CLI_SUBCOMMANDS}
        for result in results:
            values[f"cli.{result.sub}.wall_ms"] += result.wall_s * 1e3
        values["cli.interpreter_ms"] = ops.run_process(ctx, "python", ["-c", "pass"]).wall_s * 1e3
        values["cli.import_ms"] = ops.run_process(
            ctx, "import", ["-c", "import ptqlaw"]).wall_s * 1e3
        tracer.begin_op(-1 - op_index)
        codes = ops.cli_in_process(ctx, item)
        tracer.end_op()
        if any(codes):
            self.failures.append(f"in-process cli exit codes {codes}")
        values.update(tracer.op_totals(-1 - op_index))
        return values

    def derive_layers(self, totals: dict, item: dict) -> dict:
        values = dict(totals)
        iterations = totals.get("fitting.fit_nls.iterations", 0)
        values["fitting.fit_nls.accept_ratio"] = (
            totals.get("fitting.fit_nls.accepted", 0) / iterations if iterations else 0.0)
        # a fit fails when FitProblem rejects its observations or fit_nls raises
        values["fitting.fit_nls.failed"] = (totals.get("fitting.FitProblem.failed", 0)
                                            + totals.get("fitting.fit_nls.failed", 0))
        values["dataset.bytes_written"] = (totals.get("dataset.write_csv.bytes_written", 0)
                                           + totals.get("dataset.write_jsonl.bytes_written", 0))
        if self.args.workload == "advise":
            axes = item["axes"]
            points = len(axes["n"]) * len(axes["w"]) * len(axes["c_b"]) * len(axes["g"])
            values["advisor.evals_per_point"] = (
                totals.get("model.predict.calls", 0) / (points * len(item["targets"])))
        return values

    # -- summary ----------------------------------------------------------

    def summarise(self, probes, records, layer_ops, timed) -> dict:
        args = self.args
        attempted = len(records)
        plain = [r for r in records if r.ok and not r.traced] or records
        ok_ref = [r.ref for r in plain]
        ok_cpu = [r.cpu_s for r in plain]
        successes = sum(1 for r in records if r.ok)
        tail_value, tail_pct, tail_n = tail(ok_ref)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "input_digest": self.digest,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": self.numpy_version,
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed, 1 client, 1 op at a time",
            "ops_attempted": attempted,
            "ops_succeeded": successes,
            "error_rate": (attempted - successes) / attempted,
            "op_ref_tail": {"percentile": round(tail_pct, 2), "samples": tail_n},
            "op_ref_p50": statistics.median(ok_ref),
            "cpu": {
                "op_p50_ms": statistics.median(ok_cpu) * 1e3,
                "op_p75_ms": upper_quartile(ok_cpu) * 1e3,
                "ms_per_op": sum(r.cpu_s for r in records) / max(successes, 1) * 1e3,
                "reference_ms": statistics.median(r.cpu_s / r.ref for r in plain if r.ref) * 1e3,
            },
            "wall": {
                "ops_per_s": successes / timed,
                "op_p50_ms": statistics.median(r.wall_s for r in plain) * 1e3,
                "setup_s": statistics.median(p["wall_s"] for p in probes),
            },
            "rejected_fits": self.rejected_fits,
            "setup_probes": probes,
            "failed_checks": self.failures[:20],
        }
        if args.trace:
            metrics = self.layer_metrics(probes, records, layer_ops)
            units = PER_LAYER
        else:
            if args.workload == "cli":
                peak_kib = self.peak_child_kib
            else:
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "setup_s": statistics.median(p["cpu_s"] for p in probes),
                "op_ref_p75": upper_quartile(ok_ref),
                "op_ref_tail": tail_value,
                "success_rate": successes / attempted,
                "peak_rss_mib": peak_kib / 1024.0,
            }
            units = END_TO_END
        return {
            "meta": meta,
            "correct": not self.failures,
            "attempted": attempted,
            "failed": attempted - successes,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }

    def layer_metrics(self, probes, records, layer_ops) -> dict:
        import tracer as tracer_module

        succeeded = [values for values, ok in layer_ops if ok]
        every = [values for values, _ in layer_ops]
        metrics = {name: tracer_module.median_over_ops(succeeded, name) for name in PER_LAYER}
        for name in RARE_EVENTS:
            metrics[name] = statistics.fmean(v.get(name, 0) for v in every) if every else 0.0
        metrics["presets.load_registry.ms"] = statistics.median(
            p["registry_s"] for p in probes) * 1e3
        traced = [r.ref for r in records if r.ok and r.traced]
        plain = [r.ref for r in records if r.ok and not r.traced]
        metrics["trace.overhead_pct"] = (
            (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
            if traced and plain else 0.0)
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ptqlaw" / "__init__.py").is_file():
        print(f"error: no ptqlaw package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    run = Run(args)
    try:
        result = run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    meta = result.pop("meta")
    for line in meta["failed_checks"]:
        print(f"check failed: {line}", file=sys.stderr)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:42} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
