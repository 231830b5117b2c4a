"""Smoke test of the benchmark: one short run of each workload, in both modes.

Usage: ``python3 bench/selftest.py`` from the repository root. Each run must
exit 0, report ``correct``, attempt at least one op, and print exactly the
metrics ``BENCHMARK.json`` declares for its mode, with the declared units.
It also checks that the input digest depends on the seed and only on it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            before = len(problems)
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed) ^ set(expected[trace]))}")
            print(f"{label}: {'ok' if len(problems) == before else 'FAILED'}")
    for workload in ("fit", "advise", "synth", "cli"):
        first, again = (inputs.make_inputs(workload, 5).digest() for _ in range(2))
        if first != again or first == inputs.make_inputs(workload, 6).digest():
            problems.append(f"{workload}: input digest is not a function of the seed")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
