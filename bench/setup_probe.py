"""Time set-up in a fresh process: ``import ptqlaw``, ``load_registry()`` and one op.

Usage: ``python bench/setup_probe.py <workload> <context.json>``. Prints one
JSON line with the stage times in seconds: CPU time per stage and in total
(``cpu_s``), and the total wall time (``wall_s``). Nothing but the stdlib is
loaded before the clocks start, so numpy's import counts when ptqlaw triggers
it.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    workload, context_file = sys.argv[1], sys.argv[2]
    spec = json.loads(Path(context_file).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])

    wall_started = time.perf_counter()
    started = time.process_time()
    import ptqlaw

    imported = time.process_time()
    ptqlaw.load_registry()
    registry_loaded = time.process_time()

    import ops

    ctx = ops.Context(work=Path(spec["work"]), paths=spec["paths"],
                      jsonl_paths=spec["jsonl_paths"])
    ops.setup_op(workload, ctx, spec["item"])
    finished = time.process_time()
    print(json.dumps({
        "import_s": imported - started,
        "registry_s": registry_loaded - imported,
        "op_s": finished - registry_loaded,
        "cpu_s": finished - started,
        "wall_s": time.perf_counter() - wall_started,
    }))


if __name__ == "__main__":
    main()
