"""Count the Ray Data executions of a benchmark workload's warm ops.

    python tools/count_executions.py --workload graph --seed 1 --ops 2

Run from the repository root.  The workload class of
``perfbench/workloads.py`` is driven read-only, the way
``perfbench/run.py`` drives it (inputs, set-up, warm-up, then ``op(i)``
``--ops`` times) in a one-CPU Ray session, with
``StreamingExecutor.execute`` wrapped: every Ray Data execution an op
starts is recorded with its physical plan, its wall (from ``execute``
to the executor's shutdown) and the innermost calling frame outside
Ray.  The report lists each op's executions with the number of
physical operators in each plan, and ends with the operator and
execution counts per warm op, so a dropped operator shows as a number.
``--log FILE`` also writes the records as JSON lines; ``--summarize
FILE`` prints the report of such a log without running anything.  Work
files go under ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def operators(plan: str) -> int:
    """Physical operators in a recorded plan string: Ray Data prints each
    as ``Class[name]``, joined by ``" -> "`` along a chain and by ``", "``
    between the inputs of a multi-input operator (a fused map is ONE
    operator, ``MapBatches(a)->MapBatches(b)`` inside its brackets)."""
    return len(re.findall(r"(?:^|, | -> )\w+\[", plan))


def _spread(counts: list) -> dict:
    return {
        "median": statistics.median(counts) if counts else 0,
        "min": min(counts, default=0),
        "max": max(counts, default=0),
    }


def summarize(records: list[dict]) -> dict:
    """Per-op execution counts, physical operator counts (per plan and
    in total) and walls of ``records`` (one dict per execution: ``op``,
    ``plan``, ``wall_s``, ``frame``), plus the median, min and max of the
    execution and operator counts per op."""
    ops: dict[int, dict] = {}
    for r in records:
        o = ops.setdefault(
            r["op"], {"op": r["op"], "executions": 0, "plan_operators": [], "operators": 0, "wall_s": 0.0}
        )
        o["executions"] += 1
        o["plan_operators"].append(operators(r["plan"]))
        o["operators"] += o["plan_operators"][-1]
        o["wall_s"] += r["wall_s"] or 0.0
    per_op = [ops[k] for k in sorted(ops)]
    return {
        "ops": per_op,
        "executions_per_op": _spread([o["executions"] for o in per_op]),
        "operators_per_op": _spread([o["operators"] for o in per_op]),
    }


def report(records: list[dict]) -> str:
    """The printed report: each execution of each op, then the summary."""
    lines = []
    for op in sorted({r["op"] for r in records}):
        lines.append(f"op {op}:")
        for k, r in enumerate(x for x in records if x["op"] == op):
            wall = "   ?  " if r["wall_s"] is None else f"{r['wall_s']:6.3f}"
            lines.append(f"  {k + 1:2d}  {wall} s  {operators(r['plan']):2d} ops  {r['plan']}")
            lines.append(f"              at {r['frame']}")
    s = summarize(records)
    for o in s["ops"]:
        lines.append(
            f"op {o['op']}: {o['executions']} executions, {o['wall_s']:.3f} s executing, "
            f"{o['operators']} operators"
        )
    for what in ("operators", "executions"):
        e = s[f"{what}_per_op"]
        lines.append(f"{what} per warm op: median {e['median']}, min {e['min']}, max {e['max']}")
    return "\n".join(lines)


def _caller() -> str:
    """The innermost stack frame outside Ray and this file."""
    ray_dir, here = _ray_file(), os.path.abspath(__file__)
    for f in reversed(traceback.extract_stack()):
        path = os.path.abspath(f.filename)
        if not path.startswith(ray_dir) and path != here:
            return f"{os.path.relpath(path, ROOT)}:{f.lineno} {f.name}"
    return "?"


def _ray_file() -> str:
    import ray

    return os.path.dirname(ray.__file__)


def _record(records: list[dict], current_op: list) -> None:
    """Wrap ``StreamingExecutor.execute`` (and ``shutdown``, for the
    wall) so every execution appends one record to ``records``."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    execute, shutdown = StreamingExecutor.execute, StreamingExecutor.shutdown
    pending: dict[int, tuple[dict, float]] = {}

    def counted_execute(self, dag, initial_stats=None):
        rec = {"op": current_op[0], "plan": dag.dag_str, "wall_s": None, "frame": _caller()}
        if current_op[0] is not None:
            records.append(rec)
        pending[id(self)] = (rec, time.perf_counter())
        return execute(self, dag, initial_stats)

    def timed_shutdown(self, *args, **kwargs):
        got = pending.pop(id(self), None)
        if got is not None:
            got[0]["wall_s"] = time.perf_counter() - got[1]
        return shutdown(self, *args, **kwargs)

    StreamingExecutor.execute = counted_execute
    StreamingExecutor.shutdown = timed_shutdown


def run(workload: str, seed: int, n_ops: int) -> list[dict]:
    """Drive ``n_ops`` warm ops of ``workload`` and return the records."""
    sys.path.insert(0, PERFBENCH)
    sys.path.insert(1, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import ray
    from ray.data import DataContext

    from tracing import Tracer
    from workloads import WORKLOADS

    work = os.path.join(ROOT, ".bench_work", f"count-{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    records: list[dict] = []
    current_op: list = [None]
    wl = WORKLOADS[workload](work, seed, 1, Tracer(f"count-{workload}", enabled=False))
    try:
        wl.write_inputs()
        ray.init(
            address="local",
            num_cpus=1,
            object_store_memory=512 << 20,
            include_dashboard=False,
            log_to_driver=False,
            logging_level="ERROR",
        )
        DataContext.get_current().enable_progress_bars = False
        _record(records, current_op)
        wl.cold()
        wl.prepare()
        for i in range(n_ops):
            current_op[0] = i
            wl.op(i)
        current_op[0] = None
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    return records


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["build", "graph"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=2)
    ap.add_argument("--log", help="also write the records here as JSON lines")
    ap.add_argument("--summarize", help="print the report of a JSON-lines log and exit")
    args = ap.parse_args()
    if args.summarize:
        with open(args.summarize) as f:
            records = [json.loads(line) for line in f if line.strip()]
    elif args.workload:
        records = run(args.workload, args.seed, args.ops)
        if args.log:
            with open(args.log, "w") as f:
                f.writelines(json.dumps(r) + "\n" for r in records)
    else:
        ap.error("give --workload or --summarize")
    print(report(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
