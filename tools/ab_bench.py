"""Interleaved A/B runs of the gated benchmark: a base revision against
the working tree.

    python tools/ab_bench.py --base <rev> --workload build --seeds 1-10

The base revision is checked out into a temporary ``git worktree`` (or
taken from ``--base-dir``, an existing checkout), and ``perfbench/run.py``
runs once per seed on each side, alternating which side runs first.  For
every end-to-end metric declared in ``BENCHMARK.json`` the summary gives
both medians, the change in %, how many seed pairs the change won and the
base runs' interquartile range; a run with ``failed`` > 0 or ``correct:
false`` is flagged.  The worktree is removed afterwards; nothing under
``perfbench/`` is written except its own ``.bench_work/`` scratch.

Run it from the repository root with nothing else running: the benchmark
is a one-CPU closed loop, so any other load on the host shows up as noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(spec: str) -> list[int]:
    """``"1-10"`` → [1, …, 10]; ``"1,4,7"`` → [1, 4, 7]."""
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_run(stdout: str) -> dict:
    """The JSON result line ``perfbench/run.py`` prints last."""
    for line in reversed(stdout.splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the run's output")


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> dict:
    """Per-metric comparison of (seed, base result, change result) pairs.

    A pair counts as a win when the change's value is better in the
    metric's declared direction; ``beats_iqr`` says whether the median
    moved the right way by more than the base runs' interquartile range.
    ``flagged`` lists every run with failed ops or ``correct`` false."""
    rows = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        got = [
            (b["metrics"][name]["value"], c["metrics"][name]["value"])
            for _, b, c in pairs
            if name in b.get("metrics", {}) and name in c.get("metrics", {})
        ]
        if not got:
            continue
        base = [b for b, _ in got]
        change = [c for _, c in got]
        mb, mc = statistics.median(base), statistics.median(change)
        q1, q3 = _quartiles(base)
        gain = (mc - mb) if higher else (mb - mc)
        rows.append(
            {
                "metric": name,
                "unit": m.get("unit", ""),
                "better": m["better"],
                "base_median": mb,
                "change_median": mc,
                "change_pct": 100.0 * (mc - mb) / mb if mb else float("nan"),
                "wins": sum(1 for b, c in got if (c > b if higher else c < b)),
                "pairs": len(got),
                "base_iqr": q3 - q1,
                "beats_iqr": gain > q3 - q1,
            }
        )
    flagged = [
        {"side": side, "seed": seed, "failed": r.get("failed"), "correct": r.get("correct")}
        for seed, b, c in pairs
        for side, r in (("base", b), ("change", c))
        if r.get("failed", 0) > 0 or r.get("correct") is False
    ]
    return {"metrics": rows, "flagged": flagged}


def format_summary(summary: dict) -> str:
    lines = [
        f"{'metric':<20} {'base':>12} {'change':>12} {'Δ%':>8} {'wins':>7} {'base IQR':>10}  beats IQR"
    ]
    for r in summary["metrics"]:
        lines.append(
            f"{r['metric']:<20} {r['base_median']:>12.4g} {r['change_median']:>12.4g} "
            f"{r['change_pct']:>+8.1f} {r['wins']:>3}/{r['pairs']:<3} {r['base_iqr']:>10.4g}  "
            f"{'yes' if r['beats_iqr'] else 'no'}"
        )
    for f in summary["flagged"]:
        lines.append(
            f"FLAG {f['side']} seed {f['seed']}: failed={f['failed']} correct={f['correct']}"
        )
    return "\n".join(lines)


def _run(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0 and "{" not in proc.stdout:
        raise RuntimeError(f"{root}: seed {seed} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return parse_run(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision to compare against")
    ap.add_argument("--base-dir", help="an existing checkout of the base instead of a worktree")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    if (args.base is None) == (args.base_dir is None):
        ap.error("give exactly one of --base and --base-dir")

    tmp = None
    base_dir = args.base_dir
    if base_dir is None:
        tmp = tempfile.mkdtemp(prefix="ab_bench_")
        base_dir = os.path.join(tmp, "base")
        subprocess.run(
            ["git", "worktree", "add", "--detach", base_dir, args.base],
            cwd=ROOT, check=True, capture_output=True,
        )
    pairs = []
    try:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = [("base", base_dir), ("change", ROOT)]
            if i % 2:
                order.reverse()
            res = {side: _run(root, args.workload, seed, args.seconds) for side, root in order}
            pairs.append((seed, res["base"], res["change"]))
            print(
                json.dumps({"seed": seed, "first": order[0][0], "base": res["base"], "change": res["change"]}),
                flush=True,
            )
    finally:
        if tmp is not None:
            subprocess.run(["git", "worktree", "remove", "--force", base_dir], cwd=ROOT, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
            shutil.rmtree(tmp, ignore_errors=True)
    print(format_summary(summarize(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
