#!/usr/bin/env python3
"""KG benchmark: build and graph workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the repository root.  One driver process issues each operation of
the workload only after the previous one finished (a closed loop, one
client) for ``--seconds``, then checks every output against an independent
reference and prints one line per metric followed by a JSON result line.
With ``--trace 1`` it instead reports the per-layer split of a traced
operation and writes the spans under ``.bench_work/spans/``.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(1, ROOT)
# Ray workers import the package too; they inherit this environment
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

# One CPU, the `nproc` of the box the bounds were set on.  Fixed, so the
# figures and the run time do not depend on the host's core count.
NUM_CPUS = 1
# set-ups per run; setup_s is their median
SETUPS = 2
OBJECT_STORE_BYTES = 512 << 20
# Ray's sockets live under <temp>/session_<time>_<pid>/sockets/<name>, and
# an AF_UNIX path holds at most 107 bytes
_SOCKET_SUFFIX = 72
PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned_digests.json")

END_TO_END = {
    "setup_s": "s",
    "input_rows_per_s": "rows/s",
    "op_p50_s": "s",
    "driver_peak_rss_mb": "MB",
}
PER_LAYER = {
    "nlp.parser.self_s": "s",
    "nlp.sdp.self_s": "s",
    "state.scorer.self_s": "s",
    "oracle.rows_per_s": "rows/s",
    "pipelines.kg.sentences_s": "s",
    "pipelines.kg.vocab_s": "s",
    "pipelines.kg.extract_score_s": "s",
    "pipelines.kg.canon_s": "s",
    "pipelines.kg.entities_s": "s",
    "pipelines.kg.adjacency_s": "s",
    "pipelines.kg.merge_s": "s",
    "sink.write_s": "s",
    "pipelines.kg.plumbing_s": "s",
    "pipelines.kg.candidates": "count",
    "pipelines.kg.good_ratio": "ratio",
    "pipelines.kg.triples": "count",
    "pipelines.kg.edges": "count",
    "pipelines.kg.combine_ratio": "ratio",
    "pipelines.kg.merged_rows": "count",
    "state.linker.link_s": "s",
    "state.linker.linked_ratio": "ratio",
    "functions.graph.pagerank_s": "s",
    "functions.graph.bfs_hops_s": "s",
    "functions.graph.component_size_hist_s": "s",
    "functions.components.rounds": "count",
    "functions.components.round_wall_s": "s",
    "ray.data.ops": "count",
    "ray.data.blocks": "count",
    "ray.data.op_wall_s": "s",
    "objstore.spilled_mb": "MB",
    "trace.overhead_s": "s",
}
# what each workload's input rows and op are, for the report
ALIASES = {
    "build": {"input_rows_per_s": "build_docs_per_s", "op_p50_s": "build_p50_s"},
    "graph": {"input_rows_per_s": "canon_triples_per_s", "op_p50_s": "graph_pass_p50_s"},
}


def _ray_temp_dir(work: str) -> tuple[str, bool]:
    """Ray's temp dir inside the work dir when its socket paths fit, else a
    short system temp dir (removed at exit); the flag says which."""
    inside = os.path.join(work, "ray")
    if len(inside) + _SOCKET_SUFFIX <= 107:
        return inside, False
    return tempfile.mkdtemp(prefix="kgb"), True


def _start_ray(temp_dir: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=temp_dir,
    )
    DataContext.get_current().enable_progress_bars = False


def _stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    if not ray.is_initialized():
        return
    import psutil  # ships with ray

    started = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(started, timeout=20)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=10)


def _spilled_mb(temp_dir: str) -> float:
    """Bytes of spilled-object files in this run's Ray session dir."""
    total = 0
    for sess in glob.glob(os.path.join(temp_dir, "session_*")):
        for f in glob.glob(os.path.join(sess, "**", "*"), recursive=True):
            if "spill" in os.path.basename(os.path.dirname(f)).lower() and os.path.isfile(f):
                total += os.path.getsize(f)
    return total / 1e6


def _timed_loop(wl, seconds: float) -> list[dict]:
    """Closed loop: the next op starts when the previous one has finished,
    until ``seconds`` have passed (at least one op)."""
    ops: list[dict] = []
    t_start = time.perf_counter()
    while not ops or time.perf_counter() - t_start < seconds:
        i = len(ops)
        try:
            ops.append(wl.op(i))
        except Exception as e:  # an op that raises counts as failed; the loop goes on
            traceback.print_exc()
            ops.append({"i": i, "error": repr(e)})
    return ops


def _tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 11:
        return f"n/a (needs 11 ops, ran {n})"
    k = n - 10
    return f"{sorted(walls)[k - 1]:.4f} s at p{100 * k / n:.1f} of {n} ops"


def _per_layer(wl, tracer, traced: dict, untraced: list[dict], spilled: float) -> dict:
    from workloads import parse_stats

    walls = tracer.walls()
    selfs = tracer.self_times()
    w = lambda name: walls.get(name, 0.0)  # noqa: E731
    ops = parse_stats(list(wl.stats.values()))
    adjacency_ops = parse_stats([wl.stats.get("pipelines.kg.adjacency", "")])
    partial_rows = [o["rows_out"] for o in adjacency_ops if o["name"] == "MapBatches(partial)"]
    triples = traced.get("triples", 0)
    stage_wall = sum(
        w(n)
        for n in (
            "pipelines.kg.sentences", "pipelines.kg.vocab", "pipelines.kg.extract_score",
            "pipelines.kg.entities", "pipelines.kg.adjacency", "sink.write",
            "state.linker.link_triples",
        )
    )
    kernel = sum(selfs.get(n, 0.0) for n in ("nlp.parser", "nlp.sdp", "state.scorer", "state.linker"))
    oracle_span = next((s for s in tracer.spans if s["name"] == "oracle"), None)
    rounds = traced.get("rounds", [])
    return {
        "nlp.parser.self_s": selfs.get("nlp.parser", 0.0),
        "nlp.sdp.self_s": selfs.get("nlp.sdp", 0.0),
        "state.scorer.self_s": selfs.get("state.scorer", 0.0),
        "oracle.rows_per_s": oracle_span["attrs"]["rows"] / (oracle_span["end"] - oracle_span["start"])
        if oracle_span else 0.0,
        "pipelines.kg.sentences_s": w("pipelines.kg.sentences"),
        "pipelines.kg.vocab_s": w("pipelines.kg.vocab"),
        "pipelines.kg.extract_score_s": w("pipelines.kg.extract_score"),
        "pipelines.kg.canon_s": w("pipelines.kg.entities") + w("pipelines.kg.adjacency"),
        "pipelines.kg.entities_s": w("pipelines.kg.entities"),
        "pipelines.kg.adjacency_s": w("pipelines.kg.adjacency"),
        "pipelines.kg.merge_s": w("pipelines.kg.merge"),
        "sink.write_s": w("sink.write"),
        "pipelines.kg.plumbing_s": stage_wall - kernel,
        "pipelines.kg.candidates": traced.get("candidates", 0),
        "pipelines.kg.good_ratio": traced["good"] / traced["candidates"] if traced.get("candidates") else 0.0,
        "pipelines.kg.triples": triples,
        "pipelines.kg.edges": traced.get("edges", 0),
        "pipelines.kg.combine_ratio": partial_rows[-1] / triples if partial_rows and triples else 0.0,
        "pipelines.kg.merged_rows": traced.get("merged_rows", 0),
        "state.linker.link_s": w("state.linker.link_triples"),
        "state.linker.linked_ratio": traced.get("linked_ratio", 0.0),
        "functions.graph.pagerank_s": w("functions.graph.pagerank"),
        "functions.graph.bfs_hops_s": w("functions.graph.bfs_hops"),
        "functions.graph.component_size_hist_s": w("functions.graph.component_size_hist"),
        "functions.components.rounds": len(rounds),
        "functions.components.round_wall_s": sum(r["wall_s"] for r in rounds),
        "ray.data.ops": len(ops),
        "ray.data.blocks": sum(o["blocks"] for o in ops),
        "ray.data.op_wall_s": sum(o["wall_s"] for o in ops),
        "objstore.spilled_mb": spilled,
        "trace.overhead_s": traced["wall"] - statistics.median(o["wall"] for o in untraced)
        if "wall" in traced and untraced else 0.0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["build", "graph"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # the program under test; without it the benchmark stops here
    import reference
    from tracing import Tracer
    from workloads import WORKLOADS, parse_stats

    bench_dir = os.path.join(ROOT, ".bench_work")
    work = os.path.join(bench_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](work, args.seed, NUM_CPUS, tracer)
    temp_dir, temp_outside = _ray_temp_dir(work)
    phases: dict[str, float] = {}
    clock = [time.perf_counter()]

    def phase(name: str) -> None:
        now = time.perf_counter()
        phases[name] = phases.get(name, 0.0) + now - clock[0]
        clock[0] = now

    try:
        wl.write_inputs()
        phase("inputs")
        setups: list[float] = []
        for k in range(1 if args.trace else SETUPS):
            if k:
                _stop_ray()
                phase("stop")
            t0 = time.perf_counter()
            _start_ray(temp_dir)
            wl.cold()
            setups.append(time.perf_counter() - t0)
            phase("setup")
        wl.prepare()
        phase("prepare")
        ops = _timed_loop(wl, args.seconds)
        phase("loop")
        traced = None
        if args.trace:
            try:
                traced = wl.traced_op(len(ops))
            except Exception as e:  # counts as a failed op, like the loop's
                traceback.print_exc()
                traced = {"i": len(ops), "error": repr(e)}
            phase("traced")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spilled = _spilled_mb(temp_dir)
        _stop_ray()
        phase("stop")

        good = [o for o in ops if "error" not in o]
        checked = good + ([traced] if traced and "error" not in traced else [])
        try:
            with tracer.span("reference"):
                ref = reference.compute(wl.reference_job(os.path.join(work, "ref")))
                tracer.graft(ref["spans"])
            oks = wl.check(checked, os.path.join(work, "ref"))
        except Exception:
            traceback.print_exc()
            ref, oks = {"digest": None}, [False] * len(checked)
        phase("check")
        with open(PINNED) as f:
            pinned = json.load(f)[args.workload].get(str(args.seed))
        digest_ok = pinned is None or pinned == ref["digest"]
        attempted = len(ops) + (1 if traced else 0)
        failed = attempted - sum(oks)

        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} cpus={NUM_CPUS} run_id={run_id}")
        print("phases: " + ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()))
        print(f"ops: {attempted} attempted, {failed} failed, failed_ratio = {failed / attempted:.4f}")
        print(f"output check vs reference: {sum(oks)}/{len(checked)} ops equal; digest {ref['digest']} "
              + ("(seed not pinned)" if pinned is None else "matches pin" if digest_ok else f"!= pinned {pinned}"))
        if args.trace:
            metrics = _per_layer(wl, tracer, traced or {}, good, spilled)
            units = PER_LAYER
            os.makedirs(os.path.join(bench_dir, "spans"), exist_ok=True)
            spans_path = os.path.join(bench_dir, "spans", f"{run_id}.json")
            tracer.dump(spans_path, ray_data_ops=parse_stats(list(wl.stats.values())), metrics=metrics)
            print(f"spans: {spans_path}")
        else:
            walls = [o["wall"] for o in good]
            metrics = {
                "setup_s": statistics.median(setups),
                "input_rows_per_s": statistics.median(o["rows"] / o["rate_wall"] for o in good) if good else 0.0,
                "op_p50_s": statistics.median(walls) if walls else 0.0,
                "driver_peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END
            print(f"set-ups: {', '.join(f'{x:.3f}' for x in setups)} s; op walls: "
                  + ", ".join(f"{x:.3f}" for x in walls) + " s")
            print(f"op_tail_s = {_tail(walls)}")
        for name, value in metrics.items():
            alias = ALIASES[args.workload].get(name)
            print(f"{name} = {value:.6g} {units[name]}" + (f"  ({alias})" if alias and not args.trace else ""))
        result = {
            "correct": failed == 0 and digest_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        _stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        if temp_outside:
            shutil.rmtree(temp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
