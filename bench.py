#!/usr/bin/env python
"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1), printing ONE JSON line.

    python bench.py                # full suite at $RAY_GRAFT_CPUS (default 32)
    python bench.py --scaling      # same KG job at 8 vs 32 CPUs in fresh
                                   # processes -> throughput + efficiency
    python bench.py --kg-only --cpus 8   # internal: one fresh-process run

The headline metric is KG-construction throughput (docs/sec end-to-end:
parse -> SDP extract/encode -> score -> canonicalize -> adjacency) over the
synthetic interleaved corpus sized to the scale factor; the queries dict
adds per-operator wall times over the benchmark parquet tables.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# synthetic interleaved docs for the KG headline, scaled to the sf dir
KG_DOCS = {"sf0.001": 500, "sf0.01": 4000, "sf0.1": 40000}


def _kg_docs(sf_dir: str) -> int:
    return KG_DOCS.get(os.path.basename(sf_dir.rstrip("/")), 4000)


def _init(num_cpus: int) -> None:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def run_kg(
    sf_dir: str,
    num_cpus: int,
    n_docs: int | None = None,
    model_scale: int = 1,
    batch_size: int = 512,
) -> dict:
    """Headline: the ``build-kg`` job end-to-end (parse → vocab barrier →
    extract → score → adjacency), with workers writing the adjacency
    parquet; returns wall seconds + docs + triples + edges."""
    import glob
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    import ray.data as rd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.pipelines.kg import KGPipeline
    from relation_extraction_ray.sources.synth import documents_dataset

    n_docs = n_docs or _kg_docs(sf_dir)
    # fine-grained input blocks: each parse task needs several blocks to
    # balance; blocks can merge downstream but never split
    blocks = max(8, min(n_docs // 1000, num_cpus * 16))
    out_dir = tempfile.mkdtemp(prefix="kg_bench_adjacency_")
    t0 = time.perf_counter()
    pipe = KGPipeline(KGConfig(model_scale=model_scale), batch_size=batch_size)
    adjacency = pipe.run(documents_dataset(n_docs, override_num_blocks=blocks))["adjacency"]
    # streaming materialize: the edge count comes from the parquet footers
    # and the triple count (Σ weight) from a column-pruned re-read, so
    # nothing edge-sized reaches the driver
    adjacency.write_parquet(out_dir)
    edges = sum(pq.ParquetFile(f).metadata.num_rows for f in glob.glob(f"{out_dir}/*.parquet"))
    # Dataset.sum of an empty input is None, and an empty corpus may write
    # no fragment at all
    triples = int(rd.read_parquet(out_dir, columns=["weight"]).sum("weight")) if edges else 0
    wall = time.perf_counter() - t0
    shutil.rmtree(out_dir, ignore_errors=True)
    return {
        "wall_sec": wall,
        "docs": n_docs,
        "triples": triples,
        "edges": edges,
        "docs_per_sec": n_docs / wall,
        "triples_per_sec": triples / wall,
    }


def run_queries(sf_dir: str) -> dict[str, float]:
    """Per-operator wall times (consume each result fully)."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entrymod

    times: dict[str, float] = {}
    for name, fn in entrymod.queries().items():
        if name.startswith("kg_"):
            continue  # covered by the headline
        t0 = time.perf_counter()
        res = fn(sf_dir)
        if hasattr(res, "count"):
            res.count()
        times[name] = round(time.perf_counter() - t0, 3)
    return times


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--kg-only", action="store_true")
    ap.add_argument("--cpus", type=int, default=NUM_CPUS)
    ap.add_argument("--docs", type=int, default=None)
    ap.add_argument("--repeat", type=int, default=int(os.environ.get("GRAFT_SCALING_REPEAT", "2")))
    ap.add_argument("--model-scale", type=int, default=1)
    ap.add_argument("--batch-size", type=int, default=512)
    ap.add_argument(
        "--kg-probe",
        action="store_true",
        help="one end-to-end KG run at --docs (default 10^7) reporting wall, "
        "driver peak RSS and object-store spill — the headline path's own "
        "sizing probe (BASELINE.md round 5)",
    )
    ap.add_argument(
        "--sizing-probe",
        action="store_true",
        help="10^7-row dedup/ANN partition-sizing probe (tools/sizing_probe.py); "
        "rows via GRAFT_PROBE_ROWS",
    )
    args = ap.parse_args()

    if args.sizing_probe:
        # fresh process so the probe owns its Ray session at full width
        rows = os.environ.get("GRAFT_PROBE_ROWS", "10000000")
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(os.path.dirname(os.path.abspath(__file__)), "tools", "sizing_probe.py"),
                "--rows",
                rows,
                "--num-cpus",
                str(args.cpus),
                "--out",
                "/tmp/sizing_probe.json",
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
            sys.exit(1)
        print(open("/tmp/sizing_probe.json").read())
        return

    if args.scaling:
        # identical job at two parallelism levels, fresh processes
        # (sandbox evidence for the N vs 4N cluster criterion).  The
        # scaling corpus is larger than the headline one so per-doc compute
        # dominates fixed stage/shuffle constants — strong scaling is
        # meaningless on a job that finishes in seconds.
        # CPU-bound regime: model_scale emulates production-model FLOPs
        # (our numpy GRU is ~100x lighter than the transformer-scale
        # models the north star assumes); without it this box's memory-
        # bandwidth ceiling (~12-15k docs/s regardless of CPU count) and
        # fixed stage constants bury the CPU-scaling signal
        scaling_docs = int(os.environ.get("GRAFT_SCALING_DOCS", "160000"))
        scaling_model = int(os.environ.get("GRAFT_MODEL_SCALE", "256"))
        # the two parallelism levels (N, 4N) — sandbox stand-in for N vs 4N
        # nodes; override e.g. GRAFT_SCALING_CPUS=4,16
        lo, hi = (
            int(x) for x in os.environ.get("GRAFT_SCALING_CPUS", "8,32").split(",")
        )
        runs: dict[int, list[float]] = {lo: [], hi: []}
        # interleaved repeats, every run reported: this VM shows ±40%
        # run-to-run noise (shared host), so the headline efficiency is the
        # MEDIAN-per-level ratio (a best-of ratio can exceed 1.0 on a lucky
        # window and understate on an unlucky one — both are noise)
        for _ in range(max(1, args.repeat)):
            for cpus in (lo, hi):
                proc = subprocess.run(
                    [
                        sys.executable,
                        os.path.abspath(__file__),
                        "--kg-only",
                        "--cpus",
                        str(cpus),
                        "--docs",
                        str(scaling_docs),
                        "--model-scale",
                        str(scaling_model),
                    ]
                    + ["--batch-size", str(args.batch_size)],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "RAY_GRAFT_CPUS": str(cpus)},
                )
                line = proc.stdout.strip().splitlines()[-1]
                runs[cpus].append(json.loads(line)["docs_per_sec"])

        def median(xs: list[float]) -> float:
            s = sorted(xs)
            n = len(s)
            return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2

        tp_lo, tp_hi = median(runs[lo]), median(runs[hi])
        efficiency = tp_hi / ((hi / lo) * tp_lo)
        print(
            json.dumps(
                {
                    "metric": f"kg_scaling_efficiency_{lo}_to_{hi}_cpus",
                    "value": round(efficiency, 4),
                    "unit": "ratio",
                    f"docs_per_sec_{lo}": round(tp_lo, 2),
                    f"docs_per_sec_{hi}": round(tp_hi, 2),
                    f"runs_{lo}": [round(x, 2) for x in runs[lo]],
                    f"runs_{hi}": [round(x, 2) for x in runs[hi]],
                    "stat": "median_per_level",
                    "docs": scaling_docs,
                    "model_scale": scaling_model,
                    "sf": SF_DIR,
                }
            )
        )
        return

    if args.kg_probe:
        # one fresh-session end-to-end run at probe scale; memory evidence
        # alongside throughput (no driver-side growth with corpus size is
        # the claim being probed)
        _init(args.cpus)
        import ray

        try:
            kg = run_kg(
                SF_DIR,
                args.cpus,
                n_docs=args.docs or 10_000_000,
                model_scale=args.model_scale,
                batch_size=args.batch_size,
            )
            import resource

            kg["driver_peak_rss_mb"] = round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
            )
            try:
                # filesystem evidence (gRPC-free): spilled-object files +
                # the raylet log's own "Spilled N MiB" lines from THIS
                # session's directory
                import glob

                sessions = sorted(glob.glob("/tmp/ray/*/session_*"), key=os.path.getmtime)
                sess = sessions[-1] if sessions else ""
                files = [
                    f
                    for f in glob.glob(os.path.join(sess, "**", "*"), recursive=True)
                    if "spill" in os.path.basename(os.path.dirname(f)).lower()
                    and os.path.isfile(f)
                ]
                kg["spilled_files"] = len(files)
                kg["spilled_mb"] = round(sum(os.path.getsize(f) for f in files) / 1e6, 1)
                log = os.path.join(sess, "logs", "raylet.out")
                if os.path.exists(log):
                    lines = [l.strip() for l in open(log, errors="ignore") if "Spilled " in l]
                    kg["spill_log"] = lines[-2:] if lines else ["no spill lines"]
            except Exception as e:  # diagnostic only — never fail the probe
                kg["object_store_spill"] = [f"unavailable: {e}"]
            print(json.dumps({k: (round(v, 3) if isinstance(v, float) else v) for k, v in kg.items()}))
        finally:
            ray.shutdown()
        return

    _init(args.cpus)
    import ray

    try:
        # Headline is MEDIAN-of-3 with every run reported: this shared-host
        # VM swings ±40 % minute to minute (BASELINE.md noise control), so a
        # single draw measures the VM, and a best-of biases the recorded
        # headline upward (advisor round 2) — the median is an unbiased
        # location estimate under symmetric noise.  --kg-only stays
        # single-run (the scaling harness interleaves/medians its own
        # repeats).
        runs = [
            run_kg(
                SF_DIR,
                args.cpus,
                n_docs=args.docs,
                model_scale=args.model_scale,
                batch_size=args.batch_size,
            )
            for _ in range(1 if args.kg_only else 3)
        ]
        runs.sort(key=lambda r: r["docs_per_sec"])
        kg = runs[len(runs) // 2]
        if args.kg_only:
            print(json.dumps({k: (round(v, 3) if isinstance(v, float) else v) for k, v in kg.items()}))
            return
        queries = run_queries(SF_DIR)
        print(
            json.dumps(
                {
                    "metric": "kg_pipeline_docs_per_sec",
                    "value": round(kg["docs_per_sec"], 2),
                    "unit": "docs/sec",
                    "kg_wall_sec": round(kg["wall_sec"], 3),
                    "kg_docs": kg["docs"],
                    "kg_triples": kg["triples"],
                    "kg_edges": kg["edges"],
                    "triples_per_sec": round(kg["triples_per_sec"], 2),
                    "kg_runs_docs_per_sec": [round(r["docs_per_sec"], 2) for r in runs],
                    "kg_stat": "median_of_3",
                    "queries": queries,
                    "sf": SF_DIR,
                    "num_cpus": args.cpus,
                }
            )
        )
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
