#!/usr/bin/env python3
"""Pin the reference output digest of each workload for a range of seeds.

    python3 perfbench/pin_digests.py 0 31

The build reference runs ``nlp/`` just as the pipeline does, so a
change in what the parser means would move both sides of the output check
together.  ``run.py`` therefore also compares the reference digest with the
one pinned here for its seed; rerun this script only when such a change is
intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # noqa: F401  (puts the repository on sys.path)
import inputs
import reference


def main() -> None:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    work = os.path.join(run.ROOT, ".bench_work", f"pin-{os.getpid()}")
    with open(run.PINNED) as f:
        pinned = json.load(f)
    try:
        for seed in range(lo, hi + 1):
            root = os.path.join(work, str(seed))
            b = inputs.write_build_inputs(f"{root}/build", seed)
            g = inputs.write_graph_inputs(f"{root}/graph", seed)
            jobs = {
                "build": {"kind": "build", "out": f"{root}/ref-build", "corpus": b["corpus"], "warmup": b["warmup"]},
                "graph": {"kind": "graph", "out": f"{root}/ref-graph", "triples": g["triples"], "kb": g["kb"]},
            }
            for name, job in jobs.items():
                pinned[name][str(seed)] = reference.compute(job)["digest"]
            shutil.rmtree(root)
            print(seed, {k: pinned[k][str(seed)] for k in jobs}, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with open(run.PINNED, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
