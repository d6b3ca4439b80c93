"""Smoke test for the root benchmark harness: ``bench.py --kg-only`` runs
the build-kg job end to end in a fresh process and prints one JSON line."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_kg_only_smoke():
    proc = subprocess.run(
        [sys.executable, "bench.py", "--kg-only", "--cpus", "1", "--docs", "100"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    assert len(lines) == 1, proc.stdout[-2000:]
    res = json.loads(lines[0])
    assert res["docs"] == 100 and res["docs_per_sec"] > 0
    assert res["triples"] > 0 and 0 < res["edges"] <= res["triples"]
