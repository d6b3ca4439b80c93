"""Driver-simulation harness: run every ``__ray_entry__.queries()`` entry
side-by-side with its ``oracle_sql()`` DuckDB equivalent at a given sf dir
and report rows/schema/value-hash matches — the same comparison the
per-round driver records in CORRECTNESS_r{N}.json.  Each query's line
also carries the engine result's own columns and value hash
(``ray_cols``, ``ray_hash``), so two runs (two commits, or two planner
bounds) can be diffed query by query.  Without the SemEval files the
four SemEval queries are reported FAIL with their error; every other
query is still compared against its oracle.

Usage:  python tools/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import duckdb
import pandas as pd
import ray

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    raise TypeError(type(res))


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for col in df.columns:
        s = df[col]
        if s.dtype == object:
            vals = s.astype(str).tolist()
        elif str(s.dtype).startswith("float"):
            vals = [f"{v:.9g}" for v in s.tolist()]
        else:
            vals = s.astype(str).tolist()
        h.update(col.encode())
        for v in vals:
            h.update(str(v).encode())
            h.update(b"\x00")
    return h.hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=16, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as e

    qs = e.queries()
    sqls = e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    out = {}
    failed = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        rec = {}
        t0 = time.time()
        try:
            rdf = canon(to_pandas(fn(sf_dir)))
            rec["ray_rows"] = len(rdf)
            rec["ray_sec"] = round(time.time() - t0, 2)
            rec["ray_cols"] = list(rdf.columns)
            rec["ray_hash"] = value_hash(rdf)
            if name in sqls:
                odf = canon(con.execute(sqls[name]).df())
                rec["oracle_rows"] = len(odf)
                rec["rows_match"] = len(rdf) == len(odf)
                rec["schema_match"] = list(rdf.columns) == list(odf.columns)
                rec["hash_match"] = (
                    rec["rows_match"]
                    and rec["schema_match"]
                    and value_hash(rdf) == value_hash(odf)
                )
                if not rec["hash_match"]:
                    failed.append(name)
                    rec["oracle_cols"] = list(odf.columns)
            else:
                rec["rows_match"] = None
                failed.append(name + " (no_oracle)")
        except Exception as ex:  # noqa: BLE001
            rec["err"] = f"{type(ex).__name__}: {ex}"[:300]
            failed.append(name)
        out[name] = rec
        status = "OK " if rec.get("hash_match") else "FAIL"
        print(f"{status} {name}: {json.dumps(rec)}", flush=True)
    print(json.dumps({"failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
