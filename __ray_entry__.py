"""Driver contract: entry() smoke, queries() per-operator pipelines, and
oracle_sql() DuckDB equivalents (run side-by-side at sf=0.01).

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in the library) calls ``ray.init``/``ray.shutdown``.

Design notes:
* Money/float aggregates are returned as integer cents (exact hash
  equality with the SQL oracle — no float-sum rounding drift).
* All dedup/LSH hashing is md5-based, so MinHash signatures, SimHash
  bits, LSH hyperplanes and Jaccard scores are recomputed **from scratch
  in SQL** by the DuckDB oracles (an independent engine reproducing the
  bits, not a readback).
* The KG pipeline's input (interleaved text+media docs per BASELINE.json
  input_hint) is a deterministic synthetic corpus (pure function of doc
  index).  Its oracles are the pure-Python single-process implementation
  (``relation_extraction_ray/oracle.py`` — naive dicts/loops, zero Ray):
  ``oracle_sql()`` materializes those tables to parquet at call time and
  the SQL reads them back, so the driver hash-compares the distributed
  pipeline against the single-process semantics end-to-end.
* Every kg_* query also audits the span-sequence invariant (north rule)
  against the source documents and RAISES on any mismatch.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

KNN_QUERY_IDS = [0, 1, 2, 3, 4]
IVF_QUERY_IDS = [5, 6, 7, 8, 9]
KG_DOCS = 300  # synthetic interleaved docs for the kg_* queries
ORACLE_DIR = "/tmp/graft_kg_oracle"

TRIPLE_SORT = ["doc_id", "sent_id", "subj", "pred", "obj", "score", "span_hash"]
ADJ_SORT = ["src_id", "pred", "dst_id"]


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def entry() -> Any:
    """Flagship KG pipeline at sf0.001: plain benchmark documents wrapped
    into the interleaved-span shape, unioned with a deterministic synthetic
    interleaved corpus (which carries media spans + known triples), run
    end-to-end extract → link → canonicalize → materialize."""
    from relation_extraction_ray.pipelines.kg import KGPipeline, documents_from_plain_text
    from relation_extraction_ray.sources.synth import documents_dataset

    plain = documents_from_plain_text(
        _read("/root/testdata/sf0.001", "documents", columns=["doc_id", "text"])
    )
    synth = documents_dataset(KG_DOCS, override_num_blocks=8)
    out = KGPipeline().run(plain.union(synth))
    return out["adjacency"]


# ---------------------------------------------------------------------------


def _q_vocab(sf_dir: str):
    from relation_extraction_ray.functions.text import vocab_top_k

    return vocab_top_k(_read(sf_dir, "documents", columns=["text"]), k=100)


def _q_doc_stats(sf_dir: str):
    from relation_extraction_ray.functions.text import doc_stats_by_source

    return doc_stats_by_source(_read(sf_dir, "documents", columns=["source", "text"]))


def _q_fingerprints(sf_dir: str):
    from relation_extraction_ray.functions.text import fingerprints

    return fingerprints(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_quality(sf_dir: str):
    from relation_extraction_ray.functions.text import quality_features

    return quality_features(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_token_counts(sf_dir: str):
    from relation_extraction_ray.functions.text import token_counts

    return token_counts(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_rolling_fps(sf_dir: str):
    """Winnowing fingerprints, digested to scalar columns (the driver's
    row-hash comparator handles scalars; the md5 of the ':'-joined sorted
    fps list still pins the exact fingerprint CONTENT per doc)."""
    import hashlib

    import pyarrow as pa

    from relation_extraction_ray.functions.text import rolling_fingerprints

    fps = rolling_fingerprints(_read(sf_dir, "documents", columns=["doc_id", "text"]))

    def digest(batch: pa.Table) -> pa.Table:
        digests = [
            hashlib.md5(":".join(str(int(x)) for x in row).encode()).hexdigest()
            for row in batch.column("fps").to_pylist()
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "n_fps": batch.column("n_fps"),
                "fps_md5": pa.array(digests, pa.string()),
            }
        )

    return fps.map_batches(digest, batch_format="pyarrow")


def _q_dedup_exact(sf_dir: str):
    from relation_extraction_ray.functions.dedup import exact_dedup

    return exact_dedup(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_fuzzy_pairs(sf_dir: str):
    """Edit-distance-1 fuzzy self-join over customer names (the typo /
    surface-form candidate generator entity resolution runs before
    canonicalization): deletion-neighborhood keys, one key-hash
    exchange, one canonical-pair dedup exchange, per-length vectorized
    substitution verify."""
    from relation_extraction_ray.functions.dedup import fuzzy_ed1_pairs

    return fuzzy_ed1_pairs(_read(sf_dir, "customer", columns=["c_name"]), "c_name")


def _q_alias_clusters(sf_dir: str):
    """Entity-alias resolution: connected components over the
    edit-distance-1 fuzzy pair graph of customer names — every alias
    maps to its component-min canonical surface (the deterministic
    keep-one rule entity canonicalization applies before linking)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from relation_extraction_ray.functions.components import connected_components
    from relation_extraction_ray.functions.dedup import fuzzy_ed1_pairs

    pairs = fuzzy_ed1_pairs(
        _read(sf_dir, "customer", columns=["c_name"]), "c_name"
    )

    def to_keys(batch: pa.Table) -> pa.Table:
        # 'Customer#%09d' → the embedded key; the numeric min IS the
        # lexicographic-min name, so component canonicals agree
        return pa.table(
            {
                "a": pc.cast(pc.utf8_slice_codeunits(batch.column("a"), 9, 2**30), pa.int64()),
                "b": pc.cast(pc.utf8_slice_codeunits(batch.column("b"), 9, 2**30), pa.int64()),
            }
        )

    return connected_components(
        pairs.map_batches(to_keys, batch_format="pyarrow"), "a", "b"
    )


def _q_knn(sf_dir: str):
    from relation_extraction_ray.functions.ann import knn_brute_force

    return knn_brute_force(_read(sf_dir, "embeddings", columns=["vec_id", "embedding"]), KNN_QUERY_IDS, k=10)


def _q_pricing(sf_dir: str):
    from relation_extraction_ray.functions.relational import pricing_summary

    return pricing_summary(
        _read(
            sf_dir,
            "lineitem",
            columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
        )
    )


def _q_revenue(sf_dir: str):
    from relation_extraction_ray.functions.relational import revenue_by_segment

    return revenue_by_segment(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
    )


def _q_revenue_nation(sf_dir: str):
    """TPC-H-Q5-shaped 6-table join (region/nation driver-resolved,
    customer/supplier broadcast, orders×lineitem one hash exchange)."""
    from relation_extraction_ray.functions.relational import revenue_by_nation

    return revenue_by_nation(
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]),
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
        region_name="ASIA",
        date_lo="1996-01-01",
        date_hi="1998-01-01",
    )


def _q_q3_top(sf_dir: str):
    """TPC-H-Q3-shaped top-k over a fact×fact join: segment broadcast,
    early date filters, one orderkey exchange, per-partition top-k prune."""
    from relation_extraction_ray.functions.relational import q3_top_orders

    return q3_top_orders(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]),
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]),
        segment="BUILDING",
        cutoff="1997-06-01",
        k=10,
    )


def _q_table_diff(sf_dir: str):
    """CDC snapshot diff between two deterministically derived versions
    of orders (A drops keys %11, B drops %13 and bumps %7 prices) —
    one side-tagged key exchange, per-status counter rows."""
    import numpy as np
    import pyarrow as pa

    from relation_extraction_ray.functions.relational import _cents, table_diff

    base = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def derive_a(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        keep = k % 11 != 0
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep], pa.int64()),
                "cents": pa.array(
                    _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))[keep]
                ),
            }
        )

    def derive_b(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        keep = k % 13 != 0
        cents = _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
        cents = np.where(k % 7 == 0, cents + 111, cents)
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep], pa.int64()),
                "cents": pa.array(cents[keep]),
            }
        )

    return table_diff(
        base.map_batches(derive_a, batch_format="pyarrow"),
        base.map_batches(derive_b, batch_format="pyarrow"),
        "o_orderkey",
        ["cents"],
    )


def _q_copurchase(sf_dir: str):
    """Item-level co-purchase pairs (support ≥ 2 distinct orders): one
    orderkey exchange, offset-bounded basket pair enumeration,
    pre-aggregated pair counters."""
    from relation_extraction_ray.functions.relational import copurchase_pairs

    return copurchase_pairs(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    )


def _q_mad(sf_dir: str):
    """Grouped MAD of account balances per market segment — two exact
    distinct-value-histogram median passes in scaled integers (half- and
    quarter-cent units), deviations never leave integer arithmetic."""
    from relation_extraction_ray.functions.relational import _cents, grouped_mad

    return grouped_mad(
        _read(sf_dir, "customer", columns=["c_mktsegment", "c_acctbal"]),
        "c_mktsegment",
        "c_acctbal",
        to_int=_cents,
    )


def _q_conversion_latency(sf_dir: str):
    """Signup → first-purchase latency p50/p90 (exact percentile_disc
    order statistics over the per-user latency histogram)."""
    from relation_extraction_ray.functions.relational import conversion_latency

    return conversion_latency(
        _read(sf_dir, "events", columns=["ts", "user_id", "event_type"])
    )


def _q_spikes(sf_dir: str):
    """Daily event-rate spike flags (count > 2× the trailing-7-day
    average, integer gate 1000·n·7 > 2000·S): one combine-fed day fold,
    calendar-bounded driver cumsum (rolling_wau precedent)."""
    from relation_extraction_ray.functions.relational import spike_days

    return spike_days(_read(sf_dir, "events", columns=["ts"]))


def _q_ab_test(sf_dir: str):
    """Two-proportion z-test of return rates between discount cohorts:
    one 4-counter fold, mirrored IEEE pooled z."""
    from relation_extraction_ray.functions.relational import ab_proportion_test

    return ab_proportion_test(
        _read(sf_dir, "lineitem", columns=["l_discount", "l_returnflag"])
    )


def _q_decision_stump(sf_dir: str):
    """CART split-finder table: weighted Gini at every discount
    threshold for the returned-vs-kept outcome — one contingency fold,
    mirrored IEEE impurity."""
    from relation_extraction_ray.functions.relational import decision_stump

    return decision_stump(
        _read(sf_dir, "lineitem", columns=["l_discount", "l_returnflag"])
    )


def _q_zipf_law(sf_dir: str):
    """Zipf rank-frequency exponent over the top-100 vocabulary
    (Heaps' companion): the vocab_top_k fold plus an integer OLS over
    nano-rounded (ln rank, ln cnt) points."""
    from relation_extraction_ray.functions.text import zipf_law

    return zipf_law(_read(sf_dir, "documents", columns=["text"]), k=100)


def _q_heaps_law(sf_dir: str):
    """Heaps'-law vocabulary growth over four nested corpus prefixes,
    with the OLS growth exponent from nano-rounded (ln n, ln V) points."""
    from relation_extraction_ray.functions.text import heaps_law

    return heaps_law(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _heaps_sql() -> str:
    """Replay the four prefix vocabulary counts and the integer OLS on
    nano-rounded ln points (round-half-up milli slope)."""
    blocks = []
    for k in (1, 2, 4, 8):
        blocks.append(
            f"""pt{k} AS MATERIALIZED (
          SELECT {k} AS checkpoint,
                 (SELECT CAST(count(*) AS BIGINT) FROM documents
                  WHERE doc_id < (SELECT top * {k} // 8 FROM mx)) AS n,
                 (SELECT CAST(count(DISTINCT t) AS BIGINT) FROM (
                    SELECT unnest(string_split(lower(text), ' ')) AS t
                    FROM documents
                    WHERE doc_id < (SELECT top * {k} // 8 FROM mx))
                  WHERE t <> '') AS v
        )"""
        )
    pts_union = " UNION ALL ".join(f"SELECT * FROM pt{k}" for k in (1, 2, 4, 8))
    return (
        "WITH mx AS MATERIALIZED (SELECT max(doc_id) + 1 AS top FROM documents),\n"
        + ",\n        ".join(blocks)
        + f""",
        pts AS MATERIALIZED ({pts_union}),
        lns AS MATERIALIZED (
          -- tiny-corpus guard mirroring the engine: n=0 (empty prefix)
          -- or v=0 (token-less prefix) would feed ln(0); skip the row
          SELECT checkpoint, n, v,
                 CAST(floor(ln(CAST(n AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT) AS lx,
                 CAST(floor(ln(CAST(v AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT) AS ly
          FROM pts WHERE n > 0 AND v > 0
        ), ols AS MATERIALIZED (
          SELECT CAST(count(*) AS HUGEINT) AS m,
                 CAST(sum(lx) AS HUGEINT) AS sx, CAST(sum(ly) AS HUGEINT) AS sy,
                 CAST(sum(lx * lx) AS HUGEINT) AS sxx,
                 CAST(sum(lx * ly) AS HUGEINT) AS sxy
          FROM lns
        )
        SELECT lns.checkpoint, lns.n AS n_docs, lns.v AS v_tokens,
               CAST(CASE WHEN ols.m * ols.sxx - ols.sx * ols.sx <> 0
                    THEN (2000 * (ols.m * ols.sxy - ols.sx * ols.sy)
                          + (ols.m * ols.sxx - ols.sx * ols.sx))
                         // (2 * (ols.m * ols.sxx - ols.sx * ols.sx))
                    ELSE 0 END AS BIGINT) AS beta_milli
        FROM lns, ols ORDER BY lns.checkpoint"""
    )


def _q_char_entropy(sf_dir: str):
    """Per-document character-distribution entropy (gibberish/encoding
    noise quality signal) in exact integer nanos — per-term nano-rounded
    ln, order-free integer sums (the markov_entropy discipline)."""
    from relation_extraction_ray.functions.text import char_entropy

    return char_entropy(_read(sf_dir, "documents", columns=["doc_id", "text"])).sort(
        "doc_id"
    )


def _q_silhouette(sf_dir: str):
    """Per-label mean silhouette of the embedding table (cluster-quality
    diagnostic): micro-quantized components, exact int64 pair distances,
    floor(IEEE sqrt) unit distances, cross-multiplied rational
    comparisons for the nearest-other-cluster pick, round-half-away
    s_milli — value-identical to the O(n²) SQL replay."""
    from relation_extraction_ray.functions.ann import silhouette_by_label

    return silhouette_by_label(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])
    ).sort("label")


def _q_markov_entropy(sf_dir: str):
    """Entropy rate of the per-user event-type Markov chain (stream
    predictability): transition counts via one user-keyed exchange,
    per-term nano-rounded ln, shared round-half-up final division."""
    from relation_extraction_ray.functions.relational import markov_entropy_rate

    return markov_entropy_rate(
        _read(sf_dir, "events", columns=["ts", "event_id", "user_id", "event_type"])
    )


def _q_weekday_profile(sf_dir: str):
    """Weekday activity profile of the event stream with the exact
    integer uniformity chi² ((7Σn_d²−n²)/n in floor-milli)."""
    from relation_extraction_ray.functions.relational import weekday_profile

    return weekday_profile(_read(sf_dir, "events", columns=["ts"]))


def _q_survival_km(sf_dir: str):
    """Kaplan-Meier churn curve over customer order-activity lifetimes
    (customers still ordering in the final 90 days right-censored):
    per-customer day-span fold over one key-partitioned exchange,
    calendar-bounded (duration, churned) histogram, exact integer-micro
    product-limit recursion replayed by a recursive-CTE SQL oracle."""
    from relation_extraction_ray.functions.relational import survival_km

    return survival_km(
        _read(sf_dir, "orders", columns=["o_orderdate", "o_custkey"]),
        user_col="o_custkey",
        ts_col="o_orderdate",
        censor_window_days=90,
    )


def _q_greedy_coverage(sf_dir: str):
    """Greedy max-coverage selection of 8 documents (largest
    uncovered-vocabulary gain per round, doc_id tie-break): k bounded
    scans with a broadcast covered set and batches-sized argmax folds."""
    from relation_extraction_ray.functions.curation import greedy_coverage

    return greedy_coverage(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), k=8
    )


def _greedy_cov_sql(k: int = 8) -> str:
    """Unroll the engine's greedy max-coverage rounds: per-round best
    (gain DESC, doc_id ASC LIMIT 1) over uncovered distinct 3-gram
    shingles (the shared _NGRAM_CTES unit), the covered set threaded
    forward as a UNION chain — all counts integer, picked docs drop out
    because their shingles are covered.  Every CTE of the chain is
    ``AS MATERIALIZED``: round i reads ``cov{i-1}`` twice (its filter and
    the next UNION), so inlined CTEs would re-expand every earlier round
    at each reference."""
    ctes = [
        _NGRAM_CTES.strip(),
        """gtok AS MATERIALIZED (
          SELECT doc_id, t FROM (SELECT doc_id, unnest(shingles) AS t FROM shl)
          GROUP BY doc_id, t
        )""",
    ]
    sels = []
    for i in range(1, k + 1):
        flt = (
            f"WHERE t NOT IN (SELECT t FROM cov{i - 1})" if i > 1 else ""
        )
        ctes.append(
            f"""p{i} AS MATERIALIZED (
          SELECT doc_id, CAST(count(*) AS BIGINT) AS gain FROM gtok {flt}
          GROUP BY doc_id ORDER BY gain DESC, doc_id ASC LIMIT 1
        )"""
        )
        prev = f"SELECT t FROM cov{i - 1} UNION " if i > 1 else ""
        ctes.append(
            f"""cov{i} AS MATERIALIZED (
          {prev}SELECT t FROM gtok WHERE doc_id = (SELECT doc_id FROM p{i})
        )"""
        )
        sels.append(
            f"SELECT {i} AS round, doc_id, gain,"
            f" (SELECT CAST(count(*) AS BIGINT) FROM cov{i}) AS covered_total"
            f" FROM p{i}"
        )
    return (
        "WITH "
        + ",\n        ".join(ctes)
        + "\n        SELECT * FROM ("
        + " UNION ALL ".join(sels)
        + ") ORDER BY round"
    )


def _q_cf_user_topk(sf_dir: str):
    """User-user collaborative filtering: top-5 cosine neighbors over
    part-purchase count vectors for 5 probe customers — one reduce-side
    orderkey join, broadcast probe vectors, one dot/norm scan."""
    from relation_extraction_ray.functions.relational import cf_user_topk

    return cf_user_topk(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"]),
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
    )


def _q_cf_item_topk(sf_dir: str):
    """Item-item collaborative filtering (the form recommenders serve):
    top-5 cosine parts over customer-purchase vectors for 5 probe
    parts — same one-exchange stitch and exactness contract as the
    user form, roles swapped."""
    from relation_extraction_ray.functions.relational import cf_item_topk

    return cf_item_topk(
        _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"]),
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
    )


def _q_shard_advisor(sf_dir: str):
    """Partition-key advisor: hash-bucket load profile at 64 parts
    under the engine's own partition hash for three candidate keys;
    per-batch ≤64-row partials, aggregate-sized exchange."""
    from relation_extraction_ray.functions.joins import shard_advisor

    return shard_advisor(
        [
            (
                "lineitem.l_partkey",
                _read(sf_dir, "lineitem", columns=["l_partkey"]),
                "l_partkey",
            ),
            (
                "orders.o_custkey",
                _read(sf_dir, "orders", columns=["o_custkey"]),
                "o_custkey",
            ),
            (
                "orders.o_orderkey",
                _read(sf_dir, "orders", columns=["o_orderkey"]),
                "o_orderkey",
            ),
        ]
    )


def _shard_sql_side(tag: str, table: str, col: str) -> tuple[str, str]:
    """Mix-chain replay (the hll_distinct machinery) + bucket fold."""
    m64 = "18446744073709551616"
    muls = ("13787848793156543929", "10723151780598845931")
    shifts = ("1073741824", "134217728", "2147483648")
    ctes = [f"v{tag} AS (SELECT CAST({col} AS HUGEINT) AS x FROM {table})"]
    cur = f"v{tag}"
    for r in range(2):
        for i, step in enumerate(("s0", "m0", "s1", "m1", "s2")):
            nm = f"z{tag}{r}{i}"
            if step.startswith("m"):
                c = f"CAST({muls[int(step[1])]} AS HUGEINT)"
                expr = (
                    f"(((x // 4294967296 * {c}) % {m64}) * 4294967296"
                    f" + (x % 4294967296) * {c}) % {m64}"
                )
            else:
                expr = f"xor(x, x // {shifts[int(step[1])]})"
            ctes.append(f"{nm} AS (SELECT {expr} AS x FROM {cur})")
            cur = nm
    ctes.append(
        f"g{tag} AS (SELECT x % 64 AS bucket, CAST(count(*) AS BIGINT) AS n"
        f" FROM {cur} GROUP BY 1)"
    )
    final = (
        f"SELECT '{table}.{col}' AS candidate,"
        f" CAST(sum(n) AS BIGINT) AS n_rows,"
        f" CAST(max(n) AS BIGINT) AS max_bucket_rows,"
        f" CAST((1000 * max(n) * 64) // sum(n) AS BIGINT) AS skew_milli"
        f" FROM g{tag}"
    )
    return ", ".join(ctes), final


def _shard_sql() -> str:
    c1, f1 = _shard_sql_side("sa", "lineitem", "l_partkey")
    c2, f2 = _shard_sql_side("sb", "orders", "o_custkey")
    c3, f3 = _shard_sql_side("sc", "orders", "o_orderkey")
    return (
        f"WITH {c1}, {c2}, {c3} SELECT * FROM"
        f" ({f1} UNION ALL {f2} UNION ALL {f3}) ORDER BY candidate"
    )


def _q_table_digest(sf_dir: str):
    """Order-invariant content digests (count, sum-mod-2⁶⁴, xor of the
    per-row splitmix64 key hash) for two tables — the migration /
    replication verification primitive; mergeable and partition-order-
    free by construction."""
    from relation_extraction_ray.functions.joins import table_digest

    return table_digest(
        [
            (
                "orders",
                _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]),
                ["o_orderkey", "o_custkey"],
            ),
            (
                "lineitem",
                _read(
                    sf_dir,
                    "lineitem",
                    columns=["l_orderkey", "l_partkey", "l_suppkey"],
                ),
                ["l_orderkey", "l_partkey", "l_suppkey"],
            ),
        ]
    )


def _digest_sql_side(tag: str, table: str, cols: list[str]) -> tuple[str, str]:
    """CTE chain replaying ``hash_columns`` on integer columns:
    h = 0, then per column h = mix64(h + mix64(v)) — each splitmix64
    as 5 hi/lo-split HUGEINT mulmod steps (the hll_distinct machinery),
    folded to (count, sum-mod-2⁶⁴, xor) with two's-complement casts."""
    m64 = "18446744073709551616"
    muls = ("13787848793156543929", "10723151780598845931")
    shifts = ("1073741824", "134217728", "2147483648")

    def mix_steps(prefix: str, col: str, cur: str, carry: list[str]) -> tuple[list[str], str]:
        out = []
        for i, step in enumerate(("s0", "m0", "s1", "m1", "s2")):
            nm = f"{prefix}{i}"
            if step.startswith("m"):
                c = f"CAST({muls[int(step[1])]} AS HUGEINT)"
                expr = (
                    f"((({col} // 4294967296 * {c}) % {m64}) * 4294967296"
                    f" + ({col} % 4294967296) * {c}) % {m64}"
                )
            else:
                expr = f"xor({col}, {col} // {shifts[int(step[1])]})"
            keep = ", ".join(carry)
            out.append(
                f"{nm} AS (SELECT {expr} AS {col}"
                + (f", {keep}" if keep else "")
                + f" FROM {cur})"
            )
            cur = nm
        return out, cur

    ctes = [
        f"d{tag} AS (SELECT "
        + ", ".join(f"CAST({c} AS HUGEINT) AS x{k}" for k, c in enumerate(cols))
        + f" FROM {table})"
    ]
    cur = f"d{tag}"
    names = [f"x{k}" for k in range(len(cols))]
    for k in range(len(cols)):  # per-column inner mix
        steps, cur = mix_steps(f"p{tag}{k}", names[k], cur, [n for n in names if n != names[k]] + (["h"] if False else []))
        ctes += steps
    # combine chain: h = mix64(h + m_k), starting h = 0
    ctes.append(f"c{tag}0 AS (SELECT (0 + x0) % {m64} AS h, " + ", ".join(names[1:]) + f" FROM {cur})" if len(names) > 1 else f"c{tag}0 AS (SELECT (0 + x0) % {m64} AS h FROM {cur})")
    cur = f"c{tag}0"
    for k in range(len(cols)):
        carry = names[k + 1 :]
        steps, cur = mix_steps(f"q{tag}{k}", "h", cur, carry)
        ctes += steps
        if k + 1 < len(cols):
            nxt = f"c{tag}{k + 1}"
            keep = ", ".join(names[k + 2 :])
            ctes.append(
                f"{nxt} AS (SELECT (h + {names[k + 1]}) % {m64} AS h"
                + (f", {keep}" if keep else "")
                + f" FROM {cur})"
            )
            cur = nxt
    final = (
        f"SELECT '{table}' AS source, CAST(count(*) AS BIGINT) AS n_rows,"
        f" CAST(CASE WHEN sum(h) % {m64} >= 9223372036854775808"
        f" THEN sum(h) % {m64} - {m64} ELSE sum(h) % {m64} END AS BIGINT) AS digest_sum,"
        f" bit_xor(CAST(CASE WHEN h >= 9223372036854775808 THEN h - {m64} ELSE h END"
        f" AS BIGINT)) AS digest_xor"
        f" FROM {cur}"
    )
    return ", ".join(ctes), final


def _digest_sql() -> str:
    c1, f1 = _digest_sql_side("a", "orders", ["o_orderkey", "o_custkey"])
    c2, f2 = _digest_sql_side(
        "b", "lineitem", ["l_orderkey", "l_partkey", "l_suppkey"]
    )
    return f"WITH {c1}, {c2} SELECT * FROM ({f1} UNION ALL {f2}) ORDER BY source"


def _q_join_size_audit(sf_dir: str):
    """Exact planner-style join cardinalities for three equi-joins
    without executing them: per-key count folds, one count-table
    exchange per join, per-partition Σ deg·deg and max-fan-out folds."""
    from relation_extraction_ray.functions.relational import join_size_audit

    return join_size_audit(
        [
            (
                "lineitem~orders",
                _read(sf_dir, "lineitem", columns=["l_orderkey"]),
                "l_orderkey",
                _read(sf_dir, "orders", columns=["o_orderkey"]),
                "o_orderkey",
            ),
            (
                "lineitem~part",
                _read(sf_dir, "lineitem", columns=["l_partkey"]),
                "l_partkey",
                _read(sf_dir, "part", columns=["p_partkey"]),
                "p_partkey",
            ),
            (
                "orders~customer",
                _read(sf_dir, "orders", columns=["o_custkey"]),
                "o_custkey",
                _read(sf_dir, "customer", columns=["c_custkey"]),
                "c_custkey",
            ),
        ]
    )


def _q_fd_audit(sf_dir: str):
    """Functional-dependency profiling of three candidate FDs (order →
    returnflag, part → supplier, customer → priority): distinct-pair
    partials, one det-keyed exchange folding to 3 counter rows per
    partition."""
    from relation_extraction_ray.functions.relational import fd_audit

    return fd_audit(
        [
            (
                "lineitem.l_orderkey->l_returnflag",
                _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"]),
                "l_orderkey",
                "l_returnflag",
            ),
            (
                "lineitem.l_partkey->l_suppkey",
                _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"]),
                "l_partkey",
                "l_suppkey",
            ),
            (
                "orders.o_custkey->o_orderpriority",
                _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"]),
                "o_custkey",
                "o_orderpriority",
            ),
        ]
    )


def _q_sorted_neighborhood(sf_dir: str):
    """Sorted-neighborhood blocking over part names (window 5, Jaccard
    ≥ 0.5): one range exchange (the sort), single-pass pair
    enumeration with a tagged boundary strip stitching frames that
    straddle batch splits."""
    from relation_extraction_ray.functions.dedup import sorted_neighborhood_pairs

    return sorted_neighborhood_pairs(
        _read(sf_dir, "part", columns=["p_name", "p_partkey"]),
        key_col="p_name",
        id_col="p_partkey",
    )


def _q_pca_top(sf_dir: str):
    """Distributed PCA top component by power iteration: one
    aggregate-sized sufficient-statistics exchange (micro-int sums +
    upper-triangle second moments as 2³⁰-limb pairs), exact-integer
    scatter and iteration on the driver."""
    from relation_extraction_ray.functions.ann import pca_top

    return pca_top(_read(sf_dir, "embeddings", columns=["vec_id", "embedding"]))


def _pca_sql(iters: int = 5) -> str:
    """Unroll the engine's integer power iteration: micro-int unnest,
    HUGEINT second moments, A = n·M2 − S·Sᵀ, per-round matvec +
    truncating rescale (DuckDB ``//`` truncates — the engine mirrors
    with a sign-split), Rayleigh quotient in one IEEE division.  Every
    CTE MATERIALIZED (the trim_core exponential-inline lesson)."""
    ctes = [
        """un AS MATERIALIZED (
          SELECT vec_id, CAST(i AS BIGINT) - 1 AS pos,
                 CAST(floor(embedding[CAST(i AS INT)] * 1.0e6 + 0.5) AS HUGEINT) AS micro
          FROM embeddings, unnest(range(1, len(embedding) + 1)) AS r(i)
        )""",
        """m2 AS MATERIALIZED (
          SELECT a.pos AS i, b.pos AS j, CAST(sum(a.micro * b.micro) AS HUGEINT) AS v
          FROM un a JOIN un b ON b.vec_id = a.vec_id AND b.pos >= a.pos
          GROUP BY 1, 2
        )""",
        """sv AS MATERIALIZED (
          SELECT pos AS i, CAST(sum(micro) AS HUGEINT) AS s FROM un GROUP BY pos
        )""",
        "nn AS MATERIALIZED (SELECT CAST(count(*) AS HUGEINT) AS n FROM embeddings)",
        """am AS MATERIALIZED (
          SELECT m2.i, m2.j, (SELECT n FROM nn) * m2.v - sa.s * sb.s AS a
          FROM m2 JOIN sv sa ON sa.i = m2.i JOIN sv sb ON sb.i = m2.j
        )""",
        """af AS MATERIALIZED (
          SELECT i, j, a FROM am UNION ALL SELECT j, i, a FROM am WHERE i <> j
        )""",
        """v0 AS MATERIALIZED (
          SELECT i AS pos, CAST(1000000 AS HUGEINT) AS v
          FROM (SELECT DISTINCT i FROM af)
        )""",
    ]
    for t in range(1, iters + 1):
        ctes.append(
            f"""w{t} AS MATERIALIZED (
          SELECT af.i AS pos, CAST(sum(af.a * v{t - 1}.v) AS HUGEINT) AS w
          FROM af JOIN v{t - 1} ON v{t - 1}.pos = af.j GROUP BY 1
        )"""
        )
        ctes.append(f"mx{t} AS MATERIALIZED (SELECT max(abs(w)) AS m FROM w{t})")
        ctes.append(
            f"""v{t} AS MATERIALIZED (
          SELECT pos, (w * 1000000) // (SELECT m FROM mx{t}) AS v FROM w{t}
        )"""
        )
    ctes.append(
        f"""wf AS MATERIALIZED (
          SELECT af.i AS pos, CAST(sum(af.a * v{iters}.v) AS HUGEINT) AS w
          FROM af JOIN v{iters} ON v{iters}.pos = af.j GROUP BY 1
        )"""
    )
    ctes.append(
        f"""ray AS MATERIALIZED (
          SELECT CAST(sum(v{iters}.v * wf.w) AS HUGEINT) AS num,
                 (SELECT CAST(sum(v * v) AS HUGEINT) FROM v{iters}) AS den
          FROM v{iters} JOIN wf ON wf.pos = v{iters}.pos
        )"""
    )
    return (
        "WITH "
        + ",\n        ".join(ctes)
        + f"""
        SELECT v{iters}.pos AS pos, CAST(v{iters}.v AS BIGINT) AS v_scaled,
               CAST(floor(CAST(num AS DOUBLE) / CAST(den AS DOUBLE)
                    / CAST((SELECT n FROM nn) * (SELECT n FROM nn) AS DOUBLE)
                    / 1e12 * 1e9 + 0.5) AS BIGINT) AS eig_nano
        FROM v{iters}, ray ORDER BY pos"""
    )


def _q_benford(sf_dir: str):
    """Benford first-digit audit of order totals: 9-bin bincount
    partials, aggregate-sized exchange, integer-micro shares vs the
    fixed-IEEE log10 expectation."""
    from relation_extraction_ray.functions.relational import benford_audit

    return benford_audit(_read(sf_dir, "orders", columns=["o_totalprice"]))


def _q_kendall_tau(sf_dir: str):
    """Kendall τ-b quantity↔discount: exact integer concordance from
    the contingency cells (the spearman pair-count exchange), one IEEE
    final form."""
    from relation_extraction_ray.functions.relational import kendall_tau_b

    return kendall_tau_b(
        _read(sf_dir, "lineitem", columns=["l_quantity", "l_discount"]),
        "l_quantity",
        "l_discount",
    )


def _q_theil_sen(sf_dir: str):
    """Theil-Sen robust slope of daily revenue: median of all pairwise
    slopes under the fully specified (slope, dy, dx) order, even count
    averaging the two middles exactly in IEEE."""
    from relation_extraction_ray.functions.relational import theil_sen_daily

    return theil_sen_daily(
        _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
    )


def _q_mann_kendall(sf_dir: str):
    """Mann-Kendall monotonic-trend test of daily revenue: integer S
    and tie-corrected variance numerator, one fixed IEEE z (sqrt is
    correctly rounded, so both engines agree bit-for-bit)."""
    from relation_extraction_ray.functions.relational import mann_kendall_daily

    return mann_kendall_daily(
        _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
    )


def _q_ewma_daily(sf_dir: str):
    """Binary-decay EWMA trend line over daily revenue (W=16 truncated
    so numerator/denominator stay exact integer dot products): one
    combine-fed day fold, calendar-bounded driver correlate."""
    from relation_extraction_ray.functions.relational import ewma_daily

    return ewma_daily(
        _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])
    )


def _q_autocorr(sf_dir: str):
    """Lag-1/lag-7 autocorrelation of the daily revenue series
    (weekly-seasonality detector): one combine-fed (day → cents) fold,
    exact integer ACF sufficient stats on the calendar-bounded driver
    series, corr-family fixed IEEE final form."""
    from relation_extraction_ray.functions.relational import autocorr_daily

    return autocorr_daily(
        _read(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"]),
        lags=(1, 7),
    )


def _q_cat_dependence(sf_dir: str):
    """Mutual information + chi-squared between o_orderstatus and
    o_orderpriority: per-batch cell-count partials bound the one
    exchange at |X|·|Y| rows; per-term nano-rounded math.log (bit-equal
    to DuckDB ln) and pure-integer chi² terms make both statistics
    exact cross-engine."""
    from relation_extraction_ray.functions.relational import categorical_dependence

    return categorical_dependence(
        _read(sf_dir, "orders", columns=["o_orderstatus", "o_orderpriority"]),
        "o_orderstatus",
        "o_orderpriority",
    )


def _q_weighted_sample(sf_dir: str):
    """Length-weighted sample without replacement (Efraimidis–Spirakis,
    md5-derived Exp(1) draws, pure-integer rank keys): one streaming
    scan with per-batch local top-k prune — the final sort sees
    ≤ blocks·k rows."""
    from relation_extraction_ray.functions.curation import weighted_sample

    return weighted_sample(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), k=100
    )


def _q_revenue_gini(sf_dir: str):
    """Per-priority Gini of order values: distinct-value-histogram
    exchange, group-partitioned exact python-int rank identity, one row
    per group."""
    from relation_extraction_ray.functions.relational import grouped_gini

    return grouped_gini(
        _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    )


def _q_centroid_similarity(sf_dir: str):
    """Pairwise class-centroid cosine matrix: labels·dim micro-int sum
    exchange, C(labels,2) exact-IEEE cosines on the driver."""
    from relation_extraction_ray.functions.ann import centroid_similarity

    return centroid_similarity(
        _read(sf_dir, "embeddings", columns=["embedding", "label"])
    )


def _q_cluster_scatter(sf_dir: str):
    """Per-label within-scatter + nearest-centroid separation (integer
    Davies-Bouldin ingredients): one labels·dim exchange, |labels|
    output rows."""
    from relation_extraction_ray.functions.ann import cluster_scatter

    return cluster_scatter(
        _read(sf_dir, "embeddings", columns=["embedding", "label"])
    )


def _q_dup_rate(sf_dir: str):
    """Per-source exact-duplicate rate: digest-only (source, fp)
    exchange, ≤ |sources| counter rows per partition."""
    from relation_extraction_ray.functions.text import dup_rate_by_source

    return dup_rate_by_source(_read(sf_dir, "documents", columns=["source", "text"]))


def _q_lexical_diversity(sf_dir: str):
    """Per-source TTR + hapax share: (source, token) value-count
    partials → summed pair fold → |sources|-row combine; integer-milli
    ratios."""
    from relation_extraction_ray.functions.text import lexical_diversity

    return lexical_diversity(_read(sf_dir, "documents", columns=["source", "text"]))


def _q_lang_entropy(sf_dir: str):
    """Per-source Shannon entropy of the language mix (nats, nano):
    per-batch cell partials bound the exchange at |sources|·|langs|;
    per-term nano-rounded math.log both engines."""
    from relation_extraction_ray.functions.relational import grouped_entropy

    return grouped_entropy(
        _read(sf_dir, "documents", columns=["source", "lang"]), "source", "lang"
    )


def _q_audience_overlap(sf_dir: str):
    """Pairwise audience Jaccard between event types: distinct
    (user, type) fold, ONE user-keyed exchange, offset-bounded bincount
    pair enumeration, ≤ |T|²+|T| counter rows per partition."""
    from relation_extraction_ray.functions.relational import audience_overlap

    return audience_overlap(_read(sf_dir, "events", columns=["user_id", "event_type"]))


def _q_priority_anova(sf_dir: str):
    """One-way ANOVA F of order value across priorities: |G|-row
    integer-sufficient-stats exchange (Σx² as split 2³⁰-limbs), per-term
    integer-division nano rounding, corr-family fixed IEEE F."""
    from relation_extraction_ray.functions.relational import grouped_anova

    return grouped_anova(
        _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    )


def _q_cusum(sf_dir: str):
    """CUSUM drift alarm over daily event counts: one combine-fed day
    fold, prefix-sum-minus-running-min driver pass in span-scaled
    integers, gate 1000·S > k·total."""
    from relation_extraction_ray.functions.relational import cusum_days

    return cusum_days(_read(sf_dir, "events", columns=["ts"]))


def _q_debounce(sf_dir: str):
    """Telemetry debounce counters: one (user,type)-keyed exchange,
    vectorized lag-gap rule, ≤ |T| counter rows per partition."""
    from relation_extraction_ray.functions.relational import debounce_events

    return debounce_events(
        _read(sf_dir, "events", columns=["user_id", "event_type", "ts", "event_id"])
    )


def _q_k_anonymity(sf_dir: str):
    """k-anonymity audit of customers under the (nation, segment) QI:
    combo-count exchange + class-size histogram fold; driver sees only
    the histogram."""
    from relation_extraction_ray.functions.relational import k_anonymity

    return k_anonymity(
        _read(sf_dir, "customer", columns=["c_nationkey", "c_mktsegment"]),
        ["c_nationkey", "c_mktsegment"],
        k=5,
    )


def _q_twa(sf_dir: str):
    """Per-user time-weighted average value: one user-keyed exchange,
    vectorized shifted-diff weighting, exact integer milli."""
    from relation_extraction_ray.functions.relational import time_weighted_avg

    return time_weighted_avg(
        _read(sf_dir, "events", columns=["user_id", "ts", "value", "event_id"])
    )


def _q_attribution(sf_dir: str):
    """Last-touch attribution: each purchase credits the user's most
    recent click/view/signup within 24 h (or none) — one user-keyed
    exchange, vectorized last-seen-index sweep, ≤ |sources|+1 counter
    rows per partition."""
    from relation_extraction_ray.functions.relational import last_touch_attribution

    return last_touch_attribution(
        _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    )


def _q_mad_outliers(sf_dir: str):
    """MAD-rule robust outliers (|x − median| > 3·MAD) of balances per
    segment — integer-exact 2000·|2x − med2| > 3000·mad2 gate over the
    grouped_mad stats, one extra combine-fed counting scan."""
    from relation_extraction_ray.functions.relational import _cents, mad_outliers

    return mad_outliers(
        _read(sf_dir, "customer", columns=["c_mktsegment", "c_acctbal"]),
        "c_mktsegment",
        "c_acctbal",
        to_int=_cents,
    )


def _q_auc(sf_dir: str):
    """Exact ROC-AUC of price predicting urgent/high order priority —
    Mann-Whitney with ties from the (score → pos, neg) histogram."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from relation_extraction_ray.functions.relational import _cents, roc_auc

    src = _read(sf_dir, "orders", columns=["o_totalprice", "o_orderpriority"])

    def derive(batch: pa.Table) -> pa.Table:
        y = pc.is_in(
            batch.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"]),
        )
        return pa.table(
            {
                "score": pa.array(
                    _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
                ),
                "label": y.cast(pa.int64()),
            }
        )

    return roc_auc(src.map_batches(derive, batch_format="pyarrow"), "score", "label")


def _q_calibration(sf_dir: str):
    """Reliability-diagram bins for price → urgent/high priority: 10
    equi-width integer score bins, per-bin positive rate in exact
    milli; dense bin axis with zero rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from relation_extraction_ray.functions.relational import _cents, calibration_bins

    src = _read(sf_dir, "orders", columns=["o_totalprice", "o_orderpriority"])

    def derive(batch: pa.Table) -> pa.Table:
        y = pc.is_in(
            batch.column("o_orderpriority"),
            value_set=pa.array(["1-URGENT", "2-HIGH"]),
        )
        return pa.table(
            {
                "score": pa.array(
                    _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
                ),
                "label": y.cast(pa.int64()),
            }
        )

    return calibration_bins(
        src.map_batches(derive, batch_format="pyarrow"), "score", "label", n_bins=10
    )


def _q_regression(sf_dir: str):
    """Per-returnflag OLS of price on quantity — grouped integer
    sufficient statistics (7 numbers per group per block), IEEE-fixed
    slope/intercept/r² nano finalize, HUGEINT SQL replay."""
    from relation_extraction_ray.functions.relational import _cents, grouped_regression

    return grouped_regression(
        _read(sf_dir, "lineitem", columns=["l_returnflag", "l_quantity", "l_extendedprice"]),
        "l_returnflag",
        "l_quantity",
        "l_extendedprice",
        y_to_int=_cents,
    )


def _q_scd2(sf_dir: str):
    """SCD Type-2 state history over the event log: per-user validity
    intervals of consecutive equal event_type runs (gaps-and-islands) —
    one user-keyed exchange, fully vectorized run kernel."""
    from relation_extraction_ray.functions.relational import scd2_history

    return scd2_history(
        _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    )


def _q_skyline(sf_dir: str):
    """2-d Pareto frontier of orders (maximize price cents AND order
    epoch-day): per-batch local-frontier prune (a batch-dominated point
    can never be globally non-dominated), only local frontiers travel,
    one final kernel pass; ties survive together."""
    import numpy as np
    import pyarrow as pa

    from relation_extraction_ray.functions.relational import _cents, pareto_skyline

    src = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice", "o_orderdate"])

    def derive(batch: pa.Table) -> pa.Table:
        day = (
            batch.column("o_orderdate")
            .cast(pa.timestamp("s"))
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").cast(pa.int64()),
                "cents": pa.array(
                    _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
                ),
                "day": pa.array(day, pa.int64()),
            }
        )

    return pareto_skyline(
        src.map_batches(derive, batch_format="pyarrow"), "cents", "day"
    )


def _q_merge_apply(sf_dir: str):
    """MERGE / CDC-apply: the next orders version from a deterministic
    changeset — base drops keys %11, upserts bump keys %5 by 777 cents
    (inserting the %55 keys the base dropped), deletes drop keys %13;
    delta wins over deletes.  Adaptive broadcast-vs-partitioned planner;
    this table size takes the broadcast-keys fast path."""
    import numpy as np
    import pyarrow as pa

    from relation_extraction_ray.functions.relational import _cents, merge_upsert

    src = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def derive_base(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        keep = k % 11 != 0
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep], pa.int64()),
                "cents": pa.array(
                    _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))[keep]
                ),
            }
        )

    def derive_delta(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        keep = k % 5 == 0
        cents = _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False)) + 777
        return pa.table(
            {
                "o_orderkey": pa.array(k[keep], pa.int64()),
                "cents": pa.array(cents[keep]),
            }
        )

    def derive_dels(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        return pa.table({"o_orderkey": pa.array(k[k % 13 == 0], pa.int64())})

    return merge_upsert(
        src.map_batches(derive_base, batch_format="pyarrow"),
        src.map_batches(derive_delta, batch_format="pyarrow"),
        "o_orderkey",
        ["cents"],
        deletes=src.map_batches(derive_dels, batch_format="pyarrow"),
    )


def _q_global_rank(sf_dir: str):
    """Global ROW_NUMBER over orders by (price cents DESC, orderkey ASC)
    — the sample-split range-exchange external-sort primitive: one
    projection scan, ≤256 composite boundaries from a deterministic hash
    sample, one range exchange, per-partition vectorized sort + driver
    prefix-sum offsets.  No ds.sort, nothing corpus-sized on the driver."""
    import numpy as np
    import pyarrow as pa

    from relation_extraction_ray.functions.relational import global_rank

    def cents(t: "pa.Table") -> "pa.Table":
        v = np.rint(
            t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"o_orderkey": t.column("o_orderkey"), "cents": pa.array(v)})

    o = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]).map_batches(
        cents, batch_format="pyarrow"
    )
    return global_rank(o, "cents", "o_orderkey", descending=True)


def _q_quantiles_radix(sf_dir: str):
    """Exact global percentile_disc quantiles of the HIGH-CARDINALITY
    lineitem price column via iterative byte-radix selection — no global
    sort, no distinct-value exchange; every fold ships ≤256 counter rows."""
    import numpy as np
    import pyarrow as pa

    from relation_extraction_ray.functions.relational import quantiles_radix

    def cents(t: "pa.Table") -> "pa.Table":
        v = np.rint(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table({"cents": pa.array(v)})

    li = _read(sf_dir, "lineitem", columns=["l_extendedprice"]).map_batches(
        cents, batch_format="pyarrow"
    )
    return quantiles_radix(li, "cents", qs=(1, 25, 50, 75, 99))


def _q_delta_dedup(sf_dir: str):
    """Incremental-ingest dedup: documents split by the deterministic
    md5 bucket into a BASE half (already in the lake, summarized once
    into the 8 KiB Bloom sketch) and a DELTA half (tonight's crawl);
    delta docs already in base — including the sketch's deterministic,
    SQL-replayable false positives — are dropped shuffle-free, then the
    survivors keep-first dedup within the delta."""
    import hashlib

    import pyarrow as pa

    from relation_extraction_ray.functions.clean import delta_dedup

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def split(want_base: bool):
        def f(batch: "pa.Table") -> "pa.Table":
            mask = [
                (int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) % 100 < 50)
                == want_base
                for k in batch.column("doc_id").to_pylist()
            ]
            return batch.filter(pa.array(mask, pa.bool_()))

        return f

    base = docs.map_batches(split(True), batch_format="pyarrow")
    delta = docs.map_batches(split(False), batch_format="pyarrow")
    return delta_dedup(base, delta).sort("doc_id")


def _q_cube(sf_dir: str):
    """GROUP BY CUBE(returnflag, linestatus): all four grouping sets from
    ONE fact pass — coarser sets re-aggregate the ≤6-row fine result."""
    from relation_extraction_ray.functions.relational import lineitem_cube

    return lineitem_cube(
        _read(
            sf_dir,
            "lineitem",
            columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
        )
    )


def _q_events_pivot(sf_dir: str):
    """Crosstab: day × event-type counts as a WIDE table (one column per
    type) — type vocabulary from a tiny distinct pass, facts folded to
    (day, type) counters per batch, vectorized per-partition widening."""
    from relation_extraction_ray.functions.relational import events_pivot

    return events_pivot(_read(sf_dir, "events", columns=["ts", "event_type"]))


def _q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users cohorted by epoch-week of first
    event; each cell counts the cohort's distinct users active at that
    week offset.  Fact pass folds to distinct (user, week) pairs; one
    user-keyed exchange computes cohorts locally."""
    from relation_extraction_ray.functions.relational import cohort_retention

    return cohort_retention(_read(sf_dir, "events", columns=["user_id", "ts"]))


def _q_funnel(sf_dir: str):
    """Ordered funnel view→click→purchase: a user reaches stage k iff a
    stage-k event is STRICTLY later than their earliest qualifying
    stage-(k-1) event; one user-keyed exchange, per-partition numpy
    reduceat stage mins, len(stages) counter rows per partition."""
    from relation_extraction_ray.functions.relational import funnel_counts

    return funnel_counts(
        _read(sf_dir, "events", columns=["user_id", "ts", "event_type"]),
        stages=("view", "click", "purchase"),
    )


def _q_events_unpivot(sf_dir: str):
    """UNPIVOT/melt of the day×type crosstab back to long (day,
    event_type, n) INCLUDING zero cells — the reshape inverse of
    events_pivot; one streaming Arrow-take scan, no exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from relation_extraction_ray.functions.relational import events_pivot, unpivot

    wide = events_pivot(_read(sf_dir, "events", columns=["ts", "event_type"]))
    vcols = [c for c in wide.schema().names if c.startswith("evt_")]
    long = unpivot(wide, ["day"], vcols, var_name="event_type", value_name="n")

    def strip(batch: "pa.Table") -> "pa.Table":
        return batch.set_column(
            batch.column_names.index("event_type"),
            "event_type",
            pc.utf8_replace_slice(batch.column("event_type"), 0, 4, ""),
        )

    return long.map_batches(strip, batch_format="pyarrow").sort(["day", "event_type"])


def _q_zorder_orders(sf_dir: str):
    """Z-order layout diagnostic for orders on (custkey, order day):
    Morton-interleave the normalized keys, bucket by the code's top 6
    bits (the ZORDER-BY rewrite's write partitions) and emit per-bucket
    zone maps — two aggregate-sized passes, nothing fact-sized shuffled."""
    import pyarrow as pa

    from relation_extraction_ray.functions.layout import zorder_zonemaps

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def daynum(batch: "pa.Table") -> "pa.Table":
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "o_daynum": batch.column("o_orderdate")
                .cast(pa.date32())
                .cast(pa.int32())
                .cast(pa.int64()),
            }
        )

    return zorder_zonemaps(
        orders.map_batches(daynum, batch_format="pyarrow"), "o_custkey", "o_daynum"
    )


def _q_column_stats(sf_dir: str):
    """ANALYZE-style catalog stats for orders: counts/nulls/min/max fold
    to one row per column per batch; exact distinct via the standard
    distinct-pair exchange."""
    from relation_extraction_ray.functions.relational import column_stats

    return column_stats(_read(sf_dir, "orders"))


def _q_audit(sf_dir: str):
    """Constraint audit over orders (ETL validation gate): one counter
    row per batch per constraint; broadcast FK probe."""
    from relation_extraction_ray.functions.relational import audit_orders

    return audit_orders(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice", "o_orderdate"]),
        _read(sf_dir, "customer", columns=["c_custkey"]),
    )


def _q_rollup(sf_dir: str):
    """GROUP BY ROLLUP(region, nation): fact-sized work only at the fine
    level; subtotals re-aggregate the |nations|-row result."""
    from relation_extraction_ray.functions.relational import revenue_rollup

    return revenue_rollup(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"]),
        _read(sf_dir, "nation"),
        _read(sf_dir, "region"),
    )


def _q_transitions(sf_dir: str):
    """Markov transition counts between consecutive event types per user
    (sequence mining) — one user-keyed exchange, vectorized shift."""
    from relation_extraction_ray.functions.relational import event_transitions

    return event_transitions(
        _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])
    )


def _q_bloom(sf_dir: str):
    """Mergeable Bloom membership: OR-merged 8 KiB sketch of ordering
    customers, probed per customer batch — no false negatives, and the
    md5-derived false positives are themselves deterministic, so the SQL
    bit replay is exact."""
    import numpy as np
    import pyarrow as pa
    import ray as _ray

    from relation_extraction_ray.functions.sketch import bloom_contains, bloom_sketch

    words = bloom_sketch(_read(sf_dir, "orders", columns=["o_custkey"]), "o_custkey")
    ref = _ray.put(words)

    def probe(batch: pa.Table) -> pa.Table:
        keys = [str(v) for v in batch.column("c_custkey").to_pylist()]
        inb = bloom_contains(_ray.get(ref), keys)
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey"),
                "in_bloom": pa.array(inb.astype(np.int64)),
            }
        )

    return (
        _read(sf_dir, "customer", columns=["c_custkey"])
        .map_batches(probe, batch_format="pyarrow")
        .sort("c_custkey")
    )


def _q_histogram(sf_dir: str):
    """Equi-width 20-bin histogram of order totals — min/max pass, then
    ≤ n_bins partial rows per batch across the exchange."""
    from relation_extraction_ray.functions.relational import price_histogram

    return price_histogram(_read(sf_dir, "orders", columns=["o_totalprice"]), n_bins=20)


def _q_median(sf_dir: str):
    """Grouped exact interpolated median (percentile_cont parity in
    half-cent integers) via the distinct-value-histogram exchange."""
    from relation_extraction_ray.functions.relational import segment_median_balance

    return segment_median_balance(
        _read(sf_dir, "customer", columns=["c_mktsegment", "c_acctbal"])
    )


def _q_fill_gaps(sf_dir: str):
    """Per-user dense daily grid with explicit zero days (resample/gap
    fill) — one user-keyed exchange, integer grid arithmetic in-partition."""
    from relation_extraction_ray.functions.relational import fill_daily_gaps

    return fill_daily_gaps(_read(sf_dir, "events", columns=["user_id", "ts", "value"]))


def _q_gap_stats(sf_dir: str):
    """Per-user inter-event gap stats (lead/lag family): n/min/max/total
    whole-second gaps over (ts, event_id) order."""
    from relation_extraction_ray.functions.relational import user_gap_stats

    return user_gap_stats(_read(sf_dir, "events", columns=["user_id", "ts", "event_id"]))


def _q_nation_stats(sf_dir: str):
    """Dimension-preserving outer aggregate: all nations, zero-customer
    nations kept via the zero-row union-completion idiom."""
    from relation_extraction_ray.functions.relational import nation_customer_stats

    return nation_customer_stats(
        _read(sf_dir, "customer", columns=["c_nationkey", "c_acctbal"]),
        _read(sf_dir, "nation", columns=["n_nationkey"]),
    )


def _q_deciles(sf_dir: str):
    """SQL-NTILE equal-depth tiles of account balance within segment —
    one segment-keyed exchange, vectorized in-partition bucketing."""
    from relation_extraction_ray.functions.relational import segment_balance_deciles

    return segment_balance_deciles(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"]),
        n_tiles=10,
    )


def _q_mode(sf_dir: str):
    """Per-user modal event type (grouped MODE, ties by value asc) —
    combine-fed pair counts, one group-keyed argmax exchange."""
    from relation_extraction_ray.functions.relational import grouped_mode

    return grouped_mode(
        _read(sf_dir, "events", columns=["user_id", "event_type"]), "user_id", "event_type"
    )


def _q_corr(sf_dir: str):
    """Pearson correlation price↔quantity via mergeable integer
    sufficient stats (6 int64s per block; one fixed IEEE final form)."""
    from relation_extraction_ray.functions.relational import corr_price_qty

    return corr_price_qty(
        _read(sf_dir, "lineitem", columns=["l_extendedprice", "l_quantity"])
    )


def _q_basket_rules(sf_dir: str):
    """Association rules over session baskets: support/confidence/lift
    of directional event-type pairs within 30-min gap sessions — one
    user-keyed exchange, ≤ types²+types+1 counter rows per partition."""
    from relation_extraction_ray.functions.relational import basket_rules

    return basket_rules(
        _read(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])
    )


def _q_rolling_wau(sf_dir: str):
    """7-day rolling active users for every calendar day: distinct
    (user, day) fold, ONE user-keyed exchange emitting ±1 interval
    deltas (a year-long user costs 2 rows), day-keyed counter fold,
    driver prefix-sum over the ≤ span-many rows."""
    from relation_extraction_ray.functions.relational import rolling_active_users

    return rolling_active_users(
        _read(sf_dir, "events", columns=["user_id", "ts"]), window=7
    )


def _q_spearman(sf_dir: str):
    """Tie-aware Spearman rank correlation quantity↔discount: pair-count
    exchange bounded by distinct_x·distinct_y, driver-exact doubled-rank
    integer sufficient stats, one fixed IEEE final form."""
    from relation_extraction_ray.functions.relational import spearman_rank_corr

    return spearman_rank_corr(
        _read(sf_dir, "lineitem", columns=["l_quantity", "l_discount"]),
        "l_quantity",
        "l_discount",
    )


def _q_top_orders(sf_dir: str):
    from relation_extraction_ray.functions.relational import top_orders

    return top_orders(_read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"]), k=10)


def _q_events(sf_dir: str):
    from relation_extraction_ray.functions.relational import events_by_day

    return events_by_day(_read(sf_dir, "events", columns=["event_id", "ts", "event_type"]))


def _q_seq_packing(sf_dir: str):
    from relation_extraction_ray.functions.relational import pack_sequences

    return pack_sequences(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), capacity=512, n_buckets=64
    ).sort("doc_id")


def _q_redact_props(sf_dir: str):
    from relation_extraction_ray.functions.text import redact

    return redact(
        _read(sf_dir, "events", columns=["event_id", "props"]), column="props"
    ).sort("event_id")


def _q_props_stats(sf_dir: str):
    from relation_extraction_ray.functions.semistructured import json_field_stats

    return json_field_stats(
        _read(sf_dir, "events", columns=["event_type", "props"])
    ).sort("event_type")


def _q_running_totals(sf_dir: str):
    from relation_extraction_ray.functions.relational import user_running_totals

    return user_running_totals(_read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"]))


def _q_asof_join(sf_dir: str):
    from relation_extraction_ray.functions.relational import asof_prior_event

    return asof_prior_event(
        _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    )


def _q_asof_join_bucketed(sf_dir: str):
    """The (user, time-bucket) boundary-carry as-of — the scale path
    that never co-locates one user's whole history; output identical to
    the plain as-of, so the SAME ASOF-join SQL is its oracle."""
    from relation_extraction_ray.functions.relational import asof_prior_event_bucketed

    return asof_prior_event_bucketed(
        _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])
    )


def _q_running_totals_bucketed(sf_dir: str):
    """The (user, time-bucket) prefix-offset running total — same window
    SQL oracle as the plain version by construction."""
    from relation_extraction_ray.functions.relational import user_running_totals_bucketed

    return user_running_totals_bucketed(
        _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    )


def _q_sample(sf_dir: str):
    from relation_extraction_ray.functions.relational import deterministic_sample

    return deterministic_sample(_read(sf_dir, "documents", columns=["doc_id"]), "doc_id", pct=20)


def _q_mixture_sample(sf_dir: str):
    """Temperature-balanced source mixture (τ=1/2): per-source quotas
    ∝ isqrt(n_s), each source keeps its quota smallest-(md5, id) docs —
    the multilingual-LM upsampling rule, exact and deterministic."""
    from relation_extraction_ray.functions.curation import mixture_sample

    return mixture_sample(
        _read(sf_dir, "documents", columns=["doc_id", "source"]), total=400
    )


BUDGET_TOKENS = 40000


def _q_budget_select(sf_dir: str):
    """Token-budget corpus selection: quality-ranked greedy fill to a
    token budget; the cut point is found by a byte-radix weighted-order-
    statistic search — no global sort, no prefix-sum over the corpus."""
    from relation_extraction_ray.functions.curation import budget_select

    return budget_select(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), BUDGET_TOKENS
    )


STRATA_PCT = {"en": 30, "de": 10, "fr": 50, "es": 20}  # zh falls to default 5


def _q_stratified_sample(sf_dir: str):
    """Per-language quota sampling (domain mixing): keep a different
    deterministic hash fraction of each lang stratum in one pass."""
    from relation_extraction_ray.functions.relational import stratified_sample

    return stratified_sample(
        _read(sf_dir, "documents", columns=["doc_id", "lang"]),
        key_col="doc_id",
        strata_col="lang",
        pct_by_stratum=STRATA_PCT,
        default_pct=5,
    ).sort("doc_id")


def _q_distinct_texts(sf_dir: str):
    from relation_extraction_ray.functions.relational import distinct_texts

    return distinct_texts(_read(sf_dir, "documents", columns=["text"]))


# --- dedup / LSH family (SQL oracles recompute the hashes from scratch) ----


def _q_dedup_minhash(sf_dir: str):
    from relation_extraction_ray.functions.dedup import minhash_candidate_pairs, verify_jaccard

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    verified = verify_jaccard(minhash_candidate_pairs(docs), docs, threshold=0.8)
    return verified.sort(["doc_a", "doc_b"])


def _q_simhash(sf_dir: str):
    from relation_extraction_ray.functions.dedup import simhash_table

    return simhash_table(_read(sf_dir, "documents", columns=["doc_id", "text"])).sort("doc_id")


def _q_simhash_pairs(sf_dir: str):
    from relation_extraction_ray.functions.dedup import simhash_pairs

    return simhash_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), max_hamming=3
    ).sort(["doc_a", "doc_b"])


def _q_lang_id(sf_dir: str):
    from relation_extraction_ray.functions.text import lang_id

    return lang_id(_read(sf_dir, "documents", columns=["doc_id", "text"])).sort("doc_id")


def _q_legacy_tokens(sf_dir: str):
    from relation_extraction_ray.functions.text import legacy_tokens

    return legacy_tokens(_read(sf_dir, "documents", columns=["doc_id", "text"])).sort(
        "doc_id"
    )


def _q_oov_filter(sf_dir: str):
    from relation_extraction_ray.functions.text import oov_filter

    kept = oov_filter(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), min_count=50
    )
    return kept.select_columns(["doc_id"]).sort("doc_id")


def _q_knn_lsh(sf_dir: str):
    from relation_extraction_ray.functions.ann import knn_lsh

    # n_planes pinned: the SQL oracle replays exactly 8 planes.  The
    # library default (n_planes=None) derives the plane count from the
    # table size instead (functions/ann.py derived_n_planes).
    return knn_lsh(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        KNN_QUERY_IDS,
        k=10,
        n_planes=8,
    ).sort(["query_id", "rank"])


def _q_centroids(sf_dir: str):
    """Per-label embedding centroids: grouped vector mean over exact
    integer micro-units (labels×dim rows per batch cross the exchange)."""
    from relation_extraction_ray.functions.ann import label_centroids

    return label_centroids(_read(sf_dir, "embeddings", columns=["label", "embedding"]))


def _q_knn_sq8(sf_dir: str):
    """int8 scalar-quantized top-k — 4× less memory traffic per stored
    vector; quantizer + integer-dot ranking replayed exactly in SQL."""
    from relation_extraction_ray.functions.ann import knn_quantized

    return knn_quantized(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]), [10, 11, 12, 13, 14], k=10
    )


def _q_knn_ivf(sf_dir: str):
    from relation_extraction_ray.functions.ann import knn_ivf

    # n_probe = n_centroids degenerates IVF to EXACT top-k (every query
    # probes every inverted list), so brute-force SQL is a true oracle for
    # the full IVF machinery: the deterministic k-means quantizer, the one
    # keyed list shuffle, the per-list scan and the final top-k reduce all
    # participate in the checked result.  The approximate (n_probe <
    # n_centroids) recall path is covered by tests/test_dedup_ann.py.
    return knn_ivf(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        IVF_QUERY_IDS,
        k=10,
        n_centroids=8,
        n_probe=8,
    ).sort(["query_id", "rank"])


def _q_ngram_jaccard(sf_dir: str):
    """EXACT all-pairs n-gram Jaccard (prefix filtering) — unlike
    dedup_minhash the oracle is pure semantics (all-pairs Jaccard in SQL),
    not an algorithm replay, so this checks completeness too."""
    from relation_extraction_ray.functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), threshold=0.8
    ).sort(["doc_a", "doc_b"])


def _q_dedup_keep_one(sf_dir: str):
    """Keep-one near-dup dedup: corpus minus the non-canonical members of
    every ngram-Jaccard duplicate cluster (threshold 0.8)."""
    from relation_extraction_ray.functions.components import dedup_keep_one
    from relation_extraction_ray.functions.dedup import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=0.8)
    return (
        dedup_keep_one(docs, pairs)
        .select_columns(["doc_id"])
        .sort("doc_id")
    )


def _q_decontam(sf_dir: str):
    """Benchmark decontamination (GPT-3 app. C / Gopher §A.2 shape):
    contamination report of docs sharing an 8-gram with a deterministic
    synthetic eval set (every 19th doc's tokens[2:18] window)."""
    from relation_extraction_ray.functions.decontam import (
        decontaminate,
        synthetic_benchmark_grams,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    bench = synthetic_benchmark_grams(docs, n=8, every=19, window=(2, 18))
    return decontaminate(docs, bench, n=8).sort("doc_id")


def _q_sessionize(sf_dir: str):
    """Gap-based session windows (30-min inactivity gap) per user over the
    events stream: one row per session with count, first/last ts, cents."""
    from relation_extraction_ray.functions.relational import sessionize

    return sessionize(
        _read(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"]),
        gap_minutes=30,
    ).sort(["user_id", "session_idx"])


def _q_repetition(sf_dir: str):
    """Within-doc n-gram repetition stats (Gopher/MassiveText repetition
    filters): dup/top 2- and 3-gram milli-fractions per document."""
    from relation_extraction_ray.functions.text import repetition_stats

    return repetition_stats(
        _read(sf_dir, "documents", columns=["doc_id", "text"])
    ).sort("doc_id")


def _q_boilerplate(sf_dir: str):
    """Cross-corpus boilerplate ratio: fraction of each doc's distinct
    3-shingles occurring in >= 3 documents corpus-wide (CCNet-adjacent
    common-shingle detector, exact df via shingle-partitioned exchange)."""
    from relation_extraction_ray.functions.text import boilerplate_score

    return boilerplate_score(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n=3, min_df=3
    ).sort("doc_id")


def _q_tfidf(sf_dir: str):
    """Per-document top-5 terms by tf-idf (raw-ratio idf, milli-integer
    score): one vocab-bounded df shuffle + broadcast, then a single
    streaming score+top-k pass."""
    from relation_extraction_ray.functions.text import tfidf_top_terms

    return tfidf_top_terms(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), k=5
    ).sort(["doc_id", "rank"])


#: BM25 query workload — fixed (query_id, text) pairs over the synthetic
#: corpus vocabulary; shared verbatim with the SQL oracle's VALUES list.
BM25_QUERIES = [
    (0, "customer order join"),
    (1, "hash table scan slow"),
    (2, "spark stream window"),
]


def _bm25_values() -> str:
    """SQL VALUES list of (query_id, term) rows — the exact term sets the
    engine derives from :data:`BM25_QUERIES` (lower, space-split, distinct)."""
    rows = []
    for qid, text in BM25_QUERIES:
        for t in sorted({x for x in text.lower().split(" ") if x}):
            rows.append(f"({qid}, '{t}')")
    return ", ".join(rows)


def _q_bm25(sf_dir: str):
    """BM25 top-10 retrieval for a fixed 3-query workload: one tiny
    stats exchange (bounded by |query terms| × n_batches), broadcast
    (df, idf, avgdl), then a streaming score pass with per-batch local
    top-k — integer micro-unit contributions so ranking is bit-exact."""
    from relation_extraction_ray.functions.search import bm25_search

    return bm25_search(
        _read(sf_dir, "documents", columns=["doc_id", "text"]),
        BM25_QUERIES,
        k=10,
    ).sort(["query_id", "rank"])


def _q_dup_passages(sf_dir: str):
    """Cross-document duplicated passages: every token 5-gram occurring
    in ≥ 2 docs with doc/occurrence counts — vectorized window join of
    the flattened token stream, one (ngram, doc)-bounded exchange."""
    from relation_extraction_ray.functions.text import dup_passages

    return dup_passages(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n=5
    ).sort("ngram")


def _bpe_sql(n_merges: int = 6) -> str:
    """Unrolled SQL replay of BPE-style phrase merging: per round, the
    pair count over the current sequences, the (cnt desc, x, y) argmax,
    and the literal ``replace(' x y ', ' x_y ')`` rewrite — both engines
    share the same non-overlapping left-to-right replace semantics."""
    parts = [
        "seq0 AS MATERIALIZED (SELECT doc_id, ' ' || lower(text) || ' ' AS seq"
        " FROM documents)"
    ]
    for r in range(1, n_merges + 1):
        parts.append(
            f"p{r} AS MATERIALIZED ("
            f"SELECT t1 AS x, t2 AS y, CAST(count(*) AS BIGINT) AS cnt FROM ("
            f"SELECT toks[i.i + 1] AS t1, toks[i.i + 2] AS t2"
            f" FROM (SELECT string_split(seq, ' ') AS toks FROM seq{r - 1}) s,"
            f" LATERAL (SELECT unnest(range(len(toks) - 1)) AS i) i)"
            f" WHERE t1 <> '' AND t2 <> '' GROUP BY t1, t2)"
        )
        parts.append(
            f"m{r} AS MATERIALIZED (SELECT x, y, x || '_' || y AS merged, cnt"
            f" FROM p{r} ORDER BY cnt DESC, x ASC, y ASC LIMIT 1)"
        )
        if r < n_merges:
            parts.append(
                f"seq{r} AS MATERIALIZED (SELECT doc_id,"
                f" replace(seq, ' ' || m{r}.x || ' ' || m{r}.y || ' ',"
                f" ' ' || m{r}.merged || ' ') AS seq FROM seq{r - 1}, m{r})"
            )
    union = " UNION ALL ".join(
        f"SELECT {r} AS round, x, y, merged, cnt FROM m{r}"
        for r in range(1, n_merges + 1)
    )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"\n    SELECT CAST(round AS BIGINT) AS round, x, y, merged, cnt"
        f" FROM ({union}) ORDER BY round"
    )


def _bpe_apply_sql(n_merges: int = 6) -> str:
    """The bpe unroll carried through ALL rewrites, finishing with the
    per-doc before/after symbol counts (tokenizer-apply replay)."""
    parts = [
        "seq0 AS MATERIALIZED (SELECT doc_id, ' ' || lower(text) || ' ' AS seq"
        " FROM documents)"
    ]
    for r in range(1, n_merges + 1):
        parts.append(
            f"p{r} AS MATERIALIZED ("
            f"SELECT t1 AS x, t2 AS y, CAST(count(*) AS BIGINT) AS cnt FROM ("
            f"SELECT toks[i.i + 1] AS t1, toks[i.i + 2] AS t2"
            f" FROM (SELECT string_split(seq, ' ') AS toks FROM seq{r - 1}) s,"
            f" LATERAL (SELECT unnest(range(len(toks) - 1)) AS i) i)"
            f" WHERE t1 <> '' AND t2 <> '' GROUP BY t1, t2)"
        )
        parts.append(
            f"m{r} AS MATERIALIZED (SELECT x, y, x || '_' || y AS merged, cnt"
            f" FROM p{r} ORDER BY cnt DESC, x ASC, y ASC LIMIT 1)"
        )
        parts.append(
            f"seq{r} AS MATERIALIZED (SELECT doc_id,"
            f" replace(seq, ' ' || m{r}.x || ' ' || m{r}.y || ' ',"
            f" ' ' || m{r}.merged || ' ') AS seq FROM seq{r - 1}, m{r})"
        )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
        SELECT d.doc_id,
               CAST(len(string_split(d.text, ' ')) AS BIGINT) AS n_tokens,
               CAST(len(list_filter(string_split(s.seq, ' '), x -> x <> ''))
                    AS BIGINT) AS n_symbols
        FROM documents d JOIN seq{n_merges} s USING (doc_id) ORDER BY d.doc_id
        """
    )


def _q_bpe_encode(sf_dir: str):
    """Tokenizer apply: train 6 merges, encode every doc, report per-doc
    symbol counts before/after — one streaming scan, no exchange."""
    from relation_extraction_ray.functions.text import bpe_apply, bpe_phrases

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    merges = bpe_phrases(docs, n_merges=6)
    return bpe_apply(docs, merges).sort("doc_id")


def _q_bpe(sf_dir: str):
    """BPE-style phrase-merge training (6 rounds): per round one
    combine-fed pair-count exchange + a streaming rewrite scan."""
    from relation_extraction_ray.functions.text import bpe_phrases

    return bpe_phrases(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n_merges=6
    )


def _q_top_terms_src(sf_dir: str):
    """Per-source top-5 terms (mixture profile) — combine-fed pair
    counts + one group-keyed segmented rank."""
    from relation_extraction_ray.functions.text import top_terms_by_source

    return top_terms_by_source(
        _read(sf_dir, "documents", columns=["source", "text"]), k=5
    )


def _q_vocab_diff(sf_dir: str):
    """EXCEPT/INTERSECT on derived vocabularies of two corpus slices —
    one combine-fed token-keyed fold, vectorized membership label."""
    from relation_extraction_ray.functions.text import vocab_diff

    return vocab_diff(
        _read(sf_dir, "documents", columns=["source", "text"]), "src1", "src2"
    )


def _q_postings(sf_dir: str):
    """Inverted-index build: per token (df ≥ 2), document frequency,
    total tf and the full ascending-doc posting list — one combine-fed
    (token, doc, tf) exchange, per-token-partition vectorized list build."""
    from relation_extraction_ray.functions.text import build_postings

    return build_postings(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), min_df=2
    ).sort("token")


def _q_dup_spans(sf_dir: str):
    """Maximal duplicated-passage extents per doc: duplicated 5-gram
    windows merged into maximal covered-token intervals (gaps-and-islands,
    merge on overlap-or-touch) — span count / coverage / longest span."""
    from relation_extraction_ray.functions.text import dup_spans

    return dup_spans(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), n=5
    ).sort("doc_id")


def _q_semantic_dedup(sf_dir: str):
    """SemDeDup: k-centers quantizer (data-point centroids via integer
    micro-cosine farthest-point selection — fully SQL-unrollable), one
    streaming assignment scan, one cluster-keyed exchange, per-cluster
    keep-first prune.  Scoped to the same deterministic vec_id slice as
    dedup_embed (whole table at sf0.01, fixed quarter at sf0.1)."""
    from relation_extraction_ray.functions.ann import semantic_dedup

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]).filter(
        expr="vec_id < 500"
    )
    return semantic_dedup(emb, n_centroids=8, threshold=0.4).sort("vec_id")


def _semantic_dedup_sql(k: int = 8, tau: int = 400000) -> str:
    """Unrolled SQL replay of the k-centers selection + assignment +
    keep-first prune (the pagerank-style unrolled-CTE trick): every
    decision compares integer micro-cosines, so the replay is exact."""

    def mic(a: str, b: str) -> str:
        return (
            f"CAST(floor(list_cosine_similarity({a}, {b}) * 1000000.0 + 0.5)"
            " AS BIGINT)"
        )

    parts = [
        "emb AS (SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE))"
        " AS e FROM embeddings WHERE vec_id < 500)",
        "c0 AS (SELECT vec_id, e FROM emb ORDER BY vec_id LIMIT 1)",
        f"b0 AS (SELECT emb.vec_id, {mic('emb.e', 'c0.e')} AS best FROM emb, c0)",
    ]
    for i in range(1, k):
        parts.append(
            f"c{i} AS (SELECT emb.vec_id, emb.e FROM emb"
            f" JOIN b{i - 1} USING (vec_id)"
            f" ORDER BY b{i - 1}.best ASC, emb.vec_id ASC LIMIT 1)"
        )
        if i < k - 1:
            parts.append(
                f"b{i} AS (SELECT b{i - 1}.vec_id,"
                f" greatest(b{i - 1}.best, {mic('emb.e', f'c{i}.e')}) AS best"
                f" FROM b{i - 1} JOIN emb USING (vec_id), c{i})"
            )
    cents = " UNION ALL ".join(f"SELECT {i} AS cid, e FROM c{i}" for i in range(k))
    parts.append(f"cents AS ({cents})")
    parts.append(
        "sims AS (SELECT emb.vec_id, cents.cid,"
        f" {mic('emb.e', 'cents.e')} AS s FROM emb CROSS JOIN cents)"
    )
    parts.append(
        "asg AS (SELECT vec_id, cid FROM ("
        "SELECT vec_id, cid, row_number() OVER ("
        "PARTITION BY vec_id ORDER BY s DESC, cid ASC) AS rn FROM sims"
        ") WHERE rn = 1)"
    )
    parts.append(
        "pairs AS (SELECT b.vec_id AS v,"
        f" {mic('ea.e', 'eb.e')} AS s"
        " FROM asg a JOIN asg b ON a.cid = b.cid AND a.vec_id < b.vec_id"
        " JOIN emb ea ON ea.vec_id = a.vec_id"
        " JOIN emb eb ON eb.vec_id = b.vec_id)"
    )
    parts.append("prior AS (SELECT v AS vec_id, max(s) AS mp FROM pairs GROUP BY v)")
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
        SELECT asg.vec_id, CAST(asg.cid AS BIGINT) AS cluster_id,
               CAST(coalesce(prior.mp, -2000000) AS BIGINT) AS max_prior_micro,
               coalesce(prior.mp, -2000000) < {tau} AS keep
        FROM asg LEFT JOIN prior USING (vec_id) ORDER BY asg.vec_id
        """
    )


def _pq_sql(
    m_sub: int = 4,
    k: int = 8,
    dim: int = 64,
    query_ids: tuple = (15, 16, 17, 18, 19),
    topk: int = 10,
    sample: int = 4096,
) -> str:
    """Unrolled SQL replay of PQ (functions/ann.py knn_pq): per-subspace
    k-centers codebook selection (the semantic_dedup unroll, run on
    list_slice subvectors), argmax code assignment, and ADC ranking by
    the integer sum of per-slice micro-cosines.  MATERIALIZED CTEs keep
    the unroll from re-expanding combinatorially (the kcore lesson)."""

    def mic(a: str, b: str) -> str:
        return (
            f"CAST(floor(list_cosine_similarity({a}, {b}) * 1000000.0 + 0.5)"
            " AS BIGINT)"
        )

    ds_ = dim // m_sub
    parts = [
        "emb AS MATERIALIZED (SELECT vec_id,"
        " list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e FROM embeddings)",
        f"samp AS MATERIALIZED (SELECT vec_id, e FROM emb ORDER BY vec_id LIMIT {sample})",
        f"qq AS MATERIALIZED (SELECT vec_id, e FROM emb WHERE vec_id IN {query_ids})",
    ]
    for j in range(m_sub):
        sl = f"list_slice(samp.e, {j * ds_ + 1}, {(j + 1) * ds_})"
        parts.append(
            f"s{j}c0 AS (SELECT vec_id, list_slice(e, {j * ds_ + 1}, {(j + 1) * ds_})"
            " AS e FROM samp ORDER BY vec_id LIMIT 1)"
        )
        parts.append(
            f"s{j}b0 AS MATERIALIZED (SELECT samp.vec_id,"
            f" {mic(sl, f's{j}c0.e')} AS best FROM samp, s{j}c0)"
        )
        for i in range(1, k):
            parts.append(
                f"s{j}c{i} AS (SELECT samp.vec_id,"
                f" list_slice(samp.e, {j * ds_ + 1}, {(j + 1) * ds_}) AS e"
                f" FROM samp JOIN s{j}b{i - 1} USING (vec_id)"
                f" ORDER BY s{j}b{i - 1}.best ASC, samp.vec_id ASC LIMIT 1)"
            )
            if i < k - 1:
                parts.append(
                    f"s{j}b{i} AS MATERIALIZED (SELECT s{j}b{i - 1}.vec_id,"
                    f" greatest(s{j}b{i - 1}.best, {mic(sl, f's{j}c{i}.e')}) AS best"
                    f" FROM s{j}b{i - 1} JOIN samp USING (vec_id), s{j}c{i})"
                )
        cents = " UNION ALL ".join(
            f"SELECT {i} AS cid, e FROM s{j}c{i}" for i in range(k)
        )
        parts.append(f"cents{j} AS MATERIALIZED ({cents})")
        esl = f"list_slice(emb.e, {j * ds_ + 1}, {(j + 1) * ds_})"
        parts.append(
            f"codes{j} AS MATERIALIZED (SELECT vec_id, cid AS code FROM ("
            f"SELECT emb.vec_id, c.cid, row_number() OVER ("
            f"PARTITION BY emb.vec_id ORDER BY {mic(esl, 'c.e')} DESC, c.cid ASC"
            f") AS rn FROM emb CROSS JOIN cents{j} c) WHERE rn = 1)"
        )
        qsl = f"list_slice(q.e, {j * ds_ + 1}, {(j + 1) * ds_})"
        parts.append(
            f"lut{j} AS MATERIALIZED (SELECT q.vec_id AS qid, c.cid,"
            f" {mic(qsl, 'c.e')} AS s FROM qq q CROSS JOIN cents{j} c)"
        )
    joins = " ".join(
        f"JOIN codes{j} c{j} ON c{j}.vec_id = c0.vec_id" for j in range(1, m_sub)
    )
    lut_joins = " ".join(
        f"JOIN lut{j} l{j} ON l{j}.cid = c{j}.code AND l{j}.qid = l0.qid"
        for j in range(1, m_sub)
    )
    score = " + ".join(f"l{j}.s" for j in range(m_sub))
    parts.append(
        f"sc AS (SELECT l0.qid AS query_id, c0.vec_id AS neighbor_id,"
        f" {score} AS score FROM codes0 c0 {joins}"
        f" JOIN lut0 l0 ON l0.cid = c0.code {lut_joins}"
        f" WHERE c0.vec_id <> l0.qid)"
    )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
        SELECT query_id, neighbor_id, rank FROM (
          SELECT query_id, neighbor_id, CAST(row_number() OVER (
            PARTITION BY query_id ORDER BY score DESC, neighbor_id ASC
          ) AS BIGINT) AS rank FROM sc)
        WHERE rank <= {topk} ORDER BY query_id, rank
        """
    )


def _q_knn_pq(sf_dir: str):
    """PQ-ADC top-k (4 subspaces × 8 centroids): codebooks trained with
    the deterministic k-centers unroll per slice, ADC integer ranking."""
    from relation_extraction_ray.functions.ann import knn_pq

    return knn_pq(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        [15, 16, 17, 18, 19],
        k=10,
        m_sub=4,
        n_cents=8,
    ).sort(["query_id", "rank"])


def _q_knn_ivfpq(sf_dir: str):
    """Composed IVF-PQ (IVFADC): coarse lists + PQ-ADC within probed
    lists.  n_probe = n_centroids degenerates the routing so the full
    PQ SQL replay is a true end-to-end oracle for the composition (the
    knn_ivf split); approximate probing is pytest-covered."""
    from relation_extraction_ray.functions.ann import knn_ivfpq

    return knn_ivfpq(
        _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        [20, 21, 22, 23, 24],
        k=10,
        n_centroids=8,
        n_probe=8,
        m_sub=4,
        n_cents=8,
    ).sort(["query_id", "rank"])


def _q_corpus_drift(sf_dir: str):
    """Per-source chi-square divergence vs the corpus token distribution
    (domain-shift diagnostic): one combine-fed (source, token) exchange,
    two tiny derived groupbys, broadcast token totals, integer-nano terms."""
    from relation_extraction_ray.functions.text import corpus_drift

    return corpus_drift(
        _read(sf_dir, "documents", columns=["doc_id", "text", "source"])
    ).sort("source")


def _q_token_cooc(sf_dir: str):
    """Top-50-vocab document-level co-occurrence + lift: per-batch boolean
    presence matrix → V×V int64 partial, elementwise-sum merge — no
    per-pair exchange at any corpus size."""
    from relation_extraction_ray.functions.text import token_cooccurrence

    return token_cooccurrence(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), top_v=50
    )


#: CMS probe workload: frequent vocabulary + absent tokens (the absent
#: ones exercise the empty-cell → 0 path); shared with the SQL VALUES list.
CMS_PROBES = [
    "batch", "column", "customer", "filter", "hash", "join",
    "row", "scan", "spark", "window", "nosuchtoken", "zzz_absent",
]


def _q_cms_counts(sf_dir: str):
    """Count-min-sketch point queries for a fixed probe set: one
    streaming fold into a 4×1024 int64 matrix (32 KiB per block,
    elementwise-sum merge), estimates = min over the d row cells.  The
    sketch itself — not just the estimates — is replayed exactly in SQL."""
    import pandas as pd

    from relation_extraction_ray.functions.sketch import cms_estimate, cms_sketch

    counts = cms_sketch(_read(sf_dir, "documents", columns=["text"]))
    probes = sorted(CMS_PROBES)
    return pd.DataFrame(
        {"token": probes, "est": cms_estimate(counts, probes)}
    )


def _q_hll_distinct(sf_dir: str):
    """HyperLogLog approximate-distinct audit (p=12, 4 KiB registers)
    beside the exact count for two integer keys: the 100-TB cardinality
    path (one register array per block across the exchange, max-merge,
    retry-safe) with its estimate in the cross-engine fixed-IEEE form —
    the SQL oracle replays the splitmix64 double-mix hash, the register
    fold AND the estimate bit-for-bit."""
    from relation_extraction_ray.functions.sketch import hll_distinct_audit

    return hll_distinct_audit(
        [
            (
                "lineitem.l_orderkey",
                _read(sf_dir, "lineitem", columns=["l_orderkey"]),
                "l_orderkey",
            ),
            (
                "orders.o_custkey",
                _read(sf_dir, "orders", columns=["o_custkey"]),
                "o_custkey",
            ),
        ]
    )


def _hll_sql_side(tag: str, table: str, col: str) -> tuple[str, str]:
    """(CTE chain, final-select) replaying the engine's HLL on an integer
    key column: ``hash_columns`` is ``mix64(mix64(v))`` for one int col
    (joins.py:157-164), each splitmix64 step written as its own CTE with
    multiply-mod-2^64 done hi/lo-split so HUGEINT never overflows; then
    bucket/rho register fold (sketch.py:hll_fold) and the exact-integer
    harmonic denominator + one fixed IEEE op sequence
    (sketch.py:hll_estimate_exact_form)."""
    m64 = "18446744073709551616"
    muls = ("13787848793156543929", "10723151780598845931")  # splitmix64 odd constants
    shifts = ("1073741824", "134217728", "2147483648")  # 2^30, 2^27, 2^31
    ctes = [f"v{tag} AS (SELECT CAST({col} AS HUGEINT) AS x FROM {table})"]
    cur = f"v{tag}"
    for r in range(2):  # hash_columns: h = mix64(0 + mix64(v))
        for i, step in enumerate(("s0", "m0", "s1", "m1", "s2")):
            nm = f"h{tag}{r}{i}"
            if step.startswith("m"):
                c = f"CAST({muls[int(step[1])]} AS HUGEINT)"
                expr = (
                    f"(((x // 4294967296 * {c}) % {m64}) * 4294967296"
                    f" + (x % 4294967296) * {c}) % {m64}"
                )
            else:
                expr = f"xor(x, x // {shifts[int(step[1])]})"
            ctes.append(f"{nm} AS (SELECT {expr} AS x FROM {cur})")
            cur = nm
    ctes.append(
        f"r{tag} AS (SELECT x // 4503599627370496 AS bucket,"
        f" CASE WHEN x % 4503599627370496 = 0 THEN 53"
        f" ELSE 53 - length(bin(CAST(x % 4503599627370496 AS BIGINT))) END AS rho"
        f" FROM {cur})"
    )
    ctes.append(f"g{tag} AS (SELECT bucket, max(rho) AS rho FROM r{tag} GROUP BY bucket)")
    ctes.append(
        f"s{tag} AS (SELECT CAST(sum(CAST(CAST(1 AS BIGINT) << (63 - rho) AS HUGEINT))"
        f" AS HUGEINT) + (4096 - count(*)) * CAST(9223372036854775808 AS HUGEINT) AS s,"
        f" CAST(4096 - count(*) AS BIGINT) AS zeros FROM g{tag})"
    )
    ctes.append(
        f"e{tag} AS (SELECT CASE WHEN raw <= 2.5e0 * 4096 AND zeros > 0"
        f" THEN 4096 * ln(4096 / CAST(zeros AS DOUBLE)) ELSE raw END AS est, zeros"
        f" FROM (SELECT 0.7213e0 / (1.0e0 + 1.079e0 / 4096) * 4096 * 4096"
        f" * 9.223372036854775808e18 / CAST(s AS DOUBLE) AS raw, zeros FROM s{tag}))"
    )
    final = (
        f"SELECT '{table}.{col}' AS source,"
        f" CAST(floor(est * 1000.0e0) AS BIGINT) AS est_milli,"
        f" zeros AS n_zero_regs,"
        f" (SELECT CAST(count(DISTINCT {col}) AS BIGINT) FROM {table}) AS true_distinct"
        f" FROM e{tag}"
    )
    return ", ".join(ctes), final


def _hll_sql() -> str:
    c1, f1 = _hll_sql_side("a", "lineitem", "l_orderkey")
    c2, f2 = _hll_sql_side("b", "orders", "o_custkey")
    return (
        f"WITH {c1}, {c2} SELECT * FROM ({f1} UNION ALL {f2}) ORDER BY source"
    )


def _cms_sql() -> str:
    """Exact SQL replay of the count-min sketch: same md5-slice buckets,
    same cell sums, min over d LEFT-JOINed cells (absent cell = 0)."""
    h = _md5u64("'cms:' || token")
    vals = ", ".join(f"('{t}')" for t in sorted(CMS_PROBES))
    return f"""
        WITH tok AS (
          SELECT unnest(string_split(lower(text), ' ')) AS token FROM documents
        ), tc AS (
          SELECT token, CAST(count(*) AS BIGINT) AS c FROM tok
          WHERE token <> '' GROUP BY token
        ), hh AS (
          SELECT token, c, {h} AS h64 FROM tc
        ), jj AS (SELECT unnest(range(4)) AS j),
        cells AS (
          SELECT jj.j AS j,
                 CAST(((hh.h64 >> CAST(16 * jj.j AS UBIGINT)) & 65535) % 1024 AS BIGINT) AS b,
                 CAST(sum(hh.c) AS BIGINT) AS s
          FROM hh CROSS JOIN jj GROUP BY jj.j, b
        ), probes(token) AS (VALUES {vals}),
        ph AS (SELECT token, {h} AS h64 FROM probes),
        pe AS (
          SELECT ph.token, min(coalesce(cells.s, 0)) AS est
          FROM ph CROSS JOIN jj
          LEFT JOIN cells ON cells.j = jj.j
            AND cells.b = CAST(((ph.h64 >> CAST(16 * jj.j AS UBIGINT)) & 65535) % 1024 AS BIGINT)
          GROUP BY ph.token
        )
        SELECT token, CAST(est AS BIGINT) AS est FROM pe ORDER BY token
    """


def _q_window_join(sf_dir: str):
    """Keyed band (interval) join: per signup event, the same user's
    purchase count and milli-value sum within the next 24 h — one
    side-tagged hash exchange, vectorized composite-key searchsorted
    probe + prefix-sum range gather per partition."""
    from relation_extraction_ray.functions.relational import purchases_within_window

    return purchases_within_window(
        _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type", "value"])
    )


def _q_clean_corpus(sf_dir: str):
    """Fused cleaning recipe: quality gates + language filter + exact
    keep-first dedup — the corpus is read once, only survivor (doc_id,
    md5) pairs reach the single dedup exchange."""
    from relation_extraction_ray.functions.clean import clean_corpus

    return clean_corpus(_read(sf_dir, "documents", columns=["doc_id", "text"]))


def _q_heavy_hitters(sf_dir: str):
    """Exact frequent terms (count > n_tokens/2000): two-scan
    sketch-then-verify — per-batch frequent filter bounds the candidate
    exchange at 2*denom rows/batch, broadcast recount is exact."""
    from relation_extraction_ray.functions.text import heavy_hitters

    return heavy_hitters(_read(sf_dir, "documents", columns=["doc_id", "text"]), denom=2000)


def _q_top_per_cust(sf_dir: str):
    """Per-group top-k: each customer's 3 highest-price orders with a
    1-based rank (window row_number pattern, one hash partition)."""
    from relation_extraction_ray.functions.relational import top_k_per_group

    return top_k_per_group(
        _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]),
        group_col="o_custkey",
        order_col="o_totalprice",
        k=3,
        tie_col="o_orderkey",
    ).sort(["o_custkey", "rank"])


def _q_distinct_by_day(sf_dir: str):
    """Exact grouped count-distinct: distinct users per calendar day, the
    pair-bounded two-phase shape (no raw rows cross the exchange)."""
    from relation_extraction_ray.functions.relational import distinct_users_by_day

    return distinct_users_by_day(
        _read(sf_dir, "events", columns=["ts", "user_id"])
    ).sort("day")


def _q_cust_no_orders(sf_dir: str):
    """Anti-join: customers with no order above 400k (distinct-key reduce
    after predicate pushdown + broadcast is_in probe)."""
    from relation_extraction_ray.functions.relational import customers_without_orders

    return customers_without_orders(
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        min_price=400000.0,
    ).sort("c_custkey")


def _q_moving_avg(sf_dir: str):
    """Trailing 7-row moving average of per-user daily spend (window
    frame aggregate): daily groupby then one user partition, vectorized
    padded-cumsum windows."""
    from relation_extraction_ray.functions.relational import user_daily_moving_avg

    return user_daily_moving_avg(
        _read(sf_dir, "events", columns=["ts", "user_id", "value"]), window=7
    ).sort(["user_id", "day"])


def _q_price_quantiles(sf_dir: str):
    """Exact per-segment price percentiles (p50/p90, percentile_disc
    semantics) via the distinct-value histogram — no global sort."""
    from relation_extraction_ray.functions.relational import segment_price_quantiles

    return segment_price_quantiles(
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
        _read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]),
        qs=(50, 90),
    ).sort("segment")


def _q_lm_perplexity(sf_dir: str):
    """Bigram-LM negative-log-prob quality scores (CCNet-style filter):
    self-trained add-one-smoothed bigram model, per-doc mean NLL in
    integer milli-units plus drift-free token/unk/bigram counts."""
    from relation_extraction_ray.functions.lm import bigram_lm_score

    return bigram_lm_score(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), min_count=5
    ).sort("doc_id")


def _q_dup_clusters(sf_dir: str):
    """Keep-one dedup clustering: exact ngram-Jaccard pairs (threshold
    0.8) folded into connected components — (doc_id, canonical_id,
    cluster_size) per clustered doc, canonical = component-min id."""
    from relation_extraction_ray.functions.components import connected_components
    from relation_extraction_ray.functions.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _read(sf_dir, "documents", columns=["doc_id", "text"]), threshold=0.8
    )
    return connected_components(pairs).sort("doc_id")


def _q_split_leakage(sf_dir: str):
    """Leakage-safe train/valid/test split: every doc bucketed by the
    md5 of its ngram-Jaccard dup-cluster CANONICAL id (singletons =
    self), so near-dups never straddle splits; labels broadcast below a
    byte bound, one side-tagged doc-id exchange above it."""
    from relation_extraction_ray.functions.curation import leakage_safe_split
    from relation_extraction_ray.functions.dedup import ngram_jaccard_pairs

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    pairs = ngram_jaccard_pairs(docs, threshold=0.8)
    return leakage_safe_split(docs, pairs)


def _q_dedup_embed(sf_dir: str):
    """Embedding-cosine near-dup pairs.  The synthetic embeddings have no
    true near-dups (max cos ≈ 0.51), so the query runs at threshold 0.4 to
    exercise the full banded-LSH + exact-verify machinery on non-empty
    output; production defaults stay at 0.9.  At 0.4 the 16×4 banding is
    deliberately low-precision (recall over precision), so the query scopes
    to a deterministic id slice (vec_id < 500 — the whole table at sf0.01,
    a fixed quarter at sf0.1) to keep the candidate count bounded in the
    per-round bench; the operator itself takes the full Dataset."""
    from relation_extraction_ray.functions.ann import embed_neardup_pairs

    emb = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"]).filter(
        expr="vec_id < 500"
    )
    return embed_neardup_pairs(
        emb, threshold=0.4, bands=16, planes_per_band=4
    ).sort(["vec_a", "vec_b"])


# --- KG family (pure-Python single-process oracle, parquet-materialized) ---


def _kg_run():
    """Run the pipeline on the synthetic corpus and AUDIT the span-sequence
    invariant (north rule) — a mismatch fails the query, not just a test."""
    from relation_extraction_ray.functions.invariant import check_against_documents
    from relation_extraction_ray.pipelines.kg import KGPipeline
    from relation_extraction_ray.sources.synth import documents_dataset

    out = KGPipeline().run(documents_dataset(KG_DOCS, override_num_blocks=8))
    bad = check_against_documents(
        out["triples"], documents_dataset(KG_DOCS, override_num_blocks=8)
    )
    if bad:
        raise AssertionError(f"span-sequence invariant broken on {bad} triple rows")
    return out


def _q_kg_triples(sf_dir: str):
    return _kg_run()["triples"].sort(TRIPLE_SORT)


def _q_kg_adjacency(sf_dir: str):
    return _kg_run()["adjacency"].sort(ADJ_SORT)


def _q_sssp(sf_dir: str):
    """Weighted shortest paths from the md5 landmark set (synchronous
    Bellman-Ford, integer edge lengths = summed mention weights)."""
    from relation_extraction_ray.functions.graph import sssp_hops

    return sssp_hops(_kg_run()["adjacency"], seed_pct=5, rounds=6)


def _q_kg_incremental(sf_dir: str):
    """Incremental KG construction: triples split into two doc-disjoint
    halves (md5(doc_id) parity), each half aggregated to its own
    adjacency, then merge_adjacency folds them — the oracle is the FULL
    single-run adjacency, asserting merge(adj(A), adj(B)) == adj(A∪B)."""
    import hashlib

    import pyarrow as pa

    from relation_extraction_ray.pipelines.kg import adjacency_from_triples, merge_adjacency

    triples = _kg_run()["triples"]

    def half(parity: int):
        def pick(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_pylist()
            mask = [
                int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 2 == parity
                for i in ids
            ]
            return batch.filter(pa.array(mask, pa.bool_()))

        return triples.map_batches(pick, batch_format="pyarrow")

    adj_a = adjacency_from_triples(half(0))
    adj_b = adjacency_from_triples(half(1))
    return merge_adjacency(adj_a, adj_b).sort(ADJ_SORT)


def _q_provenance(sf_dir: str):
    """Per surface triple: mention count, exact distinct supporting
    docs, min/max doc id — the which-sources-say-this KG query."""
    from relation_extraction_ray.pipelines.kg import triple_provenance

    return triple_provenance(_kg_run()["triples"])


def _q_pagerank(sf_dir: str):
    """Distributed integer PageRank (5 iterations) over the pipeline's
    own adjacency table — the canonical KG-downstream consumer."""
    from relation_extraction_ray.functions.graph import pagerank

    return pagerank(_kg_run()["adjacency"], iters=5)


def _q_pagerank_personal(sf_dir: str):
    """Personalized PageRank: teleport mass concentrated on the md5
    landmark entities — rank as seed-proximity (KG QA / recs feature)."""
    from relation_extraction_ray.functions.graph import pagerank

    return pagerank(_kg_run()["adjacency"], iters=5, seed_pct=5)


def _q_hits(sf_dir: str):
    """HITS hubs & authorities (3 rounds, integer max-rescale) over the
    pipeline's adjacency — the link-analysis dual of PageRank; one
    u- or v-keyed cogroup of scores with the distinct edges per
    half-step."""
    from relation_extraction_ray.functions.graph import hits

    return hits(_kg_run()["adjacency"], iters=3)


def _q_kg_diameter(sf_dir: str):
    """Double-sweep diameter lower bound of the KG entity graph: two
    BFS runs from deterministic endpoints, max/min folds
    over the nodes-sized distance table."""
    from relation_extraction_ray.functions.graph import diameter_2sweep

    return diameter_2sweep(_kg_run()["adjacency"], max_hops=12)


def _diameter_sql(adj_path: str, hops: int = 12) -> str:
    """Unroll the double sweep: src = min node of the self-loop-free
    mirror, BFS-1 unrolled (the _bfs_sql recurrence), farthest node
    with lexicographic tie-break, BFS-2 from it, second eccentricity =
    diameter lower bound."""
    cte = f"""
    eu AS MATERIALIZED (SELECT DISTINCT least(src_id, dst_id) AS a,
                               greatest(src_id, dst_id) AS b
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id),
    e AS MATERIALIZED (SELECT a AS u, b AS v FROM eu UNION ALL SELECT b, a FROM eu),
    s0 AS MATERIALIZED (SELECT min(u) AS src FROM e),
    da0 AS MATERIALIZED (SELECT (SELECT src FROM s0) AS node, CAST(0 AS BIGINT) AS dist)"""
    for i in range(hops):
        cte += f""",
    da{i + 1} AS MATERIALIZED (SELECT node, min(dist) AS dist FROM (
             SELECT node, dist FROM da{i}
             UNION ALL
             SELECT e.v AS node, d.dist + 1 FROM e JOIN da{i} d ON d.node = e.u
           ) GROUP BY node)"""
    cte += f""",
    ecc1 AS MATERIALIZED (SELECT max(dist) AS ecc FROM da{hops}),
    fa AS MATERIALIZED (SELECT min(node) AS far FROM da{hops}
           WHERE dist = (SELECT ecc FROM ecc1)),
    db0 AS MATERIALIZED (SELECT (SELECT far FROM fa) AS node, CAST(0 AS BIGINT) AS dist)"""
    for i in range(hops):
        cte += f""",
    db{i + 1} AS MATERIALIZED (SELECT node, min(dist) AS dist FROM (
             SELECT node, dist FROM db{i}
             UNION ALL
             SELECT e.v AS node, d.dist + 1 FROM e JOIN db{i} d ON d.node = e.u
           ) GROUP BY node)"""
    cte += f""",
    ecc2 AS MATERIALIZED (SELECT max(dist) AS diam FROM db{hops}),
    fb AS MATERIALIZED (SELECT min(node) AS far2 FROM db{hops}
           WHERE dist = (SELECT diam FROM ecc2))"""
    return (
        "WITH "
        + cte
        + """
    SELECT (SELECT src FROM s0) AS src,
           CAST((SELECT ecc FROM ecc1) AS BIGINT) AS ecc_src,
           (SELECT far FROM fa) AS far_node,
           CAST((SELECT diam FROM ecc2) AS BIGINT) AS diameter_lb,
           (SELECT far2 FROM fb) AS far_node_2"""
    )


def _q_trim_core(sf_dir: str):
    """Directed trim core of the KG (iterated source/sink peeling, the
    SCC pre-pass / DAG test): per-round removal counts until fixpoint,
    empty core ⇔ acyclic."""
    from relation_extraction_ray.functions.graph import trim_core

    return trim_core(_kg_run()["adjacency"], max_rounds=32)


def _trim_core_sql(adj_path: str, cap: int = 32) -> str:
    """Unroll the engine's trim-core peel: each round keeps nodes with
    BOTH an in- and an out-edge (INTERSECT), restricts edges to
    survivors, and emits (round, removed, core_after); output truncates
    at the first round with removed=0 or empty core — exactly the
    engine's early exit."""
    # MATERIALIZED: DuckDB inlines plain CTEs, so a 32-round unroll
    # whose every round references the previous one twice would expand
    # exponentially (observed as "too many open files" on the parquet)
    ctes = [
        f"e0 AS MATERIALIZED (SELECT DISTINCT src_id AS u, dst_id AS v FROM read_parquet('{adj_path}'))",
        "c0 AS MATERIALIZED (SELECT count(*) AS c FROM (SELECT u AS node FROM e0 UNION SELECT v FROM e0))",
    ]
    rows = []
    for r in range(1, cap + 1):
        ctes.append(
            f"s{r} AS MATERIALIZED (SELECT u AS node FROM e{r - 1} INTERSECT SELECT v FROM e{r - 1})"
        )
        ctes.append(f"sc{r} AS MATERIALIZED (SELECT count(*) AS c FROM s{r})")
        ctes.append(
            f"""e{r} AS MATERIALIZED (SELECT u, v FROM e{r - 1}
           WHERE u IN (SELECT node FROM s{r}) AND v IN (SELECT node FROM s{r}))"""
        )
        prev = "c0" if r == 1 else f"sc{r - 1}"
        rows.append(
            f"SELECT {r} AS round,"
            f" CAST((SELECT c FROM {prev}) - (SELECT c FROM sc{r}) AS BIGINT) AS removed,"
            f" CAST((SELECT c FROM sc{r}) AS BIGINT) AS core_after"
        )
    return (
        "WITH "
        + ",\n        ".join(ctes)
        + ",\n        allr AS ("
        + " UNION ALL ".join(rows)
        + f"""),
        cut AS (SELECT min(round) AS m FROM allr WHERE removed = 0 OR core_after = 0)
        SELECT round, removed, core_after FROM allr
        WHERE round <= coalesce((SELECT m FROM cut), {cap}) ORDER BY round"""
    )


def _q_pred_cardinality(sf_dir: str):
    """Per-predicate cardinality / PARIS functionality profile of the
    KG: one combine-fed pred fold + the distinct-(pred,role,id) pair
    exchange; driver merges ≤ |preds| rows."""
    from relation_extraction_ray.functions.graph import predicate_cardinality

    return predicate_cardinality(_kg_run()["adjacency"])


def _q_kg_components(sf_dir: str):
    """Component-size histogram of the KG entity graph: canonical-edge
    dedup partials, CC (one numpy kernel below the graph planner bound,
    pointer-jumping exchange rounds above it), size-histogram fold."""
    from relation_extraction_ray.functions.graph import component_size_hist

    return component_size_hist(_kg_run()["adjacency"])


def _q_pred_bigrams(sf_dir: str):
    """Two-hop predicate metapath counts over the KG — per-node in×out
    pred-tally cross products, never path enumeration."""
    from relation_extraction_ray.functions.graph import pred_bigrams

    return pred_bigrams(_kg_run()["adjacency"])


def _q_degree_hist(sf_dir: str):
    """Degree distribution of the KG entity graph (power-law diagnostic)
    — two combine-fed exchanges, ≤ max-degree output rows."""
    from relation_extraction_ray.functions.graph import degree_histogram

    return degree_histogram(_kg_run()["adjacency"])


def _q_kcore(sf_dir: str):
    """2-core of the KG entity graph via synchronized peeling (degrees +
    two alive-filter exchanges per round, run to fixpoint)."""
    from relation_extraction_ray.functions.graph import kcore

    return kcore(_kg_run()["adjacency"], k=2, max_rounds=8)


def _q_bfs_hops(sf_dir: str):
    """Multi-source BFS hop distance from md5-seeded landmark entities
    (monotone min relaxation — fixed rounds, exact at any partitioning)."""
    from relation_extraction_ray.functions.graph import bfs_hops

    return bfs_hops(_kg_run()["adjacency"], seed_pct=5, max_hops=6)


def _q_label_prop(sf_dir: str):
    """Synchronous label-propagation communities over the KG entity graph
    (3 rounds, deterministic count-desc/label-asc tie-break)."""
    from relation_extraction_ray.functions.graph import label_propagation

    return label_propagation(_kg_run()["adjacency"], rounds=3)


def _q_modularity(sf_dir: str):
    """Newman modularity of the 3-round LPA communities over the KG
    entity graph — exact integer sufficient stats, one IEEE final form;
    edges labeled via two side-tagged node-keyed exchanges, driver sees
    only per-community counters."""
    from relation_extraction_ray.functions.graph import label_propagation, modularity

    adjacency = _kg_run()["adjacency"]
    return modularity(adjacency, label_propagation(adjacency, rounds=3))


def _q_power_law(sf_dir: str):
    """Degree-distribution power-law exponent MLE (per-term nano-rounded
    ln so the sum is order-free; pure-integer final form)."""
    from relation_extraction_ray.functions.graph import power_law_alpha

    return power_law_alpha(_kg_run()["adjacency"])


def _q_ktruss(sf_dir: str):
    """3-truss of the KG entity graph: synchronized edge peeling on
    per-round recomputed triangle support (edge_jaccard machinery)."""
    from relation_extraction_ray.functions.graph import ktruss

    return ktruss(_kg_run()["adjacency"], k=3, max_rounds=3)


def _q_harmonic(sf_dir: str):
    """Landmark-approximated harmonic centrality (per-landmark BFS on
    the composite (node, seed) key, order-free integer 1/d sum)."""
    from relation_extraction_ray.functions.graph import harmonic_centrality

    return harmonic_centrality(_kg_run()["adjacency"], seed_pct=5, max_hops=4)


def _q_reciprocity(sf_dir: str):
    """Directed-edge reciprocity of the KG graph — one pair-keyed
    exchange ORing direction bits, two counter rows per partition."""
    from relation_extraction_ray.functions.graph import reciprocity

    return reciprocity(_kg_run()["adjacency"])


def _q_clustering(sf_dir: str):
    """Per-node local clustering coefficient over the KG graph — exact
    integer milli-units, composed from edge_jaccard's per-edge
    common-neighbor counts (Σ incident cn = 2·triangles(v))."""
    from relation_extraction_ray.functions.graph import clustering_coefficient

    return clustering_coefficient(_kg_run()["adjacency"])


def _q_assortativity(sf_dir: str):
    """Newman degree assortativity of the KG entity graph — Pearson r of
    endpoint degrees over both orientations of every undirected edge,
    exact integer sufficient stats in the corr_price_qty IEEE final form;
    degrees attach via two side-tagged node-keyed exchanges and each
    batch folds to one 4-tuple, so the driver sees four numbers."""
    from relation_extraction_ray.functions.graph import degree_assortativity

    return degree_assortativity(_kg_run()["adjacency"])


def _q_random_walks(sf_dir: str):
    """Deterministic DeepWalk corpus over the directed KG: one walk per
    source node, md5-chosen neighbors — the graph-embedding sentence
    generator, exactly replayable in SQL."""
    from relation_extraction_ray.functions.graph import random_walks

    return random_walks(_kg_run()["adjacency"], walk_len=4)


def _q_fanout_sample(sf_dir: str):
    """GraphSAGE-style 2-hop fanout neighbor sample from the md5 seeds
    (per frontier node keep the fanout smallest-hash out-edges) — the
    GNN minibatch subgraph generator, pure-hash deterministic."""
    from relation_extraction_ray.functions.graph import fanout_sample

    return fanout_sample(_kg_run()["adjacency"], seed_pct=5, fanouts=(3, 2))


def _q_walk_pairs(sf_dir: str):
    """Skip-gram pair counts over the deterministic walk corpus (the
    DeepWalk co-occurrence distribution; one walk-id exchange, shift
    kernels, combine-fed pair groupby)."""
    from relation_extraction_ray.functions.graph import walk_pairs

    return walk_pairs(_kg_run()["adjacency"], walk_len=4, window=2)


def _q_kg_embeddings(sf_dir: str):
    """DeepWalk entity embeddings (walks → pairs → SGNS via the engine's
    proven skip-gram machinery), digested to each entity's nearest
    neighbor by cosine.  Float-iterative training — no SQL oracle; the
    driver records the rows-only check, and determinism/quality are
    pytest-covered (tests/test_graph.py)."""
    import numpy as np
    import pandas as pd

    from relation_extraction_ray.functions.graph import kg_node_embeddings

    nodes, emb = kg_node_embeddings(
        _kg_run()["adjacency"], dim=16, walk_len=4, window=2, epochs=5
    )
    e = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True), 1e-12)
    sims = e @ e.T
    np.fill_diagonal(sims, -2.0)
    nn = sims.argmax(axis=1)
    cos_micro = np.floor(sims[np.arange(len(nodes)), nn] * 1e6 + 0.5).astype(np.int64)
    return pd.DataFrame(
        {"node": nodes, "nn": [nodes[i] for i in nn], "cos_micro": cos_micro}
    )


def _q_triangles(sf_dir: str):
    """Exact triangle count of the KG's undirected entity graph —
    degree-ordered wedge enumeration (out-degree bounded O(sqrt m))."""
    from relation_extraction_ray.functions.graph import triangle_count

    return triangle_count(_kg_run()["adjacency"])


def _q_edge_jaccard(sf_dir: str):
    """Per-edge common-neighbor count + Jaccard link score over the KG's
    undirected entity graph (link-prediction / entity-resolution feature)."""
    from relation_extraction_ray.functions.graph import edge_jaccard

    return edge_jaccard(_kg_run()["adjacency"]).sort(["node_a", "node_b"])


def _q_kg_linked(sf_dir: str):
    """Triples with KB-linked entity ids (entity-link disambiguator actor
    pool over a broadcast KB)."""
    from relation_extraction_ray.state.linker import build_kb, link_triples, synth_kb

    out = _kg_run()
    return link_triples(out["triples"], build_kb(synth_kb())).sort(TRIPLE_SORT)


def _q_media_features(sf_dir: str):
    """Multimodal span decode/feature plumbing over the interleaved corpus,
    projected to a scalar feature digest for cross-engine hashing."""
    import pyarrow as pa

    from relation_extraction_ray.sources.synth import documents_dataset
    from relation_extraction_ray.stages.media import FEATURES_DIGEST, feature_fp, media_features

    feats = media_features(documents_dataset(KG_DOCS, override_num_blocks=8))

    def digest(batch: pa.Table) -> pa.Table:
        fps = [feature_fp(f) for f in batch.column("feature").to_pylist()]
        cols = [batch.column(f.name) for f in FEATURES_DIGEST if f.name != "feat_fp"]
        return pa.Table.from_arrays(cols + [pa.array(fps, pa.string())], schema=FEATURES_DIGEST)

    return feats.map_batches(digest, batch_format="pyarrow").sort(
        ["doc_id", "span_idx", "frame_idx"]
    )


def _q_media_phash(sf_dir: str):
    """Perceptual hashes (dHash + aHash over the decoded 8×9 pixel grid)
    for every media span of the interleaved corpus — the multimodal
    near-dup signature stage; oracle recomputes the bits with plain
    per-bit loops."""
    from relation_extraction_ray.sources.synth import documents_dataset
    from relation_extraction_ray.stages.media import media_phash

    return media_phash(documents_dataset(KG_DOCS, override_num_blocks=8)).sort(["uid"])


def _q_media_dup_pairs(sf_dir: str):
    """Near-duplicate media pairs (Hamming(dhash) ≤ 3) via the pigeonhole
    (k+1)-block bucketing shared with the text simhash family; oracle is
    the brute-force O(n²) Hamming scan (pigeonhole is exact, so the sets
    must be identical)."""
    from relation_extraction_ray.sources.synth import documents_dataset
    from relation_extraction_ray.stages.media import media_dup_pairs

    return media_dup_pairs(
        documents_dataset(KG_DOCS, override_num_blocks=8), max_hamming=3
    ).sort(["doc_a", "doc_b"])


def _q_media_keep_one(sf_dir: str):
    """Media-aware keep-one dedup: connected components over the
    perceptual-hash pair graph, keep the min-uid member per cluster
    (composes media_dup_pairs with the generic planner-split
    dedup_keep_one); oracle replays with union-find."""
    from relation_extraction_ray.sources.synth import documents_dataset
    from relation_extraction_ray.stages.media import media_keep_one

    return media_keep_one(
        documents_dataset(KG_DOCS, override_num_blocks=8), max_hamming=3
    ).sort(["uid"])


def _q_supervised_eval(sf_dir: str):
    """SemEval-style supervised classification (trigger lexicon AND the
    TRAINED GRU fixture) + official-scorer-style metrics as a one-row
    table."""
    import pandas as pd

    import ray.data as rd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.eval import evaluate_classification
    from relation_extraction_ray.pipelines.fit import model_classify
    from relation_extraction_ray.pipelines.supervised import classify
    from relation_extraction_ray.sources.semeval import labeled_sentences_table, parsed_records
    from relation_extraction_ray.state.scorer import fixture_path, load_weights

    cfg = KGConfig()
    parsed = parsed_records(rd.from_arrow(labeled_sentences_table(500))).materialize()
    lex = evaluate_classification(classify(parsed, cfg))
    wts, vocab_lists = load_weights(fixture_path("synth"))
    mod = evaluate_classification(model_classify(parsed, wts, vocab_lists, cfg))
    return pd.DataFrame(
        [
            {
                "lexicon_macro_f1": round(lex["macro_f1"], 6),
                "lexicon_micro_f1": round(lex["micro_f1"], 6),
                "model_macro_f1": round(mod["macro_f1"], 6),
                "model_micro_f1": round(mod["micro_f1"], 6),
                "model_macro_precision": round(mod["macro_precision"], 6),
                "model_macro_recall": round(mod["macro_recall"], 6),
            }
        ]
    )


def _q_supervised_eval_large(sf_dir: str):
    """Classification metrics of the ``synth_large`` fixture — trained on a
    10× corpus with ``fit_alternating_distributed`` (distributed NEG-pair
    generation + per-step data-parallel gradients; the scale path for the
    reference's 31.6M-sentence wiki pretrain, ``wiki2sdp.py:285``)."""
    import pandas as pd

    import ray.data as rd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.eval import evaluate_classification
    from relation_extraction_ray.pipelines.fit import model_classify
    from relation_extraction_ray.sources.semeval import labeled_sentences_table, parsed_records
    from relation_extraction_ray.state.scorer import fixture_path, load_weights

    cfg = KGConfig()
    parsed = parsed_records(rd.from_arrow(labeled_sentences_table(500))).materialize()
    wts, vocab_lists = load_weights(fixture_path("synth_large"))
    mod = evaluate_classification(model_classify(parsed, wts, vocab_lists, cfg))
    return pd.DataFrame(
        [
            {
                "model_macro_f1": round(mod["macro_f1"], 6),
                "model_micro_f1": round(mod["micro_f1"], 6),
                "model_macro_precision": round(mod["macro_precision"], 6),
                "model_macro_recall": round(mod["macro_recall"], 6),
            }
        ]
    )


def _q_semeval_official(sf_dir: str):
    """THE REAL SemEval-2010 Task-8 test split (shipped in the reference
    repo), classified distributed with the trained ``semeval_real`` fixture
    and scored with the official perl-scorer math."""
    import pandas as pd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.eval_semeval import official_scores_from_pairs, read_key_file
    from relation_extraction_ray.oracle import SEMEVAL_DATA
    from relation_extraction_ray.pipelines.fit import model_classify_any
    from relation_extraction_ray.sources.semeval import parsed_records, read_semeval_records
    from relation_extraction_ray.state.scorer import fixture_path

    cfg = KGConfig(min_count=2)
    parsed = parsed_records(
        read_semeval_records(f"{SEMEVAL_DATA}/SemEval2010_task8_testing_keys/TEST_FILE_CLEAN.TXT")
    )
    preds = model_classify_any(parsed, fixture_path("semeval_real"), cfg).take_all()
    key = read_key_file(f"{SEMEVAL_DATA}/test_keys.txt")
    pairs: dict[tuple[str, str], int] = {}
    for r in preds:
        k = (r["pred"], key[r["sent_id"]])
        pairs[k] = pairs.get(k, 0) + 1
    s = official_scores_from_pairs([(p, a, n) for (p, a), n in pairs.items()])
    return pd.DataFrame(
        [
            {
                "official_macro_f1": round(s["official_f1"], 6),
                "macro_p": round(s["macro_p"], 6),
                "macro_r": round(s["macro_r"], 6),
                "micro_f1": round(s["micro_f1"], 6),
                "accuracy": round(s["accuracy"], 6),
                "coverage": round(s["coverage"], 6),
                "n_test": 2717,
            }
        ]
    )


def _q_semeval_bi_official(sf_dir: str):
    """The real SemEval test split classified with the trained
    BIDIRECTIONAL-trunk model (reference ``relembed.py:87,230-235``:
    forward+backward GRU final states concatenated into the softmax
    input) and scored with the official scorer math.  The bi model is
    shipped as its own fixture: on this sandbox's init/parses it scores
    below the uni flagship on the real test split (BASELINE.md round-4
    sweep), so the flagship fixture stays unidirectional."""
    import pandas as pd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.eval_semeval import official_scores_from_pairs, read_key_file
    from relation_extraction_ray.oracle import SEMEVAL_DATA
    from relation_extraction_ray.pipelines.fit import bi_model_classify
    from relation_extraction_ray.sources.semeval import parsed_records, read_semeval_records
    from relation_extraction_ray.state.scorer import fixture_path, load_bi

    cfg = KGConfig(min_count=2)
    parsed = parsed_records(
        read_semeval_records(f"{SEMEVAL_DATA}/SemEval2010_task8_testing_keys/TEST_FILE_CLEAN.TXT")
    )
    params, vocab_lists = load_bi(fixture_path("semeval_bi"))
    preds = bi_model_classify(parsed, params, vocab_lists, cfg).take_all()
    key = read_key_file(f"{SEMEVAL_DATA}/test_keys.txt")
    pairs: dict[tuple[str, str], int] = {}
    for r in preds:
        k = (r["pred"], key[r["sent_id"]])
        pairs[k] = pairs.get(k, 0) + 1
    s = official_scores_from_pairs([(p, a, n) for (p, a), n in pairs.items()])
    return pd.DataFrame(
        [
            {
                "official_macro_f1": round(s["official_f1"], 6),
                "macro_p": round(s["macro_p"], 6),
                "macro_r": round(s["macro_r"], 6),
                "micro_f1": round(s["micro_f1"], 6),
                "accuracy": round(s["accuracy"], 6),
                "coverage": round(s["coverage"], 6),
                "n_test": 2717,
            }
        ]
    )


def _q_semeval_ensemble_official(sf_dir: str):
    """The real SemEval test split classified with the probability-
    averaging ENSEMBLE of the three committed fixtures (uni flagship +
    bi trunk + dual "single" model — the reference's average-ensemble
    idea generalized across checkpoints/architectures) and scored with
    the official scorer math.  This is the engine's best published test
    number (BASELINE.md round 4: **70.76** official macro-F1, +0.98 over
    the single-model flagship; accepted on the 90/10 valid discipline —
    3-member 69.98 valid beat the 2-member 68.94 and every single arm)."""
    import pandas as pd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.eval_semeval import official_scores_from_pairs, read_key_file
    from relation_extraction_ray.oracle import SEMEVAL_DATA
    from relation_extraction_ray.pipelines.fit import ensemble_classify
    from relation_extraction_ray.sources.semeval import parsed_records, read_semeval_records
    from relation_extraction_ray.state.scorer import fixture_path

    cfg = KGConfig(min_count=2)
    parsed = parsed_records(
        read_semeval_records(f"{SEMEVAL_DATA}/SemEval2010_task8_testing_keys/TEST_FILE_CLEAN.TXT")
    )
    preds = ensemble_classify(
        parsed,
        [
            fixture_path("semeval_real"),
            fixture_path("semeval_bi"),
            fixture_path("semeval_single"),
        ],
        cfg,
    ).take_all()
    key = read_key_file(f"{SEMEVAL_DATA}/test_keys.txt")
    pairs: dict[tuple[str, str], int] = {}
    for r in preds:
        k = (r["pred"], key[r["sent_id"]])
        pairs[k] = pairs.get(k, 0) + 1
    s = official_scores_from_pairs([(p, a, n) for (p, a), n in pairs.items()])
    return pd.DataFrame(
        [
            {
                "official_macro_f1": round(s["official_f1"], 6),
                "macro_p": round(s["macro_p"], 6),
                "macro_r": round(s["macro_r"], 6),
                "micro_f1": round(s["micro_f1"], 6),
                "accuracy": round(s["accuracy"], 6),
                "coverage": round(s["coverage"], 6),
                "n_test": 2717,
            }
        ]
    )


def _q_semeval_single_official(sf_dir: str):
    """The real SemEval test split classified with the trained
    DUAL-direction model (T3 "single" mode — two direction GRUs, shared
    embeddings, average-single ensemble) and scored with the official
    scorer math."""
    import pandas as pd

    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.eval_semeval import official_scores_from_pairs, read_key_file
    from relation_extraction_ray.oracle import SEMEVAL_DATA
    from relation_extraction_ray.pipelines.fit import dual_model_classify
    from relation_extraction_ray.sources.semeval import parsed_records, read_semeval_records
    from relation_extraction_ray.state.scorer import fixture_path, load_dual

    cfg = KGConfig(min_count=2)
    parsed = parsed_records(
        read_semeval_records(f"{SEMEVAL_DATA}/SemEval2010_task8_testing_keys/TEST_FILE_CLEAN.TXT")
    )
    params, vocab_lists = load_dual(fixture_path("semeval_single"))
    preds = dual_model_classify(parsed, params, vocab_lists, cfg).take_all()
    key = read_key_file(f"{SEMEVAL_DATA}/test_keys.txt")
    pairs: dict[tuple[str, str], int] = {}
    for r in preds:
        k = (r["pred"], key[r["sent_id"]])
        pairs[k] = pairs.get(k, 0) + 1
    s = official_scores_from_pairs([(p, a, n) for (p, a), n in pairs.items()])
    return pd.DataFrame(
        [
            {
                "official_macro_f1": round(s["official_f1"], 6),
                "macro_p": round(s["macro_p"], 6),
                "macro_r": round(s["macro_r"], 6),
                "micro_f1": round(s["micro_f1"], 6),
                "accuracy": round(s["accuracy"], 6),
                "coverage": round(s["coverage"], 6),
                "n_test": 2717,
            }
        ]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        "vocab_top100": _q_vocab,
        "doc_stats": _q_doc_stats,
        "fingerprints": _q_fingerprints,
        "quality": _q_quality,
        "token_counts": _q_token_counts,
        "rolling_fps": _q_rolling_fps,
        "dedup_exact": _q_dedup_exact,
        "fuzzy_pairs": _q_fuzzy_pairs,
        "alias_clusters": _q_alias_clusters,
        "knn_top10": _q_knn,
        "pricing_summary": _q_pricing,
        "revenue_by_segment": _q_revenue,
        "revenue_by_nation": _q_revenue_nation,
        "q3_top_orders": _q_q3_top,
        "global_rank": _q_global_rank,
        "price_quantiles_radix": _q_quantiles_radix,
        "lineitem_cube": _q_cube,
        "events_pivot": _q_events_pivot,
        "events_unpivot": _q_events_unpivot,
        "zorder_orders": _q_zorder_orders,
        "cohort_retention": _q_cohort_retention,
        "funnel": _q_funnel,
        "delta_dedup": _q_delta_dedup,
        "corr_price_qty": _q_corr,
        "spearman_qty_disc": _q_spearman,
        "rolling_wau": _q_rolling_wau,
        "basket_rules": _q_basket_rules,
        "mode_event_type": _q_mode,
        "nation_customer_stats": _q_nation_stats,
        "balance_deciles": _q_deciles,
        "fill_daily_gaps": _q_fill_gaps,
        "user_gap_stats": _q_gap_stats,
        "price_histogram": _q_histogram,
        "segment_median": _q_median,
        "bloom_members": _q_bloom,
        "revenue_rollup": _q_rollup,
        "audit_orders": _q_audit,
        "column_stats": _q_column_stats,
        "table_diff": _q_table_diff,
        "merge_apply": _q_merge_apply,
        "skyline_orders": _q_skyline,
        "scd2_history": _q_scd2,
        "regression_by_flag": _q_regression,
        "priority_auc": _q_auc,
        "calibration": _q_calibration,
        "segment_mad": _q_mad,
        "segment_outliers": _q_mad_outliers,
        "copurchase": _q_copurchase,
        "attribution": _q_attribution,
        "spike_days": _q_spikes,
        "conversion_latency": _q_conversion_latency,
        "autocorr_daily": _q_autocorr,
        "cat_dependence": _q_cat_dependence,
        "weighted_sample": _q_weighted_sample,
        "revenue_gini": _q_revenue_gini,
        "lexical_diversity": _q_lexical_diversity,
        "dup_rate": _q_dup_rate,
        "centroid_similarity": _q_centroid_similarity,
        "cluster_scatter": _q_cluster_scatter,
        "lang_entropy": _q_lang_entropy,
        "audience_overlap": _q_audience_overlap,
        "priority_anova": _q_priority_anova,
        "cusum_days": _q_cusum,
        "survival_km": _q_survival_km,
        "ewma_daily": _q_ewma_daily,
        "mann_kendall": _q_mann_kendall,
        "theil_sen": _q_theil_sen,
        "kendall_tau": _q_kendall_tau,
        "benford": _q_benford,
        "pca_top": _q_pca_top,
        "sorted_neighborhood": _q_sorted_neighborhood,
        "fd_audit": _q_fd_audit,
        "join_size_audit": _q_join_size_audit,
        "table_digest": _q_table_digest,
        "shard_advisor": _q_shard_advisor,
        "cf_user_topk": _q_cf_user_topk,
        "cf_item_topk": _q_cf_item_topk,
        "weekday_profile": _q_weekday_profile,
        "markov_entropy": _q_markov_entropy,
        "char_entropy": _q_char_entropy,
        "silhouette": _q_silhouette,
        "heaps_law": _q_heaps_law,
        "zipf_law": _q_zipf_law,
        "decision_stump": _q_decision_stump,
        "ab_test": _q_ab_test,
        "hits_scores": _q_hits,
        "greedy_coverage": _q_greedy_coverage,
        "trim_core": _q_trim_core,
        "kg_diameter": _q_kg_diameter,
        "debounce": _q_debounce,
        "k_anonymity": _q_k_anonymity,
        "time_weighted_avg": _q_twa,
        "event_transitions": _q_transitions,
        "top_orders": _q_top_orders,
        "events_by_day": _q_events,
        "running_totals": _q_running_totals,
        "seq_packing": _q_seq_packing,
        "redact_props": _q_redact_props,
        "props_stats": _q_props_stats,
        "asof_join": _q_asof_join,
        "asof_join_bucketed": _q_asof_join_bucketed,
        "running_totals_bucketed": _q_running_totals_bucketed,
        "sample_docs": _q_sample,
        "stratified_sample": _q_stratified_sample,
        "mixture_sample": _q_mixture_sample,
        "budget_select": _q_budget_select,
        "distinct_texts": _q_distinct_texts,
        "kg_triples": _q_kg_triples,
        "kg_adjacency": _q_kg_adjacency,
        "dedup_minhash": _q_dedup_minhash,
        "simhash": _q_simhash,
        "simhash_pairs": _q_simhash_pairs,
        "lang_id": _q_lang_id,
        "legacy_tokens": _q_legacy_tokens,
        "oov_filter": _q_oov_filter,
        "knn_lsh": _q_knn_lsh,
        "knn_ivf": _q_knn_ivf,
        "knn_sq8": _q_knn_sq8,
        "label_centroids": _q_centroids,
        "knn_pq": _q_knn_pq,
        "knn_ivfpq": _q_knn_ivfpq,
        "ngram_jaccard": _q_ngram_jaccard,
        "dup_clusters": _q_dup_clusters,
        "split_leakage": _q_split_leakage,
        "lm_perplexity": _q_lm_perplexity,
        "dedup_keep_one": _q_dedup_keep_one,
        "decontam": _q_decontam,
        "repetition": _q_repetition,
        "boilerplate": _q_boilerplate,
        "tfidf_top5": _q_tfidf,
        "heavy_hitters": _q_heavy_hitters,
        "window_join": _q_window_join,
        "bm25": _q_bm25,
        "semantic_dedup": _q_semantic_dedup,
        "cms_counts": _q_cms_counts,
        "hll_distinct": _q_hll_distinct,
        "corpus_drift": _q_corpus_drift,
        "token_cooc": _q_token_cooc,
        "dup_passages": _q_dup_passages,
        "dup_spans": _q_dup_spans,
        "postings": _q_postings,
        "vocab_diff": _q_vocab_diff,
        "top_terms_by_source": _q_top_terms_src,
        "bpe_merges": _q_bpe,
        "bpe_encode": _q_bpe_encode,
        "clean_corpus": _q_clean_corpus,
        "top_per_cust": _q_top_per_cust,
        "distinct_by_day": _q_distinct_by_day,
        "cust_no_orders": _q_cust_no_orders,
        "moving_avg": _q_moving_avg,
        "price_quantiles": _q_price_quantiles,
        "sessions": _q_sessionize,
        "dedup_embed": _q_dedup_embed,
        "kg_linked": _q_kg_linked,
        "pagerank": _q_pagerank,
        "pagerank_personal": _q_pagerank_personal,
        "triangles": _q_triangles,
        "edge_jaccard": _q_edge_jaccard,
        "kcore": _q_kcore,
        "bfs_hops": _q_bfs_hops,
        "sssp_hops": _q_sssp,
        "kg_incremental": _q_kg_incremental,
        "label_prop": _q_label_prop,
        "modularity": _q_modularity,
        "assortativity": _q_assortativity,
        "clustering_coef": _q_clustering,
        "reciprocity": _q_reciprocity,
        "harmonic": _q_harmonic,
        "ktruss": _q_ktruss,
        "power_law": _q_power_law,
        "random_walks": _q_random_walks,
        "walk_pairs": _q_walk_pairs,
        "fanout_sample": _q_fanout_sample,
        "kg_embeddings": _q_kg_embeddings,
        "degree_hist": _q_degree_hist,
        "pred_bigrams": _q_pred_bigrams,
        "pred_cardinality": _q_pred_cardinality,
        "kg_components": _q_kg_components,
        "triple_provenance": _q_provenance,
        "media_features": _q_media_features,
        "media_phash": _q_media_phash,
        "media_dup_pairs": _q_media_dup_pairs,
        "media_keep_one": _q_media_keep_one,
        "supervised_eval": _q_supervised_eval,
        "supervised_eval_large": _q_supervised_eval_large,
        "semeval_official": _q_semeval_official,
        "semeval_single_official": _q_semeval_single_official,
        "semeval_bi_official": _q_semeval_bi_official,
        "semeval_ensemble_official": _q_semeval_ensemble_official,
    }


# ---------------------------------------------------------------------------
# Parquet-materialized pure-Python oracles (kg family)
# ---------------------------------------------------------------------------


def _write_kg_oracle_parquet() -> dict[str, str]:
    """Recompute the single-process oracle tables and write them under
    ORACLE_DIR (always — a few seconds of pure Python; never a stale
    cache).  Returns name → parquet path.  The four SemEval oracle
    tables need the SemEval files under ``oracle.SEMEVAL_DATA``; when
    those are absent the tables are not written (a stale copy is
    removed), so their queries fail with an error instead of passing or
    stopping every other query's oracle."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from relation_extraction_ray import schemas
    from relation_extraction_ray.config import KGConfig
    from relation_extraction_ray.oracle import (
        SEMEVAL_DATA,
        kg_embeddings_rows,
        link_rows,
        media_digest_rows,
        media_dup_pairs_rows,
        media_keep_one_rows,
        media_phash_rows,
        run_oracle,
        semeval_official_row,
        semeval_bi_official_row,
        semeval_ensemble_official_row,
        semeval_single_official_row,
        supervised_metrics_row,
        supervised_metrics_row_large,
    )
    from relation_extraction_ray.sources.synth import corpus_table
    from relation_extraction_ray.stages.media import FEATURES_DIGEST
    from relation_extraction_ray.state.linker import LINKED_TRIPLES_EXTRA

    os.makedirs(ORACLE_DIR, exist_ok=True)
    out = run_oracle(corpus_table(KG_DOCS).to_pylist(), KGConfig())

    def srt(tab: pa.Table, keys: list[str]) -> pa.Table:
        return tab.sort_by([(k, "ascending") for k in keys])

    triples = srt(out["triples"], TRIPLE_SORT)
    adjacency = srt(out["adjacency"], ADJ_SORT)
    linked_schema = pa.schema(list(schemas.TRIPLES) + LINKED_TRIPLES_EXTRA)
    linked = srt(
        pa.Table.from_pylist(link_rows(out["triples"].to_pylist()), schema=linked_schema),
        TRIPLE_SORT,
    )
    media = srt(
        pa.Table.from_pylist(media_digest_rows(KG_DOCS), schema=FEATURES_DIGEST),
        ["doc_id", "span_idx", "frame_idx"],
    )
    from relation_extraction_ray.stages.media import PHASH_SCHEMA

    phash = srt(pa.Table.from_pylist(media_phash_rows(KG_DOCS), schema=PHASH_SCHEMA), ["uid"])
    pair_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int64())]
    )
    mpairs = srt(
        pa.Table.from_pylist(media_dup_pairs_rows(KG_DOCS, 3), schema=pair_schema),
        ["doc_a", "doc_b"],
    )
    mkeep = srt(
        pa.Table.from_pylist(media_keep_one_rows(KG_DOCS, 3), schema=PHASH_SCHEMA), ["uid"]
    )
    emb_nn = pa.Table.from_pylist(kg_embeddings_rows(out["adjacency"]))
    sup = pa.Table.from_pylist([supervised_metrics_row(500)])
    sup_large = pa.Table.from_pylist([supervised_metrics_row_large(500)])
    semeval = {
        "semeval_official": semeval_official_row,
        "semeval_single_official": semeval_single_official_row,
        "semeval_bi_official": semeval_bi_official_row,
        "semeval_ensemble_official": semeval_ensemble_official_row,
    }
    have_semeval = os.path.exists(SEMEVAL_DATA)

    paths = {}
    for name in semeval:
        paths[name] = os.path.join(ORACLE_DIR, f"{name}.parquet")
        if have_semeval:
            pq.write_table(pa.Table.from_pylist([semeval[name]()]), paths[name])
        elif os.path.exists(paths[name]):
            os.remove(paths[name])
    for name, tab in (
        ("kg_triples", triples),
        ("kg_adjacency", adjacency),
        ("kg_linked", linked),
        ("media_features", media),
        ("media_phash", phash),
        ("media_dup_pairs", mpairs),
        ("media_keep_one", mkeep),
        ("kg_embeddings", emb_nn),
        ("supervised_eval", sup),
        ("supervised_eval_large", sup_large),
    ):
        p = os.path.join(ORACLE_DIR, f"{name}.parquet")
        pq.write_table(tab, p)
        paths[name] = p
    return paths


# ---------------------------------------------------------------------------
# SQL oracles
# ---------------------------------------------------------------------------

_LANGS = {
    "de": "der die das und ist nicht mit ein von zu",
    "en": "the and of to in is was for with that",
    "es": "el la los y de un una es por con",
    "fr": "le la les et de un une est pour dans",
}


def _sql_list(words: str) -> str:
    return "[" + ", ".join(f"'{w}'" for w in words.split()) + "]"


# md5-u64 helper fragment: first 8 bytes of md5 as UBIGINT (matches the
# engine's _md5_u64 bit for bit)
def _md5u64(expr: str) -> str:
    return f"CAST(('0x' || substr(md5({expr}), 1, 16)) AS UBIGINT)"


_SIMHASH_CTE = f"""
  tok AS (
    SELECT doc_id, t AS token, CAST(count(*) AS BIGINT) AS cnt
    FROM (SELECT doc_id, unnest(string_split(lower(text), ' ')) AS t FROM documents)
    WHERE t <> '' GROUP BY doc_id, t
  ), bits AS (
    SELECT doc_id, b AS bit,
           sum(CASE WHEN (({_md5u64('token')} >> b) & 1) = 1 THEN cnt ELSE -cnt END) AS acc
    FROM tok CROSS JOIN (SELECT unnest(range(64)) AS b)
    GROUP BY doc_id, b
  ), sh0 AS (
    SELECT doc_id,
           CAST(sum(CASE WHEN acc > 0 THEN CAST(1 AS UBIGINT) << bit
                         ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) AS simhash
    FROM bits GROUP BY doc_id
  ), sh AS (
    SELECT d.doc_id, CAST(coalesce(s.simhash, 0) AS UBIGINT) AS simhash
    FROM documents d LEFT JOIN sh0 s ON d.doc_id = s.doc_id
  )
"""




# exact all-pairs n-gram Jaccard as a reusable CTE chain: `jac` ends with
# (doc_a, doc_b, sim) for every doc pair — shared by the ngram_jaccard
# entry and the dup_clusters recursive-CTE oracle so the two can never
# drift on pair semantics
_NGRAM_CTES = """
  tok AS (
    SELECT doc_id, list_filter(string_split(lower(text), ' '), t -> t <> '') AS toks
    FROM documents
  ), shl AS (
    SELECT doc_id,
      CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
           WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
           ELSE list_transform(range(1, len(toks) - 1),
                               i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
      END AS shingles
    FROM tok
  ), sset AS (
    SELECT doc_id, list_distinct(shingles) AS sh FROM shl
  ), jac AS (
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(len(list_intersect(a.sh, b.sh)) AS DOUBLE)
             / CAST(len(list_distinct(a.sh || b.sh)) AS DOUBLE) AS sim
    FROM sset a JOIN sset b ON a.doc_id < b.doc_id
    WHERE len(list_distinct(a.sh || b.sh)) > 0
  )
"""


def _redact_sql() -> str:
    """SQL replay of ``functions.text.redact`` over events.props, composed
    FROM the library's REDACT_RULES so the two engines can never drift:
    each rule counts matches in the current text, then masks them."""
    from relation_extraction_ray.functions.text import REDACT_RULES

    sql = "WITH s0 AS (SELECT event_id, props AS t FROM events)"
    cols: list[str] = []
    for i, (name, pat, tok) in enumerate(REDACT_RULES):
        pat_sql = pat.replace("'", "''")
        keep = ", ".join(["event_id"] + cols)
        sql += (
            f", s{i + 1} AS (SELECT {keep},"
            f" CAST(length(regexp_extract_all(t, '{pat_sql}')) AS BIGINT) AS n_{name},"
            f" regexp_replace(t, '{pat_sql}', '{tok}', 'g') AS t FROM s{i})"
        )
        cols.append(f"n_{name}")
    keep = ", ".join(["event_id"] + cols)
    return f"{sql} SELECT {keep}, t AS props FROM s{len(REDACT_RULES)} ORDER BY event_id"


def _rolling_fps_sql() -> str:
    from relation_extraction_ray.functions.text import _RK_B, _RK_K, _RK_M, _RK_W

    pw = [pow(_RK_B, _RK_K - 1 - j, _RK_M) for j in range(_RK_K)]
    pw_sql = "[" + ",".join(f"{p}::HUGEINT" for p in pw) + "]"
    return f"""
        WITH h AS (
          SELECT doc_id,
            CASE WHEN length(text) < {_RK_K} THEN [] ELSE
              list_transform(range(0, length(text) - {_RK_K} + 1), i ->
                (list_sum(list_transform(range(0, {_RK_K}), j ->
                  ord(substr(text, (i + j + 1)::INT, 1))::HUGEINT * ({pw_sql})[(j + 1)::INT])) % {_RK_M})::UBIGINT)
            END AS hs
          FROM documents
        )
        , f AS (
          SELECT doc_id,
               CASE WHEN len(hs) = 0 THEN []
                    WHEN len(hs) <= {_RK_W} THEN [list_min(hs)]
                    ELSE list_sort(list_distinct(list_transform(
                        range(0, len(hs) - {_RK_W} + 1),
                        i -> list_min(hs[(i+1)::INT:(i+{_RK_W})::INT])))) END AS fps
          FROM h
        )
        SELECT doc_id,
               CAST(len(fps) AS BIGINT) AS n_fps,
               md5(array_to_string(fps, ':')) AS fps_md5
        FROM f
    """


_ROLLING_FPS_SQL = _rolling_fps_sql()


def _kcore_sql(adj_path: str, k: int = 2, rounds: int = 8) -> str:
    """Unroll the synchronized k-core peel (functions/graph.py kcore) as
    chained CTEs: each round recomputes degrees over the surviving edges
    and keeps only edges with both endpoints at degree ≥ k.  Peeling is
    monotone, so rounds past the fixpoint are no-ops — a FIXED unroll
    depth compares exactly with the engine's run-to-fixpoint as long as
    the data converges within ``rounds`` (asserted in tests)."""
    cte = f"""
    e0 AS MATERIALIZED (SELECT DISTINCT least(src_id, dst_id) AS a,
                           greatest(src_id, dst_id) AS b
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id)"""
    for i in range(rounds):
        # MATERIALIZED: inlined CTEs re-expand e{i} ~5x per round (the
        # unroll would blow up combinatorially and exhaust file handles
        # re-opening the parquet)
        cte += f""",
    d{i} AS MATERIALIZED (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
             (SELECT a AS node FROM e{i} UNION ALL SELECT b FROM e{i}) GROUP BY node),
    e{i + 1} AS MATERIALIZED (SELECT e.a, e.b FROM e{i} e
             JOIN d{i} x ON x.node = e.a AND x.deg >= {k}
             JOIN d{i} y ON y.node = e.b AND y.deg >= {k})"""
    return (
        "WITH "
        + cte
        + f""",
    df AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
           (SELECT a AS node FROM e{rounds} UNION ALL SELECT b FROM e{rounds}) GROUP BY node)
    SELECT node, deg FROM df WHERE deg >= {k} ORDER BY node"""
    )


def _bfs_sql(adj_path: str, seed_pct: int = 5, hops: int = 6) -> str:
    """Unroll the multi-source BFS min-relaxation (functions/graph.py
    bfs_hops) as chained CTEs: seeds are the md5-bucket nodes, each round
    folds (existing dists ∪ neighbor dist+1) with one GROUP BY min.
    Min is monotone, so a fixed unroll depth compares exactly with the
    engine's fixed round count at any convergence point."""
    cte = f"""
    eu AS MATERIALIZED (SELECT DISTINCT least(src_id, dst_id) AS a,
                               greatest(src_id, dst_id) AS b
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id),
    e AS MATERIALIZED (SELECT a AS u, b AS v FROM eu UNION ALL SELECT b, a FROM eu),
    d0 AS MATERIALIZED (SELECT DISTINCT u AS node, CAST(0 AS BIGINT) AS dist FROM e
           WHERE CAST(('0x' || substr(md5('seed:' || u), 1, 8)) AS UBIGINT) % 100 < {seed_pct})"""
    for i in range(hops):
        cte += f""",
    d{i + 1} AS MATERIALIZED (SELECT node, min(dist) AS dist FROM (
             SELECT node, dist FROM d{i}
             UNION ALL
             SELECT e.v AS node, d.dist + 1 FROM e JOIN d{i} d ON d.node = e.u
           ) GROUP BY node)"""
    return "WITH " + cte + f"\n    SELECT node, dist FROM d{hops} ORDER BY node"


def _ktruss_sql(adj_path: str, k: int = 3, rounds: int = 5) -> str:
    """Unroll the k-truss synchronized peel (functions/graph.py ktruss):
    per round one common-neighbor count over the surviving edges and a
    LEFT-join support filter; support is monotone under removal, so the
    fixed depth compares exactly.  Final support recomputed over the
    last edge set (no further filter — the engine's contract)."""
    cte = f"""
    e0 AS MATERIALIZED (SELECT DISTINCT least(src_id, dst_id) AS a,
                               greatest(src_id, dst_id) AS b
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id)"""
    for i in range(rounds + 1):
        cte += f""",
    nb{i} AS MATERIALIZED (SELECT a AS node, b AS nbr FROM e{i}
           UNION ALL SELECT b, a FROM e{i}),
    cn{i} AS MATERIALIZED (
      SELECT x.node AS a, y.node AS b, CAST(count(*) AS BIGINT) AS n
      FROM nb{i} x JOIN nb{i} y ON y.nbr = x.nbr AND x.node < y.node
      JOIN e{i} e ON e.a = x.node AND e.b = y.node GROUP BY 1, 2)"""
        if i < rounds:
            cte += f""",
    e{i + 1} AS MATERIALIZED (
      SELECT e.a, e.b FROM e{i} e
      LEFT JOIN cn{i} c ON c.a = e.a AND c.b = e.b
      WHERE coalesce(c.n, 0) >= {k - 2})"""
    return (
        "WITH "
        + cte
        + f"""
    SELECT e.a AS node_a, e.b AS node_b,
           CAST(coalesce(c.n, 0) AS BIGINT) AS support
    FROM e{rounds} e LEFT JOIN cn{rounds} c ON c.a = e.a AND c.b = e.b
    ORDER BY node_a, node_b"""
    )


def _harmonic_sql(adj_path: str, seed_pct: int = 5, hops: int = 4) -> str:
    """Unroll the per-landmark BFS (functions/graph.py harmonic_centrality)
    keyed by (node, seed), then fold Σ (2·10⁶ + d) // (2d) over dist > 0.
    Monotone min — the fixed unroll depth compares exactly."""
    cte = f"""
    eu AS MATERIALIZED (SELECT DISTINCT least(src_id, dst_id) AS a,
                               greatest(src_id, dst_id) AS b
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id),
    e AS MATERIALIZED (SELECT a AS u, b AS v FROM eu UNION ALL SELECT b, a FROM eu),
    d0 AS MATERIALIZED (SELECT DISTINCT u AS node, u AS seed, CAST(0 AS BIGINT) AS dist FROM e
           WHERE CAST(('0x' || substr(md5('seed:' || u), 1, 8)) AS UBIGINT) % 100 < {seed_pct})"""
    for i in range(hops):
        cte += f""",
    d{i + 1} AS MATERIALIZED (SELECT node, seed, min(dist) AS dist FROM (
             SELECT node, seed, dist FROM d{i}
             UNION ALL
             SELECT e.v AS node, d.seed, d.dist + 1 FROM e JOIN d{i} d ON d.node = e.u
           ) GROUP BY node, seed)"""
    return (
        "WITH "
        + cte
        + f"""
    SELECT node, CAST(count(*) AS BIGINT) AS n_reached,
           CAST(sum((2000000 + dist) // (2 * dist)) AS BIGINT) AS h_micro
    FROM d{hops} WHERE dist > 0 GROUP BY node ORDER BY node"""
    )


def _sssp_sql(adj_path: str, seed_pct: int = 5, rounds: int = 6) -> str:
    """Unroll the weighted Bellman-Ford relaxation (functions/graph.py
    sssp_hops): undirected pair weights summed over both directions, seeds
    from the md5 bucket, per round one join + GROUP BY min over
    dist + w.  Monotone integer min — fixed unroll compares exactly."""
    cte = f"""
    ew AS MATERIALIZED (SELECT least(src_id, dst_id) AS a,
                               greatest(src_id, dst_id) AS b,
                               CAST(sum(weight) AS BIGINT) AS w
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id GROUP BY 1, 2),
    e AS MATERIALIZED (SELECT a AS u, b AS v, w FROM ew UNION ALL SELECT b, a, w FROM ew),
    d0 AS MATERIALIZED (SELECT DISTINCT u AS node, CAST(0 AS BIGINT) AS dist FROM e
           WHERE CAST(('0x' || substr(md5('seed:' || u), 1, 8)) AS UBIGINT) % 100 < {seed_pct})"""
    for i in range(rounds):
        cte += f""",
    d{i + 1} AS MATERIALIZED (SELECT node, min(dist) AS dist FROM (
             SELECT node, dist FROM d{i}
             UNION ALL
             SELECT e.v AS node, d.dist + e.w FROM e JOIN d{i} d ON d.node = e.u
           ) GROUP BY node)"""
    return "WITH " + cte + f"\n    SELECT node, dist FROM d{rounds} ORDER BY node"


def _label_prop_sql(adj_path: str, rounds: int = 3) -> str:
    """Unroll synchronous label propagation (functions/graph.py
    label_propagation) as chained CTEs: per round, neighbor-label counts
    via one join + GROUP BY, then the per-node argmax via a
    row_number() window ordered (count DESC, label ASC) — the same
    deterministic tie-break the engine's vectorized MODE kernel applies.
    Both sides run EXACTLY ``rounds`` rounds, so the compare is exact
    without any fixpoint argument."""
    cte = f"""
    eu AS MATERIALIZED (SELECT DISTINCT least(src_id, dst_id) AS a,
                               greatest(src_id, dst_id) AS b
           FROM read_parquet('{adj_path}') WHERE src_id <> dst_id),
    e AS MATERIALIZED (SELECT a AS u, b AS v FROM eu UNION ALL SELECT b, a FROM eu),
    l0 AS MATERIALIZED (SELECT DISTINCT u AS node, u AS label FROM e)"""
    for i in range(rounds):
        cte += f""",
    l{i + 1} AS MATERIALIZED (SELECT node, label FROM (
             SELECT node, label,
                    row_number() OVER (PARTITION BY node ORDER BY cnt DESC, label ASC) AS rn
             FROM (SELECT e.v AS node, l.label AS label, count(*) AS cnt
                   FROM e JOIN l{i} l ON l.node = e.u GROUP BY 1, 2)
           ) WHERE rn = 1)"""
    return (
        "WITH " + cte
        + f"\n    SELECT node, label AS community FROM l{rounds} ORDER BY node"
    )


def _modularity_sql(adj_path: str, rounds: int = 3) -> str:
    """Newman modularity of the label_propagation assignment: the same
    unrolled LPA CTE chain, then Q from exact integer sufficient stats
    — (4·m·Σm_c − ΣD_c²)/(4m²) — with the engine's IEEE final form."""
    lp = _label_prop_sql(adj_path, rounds)
    head, _, _ = lp.rpartition("SELECT node, label AS community")
    return (
        head.rstrip()
        + f""",
    comm AS (SELECT node, label AS community FROM l{rounds}),
    j AS (SELECT eu.a, eu.b, ca.community AS ca, cb.community AS cb
          FROM eu JOIN comm ca ON ca.node = eu.a
                  JOIN comm cb ON cb.node = eu.b),
    agg AS (SELECT CAST(count(*) AS BIGINT) AS m,
                   CAST(sum(CASE WHEN ca = cb THEN 1 ELSE 0 END) AS BIGINT) AS mc
            FROM j),
    dc AS (SELECT community, CAST(count(*) AS BIGINT) AS d
           FROM (SELECT ca AS community FROM j UNION ALL SELECT cb FROM j)
           GROUP BY community),
    sq AS (SELECT sum(CAST(d AS HUGEINT) * d) AS sd2,
                  CAST(count(*) AS BIGINT) AS n_comm FROM dc)
    SELECT agg.m AS n_edges, sq.n_comm AS n_communities,
           CAST(floor(CAST(4 * CAST(agg.m AS HUGEINT) * agg.mc - sq.sd2 AS DOUBLE)
                 / CAST(4 * CAST(agg.m AS HUGEINT) * agg.m AS DOUBLE)
                 * 1000000000.0 + 0.5) AS BIGINT) AS q_nano
    FROM agg, sq"""
    )


def _walks_cte(adj_path: str, walk_len: int) -> str:
    """Shared walk-replay CTE chain (functions/graph.py random_walks):
    neighbors ranked by row_number() over sorted dst per src, the step-t
    hop joined on idx = md5_u64(walk_id|node|t) % outdeg — the identical
    draw the engine computes, so the full walk set is value-exact.
    Ends with a CTE named ``w`` holding (walk_id, step, node)."""
    cte = f"""
    e AS MATERIALIZED (SELECT DISTINCT src_id AS u, dst_id AS v
                       FROM read_parquet('{adj_path}')),
    nb AS MATERIALIZED (SELECT u, v,
           row_number() OVER (PARTITION BY u ORDER BY v) - 1 AS idx,
           count(*) OVER (PARTITION BY u) AS deg FROM e),
    w0 AS MATERIALIZED (SELECT DISTINCT u AS walk_id, u AS node FROM e)"""
    for t in range(1, walk_len + 1):
        cte += f""",
    w{t} AS MATERIALIZED (SELECT w.walk_id, n.v AS node
           FROM w{t - 1} w JOIN nb n ON n.u = w.node
           AND n.idx = CAST(
                 CAST(('0x' || substr(md5(w.walk_id || '|' || w.node || '|{t}'), 1, 16)) AS UBIGINT)
                 % CAST(n.deg AS UBIGINT) AS BIGINT))"""
    selects = ["SELECT walk_id, CAST(0 AS BIGINT) AS step, node FROM w0"] + [
        f"SELECT walk_id, CAST({t} AS BIGINT) AS step, node FROM w{t}"
        for t in range(1, walk_len + 1)
    ]
    return cte + ",\n    w AS MATERIALIZED (" + "\n    UNION ALL ".join(selects) + ")"


def _walks_sql(adj_path: str, walk_len: int = 4) -> str:
    return (
        "WITH "
        + _walks_cte(adj_path, walk_len)
        + "\n    SELECT walk_id, step, node FROM w ORDER BY walk_id, step"
    )


def _walk_pairs_sql(adj_path: str, walk_len: int = 4, window: int = 2) -> str:
    """Skip-gram pair counts over the walk replay: self-join on walk_id
    with step distance 1..window, both directions via |Δ|."""
    return (
        "WITH "
        + _walks_cte(adj_path, walk_len)
        + f"""
    SELECT a.node AS center, b.node AS context, CAST(count(*) AS BIGINT) AS n
    FROM w a JOIN w b ON a.walk_id = b.walk_id
         AND a.step <> b.step AND abs(a.step - b.step) <= {window}
    GROUP BY 1, 2 ORDER BY 1, 2"""
    )


def _fanout_sql(adj_path: str, seed_pct: int = 5, fanouts: tuple[int, ...] = (3, 2)) -> str:
    """Replay the deterministic fanout sampler (functions/graph.py
    fanout_sample): per hop, row_number() over (edge-hash, dst) per
    frontier node, keep rank ≤ fanout; next frontier = distinct sampled
    dst."""
    cte = f"""
    e AS MATERIALIZED (SELECT DISTINCT src_id AS u, dst_id AS v
                       FROM read_parquet('{adj_path}')),
    f0 AS MATERIALIZED (SELECT DISTINCT u AS node FROM e
           WHERE CAST(('0x' || substr(md5('seed:' || u), 1, 8)) AS UBIGINT) % 100 < {seed_pct})"""
    selects = []
    for h, f in enumerate(fanouts):
        cte += f""",
    s{h} AS MATERIALIZED (SELECT CAST({h} AS BIGINT) AS hop, u AS src, v AS dst FROM (
           SELECT e.u, e.v,
                  row_number() OVER (PARTITION BY e.u ORDER BY
                    CAST(('0x' || substr(md5('fan:' || e.u || '|' || e.v || '|{h}'), 1, 16)) AS UBIGINT),
                    e.v) AS rn
           FROM e JOIN f{h} fr ON fr.node = e.u) WHERE rn <= {f}),
    f{h + 1} AS MATERIALIZED (SELECT DISTINCT dst AS node FROM s{h})"""
        selects.append(f"SELECT hop, src, dst FROM s{h}")
    return (
        "WITH " + cte + "\n    "
        + "\n    UNION ALL ".join(selects)
        + "\n    ORDER BY hop, src, dst"
    )


def _pagerank_sql(adj_path: str, iters: int = 5, seed_pct: int | None = None) -> str:
    """Unroll the engine's integer-PageRank recurrence (functions/graph.py)
    as chained CTEs: rank0 = 1e12; contrib = rank*w // ow (dangling mass
    dropped); rank' = 15%*1e12 + 85%*sum // 100.  All-integer, so the
    replay is bit-exact at any partitioning.  With ``seed_pct`` the init
    and restart mass apply only to the md5 landmark set (personalized
    PageRank)."""
    if seed_pct is None:
        init_expr = "CAST(1000000000000 AS BIGINT)"
        base_expr = "150000000000"
    else:
        seed = (
            f"CAST(('0x' || substr(md5('seed:' || {{col}}), 1, 8)) AS UBIGINT) % 100 < {seed_pct}"
        )
        init_expr = f"CAST(CASE WHEN {seed.format(col='node')} THEN 1000000000000 ELSE 0 END AS BIGINT)"
        base_expr = f"CASE WHEN {seed.format(col='n.node')} THEN 150000000000 ELSE 0 END"
    cte = f"""
    edges0 AS (SELECT src_id AS u, dst_id AS v, CAST(sum(weight) AS BIGINT) AS w
               FROM read_parquet('{adj_path}') GROUP BY 1, 2),
    outw AS (SELECT u, sum(w) AS ow FROM edges0 GROUP BY u),
    nodes AS (SELECT u AS node FROM edges0 UNION SELECT v FROM edges0),
    r0 AS (SELECT node, {init_expr} AS rank FROM nodes)"""
    for i in range(iters):
        cte += f""",
    c{i + 1} AS (SELECT e.v AS node, sum(r.rank * e.w // o.ow) AS s
           FROM edges0 e JOIN r{i} r ON r.node = e.u JOIN outw o ON o.u = e.u
           GROUP BY e.v),
    r{i + 1} AS (SELECT n.node,
           CAST({base_expr} + 85 * coalesce(c.s, 0) // 100 AS BIGINT) AS rank
           FROM nodes n LEFT JOIN c{i + 1} c ON c.node = n.node)"""
    return (
        "WITH "
        + cte
        + f"\n    SELECT node, rank FROM r{iters} ORDER BY rank DESC, node ASC"
    )


def _hits_sql(adj_path: str, iters: int = 3) -> str:
    """Unroll the engine's integer HITS recurrence (functions/graph.py
    hits): distinct directed edges, s₀ = 10⁶ everywhere, each half-step
    sums the opposite score over in-/out-edges then rescales to 10⁶ at
    the max — all-integer, bit-exact at any partitioning.  Every CTE is
    ``AS MATERIALIZED``: each rescale reads its raw scores three times
    (twice through the max), and DuckDB would otherwise inline the chain
    and expand it exponentially in ``iters``."""
    cte = f"""
    e AS MATERIALIZED (SELECT DISTINCT src_id AS u, dst_id AS v FROM read_parquet('{adj_path}')),
    nodes AS MATERIALIZED (SELECT u AS node FROM e UNION SELECT v FROM e),
    h0 AS MATERIALIZED (SELECT node, CAST(1000000 AS BIGINT) AS s FROM nodes)"""
    for i in range(1, iters + 1):
        cte += f""",
    a{i}r AS MATERIALIZED (SELECT n.node, CAST(coalesce(sum(h.s), 0) AS BIGINT) AS s
           FROM nodes n LEFT JOIN e ON e.v = n.node
           LEFT JOIN h{i - 1} h ON h.node = e.u GROUP BY n.node),
    a{i}m AS MATERIALIZED (SELECT max(s) AS m FROM a{i}r),
    a{i} AS MATERIALIZED (SELECT node, CAST(CASE WHEN (SELECT m FROM a{i}m) > 0
           THEN s * 1000000 // (SELECT m FROM a{i}m) ELSE 0 END AS BIGINT) AS s
           FROM a{i}r),
    h{i}r AS MATERIALIZED (SELECT n.node, CAST(coalesce(sum(a.s), 0) AS BIGINT) AS s
           FROM nodes n LEFT JOIN e ON e.u = n.node
           LEFT JOIN a{i} a ON a.node = e.v GROUP BY n.node),
    h{i}m AS MATERIALIZED (SELECT max(s) AS m FROM h{i}r),
    h{i} AS MATERIALIZED (SELECT node, CAST(CASE WHEN (SELECT m FROM h{i}m) > 0
           THEN s * 1000000 // (SELECT m FROM h{i}m) ELSE 0 END AS BIGINT) AS s
           FROM h{i}r)"""
    return (
        "WITH "
        + cte
        + f"""
    SELECT n.node, h.s AS hub_scaled, a.s AS auth_scaled
    FROM nodes n JOIN h{iters} h ON h.node = n.node
    JOIN a{iters} a ON a.node = n.node ORDER BY n.node"""
    )


def oracle_sql() -> dict[str, str]:
    kg_paths = _write_kg_oracle_parquet()
    lang_cols = ",\n".join(
        f"  len(list_intersect(toks, {_sql_list(words)})) AS n_{lang}"
        for lang, words in _LANGS.items()
    )
    return {
        "vocab_top100": """
            SELECT token, cnt FROM (
              SELECT token, CAST(count(*) AS BIGINT) AS cnt
              FROM (SELECT unnest(string_split(lower(text), ' ')) AS token FROM documents)
              WHERE token <> ''
              GROUP BY token)
            ORDER BY cnt DESC, token ASC LIMIT 100
        """,
        "doc_stats": """
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(length(text)) AS BIGINT) AS total_chars,
                   CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS total_tokens
            FROM documents GROUP BY source ORDER BY source
        """,
        "fingerprints": """
            SELECT doc_id, md5(lower(text)) AS fp FROM documents
        """,
        "quality": """
            SELECT doc_id,
                   CAST(len(string_split(lower(text), ' ')) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(string_split(lower(text), ' '))) AS BIGINT) AS n_uniq,
                   CAST(coalesce(list_max(list_transform(string_split(lower(text), ' '), t -> length(t))), 0) AS BIGINT) AS max_token_len
            FROM documents
        """,
        "dedup_exact": """
            SELECT md5(text) AS h, min(doc_id) AS keeper, CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY md5(text)
        """,
        # alias_clusters: transitive-closure-min recursive CTE over the
        # brute-force levenshtein pair graph (the dedup_keep_one shape)
        "alias_clusters": """
            WITH RECURSIVE s AS (SELECT DISTINCT c_name AS v FROM customer),
            prs AS (
              SELECT a.v AS pa, b.v AS pb FROM s a JOIN s b ON a.v < b.v
              WHERE levenshtein(a.v, b.v) = 1
            ), prk AS (
              SELECT CAST(substr(pa, 10) AS BIGINT) AS pa,
                     CAST(substr(pb, 10) AS BIGINT) AS pb
              FROM prs
            ), edges AS (
              SELECT pa AS a, pb AS b FROM prk UNION SELECT pb, pa FROM prk
            ), reach(node, root) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
            ), comp AS (
              SELECT node AS doc_id, MIN(root) AS canonical_id
              FROM reach GROUP BY node
            ), sz AS (
              SELECT canonical_id, CAST(count(*) AS BIGINT) AS cluster_size
              FROM comp GROUP BY canonical_id
            )
            SELECT c.doc_id, c.canonical_id, s2.cluster_size
            FROM comp c JOIN sz s2 ON s2.canonical_id = c.canonical_id
            ORDER BY c.doc_id
        """,
        # fuzzy_pairs: brute-force levenshtein self-join — the oracle pays
        # the O(n²) the deletion-neighborhood index exists to avoid
        "fuzzy_pairs": """
            WITH s AS (SELECT DISTINCT c_name AS v FROM customer)
            SELECT a.v AS a, b.v AS b,
                   CASE WHEN length(a.v) = length(b.v) THEN 'sub' ELSE 'indel' END AS kind
            FROM s a JOIN s b ON a.v < b.v
            WHERE levenshtein(a.v, b.v) = 1
            ORDER BY a, b
        """,
        # rolling_fps: winnowing fingerprints — the HUGEINT polynomial
        # replays the engine's Rabin-Karp hash exactly (parity verified on
        # unicode/short/empty edge cases)
        "rolling_fps": _ROLLING_FPS_SQL,
        # token_counts: the regex alternatives are disjoint character
        # classes, so greedy matching is identical between Python re and
        # DuckDB's RE2 (verified on unicode + whitespace edge cases)
        "token_counts": r"""
            SELECT doc_id,
                   CAST(len(list_filter(string_split_regex(text, '[ \t\n\f\r]+'), x -> x <> '')) AS BIGINT) AS ws_tokens,
                   CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\f\r]')) AS BIGINT) AS regex_tokens,
                   CAST(length(text) AS BIGINT) AS n_chars
            FROM documents
        """,
        "knn_top10": """
            WITH q AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
              FROM embeddings WHERE vec_id IN (0, 1, 2, 3, 4)
            ), e AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
              FROM embeddings
            )
            SELECT query_id, neighbor_id, rank FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                     CAST(row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.vec_id ASC
                     ) AS BIGINT) AS rank
              FROM q, e WHERE e.vec_id <> q.vec_id)
            WHERE rank <= 10
        """,
        # label_centroids: grouped vector mean replayed per (label, dim)
        # with the same micro-int quantization and // (trunc) mean
        "label_centroids": """
            WITH x AS (
              SELECT label,
                     list_transform(embedding, v -> CAST(floor(CAST(v AS DOUBLE)
                       * 1000000.0 + 0.5) AS BIGINT)) AS micro
              FROM embeddings
            ), e AS (
              SELECT label, i.i AS pos, micro[i.i + 1] AS m
              FROM x, LATERAL (SELECT unnest(range(len(micro))) AS i) i
            )
            SELECT CAST(label AS BIGINT) AS label, pos,
                   CAST(count(*) AS BIGINT) AS n_vecs,
                   CAST(sum(m) AS BIGINT) AS sum_micro,
                   CAST(sum(m) AS BIGINT) // CAST(count(*) AS BIGINT) AS mean_micro
            FROM e GROUP BY label, pos ORDER BY label, pos
        """,
        # knn_sq8: per-vector max-abs int8 quantization replayed with the
        # same round-half-up closed form; integer dots are exact in DOUBLE
        # and the div/sqrt ranking expression is IEEE-identical to numpy
        "knn_sq8": """
            WITH raw AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
              FROM embeddings
            ), s AS (
              SELECT vec_id, emb,
                     list_max(list_transform(emb, x -> abs(x))) AS mx
              FROM raw
            ), c8 AS (
              SELECT vec_id,
                     list_transform(emb, x -> floor(x * 127.0 /
                       (CASE WHEN mx = 0 THEN 1.0 ELSE mx END) + 0.5)) AS c
              FROM s
            ), qq AS (
              SELECT vec_id, c FROM c8 WHERE vec_id IN (10, 11, 12, 13, 14)
            )
            SELECT query_id, neighbor_id, rank FROM (
              SELECT qq.vec_id AS query_id, e.vec_id AS neighbor_id,
                     CAST(row_number() OVER (
                       PARTITION BY qq.vec_id
                       ORDER BY list_dot_product(qq.c, e.c)
                                  / sqrt(list_dot_product(e.c, e.c)) DESC,
                                e.vec_id ASC
                     ) AS BIGINT) AS rank
              FROM qq, c8 e
              WHERE e.vec_id <> qq.vec_id AND list_dot_product(e.c, e.c) > 0)
            WHERE rank <= 10
            ORDER BY query_id, rank
        """,
        "knn_ivf": """
            WITH q AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
              FROM embeddings WHERE vec_id IN (5, 6, 7, 8, 9)
            ), e AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS emb
              FROM embeddings
            )
            SELECT query_id, neighbor_id, rank FROM (
              SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                     CAST(row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(q.emb, e.emb) DESC, e.vec_id ASC
                     ) AS BIGINT) AS rank
              FROM q, e WHERE e.vec_id <> q.vec_id)
            WHERE rank <= 10
            ORDER BY query_id, rank
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(count(*) AS BIGINT) AS count_order,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT) AS sum_disc_price_tenk
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "revenue_by_segment": """
            SELECT c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment ORDER BY c_mktsegment
        """,
        "top_orders": """
            SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS o_totalprice_cents
            FROM orders ORDER BY o_totalprice_cents DESC, o_orderkey ASC LIMIT 10
        """,
        "revenue_by_nation": """
            SELECT n_name,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT)
                       AS revenue_tenk
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1998-01-01'
            GROUP BY n_name ORDER BY revenue_tenk DESC, n_name
        """,
        "q3_top_orders": """
            SELECT o_orderkey, o_orderdate, o_orderpriority,
                   CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 10000) AS BIGINT)) AS BIGINT)
                       AS revenue_tenk
            FROM customer, orders, lineitem
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1997-06-01'
              AND l_shipdate  > TIMESTAMP '1997-06-01'
            GROUP BY o_orderkey, o_orderdate, o_orderpriority
            ORDER BY revenue_tenk DESC, o_orderkey LIMIT 10
        """,
        "global_rank": """
            SELECT o_orderkey,
                   CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                   ROW_NUMBER() OVER (
                       ORDER BY CAST(round(o_totalprice * 100) AS BIGINT) DESC,
                                o_orderkey
                   ) AS rnk
            FROM orders
        """,
        # price_quantiles_radix: percentile_disc semantics spelled out as
        # the integer-exact window rule the radix search implements —
        # value at ascending rank ceil(q*n/100)
        "price_quantiles_radix": """
            WITH c AS (
              SELECT CAST(round(l_extendedprice * 100) AS BIGINT) AS v FROM lineitem
            ),
            nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM c),
            r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM c)
            SELECT q.q_pct, r.v AS value, nn.n
            FROM (VALUES (CAST(1 AS BIGINT)), (25), (50), (75), (99)) q(q_pct), nn, r
            WHERE r.rn = (q.q_pct * nn.n + 99) // 100
            ORDER BY q.q_pct
        """,
        # delta_dedup: full bit replay of the base Bloom sketch (same
        # md5 position rule as bloom_members), applied to the delta fps;
        # a delta doc survives iff at least one of its 4 positions is
        # missing from the base set (no false negatives by construction,
        # false positives deterministic), then keep-first within delta
        "delta_dedup": """
            WITH base AS (
              SELECT md5(text) AS fp FROM documents
              WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 100 < 50
            ), bh AS (
              SELECT DISTINCT
                     CAST(CAST(('0x' || substr(md5('bloom:' || fp), 1, 16)) AS UBIGINT)
                          % 65536 AS BIGINT) AS m1,
                     CAST(CAST(('0x' || substr(md5('bloom:' || fp), 17, 16)) AS UBIGINT)
                          % 65536 AS BIGINT) AS m2
              FROM base
            ), setpos AS (
              SELECT DISTINCT (m1 + j.j * m2) % 65536 AS pos
              FROM bh, LATERAL (SELECT unnest(range(4)) AS j) j
            ), delta AS (
              SELECT doc_id, md5(text) AS fp FROM documents
              WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 100 >= 50
            ), dp AS (
              SELECT doc_id, fp,
                     (CAST(CAST(('0x' || substr(md5('bloom:' || fp), 1, 16)) AS UBIGINT)
                           % 65536 AS BIGINT)
                      + j.j *
                      CAST(CAST(('0x' || substr(md5('bloom:' || fp), 17, 16)) AS UBIGINT)
                           % 65536 AS BIGINT)) % 65536 AS pos
              FROM delta, LATERAL (SELECT unnest(range(4)) AS j) j
            ), gated AS (
              SELECT doc_id, fp
              FROM dp LEFT JOIN setpos s USING (pos)
              GROUP BY doc_id, fp
              HAVING count(*) > sum(CASE WHEN s.pos IS NOT NULL THEN 1 ELSE 0 END)
            )
            SELECT min(doc_id) AS doc_id, fp FROM gated GROUP BY fp
            ORDER BY doc_id
        """,
        "lineitem_cube": """
            SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
                   COALESCE(l_linestatus, 'ALL') AS l_linestatus,
                   CAST(count(*) AS BIGINT) AS n_items,
                   CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM lineitem
            GROUP BY CUBE(l_returnflag, l_linestatus)
            ORDER BY l_returnflag, l_linestatus
        """,
        # events_pivot: the engine discovers the type vocabulary from the
        # data; the testdata type set is stable, so the oracle spells the
        # same five FILTER columns
        "events_pivot": """
            SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   CAST(count(*) FILTER (event_type = 'click') AS BIGINT) AS evt_click,
                   CAST(count(*) FILTER (event_type = 'error') AS BIGINT) AS evt_error,
                   CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT) AS evt_purchase,
                   CAST(count(*) FILTER (event_type = 'signup') AS BIGINT) AS evt_signup,
                   CAST(count(*) FILTER (event_type = 'view') AS BIGINT) AS evt_view,
                   CAST(count(*) AS BIGINT) AS total
            FROM events GROUP BY day ORDER BY day
        """,
        # zorder_orders: exact replay of the Morton layout — integer
        # affine scale to [0, 2^16), bit interleave as a sum over
        # unnest(range(16)) gathers, bucket = top 6 bits (z >> 26)
        "zorder_orders": """
            WITH b AS (
              SELECT min(o_custkey) AS lx, max(o_custkey) AS hx,
                     min(datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE))) AS ly,
                     max(datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE))) AS hy
              FROM orders
            ), s AS (
              SELECT o_orderkey, o_custkey AS x,
                     datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS y,
                     (o_custkey - b.lx) * 65535 // greatest(b.hx - b.lx, 1) AS sx,
                     (datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) - b.ly)
                       * 65535 // greatest(b.hy - b.ly, 1) AS sy
              FROM orders, b
            ), z AS (
              SELECT s.o_orderkey, s.x, s.y,
                     CAST(sum(((s.sx >> i.i) & 1) * (CAST(1 AS BIGINT) << (2 * i.i))
                         + ((s.sy >> i.i) & 1) * (CAST(1 AS BIGINT) << (2 * i.i + 1)))
                          AS BIGINT) AS zv
              FROM s, LATERAL (SELECT unnest(range(16)) AS i) i
              GROUP BY s.o_orderkey, s.x, s.y
            )
            SELECT zv >> 26 AS bucket, CAST(count(*) AS BIGINT) AS n,
                   min(x) AS min_x, max(x) AS max_x,
                   min(y) AS min_y, max(y) AS max_y
            FROM z GROUP BY bucket ORDER BY bucket
        """,
        # events_unpivot: melt of the crosstab including zero cells —
        # distinct days × distinct types with COALESCEd counts
        "events_unpivot": """
            WITH d AS (
              SELECT DISTINCT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day
              FROM events
            ), t AS (
              SELECT DISTINCT event_type FROM events
            ), c AS (
              SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                     event_type, CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1, 2
            )
            SELECT d.day, t.event_type, COALESCE(c.n, 0) AS n
            FROM d CROSS JOIN t
            LEFT JOIN c ON c.day = d.day AND c.event_type = t.event_type
            ORDER BY d.day, t.event_type
        """,
        # cohort_retention: epoch-week cohorts (days since 1970-01-01
        # integer-divided by 7), distinct active users per offset
        "cohort_retention": """
            WITH uw AS (
              SELECT DISTINCT user_id,
                     datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) // 7
                       AS week
              FROM events
            ), c AS (
              SELECT user_id, min(week) AS cohort_week FROM uw GROUP BY user_id
            )
            SELECT c.cohort_week, uw.week - c.cohort_week AS week_offset,
                   CAST(count(DISTINCT uw.user_id) AS BIGINT) AS n_users
            FROM uw JOIN c USING (user_id)
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # funnel: strictly-later stage rule — t_k = min ts of a stage-k
        # event with ts > t_{k-1}
        "funnel": """
            WITH s1 AS (
              SELECT user_id, min(ts) AS t FROM events
              WHERE event_type = 'view' GROUP BY user_id
            ), s2 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN s1 USING (user_id)
              WHERE e.event_type = 'click' AND e.ts > s1.t GROUP BY e.user_id
            ), s3 AS (
              SELECT e.user_id, min(e.ts) AS t FROM events e
              JOIN s2 USING (user_id)
              WHERE e.event_type = 'purchase' AND e.ts > s2.t GROUP BY e.user_id
            )
            SELECT * FROM (
              SELECT 1 AS stage_idx, 'view' AS stage,
                     CAST(count(*) AS BIGINT) AS n_users FROM s1
              UNION ALL SELECT 2, 'click', CAST(count(*) AS BIGINT) FROM s2
              UNION ALL SELECT 3, 'purchase', CAST(count(*) AS BIGINT) FROM s3
            ) ORDER BY stage_idx
        """,
        # table_diff: the derivation is shared, so the oracle classifies
        # from the key predicates directly (changed = %7 price bump)
        "table_diff": """
            WITH a AS (
              SELECT o_orderkey AS k FROM orders WHERE o_orderkey % 11 <> 0
            ), b AS (
              SELECT o_orderkey AS k, (o_orderkey % 7 = 0) AS ch
              FROM orders WHERE o_orderkey % 13 <> 0
            ), s AS (
              SELECT 'added' AS status, b.k FROM b LEFT JOIN a ON a.k = b.k
              WHERE a.k IS NULL
              UNION ALL
              SELECT 'removed', a.k FROM a LEFT JOIN b ON b.k = a.k
              WHERE b.k IS NULL
              UNION ALL
              SELECT CASE WHEN ch THEN 'changed' ELSE 'unchanged' END, b.k
              FROM b JOIN a ON a.k = b.k
            )
            SELECT status, CAST(count(*) AS BIGINT) AS n,
                   CAST(min(k) AS BIGINT) AS min_key,
                   CAST(max(k) AS BIGINT) AS max_key
            FROM s GROUP BY status ORDER BY status
        """,
        # copurchase: distinct-per-order self-join, unordered pairs
        "copurchase": """
            WITH lp AS (
              SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            )
            SELECT a.l_partkey AS pa, b.l_partkey AS pb,
                   CAST(count(*) AS BIGINT) AS n_orders
            FROM lp a JOIN lp b
              ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
            GROUP BY 1, 2 HAVING count(*) >= 2
            ORDER BY pa, pb
        """,
        # segment_mad: med2 = the two middle order statistics summed
        # (2·median, no floats); deviations |2·cents − med2| stay integer
        # half-cents; their med2 is the MAD in quarter-cents
        "segment_mad": """
            WITH v AS (
              SELECT c_mktsegment AS g,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer
            ), r AS (
              SELECT g, cents,
                     row_number() OVER (PARTITION BY g ORDER BY cents) AS rn,
                     count(*) OVER (PARTITION BY g) AS n
              FROM v
            ), m AS (
              SELECT g, CAST(max(n) AS BIGINT) AS n,
                     CAST(sum(CASE WHEN rn = (n - 1) // 2 + 1 THEN cents ELSE 0 END)
                          + sum(CASE WHEN rn = n // 2 + 1 THEN cents ELSE 0 END)
                          AS BIGINT) AS med2
              FROM r GROUP BY g
            ), d AS (
              SELECT v.g, abs(2 * v.cents - m.med2) AS dev
              FROM v JOIN m ON m.g = v.g
            ), rd AS (
              SELECT g, dev,
                     row_number() OVER (PARTITION BY g ORDER BY dev) AS rn,
                     count(*) OVER (PARTITION BY g) AS n
              FROM d
            ), md AS (
              SELECT g,
                     CAST(sum(CASE WHEN rn = (n - 1) // 2 + 1 THEN dev ELSE 0 END)
                          + sum(CASE WHEN rn = n // 2 + 1 THEN dev ELSE 0 END)
                          AS BIGINT) AS mad2
              FROM rd GROUP BY g
            )
            SELECT m.g AS c_mktsegment, m.n,
                   m.med2 AS median_halfunits,
                   md.mad2 AS mad_quarterunits
            FROM m JOIN md ON md.g = m.g
            ORDER BY c_mktsegment
        """,
        # autocorr_daily: the daily-revenue series over the full calendar
        # span (missing days are true zeros), exact integer ACF sufficient
        # stats in HUGEINT — num = n²·Σx_t·x_{t+k} − n·S·A_k + (n−k)·S²,
        # den = n·(n·Σx² − S²) — one corr-family IEEE final form
        "autocorr_daily": """
            WITH dc AS (
              SELECT datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS day,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY 1
            ), span AS (
              SELECT min(day) AS lo, max(day) AS hi FROM dc
            ), grid AS (
              SELECT unnest(generate_series(lo, hi)) AS day FROM span
            ), g AS (
              SELECT grid.day, CAST(coalesce(dc.cents, 0) AS HUGEINT) AS x
              FROM grid LEFT JOIN dc ON dc.day = grid.day
            ), stats AS (
              SELECT CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(x) AS HUGEINT) AS s,
                     CAST(sum(x * x) AS HUGEINT) AS sxx
              FROM g
            ), lagk AS (
              SELECT k.lag,
                     CAST(sum(a.x * b.x) AS HUGEINT) AS sxy,
                     CAST(sum(a.x + b.x) AS HUGEINT) AS ak
              FROM (SELECT unnest([1, 7]) AS lag) k
              JOIN g a ON TRUE
              JOIN g b ON b.day = a.day + k.lag
              GROUP BY k.lag
            )
            SELECT l.lag AS lag, CAST(s.n AS BIGINT) AS n_days,
                   CAST(floor(
                     CAST(s.n*s.n*l.sxy - s.n*s.s*l.ak + (s.n - l.lag)*s.s*s.s AS DOUBLE)
                     / CAST(s.n*(s.n*s.sxx - s.s*s.s) AS DOUBLE) * 1e9 + 0.5
                   ) AS BIGINT) AS r_nano
            FROM lagk l, stats s
            WHERE l.lag < s.n AND s.n*(s.n*s.sxx - s.s*s.s) > 0
            ORDER BY lag
        """,
        # cat_dependence: per-cell nano-rounded ln terms (ln over the same
        # exact integer-to-double casts; CPython math.log is bit-identical
        # to DuckDB ln on this libm) summed exactly, truncating // on both
        # engines; chi² terms are pure integer floor divisions
        "cat_dependence": """
            WITH cells AS (
              SELECT o_orderstatus AS x, o_orderpriority AS y,
                     CAST(count(*) AS HUGEINT) AS c
              FROM orders GROUP BY 1, 2
            ), tot AS (
              SELECT CAST(sum(c) AS HUGEINT) AS n,
                     CAST(count(*) AS BIGINT) AS n_cells
              FROM cells
            ), mx AS (
              SELECT x, CAST(sum(c) AS HUGEINT) AS cx FROM cells GROUP BY x
            ), my AS (
              SELECT y, CAST(sum(c) AS HUGEINT) AS cy FROM cells GROUP BY y
            ), terms AS (
              SELECT cells.c,
                     CAST(floor(ln(CAST(tot.n * cells.c AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT)
                     - CAST(floor(ln(CAST(mx.cx * my.cy AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT) AS lterm,
                     tot.n * cells.c - mx.cx * my.cy AS d,
                     mx.cx * my.cy AS m,
                     tot.n AS n, tot.n_cells AS n_cells
              FROM cells
              JOIN mx ON mx.x = cells.x
              JOIN my ON my.y = cells.y
              CROSS JOIN tot
            )
            SELECT CAST(n AS BIGINT) AS n, n_cells,
                   CAST((2 * sum(c * lterm) + n) // (2 * n) AS BIGINT) AS mi_nano,
                   CAST(sum((d * d * CAST(1000000000 AS HUGEINT)) // (n * m))
                        + ((n * n - sum(m)) * CAST(1000000000 AS HUGEINT)) // n
                        AS BIGINT) AS chi2_nano
            FROM terms GROUP BY n, n_cells
        """,
        # weighted_sample: the same md5-derived Exp(1)/w integer rank key —
        # identical IEEE ops (cast, +0.5, divide, ln, *1e15, floor) then
        # pure-integer (L*100)//w, ties by doc_id
        "weighted_sample": """
            WITH s AS (
              SELECT doc_id,
                     CAST(greatest(coalesce(length(text), 0), 1) AS HUGEINT) AS w,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS h
              FROM documents
            ), sc AS (
              SELECT doc_id, CAST(w AS BIGINT) AS weight,
                     CAST(((0 - CAST(floor(
                         ln((CAST(h AS DOUBLE) + 0.5) / 18446744073709551616.0) * 1e15
                       ) AS HUGEINT)) * 100) // w AS BIGINT) AS score
              FROM s
            )
            SELECT doc_id, weight, score FROM sc
            ORDER BY score, doc_id LIMIT 100
        """,
        # revenue_gini: distinct-value histogram + the per-run collapsed
        # sorted-rank identity num = Σ v·c·(2p + c − n), all HUGEINT
        "revenue_gini": """
            WITH h AS (
              SELECT o_orderpriority AS g,
                     CAST(round(o_totalprice * 100) AS HUGEINT) AS v,
                     CAST(count(*) AS HUGEINT) AS c
              FROM orders GROUP BY 1, 2
            ), w AS (
              SELECT g, v, c,
                     sum(c) OVER (PARTITION BY g ORDER BY v
                                  ROWS UNBOUNDED PRECEDING) - c AS p,
                     sum(c) OVER (PARTITION BY g) AS n,
                     sum(v * c) OVER (PARTITION BY g) AS sx
              FROM h
            )
            SELECT g AS o_orderpriority,
                   CAST(max(n) AS BIGINT) AS n,
                   CAST(max(sx) AS BIGINT) AS sum_cents,
                   CAST(CASE WHEN max(n) * max(sx) > 0
                        THEN (sum(v * c * (2 * p + c - n)) * CAST(1000000000 AS HUGEINT))
                             // (max(n) * max(sx))
                        ELSE 0 END AS BIGINT) AS gini_nano
            FROM w GROUP BY g ORDER BY g
        """,
        # centroid_similarity: cosine of the micro-int SUM vectors (n
        # divides out), HUGEINT dot/norms, one fixed IEEE form per pair
        "centroid_similarity": """
            WITH x AS (
              SELECT label,
                     list_transform(embedding, v -> CAST(floor(CAST(v AS DOUBLE)
                       * 1000000.0 + 0.5) AS BIGINT)) AS micro
              FROM embeddings
            ), e AS (
              SELECT label, i.i AS pos, micro[i.i + 1] AS m
              FROM x, LATERAL (SELECT unnest(range(len(micro))) AS i) i
            ), c AS (
              SELECT CAST(label AS BIGINT) AS label, pos,
                     CAST(sum(m) AS HUGEINT) AS s
              FROM e GROUP BY label, pos
            ), d AS (
              SELECT a.label AS label_a, b.label AS label_b,
                     CAST(sum(a.s * b.s) AS HUGEINT) AS dot,
                     CAST(sum(a.s * a.s) AS HUGEINT) AS na,
                     CAST(sum(b.s * b.s) AS HUGEINT) AS nb
              FROM c a JOIN c b ON a.pos = b.pos AND a.label < b.label
              GROUP BY 1, 2
            )
            SELECT label_a, label_b,
                   CAST(CASE WHEN na > 0 AND nb > 0
                        THEN floor(CAST(dot AS DOUBLE)
                             / (sqrt(CAST(na AS DOUBLE)) * sqrt(CAST(nb AS DOUBLE)))
                             * 1e9 + 0.5)
                        ELSE 0 END AS BIGINT) AS cos_nano
            FROM d ORDER BY label_a, label_b
        """,
        # cluster_scatter: n·Σ|v|² − |s|² clears the centroid mean;
        # separations compare cross-multiplied rationals — pure integer
        "cluster_scatter": """
            WITH x AS (
              SELECT label,
                     list_transform(embedding, v -> CAST(floor(CAST(v AS DOUBLE)
                       * 1000000.0 + 0.5) AS BIGINT)) AS micro
              FROM embeddings
            ), e AS (
              SELECT label, i.i AS pos, micro[i.i + 1] AS m
              FROM x, LATERAL (SELECT unnest(range(len(micro))) AS i) i
            ), c AS (
              SELECT CAST(label AS BIGINT) AS label, pos,
                     CAST(sum(m) AS HUGEINT) AS s
              FROM e GROUP BY 1, 2
            ), st AS (
              SELECT CAST(label AS BIGINT) AS label,
                     CAST(count(*) AS HUGEINT) AS n,
                     CAST(sum(list_sum(list_transform(micro, v -> v * v))) AS HUGEINT) AS sq
              FROM x GROUP BY 1
            ), intra AS (
              SELECT st.label, st.n,
                     (st.n * st.sq
                      - (SELECT sum(s * s) FROM c WHERE c.label = st.label))
                     // (st.n * st.n) AS intra_scaled
              FROM st
            ), pairs AS (
              SELECT a.label AS la, b.label AS lb,
                     CAST(sum((bn.n * a.s - an.n * b.s) * (bn.n * a.s - an.n * b.s))
                          AS HUGEINT)
                     // (an.n * an.n * bn.n * bn.n) AS sep
              FROM c a
              JOIN c b ON a.pos = b.pos AND a.label <> b.label
              JOIN st an ON an.label = a.label
              JOIN st bn ON bn.label = b.label
              GROUP BY a.label, b.label, an.n, bn.n
            ), best AS (
              SELECT la, lb, sep,
                     row_number() OVER (PARTITION BY la ORDER BY sep, lb) AS rn
              FROM pairs
            )
            SELECT i.label, CAST(i.n AS BIGINT) AS n_vecs,
                   CAST(i.intra_scaled AS BIGINT) AS intra_scaled,
                   b.lb AS nearest_label,
                   CAST(b.sep AS BIGINT) AS sep_scaled
            FROM intra i JOIN best b ON b.la = i.label AND b.rn = 1
            ORDER BY i.label
        """,
        # dup_rate: the fingerprints-query md5, multiplicity > 1 mass
        "dup_rate": """
            WITH f AS (
              SELECT source, md5(lower(text)) AS fp FROM documents
            ), tc AS (
              SELECT source, fp, CAST(count(*) AS BIGINT) AS c
              FROM f GROUP BY 1, 2
            ), s AS (
              SELECT source, CAST(sum(c) AS BIGINT) AS n_docs,
                     CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END) AS BIGINT) AS n_dup_docs
              FROM tc GROUP BY source
            )
            SELECT source, n_docs, n_dup_docs,
                   CAST((2000 * n_dup_docs + n_docs) // (2 * n_docs) AS BIGINT) AS dup_milli
            FROM s ORDER BY source
        """,
        # lexical_diversity: the vocab_top100 tokenization per source,
        # hapax = count-1 types, ratios in round-half-up integer milli
        "lexical_diversity": """
            WITH tok AS (
              SELECT source, unnest(string_split(lower(text), ' ')) AS token
              FROM documents
            ), tc AS (
              SELECT source, token, CAST(count(*) AS BIGINT) AS c
              FROM tok WHERE token <> '' GROUP BY 1, 2
            ), s AS (
              SELECT source, CAST(sum(c) AS BIGINT) AS n_tokens,
                     CAST(count(*) AS BIGINT) AS n_types,
                     CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax
              FROM tc GROUP BY source
            )
            SELECT source, n_tokens, n_types,
                   CAST((2000 * n_types + n_tokens) // (2 * n_tokens) AS BIGINT) AS ttr_milli,
                   CAST((2000 * n_hapax + n_types) // (2 * n_types) AS BIGINT) AS hapax_milli
            FROM s ORDER BY source
        """,
        # lang_entropy: H = ln(n) − (1/n)Σc·ln(c), both ln's nano-rounded
        # per term, truncating // (S ≥ 0 so floor agrees)
        "lang_entropy": """
            WITH cells AS (
              SELECT source AS g, lang AS v, CAST(count(*) AS BIGINT) AS c
              FROM documents GROUP BY 1, 2
            ), gs AS (
              SELECT g, CAST(sum(c) AS BIGINT) AS n,
                     CAST(count(*) AS BIGINT) AS n_values,
                     CAST(sum(c * CAST(floor(ln(CAST(c AS DOUBLE)) * 1e9 + 0.5) AS BIGINT))
                          AS HUGEINT) AS s
              FROM cells GROUP BY g
            )
            SELECT g AS source, n, n_values,
                   CAST(CAST(floor(ln(CAST(n AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT)
                        - (2 * s + n) // (2 * CAST(n AS HUGEINT)) AS BIGINT) AS entropy_nano
            FROM gs ORDER BY source
        """,
        # audience_overlap: distinct-user sets per event type, pairwise
        # intersection via self-join, Jaccard in integer milli
        "audience_overlap": """
            WITH d AS (
              SELECT DISTINCT user_id AS u, event_type AS t FROM events
            ), m AS (
              SELECT t, CAST(count(*) AS BIGINT) AS c FROM d GROUP BY t
            ), p AS (
              SELECT a.t AS ta, b.t AS tb, CAST(count(*) AS BIGINT) AS n_inter
              FROM d a JOIN d b ON a.u = b.u AND a.t < b.t
              GROUP BY 1, 2
            )
            SELECT ma.t AS type_a, mb.t AS type_b,
                   coalesce(p.n_inter, 0) AS n_inter,
                   ma.c + mb.c - coalesce(p.n_inter, 0) AS n_union,
                   CAST((2000 * coalesce(p.n_inter, 0)
                         + (ma.c + mb.c - coalesce(p.n_inter, 0)))
                        // (2 * (ma.c + mb.c - coalesce(p.n_inter, 0)))
                        AS BIGINT) AS jaccard_milli
            FROM m ma JOIN m mb ON ma.t < mb.t
            LEFT JOIN p ON p.ta = ma.t AND p.tb = mb.t
            ORDER BY type_a, type_b
        """,
        # priority_anova: per-group rationals S_g²/n_g floor to integer
        # nano BEFORE the sum (aggregate order irrelevant), HUGEINT
        # assembly, one fixed IEEE F
        "priority_anova": """
            WITH gstat AS (
              SELECT o_orderpriority AS g,
                     CAST(count(*) AS HUGEINT) AS n_g,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS HUGEINT) AS s_g,
                     CAST(sum(CAST(round(o_totalprice * 100) AS HUGEINT)
                              * CAST(round(o_totalprice * 100) AS HUGEINT)) AS HUGEINT) AS ss_g
              FROM orders GROUP BY 1
            ), agg AS (
              SELECT CAST(sum(n_g) AS HUGEINT) AS n,
                     CAST(count(*) AS HUGEINT) AS k,
                     CAST(sum(s_g) AS HUGEINT) AS s,
                     CAST(sum(ss_g) AS HUGEINT) AS sxx,
                     CAST(sum((s_g * s_g * CAST(1000000000 AS HUGEINT)) // n_g) AS HUGEINT) AS t_sum
              FROM gstat
            )
            SELECT CAST(n AS BIGINT) AS n, CAST(k AS BIGINT) AS k,
                   CAST(CASE WHEN k > 1 AND n > k
                              AND sxx * CAST(1000000000 AS HUGEINT) - t_sum > 0
                        THEN CASE WHEN
                          CAST((t_sum - (s * s * CAST(1000000000 AS HUGEINT)) // n)
                               * (n - k) AS DOUBLE)
                          / CAST((sxx * CAST(1000000000 AS HUGEINT) - t_sum)
                                 * (k - 1) AS DOUBLE) * 1e9 + 0.5
                            > CAST(4611686018427387904 AS DOUBLE)
                          THEN 4611686018427387904
                          ELSE CAST(floor(
                            CAST((t_sum - (s * s * CAST(1000000000 AS HUGEINT)) // n)
                                 * (n - k) AS DOUBLE)
                            / CAST((sxx * CAST(1000000000 AS HUGEINT) - t_sum)
                                   * (k - 1) AS DOUBLE) * 1e9 + 0.5) AS BIGINT) END
                        ELSE 0 END AS BIGINT) AS f_nano
            FROM agg
        """,
        # cusum_days: S_t = P_t − min_{j≤t} P_j in span-scaled integers
        # (two window functions replace the max-recurrence), same gate
        "cusum_days": """
            WITH dc AS (
              SELECT datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1
            ), span AS (
              SELECT min(day) AS lo, max(day) AS hi FROM dc
            ), grid AS (
              SELECT unnest(generate_series(lo, hi)) AS day FROM span
            ), g AS (
              SELECT grid.day, coalesce(dc.n, 0) AS n
              FROM grid LEFT JOIN dc ON dc.day = grid.day
            ), st AS (
              SELECT CAST(count(*) AS HUGEINT) AS span_len,
                     CAST(sum(n) AS HUGEINT) AS total
              FROM g
            ), pp AS (
              SELECT g.day, g.n,
                     sum(g.n * st.span_len - st.total)
                       OVER (ORDER BY g.day ROWS UNBOUNDED PRECEDING) AS p
              FROM g, st
            ), ss AS (
              SELECT day, n,
                     p - least(CAST(0 AS HUGEINT),
                               min(p) OVER (ORDER BY day ROWS UNBOUNDED PRECEDING)) AS s
              FROM pp
            )
            SELECT day, n, CAST(s AS BIGINT) AS cusum_scaled,
                   CAST(CASE WHEN 1000 * s > 3000 * (SELECT total FROM st)
                        THEN 1 ELSE 0 END AS BIGINT) AS is_alarm
            FROM ss ORDER BY day
        """,
        # debounce: the lag rule spelled out as a window function
        "debounce": """
            WITH o AS (
              SELECT user_id, event_type, ts, event_id,
                     lag(ts) OVER (PARTITION BY user_id, event_type
                                   ORDER BY ts, event_id) AS prev
              FROM events
            ), kc AS (
              SELECT event_type,
                     CAST(count(*) AS BIGINT) AS n_total,
                     CAST(sum(CASE WHEN prev IS NULL
                               OR date_diff('microsecond', prev, ts) >= 60 * 1000000
                               THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
              FROM o GROUP BY event_type
            )
            SELECT event_type, n_total, n_kept,
                   n_total - n_kept AS n_dropped
            FROM kc ORDER BY event_type
        """,
        # k_anonymity: class sizes then a size histogram, FILTER folds
        "k_anonymity": """
            WITH cls AS (
              SELECT c_nationkey, c_mktsegment, CAST(count(*) AS BIGINT) AS n
              FROM customer GROUP BY 1, 2
            ), h AS (
              SELECT n AS size, CAST(count(*) AS BIGINT) AS n_classes
              FROM cls GROUP BY n
            )
            SELECT CAST(sum(size * n_classes) AS BIGINT) AS n_rows,
                   CAST(sum(n_classes) AS BIGINT) AS n_classes,
                   CAST(coalesce(sum(n_classes) FILTER (size < 5), 0) AS BIGINT)
                     AS n_classes_below_k,
                   CAST(coalesce(sum(size * n_classes) FILTER (size < 5), 0) AS BIGINT)
                     AS n_rows_at_risk,
                   CAST(coalesce(min(size), 0) AS BIGINT) AS min_class_size
            FROM h
        """,
        # time_weighted_avg: lead-window durations in epoch seconds,
        # zero-span users report their first value verbatim
        "time_weighted_avg": """
            WITH o AS (
              SELECT user_id, event_id,
                     epoch_us(ts) // 1000000 AS sec,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     lead(epoch_us(ts) // 1000000) OVER w AS nxt,
                     row_number() OVER w AS rn
              FROM events
              WINDOW w AS (PARTITION BY user_id
                           ORDER BY epoch_us(ts) // 1000000, event_id)
            ), g AS (
              SELECT user_id,
                     CAST(count(*) AS BIGINT) AS n_events,
                     CAST(sum(CASE WHEN nxt IS NULL THEN 0
                              ELSE cents * (nxt - sec) END) AS BIGINT) AS vw,
                     CAST(sum(CASE WHEN nxt IS NULL THEN 0
                              ELSE nxt - sec END) AS BIGINT) AS span_s,
                     CAST(min(CASE WHEN rn = 1 THEN cents END) AS BIGINT) AS first_cents
              FROM o GROUP BY user_id
            )
            SELECT user_id, n_events, span_s,
                   CAST(CASE WHEN span_s > 0
                        THEN (2000 * vw + span_s) // (2 * span_s)
                        ELSE 1000 * first_cents END AS BIGINT) AS twa_milli
            FROM g ORDER BY user_id
        """,
        # conversion_latency: first signup per user, first purchase at or
        # after it, explicit ceil-rank order statistics (no engine-specific
        # percentile_disc semantics)
        "conversion_latency": """
            WITH f AS (
              SELECT user_id,
                     min(CASE WHEN event_type = 'signup' THEN epoch_us(ts) END) AS t0
              FROM events GROUP BY user_id
            ), c AS (
              SELECT e.user_id,
                     (min(epoch_us(e.ts)) - max(f.t0)) // 1000000 AS lat_s
              FROM events e JOIN f ON f.user_id = e.user_id
              WHERE e.event_type = 'purchase' AND f.t0 IS NOT NULL
                AND epoch_us(e.ts) >= f.t0
              GROUP BY e.user_id
            ), r AS (
              SELECT lat_s, row_number() OVER (ORDER BY lat_s) AS rn FROM c
            ), q AS (
              SELECT 50 AS pct UNION ALL SELECT 90
            )
            SELECT CAST(q.pct AS BIGINT) AS pct,
                   CAST(coalesce((SELECT lat_s FROM r
                     WHERE rn = (q.pct * (SELECT count(*) FROM c) + 99) // 100), 0)
                     AS BIGINT) AS latency_s,
                   (SELECT CAST(count(*) AS BIGINT) FROM c) AS n_converted
            FROM q ORDER BY pct
        """,
        # spike_days: dense day grid via generate_series, trailing window
        # by BETWEEN self-join (prior days only), the same integer gate
        "spike_days": """
            WITH dc AS (
              SELECT datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS day,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1
            ), span AS (
              SELECT min(day) AS lo, max(day) AS hi FROM dc
            ), grid AS (
              SELECT unnest(generate_series(lo, hi)) AS day FROM span
            ), g AS (
              SELECT grid.day, coalesce(dc.n, 0) AS n
              FROM grid LEFT JOIN dc ON dc.day = grid.day
            ), tr AS (
              SELECT g.day, g.n,
                     CAST(coalesce(sum(p.n), 0) AS BIGINT) AS trail_n
              FROM g LEFT JOIN g p
                ON p.day BETWEEN g.day - 7 AND g.day - 1
              GROUP BY g.day, g.n
            )
            SELECT day, n, trail_n,
                   CAST(CASE WHEN trail_n > 0
                        THEN CASE WHEN 1000 * n * 7 > 2000 * trail_n THEN 1 ELSE 0 END
                        ELSE CASE WHEN n > 0 THEN 1 ELSE 0 END END AS BIGINT) AS is_spike
            FROM tr ORDER BY day
        """,
        # table_digest: splitmix64 chain per key column, order-free
        # (count, sum-mod-2^64, xor) folds, two's-complement casts
        "table_digest": _digest_sql(),
        # shard_advisor: engine partition hash replayed, 64-bucket fold
        "shard_advisor": _shard_sql(),
        # cf_item_topk: the transpose — shared-customer self-join
        "cf_item_topk": """
            WITH cp AS (
              SELECT o.o_custkey AS cust, l.l_partkey AS part,
                     CAST(count(*) AS BIGINT) AS n
              FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
              GROUP BY 1, 2
            ), probes AS (
              SELECT DISTINCT part FROM cp ORDER BY part LIMIT 5
            ), norms AS (
              SELECT part, CAST(sum(n * n) AS HUGEINT) AS nsq FROM cp GROUP BY part
            ), dots AS (
              SELECT p.part AS probe, c.part AS neighbor,
                     CAST(sum(p.n * c.n) AS HUGEINT) AS dot
              FROM cp p JOIN cp c ON c.cust = p.cust
              WHERE p.part IN (SELECT part FROM probes) AND c.part <> p.part
              GROUP BY 1, 2
            ), scored AS (
              SELECT probe, neighbor, CAST(dot AS BIGINT) AS dot,
                     CAST(floor(CAST(dot AS DOUBLE)
                       / (sqrt(CAST(na.nsq AS DOUBLE)) * sqrt(CAST(nb.nsq AS DOUBLE)))
                       * 1e9 + 0.5) AS BIGINT) AS cos_nano
              FROM dots
              JOIN norms na ON na.part = dots.probe
              JOIN norms nb ON nb.part = dots.neighbor
            ), rk AS (
              SELECT probe, neighbor, dot, cos_nano,
                     row_number() OVER (
                       PARTITION BY probe ORDER BY cos_nano DESC, neighbor ASC
                     ) AS rank
              FROM scored
            )
            SELECT probe, CAST(rank AS BIGINT) AS rank, neighbor, dot, cos_nano
            FROM rk WHERE rank <= 5 ORDER BY probe, rank
        """,
        # cf_user_topk: shared-part self-join dots, exact integer
        # norms, the one fixed IEEE cosine, rank by (cos_nano, neighbor)
        "cf_user_topk": """
            WITH cp AS (
              SELECT o.o_custkey AS cust, l.l_partkey AS part,
                     CAST(count(*) AS BIGINT) AS n
              FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
              GROUP BY 1, 2
            ), probes AS (
              SELECT DISTINCT cust FROM cp ORDER BY cust LIMIT 5
            ), norms AS (
              SELECT cust, CAST(sum(n * n) AS HUGEINT) AS nsq FROM cp GROUP BY cust
            ), dots AS (
              SELECT p.cust AS probe, c.cust AS neighbor,
                     CAST(sum(p.n * c.n) AS HUGEINT) AS dot
              FROM cp p JOIN cp c ON c.part = p.part
              WHERE p.cust IN (SELECT cust FROM probes) AND c.cust <> p.cust
              GROUP BY 1, 2
            ), scored AS (
              SELECT probe, neighbor, CAST(dot AS BIGINT) AS dot,
                     CAST(floor(CAST(dot AS DOUBLE)
                       / (sqrt(CAST(na.nsq AS DOUBLE)) * sqrt(CAST(nb.nsq AS DOUBLE)))
                       * 1e9 + 0.5) AS BIGINT) AS cos_nano
              FROM dots
              JOIN norms na ON na.cust = dots.probe
              JOIN norms nb ON nb.cust = dots.neighbor
            ), rk AS (
              SELECT probe, neighbor, dot, cos_nano,
                     row_number() OVER (
                       PARTITION BY probe ORDER BY cos_nano DESC, neighbor ASC
                     ) AS rank
              FROM scored
            )
            SELECT probe, CAST(rank AS BIGINT) AS rank, neighbor, dot, cos_nano
            FROM rk WHERE rank <= 5 ORDER BY probe, rank
        """,
        # join_size_audit: Σ deg_L(k)·deg_R(k) over per-key count joins
        "join_size_audit": """
            WITH j1 AS (
              SELECT CAST(coalesce(sum(l.c * r.c), 0) AS BIGINT) AS join_rows,
                     CAST(count(*) AS BIGINT) AS n_matching_keys,
                     CAST(coalesce(max(l.c * r.c), 0) AS BIGINT) AS max_key_product
              FROM (SELECT l_orderkey AS k, count(*) AS c FROM lineitem GROUP BY 1) l
              JOIN (SELECT o_orderkey AS k, count(*) AS c FROM orders GROUP BY 1) r
                ON r.k = l.k
            ), j2 AS (
              SELECT CAST(coalesce(sum(l.c * r.c), 0) AS BIGINT),
                     CAST(count(*) AS BIGINT),
                     CAST(coalesce(max(l.c * r.c), 0) AS BIGINT)
              FROM (SELECT l_partkey AS k, count(*) AS c FROM lineitem GROUP BY 1) l
              JOIN (SELECT p_partkey AS k, count(*) AS c FROM part GROUP BY 1) r
                ON r.k = l.k
            ), j3 AS (
              SELECT CAST(coalesce(sum(l.c * r.c), 0) AS BIGINT),
                     CAST(count(*) AS BIGINT),
                     CAST(coalesce(max(l.c * r.c), 0) AS BIGINT)
              FROM (SELECT o_custkey AS k, count(*) AS c FROM orders GROUP BY 1) l
              JOIN (SELECT c_custkey AS k, count(*) AS c FROM customer GROUP BY 1) r
                ON r.k = l.k
            )
            SELECT * FROM (
              SELECT 'lineitem~orders' AS join, * FROM j1
              UNION ALL SELECT 'lineitem~part', * FROM j2
              UNION ALL SELECT 'orders~customer', * FROM j3
            ) ORDER BY "join"
        """,
        # fd_audit: per-FD distinct-dependent counts per key, violation
        # and fan-out folds, integer-milli conformance
        "fd_audit": """
            WITH f1 AS (
              SELECT 'lineitem.l_orderkey->l_returnflag' AS fd,
                     CAST(count(*) AS BIGINT) AS n_keys,
                     CAST(sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_violating,
                     CAST(max(nd) AS BIGINT) AS max_fanout
              FROM (SELECT l_orderkey, count(DISTINCT l_returnflag) AS nd
                    FROM lineitem GROUP BY l_orderkey)
            ), f2 AS (
              SELECT 'lineitem.l_partkey->l_suppkey' AS fd,
                     CAST(count(*) AS BIGINT),
                     CAST(sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT),
                     CAST(max(nd) AS BIGINT)
              FROM (SELECT l_partkey, count(DISTINCT l_suppkey) AS nd
                    FROM lineitem GROUP BY l_partkey)
            ), f3 AS (
              SELECT 'orders.o_custkey->o_orderpriority' AS fd,
                     CAST(count(*) AS BIGINT),
                     CAST(sum(CASE WHEN nd > 1 THEN 1 ELSE 0 END) AS BIGINT),
                     CAST(max(nd) AS BIGINT)
              FROM (SELECT o_custkey, count(DISTINCT o_orderpriority) AS nd
                    FROM orders GROUP BY o_custkey)
            ), u AS (
              SELECT * FROM f1 UNION ALL SELECT * FROM f2 UNION ALL SELECT * FROM f3
            )
            SELECT fd, n_keys, n_violating, max_fanout,
                   CAST((1000 * (n_keys - n_violating)) // n_keys AS BIGINT)
                     AS conformance_milli
            FROM u ORDER BY fd
        """,
        # sorted_neighborhood: row_number over the blocking order, self
        # join on rank distance ≤ w−1, integer token-set Jaccard gate
        "sorted_neighborhood": """
            WITH s AS (
              SELECT p_partkey AS k, p_name AS name,
                     row_number() OVER (ORDER BY p_name, p_partkey) AS rn
              FROM part
            ), tok AS (
              SELECT k, rn, list_distinct(string_split(name, ' ')) AS toks FROM s
            ), pr AS (
              SELECT a.k AS a, b.k AS b,
                     len(list_intersect(a.toks, b.toks)) AS inter,
                     len(a.toks) + len(b.toks)
                       - len(list_intersect(a.toks, b.toks)) AS uni
              FROM tok a JOIN tok b ON b.rn > a.rn AND b.rn <= a.rn + 4
            )
            SELECT a, b, CAST((1000 * inter) // uni AS BIGINT) AS jacc_milli
            FROM pr WHERE uni > 0 AND 1000 * inter >= 500 * uni
            ORDER BY a, b
        """,
        # ewma_daily: windowed binary-decay weighted mean — integer dot
        # products over the calendar grid, early days renormalize over
        # the lags that exist (join bounded below by the span start)
        "ewma_daily": """
            WITH dc AS (
              SELECT datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS day,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY 1
            ), span AS (
              SELECT min(day) AS lo, max(day) AS hi FROM dc
            ), grid AS (
              SELECT unnest(generate_series(lo, hi)) AS day FROM span
            ), g AS (
              SELECT grid.day, coalesce(dc.cents, 0) AS cents
              FROM grid LEFT JOIN dc ON dc.day = grid.day
            ), w AS (
              SELECT g.day, g.cents,
                     CAST(sum(CAST(p.cents AS HUGEINT)
                          * (CAST(1 AS BIGINT) << (15 - (g.day - p.day)))) AS HUGEINT) AS num,
                     CAST(sum(CAST(1 AS BIGINT) << (15 - (g.day - p.day))) AS HUGEINT) AS den
              FROM g JOIN g p ON p.day BETWEEN g.day - 15 AND g.day
              GROUP BY g.day, g.cents
            )
            SELECT day, cents,
                   CAST((1000 * num) // den AS BIGINT) AS ewma_milli
            FROM w ORDER BY day
        """,
        # pca_top: integer power iteration unrolled, truncating rescale
        "pca_top": _pca_sql(iters=5),
        # benford: leading digit via VARCHAR substr, generate_series
        # grid for absent digits, integer-micro share, shared-ln
        # expectation
        "benford": """
            WITH c AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents FROM orders
            ), dg AS (
              SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit,
                     CAST(count(*) AS BIGINT) AS n
              FROM c WHERE cents > 0 GROUP BY 1
            ), tot AS (
              SELECT CAST(sum(n) AS BIGINT) AS t FROM dg
            ), grid AS (
              SELECT unnest(generate_series(1, 9)) AS digit
            ), g AS (
              SELECT grid.digit, coalesce(dg.n, 0) AS n
              FROM grid LEFT JOIN dg ON dg.digit = grid.digit
            ), e AS (
              SELECT digit, n,
                     CASE WHEN (SELECT t FROM tot) > 0
                          THEN (1000000 * n) // (SELECT t FROM tot) ELSE 0 END AS share_micro,
                     CAST(floor(ln(1.0e0 + 1.0e0 / digit) / ln(10.0e0) * 1e6 + 0.5)
                          AS BIGINT) AS expected_micro
              FROM g
            )
            SELECT digit, n, CAST(share_micro AS BIGINT) AS share_micro,
                   expected_micro,
                   CAST(share_micro - expected_micro AS BIGINT) AS dev_micro
            FROM e ORDER BY digit
        """,
        # kendall_tau: cell-pair concordance joins over the contingency
        # table, integer tie margins, shared IEEE final form
        "kendall_tau": """
            WITH cells AS (
              SELECT CAST(round(l_quantity * 1) AS BIGINT) AS x,
                     CAST(round(l_discount * 100) AS BIGINT) AS y,
                     CAST(count(*) AS HUGEINT) AS w
              FROM lineitem GROUP BY 1, 2
            ), tot AS (
              SELECT CAST(sum(w) AS HUGEINT) AS n FROM cells
            ), conc AS (
              SELECT CAST(coalesce(sum(a.w * b.w), 0) AS HUGEINT) AS c
              FROM cells a JOIN cells b ON b.x > a.x AND b.y > a.y
            ), disc AS (
              SELECT CAST(coalesce(sum(a.w * b.w), 0) AS HUGEINT) AS d
              FROM cells a JOIN cells b ON b.x > a.x AND b.y < a.y
            ), tmx AS (
              SELECT CAST(coalesce(sum(nx * (nx - 1) // 2), 0) AS HUGEINT) AS tx
              FROM (SELECT CAST(sum(w) AS HUGEINT) AS nx FROM cells GROUP BY x)
            ), tmy AS (
              SELECT CAST(coalesce(sum(ny * (ny - 1) // 2), 0) AS HUGEINT) AS ty
              FROM (SELECT CAST(sum(w) AS HUGEINT) AS ny FROM cells GROUP BY y)
            ), v AS (
              SELECT tot.n, conc.c, disc.d,
                     (tot.n * (tot.n - 1) // 2 - tmx.tx)
                       * (tot.n * (tot.n - 1) // 2 - tmy.ty) AS prod
              FROM tot, conc, disc, tmx, tmy
            )
            SELECT CAST(n AS BIGINT) AS n, CAST(c AS BIGINT) AS concordant,
                   CAST(d AS BIGINT) AS discordant,
                   CAST(CASE WHEN prod > 0 THEN floor(
                     CAST(c - d AS DOUBLE)
                       / sqrt(CAST(prod AS DOUBLE)) * 1e9 + 0.5)
                   ELSE 0 END AS BIGINT) AS tau_nano
            FROM v
        """,
        # theil_sen: pairwise-slope self-join, median pick under the
        # specified (slope, dy, dx) order, two-middle IEEE average
        "theil_sen": """
            WITH dc AS (
              SELECT datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS day,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY 1
            ), sl AS (
              SELECT (b.cents - a.cents) / CAST(b.day - a.day AS DOUBLE) AS s,
                     b.cents - a.cents AS dy, b.day - a.day AS dx
              FROM dc a JOIN dc b ON b.day > a.day
            ), ord AS (
              SELECT s, row_number() OVER (ORDER BY s, dy, dx) AS rn,
                     count(*) OVER () AS m
              FROM sl
            ), mid AS (
              SELECT avg(s) AS med, max(m) AS m FROM ord
              WHERE rn = (m - 1) // 2 + 1 OR rn = m // 2 + 1
            )
            SELECT (SELECT CAST(count(*) AS BIGINT) FROM dc) AS n_days,
                   CAST(m AS BIGINT) AS n_pairs,
                   CAST(floor(med * 1e9 + 0.5) AS BIGINT) AS slope_nano
            FROM mid WHERE m IS NOT NULL
        """,
        # mann_kendall: O(span²) sign self-join, integer tie-corrected
        # variance numerator, shared IEEE z form (sqrt correctly rounded)
        "mann_kendall": """
            WITH dc AS (
              SELECT datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS day,
                     CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
              FROM orders GROUP BY 1
            ), st AS (
              SELECT CAST(count(*) AS BIGINT) AS n FROM dc
            ), s AS (
              SELECT CAST(coalesce(sum(CASE WHEN b.cents > a.cents THEN 1
                                  WHEN b.cents < a.cents THEN -1 ELSE 0 END), 0) AS BIGINT) AS s
              FROM dc a JOIN dc b ON b.day > a.day
            ), ties AS (
              SELECT CAST(coalesce(sum(t * (t - 1) * (2 * t + 5)), 0) AS BIGINT) AS tt
              FROM (SELECT CAST(count(*) AS BIGINT) AS t FROM dc GROUP BY cents)
              WHERE t > 1
            ), v AS (
              SELECT st.n, s.s,
                     st.n * (st.n - 1) * (2 * st.n + 5) - ties.tt AS num
              FROM st, s, ties
            )
            SELECT n AS n_days, s AS s_stat, CAST(num AS BIGINT) AS var_num,
                   CAST(floor(
                     CASE WHEN num = 0 OR s = 0 THEN 0.0e0
                          WHEN s > 0 THEN (s - 1) / sqrt(num / 18.0e0)
                          ELSE (s + 1) / sqrt(num / 18.0e0) END * 1e9 + 0.5
                   ) AS BIGINT) AS z_nano
            FROM v
        """,
        # heaps_law: four prefix vocabulary counts + integer OLS on
        # nano-ln points
        "heaps_law": _heaps_sql(),
        # ab_test: pooled two-proportion z over exact cohort counters
        "ab_test": """
            WITH c AS (
              SELECT CASE WHEN CAST(round(l_discount * 100) AS BIGINT) > 5
                          THEN 1 ELSE 0 END AS cohort,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
                          AS BIGINT) AS pos
              FROM lineitem GROUP BY 1
            ), w AS (
              SELECT
                coalesce(max(CASE WHEN cohort = 0 THEN n END), 0) AS na,
                coalesce(max(CASE WHEN cohort = 0 THEN pos END), 0) AS xa,
                coalesce(max(CASE WHEN cohort = 1 THEN n END), 0) AS nb,
                coalesce(max(CASE WHEN cohort = 1 THEN pos END), 0) AS xb
              FROM c
            )
            SELECT na AS n_a, xa AS pos_a, nb AS n_b, xb AS pos_b,
                   CAST(CASE WHEN na > 0 AND nb > 0
                             AND xa + xb > 0 AND xa + xb < na + nb
                        THEN floor(
                          (xa / na - xb / nb)
                          / sqrt((xa + xb) / (na + nb)
                                 * (1.0e0 - (xa + xb) / (na + nb))
                                 * (1.0e0 / na + 1.0e0 / nb))
                          * 1e9 + 0.5)
                        ELSE 0 END AS BIGINT) AS z_nano
            FROM w
        """,
        # decision_stump: cumulative contingency sums per threshold,
        # the same IEEE impurity sequence (int / is float division)
        "decision_stump": """
            WITH cells AS (
              SELECT CAST(round(l_discount * 100) AS BIGINT) AS disc,
                     CAST(sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)
                          AS BIGINT) AS pos,
                     CAST(count(*) AS BIGINT) AS n
              FROM lineitem GROUP BY 1
            ), tot AS (
              SELECT CAST(sum(n) AS BIGINT) AS n_all,
                     CAST(sum(pos) AS BIGINT) AS p_all,
                     CAST(max(disc) AS BIGINT) AS d_max
              FROM cells
            ), cum AS (
              SELECT disc,
                     CAST(sum(n) OVER (ORDER BY disc) AS BIGINT) AS nl,
                     CAST(sum(pos) OVER (ORDER BY disc) AS BIGINT) AS pl
              FROM cells
            ), sp AS (
              SELECT c.disc AS thresh_centi, c.nl AS n_left, c.pl AS pos_left,
                     t.n_all - c.nl AS n_right, t.p_all - c.pl AS pos_right,
                     t.n_all AS n_all
              FROM cum c, tot t WHERE c.disc < t.d_max
            )
            SELECT thresh_centi, n_left, pos_left, n_right, pos_right,
                   CAST(floor((
                     (n_left - (pos_left * pos_left
                        + (n_left - pos_left) * (n_left - pos_left)) / n_left)
                     + (n_right - (pos_right * pos_right
                        + (n_right - pos_right) * (n_right - pos_right)) / n_right)
                   ) / n_all * 1e6 + 0.5) AS BIGINT) AS gini_micro
            FROM sp ORDER BY thresh_centi
        """,
        # zipf_law: top-100 vocab + integer OLS on nano-ln rank/cnt,
        # negated round-half-up milli slope
        "zipf_law": """
            WITH v AS (
              SELECT token, cnt,
                     row_number() OVER (ORDER BY cnt DESC, token ASC) AS rank
              FROM (
                SELECT token, CAST(count(*) AS BIGINT) AS cnt
                FROM (SELECT unnest(string_split(lower(text), ' ')) AS token
                      FROM documents)
                WHERE token <> '' GROUP BY token)
              ORDER BY cnt DESC, token ASC LIMIT 100
            ), lns AS (
              SELECT rank, token, cnt,
                     CAST(floor(ln(CAST(rank AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT) AS lx,
                     CAST(floor(ln(CAST(cnt AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT) AS ly
              FROM v
            ), ols AS (
              SELECT CAST(count(*) AS HUGEINT) AS m,
                     CAST(sum(lx) AS HUGEINT) AS sx, CAST(sum(ly) AS HUGEINT) AS sy,
                     CAST(sum(lx * lx) AS HUGEINT) AS sxx,
                     CAST(sum(lx * ly) AS HUGEINT) AS sxy
              FROM lns
            )
            SELECT CAST(lns.rank AS BIGINT) AS rank, lns.token, lns.cnt,
                   CAST(CASE WHEN ols.m * ols.sxx - ols.sx * ols.sx <> 0
                        THEN (2000 * (-(ols.m * ols.sxy - ols.sx * ols.sy))
                              + (ols.m * ols.sxx - ols.sx * ols.sx))
                             // (2 * (ols.m * ols.sxx - ols.sx * ols.sx))
                        ELSE 0 END AS BIGINT) AS s_milli
            FROM lns, ols ORDER BY rank
        """,
        # markov_entropy: per-cell nano-rounded ln terms over the
        # transition counts, shared round-half-up final division
        # char_entropy: per-(doc,char) integer counts, per-term
        # nano-rounded ln (L(n)-L(c) per cell), order-free integer sums,
        # shared round-half-up final division
        "char_entropy": """
            WITH ch AS (
              SELECT doc_id, substr(text, CAST(i.i AS INTEGER) + 1, 1) AS c
              FROM documents, LATERAL (SELECT unnest(range(length(text))) AS i) i
            ), cc AS (
              SELECT doc_id, c, CAST(count(*) AS BIGINT) AS cnt
              FROM ch GROUP BY doc_id, c
            ), nn AS (
              SELECT doc_id, CAST(length(text) AS BIGINT) AS n FROM documents
            ), agg AS (
              SELECT cc.doc_id,
                     CAST(sum(cnt * (
                       CAST(floor(ln(CAST(nn.n AS DOUBLE)) * 1e9 + 0.5) AS BIGINT)
                       - CAST(floor(ln(CAST(cnt AS DOUBLE)) * 1e9 + 0.5) AS BIGINT)
                     )) AS BIGINT) AS num,
                     CAST(count(*) AS BIGINT) AS n_distinct
              FROM cc JOIN nn ON cc.doc_id = nn.doc_id
              GROUP BY cc.doc_id
            )
            SELECT nn.doc_id, nn.n AS n_chars,
                   coalesce(agg.n_distinct, 0) AS n_distinct,
                   CAST(CASE WHEN nn.n > 0 AND agg.num IS NOT NULL
                        THEN (2 * agg.num + nn.n) // (2 * nn.n)
                        ELSE 0 END AS BIGINT) AS entropy_nano
            FROM nn LEFT JOIN agg ON nn.doc_id = agg.doc_id
            ORDER BY nn.doc_id
        """,
        # silhouette: O(n^2) replay — micro components, exact int64 d^2
        # via a dim-keyed self-join, floor(IEEE sqrt) unit distances,
        # HUGEINT cross-multiplied NOT-EXISTS pick of the nearest other
        # cluster (ties to the smallest label), round-half-away s_milli,
        # truncating per-label mean
        "silhouette": """
            WITH e AS MATERIALIZED (
              SELECT vec_id, CAST(label AS BIGINT) AS label,
                     list_transform(embedding, v ->
                       CAST(floor(CAST(v AS DOUBLE) * 1000000.0 + 0.5) AS BIGINT)) AS m
              FROM embeddings
            ), comp AS MATERIALIZED (
              SELECT vec_id, label, k.k AS dim, m[CAST(k.k AS INTEGER) + 1] AS v
              FROM e, LATERAL (SELECT unnest(range(len(m))) AS k) k
            ), d2 AS MATERIALIZED (
              SELECT a.vec_id AS i, a.label AS il, b.vec_id AS j, b.label AS jl,
                     CAST(sum((a.v - b.v) * (a.v - b.v)) AS BIGINT) AS d2
              FROM comp a JOIN comp b ON a.dim = b.dim AND a.vec_id <> b.vec_id
              GROUP BY 1, 2, 3, 4
            ), vl AS MATERIALIZED (
              SELECT i, il, jl,
                     CAST(sum(CAST(floor(sqrt(CAST(d2 AS DOUBLE))) AS BIGINT)) AS HUGEINT) AS s,
                     CAST(count(*) AS HUGEINT) AS c
              FROM d2 GROUP BY i, il, jl
            ), own AS MATERIALIZED (
              SELECT i, s AS a_s, c AS ac FROM vl WHERE jl = il
            ), oth AS MATERIALIZED (
              SELECT i, jl, s AS bs, c AS bc FROM vl WHERE jl <> il
            ), best AS MATERIALIZED (
              SELECT o.i, o.bs, o.bc FROM oth o
              WHERE NOT EXISTS (
                SELECT 1 FROM oth b WHERE b.i = o.i AND (
                  b.bs * o.bc < o.bs * b.bc
                  OR (b.bs * o.bc = o.bs * b.bc AND b.jl < o.jl)))
            ), sv AS MATERIALIZED (
              SELECT v.label,
                     CASE WHEN own.ac IS NULL OR best.i IS NULL
                               OR greatest(best.bs * own.ac, own.a_s * best.bc) = 0
                          THEN CAST(0 AS BIGINT)
                          ELSE CAST((CASE WHEN best.bs * own.ac - own.a_s * best.bc >= 0
                                          THEN 1 ELSE -1 END)
                               * ((2000 * abs(best.bs * own.ac - own.a_s * best.bc)
                                   + greatest(best.bs * own.ac, own.a_s * best.bc))
                                  // (2 * greatest(best.bs * own.ac, own.a_s * best.bc)))
                               AS BIGINT) END AS s_milli
              FROM e v LEFT JOIN own ON own.i = v.vec_id
                       LEFT JOIN best ON best.i = v.vec_id
            )
            SELECT label, CAST(count(*) AS BIGINT) AS n_vecs,
                   CAST(sum(s_milli) AS BIGINT) AS sum_s_milli,
                   CAST(CASE WHEN sum(s_milli) >= 0
                        THEN sum(s_milli) // count(*)
                        ELSE -((-sum(s_milli)) // count(*)) END AS BIGINT) AS mean_s_milli
            FROM sv GROUP BY label ORDER BY label
        """,
        "markov_entropy": """
            WITH o AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS prev
              FROM events
            ), cells AS (
              SELECT prev AS s, event_type AS t, CAST(count(*) AS HUGEINT) AS c
              FROM o WHERE prev IS NOT NULL GROUP BY 1, 2
            ), tot AS (
              SELECT CAST(sum(c) AS HUGEINT) AS n,
                     CAST(count(DISTINCT s) AS BIGINT) AS n_states
              FROM cells
            ), marg AS (
              SELECT s, CAST(sum(c) AS HUGEINT) AS ns FROM cells GROUP BY s
            ), terms AS (
              SELECT cells.c,
                     CAST(floor(ln(CAST(marg.ns AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT)
                     - CAST(floor(ln(CAST(cells.c AS DOUBLE)) * 1e9 + 0.5) AS HUGEINT)
                       AS lterm
              FROM cells JOIN marg ON marg.s = cells.s
            )
            SELECT CAST(tot.n AS BIGINT) AS n_transitions, tot.n_states,
                   CAST((2 * (SELECT sum(c * lterm) FROM terms) + tot.n)
                        // (2 * tot.n) AS BIGINT) AS rate_nano
            FROM tot
        """,
        # weekday_profile: epoch-day mod 7 grid, integer-milli shares,
        # exact (7·Σn²−n²)/n chi² against uniform
        "weekday_profile": """
            WITH wd AS (
              -- ((d % 7) + 7) % 7: DuckDB's % takes the dividend's sign,
              -- numpy's floored modulo is always 0..6 — normalize so
              -- pre-1970 (negative epoch-day) timestamps bucket alike
              SELECT ((datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) % 7) + 7) % 7
                       AS weekday,
                     CAST(count(*) AS BIGINT) AS n
              FROM events GROUP BY 1
            ), grid AS (
              SELECT unnest(generate_series(0, 6)) AS weekday
            ), g AS (
              SELECT grid.weekday, coalesce(wd.n, 0) AS n_events
              FROM grid LEFT JOIN wd ON wd.weekday = grid.weekday
            ), tot AS (
              SELECT CAST(sum(n_events) AS BIGINT) AS t,
                     CAST(sum(n_events * n_events) AS HUGEINT) AS ss
              FROM g
            )
            SELECT g.weekday, g.n_events,
                   CAST(CASE WHEN tot.t > 0
                        THEN (1000 * g.n_events) // tot.t ELSE 0 END AS BIGINT)
                     AS share_milli,
                   CAST(CASE WHEN tot.t > 0
                        THEN (1000 * (7 * tot.ss - CAST(tot.t AS HUGEINT) * tot.t)) // tot.t
                        ELSE 0 END AS BIGINT) AS chi2_milli
            FROM g, tot ORDER BY g.weekday
        """,
        # survival_km: per-user day-span, censor inside the last-90-day
        # window, suffix-sum at-risk, and the SAME integer-micro floor
        # recursion S_k = S_{k-1}·(n_k−d_k)//n_k via a recursive CTE
        "survival_km": """
            WITH RECURSIVE ev AS (
              SELECT o_custkey AS user_id,
                     datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE)) AS day
              FROM orders
            ), mx AS (
              SELECT max(day) AS m FROM ev
            ), pu AS (
              SELECT user_id, min(day) AS lo, max(day) AS hi
              FROM ev GROUP BY user_id
            ), du AS (
              SELECT hi - lo AS dur,
                     CASE WHEN hi <= (SELECT m FROM mx) - 90 THEN 1 ELSE 0 END AS churned
              FROM pu
            ), hist AS (
              SELECT dur,
                     CAST(sum(churned) AS BIGINT) AS deaths,
                     CAST(count(*) AS BIGINT) AS total
              FROM du GROUP BY dur
            ), ar AS (
              SELECT dur, deaths,
                     CAST(sum(total) OVER (ORDER BY dur DESC) AS BIGINT) AS at_risk
              FROM hist
            ), dd AS (
              SELECT row_number() OVER (ORDER BY dur) AS rn, dur, at_risk, deaths
              FROM ar WHERE deaths > 0
            ), km(rn, dur, at_risk, deaths, surv) AS (
              SELECT rn, dur, at_risk, deaths,
                     (1000000 * (at_risk - deaths)) // at_risk
              FROM dd WHERE rn = 1
              UNION ALL
              SELECT d.rn, d.dur, d.at_risk, d.deaths,
                     (km.surv * (d.at_risk - d.deaths)) // d.at_risk
              FROM km JOIN dd d ON d.rn = km.rn + 1
            )
            SELECT dur AS duration_day, at_risk, deaths,
                   CAST(surv AS BIGINT) AS surv_micro
            FROM km ORDER BY duration_day
        """,
        # attribution: per purchase the last preceding touch by rn within
        # the 24 h window (correlated ORDER BY rn DESC LIMIT 1 — the
        # per-conversion scan the vectorized sweep replaces)
        "attribution": """
            WITH e AS (
              SELECT user_id, event_id, event_type, epoch_us(ts) AS t,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY ts, event_id) AS rn
              FROM events
            ), p AS (
              SELECT * FROM e WHERE event_type = 'purchase'
            ), att AS (
              SELECT p.event_id,
                     (SELECT s.event_type FROM e s
                      WHERE s.user_id = p.user_id
                        AND s.event_type IN ('click', 'view', 'signup')
                        AND s.rn < p.rn AND p.t - s.t <= 86400000000
                      ORDER BY s.rn DESC LIMIT 1) AS touch
              FROM p
            )
            SELECT coalesce(touch, 'none') AS touch,
                   CAST(count(*) AS BIGINT) AS n_conversions
            FROM att GROUP BY 1 ORDER BY 1
        """,
        # segment_outliers: the segment_mad CTE chain + the integer MAD
        # gate 2000·|2·cents − med2| > 3000·mad2, zero sentinels when none
        "segment_outliers": """
            WITH v AS (
              SELECT c_mktsegment AS g,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer
            ), r AS (
              SELECT g, cents,
                     row_number() OVER (PARTITION BY g ORDER BY cents) AS rn,
                     count(*) OVER (PARTITION BY g) AS n
              FROM v
            ), m AS (
              SELECT g, CAST(max(n) AS BIGINT) AS n,
                     CAST(sum(CASE WHEN rn = (n - 1) // 2 + 1 THEN cents ELSE 0 END)
                          + sum(CASE WHEN rn = n // 2 + 1 THEN cents ELSE 0 END)
                          AS BIGINT) AS med2
              FROM r GROUP BY g
            ), d AS (
              SELECT v.g, abs(2 * v.cents - m.med2) AS dev
              FROM v JOIN m ON m.g = v.g
            ), rd AS (
              SELECT g, dev,
                     row_number() OVER (PARTITION BY g ORDER BY dev) AS rn,
                     count(*) OVER (PARTITION BY g) AS n
              FROM d
            ), md AS (
              SELECT g,
                     CAST(sum(CASE WHEN rn = (n - 1) // 2 + 1 THEN dev ELSE 0 END)
                          + sum(CASE WHEN rn = n // 2 + 1 THEN dev ELSE 0 END)
                          AS BIGINT) AS mad2
              FROM rd GROUP BY g
            ), o AS (
              SELECT v.g, v.cents,
                     (2000 * abs(2 * v.cents - m.med2) > 3000 * md.mad2) AS is_out
              FROM v JOIN m ON m.g = v.g JOIN md ON md.g = v.g
            )
            SELECT g AS c_mktsegment,
                   CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(CASE WHEN is_out THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers,
                   CAST(coalesce(min(CASE WHEN is_out THEN cents END), 0) AS BIGINT) AS min_outlier,
                   CAST(coalesce(max(CASE WHEN is_out THEN cents END), 0) AS BIGINT) AS max_outlier
            FROM o GROUP BY g ORDER BY c_mktsegment
        """,
        # calibration: price_histogram's integer bin rule + dense bin grid
        "calibration": """
            WITH v AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS s,
                     CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                          THEN 1 ELSE 0 END AS y
              FROM orders
            ), mm AS (
              SELECT min(s) AS lo, max(s) - min(s) + 1 AS span FROM v
            ), b AS (
              SELECT (s - lo) * 10 // span AS bin, y FROM v, mm
            ), g AS (
              SELECT bin, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(y) AS BIGINT) AS n_pos
              FROM b GROUP BY bin
            ), grid AS (
              SELECT unnest(generate_series(0, 9)) AS bin
            )
            SELECT CAST(grid.bin AS BIGINT) AS bin,
                   CAST((SELECT lo FROM mm) + grid.bin * (SELECT span FROM mm) // 10
                        AS BIGINT) AS lo_edge,
                   CAST(coalesce(g.n, 0) AS BIGINT) AS n,
                   CAST(coalesce(g.n_pos, 0) AS BIGINT) AS n_pos,
                   CAST(CASE WHEN coalesce(g.n, 0) > 0
                        THEN (2000 * g.n_pos + g.n) // (2 * g.n)
                        ELSE 0 END AS BIGINT) AS rate_milli
            FROM grid LEFT JOIN g ON g.bin = grid.bin ORDER BY bin
        """,
        # priority_auc: Mann-Whitney 2U over the score histogram with a
        # prior-rows window for negatives-below, HUGEINT exact
        "priority_auc": """
            WITH v AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS s,
                     CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                          THEN 1 ELSE 0 END AS y
              FROM orders
            ), h AS (
              SELECT s, CAST(sum(y) AS BIGINT) AS p,
                     CAST(sum(1 - y) AS BIGINT) AS ng
              FROM v GROUP BY s
            ), c AS (
              SELECT s, p, ng,
                     CAST(coalesce(sum(ng) OVER (
                       ORDER BY s ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ), 0) AS HUGEINT) AS nb
              FROM h
            ), t AS (
              SELECT CAST(coalesce(sum(2 * nb * p + CAST(ng AS HUGEINT) * p), 0) AS HUGEINT) AS u2,
                     (SELECT CAST(coalesce(sum(p), 0) AS BIGINT) FROM h) AS np_,
                     (SELECT CAST(coalesce(sum(ng), 0) AS BIGINT) FROM h) AS nn_
              FROM c
            )
            SELECT np_ AS n_pos, nn_ AS n_neg,
                   CASE WHEN np_ > 0 AND nn_ > 0 THEN
                     CAST(floor(CAST(u2 AS DOUBLE)
                           / CAST(2 * CAST(np_ AS HUGEINT) * nn_ AS DOUBLE)
                           * 1000000000.0 + 0.5) AS BIGINT)
                   ELSE CAST(0 AS BIGINT) END AS auc_nano
            FROM t
        """,
        # regression_by_flag: grouped OLS from HUGEINT sufficient stats,
        # slope/intercept/r² in the engine's exact IEEE order
        "regression_by_flag": """
            WITH s AS (
              SELECT l_returnflag,
                     CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sx,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sy,
                     sum(CAST(CAST(l_quantity AS BIGINT)
                              * CAST(l_quantity AS BIGINT) AS HUGEINT)) AS sxx,
                     sum(CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * CAST(round(l_extendedprice * 100) AS BIGINT) AS HUGEINT)) AS syy,
                     sum(CAST(CAST(l_quantity AS BIGINT)
                              * CAST(round(l_extendedprice * 100) AS BIGINT) AS HUGEINT)) AS sxy
              FROM lineitem GROUP BY l_returnflag
            ), f AS (
              SELECT l_returnflag, n, sx, sy,
                     CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * CAST(sy AS HUGEINT) AS num,
                     CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * CAST(sx AS HUGEINT) AS den,
                     CAST(n AS HUGEINT) * syy - CAST(sy AS HUGEINT) * CAST(sy AS HUGEINT) AS deny
              FROM s
            ), g AS (
              SELECT *,
                     CASE WHEN den > 0
                          THEN CAST(num AS DOUBLE) / CAST(den AS DOUBLE)
                          ELSE 0 END AS sl,
                     CASE WHEN den > 0 AND deny > 0
                          THEN CAST(num AS DOUBLE)
                               / (sqrt(CAST(den AS DOUBLE)) * sqrt(CAST(deny AS DOUBLE)))
                          ELSE 0 END AS r
              FROM f
            )
            SELECT l_returnflag, n,
                   CASE WHEN den > 0
                        THEN CAST(floor(sl * 1000000000.0 + 0.5) AS BIGINT)
                        ELSE CAST(0 AS BIGINT) END AS slope_nano,
                   CASE WHEN den > 0
                        THEN CAST(floor((CAST(sy AS DOUBLE) - sl * CAST(sx AS DOUBLE))
                               / CAST(n AS DOUBLE) * 1000000000.0 + 0.5) AS BIGINT)
                        ELSE CAST(0 AS BIGINT) END AS intercept_nano,
                   CASE WHEN den > 0 AND deny > 0
                        THEN CAST(floor(r * r * 1000000000.0 + 0.5) AS BIGINT)
                        ELSE CAST(0 AS BIGINT) END AS r2_nano
            FROM g ORDER BY l_returnflag
        """,
        # scd2_history: lag-window break marks + windowed run cumsum +
        # per-run group, lead for valid_to (0 = still-open current state)
        "scd2_history": """
            WITH e AS (
              SELECT user_id, event_type, epoch_us(ts) AS t, event_id,
                     CASE WHEN lag(event_type) OVER w IS DISTINCT FROM event_type
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), r AS (
              SELECT *, sum(brk) OVER (
                PARTITION BY user_id ORDER BY t, event_id
                ROWS UNBOUNDED PRECEDING) AS run
              FROM e
            ), g AS (
              SELECT user_id, event_type AS state, run,
                     CAST(min(t) AS BIGINT) AS valid_from_us,
                     CAST(count(*) AS BIGINT) AS n_events
              FROM r GROUP BY user_id, event_type, run
            )
            SELECT user_id, state, valid_from_us,
                   CAST(coalesce(lead(valid_from_us) OVER (
                     PARTITION BY user_id ORDER BY run), 0) AS BIGINT) AS valid_to_us,
                   n_events
            FROM g ORDER BY user_id, valid_from_us
        """,
        # skyline_orders: dominance spelled out — the O(n²) NOT EXISTS the
        # local-frontier combiner exists to avoid
        "skyline_orders": """
            WITH o AS (
              SELECT o_orderkey,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                     CAST(date_diff('day', DATE '1970-01-01', o_orderdate) AS BIGINT) AS day
              FROM orders)
            SELECT p.o_orderkey, p.cents, p.day FROM o p
            WHERE NOT EXISTS (
              SELECT 1 FROM o q
              WHERE q.cents >= p.cents AND q.day >= p.day
                AND (q.cents > p.cents OR q.day > p.day))
            ORDER BY p.o_orderkey
        """,
        # merge_apply: MERGE semantics spelled out — delta rows, then base
        # rows blocked by neither the delta keys nor the delete keys
        "merge_apply": """
            WITH b AS (
              SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders WHERE o_orderkey % 11 <> 0
            ), d AS (
              SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) + 777 AS cents
              FROM orders WHERE o_orderkey % 5 = 0
            ), del AS (
              SELECT o_orderkey FROM orders WHERE o_orderkey % 13 = 0
            )
            SELECT o_orderkey, cents FROM d
            UNION ALL
            SELECT o_orderkey, cents FROM b
            WHERE o_orderkey NOT IN (SELECT o_orderkey FROM d)
              AND o_orderkey NOT IN (SELECT o_orderkey FROM del)
            ORDER BY o_orderkey
        """,
        "column_stats": """
            SELECT col_name, n, n_null, n_distinct, min_int, max_int, min_str, max_str
            FROM (
              SELECT 'o_orderkey' AS col_name, CAST(count(*) AS BIGINT) AS n,
                     CAST(count(*) - count(o_orderkey) AS BIGINT) AS n_null,
                     CAST(count(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
                     CAST(min(o_orderkey) AS BIGINT) AS min_int,
                     CAST(max(o_orderkey) AS BIGINT) AS max_int,
                     CAST(NULL AS VARCHAR) AS min_str, CAST(NULL AS VARCHAR) AS max_str
              FROM orders
              UNION ALL
              SELECT 'o_custkey', CAST(count(*) AS BIGINT),
                     CAST(count(*) - count(o_custkey) AS BIGINT),
                     CAST(count(DISTINCT o_custkey) AS BIGINT),
                     CAST(min(o_custkey) AS BIGINT), CAST(max(o_custkey) AS BIGINT),
                     NULL, NULL
              FROM orders
              UNION ALL
              SELECT 'o_totalprice', CAST(count(*) AS BIGINT),
                     CAST(count(*) - count(o_totalprice) AS BIGINT),
                     CAST(count(DISTINCT CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT),
                     CAST(min(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT),
                     CAST(max(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT),
                     NULL, NULL
              FROM orders
              UNION ALL
              SELECT 'o_orderdate', CAST(count(*) AS BIGINT),
                     CAST(count(*) - count(o_orderdate) AS BIGINT),
                     CAST(count(DISTINCT o_orderdate) AS BIGINT),
                     CAST(epoch_us(min(o_orderdate)) AS BIGINT),
                     CAST(epoch_us(max(o_orderdate)) AS BIGINT),
                     NULL, NULL
              FROM orders
              UNION ALL
              SELECT 'o_orderstatus', CAST(count(*) AS BIGINT),
                     CAST(count(*) - count(o_orderstatus) AS BIGINT),
                     CAST(count(DISTINCT o_orderstatus) AS BIGINT),
                     NULL, NULL, min(o_orderstatus), max(o_orderstatus)
              FROM orders
              UNION ALL
              SELECT 'o_orderpriority', CAST(count(*) AS BIGINT),
                     CAST(count(*) - count(o_orderpriority) AS BIGINT),
                     CAST(count(DISTINCT o_orderpriority) AS BIGINT),
                     NULL, NULL, min(o_orderpriority), max(o_orderpriority)
              FROM orders
            ) ORDER BY col_name
        """,
        "audit_orders": """
            WITH c AS (
              SELECT
                CAST(count(*) AS BIGINT) AS rows,
                CAST(count(*) FILTER (WHERE o_totalprice IS NULL) AS BIGINT) AS null_price,
                CAST(count(*) FILTER (WHERE o_totalprice IS NOT NULL
                      AND CAST(round(o_totalprice * 100) AS BIGINT) <= 0) AS BIGINT) AS nonpos_price,
                CAST(count(*) FILTER (WHERE o_orderdate < TIMESTAMP '1990-01-01'
                      OR o_orderdate >= TIMESTAMP '2010-01-01') AS BIGINT) AS date_out_of_range,
                CAST(count(*) FILTER (WHERE o_totalprice IS NOT NULL
                      AND CAST(round(o_totalprice * 100) AS BIGINT) > 30000000) AS BIGINT) AS price_above_cap,
                CAST(count(*) FILTER (WHERE o_custkey NOT IN
                      (SELECT c_custkey FROM customer)) AS BIGINT) AS fk_orphan
              FROM orders
            )
            SELECT check_name, n_violations FROM (
              SELECT 'rows' AS check_name, rows AS n_violations FROM c
              UNION ALL SELECT 'null_price', null_price FROM c
              UNION ALL SELECT 'nonpos_price', nonpos_price FROM c
              UNION ALL SELECT 'date_out_of_range', date_out_of_range FROM c
              UNION ALL SELECT 'price_above_cap', price_above_cap FROM c
              UNION ALL SELECT 'fk_orphan', fk_orphan FROM c
            ) ORDER BY check_name
        """,
        "revenue_rollup": """
            SELECT COALESCE(r_name, 'ALL') AS r_name,
                   COALESCE(n_name, 'ALL') AS n_name,
                   CAST(count(*) AS BIGINT) AS n_orders,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
                       AS revenue_cents
            FROM orders, customer, nation, region
            WHERE o_custkey = c_custkey AND c_nationkey = n_nationkey
              AND n_regionkey = r_regionkey
            GROUP BY ROLLUP(r_name, n_name)
            ORDER BY r_name, n_name
        """,
        "event_transitions": """
            WITH o AS (
              SELECT user_id, event_type,
                     lag(event_type) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                     ) AS prev
              FROM events
            )
            SELECT prev AS from_type, event_type AS to_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM o WHERE prev IS NOT NULL
            GROUP BY prev, event_type ORDER BY from_type, to_type
        """,
        # bloom_members: the Bloom bit rule replayed in UBIGINT arithmetic
        # (pos_j = (h1%m + j*(h2%m)) % m over both md5 halves); a customer
        # is "in" iff every one of its k positions is set by some order key
        "bloom_members": """
            WITH ok AS (
              SELECT DISTINCT CAST(o_custkey AS VARCHAR) AS s FROM orders
            ), h AS (
              SELECT CAST(CAST(('0x' || substr(md5('bloom:' || s), 1, 16)) AS UBIGINT)
                          % 65536 AS BIGINT) AS m1,
                     CAST(CAST(('0x' || substr(md5('bloom:' || s), 17, 16)) AS UBIGINT)
                          % 65536 AS BIGINT) AS m2
              FROM ok
            ), setpos AS (
              SELECT DISTINCT (m1 + j.j * m2) % 65536 AS pos
              FROM h, LATERAL (SELECT unnest(range(4)) AS j) j
            ), ch AS (
              SELECT c_custkey,
                     CAST(CAST(('0x' || substr(md5('bloom:' || CAST(c_custkey AS VARCHAR)), 1, 16)) AS UBIGINT)
                          % 65536 AS BIGINT) AS m1,
                     CAST(CAST(('0x' || substr(md5('bloom:' || CAST(c_custkey AS VARCHAR)), 17, 16)) AS UBIGINT)
                          % 65536 AS BIGINT) AS m2
              FROM customer
            ), cp AS (
              SELECT DISTINCT c_custkey, (m1 + j.j * m2) % 65536 AS pos
              FROM ch, LATERAL (SELECT unnest(range(4)) AS j) j
            )
            SELECT c_custkey,
                   CAST(CASE WHEN count(*) = sum(CASE WHEN s.pos IS NOT NULL THEN 1 ELSE 0 END)
                        THEN 1 ELSE 0 END AS BIGINT) AS in_bloom
            FROM cp LEFT JOIN setpos s USING (pos)
            GROUP BY c_custkey ORDER BY c_custkey
        """,
        "price_histogram": """
            WITH v AS (
              SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents FROM orders
            ), mm AS (
              SELECT min(cents) AS lo, max(cents) AS hi FROM v
            ), b AS (
              SELECT (cents - lo) * 20 // (hi - lo + 1) AS bin FROM v, mm
            ), g AS (
              SELECT bin, CAST(count(*) AS BIGINT) AS n FROM b GROUP BY bin
            )
            SELECT CAST(g.bin AS BIGINT) AS bin,
                   CAST(lo + (g.bin * (hi - lo + 1) + 19) // 20 AS BIGINT) AS edge_cents,
                   n
            FROM g, mm ORDER BY bin
        """,
        "segment_median": """
            WITH v AS (
              SELECT c_mktsegment AS seg,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer
            ), r AS (
              SELECT seg, cents,
                     row_number() OVER (PARTITION BY seg ORDER BY cents) AS rn,
                     count(*) OVER (PARTITION BY seg) AS n
              FROM v
            )
            SELECT seg AS c_mktsegment,
                   CAST(max(n) AS BIGINT) AS n_customers,
                   CAST(sum(CASE WHEN rn = (n - 1) // 2 + 1 OR rn = n // 2 + 1
                        THEN cents * (CASE WHEN (n - 1) // 2 = n // 2 THEN 2 ELSE 1 END)
                        ELSE 0 END) AS BIGINT) AS median_halfcents
            FROM r GROUP BY seg ORDER BY seg
        """,
        "fill_daily_gaps": """
            WITH e AS (
              SELECT user_id, CAST(date_trunc('day', ts) AS DATE) AS d,
                     CAST(round(value * 100) AS BIGINT) AS cents
              FROM events
            ), span AS (
              SELECT user_id, min(d) AS lo, max(d) AS hi FROM e GROUP BY user_id
            ), grid AS (
              SELECT user_id,
                     CAST(unnest(generate_series(lo, hi, INTERVAL 1 DAY)) AS DATE) AS d
              FROM span
            ), tot AS (
              SELECT user_id, d, CAST(sum(cents) AS BIGINT) AS total_cents
              FROM e GROUP BY user_id, d
            )
            SELECT g.user_id, strftime(g.d, '%Y-%m-%d') AS day,
                   CAST(COALESCE(t.total_cents, 0) AS BIGINT) AS total_cents
            FROM grid g LEFT JOIN tot t ON t.user_id = g.user_id AND t.d = g.d
            ORDER BY g.user_id, day
        """,
        "user_gap_stats": """
            WITH o AS (
              SELECT user_id, ts,
                     lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
              FROM events
            ), g AS (
              SELECT user_id,
                     date_diff('microsecond', prev, ts) // 1000000 AS gap
              FROM o WHERE prev IS NOT NULL
            )
            SELECT user_id, CAST(count(*) AS BIGINT) AS n_gaps,
                   CAST(min(gap) AS BIGINT) AS min_gap_s,
                   CAST(max(gap) AS BIGINT) AS max_gap_s,
                   CAST(sum(gap) AS BIGINT) AS total_gap_s
            FROM g GROUP BY user_id ORDER BY user_id
        """,
        "nation_customer_stats": """
            SELECT CAST(n_nationkey AS BIGINT) AS n_nationkey,
                   CAST(count(c_custkey) AS BIGINT) AS n_customers,
                   CAST(COALESCE(sum(CAST(round(c_acctbal * 100) AS BIGINT)), 0) AS BIGINT)
                       AS acctbal_cents
            FROM nation LEFT JOIN customer ON c_nationkey = n_nationkey
            GROUP BY n_nationkey ORDER BY n_nationkey
        """,
        "balance_deciles": """
            SELECT c_custkey, c_mktsegment, acctbal_cents, tile FROM (
              SELECT c_custkey, c_mktsegment,
                     CAST(round(c_acctbal * 100) AS BIGINT) AS acctbal_cents,
                     CAST(ntile(10) OVER (
                       PARTITION BY c_mktsegment
                       ORDER BY CAST(round(c_acctbal * 100) AS BIGINT), c_custkey
                     ) AS BIGINT) AS tile
              FROM customer)
            ORDER BY c_mktsegment, tile, acctbal_cents, c_custkey
        """,
        "mode_event_type": """
            SELECT user_id, event_type, n FROM (
              SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n,
                     row_number() OVER (
                       PARTITION BY user_id ORDER BY count(*) DESC, event_type ASC
                     ) AS rn
              FROM events GROUP BY user_id, event_type)
            WHERE rn = 1 ORDER BY user_id
        """,
        # corr_price_qty: the same integer sufficient stats in HUGEINT,
        # final r in the identical IEEE order (cast, divide, scale, floor)
        # basket_rules: association rules over the same 30-min gap
        # sessions as the sessions query; exact integer-milli metrics
        "basket_rules": """
            WITH e AS (
              SELECT user_id, event_id, ts, event_type,
                     CASE WHEN lag(ts) OVER w IS NULL
                            OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id, event_type,
                sum(brk) OVER (
                  PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS session_idx
              FROM e
            ), bask AS (
              SELECT DISTINCT user_id, session_idx, event_type FROM s
            ), ns AS (
              SELECT CAST(count(*) AS BIGINT) AS n
              FROM (SELECT DISTINCT user_id, session_idx FROM bask)
            ), it AS (
              SELECT event_type, CAST(count(*) AS BIGINT) AS n
              FROM bask GROUP BY event_type
            ), pr AS (
              SELECT a.event_type AS ante, b.event_type AS conseq,
                     CAST(count(*) AS BIGINT) AS both_n
              FROM bask a
              JOIN bask b ON a.user_id = b.user_id
                AND a.session_idx = b.session_idx
                AND a.event_type <> b.event_type
              GROUP BY 1, 2
            )
            SELECT pr.ante, pr.conseq, pr.both_n,
                   CAST(1000 * pr.both_n // ia.n AS BIGINT) AS conf_milli,
                   CAST(1000 * pr.both_n * ns.n // (ia.n * ib.n) AS BIGINT)
                     AS lift_milli
            FROM pr, ns
            JOIN it ia ON ia.event_type = pr.ante
            JOIN it ib ON ib.event_type = pr.conseq
            ORDER BY pr.ante, pr.conseq
        """,
        # rolling_wau: sliding 7-day COUNT DISTINCT users for every
        # calendar day in span (a no-event day still reports its window)
        "rolling_wau": """
            WITH ud AS (
              SELECT DISTINCT user_id,
                     datediff('day', DATE '1970-01-01', CAST(ts AS DATE)) AS d
              FROM events
            ), b AS (
              SELECT min(d) AS lo, max(d) AS hi FROM ud
            ), days AS (
              SELECT unnest(range(b.lo, b.hi + 1)) AS day_num FROM b
            )
            SELECT CAST(day_num AS BIGINT) AS day_num,
                   CAST(count(DISTINCT u.user_id) AS BIGINT) AS wau
            FROM days LEFT JOIN ud u ON u.d BETWEEN day_num - 6 AND day_num
            GROUP BY day_num ORDER BY day_num
        """,
        # spearman_qty_disc: tie-averaged doubled ranks from the marginal
        # count tables (doubling keeps .5-averages integral and cancels
        # in rho), exact HUGEINT sufficient stats, the corr_price_qty
        # final IEEE form
        "spearman_qty_disc": """
            WITH j AS (
              SELECT CAST(l_quantity AS BIGINT) AS x,
                     CAST(round(l_discount * 100) AS BIGINT) AS y,
                     CAST(count(*) AS BIGINT) AS w
              FROM lineitem GROUP BY 1, 2
            ), mx AS (
              SELECT x, sum(w) AS c FROM j GROUP BY x
            ), rx AS (
              SELECT x, 2 * COALESCE(sum(c) OVER (ORDER BY x
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                        + c + 1 AS r
              FROM mx
            ), my AS (
              SELECT y, sum(w) AS c FROM j GROUP BY y
            ), ry AS (
              SELECT y, 2 * COALESCE(sum(c) OVER (ORDER BY y
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                        + c + 1 AS r
              FROM my
            ), s AS (
              SELECT CAST(sum(w) AS HUGEINT) AS n,
                     sum(CAST(w AS HUGEINT) * rx.r) AS sx,
                     sum(CAST(w AS HUGEINT) * ry.r) AS sy,
                     sum(CAST(w AS HUGEINT) * rx.r * rx.r) AS sxx,
                     sum(CAST(w AS HUGEINT) * ry.r * ry.r) AS syy,
                     sum(CAST(w AS HUGEINT) * rx.r * ry.r) AS sxy
              FROM j JOIN rx USING (x) JOIN ry USING (y)
            ), f AS (
              SELECT n, n * sxy - sx * sy AS num,
                     n * sxx - sx * sx AS a, n * syy - sy * sy AS b
              FROM s
            )
            SELECT CAST(n AS BIGINT) AS n,
                   CASE WHEN a > 0 AND b > 0 THEN
                     CAST(floor(CAST(num AS DOUBLE)
                           / (sqrt(CAST(a AS DOUBLE)) * sqrt(CAST(b AS DOUBLE)))
                           * 1000000000.0 + 0.5) AS BIGINT)
                   ELSE CAST(0 AS BIGINT) END AS spearman_nano
            FROM f
        """,
        "corr_price_qty": """
            WITH s AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sx,
                     CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sy,
                     sum(CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * CAST(round(l_extendedprice * 100) AS BIGINT) AS HUGEINT)) AS sxx,
                     sum(CAST(CAST(l_quantity AS BIGINT) * CAST(l_quantity AS BIGINT) AS HUGEINT)) AS syy,
                     sum(CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                              * CAST(l_quantity AS BIGINT) AS HUGEINT)) AS sxy
              FROM lineitem
            ), f AS (
              SELECT n, sx, sy,
                     CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * CAST(sy AS HUGEINT) AS num,
                     CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * CAST(sx AS HUGEINT) AS a,
                     CAST(n AS HUGEINT) * syy - CAST(sy AS HUGEINT) * CAST(sy AS HUGEINT) AS b
              FROM s
            )
            SELECT n, sx AS sum_price_cents, sy AS sum_qty,
                   CASE WHEN a > 0 AND b > 0 THEN
                     CAST(floor(CAST(num AS DOUBLE)
                           / (sqrt(CAST(a AS DOUBLE)) * sqrt(CAST(b AS DOUBLE)))
                           * 1000000000.0 + 0.5) AS BIGINT)
                   ELSE CAST(0 AS BIGINT) END AS r_nano
            FROM f
        """,
        "events_by_day": """
            SELECT event_type,
                   strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   CAST(count(*) AS BIGINT) AS n,
                   min(event_id) AS min_event_id,
                   max(event_id) AS max_event_id
            FROM events GROUP BY event_type, day ORDER BY event_type, day
        """,
        "running_totals": """
            SELECT user_id, event_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                   ) AS BIGINT) AS cum_value_cents
            FROM events
        """,
        # running_totals_bucketed: same window SQL as running_totals (the
        # (user, day-bucket) prefix-offset split is execution-only)
        "running_totals_bucketed": """
            SELECT user_id, event_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER (
                     PARTITION BY user_id ORDER BY ts, event_id
                   ) AS BIGINT) AS cum_value_cents
            FROM events
        """,
        "seq_packing": """
            WITH t AS (
              SELECT doc_id, doc_id % 64 AS bucket,
                     CAST(length(string_split(text, ' ')) AS BIGINT) AS n_tokens
              FROM documents
            ), w AS (
              SELECT doc_id, bucket, n_tokens,
                     COALESCE(sum(n_tokens) OVER (
                       PARTITION BY bucket ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS prefix
              FROM t
            )
            SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, n_tokens,
                   CAST(prefix // 512 AS BIGINT) AS bin_id
            FROM w ORDER BY doc_id
        """,
        "redact_props": _redact_sql(),
        "props_stats": r"""
            WITH x AS (
              SELECT event_type,
                     TRY_CAST(NULLIF(regexp_extract(props, '"k":\s*(-?[0-9]+)', 1), '')
                              AS BIGINT) AS v
              FROM events
            )
            SELECT event_type,
                   CAST(count(v) AS BIGINT) AS n_events,
                   CAST(sum(v) AS BIGINT) AS sum_k,
                   CAST(min(v) AS BIGINT) AS min_k,
                   CAST(max(v) AS BIGINT) AS max_k
            FROM x GROUP BY event_type ORDER BY event_type
        """,
        "asof_join": """
            WITH p AS (SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, ts, max(event_id) AS prior_event_id
                       FROM events WHERE event_type = 'click' GROUP BY user_id, ts)
            SELECT p.user_id, p.event_id, c.prior_event_id
            FROM p ASOF JOIN c ON p.user_id = c.user_id AND p.ts >= c.ts
        """,
        # asof_join_bucketed: identical output contract to asof_join (the
        # boundary-carry decomposition is an execution strategy, not a
        # semantics change) — same ASOF oracle
        "asof_join_bucketed": """
            WITH p AS (SELECT user_id, event_id, ts FROM events WHERE event_type = 'purchase'),
                 c AS (SELECT user_id, ts, max(event_id) AS prior_event_id
                       FROM events WHERE event_type = 'click' GROUP BY user_id, ts)
            SELECT p.user_id, p.event_id, c.prior_event_id
            FROM p ASOF JOIN c ON p.user_id = c.user_id AND p.ts >= c.ts
        """,
        "sample_docs": """
            SELECT doc_id FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 100 < 20
        """,
        # stratified_sample: the same md5 bucket, thresholded per-stratum
        # (quota table mirrored from STRATA_PCT)
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT) % 100
                  < CASE lang WHEN 'en' THEN 30 WHEN 'de' THEN 10 WHEN 'fr' THEN 50 WHEN 'es' THEN 20 ELSE 5 END
            ORDER BY doc_id
        """,
        # mixture_sample: √n temperature quotas (isqrt == floor(sqrt) for
        # n < 2^51), per-source smallest-(md5, id) picks via one window
        "mixture_sample": """
            WITH c AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                       FROM documents GROUP BY source),
            r AS (SELECT source, n, CAST(floor(sqrt(n)) AS BIGINT) AS rt FROM c),
            q AS (SELECT source, least(n, 400 * rt // (SELECT sum(rt) FROM r)) AS quota FROM r),
            ranked AS (SELECT doc_id, source,
                   row_number() OVER (PARTITION BY source
                     ORDER BY CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) ASC,
                              doc_id ASC) AS rn
                   FROM documents)
            SELECT d.doc_id, d.source FROM ranked d JOIN q USING (source)
            WHERE d.rn <= q.quota ORDER BY doc_id
        """,
        # budget_select: the engine's radix-located cut point IS the
        # window prefix rule (token sums are strictly positive, so
        # cum <= budget == stop-at-first-overflow)
        "budget_select": f"""
            WITH f AS (
              SELECT doc_id,
                     CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)) AS UBIGINT) AS h,
                     CAST(len(list_distinct(string_split(lower(text), ' '))) * 1000
                          // len(string_split(lower(text), ' ')) AS BIGINT) AS score,
                     CAST(len(string_split(lower(text), ' ')) AS BIGINT) AS n_tokens
              FROM documents),
            o AS (SELECT doc_id, score, n_tokens,
                    sum(n_tokens) OVER (ORDER BY score DESC, h ASC, doc_id ASC
                                        ROWS UNBOUNDED PRECEDING) AS cum
                  FROM f)
            SELECT doc_id, score, n_tokens FROM o WHERE cum <= {BUDGET_TOKENS}
            ORDER BY doc_id
        """,
        "distinct_texts": """
            SELECT CAST(count(DISTINCT lower(text)) AS BIGINT) AS n_distinct FROM documents
        """,
        # --- dedup / LSH family: hashes recomputed from scratch in SQL ---
        "lang_id": f"""
            WITH t AS (
              SELECT doc_id, list_distinct(string_split(lower(text), ' ')) AS toks
              FROM documents
            ), n AS (
              SELECT doc_id,
            {lang_cols}
              FROM t
            )
            SELECT doc_id,
                   CASE WHEN greatest(n_de, n_en, n_es, n_fr) = 0 THEN 'und'
                        WHEN n_de >= n_en AND n_de >= n_es AND n_de >= n_fr THEN 'de'
                        WHEN n_en >= n_es AND n_en >= n_fr THEN 'en'
                        WHEN n_es >= n_fr THEN 'es'
                        ELSE 'fr' END AS lang_pred
            FROM n ORDER BY doc_id
        """,
        # M19: delimiter runs collapsed to one space == split-on-class,
        # drop empties, join with ' ' (space is itself a delimiter, so
        # tokens never contain it)
        "legacy_tokens": """
            WITH s AS (
              SELECT doc_id,
                     trim(regexp_replace(text, '[ .;:%"$^,]+', ' ', 'g'), ' ') AS j
              FROM documents
            )
            SELECT doc_id,
                   CAST(CASE WHEN j = '' THEN 0
                        ELSE length(j) - length(replace(j, ' ', '')) + 1 END AS BIGINT)
                     AS n_tokens,
                   j AS tokens_joined
            FROM s ORDER BY doc_id
        """,
        # M20: vocab = legacy tokens with corpus frequency >= 50; drop any
        # doc containing a token outside it
        "oov_filter": """
            WITH nz AS (
              SELECT doc_id,
                     unnest(regexp_split_to_array(text, '[ .;:%"$^,]')) AS token
              FROM documents
            ), nz2 AS (
              SELECT doc_id, token FROM nz WHERE token <> ''
            ), vocab AS (
              SELECT token FROM nz2 GROUP BY token HAVING count(*) >= 50
            ), bad AS (
              SELECT DISTINCT doc_id FROM nz2
              WHERE token NOT IN (SELECT token FROM vocab)
            )
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM bad)
            ORDER BY d.doc_id
        """,
        "simhash": f"""
            WITH {_SIMHASH_CTE}
            SELECT doc_id, simhash, CAST(simhash >> 48 AS UINTEGER) AS bucket
            FROM sh ORDER BY doc_id
        """,
        "simhash_pairs": f"""
            WITH {_SIMHASH_CTE},
            blocks AS (
              SELECT doc_id, simhash, blk
              FROM sh CROSS JOIN (SELECT unnest(range(4)) AS blk)
            ), cand AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     bit_count(xor(a.simhash, b.simhash)) AS d
              FROM blocks a JOIN blocks b
                ON a.blk = b.blk
               AND ((a.simhash >> (a.blk * 16)) & 65535) = ((b.simhash >> (b.blk * 16)) & 65535)
               AND a.doc_id < b.doc_id
            )
            SELECT doc_a, doc_b, CAST(min(d) AS BIGINT) AS hamming
            FROM cand WHERE d <= 3 GROUP BY doc_a, doc_b
            ORDER BY doc_a, doc_b
        """,
        "dedup_minhash": f"""
            WITH tok AS (
              SELECT doc_id, list_filter(string_split(lower(text), ' '), t -> t <> '') AS toks
              FROM documents
            ), shl AS (
              SELECT doc_id,
                CASE WHEN len(toks) = 0 THEN CAST([] AS VARCHAR[])
                     WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                     ELSE list_transform(range(1, len(toks) - 1),
                                         i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2])
                END AS shingles
              FROM tok
            ), sset AS (
              SELECT doc_id, list_distinct(shingles) AS sh FROM shl
            ), shx AS (
              SELECT doc_id, unnest(sh) AS s FROM sset
            ), sigs AS (
              SELECT doc_id, p.j, min(xor({_md5u64('s')}, p.k)) AS sig
              FROM shx CROSS JOIN (
                SELECT j, {_md5u64("'perm:' || CAST(j AS VARCHAR)")} AS k
                FROM (SELECT unnest(range(64)) AS j)
              ) p
              GROUP BY doc_id, p.j
            ), buckets AS (
              SELECT doc_id, j // 8 AS band,
                     md5(string_agg(CAST(sig AS VARCHAR), ':' ORDER BY j)) AS bucket
              FROM sigs GROUP BY doc_id, j // 8
            ), cand AS (
              SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
              FROM buckets a JOIN buckets b
                ON a.band = b.band AND a.bucket = b.bucket AND a.doc_id < b.doc_id
            ), jac AS (
              SELECT c.doc_a, c.doc_b,
                     CAST(len(list_intersect(sa.sh, sb.sh)) AS DOUBLE)
                       / CAST(len(list_distinct(sa.sh || sb.sh)) AS DOUBLE) AS sim
              FROM cand c
              JOIN sset sa ON c.doc_a = sa.doc_id
              JOIN sset sb ON c.doc_b = sb.doc_id
              WHERE len(list_distinct(sa.sh || sb.sh)) > 0
            )
            SELECT doc_a, doc_b,
                   CAST(floor(sim * 1000000 + 0.5) AS BIGINT) AS jaccard_micro
            FROM jac WHERE sim >= 0.8
            ORDER BY doc_a, doc_b
        """,
        "knn_lsh": f"""
            WITH planes AS (
              SELECT j, d,
                     {_md5u64("'plane:' || CAST(j AS VARCHAR) || ':' || CAST(d AS VARCHAR)")}
                       / 9223372036854775808.0 - 1.0 AS v
              FROM (SELECT unnest(range(8)) AS j), (SELECT unnest(range(64)) AS d)
            ), emb AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
              FROM embeddings
            ), proj AS (
              SELECT emb.vec_id, p.j, sum(emb.e[p.d + 1] * p.v) AS dot
              FROM emb CROSS JOIN planes p GROUP BY emb.vec_id, p.j
            ), bkt AS (
              SELECT vec_id,
                     CAST(sum(CASE WHEN dot > 0 THEN CAST(1 AS UINTEGER) << j
                                   ELSE 0 END) AS UINTEGER) AS bucket
              FROM proj GROUP BY vec_id
            ), be AS (
              SELECT b.vec_id, b.bucket, e.e FROM bkt b JOIN emb e ON b.vec_id = e.vec_id
            )
            SELECT query_id, neighbor_id, rank FROM (
              SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
                     CAST(row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(q.e, n.e) DESC, n.vec_id ASC
                     ) AS BIGINT) AS rank
              FROM be q JOIN be n ON q.bucket = n.bucket AND n.vec_id <> q.vec_id
              WHERE q.vec_id IN (0, 1, 2, 3, 4))
            WHERE rank <= 10
            ORDER BY query_id, rank
        """,
        # ngram_jaccard's oracle is PURE SEMANTICS — brute-force all-pairs
        # Jaccard with no candidate scheme — so it also proves the engine's
        # prefix-filter candidate set is complete, not just verified.
        "ngram_jaccard": f"""
            WITH {_NGRAM_CTES}
            SELECT doc_a, doc_b,
                   CAST(floor(sim * 1000000 + 0.5) AS BIGINT) AS jaccard_micro
            FROM jac WHERE sim >= 0.8
            ORDER BY doc_a, doc_b
        """,
        # decontam: benchmark-decontamination replay — the synthetic eval
        # set is the 8-grams of tokens[2:18] of every 19th doc (the same
        # pure function of the input the engine derives), the report every
        # doc sharing >= 1 such gram with n_hits = count(DISTINCT gram).
        # Tokens split on single space WITHOUT dropping empties (matching
        # decontam.ngram_strings); DuckDB list slices are 1-based inclusive
        # so python [2:18] == toks[3:18].
        "decontam": """
            WITH tok AS (
              SELECT doc_id, string_split(text, ' ') AS toks FROM documents
            ), bench AS (
              SELECT DISTINCT unnest(
                CASE WHEN len(w) < 8 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(0, len(w) - 7),
                          i -> array_to_string(w[(i+1)::INT:(i+8)::INT], ' '))
                END) AS g
              FROM (SELECT toks[3:18] AS w FROM tok WHERE doc_id % 19 = 0)
            ), grams AS (
              SELECT doc_id, unnest(
                CASE WHEN len(toks) < 8 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(0, len(toks) - 7),
                          i -> array_to_string(toks[(i+1)::INT:(i+8)::INT], ' '))
                END) AS g
              FROM tok
            )
            SELECT g.doc_id, CAST(count(DISTINCT g.g) AS BIGINT) AS n_hits
            FROM grams g JOIN bench b ON g.g = b.g
            GROUP BY g.doc_id
            ORDER BY g.doc_id
        """,
        # sessions: gap-based session windows — break when the inactivity
        # gap strictly exceeds 30 minutes (engine: diff > gap_us), session
        # index = running break count per user, cents rounded per event
        # before the integer sum (drift-free)
        "sessions": """
            WITH e AS (
              SELECT user_id, event_id, ts,
                     CAST(round(value * 100) AS BIGINT) AS cents,
                     CASE WHEN lag(ts) OVER w IS NULL
                            OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                          THEN 1 ELSE 0 END AS brk
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
              SELECT user_id, ts, cents,
                sum(brk) OVER (
                  PARTITION BY user_id ORDER BY ts, event_id
                  ROWS UNBOUNDED PRECEDING) AS session_idx
              FROM e
            )
            SELECT user_id, CAST(session_idx AS BIGINT) AS session_idx,
              CAST(count(*) AS BIGINT) AS n_events,
              min(ts) AS first_ts, max(ts) AS last_ts,
              CAST(sum(cents) AS BIGINT) AS total_cents
            FROM s GROUP BY user_id, session_idx
            ORDER BY user_id, session_idx
        """,
        # tfidf_top5: raw-ratio-idf tf-idf replay — same tokenization as
        # every text oracle (string_split(lower(text), ' '), '' dropped),
        # same double-precision expression floor(1000.0*tf*N/df + 0.5),
        # row_number ties broken by token asc
        "tfidf_top5": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(lower(text), ' ')) AS token
              FROM documents
            ), tf AS (
              SELECT doc_id, token, count(*) AS tf FROM tok
              WHERE token <> '' GROUP BY doc_id, token
            ), df AS (
              SELECT token, count(*) AS df FROM tf GROUP BY token
            ), n AS (SELECT count(*) AS n FROM documents),
            sc AS (
              SELECT tf.doc_id, tf.token, tf.tf,
                CAST(floor(1000.0 * tf.tf * n.n / df.df + 0.5) AS BIGINT)
                  AS score_milli
              FROM tf JOIN df USING (token), n
            ), rk AS (
              SELECT *, row_number() OVER (
                PARTITION BY doc_id
                ORDER BY score_milli DESC, token ASC) AS rank
              FROM sc
            )
            SELECT doc_id, token, CAST(tf AS BIGINT) AS tf, score_milli,
                   CAST(rank AS BIGINT) AS rank
            FROM rk WHERE rank <= 5 ORDER BY doc_id, rank
        """,
        # window_join: keyed band-join replay (LEFT join keeps zero-match
        # signups; milli values integer-rounded per event before the sum)
        "window_join": """
            SELECT s.event_id, s.user_id,
              CAST(count(p.event_id) AS BIGINT) AS n_purch,
              CAST(coalesce(sum(CAST(round(p.value * 1000) AS BIGINT)), 0)
                   AS BIGINT) AS purch_milli
            FROM events s LEFT JOIN events p
              ON p.user_id = s.user_id AND p.event_type = 'purchase'
             AND p.ts >= s.ts AND p.ts < s.ts + INTERVAL 24 HOURS
            WHERE s.event_type = 'signup'
            GROUP BY s.event_id, s.user_id
            ORDER BY s.event_id
        """,
        # bm25: full replay — same tokenization, per-(doc,term)
        # contribution integer-rounded BEFORE the per-doc sum (order-free),
        # log-free rational idf, identical double expression order
        "bm25": f"""
            WITH q(query_id, term) AS (VALUES {_bm25_values()}),
            tok AS (
              SELECT doc_id, unnest(string_split(lower(text), ' ')) AS token
              FROM documents
            ), tf AS (
              SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf FROM tok
              WHERE token <> '' GROUP BY doc_id, token
            ), dl AS (
              SELECT doc_id, CAST(sum(tf) AS BIGINT) AS dl FROM tf GROUP BY doc_id
            ), n AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     sum(dl) / CAST(count(*) AS DOUBLE) AS avgdl
              FROM dl
            ), df AS (
              SELECT tf.token, CAST(count(*) AS BIGINT) AS df
              FROM tf JOIN (SELECT DISTINCT term FROM q) qt ON tf.token = qt.term
              GROUP BY tf.token
            ), contrib AS (
              SELECT q.query_id, tf.doc_id,
                CAST(floor(
                  ((CAST(n.n - coalesce(df.df, 0) AS DOUBLE) + 0.5)
                     / (CAST(coalesce(df.df, 0) AS DOUBLE) + 0.5) + 1.0)
                  * ((CAST(tf.tf AS DOUBLE) * (1.2 + 1.0)) /
                     (CAST(tf.tf AS DOUBLE)
                      + 1.2 * ((1.0 - 0.75)
                               + 0.75 * (CAST(dl.dl AS DOUBLE) / n.avgdl))))
                  * 1000000.0 + 0.5) AS BIGINT) AS c
              FROM q JOIN tf ON tf.token = q.term
              JOIN dl ON dl.doc_id = tf.doc_id
              LEFT JOIN df ON df.token = q.term, n
            ), sc AS (
              SELECT query_id, doc_id, CAST(sum(c) AS BIGINT) AS score_micro
              FROM contrib GROUP BY query_id, doc_id
            ), rk AS (
              SELECT *, row_number() OVER (
                PARTITION BY query_id
                ORDER BY score_micro DESC, doc_id ASC) AS rank
              FROM sc
            )
            SELECT query_id, doc_id, score_micro, CAST(rank AS BIGINT) AS rank
            FROM rk WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # token_cooc: top-50 vocab (proven count-desc/token-asc select),
        # distinct doc-token presence self-join, same double lift order
        "token_cooc": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(lower(text), ' ')) AS token
              FROM documents
            ), tc AS (
              SELECT token, CAST(count(*) AS BIGINT) AS cnt FROM tok
              WHERE token <> '' GROUP BY token
            ), vocab AS (
              SELECT token FROM tc ORDER BY cnt DESC, token ASC LIMIT 50
            ), pres AS (
              SELECT DISTINCT doc_id, token FROM tok
              WHERE token IN (SELECT token FROM vocab)
            ), nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
            cx AS (
              SELECT token, CAST(count(*) AS BIGINT) AS c FROM pres GROUP BY token
            ), pr AS (
              SELECT a.token AS tok_a, b.token AS tok_b,
                     CAST(count(*) AS BIGINT) AS n_docs_both
              FROM pres a JOIN pres b
                ON a.doc_id = b.doc_id AND a.token < b.token
              GROUP BY a.token, b.token
            )
            SELECT pr.tok_a, pr.tok_b, pr.n_docs_both,
              CAST(floor(
                (CAST(pr.n_docs_both AS DOUBLE) * CAST(nn.n AS DOUBLE))
                / (CAST(ca.c AS DOUBLE) * CAST(cb.c AS DOUBLE))
                * 1000000.0 + 0.5) AS BIGINT) AS lift_micro
            FROM pr
            JOIN cx ca ON ca.token = pr.tok_a
            JOIN cx cb ON cb.token = pr.tok_b, nn
            ORDER BY pr.tok_a, pr.tok_b
        """,
        # corpus_drift: chi-square via sum(p^2/q) - 1 — per-term nano
        # rounding before the sum, identical double expression order
        "corpus_drift": """
            WITH tok AS (
              SELECT source, unnest(string_split(lower(text), ' ')) AS token
              FROM documents
            ), pairs AS (
              SELECT source, token, CAST(count(*) AS BIGINT) AS c FROM tok
              WHERE token <> '' GROUP BY source, token
            ), tt AS (
              SELECT token, CAST(sum(c) AS BIGINT) AS ct FROM pairs GROUP BY token
            ), st AS (
              SELECT source, CAST(sum(c) AS BIGINT) AS cs FROM pairs GROUP BY source
            ), tot AS (SELECT CAST(sum(ct) AS DOUBLE) AS ctot FROM tt),
            terms AS (
              SELECT pairs.source,
                CAST(floor(
                  ((CAST(pairs.c AS DOUBLE) * CAST(pairs.c AS DOUBLE)) * tot.ctot)
                  / ((CAST(st.cs AS DOUBLE) * CAST(st.cs AS DOUBLE))
                     * CAST(tt.ct AS DOUBLE))
                  * 1000000000.0 + 0.5) AS BIGINT) AS nano
              FROM pairs JOIN tt USING (token) JOIN st USING (source), tot
            )
            SELECT terms.source, st.cs AS n_tokens,
                   CAST(sum(nano) - 1000000000 AS BIGINT) AS chi2_nano
            FROM terms JOIN st ON st.source = terms.source
            GROUP BY terms.source, st.cs ORDER BY terms.source
        """,
        # cms_counts: the count-min sketch replayed cell-for-cell in SQL
        "cms_counts": _cms_sql(),
        # hll_distinct: full sketch replay — splitmix64 double-mix in
        # hi/lo-split HUGEINT mulmod CTEs, register max-fold, exact
        # integer harmonic denominator, one shared IEEE op sequence
        "hll_distinct": _hll_sql(),
        # semantic_dedup: unrolled k-centers + assignment + keep-first
        # prune replay — every decision is an integer micro-cosine compare
        "semantic_dedup": _semantic_dedup_sql(k=8, tau=400000),
        # knn_pq: PQ codebook training + assignment + ADC ranking unrolled
        "knn_pq": _pq_sql(m_sub=4, k=8, dim=64),
        # knn_ivfpq: degenerate-probe composition == full PQ ranking
        "knn_ivfpq": _pq_sql(m_sub=4, k=8, dim=64, query_ids=(20, 21, 22, 23, 24)),
        # dup_passages: token-5-gram window replay over the raw split list
        # (empties included, same as the engine's flattened window join)
        "dup_passages": """
            WITH tok AS (
              SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents
            ), g AS (
              SELECT doc_id,
                     array_to_string(list_slice(toks, i.i + 1, i.i + 5), ' ') AS ngram
              FROM tok, LATERAL (SELECT unnest(range(len(toks) - 4)) AS i) i
              WHERE len(toks) >= 5
            ), per AS (
              SELECT ngram, doc_id, CAST(count(*) AS BIGINT) AS occ
              FROM g GROUP BY ngram, doc_id
            ), agg AS (
              SELECT ngram, CAST(count(*) AS BIGINT) AS n_docs,
                     CAST(sum(occ) AS BIGINT) AS n_occ,
                     min(doc_id) AS min_doc, max(doc_id) AS max_doc
              FROM per GROUP BY ngram
            )
            SELECT * FROM agg WHERE n_docs >= 2 ORDER BY ngram
        """,
        # dup_spans: the same 5-gram windows, duplicated ones merged into
        # maximal covered-token intervals via gaps-and-islands (merge when
        # the next window starts within pos + 5)
        "dup_spans": """
            WITH tok AS (
              SELECT doc_id, string_split(lower(text), ' ') AS toks FROM documents
            ), g AS (
              SELECT doc_id, i.i AS pos,
                     array_to_string(list_slice(toks, i.i + 1, i.i + 5), ' ') AS ngram
              FROM tok, LATERAL (SELECT unnest(range(len(toks) - 4)) AS i) i
              WHERE len(toks) >= 5
            ), per AS (
              SELECT ngram, doc_id FROM g GROUP BY ngram, doc_id
            ), dups AS (
              SELECT ngram FROM per GROUP BY ngram HAVING count(*) >= 2
            ), m AS (
              SELECT g.doc_id, g.pos FROM g JOIN dups USING (ngram)
            ), o AS (
              SELECT doc_id, pos,
                     lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS prev
              FROM m
            ), isl AS (
              SELECT doc_id, pos,
                     sum(CASE WHEN prev IS NULL OR pos > prev + 5 THEN 1 ELSE 0 END)
                       OVER (PARTITION BY doc_id ORDER BY pos) AS gid
              FROM o
            ), sp AS (
              SELECT doc_id, max(pos) + 5 - min(pos) AS span_len
              FROM isl GROUP BY doc_id, gid
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup_spans,
                   CAST(sum(span_len) AS BIGINT) AS dup_tokens,
                   CAST(max(span_len) AS BIGINT) AS max_span
            FROM sp GROUP BY doc_id ORDER BY doc_id
        """,
        # bpe_merges: 6 unrolled rounds of count→argmax→replace
        "bpe_merges": _bpe_sql(n_merges=6),
        "bpe_encode": _bpe_apply_sql(n_merges=6),
        "top_terms_by_source": """
            SELECT source, token, n, rank FROM (
              SELECT source, token, CAST(count(*) AS BIGINT) AS n,
                     CAST(row_number() OVER (
                       PARTITION BY source ORDER BY count(*) DESC, token ASC
                     ) AS BIGINT) AS rank
              FROM (
                SELECT source, unnest(string_split(lower(text), ' ')) AS token
                FROM documents
              ) WHERE token <> ''
              GROUP BY source, token)
            WHERE rank <= 5 ORDER BY source, rank
        """,
        "vocab_diff": """
            WITH tok AS (
              SELECT source, unnest(string_split(lower(text), ' ')) AS token
              FROM documents WHERE source IN ('src1', 'src2')
            ), f AS (
              SELECT source, token FROM tok WHERE token <> ''
            ), g AS (
              SELECT token,
                     CAST(sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END) AS BIGINT) AS n_a,
                     CAST(sum(CASE WHEN source = 'src2' THEN 1 ELSE 0 END) AS BIGINT) AS n_b
              FROM f GROUP BY token
            )
            SELECT token,
                   CASE WHEN n_a = 0 THEN 'b_only'
                        WHEN n_b = 0 THEN 'a_only'
                        ELSE 'both' END AS membership,
                   n_a, n_b
            FROM g ORDER BY token
        """,
        # postings: inverted index replayed with ordered string_agg
        "postings": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(lower(text), ' ')) AS token
              FROM documents
            ), f AS (
              SELECT doc_id, token FROM tok WHERE token <> ''
            ), per AS (
              SELECT token, doc_id, CAST(count(*) AS BIGINT) AS tf
              FROM f GROUP BY token, doc_id
            )
            SELECT token, CAST(count(*) AS BIGINT) AS df,
                   CAST(sum(tf) AS BIGINT) AS total_tf,
                   string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
            FROM per GROUP BY token HAVING count(*) >= 2 ORDER BY token
        """,
        # clean_corpus: the fused cleaning recipe replayed — same
        # tokenization, same distinct-marker lang CASE as lang_id, same
        # md5 keep-first; gates: n_tokens >= 5, max token length <= 30,
        # lang = 'en'
        "clean_corpus": f"""
            WITH t AS (
              SELECT doc_id, text,
                     string_split(lower(text), ' ') AS rawtoks,
                     list_distinct(string_split(lower(text), ' ')) AS toks
              FROM documents
            ), q AS (
              SELECT doc_id, text,
                     CAST(len(rawtoks) AS BIGINT) AS n_tokens,
                     list_max(list_transform(rawtoks, x -> length(x))) AS max_tok,
            {{lang_cols}}
              FROM t
            ), l AS (
              SELECT doc_id, text, n_tokens,
                   CASE WHEN greatest(n_de, n_en, n_es, n_fr) = 0 THEN 'und'
                        WHEN n_de >= n_en AND n_de >= n_es AND n_de >= n_fr THEN 'de'
                        WHEN n_en >= n_es AND n_en >= n_fr THEN 'en'
                        WHEN n_es >= n_fr THEN 'es'
                        ELSE 'fr' END AS lang_pred
              FROM q WHERE n_tokens >= 5 AND max_tok <= 30
            ), s AS (
              SELECT * FROM l WHERE lang_pred = 'en'
            ), k AS (
              SELECT min(doc_id) AS doc_id FROM s GROUP BY md5(text)
            )
            SELECT s.doc_id, s.n_tokens, s.lang_pred
            FROM s JOIN k USING (doc_id) ORDER BY s.doc_id
        """.format(lang_cols=lang_cols),
        # heavy_hitters: exact phi=1/2000 frequent terms — same
        # tokenization as every text oracle; strict integer threshold
        # count*2000 > n replays the engine's two-scan exact result
        "heavy_hitters": """
            WITH tok AS (
              SELECT t AS token FROM (
                SELECT unnest(string_split(lower(text), ' ')) AS t
                FROM documents)
              WHERE t <> ''
            ), tot AS (SELECT count(*) AS n FROM tok)
            SELECT token, CAST(count(*) AS BIGINT) AS cnt
            FROM tok GROUP BY token
            HAVING count(*) * 2000 > (SELECT n FROM tot)
            ORDER BY cnt DESC, token ASC
        """,
        # distinct_by_day: exact grouped count-distinct replay
        "distinct_by_day": """
            SELECT strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                   CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY day ORDER BY day
        """,
        # cust_no_orders: anti-join replay (o_custkey is non-null, so
        # NOT IN is safe); > 400000 pushed inside the subquery
        "cust_no_orders": """
            SELECT c_custkey, c_mktsegment FROM customer
            WHERE c_custkey NOT IN (
              SELECT o_custkey FROM orders WHERE o_totalprice > 400000.0)
            ORDER BY c_custkey
        """,
        # moving_avg: trailing 7-ROW window over per-(user, day) cents
        # totals; identical double expression floor(1000*s/c + 0.5)
        "moving_avg": """
            WITH d AS (
              SELECT user_id,
                     strftime(date_trunc('day', ts), '%Y-%m-%d') AS day,
                     CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
                       AS cents
              FROM events GROUP BY user_id, day
            ), w AS (
              SELECT user_id, day, cents,
                sum(cents) OVER (PARTITION BY user_id ORDER BY day
                  ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS s,
                count(*) OVER (PARTITION BY user_id ORDER BY day
                  ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS c
              FROM d
            )
            SELECT user_id, day, cents,
                   CAST(floor(1000.0 * s / c + 0.5) AS BIGINT)
                     AS avg_cents_milli
            FROM w ORDER BY user_id, day
        """,
        # price_quantiles: percentile_disc via explicit cumulative-count
        # window (rank target = exact integer ceil(q*n/100) on both sides)
        "price_quantiles": """
            WITH j AS (
              SELECT coalesce(c.c_mktsegment, 'UNKNOWN') AS segment,
                     CAST(round(o.o_totalprice * 100) AS BIGINT) AS cents
              FROM orders o LEFT JOIN customer c ON o.o_custkey = c.c_custkey
            ), h AS (
              SELECT segment, cents, count(*) AS c FROM j
              GROUP BY segment, cents
            ), t AS (
              SELECT segment, sum(c) AS n FROM h GROUP BY segment
            ), cum AS (
              SELECT h.segment, h.cents,
                sum(h.c) OVER (PARTITION BY h.segment ORDER BY h.cents)
                  AS cum,
                t.n
              FROM h JOIN t USING (segment)
            )
            SELECT segment, CAST(max(n) AS BIGINT) AS n_orders,
              CAST(min(CASE WHEN cum >= (50 * n + 99) // 100 THEN cents END)
                AS BIGINT) AS p50_cents,
              CAST(min(CASE WHEN cum >= (90 * n + 99) // 100 THEN cents END)
                AS BIGINT) AS p90_cents
            FROM cum GROUP BY segment ORDER BY segment
        """,
        # top_per_cust: per-group top-k window replay
        "top_per_cust": """
            WITH rk AS (
              SELECT o_orderkey, o_custkey, o_totalprice,
                row_number() OVER (
                  PARTITION BY o_custkey
                  ORDER BY o_totalprice DESC, o_orderkey ASC) AS rank
              FROM orders
            )
            SELECT o_orderkey, o_custkey, o_totalprice,
                   CAST(rank AS BIGINT) AS rank
            FROM rk WHERE rank <= 3 ORDER BY o_custkey, rank
        """,
        # repetition: Gopher-style within-doc repetition replay — per doc,
        # dup fraction = (total - distinct)/total and top fraction =
        # max_count/total over token 2- and 3-grams, milli-integers, zeros
        # for docs with < n tokens (raw split on ' ', empties kept,
        # matching decontam.ngram_strings)
        "repetition": """
            WITH tok AS (
              SELECT doc_id, string_split(text, ' ') AS toks FROM documents
            ), g2 AS (
              SELECT doc_id, unnest(
                CASE WHEN len(toks) < 2 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(0, len(toks) - 1),
                          i -> array_to_string(toks[(i+1)::INT:(i+2)::INT], ' '))
                END) AS g
              FROM tok
            ), c2 AS (
              SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY doc_id, g
            ), a2 AS (
              SELECT doc_id, sum(c) AS total, count(*) AS dst, max(c) AS top
              FROM c2 GROUP BY doc_id
            ), g3 AS (
              SELECT doc_id, unnest(
                CASE WHEN len(toks) < 3 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(0, len(toks) - 2),
                          i -> array_to_string(toks[(i+1)::INT:(i+3)::INT], ' '))
                END) AS g
              FROM tok
            ), c3 AS (
              SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY doc_id, g
            ), a3 AS (
              SELECT doc_id, sum(c) AS total, count(*) AS dst, max(c) AS top
              FROM c3 GROUP BY doc_id
            )
            SELECT d.doc_id,
              CAST(coalesce(a2.total, 0) AS BIGINT) AS n_2grams,
              CAST(CASE WHEN coalesce(a2.total, 0) = 0 THEN 0
                ELSE floor(1000.0 * (a2.total - a2.dst) / a2.total + 0.5) END AS BIGINT) AS dup2_milli,
              CAST(CASE WHEN coalesce(a2.total, 0) = 0 THEN 0
                ELSE floor(1000.0 * a2.top / a2.total + 0.5) END AS BIGINT) AS top2_milli,
              CAST(coalesce(a3.total, 0) AS BIGINT) AS n_3grams,
              CAST(CASE WHEN coalesce(a3.total, 0) = 0 THEN 0
                ELSE floor(1000.0 * (a3.total - a3.dst) / a3.total + 0.5) END AS BIGINT) AS dup3_milli,
              CAST(CASE WHEN coalesce(a3.total, 0) = 0 THEN 0
                ELSE floor(1000.0 * a3.top / a3.total + 0.5) END AS BIGINT) AS top3_milli
            FROM documents d
            LEFT JOIN a2 ON d.doc_id = a2.doc_id
            LEFT JOIN a3 ON d.doc_id = a3.doc_id
            ORDER BY d.doc_id
        """,
        # boilerplate: exact corpus-wide document frequency of each doc's
        # distinct 3-shingles, common = df >= 3; every doc present with
        # zeros when it has no shingles
        "boilerplate": """
            WITH tok AS (
              SELECT doc_id, string_split(text, ' ') AS toks FROM documents
            ), sh AS (
              SELECT DISTINCT doc_id, unnest(
                CASE WHEN len(toks) < 3 THEN CAST([] AS VARCHAR[])
                     ELSE list_transform(range(0, len(toks) - 2),
                          i -> array_to_string(toks[(i+1)::INT:(i+3)::INT], ' '))
                END) AS g
              FROM tok
            ), df AS (
              SELECT g, count(*) AS df FROM sh GROUP BY g
            ), per AS (
              SELECT s.doc_id, count(*) AS n_sh,
                     sum(CASE WHEN f.df >= 3 THEN 1 ELSE 0 END) AS n_c
              FROM sh s JOIN df f ON s.g = f.g GROUP BY s.doc_id
            )
            SELECT d.doc_id,
              CAST(coalesce(p.n_sh, 0) AS BIGINT) AS n_shingles,
              CAST(coalesce(p.n_c, 0) AS BIGINT) AS n_common,
              CAST(CASE WHEN coalesce(p.n_sh, 0) = 0 THEN 0
                ELSE floor(1000.0 * p.n_c / p.n_sh + 0.5) END AS BIGINT) AS common_milli
            FROM documents d LEFT JOIN per p ON d.doc_id = p.doc_id
            ORDER BY d.doc_id
        """,
        # dedup_keep_one: anti-join of the corpus against the non-canonical
        # members of each recursive-CTE duplicate cluster (shares
        # _NGRAM_CTES with ngram_jaccard / dup_clusters)
        "dedup_keep_one": f"""
            WITH RECURSIVE {_NGRAM_CTES},
            prs AS (
              SELECT doc_a, doc_b FROM jac WHERE sim >= 0.8
            ), edges AS (
              SELECT doc_a AS a, doc_b AS b FROM prs
              UNION
              SELECT doc_b AS a, doc_a AS b FROM prs
            ), reach(node, root) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
            ), comp AS (
              SELECT node AS doc_id, MIN(root) AS canonical_id FROM reach GROUP BY node
            )
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM comp WHERE doc_id <> canonical_id)
            ORDER BY d.doc_id
        """,
        # lm_perplexity: full SQL replay of the self-trained bigram LM —
        # vocab truncation (count >= 5 else <unk>), mapped unigram/bigram
        # counts, add-one NLL = ln(cu(w1)+V) - ln(cb+1), per-doc mean in
        # milli-units (integer columns are drift-free; the milli rounding
        # sits ~9 orders above float64 sum-order error)
        "lm_perplexity": """
            WITH tok AS (
              SELECT doc_id, list_filter(string_split(lower(text), ' '), t -> t <> '') AS toks
              FROM documents
            ), raw AS (
              SELECT doc_id, unnest(toks) AS t, generate_subscripts(toks, 1) AS ord FROM tok
            ), uni_raw AS (
              SELECT t AS tok, CAST(count(*) AS BIGINT) AS cnt FROM raw GROUP BY t
            ), vocab AS (
              SELECT tok FROM uni_raw WHERE cnt >= 5
            ), vsz AS (
              SELECT count(*) + 1 AS v FROM vocab
            ), seq AS (
              SELECT r.doc_id, r.ord,
                     CASE WHEN v.tok IS NULL THEN '<unk>' ELSE r.t END AS t,
                     CASE WHEN v.tok IS NULL THEN 1 ELSE 0 END AS unk
              FROM raw r LEFT JOIN vocab v ON r.t = v.tok
            ), uni_m AS (
              SELECT t, CAST(count(*) AS BIGINT) AS cnt FROM seq GROUP BY t
            ), big AS (
              SELECT s1.doc_id, s1.t AS w1, s2.t AS w2
              FROM seq s1 JOIN seq s2 ON s1.doc_id = s2.doc_id AND s2.ord = s1.ord + 1
            ), big_cnt AS (
              SELECT w1, w2, CAST(count(*) AS BIGINT) AS cnt FROM big GROUP BY w1, w2
            ), scored AS (
              SELECT b.doc_id, ln(u.cnt + (SELECT v FROM vsz)) - ln(bc.cnt + 1) AS nll
              FROM big b
              JOIN uni_m u ON b.w1 = u.t
              JOIN big_cnt bc ON b.w1 = bc.w1 AND b.w2 = bc.w2
            ), perdoc AS (
              SELECT doc_id, CAST(count(*) AS BIGINT) AS n_bigrams, sum(nll) AS tot
              FROM scored GROUP BY doc_id
            ), base AS (
              SELECT t.doc_id, CAST(len(toks) AS BIGINT) AS n_tokens,
                     CAST(coalesce(s.unks, 0) AS BIGINT) AS n_unk
              FROM tok t LEFT JOIN (SELECT doc_id, sum(unk) AS unks FROM seq GROUP BY doc_id) s
                ON t.doc_id = s.doc_id
            )
            SELECT b.doc_id, b.n_tokens, b.n_unk,
                   CAST(coalesce(p.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(CASE WHEN p.n_bigrams > 0
                             THEN floor(1000.0 * p.tot / p.n_bigrams + 0.5)
                             ELSE 0 END AS BIGINT) AS nll_milli
            FROM base b LEFT JOIN perdoc p ON b.doc_id = p.doc_id
            ORDER BY b.doc_id
        """,
        # dup_clusters: connected components over the >= 0.8 ngram-Jaccard
        # pair graph — canonical_id = component-min doc_id, exact semantics
        # via a recursive CTE (min-root reachability), sharing _NGRAM_CTES
        # with the ngram_jaccard entry
        "dup_clusters": f"""
            WITH RECURSIVE {_NGRAM_CTES},
            prs AS (
              SELECT doc_a, doc_b FROM jac WHERE sim >= 0.8
            ), edges AS (
              SELECT doc_a AS a, doc_b AS b FROM prs
              UNION
              SELECT doc_b AS a, doc_a AS b FROM prs
            ), reach(node, root) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
            ), comp AS (
              SELECT node AS doc_id, MIN(root) AS canonical_id FROM reach GROUP BY node
            )
            SELECT doc_id, canonical_id,
                   CAST(count(*) OVER (PARTITION BY canonical_id) AS BIGINT) AS cluster_size
            FROM comp ORDER BY doc_id
        """,
        # split_leakage: same component CTE, then every doc (singletons
        # = self-canonical) bucketed by md5('split:'||canonical) % 100
        "split_leakage": f"""
            WITH RECURSIVE {_NGRAM_CTES},
            prs AS (
              SELECT doc_a, doc_b FROM jac WHERE sim >= 0.8
            ), edges AS (
              SELECT doc_a AS a, doc_b AS b FROM prs
              UNION
              SELECT doc_b AS a, doc_a AS b FROM prs
            ), reach(node, root) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
            ), comp AS (
              SELECT node AS doc_id, MIN(root) AS canonical_id FROM reach GROUP BY node
            ), allc AS (
              SELECT d.doc_id, COALESCE(c.canonical_id, d.doc_id) AS canonical_id
              FROM documents d LEFT JOIN comp c ON c.doc_id = d.doc_id
            )
            SELECT doc_id, canonical_id,
                   CASE WHEN b < 10 THEN 'test'
                        WHEN b < 20 THEN 'valid'
                        ELSE 'train' END AS split
            FROM (
              SELECT doc_id, canonical_id,
                     CAST(('0x' || substr(md5('split:' || CAST(canonical_id AS VARCHAR)), 1, 8))
                          AS UBIGINT) % 100 AS b
              FROM allc
            ) ORDER BY doc_id
        """,
        "dedup_embed": f"""
            WITH planes AS (
              SELECT b, j, d,
                     {_md5u64("'edplane:' || CAST(b AS VARCHAR) || ':' || CAST(j AS VARCHAR) || ':' || CAST(d AS VARCHAR)")}
                       / 9223372036854775808.0 - 1.0 AS v
              FROM (SELECT unnest(range(16)) AS b),
                   (SELECT unnest(range(4)) AS j),
                   (SELECT unnest(range(64)) AS d)
            ), emb AS (
              SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
              FROM embeddings WHERE vec_id < 500
            ), proj AS (
              SELECT emb.vec_id, p.b, p.j, sum(emb.e[p.d + 1] * p.v) AS dot
              FROM emb CROSS JOIN planes p GROUP BY emb.vec_id, p.b, p.j
            ), bkt AS (
              SELECT vec_id, b AS band,
                     CAST(sum(CASE WHEN dot > 0 THEN CAST(1 AS UINTEGER) << j
                                   ELSE 0 END) AS UINTEGER) AS bucket
              FROM proj GROUP BY vec_id, b
            ), cand AS (
              SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
              FROM bkt a JOIN bkt b
                ON a.band = b.band AND a.bucket = b.bucket AND a.vec_id < b.vec_id
            ), sims AS (
              SELECT c.vec_a, c.vec_b, list_cosine_similarity(ea.e, eb.e) AS sim
              FROM cand c
              JOIN emb ea ON c.vec_a = ea.vec_id
              JOIN emb eb ON c.vec_b = eb.vec_id
            )
            SELECT vec_a, vec_b,
                   CAST(floor(sim * 1000000 + 0.5) AS BIGINT) AS cos_micro
            FROM sims WHERE sim >= 0.4
            ORDER BY vec_a, vec_b
        """,
        # pagerank: the engine's integer-PageRank recurrence unrolled in
        # SQL over the ORACLE's adjacency (full independence: the engine
        # ranks its own pipeline's adjacency, the SQL ranks the
        # single-process oracle's) — integer // everywhere, bit-exact
        "pagerank": _pagerank_sql(kg_paths["kg_adjacency"], iters=5),
        "hits_scores": _hits_sql(kg_paths["kg_adjacency"], iters=3),
        # greedy_coverage: unrolled greedy max-coverage rounds, covered
        # set threaded as a UNION chain, integer gains
        "greedy_coverage": _greedy_cov_sql(k=8),
        # trim_core: unrolled source/sink peel with the engine's early
        # exit replayed by a min-round cut
        "trim_core": _trim_core_sql(kg_paths["kg_adjacency"], cap=32),
        # kg_diameter: double-sweep BFS unroll with lexicographic
        # farthest-node tie-breaks
        "kg_diameter": _diameter_sql(kg_paths["kg_adjacency"], hops=12),
        "pagerank_personal": _pagerank_sql(kg_paths["kg_adjacency"], iters=5, seed_pct=5),
        # kcore: the synchronized peel unrolled to a fixed depth (no-op
        # rounds past the fixpoint make the fixed unroll exact)
        "kcore": _kcore_sql(kg_paths["kg_adjacency"], k=2, rounds=8),
        # bfs_hops: monotone min relaxation unrolled to the engine's fixed
        # hop count; label_prop: exactly-3-round synchronous LPA replay;
        # random_walks: the md5-mod neighbor draw joined per step
        "bfs_hops": _bfs_sql(kg_paths["kg_adjacency"], seed_pct=5, hops=6),
        "harmonic": _harmonic_sql(kg_paths["kg_adjacency"], seed_pct=5, hops=4),
        "ktruss": _ktruss_sql(kg_paths["kg_adjacency"], k=3, rounds=3),
        # power_law: degree_hist CTEs + per-term nano-rounded ln + the
        # identical integer final form in HUGEINT
        "power_law": f"""
            WITH e AS (
              SELECT DISTINCT least(src_id, dst_id) AS a,
                              greatest(src_id, dst_id) AS b
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id),
            d AS (
              SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
              (SELECT a AS node FROM e UNION ALL SELECT b FROM e) GROUP BY node),
            h AS (
              SELECT deg, CAST(count(*) AS BIGINT) AS n_nodes
              FROM d GROUP BY deg),
            s AS (
              SELECT CAST(sum(n_nodes) AS BIGINT) AS n,
                     CAST(max(deg) AS BIGINT) AS max_deg,
                     CAST(sum(CAST(n_nodes AS HUGEINT)
                          * CAST(floor(ln(2.0 * deg) * 1000000000.0 + 0.5) AS HUGEINT))
                          AS HUGEINT) AS s_nano
              FROM h WHERE deg >= 1)
            SELECT n AS n_nodes, max_deg,
                   CASE WHEN s_nano > 0 THEN
                     CAST(1000000000 + (2 * CAST(n AS HUGEINT) * 1000000000000000000
                          + s_nano) // (2 * s_nano) AS BIGINT)
                   ELSE CAST(0 AS BIGINT) END AS alpha_nano
            FROM s
        """,
        "sssp_hops": _sssp_sql(kg_paths["kg_adjacency"], seed_pct=5, rounds=6),
        # kg_incremental: merge(adj(docs_A), adj(docs_B)) over a doc-
        # disjoint split must equal the single full-run adjacency — the
        # oracle IS the full-corpus oracle adjacency
        "kg_incremental": f"""
            SELECT * FROM read_parquet('{kg_paths["kg_adjacency"]}')
            ORDER BY src_id, pred, dst_id
        """,
        "label_prop": _label_prop_sql(kg_paths["kg_adjacency"], rounds=3),
        "modularity": _modularity_sql(kg_paths["kg_adjacency"], rounds=3),
        # reciprocity: distinct directed edges vs pairs present both ways
        "reciprocity": f"""
            WITH de AS (
              SELECT DISTINCT src_id, dst_id
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id),
            s AS (
              SELECT CAST(count(*) AS BIGINT) AS d,
                     CAST(sum(CASE WHEN EXISTS (
                       SELECT 1 FROM de r
                       WHERE r.src_id = de.dst_id AND r.dst_id = de.src_id)
                       THEN 1 ELSE 0 END) AS BIGINT) AS r
              FROM de)
            SELECT d AS n_directed, r AS n_reciprocated,
                   CAST(CASE WHEN d > 0 THEN (2000 * r + d) // (2 * d)
                        ELSE 0 END AS BIGINT) AS reciprocity_milli
            FROM s
        """,
        # clustering_coef: per-node Σ incident-edge common-neighbor counts
        # (= 2·triangles) over the same edge/deg/cn CTEs as edge_jaccard;
        # integer-milli (2000·cn + d) // (2d) exactly as the engine
        "clustering_coef": f"""
            WITH e AS (
              SELECT DISTINCT least(src_id, dst_id) AS a,
                              greatest(src_id, dst_id) AS b
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id),
            nb AS (
              SELECT a AS node, b AS nbr FROM e
              UNION ALL SELECT b AS node, a AS nbr FROM e),
            deg AS (
              SELECT node, CAST(count(*) AS BIGINT) AS deg FROM nb GROUP BY node),
            cn AS (
              SELECT x.node AS a, y.node AS b, CAST(count(*) AS BIGINT) AS n_common
              FROM nb x
              JOIN nb y ON y.nbr = x.nbr AND x.node < y.node
              JOIN e   ON e.a = x.node AND e.b = y.node
              GROUP BY x.node, y.node),
            pern AS (
              SELECT node, CAST(sum(c) AS BIGINT) AS cn2 FROM (
                SELECT e.a AS node, COALESCE(cn.n_common, 0) AS c
                FROM e LEFT JOIN cn ON cn.a = e.a AND cn.b = e.b
                UNION ALL
                SELECT e.b AS node, COALESCE(cn.n_common, 0) AS c
                FROM e LEFT JOIN cn ON cn.a = e.a AND cn.b = e.b
              ) GROUP BY node)
            SELECT d.node, d.deg,
                   CAST(p.cn2 // 2 AS BIGINT) AS n_tri,
                   CAST(CASE WHEN d.deg > 1
                     THEN (2000 * p.cn2 + d.deg * (d.deg - 1))
                          // (2 * d.deg * (d.deg - 1))
                     ELSE 0 END AS BIGINT) AS coef_milli
            FROM deg d JOIN pern p ON p.node = d.node
            ORDER BY d.node
        """,
        # assortativity: degrees over the deduped undirected edge set of
        # the ORACLE adjacency, both orientations of each edge, HUGEINT
        # sufficient stats, the corr_price_qty IEEE final form verbatim
        "assortativity": f"""
            WITH e AS (
              SELECT DISTINCT least(src_id, dst_id) AS a,
                              greatest(src_id, dst_id) AS b
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id),
            nb AS (
              SELECT a AS node, b AS nbr FROM e
              UNION ALL SELECT b AS node, a AS nbr FROM e),
            deg AS (
              SELECT node, CAST(count(*) AS BIGINT) AS deg FROM nb GROUP BY node),
            de AS (
              SELECT da.deg AS x, db.deg AS y
              FROM e JOIN deg da ON da.node = e.a JOIN deg db ON db.node = e.b),
            s AS (
              SELECT CAST(2 * count(*) AS BIGINT) AS n,
                     CAST(coalesce(sum(x + y), 0) AS BIGINT) AS sx,
                     coalesce(sum(CAST(x AS HUGEINT) * x + CAST(y AS HUGEINT) * y),
                              CAST(0 AS HUGEINT)) AS sxx,
                     coalesce(sum(2 * CAST(x AS HUGEINT) * y),
                              CAST(0 AS HUGEINT)) AS sxy
              FROM de
            ), f AS (
              SELECT n,
                     CAST(n AS HUGEINT) * sxy
                       - CAST(sx AS HUGEINT) * CAST(sx AS HUGEINT) AS num,
                     CAST(n AS HUGEINT) * sxx
                       - CAST(sx AS HUGEINT) * CAST(sx AS HUGEINT) AS a2
              FROM s
            )
            SELECT CAST(n / 2 AS BIGINT) AS n_edges,
                   (SELECT CAST(count(*) AS BIGINT) FROM deg) AS n_nodes,
                   CASE WHEN a2 > 0 THEN
                     CAST(floor(CAST(num AS DOUBLE)
                           / (sqrt(CAST(a2 AS DOUBLE)) * sqrt(CAST(a2 AS DOUBLE)))
                           * 1000000000.0 + 0.5) AS BIGINT)
                   ELSE CAST(0 AS BIGINT) END AS r_nano
            FROM f
        """,
        "random_walks": _walks_sql(kg_paths["kg_adjacency"], walk_len=4),
        # walk_pairs: self-join over the identical walk replay;
        # kg_embeddings: parquet-materialized single-process DeepWalk
        # replay (plain-python walks/pairs + the driver SGNS kernel —
        # the supervised_eval oracle precedent)
        "walk_pairs": _walk_pairs_sql(kg_paths["kg_adjacency"], walk_len=4, window=2),
        "fanout_sample": _fanout_sql(kg_paths["kg_adjacency"], seed_pct=5, fanouts=(3, 2)),
        "kg_embeddings": f"""
            SELECT * FROM read_parquet('{kg_paths["kg_embeddings"]}') ORDER BY node
        """,
        "triple_provenance": f"""
            SELECT subj, pred, obj,
                   CAST(count(*) AS BIGINT) AS n_mentions,
                   CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
                   min(doc_id) AS min_doc,
                   max(doc_id) AS max_doc
            FROM read_parquet('{kg_paths["kg_triples"]}')
            GROUP BY subj, pred, obj ORDER BY subj, pred, obj
        """,
        "kg_components": f"""
            WITH RECURSIVE prk AS (
              SELECT DISTINCT least(src_id, dst_id) AS pa,
                              greatest(src_id, dst_id) AS pb
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id
            ), edges AS (
              SELECT pa AS a, pb AS b FROM prk UNION SELECT pb, pa FROM prk
            ), reach(node, root) AS (
              SELECT a, a FROM edges
              UNION
              SELECT e.b, r.root FROM reach r JOIN edges e ON e.a = r.node
            ), comp AS (
              SELECT node, MIN(root) AS canonical_id FROM reach GROUP BY node
            ), sz AS (
              SELECT canonical_id, CAST(count(*) AS BIGINT) AS size
              FROM comp GROUP BY canonical_id
            )
            SELECT size, CAST(count(*) AS BIGINT) AS n_components
            FROM sz GROUP BY size ORDER BY size
        """,
        "pred_cardinality": f"""
            SELECT pred,
                   CAST(count(*) AS BIGINT) AS n_edges,
                   CAST(count(DISTINCT src_id) AS BIGINT) AS n_src,
                   CAST(count(DISTINCT dst_id) AS BIGINT) AS n_dst,
                   CAST((2000 * count(DISTINCT src_id) + count(*))
                        // (2 * count(*)) AS BIGINT) AS func_milli,
                   CAST((2000 * count(DISTINCT dst_id) + count(*))
                        // (2 * count(*)) AS BIGINT) AS inv_func_milli
            FROM read_parquet('{kg_paths["kg_adjacency"]}')
            GROUP BY pred ORDER BY pred
        """,
        "pred_bigrams": f"""
            SELECT e1.pred AS p1, e2.pred AS p2, CAST(count(*) AS BIGINT) AS n_paths
            FROM read_parquet('{kg_paths["kg_adjacency"]}') e1
            JOIN read_parquet('{kg_paths["kg_adjacency"]}') e2
              ON e2.src_id = e1.dst_id
            GROUP BY e1.pred, e2.pred ORDER BY p1, p2
        """,
        "degree_hist": f"""
            WITH e AS (
              SELECT DISTINCT least(src_id, dst_id) AS a,
                              greatest(src_id, dst_id) AS b
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id),
            d AS (
              SELECT node, CAST(count(*) AS BIGINT) AS deg FROM
              (SELECT a AS node FROM e UNION ALL SELECT b FROM e) GROUP BY node)
            SELECT deg, CAST(count(*) AS BIGINT) AS n_nodes
            FROM d GROUP BY deg ORDER BY deg
        """,
        # triangles: textbook 3-way self-join on the deduped undirected
        # edge set of the ORACLE adjacency (a<b<c once each)
        "triangles": f"""
            WITH e AS (
              SELECT DISTINCT least(src_id, dst_id) AS a,
                              greatest(src_id, dst_id) AS b
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id)
            SELECT CAST(count(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.a = e1.b
            JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
        """,
        # edge_jaccard: per-edge common-neighbor count and Jaccard link
        # score on the deduped undirected edge set of the ORACLE adjacency
        # (LEFT join keeps triangle-free edges at n_common = 0); same
        # integer micro-unit rounding as the engine
        "edge_jaccard": f"""
            WITH e AS (
              SELECT DISTINCT least(src_id, dst_id) AS a,
                              greatest(src_id, dst_id) AS b
              FROM read_parquet('{kg_paths["kg_adjacency"]}')
              WHERE src_id <> dst_id),
            nb AS (
              SELECT a AS node, b AS nbr FROM e
              UNION ALL SELECT b AS node, a AS nbr FROM e),
            deg AS (
              SELECT node, CAST(count(*) AS BIGINT) AS deg FROM nb GROUP BY node),
            cn AS (
              SELECT x.node AS a, y.node AS b, CAST(count(*) AS BIGINT) AS n_common
              FROM nb x
              JOIN nb y ON y.nbr = x.nbr AND x.node < y.node
              JOIN e   ON e.a = x.node AND e.b = y.node
              GROUP BY x.node, y.node)
            SELECT e.a AS node_a, e.b AS node_b,
                   da.deg AS deg_a, db.deg AS deg_b,
                   COALESCE(cn.n_common, 0) AS n_common,
                   CAST(floor(COALESCE(cn.n_common, 0) * 1000000.0
                        / (da.deg + db.deg - COALESCE(cn.n_common, 0)) + 0.5)
                        AS BIGINT) AS jacc_micro
            FROM e
            JOIN deg da ON da.node = e.a
            JOIN deg db ON db.node = e.b
            LEFT JOIN cn ON cn.a = e.a AND cn.b = e.b
            ORDER BY node_a, node_b
        """,
        # --- KG family: pure-Python single-process oracle via parquet ---
        "kg_triples": f"""
            SELECT * FROM read_parquet('{kg_paths["kg_triples"]}')
            ORDER BY doc_id, sent_id, subj, pred, obj, score, span_hash
        """,
        "kg_adjacency": f"""
            SELECT * FROM read_parquet('{kg_paths["kg_adjacency"]}')
            ORDER BY src_id, pred, dst_id
        """,
        "kg_linked": f"""
            SELECT * FROM read_parquet('{kg_paths["kg_linked"]}')
            ORDER BY doc_id, sent_id, subj, pred, obj, score, span_hash
        """,
        "media_features": f"""
            SELECT * FROM read_parquet('{kg_paths["media_features"]}')
            ORDER BY doc_id, span_idx, frame_idx
        """,
        # media_phash / media_dup_pairs / media_keep_one: python-replay
        # parquet oracles — per-bit-loop dHash/aHash recomputation, a
        # brute-force O(n²) Hamming scan (completeness check for the
        # engine's pigeonhole bucketing) and union-find keep-one
        "media_phash": f"""
            SELECT * FROM read_parquet('{kg_paths["media_phash"]}') ORDER BY uid
        """,
        "media_dup_pairs": f"""
            SELECT * FROM read_parquet('{kg_paths["media_dup_pairs"]}')
            ORDER BY doc_a, doc_b
        """,
        "media_keep_one": f"""
            SELECT * FROM read_parquet('{kg_paths["media_keep_one"]}') ORDER BY uid
        """,
        "supervised_eval": f"""
            SELECT * FROM read_parquet('{kg_paths["supervised_eval"]}')
        """,
        "supervised_eval_large": f"""
            SELECT * FROM read_parquet('{kg_paths["supervised_eval_large"]}')
        """,
        "semeval_official": f"""
            SELECT * FROM read_parquet('{kg_paths["semeval_official"]}')
        """,
        "semeval_single_official": f"""
            SELECT * FROM read_parquet('{kg_paths["semeval_single_official"]}')
        """,
        "semeval_bi_official": f"""
            SELECT * FROM read_parquet('{kg_paths["semeval_bi_official"]}')
        """,
        "semeval_ensemble_official": f"""
            SELECT * FROM read_parquet('{kg_paths["semeval_ensemble_official"]}')
        """,
    }
