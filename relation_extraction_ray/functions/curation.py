"""Corpus curation for LLM training data: temperature-balanced source
mixing and token-budget selection.

Both operators answer the two questions every pretraining data pipeline
asks right before writing shards: *in what proportions do the sources
enter the mix?* (``mixture_sample`` — the multinomial temperature rule of
multilingual/multi-domain training, p_s ∝ n_s^τ) and *which documents fit
the token budget?* (``budget_select`` — quality-ranked greedy fill).
Everything is integer / md5-deterministic, so both are value-exact
replayable in SQL at any parallelism.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .joins import cogroup, derive_n_parts, fits_local, hash_partitioned_groups


def _md5_u64_col(ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 per id: first 16 md5 hex chars — the cross-engine-portable
    uniform key (SQL: ``CAST(('0x'||substr(md5(id),1,16)) AS UBIGINT)``).
    One digest per row; the portable-hash price every md5-keyed oracle
    pays (see functions/joins.py hash_columns for the fast internal
    alternative when no SQL replay is needed)."""
    return np.fromiter(
        (
            int(hashlib.md5(str(s).encode()).hexdigest()[:16], 16)
            for s in ids.to_pylist()
        ),
        dtype=np.uint64,
        count=len(ids),
    )


def mixture_sample(
    docs: ray.data.Dataset,
    source_col: str = "source",
    key_col: str = "doc_id",
    total: int = 1000,
) -> ray.data.Dataset:
    """Temperature-balanced source mixture (τ = 1/2): sample ~``total``
    documents with per-source quotas ∝ √n_s — the standard temperature
    upsampling of low-resource sources (multilingual LM recipe, e.g.
    mBERT/XLM exponent-smoothed sampling) made exact and deterministic:

        quota_s = min(n_s, total · isqrt(n_s) // Σ_t isqrt(n_t))

    and each source keeps its quota_s documents with the SMALLEST
    (md5_u64(key), key) — a uniform, reproducible within-source draw.

    Scale shape: one combine-fed groupby for the per-source counts
    (output = |sources| rows); quotas are a tiny driver dict (broadcast
    by closure); selection is the bounded-heap per-group top-k — every
    batch locally prunes each source to its quota before the exchange,
    so a 10¹⁰-row source ships ≤ quota rows per batch, and one keyed
    exchange finishes with a vectorized segmented rank.  isqrt equals
    SQL ``floor(sqrt(n))`` exactly for n < 2⁵¹ (correctly-rounded double
    sqrt can't cross an integer below that), so the SQL replay is exact."""
    from ray.data.aggregate import Sum

    def count_partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch.column(source_col).combine_chunks())
        return pa.table(
            {"source": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    counts = (
        docs.select_columns([source_col])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )
    roots = {r["source"]: math.isqrt(r["n"]) for r in counts}
    tot_root = sum(roots.values())
    quota = {
        r["source"]: min(r["n"], total * roots[r["source"]] // tot_root)
        for r in counts
    }
    max_q = max(quota.values()) if quota else 0

    def local_prune(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.string()), ("source", pa.string()), ("h", pa.uint64())]
            ).empty_table()
        h = _md5_u64_col(batch.column(key_col))
        t = pa.table(
            {
                "doc_id": batch.column(key_col),
                "source": batch.column(source_col),
                "h": pa.array(h, pa.uint64()),
            }
        )
        s = t.take(
            pc.sort_indices(
                t,
                sort_keys=[
                    ("source", "ascending"),
                    ("h", "ascending"),
                    ("doc_id", "ascending"),
                ],
            )
        )
        g = s.column("source").to_numpy(zero_copy_only=False)
        new_g = np.concatenate([[True], g[1:] != g[:-1]])
        starts = np.flatnonzero(new_g)
        rank = (
            np.arange(len(g), dtype=np.int64)
            - np.repeat(starts, np.diff(np.concatenate([starts, [len(g)]])))
            + 1
        )
        # bounded-heap combine: a row below its batch's max-quota-th rank
        # in its source can never make the global quota
        return s.filter(pa.array(rank <= max_q))

    def per_part(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.schema(
                [("doc_id", pa.string()), ("source", pa.string())]
            ).empty_table()
        s = part.take(
            pc.sort_indices(
                part,
                sort_keys=[
                    ("source", "ascending"),
                    ("h", "ascending"),
                    ("doc_id", "ascending"),
                ],
            )
        )
        g = s.column("source").to_numpy(zero_copy_only=False)
        new_g = np.concatenate([[True], g[1:] != g[:-1]])
        starts = np.flatnonzero(new_g)
        rank = (
            np.arange(len(g), dtype=np.int64)
            - np.repeat(starts, np.diff(np.concatenate([starts, [len(g)]])))
            + 1
        )
        q = np.fromiter((quota.get(x, 0) for x in g), dtype=np.int64, count=len(g))
        return s.filter(pa.array(rank <= q)).select(["doc_id", "source"])

    pruned = docs.select_columns([key_col, source_col]).map_batches(
        local_prune, batch_format="pyarrow"
    )
    n_parts = derive_n_parts(len(quota), rows_per_part=64)
    return hash_partitioned_groups(pruned, ["source"], per_part, n_parts).sort(
        ["doc_id"]
    )


def budget_select(
    docs: ray.data.Dataset, budget_tokens: int, text_col: str = "text"
) -> ray.data.Dataset:
    """Token-budget corpus selection: greedily keep the highest-quality
    documents until the running token total would exceed
    ``budget_tokens`` — the curation step that turns "we can afford N
    tokens" into a document list.  Quality is the integer distinct-token
    ratio ``score = n_uniq · 1000 // n_tokens`` (milli-units, ≤ 1001
    distinct values); the global order is (score DESC, md5_u64(doc_id)
    ASC, doc_id ASC) and a document is kept iff the cumulative token sum
    up to and including it is ≤ the budget (window prefix rule —
    ``sum(...) OVER (ORDER BY ...) <= budget`` in the SQL replay).

    Scale shape — the cut point is found WITHOUT any global sort:
    (1) one scan derives (doc_id, h, score, n_tokens); (2) one
    combine-fed groupby(score) (≤ 1001 rows) lets the driver find the
    boundary score s* and the budget remainder; (3) within the s*
    stratum the exact cut hash h* is located by BYTE-RADIX refinement —
    eight ≤-256-bucket groupbys over (h >> shift) & 0xFF, each narrowing
    one byte, each shipping at most 256 counter rows (the distributed
    weighted-order-statistic search; h is md5-uniform so strata split
    evenly regardless of data skew); (4) one vectorized filter scan
    emits the selection.  No stage ever materializes, sorts, or
    prefix-sums the corpus; ties at the full 64-bit h* (whp a single
    doc) resolve driver-side by doc_id.  Output: (doc_id, score,
    n_tokens) of selected docs, doc_id-sorted."""
    from ray.data.aggregate import Count, Sum

    from .text import _split_lower

    def feats(batch: pa.Table) -> pa.Table:
        split = _split_lower(batch.column(text_col))
        lens = pc.list_value_length(split).to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(lens)
        flat = pc.list_flatten(split)
        row = np.repeat(np.arange(n, dtype=np.int64), lens)
        pairs = (
            pa.table({"r": pa.array(row), "t": flat}).group_by(["r", "t"]).aggregate([])
        )
        n_uniq = np.zeros(n, np.int64)
        np.add.at(n_uniq, pairs.column("r").to_numpy(zero_copy_only=False), 1)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "h": pa.array(_md5_u64_col(batch.column("doc_id")), pa.uint64()),
                "score": pa.array(n_uniq * 1000 // lens, pa.int64()),
                "n_tokens": pa.array(lens, pa.int64()),
            }
        )

    f = docs.select_columns(["doc_id", text_col]).map_batches(
        feats, batch_format="pyarrow"
    ).materialize()  # 4 scalar columns — the projection, never the corpus

    def tok_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["score"]).aggregate([("n_tokens", "sum")])
        return g.rename_columns(["score", "toks"])

    by_score = (
        f.map_batches(tok_partial, batch_format="pyarrow")
        .groupby("score")
        .aggregate(Sum("toks", alias_name="toks"))
        .take_all()
    )
    by_score.sort(key=lambda r: -r["score"])
    out_cols = ["doc_id", "score", "n_tokens"]

    cum = 0
    s_star = None
    b_rem = 0
    for r in by_score:
        if cum + r["toks"] > budget_tokens:
            s_star = r["score"]
            b_rem = budget_tokens - cum
            break
        cum += r["toks"]
    if s_star is None:  # whole corpus fits
        return f.select_columns(out_cols).sort("doc_id")

    # byte-radix search for the cut hash h* inside the boundary stratum
    stratum = f.filter(expr=f"score == {s_star}").materialize()
    prefix = np.uint64(0)
    bits_left = 64
    for b in range(8):
        shift = 8 * (7 - b)
        if b_rem <= 0:
            break

        def bucket_partial(batch: pa.Table, _shift=shift, _prefix=prefix, _b=b):
            h = batch.column("h").to_numpy(zero_copy_only=False)
            if _b > 0:
                keep = (h >> np.uint64(_shift + 8)) == _prefix
                h = h[keep]
                toks = batch.column("n_tokens").to_numpy(zero_copy_only=False)[keep]
            else:
                toks = batch.column("n_tokens").to_numpy(zero_copy_only=False)
            byte = ((h >> np.uint64(_shift)) & np.uint64(0xFF)).astype(np.int64)
            t = pa.table(
                {"byte": pa.array(byte), "toks": pa.array(toks.astype(np.int64))}
            )
            g = t.group_by(["byte"]).aggregate([("toks", "sum"), ([], "count_all")])
            return pa.table(
                {
                    "byte": g.column("byte"),
                    "toks": g.column("toks_sum"),
                    "n": g.column("count_all").cast(pa.int64()),
                }
            )

        buckets = (
            stratum.map_batches(bucket_partial, batch_format="pyarrow")
            .groupby("byte")
            .aggregate(Sum("toks", alias_name="toks"), Sum("n", alias_name="n"))
            .take_all()
        )
        buckets.sort(key=lambda r: r["byte"])
        boundary_byte = None
        for r in buckets:
            if b_rem - r["toks"] < 0:
                boundary_byte = r["byte"]
                break
            b_rem -= r["toks"]
        if boundary_byte is None:
            # impossible by the level invariant (the candidate set's token
            # total strictly exceeds b_rem at every level)
            raise RuntimeError("budget_select: radix invariant violated")
        prefix = (prefix << np.uint64(8)) | np.uint64(boundary_byte)
        bits_left -= 8

    if bits_left == 0 and b_rem > 0:
        # candidates with h == h* (whp one doc): driver tie-break by doc_id
        h_star = int(prefix)
        hs = pa.scalar(h_star, pa.uint64())
        ties = sorted(
            stratum.map_batches(
                lambda t: t.filter(pc.equal(t.column("h"), hs)),
                batch_format="pyarrow",
            ).take_all(),
            key=lambda r: r["doc_id"],
        )
        included_ids = []
        for r in ties:
            if b_rem - r["n_tokens"] < 0:
                break
            b_rem -= r["n_tokens"]
            included_ids.append(r["doc_id"])
        inc_set = set(included_ids)
    else:
        # ran out of budget mid-radix: everything strictly under the
        # partial prefix is in, nothing at or above it fits
        h_star = int(prefix) << bits_left
        inc_set = set()

    def final_filter(batch: pa.Table) -> pa.Table:
        sc = batch.column("score").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        at_star = sc == s_star
        keep = sc > s_star
        keep |= at_star & (h < np.uint64(h_star))
        if inc_set:
            keep |= at_star & (h == np.uint64(h_star)) & np.isin(ids, list(inc_set))
        return batch.filter(pa.array(keep)).select(out_cols)

    return f.map_batches(final_filter, batch_format="pyarrow").sort("doc_id")


def leakage_safe_split(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    key_col: str = "doc_id",
    pcts: tuple[int, int] = (10, 10),
    broadcast_bytes: int = 256 << 20,
) -> ray.data.Dataset:
    """Cluster-aware train/valid/test assignment — the leakage-safe
    split an LLM data pipeline runs after near-dup detection: every
    document is bucketed by the md5 of its dup-cluster CANONICAL id
    (component-min over ``pairs``; singletons are their own canonical),
    so near-duplicates can never straddle splits and contaminate
    held-out sets.  bucket = md5('split:'||canonical)[:8] % 100;
    bucket < pcts[0] → 'test', < pcts[0]+pcts[1] → 'valid', else
    'train'.  Output: (doc_id, canonical_id, split).

    Scale shape: the label table is O(|dup pairs|) ≪ corpus (components
    never emits singletons).  Below ``broadcast_bytes`` its two id
    columns ship ONCE via ``ray.put`` as Arrow arrays and the corpus
    takes a single shuffle-free scan, each batch attaching canonicals
    with one ``index_in`` probe (a miss is a singleton: its own id);
    above the bound the doc ids and the labels meet in ONE doc-id-keyed
    :func:`..joins.cogroup` and join reduce-side (same planner split as
    ``state/linker.py`` / ``verify_jaccard``) — bit-identical outputs,
    pytest-asserted."""
    from .components import connected_components

    lo, hi = int(pcts[0]), int(pcts[0]) + int(pcts[1])

    def assign(ids: np.ndarray, cids: np.ndarray) -> pa.Table:
        bucket = np.fromiter(
            (
                int(hashlib.md5(f"split:{c}".encode()).hexdigest()[:8], 16) % 100
                for c in cids
            ),
            dtype=np.int64,
            count=len(cids),
        )
        split = np.where(bucket < lo, "test", np.where(bucket < hi, "valid", "train"))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "canonical_id": pa.array(cids, pa.int64()),
                "split": pa.array(split, pa.string()),
            }
        )

    labels = connected_components(pairs).materialize()
    ids_only = docs.select_columns([key_col])
    lab_schema = pa.schema([("doc_id", pa.int64()), ("canonical_id", pa.int64())])

    if fits_local(labels, bound=broadcast_bytes):
        lab = pa.concat_tables(
            [lab_schema.empty_table()]
            + [
                b.select(lab_schema.names).cast(lab_schema)
                for b in labels.iter_batches(batch_format="pyarrow")
            ]
        )
        ref = ray.put(
            (lab.column("doc_id").combine_chunks(), lab.column("canonical_id").combine_chunks())
        )

        def attach(batch: pa.Table) -> pa.Table:
            lab_ids, lab_cids = ray.get(ref)
            ids = batch.column(key_col).cast(pa.int64())
            cids = pc.take(lab_cids, pc.index_in(ids, value_set=lab_ids))
            return assign(ids.to_numpy(), pc.coalesce(cids, ids).to_numpy())

        return ids_only.map_batches(attach, batch_format="pyarrow").sort("doc_id")

    # partitioned reduce-side join: one doc-id-keyed cogroup of the doc
    # ids with the labels (both int64, so equal ids co-partition)
    ids = ids_only.map_batches(
        lambda t: pa.table({"doc_id": t.column(key_col).cast(pa.int64())}),
        batch_format="pyarrow",
    )
    labs = labels.map_batches(
        lambda t: t.select(lab_schema.names).cast(lab_schema), batch_format="pyarrow"
    )

    def per_part(id_rows: pa.Table, lab_rows: pa.Table) -> pa.Table:
        d_ids = id_rows.column("doc_id").to_numpy()
        lab_ids = lab_rows.column("doc_id").to_numpy()
        lab_cids = lab_rows.column("canonical_id").to_numpy()
        order = np.argsort(lab_ids, kind="stable")
        lab_ids, lab_cids = lab_ids[order], lab_cids[order]
        if len(lab_ids) == 0:
            return assign(d_ids, d_ids)
        pos = np.searchsorted(lab_ids, d_ids)
        pos_c = np.clip(pos, 0, len(lab_ids) - 1)
        hit = (pos < len(lab_ids)) & (lab_ids[pos_c] == d_ids)
        cids = np.where(hit, lab_cids[pos_c], d_ids)
        return assign(d_ids, cids)

    n_parts = derive_n_parts(docs.count(), rows_per_part=65536)
    return cogroup(ids, labs, ["doc_id"], ["doc_id"], per_part, n_parts).sort("doc_id")


def weighted_sample(
    docs: ray.data.Dataset,
    k: int = 100,
    key_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Weighted sampling WITHOUT replacement, k docs with inclusion odds
    ∝ length(text) (Efraimidis–Spirakis A-ES: rank by Exp(1)-draw / w,
    keep the k smallest) — the length-weighted corpus draw that makes a
    token-budget pilot sample match the full corpus's token mass.

    Deterministic and EXACT cross-engine: the Exp(1) draw per doc is
    ``L = −floor(ln(u)·10¹⁵)`` with ``u = (float(md5₆₄(id)) + 0.5)/2⁶⁴``
    (CPython ``math.log`` is bit-identical to DuckDB ``ln`` on this libm;
    float(h)+0.5 and the divide are the same IEEE ops both sides; L ≥ 0
    always — for u marginally above 1 at the h = 2⁶⁴−1 edge the floor of
    the tiny positive product is 0), and the rank key is the pure-integer
    ``score = (L·100) // w`` (≤ 4.5×10¹⁸, int64-safe; nonneg so floor
    and SQL's truncating ``//`` agree), ties broken by id.

    Scale shape: one streaming scan; each batch locally prunes to its k
    smallest scores (a batch row outside its OWN top-k can never be in
    the global top-k), so the final sort sees ≤ blocks·k rows.  The
    per-row md5+ln loop is the portable-hash price every md5-keyed
    oracle pays (see :func:`_md5_u64_col`)."""
    import math

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(key_col).to_pylist()
        texts = batch.column(text_col).to_pylist()
        n = len(ids)
        scores = np.empty(n, np.int64)
        weights = np.empty(n, np.int64)
        for i, (s, t) in enumerate(zip(ids, texts)):
            h = int(hashlib.md5(str(s).encode()).hexdigest()[:16], 16)
            u = (float(h) + 0.5) / 18446744073709551616.0
            ln_fifteen = math.floor(math.log(u) * 1e15)
            w = max(len(t) if t is not None else 0, 1)
            weights[i] = w
            scores[i] = ((-int(ln_fifteen)) * 100) // w
        # local prune must use the GLOBAL (score, id) order or a boundary
        # tie could drop the id that wins the final sort (ids keep their
        # native type so int ids order numerically, like the Ray sort)
        keep = np.lexsort((np.asarray(ids), scores))[:k]
        return pa.table(
            {
                key_col: pa.array([ids[i] for i in keep]),
                "weight": pa.array(weights[keep], pa.int64()),
                "score": pa.array(scores[keep], pa.int64()),
            }
        )

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .sort(["score", key_col])
        .limit(k)
    )


def greedy_coverage(
    docs: ray.data.Dataset, k: int = 8
) -> ray.data.Dataset:
    """Greedy maximum-coverage subset selection — the diverse-exemplar
    curation primitive (pick the ``k`` documents that together cover
    the most distinct word-3-gram shingles, each round taking the doc
    with the largest UNCOVERED-shingle gain; the 1−1/e-approximate
    classic).  Shingles, not unigrams: the corpus vocabulary is tiny by
    construction while the 3-gram universe is ~16k strong — the same
    unit the near-dup family measures.
    Deterministic: gain ties break to the smallest doc_id; rounds stop
    early when the best remaining gain is zero.  Output one row per
    pick: (round, doc_id, gain, covered_total).

    Scale shape: k bounded rounds, each ONE streaming scan — the
    covered-token set (≤ tokens of the picked docs, k·|doc| bounded) is
    broadcast via ``ray.put`` and every batch emits its LOCAL best
    (doc_id, gain) row only, so the argmax fold is batches-sized; the
    winner's token set is fetched with one targeted filter.  Nothing
    corpus-sized ever reaches the driver."""
    picks_schema = pa.schema(
        [
            ("round", pa.int64()),
            ("doc_id", pa.int64()),
            ("gain", pa.int64()),
            ("covered_total", pa.int64()),
        ]
    )
    covered: frozenset[str] = frozenset()
    out_rows: list[tuple[int, int, int, int]] = []
    picked: set[int] = set()

    from .dedup import shingle_set

    def tokens_of(text: str) -> frozenset:
        return frozenset(shingle_set(text, 3))

    for rnd in range(1, k + 1):
        cov_ref = ray.put(covered)
        picked_ref = ray.put(frozenset(picked))

        def local_best(batch: pa.Table) -> pa.Table:
            """One (doc_id, gain, text) row per batch — the winner's
            text rides along, so the round needs NO second scan to
            fetch it (k rounds = k scans total, not 2k)."""
            cov = ray.get(cov_ref)
            skip = ray.get(picked_ref)
            best_id, best_gain, best_text = None, -1, ""
            for doc_id, text in zip(
                batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
            ):
                if doc_id in skip:
                    continue
                g = len(tokens_of(text) - cov)
                if g > best_gain or (g == best_gain and doc_id < best_id):
                    best_id, best_gain, best_text = doc_id, g, text
            if best_id is None:
                return pa.schema(
                    [("doc_id", pa.int64()), ("gain", pa.int64()),
                     ("text", pa.string())]
                ).empty_table()
            return pa.table(
                {
                    "doc_id": pa.array([best_id], pa.int64()),
                    "gain": pa.array([best_gain], pa.int64()),
                    "text": pa.array([best_text], pa.string()),
                }
            )

        cands = docs.map_batches(local_best, batch_format="pyarrow").take_all()
        if not cands:
            break
        cands.sort(key=lambda r: (-int(r["gain"]), int(r["doc_id"])))
        win_id, win_gain = int(cands[0]["doc_id"]), int(cands[0]["gain"])
        if win_gain <= 0:
            break
        covered = covered | tokens_of(cands[0]["text"])
        picked.add(win_id)
        out_rows.append((rnd, win_id, win_gain, len(covered)))

    return ray.data.from_arrow(
        pa.table(
            {
                "round": pa.array([r[0] for r in out_rows], pa.int64()),
                "doc_id": pa.array([r[1] for r in out_rows], pa.int64()),
                "gain": pa.array([r[2] for r in out_rows], pa.int64()),
                "covered_total": pa.array([r[3] for r in out_rows], pa.int64()),
            }
        )
        if out_rows
        else picks_schema.empty_table()
    )
