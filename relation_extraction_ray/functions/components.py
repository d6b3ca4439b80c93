"""Connected components over a pair table — duplicate-cluster folding.

The dedup family (``functions/dedup.py``, ``functions/ann.py``) emits
*pairs* ``(doc_a, doc_b)``; the operation a real training-data pipeline
runs next is folding those pairs into **clusters** and electing one
canonical document per cluster (keep-one dedup).  That is connected
components on the pair graph.

Planner: the same size split as every iterative operator in
``functions/graph.py`` and every keyed exchange, :func:`.joins.fits_local`
against :data:`.joins.LOCAL_BYTES_BOUND` read at call time (patching that
one attribute forces graph.py, this module and the exchanges together):

* **at or below the bound** the pair table — sized from Ray Data's
  metadata when it is a parquet read or materialized
  (:func:`.joins.sized`) — is folded by ONE numpy call,
  :func:`_cc_kernel` (min-label propagation with pointer jumping over
  a dense node index), inside ONE worker call
  (:func:`.joins.local_call`) returned lazily, so the consumer's sink
  runs in the same Ray Data execution and no pair reaches the driver.
  No rounds, no per-node Python state.  ``graph.component_size_hist``
  runs :func:`components_table` and its size fold in its own one call
  over the adjacency.
* **above the bound** the rounds run partitioned: iterative **min-label
  propagation** ("hash-to-min" family, Rastogi et al., "Finding
  Connected Components in Map-Reduce in Logarithmic Rounds", ICDE 2013
  — the simple variant here).  Each round every edge forwards
  ``min(label_a, label_b)`` to both endpoints and each node keeps the
  min of what it heard and what it had:

      labels ← (messages ∪ labels).groupby(node).min(label)

  The edge↔label join is the two :func:`..functions.joins.cogroup`
  exchanges of :func:`..functions.joins.pair_payload_join` (hash of the
  id ``% n_parts``).  From round 3 one pointer-jump ``cogroup`` of the
  label table with itself (label ← label[label]) is added: near-dup
  clusters are near-cliques that converge in ≤ 2 rounds and never pay
  it, while chain-shaped graphs need O(log diameter) rounds instead of
  O(diameter).  Labels only ever *decrease*, so ``sum(label)`` is
  monotone non-increasing and a round that leaves it unchanged is the
  fixpoint — convergence is one tiny driver-side aggregate per round.
  Per-round label tables are ``materialize()``-d — deliberately: they
  are the SMALL side, and re-deriving round k's labels lazily would
  re-run all k-1 prior shuffles.

Both paths give the same rows: roots are component-min ids, sizes are
node counts.  Scale shape: the label table holds only nodes that appear
in at least one pair — O(|dup pairs|), ≪ corpus.

Reference: no counterpart (the reference never clusters its near-dups);
engine addition per the LLM-data-pipeline mandate.
"""

from __future__ import annotations

import time as _time

import numpy as np
import pyarrow as pa
import ray.data

from .joins import (
    cogroup,
    derive_n_parts,
    fits_local,
    hash_partitioned_groups,
    local_call,
    pair_payload_join,
    sized,
)

_OUT_NAMES = ["doc_id", "canonical_id", "cluster_size"]


def _empty_table(id_type: pa.DataType) -> pa.Table:
    return pa.Table.from_arrays(
        [pa.array([], id_type), pa.array([], id_type), pa.array([], pa.int64())],
        names=_OUT_NAMES,
    )


def _empty_result(id_type: pa.DataType) -> ray.data.Dataset:
    return ray.data.from_arrow(_empty_table(id_type))


def _min_by_node(tab: pa.Table) -> pa.Table:
    """Arrow hash-aggregation min(lab) per node (per-batch partial)."""
    return tab.group_by("node").aggregate([("lab", "min")]).rename_columns(["node", "lab"])


def _cc_kernel(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Connected components of the integer edge list ``(a[i], b[i])`` →
    ``(doc_id, canonical_id, cluster_size)`` over every endpoint, sorted
    by ``(canonical_id, doc_id)``; ``canonical_id`` is the component-min
    id.  Self-loops and duplicate or reversed pairs are harmless.

    Nodes get a dense index in ascending id order (``np.unique``), so the
    min index of a component is its min id.  Each pass sends
    ``min(lab[a], lab[b])`` to both endpoints AND to their current labels
    (hooking the two trees together), then pointer-jumps
    ``lab ← lab[lab]`` until every node points at a root.  Labels only
    decrease and always name a node of the same component; a pass that
    changes nothing leaves every edge with equal end labels, i.e. one
    root — the component min, whose own label can never drop — per
    component."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ia, ib = inv[: len(a)], inv[len(a) :]
    lab = np.arange(len(nodes))
    while True:
        prev = lab.copy()
        m = np.minimum(lab[ia], lab[ib])
        for idx in (lab[ia], lab[ib], ia, ib):
            np.minimum.at(lab, idx, m)
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped
        if np.array_equal(lab, prev):
            break
    size = np.bincount(lab, minlength=len(nodes))
    order = np.lexsort((nodes, lab))
    return nodes[order], nodes[lab[order]], size[lab[order]]


def components_table(pairs: pa.Table, id_a: str, id_b: str, id_type: pa.DataType) -> pa.Table:
    """:func:`connected_components`' rows for the pair table ``pairs``,
    all at once: one :func:`_cc_kernel` call, ids cast back to
    ``id_type``."""
    doc, canon, size = _cc_kernel(
        *(pairs.column(c).cast(pa.int64()).to_numpy() for c in (id_a, id_b))
    )
    return pa.Table.from_arrays(
        [pa.array(doc).cast(id_type), pa.array(canon).cast(id_type), pa.array(size, pa.int64())],
        names=_OUT_NAMES,
    )


def connected_components(
    pairs: ray.data.Dataset,
    id_a: str = "doc_a",
    id_b: str = "doc_b",
    max_rounds: int = 64,
    round_stats: list | None = None,
) -> ray.data.Dataset:
    """Fold a pair table into duplicate clusters.

    Returns ``(doc_id, canonical_id, cluster_size)`` for every node that
    appears in at least one pair; ``canonical_id`` is the component-min
    id (the member a keep-one dedup would keep), ``cluster_size`` the
    component's node count.  Nodes in no pair are singletons by
    definition and are deliberately NOT emitted (output stays
    O(|dup pairs|), not O(corpus)).  Ids must be integers (they are
    labelled as int64); ``doc_id``/``canonical_id`` keep the input type.

    ``round_stats``, when given, receives one record per round — a
    single ``{"mode": "local", ...}`` record below the graph planner
    bound (the one call is then executed here, to time it),
    ``{"mode": "partitioned", ...}`` records above it.
    """
    pairs = sized(pairs)
    sch = pairs.schema()
    if sch is None or id_a not in sch.names or pa.types.is_null(sch.types[sch.names.index(id_a)]):
        return _empty_result(pa.int64())
    id_type = sch.types[sch.names.index(id_a)]

    if fits_local(pairs):
        t0 = _time.monotonic()
        out = local_call(
            pairs,
            lambda t: components_table(t, id_a, id_b, id_type),
            lambda: _empty_table(id_type),
        )
        if round_stats is not None:
            out = out.materialize()
            round_stats.append(
                {"mode": "local", "wall_s": round(_time.monotonic() - t0, 2),
                 "label_sum": int(out.sum("canonical_id") or 0)}
            )
        return out

    edges = pairs.map_batches(
        lambda t: t.select([id_a, id_b]).rename_columns(["a", "b"]),
        batch_format="pyarrow",
    ).materialize()
    if edges.count() == 0:
        return _empty_result(id_type)

    # init: label(node) = min(node, min over incident edges' other end) —
    # the first propagation round folded into the init scan (free: the
    # same per-batch-partial → groupby-min reduction either way).  For
    # near-clique dup clusters this IS already the fixpoint, so the loop
    # below runs exactly one confirmation round.
    def init_labels(t: pa.Table) -> pa.Table:
        a = t.column("a").combine_chunks()
        b = t.column("b").combine_chunks()
        both = pa.concat_arrays([a, b]).cast(id_type)
        m = np.minimum(
            a.cast(pa.int64()).to_numpy(zero_copy_only=False),
            b.cast(pa.int64()).to_numpy(zero_copy_only=False),
        )
        return _min_by_node(
            pa.Table.from_arrays(
                [both, pa.array(np.concatenate([m, m]), pa.int64())],
                names=["node", "lab"],
            )
        )

    labels = edges.map_batches(init_labels, batch_format="pyarrow")
    # Partition sizing: CC rows are 16-byte (node, lab) pairs, so the
    # default derive_n_parts (4096 rows/part, tuned for heavy per-group
    # dedup verification) over-partitions catastrophically — at 1M edges
    # it yields 244 parts × ~500 input blocks ≈ 122k shuffle objects PER
    # SORT, and the pull-based shuffle coordinator pegged the driver at
    # 94 % CPU / 16 GB RSS with every worker idle (measured).  64k rows
    # (~1 MB) per partition keeps each exchange to a few hundred objects
    # while staying multi-core; the 256 cap bounds per-partition rows at
    # ~4M (~64 MB) at cluster scale.
    n_parts = derive_n_parts(edges.count(), rows_per_part=1 << 16)
    labels = _global_min(labels, n_parts).materialize()
    prev_sum = _label_sum(labels)

    for rnd in range(max_rounds):
        joined = pair_payload_join(
            edges,
            labels.map_batches(
                lambda t: t.rename_columns(["id", "payload"]), batch_format="pyarrow"
            ),
            id_type,
            pa.int64(),
            n_parts,
        )

        def relabel(batch: pa.Table) -> pa.Table:
            la = batch.column("payload_a").to_numpy(zero_copy_only=False)
            lb = batch.column("payload_b").to_numpy(zero_copy_only=False)
            m = np.minimum(la, lb).astype(np.int64)
            return _min_by_node(
                pa.Table.from_arrays(
                    [
                        pa.concat_arrays(
                            [
                                batch.column("a").combine_chunks(),
                                batch.column("b").combine_chunks(),
                            ]
                        ).cast(id_type),
                        pa.array(np.concatenate([m, m]), pa.int64()),
                    ],
                    names=["node", "lab"],
                )
            )

        messages = joined.map_batches(relabel, batch_format="pyarrow")
        t_round = _time.monotonic()
        labels = _global_min(messages.union(labels), n_parts).materialize()
        if rnd >= 2:
            # distributed pointer jump: one extra keyed join per round
            # replaces each label with its label's label (monotone:
            # label[x] <= x always, so label[lab] <= lab) — O(log d)
            # total rounds on chain-shaped graphs instead of O(d).
            # Engaged ADAPTIVELY from round 3: the near-clique dup-cluster
            # workload converges in ≤2 rounds (init fixpoint +
            # confirmation) and must not pay the extra keyed join
            # (measured 3.3× on the partitioned bit-equality test when
            # unconditional); a graph still unconverged after 2 rounds is
            # chain/tree-shaped, exactly where jumping wins.
            labels = _pointer_jump(labels, id_type, n_parts).materialize()
        cur_sum = _label_sum(labels)
        if round_stats is not None:
            round_stats.append(
                {"mode": "partitioned", "wall_s": round(_time.monotonic() - t_round, 2),
                 "label_sum": cur_sum}
            )
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum

    # stamp cluster sizes: one keyed exchange on canonical_id
    def stamp_size(group: pa.Table) -> pa.Table:
        n = group.num_rows
        return pa.Table.from_arrays(
            [
                group.column("node").combine_chunks(),
                group.column("lab").combine_chunks().cast(id_type),
                pa.array(np.full(n, n, dtype=np.int64), pa.int64()),
            ],
            names=_OUT_NAMES,
        )

    return labels.groupby("lab").map_groups(stamp_size, batch_format="pyarrow")


def _pointer_jump(labels: ray.data.Dataset, id_type: pa.DataType, n_parts: int) -> ray.data.Dataset:
    """label ← label[label] for every node, as ONE :func:`cogroup` of the
    label table with itself (cheaper than the generic
    :func:`pair_payload_join`, which would spend a second exchange
    resolving the ``node`` leg we don't need).  The lookup side is keyed
    on ``node``; the probe side carries its label cast to ``id_type`` and
    is keyed on that (the cast comes first: equal values of different
    types hash to different partitions).  Per partition a vectorized
    ``index_in`` probe replaces each probe row's lab with the lab of the
    node it points at.  Labels are node ids of nodes present in the
    table, so the probe always hits (a miss keeps the old lab — still
    correct, jumping is an accelerator not a correctness step); node rows
    are unique so no re-aggregation is needed."""
    import pyarrow.compute as pc

    def with_target(t: pa.Table) -> pa.Table:
        return t.append_column("__to__", t.column("lab").cast(id_type))

    def jump(lookup: pa.Table, probe: pa.Table) -> pa.Table:
        idx = pc.index_in(probe.column("__to__"), value_set=lookup.column("node").combine_chunks())
        jumped = pc.take(lookup.column("lab").combine_chunks(), idx)
        new_lab = pc.if_else(pc.is_valid(jumped), jumped, probe.column("lab"))
        return pa.Table.from_arrays(
            [probe.column("node"), new_lab.cast(pa.int64())], names=["node", "lab"]
        )

    probe = labels.map_batches(with_target, batch_format="pyarrow")
    return cogroup(labels, probe, ["node"], ["__to__"], jump, n_parts)


def _global_min(node_lab: ray.data.Dataset, n_parts: int) -> ray.data.Dataset:
    """(node, lab) with the min lab per node: ONE node-keyed
    :func:`.joins.hash_partitioned_groups` call folding each partition
    with an Arrow ``group_by`` min.  Its coalesce rule bounds the output
    at ``n_parts`` blocks, so the round loop — round k's labels ∪
    messages feed round k+1's fold — cannot compound block count (a
    Ray Data ``groupby`` aggregate emits one block per input block:
    measured 1.3 s → 4.3 s → 15.2 s per round on an 8-edge toy graph)."""
    return hash_partitioned_groups(node_lab, ["node"], _min_by_node, n_parts)


def _label_sum(labels: ray.data.Dataset) -> int:
    """Convergence scalar: labels only decrease, so an unchanged sum is
    the fixpoint.  int64-safe for ids < 2^40 over < 2^23 nodes; the
    driver holds one number."""
    s = labels.sum("lab")
    return int(s["sum(lab)"] if isinstance(s, dict) else s)


# broadcast-vs-partitioned planner bound for the keep-one drop set: the
# drop ids ship as ONE Arrow array (zero-copy reads from the object
# store), so the estimate is raw id bytes, not dict-entry bytes.
# 128 MiB ≈ 16M int64 drop ids; a 30-60 %-duplicated web crawl at
# 10⁹+ docs blows past this, which is exactly when the anti-join below
# must run reduce-side instead of OOMing the driver.
_DROP_BROADCAST_BYTES = 128 << 20


def dedup_keep_one(
    docs: ray.data.Dataset,
    pairs: ray.data.Dataset,
    id_col: str = "doc_id",
    id_a: str = "doc_a",
    id_b: str = "doc_b",
    broadcast_bytes: int = _DROP_BROADCAST_BYTES,
) -> ray.data.Dataset:
    """Keep-one near-dup dedup: drop every clustered document except its
    cluster's canonical (component-min id) member — the operation the
    pair-emitting dedup family exists to feed.

    ``pairs`` is any near-dup pair table (minhash / ngram-Jaccard /
    simhash / embedding); clusters come from
    :func:`connected_components`.  Join-strategy pick, the same planner
    split as ``verify_jaccard`` / ``state/linker.py`` (byte bound, not
    row count — transfers across cluster sizes):

    * drop set ≤ ``broadcast_bytes``: the non-canonical ids ship once
      via ``ray.put`` and the filter is one streaming ``is_in`` over the
      corpus — no shuffle of document rows;
    * above the bound (a heavily duplicated crawl: 30-60 % dup rate
      makes the drop set O(corpus)): a **hash-partitioned reduce-side
      anti-join** — one :func:`..joins.cogroup` of docs and drop ids on
      the id key (it materializes the docs), each partition filtered
      independently; driver memory stays flat.  Bit-identical
      to the broadcast path (asserted in
      ``tests/test_components.py::test_keep_one_partitioned_bitequal``).
    """
    cc = connected_components(pairs, id_a=id_a, id_b=id_b)

    def non_canon(bt: pa.Table) -> pa.Table:
        neq = pa.compute.invert(
            pa.compute.equal(bt.column("doc_id"), bt.column("canonical_id"))
        )
        return pa.table({"__drop_id__": bt.column("doc_id").filter(neq)})

    drops = cc.map_batches(non_canon, batch_format="pyarrow").materialize()

    # drop-set size from the materialized blocks' metadata: no drop id
    # crosses the driver unless the broadcast path below ships them
    n_drop = drops.count()

    if fits_local(drops, bound=broadcast_bytes):
        drop_arr = (
            pa.concat_arrays(
                [
                    bt.column("__drop_id__").combine_chunks()
                    for bt in drops.iter_batches(batch_format="pyarrow")
                    if bt.num_rows
                ]
            )
            if n_drop
            else pa.array([], pa.int64())
        )
        drop_ref = ray.put(drop_arr)

        def keep(batch: pa.Table) -> pa.Table:
            drop = ray.get(drop_ref)
            if len(drop) == 0:
                return batch
            mask = pa.compute.invert(
                pa.compute.is_in(batch.column(id_col), value_set=drop)
            )
            return batch.filter(mask)

        return docs.map_batches(keep, batch_format="pyarrow")

    # --- partitioned anti-join (the >broadcast-bound path) ----------------
    # One cogroup of docs with the drop ids on the id key: each partition
    # holds every doc and every drop id of one hash partition, so the
    # in-partition is_in is exact.  Drop ids take the doc id type first
    # (equal values of different types hash to different partitions).
    id_type = docs.schema().base_schema.field(id_col).type
    drop_ids = drops.map_batches(
        lambda t: pa.table({"__drop_id__": t.column("__drop_id__").cast(id_type)}),
        batch_format="pyarrow",
    )

    def anti(doc_rows: pa.Table, drop_rows: pa.Table) -> pa.Table:
        if drop_rows.num_rows == 0:
            return doc_rows
        drop_set = drop_rows.column("__drop_id__").combine_chunks()
        return doc_rows.filter(
            pa.compute.invert(pa.compute.is_in(doc_rows.column(id_col), value_set=drop_set))
        )

    n_parts = derive_n_parts(n_drop, rows_per_part=1 << 16)
    return cogroup(docs, drop_ids, [id_col], ["__drop_id__"], anti, n_parts)
