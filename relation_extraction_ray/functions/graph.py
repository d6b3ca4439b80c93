"""Graph analytics over the constructed KG.

The engine's terminal KG artifact is the adjacency table
(``pipelines/kg.adjacency_from_triples`` — SURVEY.md A7/J7); the
operators here rank, traverse, peel and summarize its entity graph.
Every edge prep is a :class:`_Prep`: a per-batch dedup ``combine`` and
a partition ``reduce``, which above the planner bound run as one
:func:`..joins.hash_partitioned_groups` call and below it inside the
operator's one worker call.  The undirected operators share one
(:func:`_simple_edges`, mirrored by :func:`_undirected_both_dirs`), the
directed walkers another (:func:`_directed_edges`).

Planner: every operator here except :func:`component_size_hist` (its
own one-call arm around the components kernel) and
:func:`diameter_2sweep` (which composes :func:`bfs_hops`) is written
ONCE against an executor ``x`` — module-level kernels over ``pa.Table``
plus a round loop — and run by ONE driver, :func:`_iterate`: the
iterative operators (pagerank, hits, bfs/sssp, harmonic centrality,
label propagation, kcore, trim core, random walks and walk pairs,
fanout sampling), the wedge family (:func:`edge_jaccard` and what
composes its :func:`_wedge_support` rounds, :func:`modularity`,
:func:`degree_assortativity`) and the keyed-fold statistics
(:func:`degree_histogram`, :func:`power_law_alpha`,
:func:`pred_bigrams`, :func:`reciprocity`,
:func:`predicate_cardinality`; ``pipelines/kg.triple_provenance`` too).
A round is a scatter kernel (static edges ⋈ state → messages keyed by
the destination node) and a fold kernel (messages ⋈ state → next
state); a statistic ends in one scalar sum (``x.sum``).
:func:`_iterate` decides ONCE, on its inputs, with the engine's one
probe :func:`..joins.fits_local` — the adjacency sized from Ray Data's
metadata when it is a parquet read or a materialized dataset
(:func:`..joins.sized`), so deciding costs no execution:

* at or below :data:`..joins.LOCAL_BYTES_BOUND` (read at call time) the
  prep and every kernel run in-process on whole tables
  (:class:`_InProcess`) inside ONE ``map_batches`` call on a worker
  (:func:`..joins.local_call`; :func:`modularity`'s two inputs go
  through :func:`..joins.cogroup`'s one-call arm), returned lazily so
  the consumer's ``write_parquet`` runs in the same Ray Data execution:
  no edge reaches the driver, and a query over a parquet read is
  ``ReadParquet → MapBatches → Write``.  An input with no rows gets the
  operator's typed empty result, built in-process without a Ray call;
* above it every two-input step is one :func:`..joins.cogroup` (the
  two sides hashed on their own key columns, so the static preps carry
  no partition column) and every keyed fold one
  :func:`..joins.hash_partitioned_groups`.  Both coalesce an input
  holding more than ``n_parts`` blocks to ``n_parts`` first, so a
  round's output never compounds blocks.

A kernel sees what one hash partition holds, so the whole table is just
the 1-partition case and both drivers give the same rows (asserted in
tests).  A kernel that sorts or keys on node pairs (the wedge scatter
and its closing join) codes its string columns to order-preserving
integers per call (:func:`_codes`), valid in any partition.

PageRank's round, for instance, is the classic 2-exchanges-per-iteration
shape: the rank rows meet the static (u, v, w, ow) edges on the node
key, each edge carries ``rank(u) · w // ow`` to v (pre-summed per
partition), and the contributions meet the rank rows again on v, where
the fold sums them.  The node set comes from the edges once, so
dangling and unreferenced nodes keep a rank row every round.

All arithmetic is INTEGER (ranks in 1e-12 units, ``contrib = rank * w //
ow``, ``rank' = 15%*SCALE + 85%*Σcontrib // 100``) so results are
bit-identical regardless of partitioning, block order or cluster size —
and exactly replayable in SQL (the driver oracle unrolls the same integer
recurrence).  Dangling-node mass is dropped (the standard simplification;
deterministic).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .joins import (
    _typed_blocks,
    cogroup,
    derive_n_parts,
    fits_local,
    hash_partitioned_groups,
    local_call,
    one_partition,
    sized,
)

SCALE = 10**12
_DIST_SCHEMA = pa.schema([("node", pa.string()), ("dist", pa.int64())])
_UV_SCHEMA = pa.schema([("u", pa.string()), ("v", pa.string())])


class _Prep(NamedTuple):
    """An edge prep, as kernels: ``combine`` turns a batch of adjacency
    rows into partial edges keyed by ``key``, ``reduce`` folds one hash
    partition's partials (with their ``part`` column) into edge rows, and
    ``schema`` types them.  :meth:`exchange` runs it as one
    :func:`..joins.hash_partitioned_groups` call, :meth:`one_call` as
    the prep of a sub-bound operator's one worker call."""

    key: list
    combine: Callable
    reduce: Callable
    schema: pa.Schema

    def exchange(self, adjacency: ray.data.Dataset, n_parts: int) -> ray.data.Dataset:
        return hash_partitioned_groups(
            adjacency, self.key, self.reduce, n_parts, combine=self.combine
        )

    def local(self, batch: pa.Table) -> pa.Table:
        """The edges of all rows in ``batch`` — what a 1-partition
        exchange gives — as a typed empty table when there are none."""
        t = one_partition(self.reduce, self.combine)(batch)
        return t if t.num_rows else self.schema.empty_table()

    def one_call(self, adjacency: ray.data.Dataset, kernel: Callable) -> ray.data.Dataset:
        """``kernel`` over the edges of ALL rows of the sized, sub-bound
        ``adjacency``, as its one lazy worker call
        (:func:`..joins.local_call`); over the typed empty edges,
        in-process, when it holds no rows."""

        def one_call(batch: pa.Table) -> pa.Table:  # names the call in Ray Data's plans
            return kernel(self.local(batch))

        return local_call(adjacency, one_call, lambda: kernel(self.schema.empty_table()))


def _collapsed_edges() -> _Prep:
    """(u, v, w) with predicates collapsed, partitioned by hash(u), with
    the local out-weight ``ow`` attached per edge; sorted by u within
    each partition (the probe side of the iteration join)."""

    def collapse(t: pa.Table) -> pa.Table:
        return _summed(t, ["u", "v"], ["w"])

    def combine(batch: pa.Table) -> pa.Table:
        return collapse(
            pa.table(
                {
                    "u": batch.column("src_id"),
                    "v": batch.column("dst_id"),
                    "w": batch.column("weight").cast(pa.int64()),
                }
            )
        )

    def prep_part(part: pa.Table) -> pa.Table:
        # collapse duplicate (u,v) across input batches, then local ow(u)
        t = collapse(part).sort_by([("u", "ascending"), ("v", "ascending")])
        u = t.column("u").to_numpy(zero_copy_only=False)
        w = t.column("w").to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        ow = np.repeat(np.add.reduceat(w, starts), np.diff(np.append(starts, len(u))))
        return t.append_column("ow", pa.array(ow, pa.int64()))

    schema = _UV_SCHEMA.append(pa.field("w", pa.int64())).append(pa.field("ow", pa.int64()))
    return _Prep(["u"], combine, prep_part, schema)


class _InProcess:
    """Runs an operator's rounds on whole ``pa.Table``s in the calling
    process: each step calls its kernel once on all rows."""

    def join(self, left, right, left_on, right_on, kernel):
        return kernel(left, right)

    def groups(self, t: pa.Table, key: list[str], kernel) -> pa.Table:
        return kernel(t)

    def map(self, t: pa.Table, fn) -> pa.Table:
        return fn(t)

    def concat(self, parts: list[pa.Table]) -> pa.Table:
        return pa.concat_tables(parts)

    def count(self, t: pa.Table) -> int:
        return t.num_rows

    def max(self, t: pa.Table, col: str) -> int:
        m = pc.max(t.column(col)).as_py()
        return int(m) if m is not None else 0

    def sum(self, t: pa.Table, cols: list[str]) -> list[int]:
        return [int(pc.sum(t.column(c)).as_py() or 0) for c in cols]

    def result(self, t: pa.Table, schema: pa.Schema, sort_keys) -> pa.Table:
        return t.select(schema.names).cast(schema).sort_by(sort_keys)

    def table(self, t: pa.Table) -> pa.Table:
        return t


def _empty_of(ds: ray.data.Dataset) -> pa.Table:
    # materialized first: free for a materialized dataset, whose schema is
    # then read from its blocks' metadata (a fresh empty ``from_arrow``
    # dataset would run a one-row execution to find it)
    return ds.materialize().schema().base_schema.empty_table()


class _Exchange:
    """The same rounds as keyed Ray Data exchanges over ``n_parts``
    partitions: a ``join`` is one :func:`cogroup`, a ``groups`` one
    :func:`hash_partitioned_groups`, each materialized with no lineage;
    ``count``, ``max`` and ``sum`` are Ray Data aggregates whose scalars
    reach the driver.
    A step that yields no rows is typed by calling its kernel on its
    inputs' typed empty tables, so an emptied state stays typed for the
    next round."""

    def __init__(self, n_parts: int) -> None:
        self.n_parts = n_parts

    @staticmethod
    def _typed(out: ray.data.Dataset, empty) -> ray.data.Dataset:
        # materialized with no stats lineage (:func:`..joins._typed_blocks`):
        # Ray Data walks every parent dataset's stats at each execution, so
        # a round that reads two earlier rounds' outputs would double that
        # walk (measured: per-round wall 0.3 s → 45 s over 12 bfs rounds).
        # A result with no rows is ``empty()``: a map passes a 0-row input
        # block through untyped by the map.
        out = _typed_blocks(out, empty)
        return out if out.count() else ray.data.from_arrow(empty())

    def join(self, left, right, left_on, right_on, kernel):
        out = cogroup(left, right, left_on, right_on, kernel, self.n_parts)
        return self._typed(out, lambda: kernel(_empty_of(left), _empty_of(right)))

    def groups(self, ds, key, kernel):
        out = hash_partitioned_groups(ds, key, kernel, self.n_parts)
        return self._typed(out, lambda: kernel(_empty_of(ds)))

    def map(self, ds, fn):
        out = ds.map_batches(fn, batch_format="pyarrow")
        return self._typed(out, lambda: fn(_empty_of(ds)))

    def concat(self, parts):
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    def count(self, ds) -> int:
        return ds.count()

    def max(self, ds, col: str) -> int:
        m = ds.max(col)
        return int(m) if m is not None else 0

    def sum(self, ds, cols: list[str]) -> list[int]:
        from ray.data.aggregate import Sum

        got = ds.aggregate(*(Sum(c) for c in cols)) or {}
        return [int(got.get(f"sum({c})") or 0) for c in cols]

    def table(self, t: pa.Table) -> ray.data.Dataset:
        return ray.data.from_arrow(t)

    def result(self, ds, schema: pa.Schema, sort_keys) -> ray.data.Dataset:
        if ds.count() == 0:  # an all-empty sort would come back schema-less
            return ray.data.from_arrow(schema.empty_table())
        return ds.map_batches(
            lambda t: t.select(schema.names).cast(schema), batch_format="pyarrow"
        ).sort(
            [k for k, _ in sort_keys], descending=[o == "descending" for _, o in sort_keys]
        )


def _iterate(
    adjacency: ray.data.Dataset, prep: _Prep, rounds, side: ray.data.Dataset | None = None
) -> ray.data.Dataset:
    """The one planner decision of a graph operator.  ``rounds(x,
    edges)`` is the operator written once against an executor ``x``
    (``join`` / ``groups`` / ``map`` / ``concat`` / ``count`` / ``max``
    / ``sum`` / ``table`` / ``result``), over the edges ``prep`` makes of
    the adjacency; a ``side`` input (:func:`modularity`'s communities)
    is handed to it as a third argument, a whole table in-process and a
    dataset above the bound.  The decision is taken on the inputs, sized
    from Ray Data's metadata (:func:`..joins.sized`): at or below
    :data:`..joins.LOCAL_BYTES_BOUND` the prep and every round run
    in-process (:class:`_InProcess`) inside ONE worker call
    (:func:`..joins.local_call`; :func:`..joins.cogroup`'s one-call arm
    with a side) — a typed empty edge table when the prep leaves none —
    and the call's sorted table is the result; above it the prep is one
    exchange, its edges stay a dataset and every step is a keyed
    exchange (:class:`_Exchange`); edges that come out empty get the
    in-process result of no edges (and no side rows: a side only labels
    the edges' endpoints)."""
    adjacency = sized(adjacency)
    sides = [] if side is None else [sized(side)]

    def no_edges() -> ray.data.Dataset:
        empty = prep.schema.empty_table()
        return ray.data.from_arrow(rounds(_InProcess(), empty, *map(_empty_of, sides)))

    if fits_local(adjacency, *sides):
        if not sides:
            return prep.one_call(adjacency, partial(rounds, _InProcess()))
        if not adjacency.count():  # sized: counted from metadata
            return no_edges()

        def one_call(adj: pa.Table, labels: pa.Table) -> pa.Table:
            return rounds(_InProcess(), prep.local(adj), labels)

        return cogroup(adjacency, sides[0], [], [], one_call, 1)
    n_parts = derive_n_parts(adjacency.count(), rows_per_part=65536)
    edges = prep.exchange(adjacency, n_parts).materialize()
    if not edges.count():  # an exchange over no rows carries no schema
        return no_edges()
    return rounds(_Exchange(n_parts), edges, *sides)


def _endpoints(t: pa.Table) -> pa.Table:
    """Distinct endpoints of a batch of (u, v) edges as (node)."""
    return pa.table({"node": pc.unique(_stacked(t, "u", "v"))})


def _distinct_nodes(t: pa.Table) -> pa.Table:
    return pa.table({"node": pc.unique(t.column("node").combine_chunks())})


def _node_set(x, edges):
    """Every endpoint of the (u, v) edges once, as (node) rows keyed by
    node: the state universe of pagerank/hits and trim_core's node count."""
    return x.groups(x.map(edges, _endpoints), ["node"], _distinct_nodes)


def _summed(t: pa.Table, keys: list[str], cols: list[str]) -> pa.Table:
    """Fold: Σ of each of ``cols`` per ``keys``, under the same names."""
    return t.group_by(keys).aggregate([(c, "sum") for c in cols]).rename_columns(keys + cols)


def _stacked(t: pa.Table, *cols: str) -> pa.Array:
    """The columns ``cols`` of ``t`` one after another, as one array."""
    return pa.concat_arrays([t.column(c).combine_chunks() for c in cols])


def _sides(n: int) -> pa.Array:
    """int8 side tags of two stacked ``n``-row columns: n zeros, n ones."""
    return pa.array(np.repeat(np.array([0, 1], np.int8), n))


def _int_row(x, names, values):
    """A statistic's one int64 row, ``names`` = ``values``, as ``x``'s
    result."""
    schema = pa.schema([(c, pa.int64()) for c in names])
    row = pa.table([pa.array([v], pa.int64()) for v in values], schema=schema)
    return x.result(x.table(row), schema, [(names[0], "ascending")])


def _with(t: pa.Table, col: str, values) -> pa.Table:
    """``t`` with column ``col`` replaced by int64 ``values``."""
    return t.set_column(t.schema.get_field_index(col), col, pa.array(values, pa.int64()))


def _push_sum(
    state: pa.Table, edges: pa.Table, col: str, src: str, dst: str, weighted: bool = False
) -> pa.Table:
    """Scatter: every edge carries its ``src`` node's ``col`` value to its
    ``dst`` node — times ``w // ow`` when ``weighted`` (PageRank's
    integer share) — pre-summed per destination as (node, msg).  Every
    ``src`` of the partition has a state row."""
    pos = pc.index_in(edges.column(src), value_set=state.column("node").combine_chunks())
    val = pc.take(state.column(col), pos).to_numpy(zero_copy_only=False)
    if weighted:
        w = edges.column("w").to_numpy(zero_copy_only=False)
        val = val * w // edges.column("ow").to_numpy(zero_copy_only=False)
    msgs = pa.table({"node": edges.column(dst), "msg": pa.array(val, pa.int64())})
    return _summed(msgs, ["node"], ["msg"])


def _fold_sum(
    state: pa.Table, msgs: pa.Table, col: str, damping_pct: int | None = None
) -> pa.Table:
    """Fold: ``col`` ← Σ msg per state node (0 where none arrived); with
    ``damping_pct``, PageRank's ``base + damping_pct · Σ // 100``."""
    g = msgs.group_by("node").aggregate([("msg", "sum")])
    pos = pc.index_in(state.column("node"), value_set=g.column("node").combine_chunks())
    s = pc.fill_null(pc.take(g.column("msg_sum"), pos), 0).to_numpy(zero_copy_only=False)
    if damping_pct is not None:
        s = state.column("base").to_numpy(zero_copy_only=False) + damping_pct * s // 100
    return _with(state, col, s)


def _semi_join(edges: pa.Table, nodes: pa.Table, col: str) -> pa.Table:
    """Edges whose ``col`` endpoint is one of the (node) rows."""
    keep = pc.is_in(edges.column(col), value_set=nodes.column("node").combine_chunks())
    return edges.filter(keep)


def _simple_edges(weighted: bool = False) -> _Prep:
    """Distinct undirected edges of the KG entity graph as canonical
    ``a < b`` rows (self-loops dropped, predicates and direction
    collapsed), plus ``w`` = Σweight over both directions when
    ``weighted``.  Each batch pre-dedups before ONE (a, b)-keyed
    exchange."""
    cols = ["a", "b", "w"] if weighted else ["a", "b"]
    aggs = [("w", "sum")] if weighted else []

    def dedup(t: pa.Table) -> pa.Table:
        return t.group_by(["a", "b"]).aggregate(aggs).rename_columns(cols)

    def canon(batch: pa.Table) -> pa.Table:
        u, v = batch.column("src_id"), batch.column("dst_id")
        keep = pc.invert(pc.equal(u, v))
        u, v = u.filter(keep), v.filter(keep)
        t = {"a": pc.min_element_wise(u, v), "b": pc.max_element_wise(u, v)}
        if weighted:
            t["w"] = batch.column("weight").cast(pa.int64()).filter(keep)
        return dedup(pa.table(t))

    schema = pa.schema([(c, pa.int64() if c == "w" else pa.string()) for c in cols])
    return _Prep(["a", "b"], canon, lambda part: dedup(part.select(cols)), schema)


def _directed_edges() -> _Prep:
    """Distinct directed (u, v) edges of the KG (predicates collapsed,
    self-loops kept), exchanged on hash(u) and sorted by (u, v) within
    each partition — the static side shared by :func:`random_walks`,
    :func:`fanout_sample`, :func:`hits` and :func:`trim_core`.  Each
    batch pre-dedups before the one exchange."""

    def dedup(t: pa.Table) -> pa.Table:
        return t.group_by(["u", "v"]).aggregate([])

    def canon(batch: pa.Table) -> pa.Table:
        return dedup(pa.table({"u": batch.column("src_id"), "v": batch.column("dst_id")}))

    def sort_part(part: pa.Table) -> pa.Table:
        return dedup(part.select(["u", "v"])).sort_by([("u", "ascending"), ("v", "ascending")])

    return _Prep(["u"], canon, sort_part, _UV_SCHEMA)


def pagerank(
    adjacency: ray.data.Dataset,
    iters: int = 5,
    damping_pct: int = 85,
    seed_pct: int | None = None,
) -> ray.data.Dataset:
    """Integer PageRank over the adjacency table: returns (node, rank)
    with rank in 1e-12 units, sorted by (rank desc, node asc).  Each
    iteration is a :func:`_push_sum` scatter of the ranks over the
    collapsed edges and a :func:`_fold_sum` into the (node, rank, base)
    state, run by :func:`_iterate` (module doc).

    ``seed_pct`` switches to PERSONALIZED PageRank: the teleport
    distribution concentrates on the md5-bucket landmark set
    (:func:`bfs_seed_mask`) instead of all nodes — initial rank and the
    per-iteration restart mass are non-zero only at seeds, so the
    stationary rank measures proximity to the seed entities (the
    query-anchored entity-importance feature of KG QA / recommendation).
    Same integer recurrence, same exchanges, bit-exact SQL unroll."""
    base = (100 - damping_pct) * SCALE // 100

    def init_ranks(t: pa.Table) -> pa.Table:
        """(node, rank, base): the start rank and the per-node restart
        mass, seed-masked once for personalized PageRank."""
        n = t.num_rows
        if seed_pct is None:
            seed = np.ones(n, bool)
        else:
            seed = bfs_seed_mask(t.column("node"), seed_pct).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": t.column("node"),
                "rank": pa.array(np.where(seed, SCALE, 0), pa.int64()),
                "base": pa.array(np.where(seed, base, 0), pa.int64()),
            }
        )

    scatter = partial(_push_sum, col="rank", src="u", dst="v", weighted=True)
    fold = partial(_fold_sum, col="rank", damping_pct=damping_pct)

    def rounds(x, edges):
        ranks = x.map(_node_set(x, edges), init_ranks)
        for _ in range(iters):
            msgs = x.join(ranks, edges, ["node"], ["u"], scatter)
            ranks = x.join(ranks, msgs, ["node"], ["node"], fold)
        return x.result(
            ranks,
            pa.schema([("node", pa.string()), ("rank", pa.int64())]),
            [("rank", "descending"), ("node", "ascending")],
        )

    return _iterate(adjacency, _collapsed_edges(), rounds)


def triangle_count(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Exact triangle count of the UNDIRECTED simple graph underlying the
    adjacency table (predicates collapsed, self-loops dropped, direction
    ignored) — one row ``{n_triangles}``.

    Composition, not new machinery (the :func:`clustering_coefficient`
    discipline): :func:`_wedge_support` gives every edge's
    common-neighbor count, and each triangle credits each of its three
    edges exactly once, so the count is Σ n_common // 3 — one scalar sum
    (``x.sum``) over :func:`edge_jaccard`'s rounds, run by
    :func:`_iterate`.  The scale shape is therefore the degree-ordered
    wedge enumeration (Suri & Vassilvitskii, WWW'11: out-degree bounded
    O(√m), so the wedge set is O(m^1.5) regardless of skew)."""

    def rounds(x, edges):
        (credits,) = x.sum(_wedge_support(x, edges), ["n_common"])
        return _int_row(x, ["n_triangles"], [credits // 3])

    return _iterate(adjacency, _simple_edges(), rounds)


def _codes(*cols) -> tuple[pa.Array, list[np.ndarray]]:
    """Order-preserving integer codes of string columns, local to one
    kernel call: the sorted distinct values ``uniq`` and, per column,
    each value's int64 index in ``uniq`` (one dictionary encode, one sort
    of the distinct values).  Codes sort as Arrow sorts the strings (by
    UTF-8 bytes), so ``i·N + j`` is a composite key that sorts as the
    string pair.  Codes mean nothing across calls — each exchange
    partition codes its own rows."""
    arrays = [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in cols]
    enc = pc.dictionary_encode(pa.concat_arrays(arrays))
    order = pc.array_sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    codes = rank[enc.indices.to_numpy(zero_copy_only=False)]
    return enc.dictionary.take(order), np.split(codes, np.cumsum([len(a) for a in arrays])[:-1])


def _attach(
    left: pa.Table, right: pa.Table, left_on: list[str], right_on: list[str], value: str, out: str
) -> pa.Table:
    """``left`` with ``out`` = the ``value`` of the ``right`` row whose
    ``right_on`` key equals the row's ``left_on`` key, null where there is
    none — one Arrow hash join, ``right`` holding at most one row per key
    (row order is not kept).  The node-keyed probe of every wedge-family
    operator: degrees, community labels and common-neighbor counts."""
    r = right.select(right_on + [value]).rename_columns(left_on + [out])
    return left.join(r, left_on, join_type="left outer")


def _degrees(x, edges):
    """(node, deg) of the (a, b) edges: endpoint counts folded per node."""
    fold = partial(_summed, keys=["node"], cols=["deg"])
    return x.groups(x.map(edges, _endpoint_degrees), ["node"], fold)


def _with_degrees(x, edges):
    """The (a, b) edges with both endpoint degrees (deg_a, deg_b)
    attached, each through one node-keyed join, and the (node, deg)
    rows."""
    deg = _degrees(x, edges)
    for end in ("a", "b"):
        attach = partial(_attach, left_on=[end], right_on=["node"], value="deg", out="deg_" + end)
        edges = x.join(edges, deg, [end], ["node"], attach)
    return edges, deg


def _orient(t: pa.Table) -> pa.Table:
    """Every (a, b, deg_a, deg_b) edge directed from the endpoint smaller
    in the (degree, node) total order, as (src, dst, ddst = deg(dst)):
    out-degrees are then O(√m) and the wedge set O(m^1.5)."""
    a, b, da, db = (t.column(c) for c in ("a", "b", "deg_a", "deg_b"))
    a_first = pc.or_(pc.less(da, db), pc.and_(pc.equal(da, db), pc.less(a, b)))
    return pa.table(
        {
            "src": pc.if_else(a_first, a, b),
            "dst": pc.if_else(a_first, b, a),
            "ddst": pc.if_else(a_first, db, da),
        }
    )


def _wedges(part: pa.Table) -> pa.Table:
    """Scatter, keyed by source: every pair of a source's out-neighbors
    as a wedge (lo, hi, apex), lo before hi in the (degree, node) order —
    the order that oriented the closing edge, so it runs lo → hi.  One
    lexsort of the coded (src, ddst, dst) rows, then the pairs of each
    source run by repeat/cumsum index arithmetic."""
    _, (src, dst) = _codes(part.column("src"), part.column("dst"))
    order = np.lexsort((dst, part.column("ddst").to_numpy(), src))
    n = len(order)
    new = np.diff(src[order], prepend=-1) != 0  # first row of each source
    ends = np.r_[np.flatnonzero(new)[1:], n]
    after = ends[np.cumsum(new) - 1] - np.arange(n) - 1  # later rows of the same source
    lo = np.repeat(np.arange(n), after)
    first = np.repeat(np.cumsum(after) - after, after)
    hi = lo + 1 + np.arange(len(lo)) - first
    dst_col, src_col = part.column("dst"), part.column("src")
    return pa.table(
        {
            "lo": dst_col.take(order[lo]),
            "hi": dst_col.take(order[hi]),
            "apex": src_col.take(order[lo]),
        }
    )


def _close(wedges: pa.Table, oriented: pa.Table) -> pa.Table:
    """The credits of the closed wedges meeting on their (lo, hi) key: a
    wedge whose (lo, hi) is an oriented edge closes a triangle — found
    once, at its lowest-ordered vertex — which credits each of its three
    edges once, keyed name-canonical (a < b), counted per edge as
    ``cn``.  Composite keys are int64 codes (:func:`_codes`)."""
    cols = [wedges.column(c) for c in ("lo", "hi", "apex")]
    cols += [oriented.column(c) for c in ("src", "dst")]
    uniq, (lo, hi, apex, src, dst) = _codes(*cols)
    n = max(len(uniq), 1)
    shut = np.isin(lo * n + hi, src * n + dst)
    lo, hi, apex = lo[shut], hi[shut], apex[shut]
    u, v = np.concatenate([lo, apex, apex]), np.concatenate([hi, lo, hi])
    key, cn = np.unique(np.minimum(u, v) * n + np.maximum(u, v), return_counts=True)
    return pa.table(
        {
            "a": uniq.take(pa.array(key // n)),
            "b": uniq.take(pa.array(key % n)),
            "cn": pa.array(cn, pa.int64()),
        }
    )


def _credit(edges: pa.Table, credits: pa.Table) -> pa.Table:
    """Fold: every edge's credits summed as ``n_common`` — 0 for a
    triangle-free edge, which has none (LEFT semantics)."""
    summed = credits.group_by(["a", "b"]).aggregate([("cn", "sum")])
    t = _attach(edges, summed, ["a", "b"], ["a", "b"], "cn_sum", "n_common")
    cn = pc.fill_null(t.column("n_common"), 0).cast(pa.int64())
    return t.set_column(t.schema.get_field_index("n_common"), "n_common", cn)


def _wedge_support(x, edges):
    """Every canonical (a, b) edge with its endpoint degrees and
    common-neighbor count (= triangles through it) as (a, b, deg_a,
    deg_b, n_common): the rounds :func:`edge_jaccard`,
    :func:`triangle_count`, :func:`clustering_coefficient` and
    :func:`ktruss` share.  Degree-ordered wedge enumeration (Suri &
    Vassilvitskii, WWW'11): degrees fold per node and attach to both
    endpoints (:func:`_with_degrees`), every edge is oriented
    (:func:`_orient`), each source's out-neighbor pairs are the wedges
    (:func:`_wedges`), the wedges meet the oriented edges on the (lo, hi)
    key and the closed ones credit their three edges (:func:`_close`),
    and the credits fold onto the edges (:func:`_credit`)."""
    edges, _ = _with_degrees(x, edges)
    oriented = x.map(edges, _orient)
    wedges = x.groups(oriented, ["src"], _wedges)
    credits = x.join(wedges, oriented, ["lo", "hi"], ["src", "dst"], _close)
    return x.join(edges, credits, ["a", "b"], ["a", "b"], _credit)


def _jaccard(t: pa.Table) -> pa.Table:
    """:func:`edge_jaccard`'s row of every supported edge: the
    micro-Jaccard ``cn / (deg_a + deg_b − cn)`` in one fixed float64
    rounding expression."""
    cn = t.column("n_common").to_numpy(zero_copy_only=False)
    da = t.column("deg_a").to_numpy(zero_copy_only=False)
    db = t.column("deg_b").to_numpy(zero_copy_only=False)
    denom = (da + db - cn).astype(np.float64)
    jacc = np.floor(cn.astype(np.float64) * 1000000.0 / denom + 0.5).astype(np.int64)
    return pa.table(
        {
            "node_a": t.column("a"),
            "node_b": t.column("b"),
            "deg_a": t.column("deg_a"),
            "deg_b": t.column("deg_b"),
            "n_common": t.column("n_common"),
            "jacc_micro": pa.array(jacc, pa.int64()),
        }
    )


def edge_jaccard(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Per-edge neighborhood similarity of the undirected simple graph
    underlying the adjacency table: for every canonical edge (a < b by
    node name) the common-neighbor count ``|N(a) ∩ N(b)|`` (= triangles
    through the edge) and the Jaccard link score ``cn / (deg_a + deg_b −
    cn)`` in integer micro-units — the classic link-prediction /
    entity-resolution feature over a constructed KG.  Sorted by (node_a,
    node_b).

    Written once against :func:`_iterate`'s executor: the
    :func:`_wedge_support` rounds over the canonical edges of
    :func:`_simple_edges`, finished per edge by :func:`_jaccard`.  Below
    the bound that is one worker call; above it every step is a keyed
    exchange (degree fold, two degree attaches, the source-keyed wedge
    scatter, the (lo, hi)-keyed closing join and the edge-keyed credit
    fold) and nothing graph-sized reaches the driver.

    :func:`triangle_count`, :func:`clustering_coefficient` and
    :func:`ktruss` run the same rounds."""
    schema = pa.schema(
        [("node_a", pa.string()), ("node_b", pa.string())]
        + [(c, pa.int64()) for c in ("deg_a", "deg_b", "n_common", "jacc_micro")]
    )

    def rounds(x, edges):
        jaccard = x.map(_wedge_support(x, edges), _jaccard)
        return x.result(jaccard, schema, [("node_a", "ascending"), ("node_b", "ascending")])

    return _iterate(adjacency, _simple_edges(), rounds)


# --- k-core: synchronized peeling to fixpoint --------------------------------

def kcore(adjacency: ray.data.Dataset, k: int = 2, max_rounds: int = 8) -> ray.data.Dataset:
    """Nodes of the ``k``-core of the undirected simple graph underlying
    the adjacency table (self-loops dropped, direction/predicates
    ignored), with each survivor's within-core degree — synchronized
    peeling: every round recomputes degrees over the surviving edges and
    removes ALL nodes under ``k`` at once, which converges to the exact
    k-core (Matula & Beck's peel, batch-synchronous).

    Per round (:func:`_iterate`): (1) endpoint counts folded per node
    for degrees, (2) two :func:`_semi_join` steps that keep only edges
    whose ``a`` / ``b`` endpoint is alive (above the bound each is one
    :func:`cogroup` — the alive set is never broadcast, so a round that
    kills 90 % of a 10¹⁰-node graph ships labels only through the keyed
    exchange).  Rounds stop at the fixpoint (a round that kills nobody)
    or after ``max_rounds``; extra rounds past the fixpoint are no-ops,
    which is what lets the SQL oracle unroll a FIXED round count and
    still compare exactly."""
    schema = pa.schema([("node", pa.string()), ("deg", pa.int64())])

    def at_least_k(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("deg"), k))

    def rounds(x, e):
        deg = _degrees(x, e)
        for _ in range(max_rounds):
            # degree rows exist only for nodes with a surviving edge
            alive = x.map(deg, at_least_k)
            if x.count(alive) == x.count(deg):
                break
            e = x.join(e, alive, ["a"], ["node"], partial(_semi_join, col="a"))
            e = x.join(e, alive, ["b"], ["node"], partial(_semi_join, col="b"))
            deg = _degrees(x, e)
        return x.result(x.map(deg, at_least_k), schema, [("node", "ascending")])

    return _iterate(adjacency, _simple_edges(), rounds)


def _endpoint_degrees(t: pa.Table) -> pa.Table:
    """Scatter of a batch of (a, b) edges: (node, deg) endpoint counts."""
    vc = pc.value_counts(_stacked(t, "a", "b"))
    return pa.table({"node": vc.field("values"), "deg": vc.field("counts").cast(pa.int64())})


def _count_degrees(t: pa.Table) -> pa.Table:
    """Scatter of a batch of (node, deg) rows: (deg, n_nodes) counts."""
    vc = pc.value_counts(t.column("deg").combine_chunks())
    return pa.table([vc.field(f).cast(pa.int64()) for f in ("values", "counts")], names=["deg", "n_nodes"])


def _degree_hist(x, edges):
    """(deg, n_nodes) of the (a, b) edges: degrees folded per node
    (:func:`_degrees`), then nodes counted per degree — the rounds
    :func:`degree_histogram` and :func:`power_law_alpha` share."""
    fold = partial(_summed, keys=["deg"], cols=["n_nodes"])
    return x.groups(x.map(_degrees(x, edges), _count_degrees), ["deg"], fold)


def degree_histogram(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Degree distribution of the undirected simple KG entity graph
    (the power-law / hub-skew diagnostic that sizes every other graph
    operator's partitioning): for each degree value, how many nodes have
    it, sorted by degree.

    Written once against :func:`_iterate`'s executor over the canonical
    edges of :func:`_simple_edges`: endpoint counts folded per node,
    then per-batch (deg → node count) partials folded per degree
    (:func:`_degree_hist`); above the bound two keyed folds, output
    ≤ max-degree rows."""
    schema = pa.schema([("deg", pa.int64()), ("n_nodes", pa.int64())])

    def rounds(x, edges):
        return x.result(_degree_hist(x, edges), schema, [("deg", "ascending")])

    return _iterate(adjacency, _simple_edges(), rounds)


def _pred_tallies() -> _Prep:
    """Per-node metapath partials of the directed KG: every adjacency row
    as an in-edge at its head (side 0) and an out-edge at its tail
    (side 1), counted per (node, side, pred) in each batch; the
    node-keyed reduce sums a node's tallies and emits its in-pred ×
    out-pred cross product as (p1, p2, n_paths), pre-summed per
    partition — one Arrow hash join on the node, so a hub with 10⁶ in ×
    10⁶ out edges yields |preds|² rows, never its 10¹² paths."""
    keys = ["node", "side", "pred"]

    def combine(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "node": _stacked(batch, "dst_id", "src_id"),
                "side": _sides(batch.num_rows),
                "pred": _stacked(batch, "pred", "pred"),
            }
        )
        return t.group_by(keys).aggregate([([], "count_all")]).rename_columns(keys + ["n"])

    def cross(part: pa.Table) -> pa.Table:
        g = part.group_by(keys).aggregate([("n", "sum")])
        ins, outs = (
            g.filter(pc.equal(g.column("side"), s))
            .select(["node", "pred", "n_sum"])
            .rename_columns(["node", "p" + str(s + 1), "n" + str(s + 1)])
            for s in (0, 1)
        )
        j = ins.join(outs, "node", join_type="inner")
        n_paths = pc.multiply(j.column("n1"), j.column("n2"))
        paths = pa.table({"p1": j.column("p1"), "p2": j.column("p2"), "n_paths": n_paths})
        return _summed(paths, ["p1", "p2"], ["n_paths"])

    schema = pa.schema([("p1", pa.string()), ("p2", pa.string()), ("n_paths", pa.int64())])
    return _Prep(["node"], combine, cross, schema)


def pred_bigrams(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Two-hop metapath counts over the directed KG: for every ordered
    predicate pair (p1, p2), how many paths a —p1→ b —p2→ c exist — the
    schema-induction / relation-composition statistic (which relations
    chain through shared entities).  Sorted by (p1, p2).

    Written on :func:`_iterate`'s executor: the prep
    (:func:`_pred_tallies`) is the one node-keyed fold whose reduce
    crosses each middle node's in- and out-predicate tallies, and one
    (p1, p2)-keyed fold sums the path counts — no row-level join ever
    enumerates the paths themselves."""
    prep = _pred_tallies()

    def rounds(x, paths):
        sums = x.groups(paths, ["p1", "p2"], partial(_summed, keys=["p1", "p2"], cols=["n_paths"]))
        return x.result(sums, prep.schema, [("p1", "ascending"), ("p2", "ascending")])

    return _iterate(adjacency, prep, rounds)


# --- multi-source BFS: hop distance from hash-seeded landmarks ---------------

def _undirected_both_dirs(weighted: bool = False) -> _Prep:
    """:func:`_simple_edges` in BOTH directions as (u, v) rows (plus the
    pair's summed weight ``w`` when ``weighted``), mirrored in the same
    reduce — the static probe side shared by :func:`bfs_hops`,
    :func:`sssp_hops`, :func:`label_propagation` and
    :func:`harmonic_centrality`."""
    simple = _simple_edges(weighted)

    def mirror(t: pa.Table) -> pa.Table:
        a, b = t.column("a").combine_chunks(), t.column("b").combine_chunks()
        out = {"u": pa.concat_arrays([a, b]), "v": pa.concat_arrays([b, a])}
        if weighted:
            w = t.column("w").combine_chunks()
            out["w"] = pa.concat_arrays([w, w])
        return pa.table(out)

    schema = _UV_SCHEMA.append(pa.field("w", pa.int64())) if weighted else _UV_SCHEMA
    return _Prep(simple.key, simple.combine, lambda part: mirror(simple.reduce(part)), schema)


def bfs_seed_mask(nodes: "pa.Array | pa.ChunkedArray", pct: int) -> pa.Array:
    """Deterministic landmark selection: node is a BFS source iff its
    md5('seed:'+node) bucket < ``pct`` of 100 — the same cross-engine
    md5-bucket rule every sampling oracle replays
    (``CAST(('0x'||substr(md5('seed:'||node),1,8)) AS UBIGINT) % 100``)."""
    import hashlib

    return pa.array(
        [
            int(hashlib.md5(("seed:" + s).encode()).hexdigest()[:8], 16) % 100 < pct
            for s in nodes.to_pylist()
        ],
        pa.bool_(),
    )


def _min_plus_hops(
    adjacency: ray.data.Dataset,
    seed_mask: "callable",
    rounds: int,
    weighted: bool,
) -> ray.data.Dataset:
    """Synchronous multi-source min-plus relaxation over the undirected
    KG entity graph, shared by :func:`bfs_hops` (edge length 1) and
    :func:`sssp_hops` (edge length = the pair's summed weight):
    ``dist'(v) = min(dist(v), min_u dist(u) + len(u, v))`` for exactly
    ``rounds`` rounds from the nodes ``seed_mask(nodes)`` selects.
    Returns (node, dist) for every reached node, sorted by node.

    Relaxation is MONOTONE (min of ints), so a fixed round count is
    deterministic at any partitioning, a fixed-depth SQL unroll compares
    exactly, and rounds past convergence are no-ops.  Each round
    (:func:`_iterate`) is a :func:`_relax` scatter of the distance rows
    over the static mirrored edges — (neighbor, dist + len) candidates
    pre-combined per partition — and a :func:`_fold_min` into the
    running distances."""
    def seeds(part: pa.Table) -> pa.Table:
        # node set = distinct u of the mirrored table (covers every
        # endpoint); distinct-per-partition is exact, the groups are keyed by u
        nodes = pc.unique(part.column("u").combine_chunks())
        picked = nodes.filter(seed_mask(nodes))
        return pa.table({"node": picked, "dist": pa.array(np.zeros(len(picked), np.int64))})

    scatter = partial(_relax, keys=["node"], weighted=weighted)
    fold = partial(_fold_min, keys=["node"])

    def relax_rounds(x, edges):
        dist = x.groups(edges, ["u"], seeds)
        for _ in range(rounds):
            cand = x.join(edges, dist, ["u"], ["node"], scatter)
            dist = x.join(dist, cand, ["node"], ["node"], fold)
        return x.result(dist, _DIST_SCHEMA, [("node", "ascending")])

    return _iterate(adjacency, _undirected_both_dirs(weighted), relax_rounds)


def _relax(edges: pa.Table, dist: pa.Table, keys: list[str], weighted: bool = False) -> pa.Table:
    """Scatter: every edge (u, v) meets each distance row of u — one per
    key of ``keys`` beyond ``node``, the landmark ``seed`` of
    :func:`harmonic_centrality` — in one Arrow hash join, and offers v
    that row's dist + len (len = ``w`` when ``weighted``, else 1),
    min-combined per (v, key)."""
    j = edges.join(dist, "u", right_keys="node", join_type="inner")
    cand = pa.table(
        {
            "node": j.column("v"),
            **{c: j.column(c) for c in keys[1:]},
            "dist": pc.add(j.column("dist"), j.column("w") if weighted else 1),
        }
    )
    return cand.group_by(keys).aggregate([("dist", "min")]).rename_columns(keys + ["dist"])


def _fold_min(state: pa.Table, cand: pa.Table, keys: list[str]) -> pa.Table:
    """Fold: the running distances ∪ the candidates, min dist per ``keys``."""
    both = pa.concat_tables([state.select(keys + ["dist"]), cand.select(keys + ["dist"])])
    return both.group_by(keys).aggregate([("dist", "min")]).rename_columns(keys + ["dist"])


def bfs_hops(
    adjacency: ray.data.Dataset,
    seed_pct: int = 5,
    max_hops: int = 6,
    seeds: list[str] | None = None,
) -> ray.data.Dataset:
    """Multi-source BFS hop distance over the undirected KG entity graph
    (the landmark-distance feature of graph ML / KG QA: how many hops is
    each entity from the nearest seed): sources are the deterministic
    md5-bucket ``seed_pct``% of nodes, or exactly the ``seeds`` nodes
    when given; output is (node, dist) for every node REACHED within
    ``max_hops`` (unreached nodes carry no row — distance ∞ stays
    implicit, never materialized).

    The min-plus relaxation of :func:`_min_plus_hops` with every edge of
    length 1."""
    if seeds is not None:  # explicit single/few-source mode
        chosen = pa.array(sorted(seeds), pa.string())

        def seed_mask(nodes):
            return pc.is_in(nodes, value_set=chosen)

    else:

        def seed_mask(nodes):
            return bfs_seed_mask(nodes, seed_pct)

    return _min_plus_hops(adjacency, seed_mask, max_hops, weighted=False)


# --- synchronous label propagation: community detection -----------------------

def label_propagation(adjacency: ray.data.Dataset, rounds: int = 3) -> ray.data.Dataset:
    """Community detection by SYNCHRONOUS label propagation over the
    undirected KG entity graph (Raghavan et al. 2007, the near-linear
    community baseline): every node starts as its own community; each
    round every node adopts the most frequent label among its neighbors,
    ties broken by lexicographically smallest label.  Exactly ``rounds``
    rounds run — the synchronous update plus deterministic tie-break
    makes the result independent of partitioning and block order, and a
    fixed-depth SQL unroll (join → count → windowed argmax per round)
    replays it exactly.

    Per round (:func:`_iterate`): a :func:`_tally` scatter of the labels
    through the static mirrored edges — (neighbor, label) tallies
    pre-combined per partition — and an :func:`_adopt` fold, a
    vectorized sort + first-of-run argmax per node (the grouped-MODE
    kernel, no per-node dispatch).  Exchange volume is O(edges) tallies
    per round, the LPA lower bound."""
    def init_labels(part: pa.Table) -> pa.Table:
        nodes = pc.unique(part.column("u").combine_chunks())
        return pa.table({"node": nodes, "community": nodes})

    def propagate(x, edges):
        labels = x.groups(edges, ["u"], init_labels)
        for _ in range(rounds):
            tallies = x.join(edges, labels, ["u"], ["node"], _tally)
            labels = x.join(labels, tallies, ["node"], ["node"], _adopt)
        schema = pa.schema([("node", pa.string()), ("community", pa.string())])
        return x.result(labels, schema, [("node", "ascending")])

    return _iterate(adjacency, _undirected_both_dirs(), propagate)


def _tally(edges: pa.Table, labels: pa.Table) -> pa.Table:
    """Scatter: every edge (u, v) offers v the label of u, counted per
    (node, community) as ``cnt``."""
    pos = pc.index_in(edges.column("u"), value_set=labels.column("node").combine_chunks())
    t = pa.table(
        {
            "node": edges.column("v"),
            "community": pc.take(labels.column("community"), pos),
        }
    ).filter(pc.is_valid(pos))
    g = t.group_by(["node", "community"]).aggregate([([], "count_all")])
    return g.rename_columns(["node", "community", "cnt"])


def _adopt(labels: pa.Table, tallies: pa.Table) -> pa.Table:
    """Fold: every node adopts its most frequent offered label, ties to
    the lexicographically smallest; a node offered none keeps its own."""
    g = tallies.group_by(["node", "community"]).aggregate([("cnt", "sum")])
    s = g.sort_by([("node", "ascending"), ("cnt_sum", "descending"), ("community", "ascending")])
    n = s.column("node").to_numpy(zero_copy_only=False)
    best = s.filter(pa.array(np.r_[True, n[1:] != n[:-1]][: len(n)]))
    pos = pc.index_in(labels.column("node"), value_set=best.column("node").combine_chunks())
    won = pc.take(best.column("community"), pos)
    return labels.set_column(
        labels.schema.get_field_index("community"),
        "community",
        pc.if_else(pc.is_valid(pos), won, labels.column("community")),
    )


# --- deterministic random walks: the DeepWalk corpus generator ---------------

def _walk_starts(part: pa.Table) -> pa.Table:
    """One walk per distinct source node u: (walk_id = node, node)."""
    nodes = pc.unique(part.column("u").combine_chunks())
    return pa.table({"walk_id": nodes, "node": nodes})


def _walks(x, edges, walk_len: int):
    """The walk corpus of :func:`random_walks` as (walk_id, node, step)
    rows: every source starts a walk at step 0 and each step is one
    :func:`_walk_step` join of the frontier with the (u, v) edges."""

    def stamp(t: int):
        return lambda b: b.append_column("step", pa.array(np.full(b.num_rows, t, np.int64)))

    frontier = x.groups(edges, ["u"], _walk_starts)
    steps = [x.map(frontier, stamp(0))]
    for t in range(1, walk_len + 1):
        if not x.count(frontier):
            break
        frontier = x.join(edges, frontier, ["u"], ["node"], partial(_walk_step, t=t))
        steps.append(x.map(frontier, stamp(t)))
    return x.concat(steps)


def random_walks(adjacency: ray.data.Dataset, walk_len: int = 4) -> ray.data.Dataset:
    """DeepWalk-style random-walk corpus over the DIRECTED KG (Perozzi et
    al. 2014 — the sentence generator that turns a graph into skip-gram
    training data): every distinct source node starts one walk
    (walk_id = start node); at step t the walk at node c moves to
    ``sorted_out_neighbors(c)[ md5_u64(walk_id|c|t) % outdeg(c) ]`` and a
    walk at a node with no out-edges ends.  The neighbor choice is a pure
    hash — no RNG state — so the walk set is identical at any
    parallelism AND exactly replayable in SQL (row_number over sorted
    neighbors joined on the same md5-mod index).

    Each step (:func:`_walks`, run by :func:`_iterate`) the frontier
    (walk_id, node) meets the
    distinct (u, v) edges of :func:`_directed_edges` in one
    :func:`_walk_step` join on the node key, which finds each node's
    neighbor run with TWO searchsorted calls and gathers the picked
    neighbor by index arithmetic — the only per-row Python is the md5
    draw itself (one digest per live walk per step, the portable-hash
    price every md5-keyed oracle pays).  Frontier volume is ≤ n_walks
    rows per step."""
    schema = pa.schema([("walk_id", pa.string()), ("step", pa.int64()), ("node", pa.string())])

    def rounds(x, edges):
        sort_keys = [("walk_id", "ascending"), ("step", "ascending")]
        return x.result(_walks(x, edges, walk_len), schema, sort_keys)

    return _iterate(adjacency, _directed_edges(), rounds)


def _md5_u64(keys) -> np.ndarray:
    """The first 64 bits of md5(key) for each key string, as Python ints
    in an object array (a 64-bit md5 int % np.int64 would silently
    promote to float64 and corrupt the low bits)."""
    import hashlib

    return np.array([int(hashlib.md5(k.encode()).hexdigest()[:16], 16) for k in keys], object)


def _walk_step(edges: pa.Table, frontier: pa.Table, t: int) -> pa.Table:
    """Step ``t`` of every walk in ``frontier`` (walk_id, node): the walk
    at node c moves to ``sorted_out_neighbors(c)[md5_u64(walk_id|c|t) %
    outdeg(c)]``; a walk at a node with no out-edges ends."""
    fe = edges.sort_by([("u", "ascending"), ("v", "ascending")])
    eu = fe.column("u").to_numpy(zero_copy_only=False).astype(str)
    cur = frontier.column("node").to_numpy(zero_copy_only=False).astype(str)
    wid = frontier.column("walk_id").to_numpy(zero_copy_only=False).astype(str)
    lo = np.searchsorted(eu, cur, side="left")
    deg = np.searchsorted(eu, cur, side="right") - lo
    alive = deg > 0
    cur, wid, lo, deg = cur[alive], wid[alive], lo[alive], deg[alive]
    draw = _md5_u64([f"{w}|{c}|{t}" for w, c in zip(wid, cur)])
    idx = (draw % deg.astype(object)).astype(np.int64)
    return pa.table(
        {
            "walk_id": pa.array(wid, pa.string()),
            "node": fe.column("v").take(pa.array(lo + idx, pa.int64())),
        }
    )


def _cooccurrences(part: pa.Table, window: int) -> pa.Table:
    """The (center, context, n) pair counts of the whole walks in
    ``part``: each walk's steps are one sorted run and every offset
    d ≤ ``window`` is a boundary-masked vectorized shift, emitting both
    directions, pre-summed per pair."""
    s = part.sort_by([("walk_id", "ascending"), ("step", "ascending")])
    wid = s.column("walk_id").to_numpy(zero_copy_only=False).astype(str)
    node = s.column("node").to_numpy(zero_copy_only=False)
    cs, xs = [], []
    for d in range(1, min(window, len(wid) - 1) + 1):
        same = wid[d:] == wid[:-d]  # steps are contiguous per walk
        a, b = node[:-d][same], node[d:][same]
        cs += [a, b]
        xs += [b, a]
    t = pa.table(
        {
            "center": pa.array(np.concatenate(cs) if cs else [], pa.string()),
            "context": pa.array(np.concatenate(xs) if xs else [], pa.string()),
        }
    )
    g = t.group_by(["center", "context"]).aggregate([([], "count_all")])
    return g.rename_columns(["center", "context", "n"])


def walk_pairs(
    adjacency: ray.data.Dataset, walk_len: int = 4, window: int = 2
) -> ray.data.Dataset:
    """Skip-gram training pairs from the deterministic walk corpus (the
    DeepWalk co-occurrence statistic: which entities appear within
    ``window`` steps of each other on random walks — the input
    distribution :func:`kg_node_embeddings` factorizes): for every
    ordered pair of positions on the same walk at step distance
    1..window, one (center, context) count.  Sorted by (center, context).

    :func:`random_walks`' step rounds (:func:`_walks`) continued in the
    same :func:`_iterate` call: one walk_id-keyed fold turns whole walks
    into pre-summed pair counts (:func:`_cooccurrences`) and one
    (center, context)-keyed fold sums them, so above the bound the
    exchanges carry distinct-pair counts, not pair instances.  Exactly
    replayable in SQL (self-join on walk_id with |Δstep| ≤ window over
    the walk replay)."""
    schema = pa.schema([("center", pa.string()), ("context", pa.string()), ("n", pa.int64())])

    def rounds(x, edges):
        walks = _walks(x, edges, walk_len)
        pairs = x.groups(walks, ["walk_id"], partial(_cooccurrences, window=window))
        keys = ["center", "context"]
        sums = x.groups(pairs, keys, partial(_summed, keys=keys, cols=["n"]))
        return x.result(sums, schema, [("center", "ascending"), ("context", "ascending")])

    return _iterate(adjacency, _directed_edges(), rounds)


def kg_node_embeddings(
    adjacency: ray.data.Dataset,
    dim: int = 16,
    walk_len: int = 8,
    window: int = 2,
    epochs: int = 5,
    lr: float = 0.05,
    neg: int = 5,
    seed: int = 7,
    n_shards: int | None = None,
) -> tuple[list[str], np.ndarray]:
    """DeepWalk KG entity embeddings (Perozzi et al. 2014): deterministic
    random walks → skip-gram pairs → SGNS — the graph-representation
    pipeline a KG engine feeds to link-prediction / clustering consumers.
    Returns (nodes, [V, dim] float32) in sorted-node order.

    Reuses the engine's proven SGNS machinery end-to-end
    (functions/training.py train_skipgram / train_skipgram_sharded —
    the same code path the SemEval embedding-init lever runs): pair
    generation is fully distributed (:func:`walk_pairs`, SQL-oracle-
    exact); the default fit collects the DISTINCT-pair count table
    (bounded by co-occurring entity pairs, not walk volume) and runs the
    deterministic driver SGNS over the expanded multiset; ``n_shards``
    switches to the parameter-averaged object-store path for vocabularies
    that dwarf driver memory.  The entity vocabulary is O(V·dim) driver
    state — the same budget as the T5 word2vec broadcast table."""
    from .training import train_skipgram

    pairs = walk_pairs(adjacency, walk_len=walk_len, window=window)
    rows = pairs.take_all()  # distinct weighted pairs, pre-combined
    nodes = sorted({r["center"] for r in rows} | {r["context"] for r in rows})
    node2id = {n: i for i, n in enumerate(nodes)}
    if not rows:
        return nodes, np.zeros((0, dim), np.float32)
    centers = np.repeat(
        np.array([node2id[r["center"]] for r in rows], np.int64),
        np.array([r["n"] for r in rows], np.int64),
    )
    contexts = np.repeat(
        np.array([node2id[r["context"]] for r in rows], np.int64),
        np.array([r["n"] for r in rows], np.int64),
    )
    emb = train_skipgram(
        centers, contexts, len(nodes), dim=dim, epochs=epochs, neg=neg, lr=lr, seed=seed
    )
    return nodes, emb


# --- weighted SSSP: Bellman-Ford relaxation from the BFS landmarks -----------

def sssp_hops(
    adjacency: ray.data.Dataset, seed_pct: int = 5, rounds: int = 6
) -> ray.data.Dataset:
    """Weighted single-source-set shortest paths (synchronous
    Bellman-Ford) over the undirected KG entity graph: edge length is the
    summed mention weight between the pair (both directions), sources are
    the same md5-bucket landmark set as :func:`bfs_hops`, and each round
    relaxes ``dist'(v) = min(dist(v), min_u dist(u) + w(u,v))``.  All
    integer, monotone min — exactly ``rounds`` rounds run, a fixed-depth
    SQL unroll compares exactly, extra rounds past convergence are
    no-ops.  The same :func:`_min_plus_hops` relaxation as bfs_hops,
    with the weight riding the mirrored edge rows."""
    return _min_plus_hops(
        adjacency, lambda nodes: bfs_seed_mask(nodes, seed_pct), rounds, weighted=True
    )


# --- GNN minibatch sampling: k-hop deterministic fanout ----------------------

def fanout_sample(
    adjacency: ray.data.Dataset,
    seed_pct: int = 5,
    fanouts: tuple[int, ...] = (3, 2),
) -> ray.data.Dataset:
    """GraphSAGE-style k-hop neighborhood sampling (Hamilton et al. 2017
    — the minibatch subgraph generator of every sampled-GNN trainer):
    starting from the md5-bucket seed entities, hop h keeps at most
    ``fanouts[h]`` out-neighbors per frontier node — the neighbors with
    the SMALLEST md5_u64('fan:'+u+'|'+v+'|'+h) — and emits the sampled
    edges (hop, src, dst).  The per-(edge, hop) hash makes the sample a
    pure function of the graph: reproducible at any parallelism and
    exactly replayable in SQL (row_number over the hash ≤ fanout).
    Frontier dedup per hop keeps the expansion set-valued (a node
    reached twice expands once).

    Each hop (:func:`_iterate`) the frontier meets the distinct directed
    edges of :func:`_directed_edges` in one :func:`_fanout_hop` join on
    the node key, which finds each node's run with two searchsorted
    calls, ranks candidates by the md5 edge hash and keeps rank ≤
    fanout; the picked destinations are the next frontier (the join
    brings a node's duplicates together, where the hop kernel dedups
    them).  Emitted edges are ≤ |frontier|·fanout by construction (the
    sampling bound that makes 10¹²-edge graphs trainable)."""
    schema = pa.schema([("hop", pa.int64()), ("src", pa.string()), ("dst", pa.string())])

    def seeds(part: pa.Table) -> pa.Table:
        nodes = pc.unique(part.column("u").combine_chunks())
        return pa.table({"node": nodes.filter(bfs_seed_mask(nodes, seed_pct))})

    def next_frontier(t: pa.Table) -> pa.Table:
        return pa.table({"node": pc.unique(t.column("dst").combine_chunks())})

    def sample(x, edges):
        frontier = x.groups(edges, ["u"], seeds)
        hops = []
        for h, f in enumerate(fanouts):
            hop = partial(_fanout_hop, h=h, fanout=f)
            hops.append(x.join(edges, frontier, ["u"], ["node"], hop))
            frontier = x.map(hops[-1], next_frontier)
        sort_keys = [("hop", "ascending"), ("src", "ascending"), ("dst", "ascending")]
        return x.result(x.concat(hops), schema, sort_keys)

    return _iterate(adjacency, _directed_edges(), sample)


def _fanout_hop(edges: pa.Table, frontier: pa.Table, h: int, fanout: int) -> pa.Table:
    """Hop ``h`` from the distinct frontier nodes: each keeps its
    ``fanout`` out-neighbors of smallest md5_u64('fan:'+u+'|'+v+'|'+h)
    (ties by name) as (hop, src, dst) rows."""
    fe = edges.sort_by([("u", "ascending"), ("v", "ascending")])
    eu = fe.column("u").to_numpy(zero_copy_only=False).astype(str)
    ev = fe.column("v").to_numpy(zero_copy_only=False).astype(str)
    cur = np.unique(frontier.column("node").to_numpy(zero_copy_only=False).astype(str))
    lo = np.searchsorted(eu, cur, side="left")
    hi = np.searchsorted(eu, cur, side="right")
    src, dst = [], []
    # per frontier node: rank its run by the edge hash, keep top-f (runs
    # are outdeg-sized; one md5 per candidate edge of the frontier only)
    for c, a, b in zip(cur, lo, hi):
        cand = ev[a:b]
        hs = _md5_u64([f"fan:{c}|{x}|{h}" for x in cand]).astype(np.uint64)
        picked = cand[np.lexsort((cand, hs))[:fanout]]
        src += [c] * len(picked)
        dst += picked.tolist()
    return pa.table(
        {
            "hop": pa.array(np.full(len(src), h, np.int64)),
            "src": pa.array(src, pa.string()),
            "dst": pa.array(dst, pa.string()),
        }
    )


def _modularity_row(m: int, sum_mc: int, sd2: int, n_comm: int) -> list[int]:
    """:func:`modularity`'s one row from its integer sufficient stats:
    Q = (4·m·Σm_c − ΣD_c²) / (4m²) in the fixed IEEE final form."""
    q_nano = int(math.floor((4 * m * sum_mc - sd2) / (4 * m * m) * 1e9 + 0.5)) if m > 0 else 0
    return [m, n_comm, q_nano]


def _community_partials(t: pa.Table) -> pa.Table:
    """Scatter of labeled (a, b, ca, cb) edges — an unlabeled endpoint is
    its own community — to (c, d, mc) counters per community: d the
    endpoint count, mc the intra-community edges."""
    ca = pc.coalesce(t.column("ca").cast(pa.string()), t.column("a"))
    cb = pc.coalesce(t.column("cb").cast(pa.string()), t.column("b"))
    same = pc.equal(ca, cb).cast(pa.int64()).combine_chunks()
    t = pa.table(
        {
            "c": pa.concat_arrays([ca.combine_chunks(), cb.combine_chunks()]),
            "d": pa.array(np.ones(2 * len(same), np.int64)),
            "mc": pa.concat_arrays([same, pa.array(np.zeros(len(same), np.int64))]),
        }
    )
    return _summed(t, ["c"], ["d", "mc"])


def _community_sums(t: pa.Table) -> pa.Table:
    """Fold: each community's (c, d, mc) counters summed, with ``d2`` =
    d²."""
    g = t.group_by("c").aggregate([("d", "sum"), ("mc", "sum")])
    d = g.column("d_sum").to_numpy()
    return pa.table(
        {"c": g.column("c"), "d": g.column("d_sum"), "mc": g.column("mc_sum"), "d2": pa.array(d * d)}
    )


def modularity(
    adjacency: ray.data.Dataset, communities: ray.data.Dataset
) -> ray.data.Dataset:
    """Newman modularity Q of a community assignment over the undirected
    simple KG entity graph — the partition-quality number that tells you
    whether :func:`label_propagation` found structure or noise:
    Q = Σ_c (m_c/m − (D_c/2m)²) with m the undirected edge count, m_c
    the intra-community edges and D_c the community's degree sum.
    Computed EXACTLY as the rational (4·m·Σm_c − ΣD_c²) / (4m²) from
    integer sufficient statistics, one fixed IEEE final form
    (floor(num/den·1e9 + 0.5)).  Output one row:
    (n_edges, n_communities, q_nano).

    Written once against :func:`_iterate`'s executor, with the
    (node, community) rows as its side input: the labels attach to the
    canonical (a, b) edges through two node-keyed joins (above the bound
    :func:`cogroup` exchanges — the label table is never broadcast),
    per-batch partials fold every labeled edge to (c, d, m_c) counters,
    one community-keyed fold sums them and one scalar sum gives m, Σm_c
    and ΣD_c²."""

    def rounds(x, edges, comm):
        for end in ("a", "b"):
            label = partial(_attach, left_on=[end], right_on=["node"], value="community", out="c" + end)
            edges = x.join(edges, comm, [end], ["node"], label)
        per_c = x.groups(x.map(edges, _community_partials), ["c"], _community_sums)
        d, mc, d2 = x.sum(per_c, ["d", "mc", "d2"])
        row = _modularity_row(d // 2, mc, d2, x.count(per_c))
        return _int_row(x, ["n_edges", "n_communities", "q_nano"], row)

    return _iterate(adjacency, _simple_edges(), rounds, communities)


def _assortativity_row(n: int, sx: int, sxx: int, sxy: int, n_nodes: int) -> list[int]:
    """:func:`degree_assortativity`'s one row from its integer sufficient
    sums, finished with exact Python ints and the fixed IEEE form."""
    num = n * sxy - sx * sx
    a = n * sxx - sx * sx  # = b (symmetric multiset)
    if a > 0:
        r = float(num) / (np.sqrt(float(a)) * np.sqrt(float(a)))
        r_nano = int(math.floor(r * 1e9 + 0.5))
    else:
        r_nano = 0
    return [n // 2, n_nodes, r_nano]


def _degree_moments(t: pa.Table) -> pa.Table:
    """Scatter: one row of :func:`degree_assortativity`'s integer sums
    over a batch of (deg_a, deg_b) edges, both orientations of each."""
    x = t.column("deg_a").to_numpy(zero_copy_only=False)
    y = t.column("deg_b").to_numpy(zero_copy_only=False)
    sums = {"n": 2 * len(x), "sx": x.sum() + y.sum(), "sxx": (x * x).sum() + (y * y).sum()}
    sums["sxy"] = 2 * (x * y).sum()
    return pa.table({k: pa.array([int(v)], pa.int64()) for k, v in sums.items()})


def degree_assortativity(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Newman degree assortativity r of the undirected simple KG entity
    graph — the hub-mixing diagnostic (do high-degree entities link to
    other hubs, r > 0, or to leaves, r < 0?) that predicts whether the
    canonicalize/groupby stages face correlated or dispersed skew.
    r is the Pearson correlation of (deg u, deg v) over the DIRECTED
    pair multiset containing both orientations of every undirected
    edge; that multiset is symmetric, so Σx = Σy and Σx² = Σy² and the
    whole statistic reduces to three integer sufficient sums over the
    canonical (a < b) edge set:
    n = 2m, sx = Σ(da+db), sxx = Σ(da²+db²), sxy = 2Σ(da·db),
    finished once with arbitrary-precision ints in the corr_price_qty
    fixed IEEE form — floor(num/(√a·√b)·1e9+0.5) — so the result is
    bit-exact against the HUGEINT SQL replay.  Output one row:
    (n_edges, n_nodes, r_nano); a degree-regular graph (zero variance)
    reports r_nano = 0 by convention.

    Written once against :func:`_iterate`'s executor: degrees fold per
    node and attach to both endpoints (:func:`_with_degrees`, shared
    with :func:`edge_jaccard`; above the bound keyed exchanges, the
    degree table never broadcast), each batch folds to ONE integer
    4-tuple (:func:`_degree_moments`) and one scalar sum adds them."""

    def rounds(x, edges):
        edges, deg = _with_degrees(x, edges)
        sums = x.sum(x.map(edges, _degree_moments), ["n", "sx", "sxx", "sxy"])
        row = _assortativity_row(*sums, x.count(deg))
        return _int_row(x, ["n_edges", "n_nodes", "r_nano"], row)

    return _iterate(adjacency, _simple_edges(), rounds)


def _endpoint_triangles(t: pa.Table) -> pa.Table:
    """Scatter of supported (a, b, deg_a, deg_b, n_common) edges to
    their two endpoints: per node Σcn and its degree."""
    cn = t.column("n_common").combine_chunks()
    ends = pa.table(
        {
            "node": _stacked(t, "a", "b"),
            "deg": _stacked(t, "deg_a", "deg_b"),
            "cn": pa.concat_arrays([cn, cn]),
        }
    )
    g = ends.group_by("node").aggregate([("cn", "sum"), ("deg", "max")])
    return g.rename_columns(["node", "cn", "deg"])


def _clustering(t: pa.Table) -> pa.Table:
    """Fold: per node Σcn = 2·t(v) and ``C(v) = 2·t(v) / (deg·(deg−1))``
    in exact integer milli-units, ``(2000·Σcn + d) // (2d)`` with
    d = deg·(deg−1) (0 where d = 0)."""
    g = t.group_by("node").aggregate([("cn", "sum"), ("deg", "max")])
    cn = g.column("cn_sum").to_numpy()
    deg = g.column("deg_max").to_numpy()
    d = deg * (deg - 1)
    coef = np.where(d > 0, (2000 * cn + d) // np.maximum(2 * d, 1), 0)
    return pa.table(
        {
            "node": g.column("node"),
            "deg": pa.array(deg, pa.int64()),
            "n_tri": pa.array(cn // 2, pa.int64()),
            "coef_milli": pa.array(coef, pa.int64()),
        }
    )


def clustering_coefficient(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Per-node local clustering coefficient of the undirected simple
    KG entity graph — for each node its degree, triangle count and
    ``C(v) = 2·t(v) / (deg·(deg−1))`` in exact integer milli-units (the
    neighborhood-density score that separates tight entity communities
    from hub spokes; deg ≤ 1 reports 0 by convention).  Sorted by node.

    Composition, not new machinery: :func:`_wedge_support` gives
    per-edge common-neighbor counts (= triangles through the edge); each
    triangle through v is counted by exactly its TWO incident edges at
    v, so Σ_{u∈N(v)} cn(v,u) = 2·t(v).  Each edge row scatters to its
    two endpoints with per-batch partials (:func:`_endpoint_triangles`)
    and ONE node-keyed fold finishes (:func:`_clustering`), all run by
    :func:`_iterate`; the milli rounding is pure integer arithmetic, so
    the SQL replay is value-exact.  Isolated nodes never appear (no
    edges)."""
    schema = pa.schema(
        [("node", pa.string())] + [(c, pa.int64()) for c in ("deg", "n_tri", "coef_milli")]
    )

    def rounds(x, edges):
        ends = x.map(_wedge_support(x, edges), _endpoint_triangles)
        return x.result(x.groups(ends, ["node"], _clustering), schema, [("node", "ascending")])

    return _iterate(adjacency, _simple_edges(), rounds)


def _directed_pairs() -> _Prep:
    """Distinct directed edges of the KG (self-loops dropped, predicates
    collapsed) as canonical (a < b) pairs with direction bits ``fwd``
    (a → b) and ``rev`` (b → a), ORed (max) over the pair's rows — in
    each batch, then in the one (a, b)-keyed reduce."""

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by(["a", "b"]).aggregate([("fwd", "max"), ("rev", "max")])
        return g.rename_columns(["a", "b", "fwd", "rev"])

    def combine(batch: pa.Table) -> pa.Table:
        u, v = (batch.column(c).cast(pa.string()) for c in ("src_id", "dst_id"))
        keep = pc.invert(pc.equal(u, v))
        u, v = u.filter(keep), v.filter(keep)
        lt = pc.less(u, v)
        ends = {"a": pc.min_element_wise(u, v), "b": pc.max_element_wise(u, v)}
        return fold(pa.table({**ends, "fwd": lt.cast(pa.int64()), "rev": pc.invert(lt).cast(pa.int64())}))

    schema = pa.schema([(c, pa.string()) for c in "ab"] + [(c, pa.int64()) for c in ("fwd", "rev")])
    return _Prep(["a", "b"], combine, lambda part: fold(part.select(schema.names)), schema)


def reciprocity(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Edge reciprocity of the directed simple KG graph (self-loops
    dropped, predicates collapsed): the fraction of distinct directed
    edges whose reverse edge also exists — the does-linking-run-both-ways
    diagnostic that separates citation-shaped KGs from social-shaped
    ones.  One row: (n_directed, n_reciprocated, reciprocity_milli) with
    the exact integer rounding floor(1000·r/d + 0.5) = (2000·r + d) //
    (2d).

    Written on :func:`_iterate`'s executor: the prep
    (:func:`_directed_pairs`) folds each pair's direction bits, and one
    scalar sum (``x.sum``) counts the directed edges d; every pair has
    at least one bit, so d − (pairs) pairs have both and r is twice
    that."""

    def rounds(x, pairs):
        d = sum(x.sum(pairs, ["fwd", "rev"]))
        r = 2 * (d - x.count(pairs))
        milli = (2000 * r + d) // (2 * d) if d > 0 else 0
        return _int_row(x, ["n_directed", "n_reciprocated", "reciprocity_milli"], [d, r, milli])

    return _iterate(adjacency, _directed_pairs(), rounds)


def harmonic_centrality(
    adjacency: ray.data.Dataset, seed_pct: int = 5, max_hops: int = 4
) -> ray.data.Dataset:
    """Landmark-approximated harmonic centrality over the undirected
    simple KG entity graph: every md5-bucket landmark runs a BFS and
    each node scores ``Σ_landmarks 1/dist`` (self excluded, unreached
    landmarks contribute 0 — harmonic centrality's defining advantage
    over closeness on disconnected graphs).  Per-term integer rounding
    ``(2·10⁶ + d) // (2d)`` makes the sum order-free and the SQL replay
    value-exact.  Output: (node, n_reached, h_micro) for every node that
    reaches ≥ 1 landmark within ``max_hops``.

    The bfs_hops rounds lifted to the composite (node, seed) key: per
    round (:func:`_iterate`) a :func:`_relax` scatter — one edge row fans
    out to its u's seed rows (the band join), min-combined per (node,
    seed) — and a :func:`_fold_min` keyed on the node.  Relaxation stays
    monotone, so the fixed round count is partition-independent and the
    SQL unroll compares exactly.  Frontier volume is bounded by
    nodes × landmarks — seed_pct directly prices the accuracy/cost
    trade, which is the point of landmark approximation."""
    schema = pa.schema([("node", pa.string()), ("n_reached", pa.int64()), ("h_micro", pa.int64())])

    def seeds(part: pa.Table) -> pa.Table:
        nodes = pc.unique(part.column("u").combine_chunks())
        picked = nodes.filter(bfs_seed_mask(nodes, seed_pct))
        return pa.table(
            {"node": picked, "seed": picked, "dist": pa.array(np.zeros(len(picked), np.int64))}
        )

    def harmonic(part: pa.Table) -> pa.Table:
        """Σ over a node's reached landmarks (self excluded) of the
        rounded 1/dist term, and their count."""
        t = part.filter(pc.greater(part.column("dist"), 0))
        d = t.column("dist").to_numpy(zero_copy_only=False)
        terms = pa.table(
            {
                "node": t.column("node"),
                "n_reached": pa.array(np.ones(len(d), np.int64)),
                "h_micro": pa.array((2_000_000 + d) // (2 * d), pa.int64()),
            }
        )
        g = terms.group_by("node").aggregate([("n_reached", "sum"), ("h_micro", "sum")])
        return g.rename_columns(schema.names)

    keys = ["node", "seed"]

    def relax_rounds(x, edges):
        dist = x.groups(edges, ["u"], seeds)
        for _ in range(max_hops):
            cand = x.join(edges, dist, ["u"], ["node"], partial(_relax, keys=keys))
            dist = x.join(dist, cand, ["node"], ["node"], partial(_fold_min, keys=keys))
        return x.result(x.groups(dist, ["node"], harmonic), schema, [("node", "ascending")])

    return _iterate(adjacency, _undirected_both_dirs(), relax_rounds)


def ktruss(adjacency: ray.data.Dataset, k: int = 3, max_rounds: int = 5) -> ray.data.Dataset:
    """``k``-truss of the undirected simple KG entity graph: the maximal
    subgraph where EVERY edge sits in ≥ k−2 triangles *of the subgraph*
    — the cohesion filter that keeps tightly-corroborated relation
    clusters and sheds spurious one-off links (strictly stronger than
    k-core).  Synchronized peeling: each round recomputes per-edge
    triangle support over the SURVIVING edges (:func:`_wedge_support`,
    :func:`edge_jaccard`'s rounds) and drops every under-supported edge
    at once; support is monotone non-increasing under edge removal, so
    the fixpoint is exact and rounds past it are no-ops — which lets a
    fixed-depth SQL unroll compare exactly (the kcore discipline).
    Output: surviving (node_a, node_b, support) edges, sorted.

    The whole peel is written once against :func:`_iterate`'s executor:
    below the bound every round runs in the one worker call; above it
    each round is edge_jaccard's keyed exchanges plus one filter, every
    output holding at most ``n_parts`` blocks.  A round that drops no
    edge is the fixpoint, and its support is the final one."""
    schema = pa.schema([("node_a", pa.string()), ("node_b", pa.string()), ("support", pa.int64())])

    def supported(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n_common"), k - 2)).select(["a", "b"])

    def truss_rows(t: pa.Table) -> pa.Table:
        return t.select(["a", "b", "n_common"]).rename_columns(schema.names)

    def rounds(x, edges):
        support = _wedge_support(x, edges)
        for _ in range(max_rounds):
            kept = x.map(support, supported)
            if x.count(kept) == x.count(support):
                break
            support = _wedge_support(x, kept)
        return x.result(
            x.map(support, truss_rows), schema, [("node_a", "ascending"), ("node_b", "ascending")]
        )

    return _iterate(adjacency, _simple_edges(), rounds)


def _ln_terms(t: pa.Table) -> pa.Table:
    """Scatter of (deg, n_nodes) rows: each degree's rounded term
    ``n_nodes · floor(ln(2d)·10⁹ + 0.5)`` (0 below d = 1), the log taken
    by the scalar ``np.log`` of a Python float per degree — NumPy's
    vectorized log may differ in the last ulp, which can move a rounded
    term.  Exact Python-int products, split into ``s_hi`` = p >> 32 and
    ``s_lo`` = p & (2³² − 1) so their int64 sums cannot overflow."""
    degs, n = t.column("deg").to_pylist(), t.column("n_nodes").to_pylist()
    p = [
        c * int(np.floor(np.log(2.0 * float(d)) * 1e9 + 0.5)) if d >= 1 else 0
        for d, c in zip(degs, n)
    ]
    hi, lo = pa.array([v >> 32 for v in p], pa.int64()), pa.array([v & 0xFFFFFFFF for v in p], pa.int64())
    return pa.table({"n_nodes": t.column("n_nodes"), "s_hi": hi, "s_lo": lo})


def power_law_alpha(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Power-law exponent MLE of the KG degree distribution (the
    Clauset-Shalizi-Newman continuous approximation at d_min = 1:
    α = 1 + n / Σ_d c_d·ln(2d)) — the one-number hub-heaviness summary
    that decides whether skew salting is worth wiring for a corpus.
    Exact cross-engine despite the logarithm: every ln term rounds to
    integer nano BEFORE the sum (the corpus-drift per-term-rounding
    precedent — libm doubles agree, sum order no longer matters), and
    the final α is pure integer arithmetic:
    ``alpha_nano = 1e9 + (2·n·10¹⁸ + S) // (2·S)``.  Output one row:
    (n_nodes, max_deg, alpha_nano).

    :func:`degree_histogram`'s rounds (:func:`_degree_hist`) on
    :func:`_iterate`'s executor, finished by one scalar max and one
    scalar sum of the rounded terms (:func:`_ln_terms`) — over
    ≤ max-degree histogram rows."""

    def rounds(x, edges):
        hist = _degree_hist(x, edges)
        n, s_hi, s_lo = x.sum(x.map(hist, _ln_terms), ["n_nodes", "s_hi", "s_lo"])
        s_nano = (s_hi << 32) + s_lo
        alpha_nano = 1_000_000_000 + (2 * n * 10**18 + s_nano) // (2 * s_nano) if s_nano > 0 else 0
        return _int_row(x, ["n_nodes", "max_deg", "alpha_nano"], [n, x.max(hist, "deg"), alpha_nano])

    return _iterate(adjacency, _simple_edges(), rounds)


def predicate_cardinality(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Per-predicate cardinality profile of the KG — edge count, exact
    distinct subjects/objects and the PARIS-style functionality /
    inverse-functionality in integer milli (func = n_src/n_edges: 1000
    means each subject asserts the relation once — a good key; low
    means hub subjects).  The KB-quality screen that decides which
    predicates are safe join keys for entity resolution.  Sorted by
    predicate.

    Written on :func:`_iterate`'s executor: the prep folds every
    adjacency row's two endpoints to DISTINCT (pred, side, id) rows with
    their edge counts ``n`` (side 0 the subject, 1 the object) — in each
    batch, then keyed on all three — and one pred-keyed fold of
    per-batch partials counts each predicate's edges (Σ n over its
    subjects) and distinct subjects and objects."""
    keys = ["pred", "side", "id"]

    def endpoints(batch: pa.Table) -> pa.Table:
        ends = {"pred": _stacked(batch, "pred", "pred"), "side": _sides(batch.num_rows)}
        ends["id"] = _stacked(batch, "src_id", "dst_id")
        ends["n"] = pa.array(np.ones(2 * batch.num_rows, np.int64))
        return _summed(pa.table(ends), keys, ["n"])

    counts = ["n_edges", "n_src", "n_dst"]

    def per_pred(t: pa.Table) -> pa.Table:
        subj = pc.equal(t.column("side"), 0)
        cols = [pc.if_else(subj, t.column("n"), 0), subj.cast(pa.int64()), pc.invert(subj).cast(pa.int64())]
        return _summed(pa.table([t.column("pred"), *cols], names=["pred"] + counts), ["pred"], counts)

    def profile(part: pa.Table) -> pa.Table:
        g = _summed(part, ["pred"], counts)
        ne, ns, nd = (g.column(c).to_numpy(zero_copy_only=False) for c in counts)
        for col, n in (("func_milli", ns), ("inv_func_milli", nd)):
            g = g.append_column(col, pa.array((2000 * n + ne) // (2 * ne), pa.int64()))
        return g

    schema = pa.schema(
        [("pred", pa.string())]
        + [(c, pa.int64()) for c in counts + ["func_milli", "inv_func_milli"]]
    )

    def rounds(x, ends):
        per = x.groups(x.map(ends, per_pred), ["pred"], profile)
        return x.result(per, schema, [("pred", "ascending")])

    prep_schema = pa.schema(
        [("pred", pa.string()), ("side", pa.int8()), ("id", pa.string()), ("n", pa.int64())]
    )
    fold = partial(_summed, keys=keys, cols=["n"])
    return _iterate(adjacency, _Prep(keys, endpoints, fold, prep_schema), rounds)


def component_size_hist(adjacency: ray.data.Dataset) -> ray.data.Dataset:
    """Connected-component size histogram of the KG entity graph (the
    fragmentation diagnostic: one giant component means the corpus
    cross-links; thousands of small ones mean isolated fact islands —
    and the giant-component size bounds any per-component algorithm's
    worst partition).  Components over the deduped undirected simple
    edge set; singleton (edge-free) entities are deliberately excluded
    (output stays O(|edges|), the connected_components contract).
    Output per size: (size, n_components), ascending.

    Scale shape: at or below :data:`..joins.LOCAL_BYTES_BOUND` (planned
    on the adjacency) ONE worker call dedups the canonical edges, runs
    the components kernel (:func:`..components.components_table`) and
    folds the sizes.  Above it: per-batch canonical-edge Arrow dedup
    partials, the engine's :func:`..components.connected_components`
    (pointer-jumping keyed-exchange rounds), then per-batch (size → node
    count) partials folded in Arrow on the driver (bounded by distinct
    sizes, so no exchange).  Node counts are divided by size —
    n_components·size == n_nodes is asserted."""
    from .components import components_table, connected_components

    def hex16_to_i64(ids: np.ndarray) -> np.ndarray:
        """'e_<16 lowercase hex>' → order-preserving int64 (uint64 value
        xor-shifted by 2⁶³): fixed-width lowercase hex is monotone with
        its numeric value, so integer min == lexicographic min — the CC
        needs integer labels (alias_clusters precedent).  Vectorized: a
        16-step nibble fold over the ASCII byte matrix, no per-row
        parse."""
        raw = np.asarray(ids, dtype="U18").view(np.uint32).reshape(-1, 18)[:, 2:]
        nib = raw - 48 - 39 * (raw >= 97)
        acc = np.zeros(len(raw), np.uint64)
        for i in range(16):
            acc = acc * np.uint64(16) + nib[:, i].astype(np.uint64)
        return (acc ^ np.uint64(1 << 63)).view(np.int64)

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column("src_id").to_numpy(zero_copy_only=False)
        d = batch.column("dst_id").to_numpy(zero_copy_only=False)
        keep = s != d
        si = hex16_to_i64(s[keep])
        di = hex16_to_i64(d[keep])
        a = np.minimum(si, di)
        b = np.maximum(si, di)
        t = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64())})
        return t.group_by(["a", "b"]).aggregate([])

    def size_partial(comp: pa.Table) -> pa.Table:
        vc = pc.value_counts(comp.column("cluster_size").combine_chunks())
        return pa.table(
            {
                "size": vc.field("values").cast(pa.int64()),
                "n_nodes": vc.field("counts").cast(pa.int64()),
            }
        )

    def hist(partials: pa.Table) -> pa.Table:
        """(size, n_components) from (size, n_nodes) partials."""
        g = partials.group_by("size").aggregate([("n_nodes", "sum")]).sort_by("size")
        sizes = g.column("size").to_numpy()
        nn = g.column("n_nodes_sum").to_numpy()
        broken = sizes[nn % sizes != 0]
        if len(broken):
            raise AssertionError(f"component bookkeeping broken at size {int(broken[0])}")
        return pa.table(
            {"size": pa.array(sizes, pa.int64()), "n_components": pa.array(nn // sizes, pa.int64())}
        )

    schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    prep = _Prep(["a", "b"], canon, lambda part: part.select(schema.names), schema)
    adjacency = sized(adjacency)
    if fits_local(adjacency):
        return prep.one_call(
            adjacency, lambda e: hist(size_partial(components_table(e, "a", "b", pa.int64())))
        )
    comp = connected_components(
        adjacency.map_batches(canon, batch_format="pyarrow"), id_a="a", id_b="b"
    )
    # partials are bounded by the distinct sizes per batch: fold them on
    # the driver in Arrow instead of a groupby exchange
    empty = size_partial(pa.table({"cluster_size": pa.array([], pa.int64())}))
    partials = comp.map_batches(size_partial, batch_format="pyarrow")
    return ray.data.from_arrow(
        hist(pa.concat_tables([empty, *partials.iter_batches(batch_format="pyarrow")]))
    )


def hits(adjacency: ray.data.Dataset, iters: int = 3) -> ray.data.Dataset:
    """HITS hubs & authorities (Kleinberg) over the DIRECTED distinct
    edge set of the adjacency table — the link-analysis dual of
    PageRank: a good hub points at good authorities, a good authority
    is pointed at by good hubs.  Mutual recursion ``a(v) = Σ_{u→v} h(u)``
    / ``h(u) = Σ_{u→v} a(v)`` run ``iters`` rounds, with the usual
    normalization replaced by an integer rescale to 10⁶ at the MAX
    score after every half-step (floats never appear, so the SQL unroll
    replays bit-exactly; envelope: max in/out-degree × 10¹² must fit
    int64 — degree ≤ 9·10⁶, far past the KG's hubs).

    Each half-step (:func:`_iterate`) is a :func:`_push_sum` scatter of
    the current scores over the distinct directed edges of
    :func:`_directed_edges` — along u → v for the authority half, v → u
    for the hub half, pre-summed per destination — a :func:`_fold_sum`
    into the (node, hub_scaled, auth_scaled) state, and one global max
    (a scalar) for the rescale."""
    SCALE6 = 10**6

    def init_scores(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "node": t.column("node"),
                "hub_scaled": pa.array(np.full(n, SCALE6, np.int64)),
                "auth_scaled": pa.array(np.zeros(n, np.int64)),
            }
        )

    def rescale(col: str, m: int):
        def f(t: pa.Table) -> pa.Table:
            c = t.column(col).to_numpy(zero_copy_only=False)
            return _with(t, col, c * SCALE6 // m if m > 0 else np.zeros(len(c), np.int64))

        return f

    def half_step(x, edges, scores, src: str, dst: str, frm: str, to: str):
        """score'(dst) = Σ score(src) over the edges, rescaled to 10⁶ at
        the max."""
        msgs = x.join(scores, edges, ["node"], [src], partial(_push_sum, col=frm, src=src, dst=dst))
        raw = x.join(scores, msgs, ["node"], ["node"], partial(_fold_sum, col=to))
        return x.map(raw, rescale(to, x.max(raw, to)))

    def rounds(x, edges):
        scores = x.map(_node_set(x, edges), init_scores)
        for _ in range(iters):
            scores = half_step(x, edges, scores, "u", "v", "hub_scaled", "auth_scaled")
            scores = half_step(x, edges, scores, "v", "u", "auth_scaled", "hub_scaled")
        names = ["node", "hub_scaled", "auth_scaled"]
        schema = pa.schema([(c, pa.string() if c == "node" else pa.int64()) for c in names])
        return x.result(scores, schema, [("node", "ascending")])

    return _iterate(adjacency, _directed_edges(), rounds)


def trim_core(adjacency: ray.data.Dataset, max_rounds: int = 32) -> ray.data.Dataset:
    """Directed trim core — iterated source/sink peeling (each round
    simultaneously removes every node with zero in-degree OR zero
    out-degree in the surviving subgraph), the classic pre-pass of SCC
    decomposition and the standard DAG test: the graph is acyclic iff
    the core empties.  Self-loops count both ways, so a self-looped
    node always survives.  Rounds cap at ``max_rounds`` (both engines
    run ≤ cap with early exit, so the unrolled SQL replay is exact even
    when a longer chain hasn't fully peeled).  Output one row per
    executed round: (round, removed, core_after) — core_after of the
    last row is the cycle-core size, 0 ⇔ DAG (within the cap).

    Per round (:func:`_iterate`; the kcore/ktruss peel class): the
    survivors are the nodes whose (node, side) endpoint rows show both
    sides, folded per node, and the edges keep both endpoints among them
    through two :func:`_semi_join` steps — above the bound each a keyed
    :func:`cogroup`, so nothing node-sized reaches the driver.  Exchange
    volume ∝ surviving edges, monotonically shrinking."""
    def sides(t: pa.Table) -> pa.Table:
        """Distinct (node, side) endpoint rows: 0 = has an out-edge,
        1 = has an in-edge."""
        both = pa.table({"node": _stacked(t, "u", "v"), "side": _sides(t.num_rows)})
        return both.group_by(["node", "side"]).aggregate([])

    def both_sides(part: pa.Table) -> pa.Table:
        g = part.group_by("node").aggregate([("side", "count_distinct")])
        return g.filter(pc.equal(g.column("side_count_distinct"), 2)).select(["node"])

    def peel(x, edges):
        ledger = {"round": [], "removed": [], "core_after": []}
        prev = x.count(_node_set(x, edges))
        for rnd in range(1, max_rounds + 1 if prev else 1):  # no edges: no rounds
            survivors = x.groups(x.map(edges, sides), ["node"], both_sides)
            n_surv = x.count(survivors)
            for col, val in zip(ledger, (rnd, prev - n_surv, n_surv)):
                ledger[col].append(val)
            if n_surv in (0, prev):
                break
            prev = n_surv
            edges = x.join(edges, survivors, ["u"], ["node"], partial(_semi_join, col="u"))
            edges = x.join(edges, survivors, ["v"], ["node"], partial(_semi_join, col="v"))
        return x.table(pa.table({col: pa.array(vals, pa.int64()) for col, vals in ledger.items()}))

    return _iterate(adjacency, _directed_edges(), peel)


def diameter_2sweep(
    adjacency: ray.data.Dataset, max_hops: int = 12
) -> ray.data.Dataset:
    """Double-sweep diameter lower bound of the undirected KG graph —
    the standard cheap estimator (Magnien/Latapy/Habib): BFS from a
    deterministic start (the lexicographically smallest node), take the
    farthest node reached, BFS again from there; the second
    eccentricity lower-bounds the diameter and is exact on trees.
    Both sweeps cap at ``max_hops`` rounds (identically in the SQL
    unroll, so a deeper graph degrades both engines the same way);
    farthest-node ties break lexicographically.  Output one row:
    (src, ecc_src, far_node, diameter_lb, far_node_2).

    Scale shape: two :func:`bfs_hops` runs plus two max/min
    aggregates over the nodes-sized distance table — nothing beyond the
    BFS discipline."""
    from ray.data.aggregate import Min

    def min_node_partial(batch: pa.Table) -> pa.Table:
        # node universe = endpoints of non-self edges (the BFS mirror
        # drops self-loops, and the SQL replay's node set must agree)
        keep = pc.invert(pc.equal(batch.column("src_id"), batch.column("dst_id")))
        t = batch.filter(keep)
        both = pa.concat_arrays(
            [t.column("src_id").combine_chunks(), t.column("dst_id").combine_chunks()]
        )
        m = pc.min(both).as_py()
        return pa.table({"node": pa.array([m] if m is not None else [], pa.string())})

    schema = pa.schema(
        [
            ("src", pa.string()),
            ("ecc_src", pa.int64()),
            ("far_node", pa.string()),
            ("diameter_lb", pa.int64()),
            ("far_node_2", pa.string()),
        ]
    )
    agg = adjacency.map_batches(min_node_partial, batch_format="pyarrow").aggregate(
        Min("node", alias_name="m")
    )
    if not agg or agg.get("m") is None:
        return ray.data.from_arrow(schema.empty_table())
    src = str(agg["m"])

    def far_of(dist: ray.data.Dataset) -> tuple[str, int]:
        d = dist.materialize()
        mx = d.max("dist")
        mx = int(mx) if mx is not None else 0
        far = d.filter(expr=f"dist == {mx}").aggregate(Min("node", alias_name="m"))
        return str(far["m"]), mx

    d1 = bfs_hops(adjacency, max_hops=max_hops, seeds=[src])
    far_a, ecc = far_of(d1)
    d2 = bfs_hops(adjacency, max_hops=max_hops, seeds=[far_a])
    far_b, diam = far_of(d2)
    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([src], pa.string()),
                "ecc_src": pa.array([ecc], pa.int64()),
                "far_node": pa.array([far_a], pa.string()),
                "diameter_lb": pa.array([diam], pa.int64()),
                "far_node_2": pa.array([far_b], pa.string()),
            }
        )
    )
