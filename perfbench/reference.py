"""Independent references for every output the workloads check.

The references run in a separate, single process (``compute``), after the
timed loop and after the Ray session has stopped, so they neither share the
CPU with the measured work nor count toward the driver's peak RSS.  Each
writes its expected tables as parquet plus the spans of its stage-by-stage
replay, which the traced run reports as kernel self time.

* build: the single-process ``oracle`` stages over the same docs; for the
  traced merge, the corpus's oracle adjacency folded onto the warm-up
  corpus's (Σweight, Σdoc_count, min sample_doc_id; each side has its own
  vocab, so this is not one oracle run over the union).
* graph: a plain loop over the linker's per-mention rule,
  ``oracle.canonicalize``, and the pagerank / BFS / component-size
  references below, which share no code with ``functions/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import deque

import pyarrow as pa
import pyarrow.parquet as pq

from tracing import Tracer

# the KG queries' fixed parameters (functions/graph.py defaults)
PAGERANK_ITERS = 5
PAGERANK_DAMPING_PCT = 85
PAGERANK_SCALE = 10**12
BFS_SEED_PCT = 5
BFS_MAX_HOPS = 6
INT64_MAX = 2**63 - 1

PAGERANK_SCHEMA = pa.schema([("node", pa.string()), ("rank", pa.int64())])
BFS_SCHEMA = pa.schema([("node", pa.string()), ("dist", pa.int64())])
HIST_SCHEMA = pa.schema([("size", pa.int64()), ("n_components", pa.int64())])


def linked_schema() -> pa.Schema:
    """Triples plus the linker's four columns."""
    from relation_extraction_ray import schemas
    from relation_extraction_ray.state.linker import LINKED_TRIPLES_EXTRA

    return pa.schema(list(schemas.TRIPLES) + [pa.field(n, t) for n, t in LINKED_TRIPLES_EXTRA])


def compute(job: dict, timeout_s: float = 150.0) -> dict:
    """Run ``job`` in a fresh interpreter; return its result record."""
    os.makedirs(job["out"], exist_ok=True)
    path = os.path.join(job["out"], "job.json")
    with open(path, "w") as f:
        json.dump(job, f)
    subprocess.run([sys.executable, os.path.abspath(__file__), path], check=True, timeout=timeout_s)
    with open(os.path.join(job["out"], "result.json")) as f:
        return json.load(f)


def _main(job_path: str) -> None:
    with open(job_path) as f:
        job = json.load(f)
    tracer = Tracer(job["kind"], enabled=True)
    result = {"build": _build, "graph": _graph}[job["kind"]](job, tracer)
    result["spans"] = tracer.spans
    with open(os.path.join(job["out"], "result.json"), "w") as f:
        json.dump(result, f)


# ---------------------------------------------------------------------------
# shared helpers (also used by the driver to compare outputs)
# ---------------------------------------------------------------------------


def canonical(table: pa.Table, schema: pa.Schema) -> pa.Table:
    """``table`` in ``schema``'s column order and types, rows sorted
    (float columns last, so last-bit differences cannot reorder rows)."""
    t = table.select(schema.names).cast(schema)
    keys = sorted(schema.names, key=lambda n: pa.types.is_floating(schema.field(n).type))
    return t.sort_by([(name, "ascending") for name in keys])


def read_dir(path: str, schema: pa.Schema) -> pa.Table:
    return canonical(pq.read_table(path, schema=schema), schema)


def write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path)


def digest(tables: list[pa.Table]) -> str:
    """Content digest of canonical tables (row values only)."""
    h = hashlib.sha256()
    for t in tables:
        h.update(json.dumps(t.to_pylist(), sort_keys=True, default=str).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# build: the single-process oracle, one stage per span
# ---------------------------------------------------------------------------


def _oracle(doc_rows: list[dict], tracer: Tracer) -> dict[str, pa.Table]:
    """``oracle.run_oracle``'s stages with a span around each layer."""
    from relation_extraction_ray import oracle, schemas
    from relation_extraction_ray.config import KGConfig

    cfg = KGConfig()
    with tracer.span("oracle", rows=len(doc_rows)):
        with tracer.span("nlp.parser"):
            sents = oracle.doc_rows_to_sentences(doc_rows)
        with tracer.span("oracle.vocab"):
            (_, w2i, _), (_, d2i, _), (_, p2i, _) = oracle.build_vocabs(sents, cfg)
        with tracer.span("nlp.sdp"):
            records = oracle.extract_encoded(sents, w2i, d2i, p2i, cfg)
        with tracer.span("state.scorer"):
            triples = oracle.score_records(records, w2i, d2i, p2i, cfg)
        with tracer.span("oracle.canonicalize"):
            entities, adjacency = oracle.canonicalize(triples)
    return {
        "triples": canonical(pa.Table.from_pylist(triples, schema=schemas.TRIPLES), schemas.TRIPLES),
        "entities": canonical(pa.Table.from_pylist(entities, schema=schemas.ENTITIES), schemas.ENTITIES),
        "adjacency": canonical(
            pa.Table.from_pylist(adjacency, schema=schemas.ADJACENCY), schemas.ADJACENCY
        ),
    }


def _build(job: dict, tracer: Tracer) -> dict:
    ref = _oracle(pq.read_table(job["corpus"]).to_pylist(), tracer)
    base = _oracle(pq.read_table(job["warmup"]).to_pylist(), Tracer(job["kind"], enabled=False))
    merged = fold_adjacency(fold_adjacency({}, base["adjacency"]), ref["adjacency"])
    for name, table in {**ref, "merged": _adjacency_table(merged)}.items():
        write(table, os.path.join(job["out"], f"{name}.parquet"))
    return {"digest": digest([ref["triples"], ref["entities"], ref["adjacency"]])}


def fold_adjacency(base: dict, other: pa.Table) -> dict:
    """Fold an adjacency table into ``base`` (edge key → (w, docs, min))."""
    out = dict(base)
    for r in other.to_pylist():
        key = (r["src_id"], r["pred"], r["dst_id"])
        if key in out:
            w, dc, s = out[key]
            out[key] = (w + r["weight"], dc + r["doc_count"], min(s, r["sample_doc_id"]))
        else:
            out[key] = (r["weight"], r["doc_count"], r["sample_doc_id"])
    return out


def _adjacency_table(edges: dict) -> pa.Table:
    from relation_extraction_ray import schemas

    keys = sorted(edges)
    return canonical(
        pa.Table.from_pydict(
            {
                "src_id": [k[0] for k in keys],
                "pred": [k[1] for k in keys],
                "dst_id": [k[2] for k in keys],
                "weight": [edges[k][0] for k in keys],
                "doc_count": [edges[k][1] for k in keys],
                "sample_doc_id": [edges[k][2] for k in keys],
            },
            schema=schemas.ADJACENCY,
        ),
        schemas.ADJACENCY,
    )


# ---------------------------------------------------------------------------
# graph: linker loop, canonicalize and the three query references
# ---------------------------------------------------------------------------


def _graph(job: dict, tracer: Tracer) -> dict:
    from relation_extraction_ray import oracle, schemas
    from relation_extraction_ray.state.linker import build_kb, link_surface, row_context, surface_norm

    triples = pq.read_table(job["triples"])
    rows = triples.to_pylist()
    with open(job["kb"]) as f:
        kb = build_kb(json.load(f))
    with tracer.span("oracle", rows=len(rows)):
        with tracer.span("state.linker"):
            linked = []
            for r in rows:
                ctx = row_context(r["subj"], r["obj"], r["pred"])
                skb, sok = link_surface(r["subj"], ctx, kb.get(surface_norm(r["subj"])))
                okb, ook = link_surface(r["obj"], ctx, kb.get(surface_norm(r["obj"])))
                linked.append({**r, "subj_kb": skb, "obj_kb": okb, "subj_linked": sok, "obj_linked": ook})
        with tracer.span("oracle.canonicalize"):
            entities, adjacency = oracle.canonicalize(rows)
    linked_tab = pa.Table.from_pylist(linked, schema=linked_schema())
    ref = {
        "linked": canonical(linked_tab, linked_tab.schema),
        "entities": canonical(pa.Table.from_pylist(entities, schema=schemas.ENTITIES), schemas.ENTITIES),
        "adjacency": canonical(
            pa.Table.from_pylist(adjacency, schema=schemas.ADJACENCY), schemas.ADJACENCY
        ),
    }
    ref["pagerank"] = canonical(pagerank(adjacency), PAGERANK_SCHEMA)
    ref["bfs"] = canonical(bfs_hops(adjacency), BFS_SCHEMA)
    ref["hist"] = canonical(component_size_hist(adjacency), HIST_SCHEMA)
    for name, table in ref.items():
        write(table, os.path.join(job["out"], f"{name}.parquet"))
    return {"digest": digest([ref[k] for k in ("entities", "adjacency", "pagerank", "bfs", "hist")])}


def pagerank(adjacency: list[dict]) -> pa.Table:
    """Integer PageRank: rank₀ = 10¹²; contribution rank·w // outweight
    (dangling mass dropped); rank' = 15 % · 10¹² + 85 · Σ // 100.  Python
    integers, so an int64 overflow in the program shows as a mismatch."""
    w: dict[tuple[str, str], int] = {}
    for r in adjacency:
        w[(r["src_id"], r["dst_id"])] = w.get((r["src_id"], r["dst_id"]), 0) + r["weight"]
    out_w: dict[str, int] = {}
    for (u, _), x in w.items():
        out_w[u] = out_w.get(u, 0) + x
    nodes = sorted({n for e in w for n in e})
    rank = dict.fromkeys(nodes, PAGERANK_SCALE)
    base = (100 - PAGERANK_DAMPING_PCT) * PAGERANK_SCALE // 100
    for _ in range(PAGERANK_ITERS):
        s = dict.fromkeys(nodes, 0)
        for (u, v), x in w.items():
            s[v] += rank[u] * x // out_w[u]
        rank = {n: base + PAGERANK_DAMPING_PCT * s[n] // 100 for n in nodes}
    if any(r > INT64_MAX for r in rank.values()):
        raise OverflowError("reference pagerank left int64")
    return pa.table({"node": nodes, "rank": pa.array([rank[n] for n in nodes], pa.int64())})


def _undirected(adjacency: list[dict]) -> dict[str, set[str]]:
    nbrs: dict[str, set[str]] = {}
    for r in adjacency:
        a, b = r["src_id"], r["dst_id"]
        if a != b:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
    return nbrs


def bfs_hops(adjacency: list[dict]) -> pa.Table:
    """Multi-source BFS over the undirected simple graph, depth ≤ 6; a node
    is a source when md5('seed:' + node)'s first 8 hex digits mod 100 < 5."""
    nbrs = _undirected(adjacency)
    dist = {
        n: 0
        for n in nbrs
        if int(hashlib.md5(("seed:" + n).encode()).hexdigest()[:8], 16) % 100 < BFS_SEED_PCT
    }
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        if dist[u] == BFS_MAX_HOPS:
            continue
        for v in nbrs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    nodes = sorted(dist)
    return pa.table({"node": nodes, "dist": pa.array([dist[n] for n in nodes], pa.int64())})


def component_size_hist(adjacency: list[dict]) -> pa.Table:
    """Union-find component sizes over the undirected simple graph
    (isolated nodes excluded), as (size, number of components)."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, bs in _undirected(adjacency).items():
        parent.setdefault(a, a)
        for b in bs:
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    sizes: dict[str, int] = {}
    for n in parent:
        r = find(n)
        sizes[r] = sizes.get(r, 0) + 1
    hist: dict[int, int] = {}
    for s in sizes.values():
        hist[s] = hist.get(s, 0) + 1
    keys = sorted(hist)
    return pa.table(
        {"size": pa.array(keys, pa.int64()), "n_components": pa.array([hist[k] for k in keys], pa.int64())}
    )


if __name__ == "__main__":
    _main(sys.argv[1])
