"""The two closed-loop workloads.

Each workload drives the program only through its public functions and
owns nothing but files under its work directory:

* ``build``  — ``KGPipeline.run`` plus the parquet writes of ``build-kg``
  over one seeded corpus; every op rebuilds the same corpus.  The traced
  op also folds its adjacency into the warm-up's with ``merge_adjacency``
  (the two corpora share no doc id), so the merge is measured too.
* ``graph``  — pre-extracted triples through ``link_triples``,
  ``entities_from_triples`` and ``adjacency_from_triples``, then
  ``pagerank``, ``bfs_hops`` and ``component_size_hist`` over the written
  adjacency.  Nothing in ``nlp/`` runs.

``op`` is the untraced operation the timed loop repeats.  ``traced_op``
does the same work with every stage materialized inside its own span, so
the traced run can split the wall by layer.
"""

from __future__ import annotations

import json
import os
import re
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from relation_extraction_ray import schemas
from relation_extraction_ray.functions import graph as kg_graph
from relation_extraction_ray.functions.components import connected_components
from relation_extraction_ray.pipelines.kg import (
    KGPipeline,
    adjacency_from_triples,
    entities_from_triples,
    merge_adjacency,
    vocab_table,
)
from relation_extraction_ray.state.linker import build_kb, link_triples

import inputs
import reference
from tracing import Tracer


def _read(path: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(path, columns=columns)


# Triple scores come from float32 matrix products whose summation order
# depends on how rows are batched and padded, so the Ray run and the
# single-process oracle may differ in the last bits: allow 8 float32 ulps.
SCORE_RTOL = 8 * 2.0**-23
SCORE_ATOL = 1e-9


def _matches(path: str, expected_file: str, schema: pa.Schema) -> bool:
    got = reference.read_dir(path, schema)
    want = pq.read_table(expected_file)
    if got.num_rows != want.num_rows:
        return False
    for name in schema.names:
        a, b = got.column(name), want.column(name)
        if pa.types.is_floating(schema.field(name).type):
            x = a.to_numpy().astype(np.float64)
            y = b.to_numpy().astype(np.float64)
            if not np.allclose(x, y, rtol=SCORE_RTOL, atol=SCORE_ATOL):
                return False
        elif not a.equals(b):
            return False
    return True


class Workload:
    name = ""

    def __init__(self, work: str, seed: int, num_cpus: int, tracer: Tracer) -> None:
        self.work = work
        self.seed = seed
        self.num_cpus = num_cpus
        self.tracer = tracer
        self.stats: dict[str, str] = {}  # span name → ds.stats() of what it materialized

    def out(self, tag: str) -> str:
        return os.path.join(self.work, "out", tag)

    def _stage(self, name: str, make) -> ray.data.Dataset:
        """Build and materialize ``make()`` inside span ``name`` (some
        operators do eager work while building the plan) and keep its stats."""
        with self.tracer.span(name):
            ds = make().materialize()
        self.stats[name] = ds.stats()
        return ds

    def _write(self, items: dict[str, ray.data.Dataset], out: str) -> None:
        with self.tracer.span("sink.write"):
            for name, ds in items.items():
                ds.write_parquet(os.path.join(out, name))

    def cold(self) -> None:
        """The first execution after the session starts (part of set-up)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed warm-up between set-up and the timed loop."""
        raise NotImplementedError


def _write_vocabs(out: str, tables: list[pa.Table]) -> None:
    for name, table in zip(("vocab", "dep_vocab", "pos_vocab"), tables):
        os.makedirs(os.path.join(out, name))
        pq.write_table(table, os.path.join(out, name, "part-0.parquet"))


class Build(Workload):
    name = "build"

    def write_inputs(self) -> None:
        self.inputs = inputs.write_build_inputs(os.path.join(self.work, "inputs"), self.seed)

    def cold(self) -> None:
        KGPipeline.for_cpus(self.num_cpus).sentences(_read(self.inputs["warmup"], ["doc_id", "spans"])).materialize()

    def _job(self, src: str, out: str) -> None:
        """``build-kg``'s job: run, then write the three datasets and vocabs."""
        res = KGPipeline.for_cpus(self.num_cpus).run(_read(src, ["doc_id", "spans"]))
        for name in ("triples", "entities", "adjacency"):
            res[name].write_parquet(os.path.join(out, name))
        _write_vocabs(out, [res["vocab"], res["dep_vocab"], res["pos_vocab"]])

    def prepare(self) -> None:
        self._job(self.inputs["warmup"], self.out("warmup"))

    def op(self, i: int) -> dict:
        t0 = time.perf_counter()
        self._job(self.inputs["corpus"], self.out(f"op-{i:03d}"))
        wall = time.perf_counter() - t0
        return {"i": i, "wall": wall, "rate_wall": wall, "rows": self.inputs["n_docs"]}

    def traced_op(self, i: int) -> dict:
        pipe = KGPipeline.for_cpus(self.num_cpus)
        out = self.out(f"op-{i:03d}")
        t0 = time.perf_counter()
        with self.tracer.span("op"):
            docs = _read(self.inputs["corpus"], ["doc_id", "spans"])
            sentences = self._stage("pipelines.kg.sentences", lambda: pipe.sentences(docs))
            with self.tracer.span("pipelines.kg.vocab"):
                vocabs = pipe.vocabs(sentences)
            with self.tracer.span("pipelines.kg.extract_score"):
                encoded = self._stage("pipelines.kg.encoded", lambda: pipe.encoded(sentences, vocabs))
                triples = self._stage("pipelines.kg.scored", lambda: pipe.triples(encoded, vocabs))
            entities = self._stage("pipelines.kg.entities", lambda: entities_from_triples(triples))
            adjacency = self._stage("pipelines.kg.adjacency", lambda: adjacency_from_triples(triples))
            self._write({"triples": triples, "entities": entities, "adjacency": adjacency}, out)
            with self.tracer.span("sink.write"):
                _write_vocabs(out, [vocab_table(v, dist) for v, _, dist in vocabs])
        wall = time.perf_counter() - t0
        base = _read(os.path.join(self.out("warmup"), "adjacency"))
        merged = self._stage("pipelines.kg.merge", lambda: merge_adjacency(base, adjacency))
        merged.write_parquet(os.path.join(out, "merged"))
        return {
            "i": i, "wall": wall, "rate_wall": wall, "rows": self.inputs["n_docs"],
            "candidates": encoded.count(),
            "good": encoded.filter(expr="verdict == 'GOOD'").count(),
            "triples": triples.count(),
            "edges": adjacency.count(),
            "merged_rows": merged.count(),
        }

    def reference_job(self, ref: str) -> dict:
        return {"kind": "build", "out": ref, "corpus": self.inputs["corpus"], "warmup": self.inputs["warmup"]}

    def check(self, ops: list[dict], ref: str) -> list[bool]:
        def outputs(o: dict):
            yield "triples", schemas.TRIPLES
            yield "entities", schemas.ENTITIES
            yield "adjacency", schemas.ADJACENCY
            if "merged_rows" in o:
                yield "merged", schemas.ADJACENCY

        return [
            all(
                _matches(os.path.join(self.out(f"op-{o['i']:03d}"), name), f"{ref}/{name}.parquet", schema)
                for name, schema in outputs(o)
            )
            for o in ops
        ]


class Graph(Workload):
    name = "graph"

    def write_inputs(self) -> None:
        self.inputs = inputs.write_graph_inputs(os.path.join(self.work, "inputs"), self.seed)

    def _kb(self) -> dict:
        with open(self.inputs["kb"]) as f:
            return build_kb(json.load(f))

    def _canon(self, src: str, out: str) -> None:
        linked = link_triples(_read(src), self._kb()).materialize()
        linked.write_parquet(os.path.join(out, "linked"))
        entities_from_triples(linked).write_parquet(os.path.join(out, "entities"))
        adjacency_from_triples(linked).write_parquet(os.path.join(out, "adjacency"))

    def cold(self) -> None:
        link_triples(_read(self.inputs["warmup"]), self._kb()).materialize()

    def prepare(self) -> None:
        self._canon(self.inputs["warmup"], self.out("warmup"))

    def op(self, i: int) -> dict:
        out = self.out(f"op-{i:03d}")
        t0 = time.perf_counter()
        self._canon(self.inputs["triples"], out)
        t1 = time.perf_counter()
        adj = _read(os.path.join(out, "adjacency"))
        kg_graph.pagerank(adj).write_parquet(os.path.join(out, "pagerank"))
        kg_graph.bfs_hops(adj).write_parquet(os.path.join(out, "bfs"))
        kg_graph.component_size_hist(adj).write_parquet(os.path.join(out, "hist"))
        t2 = time.perf_counter()
        return {"i": i, "wall": t2 - t0, "rate_wall": t1 - t0, "rows": self.inputs["n_rows"]}

    def traced_op(self, i: int) -> dict:
        out = self.out(f"op-{i:03d}")
        t0 = time.perf_counter()
        with self.tracer.span("op"):
            linked = self._stage(
                "state.linker.link_triples", lambda: link_triples(_read(self.inputs["triples"]), self._kb())
            )
            entities = self._stage("pipelines.kg.entities", lambda: entities_from_triples(linked))
            adjacency = self._stage("pipelines.kg.adjacency", lambda: adjacency_from_triples(linked))
            self._write({"linked": linked, "entities": entities, "adjacency": adjacency}, out)
            t1 = time.perf_counter()
            adj = _read(os.path.join(out, "adjacency"))
            results = {
                "pagerank": self._stage("functions.graph.pagerank", lambda: kg_graph.pagerank(adj)),
                "bfs": self._stage("functions.graph.bfs_hops", lambda: kg_graph.bfs_hops(adj)),
                "hist": self._stage(
                    "functions.graph.component_size_hist", lambda: kg_graph.component_size_hist(adj)
                ),
            }
            self._write(results, out)
        wall = time.perf_counter() - t0
        flags = pq.read_table(os.path.join(out, "linked"), columns=["subj_linked", "obj_linked"])
        n_linked = sum(pc.sum(flags.column(c).cast(pa.int64())).as_py() or 0 for c in flags.column_names)
        return {
            "i": i, "wall": wall, "rate_wall": t1 - t0, "rows": self.inputs["n_rows"],
            "triples": linked.count(), "edges": adjacency.count(),
            "linked_ratio": n_linked / (2 * max(1, linked.count())),
            "rounds": self._component_rounds(os.path.join(out, "adjacency")),
        }

    def _component_rounds(self, adjacency_dir: str) -> list[dict]:
        """Round records of ``connected_components`` over the same pairs
        ``component_size_hist`` builds: distinct undirected non-loop edges,
        ids mapped order-preservingly to int64 ('e_' + 16 hex digits)."""
        adj = pq.read_table(adjacency_dir, columns=["src_id", "dst_id"])

        def ids(col: str) -> np.ndarray:
            return np.array([int(s[2:], 16) - 2**63 for s in adj.column(col).to_pylist()], np.int64)

        s, d = ids("src_id"), ids("dst_id")
        keep = s != d
        pairs = pa.table({"a": np.minimum(s, d)[keep], "b": np.maximum(s, d)[keep]})
        pairs = pairs.group_by(["a", "b"]).aggregate([])
        stats: list[dict] = []
        with self.tracer.span("functions.components.connected_components"):
            connected_components(ray.data.from_arrow(pairs), id_a="a", id_b="b", round_stats=stats).materialize()
        return stats

    def reference_job(self, ref: str) -> dict:
        return {"kind": "graph", "out": ref, "triples": self.inputs["triples"], "kb": self.inputs["kb"]}

    def check(self, ops: list[dict], ref: str) -> list[bool]:
        checks = (
            ("linked", reference.linked_schema()),
            ("entities", schemas.ENTITIES),
            ("adjacency", schemas.ADJACENCY),
            ("pagerank", reference.PAGERANK_SCHEMA),
            ("bfs", reference.BFS_SCHEMA),
            ("hist", reference.HIST_SCHEMA),
        )
        return [
            all(
                _matches(os.path.join(self.out(f"op-{o['i']:03d}"), name), f"{ref}/{name}.parquet", schema)
                for name, schema in checks
            )
            for o in ops
        ]


WORKLOADS = {w.name: w for w in (Build, Graph)}


# ---------------------------------------------------------------------------
# ds.stats() → per-operator rows (the package never calls it itself)
# ---------------------------------------------------------------------------

_OP_HEADER = re.compile(r"Operator \d+ (?P<name>.+?): (?P<rest>.*)")
_BLOCKS = re.compile(r"(\d+) blocks produced")
_WALL = re.compile(r"in ([\d.]+)(us|ms|s)\b")
_ROWS = re.compile(r"Output num rows per block: .*?(\d+) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(stats: list[str]) -> list[dict]:
    """Operators of every stats string, each counted once (a dataset's
    stats repeat its already-executed parents verbatim)."""
    seen: set[str] = set()
    ops: list[dict] = []
    for text in stats:
        for block in re.split(r"\n(?=Operator \d+ )", text):
            block = block.strip()
            m = _OP_HEADER.match(block)
            if not m or block in seen:
                continue
            seen.add(block)
            wall = _WALL.search(m["rest"])
            rows = _ROWS.findall(block)
            ops.append(
                {
                    "name": m["name"],
                    "blocks": sum(int(b) for b in _BLOCKS.findall(block)),
                    "rows_out": int(rows[-1]) if rows else 0,
                    "wall_s": float(wall[1]) * _UNIT[wall[2]] if wall else 0.0,
                }
            )
    return ops
