"""Seeded inputs for the three workloads.

Every input is a pure function of ``--seed``: the same seed gives the same
parquet bytes, so a seed names an input set exactly.  Inputs are written
before any timing starts; the program under test only ever receives the
files.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from relation_extraction_ray import schemas
from relation_extraction_ray.nlp.labeler import LABELS, OTHER
from relation_extraction_ray.sources.synth import corpus_table

# build: one build-kg job.  On one CPU a tiny job's wall (the floor) is
# ~2.2 s and each doc adds ~1 ms, so per-doc work is ~55 % of a build;
# more docs would leave too few builds per run to take a median.
BUILD_DOCS = 3000
# graph: pre-extracted triples over a Zipf-headed entity pool.  The
# component query's cost is dominated by its per-round floor, so larger
# inputs buy little and cost seconds per round.
GRAPH_TRIPLES = 16000
GRAPH_POOL = 20000
GRAPH_ZIPF_S = 1.3
GRAPH_TRIPLES_PER_DOC = 4
GRAPH_KB_SHARE = 0.6
# set-up probes: the first (cold) execution after the session starts
WARMUP_DOCS = 20
WARMUP_TRIPLES = 500

# doc ids of the set-up probe corpus never meet the measured corpora
_WARMUP_START = 10**8
_LETTERS = np.array(list("abcdefghijklmnopqrtuvwxyz"))  # no 's': plurals stay unambiguous


def _write(table: pa.Table, path: str) -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(table, os.path.join(path, "part-0.parquet"))
    return path


def write_build_inputs(root: str, seed: int) -> dict:
    return {
        "warmup": _write(corpus_table(WARMUP_DOCS, seed, _WARMUP_START), f"{root}/warmup"),
        "corpus": _write(corpus_table(BUILD_DOCS, seed, 0), f"{root}/corpus"),
        "n_docs": BUILD_DOCS,
    }


def _entity_pool(rng: np.random.Generator) -> list[str]:
    names: set[str] = set()
    while len(names) < GRAPH_POOL:
        names.add("".join(rng.choice(_LETTERS, int(rng.integers(6, 10)))))
    pool = sorted(names)
    rng.shuffle(pool)
    return pool


def graph_triples(seed: int) -> tuple[pa.Table, list[dict]]:
    """Pre-extracted triples plus a KB covering part of the entity pool.

    Mentions draw entities from a Zipf(s) law over the pool, so a few head
    entities carry most mentions; each mention picks one of four surface
    variants (lower, Capitalized, UPPER, plural) that canonicalize to the
    same entity.  The KB covers ``GRAPH_KB_SHARE`` of the pool, and some
    entries share an extra alias, so the linker has to disambiguate."""
    rng = np.random.default_rng([seed, 0x6B67])
    pool = _entity_pool(rng)
    p = 1.0 / np.arange(1, GRAPH_POOL + 1) ** GRAPH_ZIPF_S
    p /= p.sum()
    subj = rng.choice(GRAPH_POOL, GRAPH_TRIPLES, p=p)
    obj = rng.choice(GRAPH_POOL, GRAPH_TRIPLES, p=p)
    variant = rng.integers(0, 4, (2, GRAPH_TRIPLES))
    preds = [lab for lab in LABELS if lab != OTHER]
    pred = rng.integers(0, len(preds), GRAPH_TRIPLES)

    def surface(i: int, v: int) -> str:
        lex = pool[i]
        return (lex, lex.capitalize(), lex.upper(), lex + "s")[v]

    n = GRAPH_TRIPLES
    table = pa.Table.from_pydict(
        {
            "doc_id": [f"g{j // GRAPH_TRIPLES_PER_DOC:08d}" for j in range(n)],
            "sent_id": pa.array(np.arange(n) % GRAPH_TRIPLES_PER_DOC, pa.int32()),
            "subj": [surface(i, v) for i, v in zip(subj.tolist(), variant[0].tolist())],
            "pred": [preds[k] for k in pred.tolist()],
            "obj": [surface(i, v) for i, v in zip(obj.tolist(), variant[1].tolist())],
            "score": pa.array(rng.random(n), pa.float32()),
            "span_hash": pa.array(rng.integers(0, 2**63, n, dtype=np.int64).astype(np.uint64)),
        },
        schema=schemas.TRIPLES,
    )

    hints = sorted({w for lab in preds for w in lab.lower().split("(")[0].split("-")})
    n_kb = int(GRAPH_POOL * GRAPH_KB_SHARE)
    kb = [
        {
            "kb_id": f"kb_{lex}",
            "name": lex,
            "aliases": [lex.capitalize(), lex.upper(), lex + "s"],
            "type_hints": [hints[int(h)] for h in rng.choice(len(hints), 2, replace=False)],
        }
        for lex in pool[:n_kb]
    ]
    # ambiguous aliases: pairs of KB entries also claim an uncovered pool
    # entity's name, so mentions of it have two alias-only candidates
    uncovered = pool[n_kb:]
    for k in range(0, n_kb // 10, 2):
        shared = uncovered[k // 2]
        kb[k]["aliases"].append(shared)
        kb[k + 1]["aliases"].append(shared)
    return table, kb


def write_graph_inputs(root: str, seed: int) -> dict:
    table, kb = graph_triples(seed)
    kb_path = f"{root}/kb.json"
    os.makedirs(root, exist_ok=True)
    with open(kb_path, "w") as f:
        json.dump(kb, f)
    return {
        "warmup": _write(table.slice(0, WARMUP_TRIPLES), f"{root}/warmup"),
        "triples": _write(table, f"{root}/triples"),
        "kb": kb_path,
        "n_rows": table.num_rows,
    }
