"""Span-sequence invariant utilities + IO adapter."""

from __future__ import annotations

import pyarrow as pa
import pytest

import ray

from relation_extraction_ray import schemas
from relation_extraction_ray.functions.invariant import (
    assert_hashes_consistent,
    attach_span_hash,
    check_against_documents,
)
from relation_extraction_ray.pipelines.kg import KGPipeline
from relation_extraction_ray.sources.io import backend, read_documents, write_table
from relation_extraction_ray.sources.synth import documents_dataset


def test_invariant_holds_through_pipeline(ray_session):
    docs = documents_dataset(50, override_num_blocks=4)
    out = KGPipeline(batch_size=32).run(docs)
    assert check_against_documents(out["triples"], docs) == 0
    assert check_against_documents(out["encoded"], docs) == 0
    assert_hashes_consistent(out["triples"])


def test_invariant_detects_corruption(ray_session):
    docs = documents_dataset(30, override_num_blocks=2)
    out = KGPipeline(batch_size=32).run(docs)

    def corrupt(batch: pa.Table) -> pa.Table:
        h = batch.column("span_hash").to_pylist()
        if h:
            h[0] = (h[0] + 1) % 2**64
        return batch.set_column(
            batch.schema.get_field_index("span_hash"), "span_hash", pa.array(h, pa.uint64())
        )

    bad = out["triples"].map_batches(corrupt, batch_format="pyarrow")
    assert check_against_documents(bad, docs) > 0


def test_attach_span_hash_matches_pipeline(ray_session):
    docs = documents_dataset(20, override_num_blocks=2)
    stamped = {r["doc_id"]: r["span_hash"] for r in attach_span_hash(docs).take_all()}
    out = KGPipeline(batch_size=32).run(docs)
    for r in out["triples"].take_all():
        assert stamped[r["doc_id"]] == r["span_hash"]


def test_jsonl_roundtrip_bit_exact(tmp_path, ray_session):
    """S4 JSONL sink parity: write line-delimited JSON, re-read with the
    original schema, bit-equal tables (incl. nested tokens list<struct>
    and uint64 span hashes)."""
    from relation_extraction_ray.sources.io import read_jsonl, write_jsonl

    docs = documents_dataset(20, override_num_blocks=2)
    pipe = KGPipeline(batch_size=32)
    out = pipe.run(docs)
    for name in ("sentences", "triples"):
        ds = out[name]
        schema = ds.schema()
        arrow_schema = pa.schema(list(zip(schema.names, schema.types)))
        path = str(tmp_path / f"{name}_jsonl")
        write_jsonl(ds, path)
        back = read_jsonl(path, schema=arrow_schema)
        assert back.schema().types == ds.schema().types
        key = lambda r: (r["doc_id"], r.get("sent_id", 0), r.get("pair_id", 0))
        want = sorted(ds.take_all(), key=key)
        got = sorted(back.take_all(), key=key)
        assert got == want


def test_kg_jsonl_checkpoints_match_parquet(tmp_path, ray_session):
    docs = documents_dataset(20, override_num_blocks=2)
    ref = KGPipeline(batch_size=32).run(docs, checkpoint_dir=str(tmp_path / "pq"))
    alt = KGPipeline(batch_size=32, sink_format="jsonl").run(docs, checkpoint_dir=str(tmp_path / "jl"))
    key = lambda r: (r["doc_id"], r.get("sent_id", 0), r.get("pair_id", 0))
    for name in ("sentences", "triples"):
        assert sorted(alt[name].take_all(), key=key) == sorted(ref[name].take_all(), key=key)
    import glob
    import json

    files = glob.glob(str(tmp_path / "jl" / "triples" / "*.json"))
    assert files, "jsonl checkpoint should write .json fragments"
    with open(files[0]) as f:
        json.loads(f.readline())  # every line is one standalone JSON object


def test_io_roundtrip(tmp_path, ray_session):
    assert backend() in ("lance", "parquet")
    docs = documents_dataset(25, override_num_blocks=2)
    path = str(tmp_path / "docs_out")
    write_table(docs, path)
    back = read_documents(path)
    a = sorted(r["doc_id"] for r in docs.take_all())
    b = sorted(r["doc_id"] for r in back.take_all())
    assert a == b
    pruned = read_documents(path, columns=["doc_id"])
    assert set(pruned.take(1)[0].keys()) == {"doc_id"}
