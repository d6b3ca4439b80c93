"""Resumable sharded KG run: the scale harness around the streaming
pipeline (north rule: per-partition lineage + counters, failed shards
resume without recomputation).  ``build-kg-sharded`` runs it over a
doc_id-hash split, ``build-kg --checkpoint`` over one shard.

Layout under ``out_dir``::

    manifest.jsonl                      # one entry per (stage, shard)
    sentences/shard=i/*.parquet         # stage "sentences" output (worker-written)
    counts/shard=i/part-*.parquet       # its (kind, token, count) partials
    vocab/{word,dep,pos}.parquet        # finalized global vocab (barrier)
    triples/shard=i/*.parquet           # stage "triples" output (worker-written)
    audit/shard=i/part-*.parquet        # its GOOD/BAD + span-checksum partials
    entities/shard=0/ adjacency/shard=0/  # final tables

Every stage is one :meth:`..state.resume.Manifest.checkpoint` step, and
a rerun skips a step whose manifest entry is :meth:`~..state.resume.Manifest.done`.
Each shard's fingerprint folds a content digest of its input documents
(:func:`shard_digests`, SURVEY §4's ``input_fragment_ids``) into the
config and stage version; the triples and final-table fingerprints add
the finalized vocab, so a changed input, config or vocab recomputes
exactly what depends on it.  Deciding costs one execution over every
shard's documents: one scan of the input for a :func:`hash_split`.

Shard granularity is the resume unit: each shard is itself a parallel Ray
Data pipeline (blocks stream through the KG stage tasks).  Nothing
shard-sized crosses the driver and nothing funnels through one actor:
workers ``write_parquet`` their own shard directories, manifest row counts
come from the written parquet footers, and token counts, span checksums
and GOOD/BAD counters are per-batch side-stream partials
(:func:`..state.resume.write_partial`) folded from footers at shard end.
The only driver-side materializations are the finalized vocab
(≤ vocab_limit rows, truncation pushed distributed) and the manifest rows.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .. import schemas
from ..config import KGConfig
from ..functions.joins import hash_columns, part_array
from ..state.resume import Manifest, input_fingerprint, write_partial
from .kg import (
    KGPipeline,
    _partial_token_counts,
    adjacency_from_triples,
    entities_from_triples,
    finalize_counted_vocabs,
    sum_token_partials,
    vocab_table,
)

STAGE_VERSION = "kg_v2"  # bump when stage semantics change: invalidates resume
_EMPTY = pa.table({"n": pa.array([], pa.int64())})
_COUNTS = pa.schema([("kind", pa.string()), ("token", pa.string()), ("count", pa.int64())])


def _xor_u64(batch: pa.Table, col: str) -> int:
    """Vectorized XOR fold of a uint64 column (multiset checksum — order-
    and partition-independent, so it folds across batches and retries)."""
    arr = batch.column(col).to_numpy(zero_copy_only=False).astype(np.uint64)
    return int(np.bitwise_xor.reduce(arr)) if len(arr) else 0


def _batch_key(shard: int, batch: pa.Table, salt: str = "") -> str:
    """Content fingerprint of one batch — the idempotency key for its
    side-stream partial fragment (a retried task re-writes the same file).
    Vectorized: numeric id columns hash via their raw buffers; doc_id via
    first/last (the numeric ids disambiguate the interior)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"{salt}:{shard}:{batch.num_rows}:".encode())
    h.update(str(batch.column("doc_id")[0].as_py()).encode())
    h.update(str(batch.column("doc_id")[-1].as_py()).encode())
    for col in ("sent_id", "pair_id", "span_hash"):
        if col in batch.column_names:
            h.update(batch.column(col).to_numpy(zero_copy_only=False).tobytes())
    return h.hexdigest()


def _with_shard(ds: ray.data.Dataset, shard_of) -> ray.data.Dataset:
    """``ds`` plus an int32 ``shard`` column, ``shard_of(batch)``."""

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("shard", shard_of(batch))

    return ds.map_batches(tag, batch_format="pyarrow")


def hash_split(docs: ray.data.Dataset, n_shards: int) -> tuple:
    """``(docs_for_shard, tagged_docs)`` for a doc_id-hash split of
    ``docs`` (a doc's shard depends on neither block layout nor id dtype).
    ``tagged_docs`` carries every doc's shard, so the input digest takes
    one scan of ``docs`` whatever the shard count; one shard passes
    ``docs`` through unfiltered."""
    tagged = _with_shard(docs, lambda b: part_array(b, ["doc_id"], n_shards))
    if n_shards == 1:
        return (lambda i: docs), tagged

    def docs_for_shard(i: int) -> ray.data.Dataset:
        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("shard"), i)).drop_columns(["shard"])

        return tagged.map_batches(pick, batch_format="pyarrow")

    return docs_for_shard, tagged


def shard_digests(tagged_docs: ray.data.Dataset, n_shards: int) -> list[tuple[int, int, int]]:
    """Order- and layout-free content digest of each shard's documents,
    from one streaming scan of ``tagged_docs`` (documents plus their
    ``shard``) and no parse: one row per document (``doc_id``) and one per
    span (``doc_id``, its position, ``kind``, ``text``, ``media_ref``),
    hashed by :func:`..functions.joins.hash_columns` and folded per shard
    into (rows, sum mod 2⁶⁴, xor) as ``joins.table_digest`` folds them."""

    def partial(batch: pa.Table) -> pa.Table:
        ids, spans = (batch.column(c).combine_chunks() for c in ("doc_id", "spans"))
        parent = pc.list_parent_indices(spans).to_numpy(zero_copy_only=False)
        offs = spans.offsets.to_numpy()  # a sliced batch's start at offs[0]
        flat, blank = pc.list_flatten(spans), pa.array([""] * len(ids))
        rows = pa.table({
            "doc_id": pa.concat_arrays([ids, ids.take(parent)]),
            "pos": np.concatenate([np.full(len(ids), -1), np.arange(offs[0], offs[-1]) - offs[parent]]),
            **{f: pa.concat_arrays([blank, flat.field(f)]) for f in ("kind", "text", "media_ref")},
        })
        h = hash_columns(rows, ["doc_id", "pos", "kind", "text", "media_ref"])
        shard = batch.column("shard").to_numpy()
        shard = np.concatenate([shard, shard[parent]])
        keys = np.unique(shard)
        return pa.table({
            "shard": pa.array(keys, pa.int64()),
            "n": pa.array([int((shard == k).sum()) for k in keys], pa.int64()),
            "s": pa.array([int(h[shard == k].sum(dtype=np.uint64)) for k in keys], pa.uint64()),
            "x": pa.array([int(np.bitwise_xor.reduce(h[shard == k])) for k in keys], pa.uint64()),
        })

    acc = [(0, 0, 0)] * n_shards
    for r in tagged_docs.map_batches(partial, batch_format="pyarrow").take_all():
        n, s, x = acc[r["shard"]]
        acc[r["shard"]] = (n + r["n"], (s + r["s"]) % (1 << 64), x ^ r["x"])
    return acc


class ShardedKGRunner:
    def __init__(
        self,
        out_dir: str,
        n_shards: int,
        docs_for_shard,  # Callable[[int], ray.data.Dataset]
        cfg: KGConfig | None = None,
        tagged_docs: ray.data.Dataset | None = None,  # every shard's docs plus ``shard``
    ) -> None:
        self.out_dir = out_dir
        self.n_shards = n_shards
        self.docs_for_shard = docs_for_shard
        if tagged_docs is None:  # one execution over the union of the shards
            parts = [_with_shard(docs_for_shard(i), lambda b, i=i: pa.array(np.full(b.num_rows, i, np.int32)))
                     for i in range(n_shards)]
            tagged_docs = parts[0].union(*parts[1:]) if n_shards > 1 else parts[0]
        self.tagged_docs = tagged_docs
        self.cfg = cfg or KGConfig()
        self.pipe = KGPipeline(self.cfg)
        self.manifest = Manifest(out_dir)
        self.recomputed: list[tuple[str, int]] = []  # visibility for tests/metrics

    def _step(self, stage: str, shard: int, fp: str, build, **counters) -> None:
        """Checkpoint ``build()`` as (stage, shard) unless it is done."""
        if self.manifest.done(stage, shard, fp) is None:
            self.recomputed.append((stage, shard))
            self.manifest.checkpoint(build(), stage, shard, fp, **counters)

    def _read(self, stage: str, schema: pa.Schema, shards) -> ray.data.Dataset:
        """This run's shards of ``stage`` — never a stale shard beyond them."""
        files = sorted(
            f for i in shards for f in glob.glob(os.path.join(self.manifest.shard_dir(stage, i), "*.parquet"))
        )
        if not files:
            return ray.data.from_arrow(schema.empty_table())
        return ray.data.read_parquet(files, partitioning=None)

    def _sentences(self, shard: int) -> ray.data.Dataset:
        """Parse + a per-batch tap emitting the batch's (kind, token, count)
        partial and span-hash XOR as one idempotent side-stream fragment
        while the rows stream to parquet — one execution, no re-read."""
        counts_dir = self.manifest.shard_dir("counts", shard)

        def tap(batch: pa.Table) -> pa.Table:
            if batch.num_rows:
                write_partial(
                    _partial_token_counts(batch),
                    counts_dir,
                    _batch_key(shard, batch, salt="s"),
                    {"xor:span": _xor_u64(batch, "span_hash"), "sum:sentences": batch.num_rows},
                )
            return batch

        docs = self.docs_for_shard(shard)
        return self.pipe.sentences(docs).map_batches(tap, batch_format="pyarrow")

    def _triples(self, shard: int, vocabs) -> ray.data.Dataset:
        """Extract + score one shard's sentences, with GOOD/BAD counters on
        the candidates and a span-hash XOR on the triples as footer-only
        side-stream partials (zero data rows)."""
        audit_dir = self.manifest.shard_dir("audit", shard)

        def tap(salt: str, scalars):
            def write(batch: pa.Table) -> pa.Table:
                if batch.num_rows:
                    write_partial(_EMPTY, audit_dir, _batch_key(shard, batch, salt), scalars(batch))
                return batch

            return write

        def verdicts(batch: pa.Table) -> dict[str, int]:
            good = int(pc.sum(pc.equal(batch.column("verdict"), "GOOD")).as_py() or 0)
            return {"sum:candidates": batch.num_rows, "sum:good": good, "sum:bad": batch.num_rows - good}

        sentences = self._read("sentences", schemas.SENTENCES, [shard])
        encoded = self.pipe.encoded(sentences, vocabs).map_batches(tap("a", verdicts), batch_format="pyarrow")
        triples = self.pipe.triples(encoded, vocabs)
        span = tap("h", lambda b: {"xor:span": _xor_u64(b, "span_hash")})
        return triples.map_batches(span, batch_format="pyarrow")

    def _finalize_vocab(self) -> tuple:
        """Merge every shard's count partials distributed; only the
        finalized ≤ vocab_limit rows reach the driver."""
        counts = self._read("counts", _COUNTS, range(self.n_shards))
        vocabs = finalize_counted_vocabs(sum_token_partials(counts).materialize(), self.cfg)
        vdir = os.path.join(self.out_dir, "vocab")
        os.makedirs(vdir, exist_ok=True)
        for name, (vocab, _, dist) in zip(("word", "dep", "pos"), vocabs):
            pq.write_table(vocab_table(vocab, dist), os.path.join(vdir, f"{name}.parquet"))
        return vocabs

    def run(self) -> dict:
        self.recomputed = []
        shards = range(self.n_shards)
        cfg = json.dumps(asdict(self.cfg), sort_keys=True)
        fps = [input_fingerprint(STAGE_VERSION, cfg, d) for d in shard_digests(self.tagged_docs, self.n_shards)]
        for i in shards:
            self._step("sentences", i, fps[i], lambda: self._sentences(i), side="counts", sentences=0, span=0)
        vocabs = self._finalize_vocab()
        vocab_fp = input_fingerprint(*("\x00".join(vocab) for vocab, _, _ in vocabs))
        fps = [input_fingerprint(fp, vocab_fp) for fp in fps]
        for i in shards:
            self._step(
                "triples", i, fps[i], lambda: self._triples(i, vocabs),
                side="audit", candidates=0, good=0, bad=0, span=0,
            )
        out = {"triples": self._read("triples", schemas.TRIPLES, shards)}
        tables_fp = input_fingerprint(*fps)
        for name, build, schema in (
            ("entities", entities_from_triples, schemas.ENTITIES),
            ("adjacency", adjacency_from_triples, schemas.ADJACENCY),
        ):
            self._step(name, 0, tables_fp, lambda: build(out["triples"]))
            out[name] = self._read(name, schema, [0])
        return {**out, "recomputed": list(self.recomputed), "vocabs": vocabs}
