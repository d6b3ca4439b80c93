"""Entity-link disambiguator (SURVEY.md T8; north-star "entity-link
disambiguator" stage).

The reference uses raw lowercased surface forms as entity identities
(``wiki2sdp.py:184``); the engine adds a KB-linking stage between scoring
and canonicalization:

* a small knowledge base (alias → candidate KB entries) is broadcast
  via ``ray.put`` once per KB content per Ray session and fetched once
  per worker by the cached stage's ``__init__`` — the classic
  broadcast-join, no shuffle.  "Small" is measured on the KB's pickle,
  made once per :func:`link_triples` call: its length decides broadcast
  against KB-sharded join, and its digest keys the cached ref;
* disambiguation among candidate senses is deterministic: score =
  alias-match strength + context-token overlap with the entry's type
  hints, ties by kb_id — pure function of (surface, context), identical
  at any parallelism;
* unlinkable surfaces fall back to the surface-derived canonical id, so
  downstream canonicalization degrades gracefully (NIL entities);
* linking is decided once per DISTINCT surface of a batch
  (:func:`link_column`): a norm with no candidates, or whose candidates
  all share one ``kb_id``, links the same way in every context, so only
  mentions of ambiguous norms (two or more distinct ``kb_id``s) are
  scored per row against their :func:`row_context`.

A production deployment swaps ``score_candidates`` for a model forward
pass; the Ray plumbing (broadcast KB, task stage, batch shapes) is what
this module fixes.
"""

from __future__ import annotations

import hashlib
import pickle

import pyarrow as pa
import pyarrow.compute as pc
import ray

LINKED_TRIPLES_EXTRA = [
    ("subj_kb", pa.string()),
    ("obj_kb", pa.string()),
    ("subj_linked", pa.bool_()),
    ("obj_linked", pa.bool_()),
]


# Alias keying uses the SAME normalization as canonicalization
# (nlp/normalize.py) so linked and unlinked entities partition identically.
from ..nlp.normalize import nil_id, surface_norm  # noqa: E402


def build_kb(entries: list[dict]) -> dict[str, list[dict]]:
    """entries: [{kb_id, name, aliases: [..], type_hints: [..]}] →
    alias-norm → candidate list (sorted by kb_id for determinism).  Each
    entry is listed once per DISTINCT norm of its name and aliases (case
    and plural variants share one norm); a repeated entry could never
    change :func:`score_candidates`' minimum."""
    kb: dict[str, list[dict]] = {}
    for e in entries:
        for norm in {surface_norm(a) for a in (e["name"], *e.get("aliases", []))}:
            kb.setdefault(norm, []).append(e)
    for cands in kb.values():
        cands.sort(key=lambda e: e["kb_id"])
    return kb


def score_candidates(norm: str, context: set[str], cands: list[dict]) -> dict:
    """Deterministic disambiguation: exact-name match beats alias match;
    context-token overlap with type_hints breaks the rest; kb_id final
    tie-break (stable)."""
    best, best_key = None, None
    for e in cands:
        exact = 1 if surface_norm(e["name"]) == norm else 0
        overlap = len(context & set(e.get("type_hints", ())))
        key = (-exact, -overlap, e["kb_id"])
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best


def row_context(subj: str, obj: str, pred: str) -> set[str]:
    """The disambiguation context of one triple row — THE one definition
    shared by the broadcast and KB-sharded paths (bit-equality contract)."""
    rel = pred.lower().split("(")[0]
    return {subj.lower(), obj.lower(), rel, *rel.split("-")}


def link_surface(surface: str, context: set[str], cands: list[dict] | None) -> tuple[str, bool]:
    """Link one mention given its candidate list (None/[] → NIL fallback)."""
    norm = surface_norm(surface)
    if not cands:
        return nil_id(norm), False
    return score_candidates(norm, context, cands)["kb_id"], True


def link_column(rows: pa.Table, side: str, lookup) -> tuple[pa.Array, pa.Array]:
    """(kb ids, linked flags) of the ``side`` (``"subj"``/``"obj"``)
    mentions of triple ``rows``, equal to :func:`link_surface` per row.

    ``lookup(norm)`` returns a norm's candidate list (None/[] when it has
    none).  Linking is decided once per distinct surface: a norm with no
    candidates is NIL and a norm whose candidates share one ``kb_id``
    links to it, whatever the context.  Only rows whose norm has two or
    more distinct ``kb_id``s are scored with their :func:`row_context`."""
    enc = pc.dictionary_encode(rows.column(side)).combine_chunks()
    kb_ids, oks, ambiguous = [], [], {}
    for i, surface in enumerate(enc.dictionary.to_pylist()):
        norm = surface_norm(surface)
        cands = lookup(norm)
        if not cands:
            kb_ids.append(nil_id(norm))
        elif len({e["kb_id"] for e in cands}) == 1:
            kb_ids.append(cands[0]["kb_id"])
        else:
            kb_ids.append(None)  # scored per row below
            ambiguous[i] = (norm, cands)
        oks.append(bool(cands))
    idx = enc.indices
    kb_col = pa.array(kb_ids, pa.string()).take(idx)
    ok_col = pa.array(oks, pa.bool_()).take(idx)
    if ambiguous:
        mask = pc.is_in(idx, value_set=pa.array(list(ambiguous), idx.type))
        picked = rows.filter(mask)
        scored = []
        for i, s, o, p in zip(
            idx.filter(mask).to_pylist(),
            picked.column("subj").to_pylist(),
            picked.column("obj").to_pylist(),
            picked.column("pred").to_pylist(),
        ):
            norm, cands = ambiguous[i]
            scored.append(score_candidates(norm, row_context(s, o, p), cands)["kb_id"])
        kb_col = pc.replace_with_mask(kb_col, mask, pa.array(scored, pa.string()))
    return kb_col, ok_col


class LinkerStage:
    """Task stage: triples → triples + (subj_kb, obj_kb) columns.

    KB fetched zero-copy once per worker (the stage instance is cached
    per worker process); each side is linked by :func:`link_column`, the
    context of an ambiguous mention being the row's surface tokens
    (subj/obj/pred words)."""

    def __init__(self, kb_ref) -> None:
        self.kb = ray.get(kb_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        s_kb, s_ok = link_column(batch, "subj", self.kb.get)
        o_kb, o_ok = link_column(batch, "obj", self.kb.get)
        out = batch
        for (name, _), arr in zip(LINKED_TRIPLES_EXTRA, (s_kb, o_kb, s_ok, o_ok)):
            out = out.append_column(name, arr)
        return out


#: Byte budget, on the pickled KB, above which the KB stops being
#: broadcast to every worker and is hash-sharded instead (same planner
#: decision as the verify joins in functions/dedup.py — a byte bound
#: transfers across cluster sizes, a row count does not).  A production KB
#: (10⁸ aliases) is far above this.
_KB_BROADCAST_BYTES = 32 << 20


#: The last broadcast KB: ((node id, content digest), ref).  One entry, so
#: the driver pins at most one KB copy in the object store.
_KB_REF: tuple[tuple[str, str], ray.ObjectRef] | None = None


def _kb_ref(kb: dict[str, list[dict]], pickled: bytes) -> ray.ObjectRef:
    """The object ref of ``kb``, put once per KB content per Ray session.

    Keyed on the digest of ``pickled`` (``pickle.dumps(kb)``), so an equal
    KB built again reuses the ref and any edit puts a new one; and on the
    session's node id, which changes when Ray restarts, so a ref from a
    dead session is never handed out."""
    global _KB_REF
    key = (ray.get_runtime_context().get_node_id(), hashlib.blake2b(pickled).hexdigest())
    if _KB_REF is None or _KB_REF[0] != key:
        _KB_REF = (key, ray.put(kb))
    return _KB_REF[1]


def link_triples(
    triples: ray.data.Dataset,
    kb: dict[str, list[dict]],
    broadcast_bytes: int = _KB_BROADCAST_BYTES,
) -> ray.data.Dataset:
    """Entity-link a triples dataset against ``kb``, picking the join
    strategy by the KB's serialized size: small KBs are broadcast (read in
    every task — no shuffle); KBs whose pickle is above ``broadcast_bytes``
    are hash-sharded by alias norm and joined reduce-side
    (:func:`link_triples_partitioned`), bit-identically.

    The KB is pickled ONCE per call.  The pickle's length is the planner's
    byte measure — what a broadcast really ships, an entry shared by many
    aliases counted once (pickle's memo) — and its digest keys the cached
    ref: the broadcast KB is ``ray.put`` once per KB content per Ray
    session, so repeated calls with an equal KB reuse one object."""
    pickled = pickle.dumps(kb)
    if len(pickled) > broadcast_bytes and triples.schema() is not None:
        return link_triples_partitioned(triples, kb)
    kb_ref = _kb_ref(kb, pickled)
    # task map with a per-worker stage cache — the KB ref ray.get is the
    # only state; actor-pool spin-up cost more than the whole query
    from ..taskexec import cached_stage_fn

    return triples.map_batches(
        cached_stage_fn(LinkerStage, kb_ref.hex(), {"kb_ref": kb_ref}),
        batch_format="pyarrow",
    )


def link_triples_partitioned(
    triples: ray.data.Dataset,
    kb: dict[str, list[dict]],
    n_parts: int | None = None,
) -> ray.data.Dataset:
    """KB-sharded reduce-side entity linking (the >broadcast-bound path).

    Two :func:`..functions.joins.cogroup` exchanges against the KB rows
    ``(norm, payload)`` (alias norm → JSON candidate list): the triple
    rows keyed on ``surface_norm(subj)`` meet their KB alias shard and
    the subject is linked; the linked rows, re-keyed on
    ``surface_norm(obj)``, meet it again and the object is linked.  The
    KB ships as rows alongside the data — above the exchange planner
    bound never materialized on any single worker — while unmatched
    surfaces keep the broadcast path's NIL fallback (left join, unlike
    ``pair_payload_join``'s inner join).  Disambiguation calls the same
    :func:`link_column` as the broadcast path, and the output keeps its
    column order, so the two strategies are bit-identical (asserted in
    ``tests/test_linker_skew.py``, also at 4 partitions).

    At 100 TB: triples rows cross two bounded keyed exchanges (the standard
    reduce-side join cost; ``cogroup`` materializes the triples and the
    subject-linked rows), KB shards are ``O(|KB| / n_parts)`` each, and
    ``n_parts`` derives from the alias count — no driver or per-worker
    whole-KB copy anywhere.  In production the alias table would be read
    from parquet shards; the dict→rows conversion here mirrors
    :func:`build_kb`'s in-memory contract."""
    import json

    from ..functions.joins import cogroup, derive_n_parts

    n_parts = n_parts or derive_n_parts(len(kb), rows_per_part=20_000, cap=256)
    kb_ds = ray.data.from_arrow(
        pa.table(
            {
                "norm": pa.array(list(kb.keys()), pa.string()),
                "payload": pa.array(
                    [json.dumps(c, sort_keys=True) for c in kb.values()], pa.string()
                ),
            }
        )
    )
    subj_key, obj_key = "__subj_norm__", "__obj_norm__"

    def link_side(rows: pa.Table, kt: pa.Table, side: str):
        """(kb ids, linked flags) of the subj or obj of ``rows``; only the
        candidate lists of norms present in ``rows`` are decoded."""
        payloads = dict(zip(kt.column("norm").to_pylist(), kt.column("payload").to_pylist()))

        def lookup(norm: str):
            payload = payloads.get(norm)
            return None if payload is None else json.loads(payload)

        return link_column(rows, side, lookup)

    def with_subj_key(batch: pa.Table) -> pa.Table:
        norms = [surface_norm(s) for s in batch.column("subj").to_pylist()]
        return batch.append_column(subj_key, pa.array(norms, pa.string()))

    def link_subj(rows: pa.Table, kt: pa.Table) -> pa.Table:
        s_kb, s_ok = link_side(rows, kt, "subj")
        o_norms = [surface_norm(o) for o in rows.column("obj").to_pylist()]
        return (
            rows.drop_columns([subj_key])
            .append_column("subj_kb", s_kb)
            .append_column("subj_linked", s_ok)
            .append_column(obj_key, pa.array(o_norms, pa.string()))
        )

    def link_obj(rows: pa.Table, kt: pa.Table) -> pa.Table:
        o_kb, o_ok = link_side(rows, kt, "obj")
        rows = rows.drop_columns([obj_key])
        base = rows.drop_columns(["subj_kb", "subj_linked"])
        return pa.Table.from_arrays(
            base.columns + [rows.column("subj_kb"), o_kb, rows.column("subj_linked"), o_ok],
            names=base.column_names + [name for name, _ in LINKED_TRIPLES_EXTRA],
        )

    keyed = triples.map_batches(with_subj_key, batch_format="pyarrow").materialize()
    if keyed.count() == 0:  # a map over no rows carries no schema
        base = triples.schema()
        return ray.data.from_arrow(
            pa.schema(list(zip(base.names, base.types)) + LINKED_TRIPLES_EXTRA).empty_table()
        )
    subj_linked = cogroup(keyed, kb_ds, [subj_key], ["norm"], link_subj, n_parts)
    return cogroup(subj_linked, kb_ds, [obj_key], ["norm"], link_obj, n_parts)


def synth_kb(seed: int = 42) -> list[dict]:
    """KB over the synthetic corpus inventory: one entry per lexeme,
    aliases = the generator's surface variants (case / plural), type hints
    = the pool the lexeme belongs to."""
    from ..sources.synth import AGENTS, COLLECTIONS, CONTAINERS, MESSAGES, PLACES, THINGS

    entries = []
    for pool, hint in (
        (AGENTS, "agent"),
        (THINGS, "thing"),
        (CONTAINERS, "container"),
        (PLACES, "place"),
        (COLLECTIONS, "collection"),
        (MESSAGES, "message"),
    ):
        for lex in pool:
            entries.append(
                {
                    "kb_id": f"kb_{hint}_{lex}",
                    "name": lex,
                    "aliases": [lex.capitalize(), lex.upper(), lex + "s"],
                    "type_hints": [hint],
                }
            )
    return entries
