"""Entity linker (T8) + skew-safe aggregation (F6 Zipf fixture)."""

from __future__ import annotations

import random

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray

from relation_extraction_ray.functions.aggregate import (
    combine_then_groupby_sum,
    salted_groupby_sum,
)
from relation_extraction_ray.pipelines.kg import KGPipeline
from relation_extraction_ray.sources.synth import documents_dataset
from relation_extraction_ray.state.linker import (
    build_kb,
    link_triples,
    link_triples_partitioned,
    nil_id,
    surface_norm,
    synth_kb,
)


@pytest.fixture(scope="module")
def linked(ray_session):
    pipe = KGPipeline(batch_size=64)
    out = pipe.run(documents_dataset(60, override_num_blocks=4))
    kb = build_kb(synth_kb())
    return link_triples(out["triples"], kb).materialize()


def test_linker_links_corpus_entities(linked):
    rows = linked.take_all()
    assert rows
    linked_frac = sum(r["subj_linked"] and r["obj_linked"] for r in rows) / len(rows)
    # every generator entity is in the KB (aliases cover case/plural variants)
    assert linked_frac == 1.0, linked_frac
    for r in rows[:50]:
        assert r["subj_kb"].startswith("kb_")
        assert r["obj_kb"].startswith("kb_")


def test_linker_nil_fallback(ray_session):
    kb = build_kb([{"kb_id": "kb_x", "name": "known", "aliases": [], "type_hints": []}])
    t = pa.Table.from_pylist(
        [
            {"doc_id": "d", "sent_id": 0, "subj": "known", "pred": "Cause-Effect(e1,e2)", "obj": "mystery", "score": 0.5, "span_hash": 0},
        ]
    )
    rows = link_triples(ray.data.from_arrow(t), kb).take_all()
    assert rows[0]["subj_kb"] == "kb_x" and rows[0]["subj_linked"]
    assert rows[0]["obj_kb"] == nil_id(surface_norm("mystery")) and not rows[0]["obj_linked"]


def test_partitioned_linker_matches_broadcast(ray_session, monkeypatch):
    """The KB-sharded reduce-side path (forced via broadcast_bytes=0, its
    exchanges kept keyed by a zero planner bound) must be bit-identical
    to the broadcast path on a corpus mixing linked, ambiguous, and NIL
    mentions — round-4 verdict task #5."""
    from relation_extraction_ray.functions import joins

    pipe = KGPipeline(batch_size=64)
    triples = pipe.run(documents_dataset(40, override_num_blocks=4))["triples"]
    # add NIL + ambiguous rows on top of the pipeline's fully-linkable set
    extra = pa.Table.from_pylist(
        [
            {"doc_id": "x", "sent_id": 0, "subj": "known", "pred": "Cause-Effect(e1,e2)",
             "obj": "mystery", "score": 0.5, "span_hash": 0},
            {"doc_id": "x", "sent_id": 1, "subj": "bank", "pred": "Entity-Destination(e1,e2)",
             "obj": "unknowable", "score": 0.5, "span_hash": 1},
            {"doc_id": "x", "sent_id": 2, "subj": "bank", "pred": "Product-Producer(e2,e1)",
             "obj": "unknowable", "score": 0.5, "span_hash": 2},
        ]
    )
    extra = extra.cast(triples.schema().base_schema)
    ds = triples.union(ray.data.from_arrow(extra))
    kb = build_kb(
        synth_kb()
        + [
            {"kb_id": "kb_x", "name": "known", "aliases": [], "type_hints": []},
            {"kb_id": "kb_place_bank", "name": "bank", "aliases": [],
             "type_hints": ["place", "entity-destination"]},
            {"kb_id": "kb_agent_bank", "name": "bank", "aliases": [],
             "type_hints": ["agent", "product-producer"]},
        ]
    )
    key = lambda r: (r["doc_id"], r["sent_id"], r["span_hash"], r["subj"], r["obj"])
    broadcast = sorted(link_triples(ds, kb).take_all(), key=key)
    monkeypatch.setattr(joins, "LOCAL_BYTES_BOUND", 0)
    parted = sorted(link_triples(ds, kb, broadcast_bytes=0).take_all(), key=key)
    assert len(broadcast) == len(parted) > 0
    assert broadcast == parted
    # the same two exchanges co-partitioned over 4 partitions
    parted4 = sorted(link_triples_partitioned(ds, kb, n_parts=4).take_all(), key=key)
    assert broadcast == parted4
    # the ambiguous + NIL cases actually exercised both branches
    by_sh = {r["span_hash"]: r for r in parted if r["doc_id"] == "x"}
    assert by_sh[0]["subj_kb"] == "kb_x" and not by_sh[0]["obj_linked"]
    assert by_sh[1]["subj_kb"] == "kb_place_bank"
    assert by_sh[2]["subj_kb"] == "kb_agent_bank"



# --- per-surface linking ------------------------------------------------------

#: Case/plural variants of linked names, an ambiguous norm ("bank": two
#: kb_ids with different type hints), a norm with two entries under ONE
#: kb_id ("twin"), NIL surfaces, and context words that steer "bank".
_SURFACES = ["dog", "Dog", "DOGS", "dogs", "bank", "Bank", "banks", "twin", "Twins",
             "mystery", "unknowable", "agent", "place"]
_PREDS = ["Entity-Destination(e1,e2)", "Product-Producer(e2,e1)", "Other", "agent-place(e1,e2)"]
_TRIPLE_ROWS = st.lists(
    st.tuples(st.sampled_from(_SURFACES), st.sampled_from(_PREDS), st.sampled_from(_SURFACES)),
    max_size=25,
)


def _surface_kb() -> dict:
    return build_kb(
        [
            {"kb_id": "kb_dog", "name": "dog", "aliases": ["Dog", "DOG", "dogs"], "type_hints": ["agent"]},
            {"kb_id": "kb_place_bank", "name": "bank", "aliases": ["Banks"],
             "type_hints": ["place", "entity-destination"]},
            {"kb_id": "kb_agent_bank", "name": "bank", "aliases": [],
             "type_hints": ["agent", "product-producer"]},
            {"kb_id": "kb_twin", "name": "twin", "aliases": ["Twins"], "type_hints": ["agent"]},
            {"kb_id": "kb_twin", "name": "twin", "aliases": [], "type_hints": ["place"]},
            {"kb_id": "kb_agent", "name": "agent", "aliases": [], "type_hints": []},
        ]
    )


def _triples(rows) -> pa.Table:
    return pa.Table.from_pylist(
        [
            {"doc_id": "d", "sent_id": i, "subj": s, "pred": p, "obj": o, "score": 0.5, "span_hash": i}
            for i, (s, p, o) in enumerate(rows)
        ],
        schema=pa.schema(
            [("doc_id", pa.string()), ("sent_id", pa.int64()), ("subj", pa.string()),
             ("pred", pa.string()), ("obj", pa.string()), ("score", pa.float64()),
             ("span_hash", pa.int64())]
        ),
    )


def _per_mention(rows, kb) -> list[tuple]:
    """The per-mention loop: ``link_surface`` on every subj and obj."""
    from relation_extraction_ray.state.linker import link_surface, row_context

    out = []
    for i, (s, p, o) in enumerate(rows):
        ctx = row_context(s, o, p)
        s_kb, s_ok = link_surface(s, ctx, kb.get(surface_norm(s)))
        o_kb, o_ok = link_surface(o, ctx, kb.get(surface_norm(o)))
        out.append((i, s_kb, o_kb, s_ok, o_ok))
    return out


def _linked(table_or_rows) -> list[tuple]:
    rows = table_or_rows.to_pylist() if isinstance(table_or_rows, pa.Table) else table_or_rows
    return sorted((r["span_hash"], r["subj_kb"], r["obj_kb"], r["subj_linked"], r["obj_linked"]) for r in rows)


@settings(max_examples=200, deadline=None)
@given(rows=_TRIPLE_ROWS)
def test_linker_stage_equals_per_mention_loop(ray_session, rows):
    """The broadcast path's stage, linking once per distinct surface,
    equals ``link_surface`` per mention: NIL, one kb_id under duplicate
    entries, ambiguous norms scored per row, case/plural variants."""
    from relation_extraction_ray.state.linker import LinkerStage

    kb = _surface_kb()
    out = LinkerStage(ray.put(kb))(_triples(rows))
    assert out.column_names[-4:] == ["subj_kb", "obj_kb", "subj_linked", "obj_linked"]
    assert _linked(out) == _per_mention(rows, kb)


@settings(max_examples=4, deadline=None)
@given(rows=_TRIPLE_ROWS.filter(bool))
def test_partitioned_linker_equals_per_mention_loop(ray_session, rows):
    """The KB-sharded path gives the per-mention loop's rows too, in its
    one-call arm and in its keyed exchange at 4 partitions."""
    import unittest.mock as mock

    from relation_extraction_ray.functions import joins

    kb = _surface_kb()
    ds = ray.data.from_arrow(_triples(rows))
    want = _per_mention(rows, kb)
    assert _linked(link_triples_partitioned(ds, kb).take_all()) == want
    with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0):
        assert _linked(link_triples_partitioned(ds, kb, n_parts=4).take_all()) == want

def test_kb_planner_bound(ray_session, monkeypatch):
    """link_triples measures the KB by its pickle: broadcast at or below
    the byte bound, the sharded join above it.  Pickle's memo counts an
    entry shared by many aliases once, and a KB of large entries is above
    the default bound."""
    import pickle

    from relation_extraction_ray.state import linker

    small = build_kb(synth_kb())
    assert 0 < len(pickle.dumps(small)) < linker._KB_BROADCAST_BYTES
    # one entry reachable via many aliases is serialized once + references
    shared = build_kb(
        [{"kb_id": "kb_s", "name": "n0", "aliases": [f"a{i}" for i in range(100)],
          "type_hints": []}]
    )
    assert len(pickle.dumps(shared)) < 100 * 96
    big = build_kb(
        [{"kb_id": f"kb_{i}", "name": "m" * (1 << 20), "aliases": [], "type_hints": []}
         for i in range(40)]
    )
    assert len(pickle.dumps(big)) > linker._KB_BROADCAST_BYTES

    sharded = []
    monkeypatch.setattr(
        linker, "link_triples_partitioned", lambda triples, kb: sharded.append(kb) or triples
    )
    size = len(pickle.dumps(small))
    ds = _one_row("bank")
    linker.link_triples(ds, small, broadcast_bytes=size)
    assert sharded == []
    linker.link_triples(ds, small, broadcast_bytes=size - 1)
    assert sharded == [small]


def test_link_triples_pickles_the_kb_once(ray_session, monkeypatch):
    """One link_triples call serializes the KB once: the same pickle is
    the planner's byte measure and the cached ref's content key."""
    import pickle

    from relation_extraction_ray.state import linker

    kb = build_kb(synth_kb())
    dumps = []

    class Spy:
        @staticmethod
        def dumps(value, *args, **kwargs):
            if value is kb:
                dumps.append(value)
            return pickle.dumps(value, *args, **kwargs)

    monkeypatch.setattr(linker, "pickle", Spy)
    name = synth_kb()[0]["name"]
    for calls in (1, 2):
        out = linker.link_triples(_one_row(name), kb).take_all()
        assert len(dumps) == calls and out[0]["subj_linked"]


def test_linker_disambiguates_by_context(ray_session):
    kb = build_kb(
        [
            {"kb_id": "kb_place_bank", "name": "bank", "aliases": [], "type_hints": ["place", "entity-destination"]},
            {"kb_id": "kb_agent_bank", "name": "bank", "aliases": [], "type_hints": ["agent", "product-producer"]},
        ]
    )
    mk = lambda pred: pa.Table.from_pylist(
        [{"doc_id": "d", "sent_id": 0, "subj": "bank", "pred": pred, "obj": "thing", "score": 0.5, "span_hash": 0}]
    )
    place = link_triples(ray.data.from_arrow(mk("Entity-Destination(e1,e2)")), kb).take_all()[0]
    agent = link_triples(ray.data.from_arrow(mk("Product-Producer(e2,e1)")), kb).take_all()[0]
    assert place["subj_kb"] == "kb_place_bank"
    assert agent["subj_kb"] == "kb_agent_bank"


# --- skew ------------------------------------------------------------------


def _zipf_rows(n=20000, head_frac=0.2, seed=3):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        if rng.random() < head_frac:
            k = "HEAD"
        else:
            k = f"k{rng.randrange(2000)}"
        rows.append({"key": k})
    return rows


def test_skew_partial_combine_bounds_shuffle(ray_session):
    rows = _zipf_rows()
    ds = ray.data.from_items(rows).repartition(8)
    out = {r["key"]: r["total"] for r in combine_then_groupby_sum(ds, "key").take_all()}
    expected = {}
    for r in rows:
        expected[r["key"]] = expected.get(r["key"], 0) + 1
    assert out == expected


def test_salted_equals_unsalted(ray_session):
    rows = _zipf_rows(n=10000)
    ds = ray.data.from_items(rows).repartition(8)
    plain = {r["key"]: r["total"] for r in combine_then_groupby_sum(ds, "key").take_all()}
    salted = {r["key"]: r["total"] for r in salted_groupby_sum(ds, "key", n_salts=8).take_all()}
    assert plain == salted


def test_canonicalization_handles_zipf_head(ray_session):
    """The synthetic corpus itself is head-skewed (~20% of subject picks hit
    pool[0]); entity canonicalization must stay exact."""
    pipe = KGPipeline(batch_size=64)
    out = pipe.run(documents_dataset(100, override_num_blocks=8))
    ents = out["entities"].take_all()
    counts = sorted((e["count"] for e in ents), reverse=True)
    assert counts[0] > 3 * (counts[len(counts) // 2] or 1)  # head exists
    assert sum(e["count"] for e in ents) == 2 * out["triples"].count()


# --- broadcast KB reuse ------------------------------------------------------


def _one_row(subj: str) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.Table.from_pylist(
            [{"doc_id": "d", "sent_id": 0, "subj": subj, "pred": "Cause-Effect(e1,e2)",
              "obj": "thing", "score": 0.5, "span_hash": 0}]
        )
    )


def _reuse_kb(alias: str):
    return build_kb(
        [{"kb_id": "kb_reuse", "name": "reusable entity", "aliases": [alias], "type_hints": []}]
    )


def test_equal_kb_content_is_put_once(ray_session, monkeypatch):
    """Two calls with equal-content KBs built separately make one
    ray.put; a KB with one changed alias makes a new put and links the
    new alias."""
    kbs = [_reuse_kb("first alias"), _reuse_kb("first alias"), _reuse_kb("other alias")]
    assert kbs[0] == kbs[1] and kbs[0] is not kbs[1]
    real_put = ray.put
    puts = []

    def spy(value, *args, **kwargs):
        if any(value is kb for kb in kbs):
            puts.append(value)
        return real_put(value, *args, **kwargs)

    monkeypatch.setattr(ray, "put", spy)
    first = link_triples(_one_row("first alias"), kbs[0]).take_all()
    again = link_triples(_one_row("first alias"), kbs[1]).take_all()
    assert len(puts) == 1
    assert first == again and first[0]["subj_kb"] == "kb_reuse"

    edited = link_triples(_one_row("other alias"), kbs[2]).take_all()
    assert len(puts) == 2 and puts[1] is kbs[2]
    assert edited[0]["subj_kb"] == "kb_reuse" and edited[0]["subj_linked"]
    # the old alias is gone from the edited KB
    stale = link_triples(_one_row("first alias"), kbs[2]).take_all()
    assert len(puts) == 2 and not stale[0]["subj_linked"]


def test_kb_ref_survives_ray_restart():
    """Link, restart Ray, link the same KB again: the second call must not
    reuse the dead session's ref (it would hang or fail) and must give
    the same rows."""
    import json
    import os
    import subprocess
    import sys

    script = """
import json, sys
import pyarrow as pa
import ray
from relation_extraction_ray.state.linker import build_kb, link_triples, synth_kb

def run():
    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    rows = pa.Table.from_pylist(
        [{"doc_id": "d", "sent_id": 0, "subj": "bank", "pred": "Cause-Effect(e1,e2)",
          "obj": "mystery", "score": 0.5, "span_hash": 0}]
    )
    out = link_triples(ray.data.from_arrow(rows), build_kb(synth_kb())).take_all()
    ray.shutdown()
    return out

print(json.dumps([run(), run()]))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    first, second = json.loads(proc.stdout.strip().splitlines()[-1])
    assert first == second and len(first) == 1
