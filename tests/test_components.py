"""Connected components (duplicate-cluster folding) — functions/components.py."""

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from relation_extraction_ray.functions.components import _cc_kernel, connected_components


def _pairs(rows):
    a, b = zip(*rows) if rows else ((), ())
    return ray.data.from_arrow(
        pa.table({"doc_a": pa.array(list(a), pa.int64()), "doc_b": pa.array(list(b), pa.int64())})
    )


def _union_find(rows):
    """Oracle: plain driver-side union-find."""
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in rows:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp: dict[int, list[int]] = {}
    for n in parent:
        comp.setdefault(find(n), []).append(n)
    out = []
    for root, members in comp.items():
        canon = min(members)
        for m in members:
            out.append((m, canon, len(members)))
    return sorted(out)


ROWS = [
    # chain (worst-case diameter), clique, single pair, shared-endpoint star
    (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
    (10, 11), (10, 12), (11, 12),
    (20, 21),
    (30, 31), (30, 32), (30, 33),
    # duplicate + reversed-duplicate edges must be harmless
    (2, 1), (20, 21),
]


def _result_tuples(ds):
    tab = ds.sort("doc_id").to_pandas()
    return sorted(
        zip(tab["doc_id"].astype(int), tab["canonical_id"].astype(int), tab["cluster_size"].astype(int))
    )


def test_components_match_union_find(ray_session):
    got = _result_tuples(connected_components(_pairs(ROWS)))
    assert got == _union_find(ROWS)


def test_partitioned_path_bit_equal_to_local(ray_session, monkeypatch):
    """A zero planner bound forces the pair_payload_join path every round
    (and the pointer jump from round 3 on the chain) and the keyed
    exchange arm of every cogroup; the second arm forces 4 partitions, so
    the exchanges really co-partition."""
    import random

    from relation_extraction_ray.functions import components, joins

    bc = _result_tuples(connected_components(_pairs(ROWS)))
    monkeypatch.setattr(joins, "LOCAL_BYTES_BOUND", 0)
    pt = _result_tuples(connected_components(_pairs(ROWS)))
    assert bc == pt

    rng = random.Random(42)
    rand = [(rng.randrange(200), rng.randrange(200)) for _ in range(200)]
    rand = [(a, b) for a, b in rand if a != b]
    monkeypatch.setattr(components, "derive_n_parts", lambda n, **kw: 4)
    assert _result_tuples(connected_components(_pairs(ROWS))) == bc
    got = _result_tuples(connected_components(_pairs(rand)))
    assert got == _union_find(rand)


# random integer edge lists with self-loops (a == b is drawn freely),
# duplicates and reversed duplicates of drawn edges
EDGES = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=40
).flatmap(
    lambda rows: st.lists(st.sampled_from(rows), max_size=6).map(
        lambda extra: rows + extra + [(b, a) for a, b in extra]
    )
)


@settings(max_examples=200, deadline=None)
@given(EDGES)
def test_kernel_matches_union_find(rows):
    a, b = (np.array(c, np.int64) for c in zip(*rows))
    doc, canon, size = _cc_kernel(a, b)
    got = list(zip(doc.tolist(), canon.tolist(), size.tolist()))
    assert got == sorted(got, key=lambda r: (r[1], r[0]))
    assert sorted(got) == _union_find(rows)


@settings(max_examples=5, deadline=None)
@given(EDGES)
def test_local_equals_union_find_and_partitioned(ray_session, rows):
    from relation_extraction_ray.functions import joins

    local = _result_tuples(connected_components(_pairs(rows)))
    assert local == _union_find(rows)
    with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0):
        assert _result_tuples(connected_components(_pairs(rows))) == local


def test_long_chain_is_one_local_call(ray_session):
    """A 2,000-node chain (shuffled ids, so no label order helps) folds in
    one local kernel call: one round record, mode "local"."""
    rng = np.random.default_rng(7)
    ids = rng.permutation(2000).tolist()
    rows = list(zip(ids[:-1], ids[1:]))
    stats: list = []
    got = _result_tuples(connected_components(_pairs(rows), round_stats=stats))
    assert got == _union_find(rows)
    assert [r["mode"] for r in stats] == ["local"]


def test_int32_ids_keep_their_type(ray_session):
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": pa.array([3, 5], pa.int32()), "doc_b": pa.array([4, 3], pa.int32())})
    )
    out = connected_components(pairs)
    sch = out.schema().base_schema
    assert sch.field("doc_id").type == pa.int32()
    assert sch.field("canonical_id").type == pa.int32()
    assert sch.field("cluster_size").type == pa.int64()
    assert sorted(out.take_all(), key=lambda r: r["doc_id"]) == [
        {"doc_id": 3, "canonical_id": 3, "cluster_size": 3},
        {"doc_id": 4, "canonical_id": 3, "cluster_size": 3},
        {"doc_id": 5, "canonical_id": 3, "cluster_size": 3},
    ]


def test_empty_pairs(ray_session):
    out = connected_components(_pairs([]))
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "canonical_id", "cluster_size"]


def test_singletons_not_emitted(ray_session):
    got = _result_tuples(connected_components(_pairs([(7, 8)])))
    assert got == [(7, 7, 2), (8, 7, 2)]


@pytest.mark.parametrize("n", [200])
def test_random_graph_matches_union_find(ray_session, n):
    import random

    rng = random.Random(42)
    rows = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    rows = [(a, b) for a, b in rows if a != b]
    got = _result_tuples(connected_components(_pairs(rows)))
    assert got == _union_find(rows)


def test_dedup_keep_one(ray_session):
    from relation_extraction_ray.functions.components import dedup_keep_one

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(10)), pa.int64()),
                "text": [f"doc {i}" for i in range(10)],
            }
        )
    )
    # clusters {1,2,3} and {7,9}; canonical = min → drop 2,3,9
    pairs = _pairs([(1, 2), (2, 3), (7, 9)])
    kept = sorted(dedup_keep_one(docs, pairs).to_pandas()["doc_id"])
    assert kept == [0, 1, 4, 5, 6, 7, 8]

    # no pairs → corpus unchanged
    kept2 = sorted(dedup_keep_one(docs, _pairs([])).to_pandas()["doc_id"])
    assert kept2 == list(range(10))


def test_keep_one_partitioned_bitequal(ray_session, monkeypatch):
    """broadcast_bytes=0 forces the hash-partitioned reduce-side
    anti-join (and a zero planner bound its keyed exchange arm); it must
    return the exact same kept rows (values AND schema) as the broadcast
    is_in path."""
    from relation_extraction_ray.functions import joins
    from relation_extraction_ray.functions.components import dedup_keep_one

    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(list(range(50)), pa.int64()),
                "text": [f"doc {i}" for i in range(50)],
                "extra": pa.array([float(i) * 0.5 for i in range(50)], pa.float64()),
            }
        )
    )
    pairs = _pairs([(1, 2), (2, 3), (7, 9), (10, 40), (40, 41), (41, 10), (20, 21)])

    def norm(ds):
        df = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        return df

    bc = norm(dedup_keep_one(docs, pairs))
    monkeypatch.setattr(joins, "LOCAL_BYTES_BOUND", 0)
    pt = norm(dedup_keep_one(docs, pairs, broadcast_bytes=0))
    assert list(bc.columns) == list(pt.columns)
    assert bc.equals(pt)
    # the same anti-join co-partitioned over 4 partitions
    from relation_extraction_ray.functions import components

    monkeypatch.setattr(components, "derive_n_parts", lambda n, **kw: 4)
    pt4 = norm(dedup_keep_one(docs, pairs, broadcast_bytes=0))
    assert list(bc.columns) == list(pt4.columns)
    assert bc.equals(pt4)
    # drop set: non-canonical members {2,3,9,40,41,21}
    assert sorted(bc["doc_id"]) == sorted(set(range(50)) - {2, 3, 9, 40, 41, 21})
