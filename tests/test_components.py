"""Connected components (duplicate-cluster folding) — functions/components.py."""

import pyarrow as pa
import pytest
import ray.data

from relation_extraction_ray.functions.components import connected_components


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


def test_partitioned_path_bit_equal_to_broadcast(ray_session, monkeypatch):
    """broadcast_bytes=0 forces the pair_payload_join path every round
    (and the pointer jump from round 3 on the chain); the second arm
    forces 4 partitions, so the exchanges really co-partition."""
    import random

    from relation_extraction_ray.functions import components

    bc = _result_tuples(connected_components(_pairs(ROWS)))
    pt = _result_tuples(connected_components(_pairs(ROWS), broadcast_bytes=0))
    assert bc == pt

    rng = random.Random(42)
    rand = [(rng.randrange(200), rng.randrange(200)) for _ in range(200)]
    rand = [(a, b) for a, b in rand if a != b]
    monkeypatch.setattr(components, "derive_n_parts", lambda n, **kw: 4)
    assert _result_tuples(connected_components(_pairs(ROWS), broadcast_bytes=0)) == bc
    got = _result_tuples(connected_components(_pairs(rand), broadcast_bytes=0))
    assert got == _union_find(rand)


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
    anti-join; it must return the exact same kept rows (values AND
    schema) as the broadcast is_in path."""
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
