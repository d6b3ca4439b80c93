"""mixture_sample / budget_select vs single-process brute force."""

import hashlib
import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

import ray

from relation_extraction_ray.functions.curation import budget_select, mixture_sample


def _h64(s: str) -> int:
    return int(hashlib.md5(s.encode()).hexdigest()[:16], 16)


def _corpus(seed=42, n=500):
    rng = np.random.RandomState(seed)
    srcs = np.array(["web", "wiki", "books", "code"])[
        rng.choice(4, n, p=[0.6, 0.2, 0.15, 0.05])
    ]
    words = ["alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"]
    texts = [" ".join(rng.choice(words, rng.randint(1, 30)).tolist()) for _ in range(n)]
    ids = [f"d{i:05d}" for i in range(n)]
    return ids, srcs.tolist(), texts, pa.table(
        {"doc_id": ids, "source": srcs.tolist(), "text": texts}
    )


def test_mixture_sample_vs_bruteforce(ray_session):
    ids, srcs, _, tab = _corpus()
    cnt = Counter(srcs)
    roots = {s: math.isqrt(n) for s, n in cnt.items()}
    tr = sum(roots.values())
    total = 100
    quota = {s: min(cnt[s], total * roots[s] // tr) for s in cnt}
    exp = []
    for s in cnt:
        rows = sorted((( _h64(i), i) for i, sc in zip(ids, srcs) if sc == s))[: quota[s]]
        exp += [(i, s) for _, i in rows]
    exp.sort()
    for parts in (1, 6):
        ds = ray.data.from_arrow(tab).repartition(parts)
        got = [(r["doc_id"], r["source"]) for r in mixture_sample(ds, total=total).take_all()]
        assert got == exp


def test_mixture_sample_upweights_small_source(ray_session):
    """√n temperature: the small source's sampled share exceeds its
    corpus share."""
    ids, srcs, _, tab = _corpus(seed=1, n=800)
    cnt = Counter(srcs)
    got = mixture_sample(ray.data.from_arrow(tab), total=200).take_all()
    sample_cnt = Counter(r["source"] for r in got)
    small = min(cnt, key=cnt.get)
    assert sample_cnt[small] / len(got) > cnt[small] / len(ids)


def _brute_budget(ids, texts, budget):
    feats = []
    for i, t in zip(ids, texts):
        toks = t.lower().split(" ")
        feats.append((len(set(toks)) * 1000 // len(toks), _h64(i), i, len(toks)))
    feats.sort(key=lambda x: (-x[0], x[1], x[2]))
    cum, out = 0, []
    for sc, _, i, nt in feats:
        if cum + nt > budget:
            break
        cum += nt
        out.append((i, sc, nt))
    return sorted(out)


@pytest.mark.parametrize("budget", [0, 50, 777, 3000, 10**9])
def test_budget_select_vs_bruteforce(ray_session, budget):
    ids, _, texts, tab = _corpus()
    ds = ray.data.from_arrow(tab).repartition(6)
    got = [
        (r["doc_id"], r["score"], r["n_tokens"])
        for r in budget_select(ds, budget).take_all()
    ]
    assert got == _brute_budget(ids, texts, budget)


def test_budget_select_block_invariant(ray_session):
    ids, _, texts, tab = _corpus(seed=9, n=300)
    exp = _brute_budget(ids, texts, 1500)
    for parts in (1, 11):
        ds = ray.data.from_arrow(tab).repartition(parts)
        got = [
            (r["doc_id"], r["score"], r["n_tokens"])
            for r in budget_select(ds, 1500).take_all()
        ]
        assert got == exp


def test_budget_select_exact_fit_boundary(ray_session):
    """A budget exactly equal to a prefix total includes exactly that
    prefix (cum <= budget, strictly-positive token counts)."""
    ids, _, texts, tab = _corpus(seed=5, n=120)
    full = _brute_budget(ids, texts, 10**9)
    # budget = tokens of the first 10 docs in selection order
    feats = {i: nt for i, _, nt in full}
    order = []
    for i, t in zip(ids, texts):
        toks = t.lower().split(" ")
        order.append((len(set(toks)) * 1000 // len(toks), _h64(i), i))
    order.sort(key=lambda x: (-x[0], x[1], x[2]))
    budget = sum(feats[i] for _, _, i in order[:10])
    got = budget_select(ray.data.from_arrow(tab), budget).take_all()
    assert len(got) == 10
    assert sum(r["n_tokens"] for r in got) == budget


def test_leakage_safe_split_cluster_atomic_and_paths_identical(ray_session, monkeypatch):
    """(a) every dup cluster lands entirely in ONE split, (b) the split
    rule is the documented md5 bucket of the canonical id, (c) the
    partitioned reduce-side path is bit-identical to broadcast, (d)
    singleton docs are their own canonical."""
    from relation_extraction_ray.functions.curation import leakage_safe_split

    # 3 clusters (sizes 3, 2, 2) + 93 singletons, ids shuffled across blocks
    rows = [{"doc_id": i, "text": f"unique text {i}"} for i in range(100)]
    pair_rows = [
        {"doc_a": 7, "doc_b": 42}, {"doc_a": 42, "doc_b": 99},  # {7,42,99}
        {"doc_a": 3, "doc_b": 55},                              # {3,55}
        {"doc_a": 10, "doc_b": 11},                             # {10,11}
    ]
    docs = ray.data.from_arrow(pa.Table.from_pylist(rows)).repartition(5)
    pairs = ray.data.from_arrow(pa.Table.from_pylist(pair_rows))

    from relation_extraction_ray.functions import components, curation, joins

    bro = leakage_safe_split(docs, pairs).to_pandas()
    # a zero planner bound keeps the partitioned path's exchanges keyed
    monkeypatch.setattr(joins, "LOCAL_BYTES_BOUND", 0)
    part = leakage_safe_split(docs, pairs, broadcast_bytes=0).to_pandas()
    assert bro.equals(part)
    # the partitioned path co-partitioned over 4 partitions

    monkeypatch.setattr(curation, "derive_n_parts", lambda n, **kw: 4)
    monkeypatch.setattr(components, "derive_n_parts", lambda n, **kw: 4)
    part4 = leakage_safe_split(docs, pairs, broadcast_bytes=0).to_pandas()
    assert bro.equals(part4)

    got = bro.set_index("doc_id")
    assert len(got) == 100
    for cluster in [(7, 42, 99), (3, 55), (10, 11)]:
        canon = min(cluster)
        assert {got.loc[i, "canonical_id"] for i in cluster} == {canon}
        assert len({got.loc[i, "split"] for i in cluster}) == 1
    # singletons: canonical = self, split from the same bucket rule
    for i in (0, 1, 98):
        assert got.loc[i, "canonical_id"] == i
    for i in (0, 1, 98, 7):
        c = got.loc[i, "canonical_id"]
        b = int(hashlib.md5(f"split:{c}".encode()).hexdigest()[:8], 16) % 100
        want = "test" if b < 10 else ("valid" if b < 20 else "train")
        assert got.loc[i, "split"] == want
    assert set(bro["split"].unique()) <= {"train", "valid", "test"}
    assert (bro["split"] == "train").sum() > 50


def test_greedy_coverage_closed_form(ray_session):
    """Hand-computed greedy picks over known 3-gram sets: doc3 {3
    shingles} first, doc1 {2 new} second, then two 1-gain ties broken
    by doc_id, then stop at zero gain; block-invariant."""
    import pyarrow as pa

    from relation_extraction_ray.functions.curation import greedy_coverage

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "text": pa.array(
                ["a b c d", "a b c", "x y z w v", "x y z", "p q r", "s t u"],
                pa.string(),
            ),
        }
    )
    for nb in (1, 3):
        got = greedy_coverage(
            ray.data.from_arrow(t).repartition(nb), k=8
        ).take_all()
        assert [
            (r["round"], r["doc_id"], r["gain"], r["covered_total"]) for r in got
        ] == [(1, 3, 3, 3), (2, 1, 2, 5), (3, 5, 1, 6), (4, 6, 1, 7)]
