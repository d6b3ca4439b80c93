"""Distributed integer PageRank vs a single-process Python reference."""

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ray

from relation_extraction_ray.functions.graph import SCALE, pagerank

ROWS = [
    ("a", "p1", "b", 3), ("a", "p2", "b", 2), ("a", "p1", "c", 5),
    ("b", "p1", "c", 1), ("c", "p1", "a", 4), ("c", "p1", "d", 1),
    ("d", "p1", "d", 2),          # self loop
    ("e", "p1", "a", 1),          # source-only node
    ("f", "p1", "g", 1),          # isolated pair; g dangling
]


def _adj(rows):
    return pa.table(
        {
            "src_id": [r[0] for r in rows],
            "pred": [r[1] for r in rows],
            "dst_id": [r[2] for r in rows],
            "weight": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


def _reference(rows, iters):
    ew = defaultdict(int)
    for u, _, v, w in rows:
        ew[(u, v)] += w
    nodes = sorted({u for u, _ in ew} | {v for _, v in ew})
    ow = defaultdict(int)
    for (u, _), w in ew.items():
        ow[u] += w
    rank = {n: SCALE for n in nodes}
    for _ in range(iters):
        contrib = defaultdict(int)
        for (u, v), w in ew.items():
            contrib[v] += rank[u] * w // ow[u]
        rank = {n: 15 * SCALE // 100 + 85 * contrib[n] // 100 for n in nodes}
    return sorted(((r, n) for n, r in rank.items()), key=lambda t: (-t[0], t[1]))


@pytest.mark.parametrize("iters", [1, 4])
def test_pagerank_matches_reference(ray_session, iters):
    ds = ray.data.from_arrow(_adj(ROWS)).repartition(3)
    got = [(int(r.rank), r.node) for r in pagerank(ds, iters=iters).to_pandas().itertuples()]
    assert got == _reference(ROWS, iters)


def test_pagerank_block_invariant(ray_session):
    """Identical ranks regardless of input block layout (integer
    arithmetic makes the reduce order-independent)."""
    a = pagerank(ray.data.from_arrow(_adj(ROWS)).repartition(1), iters=3).to_pandas()
    b = pagerank(ray.data.from_arrow(_adj(ROWS)).repartition(9), iters=3).to_pandas()
    assert a.equals(b)


def test_pagerank_larger_random_graph(ray_session):
    """200-node random multigraph: exact vs reference."""
    rng = np.random.default_rng(11)
    rows = [
        (f"n{int(rng.integers(200))}", "p", f"n{int(rng.integers(200))}", int(rng.integers(1, 5)))
        for _ in range(1500)
    ]
    ds = ray.data.from_arrow(_adj(rows)).repartition(5)
    got = [(int(r.rank), r.node) for r in pagerank(ds, iters=3).to_pandas().itertuples()]
    assert got == _reference(rows, 3)


def _ref_triangles(rows):
    import itertools

    E = set()
    for u, _, v, _ in rows:
        if u != v:
            E.add((min(u, v), max(u, v)))
    nodes = sorted({x for e in E for x in e})
    return sum(
        1
        for a, b, c in itertools.combinations(nodes, 3)
        if (a, b) in E and (b, c) in E and (a, c) in E
    )


def test_triangle_count_random_graph(ray_session):
    rng = np.random.default_rng(3)
    rows = [
        (f"n{int(rng.integers(40))}", "p", f"n{int(rng.integers(40))}", 1)
        for _ in range(300)
    ]
    from relation_extraction_ray.functions.graph import triangle_count

    got = triangle_count(ray.data.from_arrow(_adj(rows)).repartition(4)).to_pandas()
    assert int(got["n_triangles"][0]) == _ref_triangles(rows)


def test_triangle_count_star_skew_and_directions(ray_session):
    """A 50-leaf hub emits zero wedges under degree orientation; reversed
    duplicate directed edges collapse to one undirected edge."""
    from relation_extraction_ray.functions.graph import triangle_count

    rows = [("hub", "p", f"leaf{i}", 1) for i in range(50)]
    rows += [("x", "p", "y", 1), ("y", "p", "x", 2), ("y", "p", "z", 1), ("x", "p", "z", 1)]
    got = triangle_count(ray.data.from_arrow(_adj(rows)).repartition(3)).to_pandas()
    assert int(got["n_triangles"][0]) == 1


def _ref_edge_jaccard(rows):
    import collections

    E = set()
    for u, _, v, _ in rows:
        if u != v:
            E.add((min(u, v), max(u, v)))
    nbrs = collections.defaultdict(set)
    for a, b in E:
        nbrs[a].add(b)
        nbrs[b].add(a)
    out = []
    for a, b in sorted(E):
        cn = len(nbrs[a] & nbrs[b])
        da, db = len(nbrs[a]), len(nbrs[b])
        out.append((a, b, da, db, cn, int(np.floor(cn * 1000000.0 / (da + db - cn) + 0.5))))
    return out


def test_edge_jaccard_random_graph(ray_session):
    rng = np.random.default_rng(3)
    rows = [
        (f"n{int(rng.integers(40))}", "p", f"n{int(rng.integers(40))}", 1)
        for _ in range(300)
    ]
    from relation_extraction_ray.functions.graph import edge_jaccard

    got = (
        edge_jaccard(ray.data.from_arrow(_adj(rows)).repartition(4))
        .to_pandas()
        .sort_values(["node_a", "node_b"])
        .reset_index(drop=True)
    )
    assert [tuple(r) for r in got.itertuples(index=False)] == _ref_edge_jaccard(rows)


def test_edge_jaccard_star_and_triangle(ray_session):
    """Hub-star edges have zero common neighbors (LEFT semantics keep them);
    the one triangle credits all three of its edges."""
    from relation_extraction_ray.functions.graph import edge_jaccard

    rows = [("hub", "p", f"leaf{i}", 1) for i in range(30)]
    rows += [("x", "p", "y", 1), ("y", "p", "x", 2), ("y", "p", "z", 1), ("x", "p", "z", 1)]
    got = (
        edge_jaccard(ray.data.from_arrow(_adj(rows)).repartition(3))
        .to_pandas()
        .sort_values(["node_a", "node_b"])
        .reset_index(drop=True)
    )
    assert [tuple(r) for r in got.itertuples(index=False)] == _ref_edge_jaccard(rows)
    tri = got[got.n_common > 0]
    assert len(tri) == 3 and set(tri.n_common) == {1}

    # Non-ASCII, mixed-length ids in a clique (every degree tied, so each
    # edge is oriented by node name) plus a tail: the kernels' integer
    # codes must order ids as Arrow and Python do, on both arms.
    import unittest.mock as mock

    import relation_extraction_ray.functions.graph as G
    from relation_extraction_ray.functions import joins

    ids = ["z", "é", "ea", "e", "日本", "日", "😀", "Zz", "a\u00e9b"]
    rows = [(u, "p", v, 1) for i, u in enumerate(ids[:6]) for v in ids[i + 1 : 6]]
    rows += [(ids[5], "p", ids[6], 1), (ids[6], "p", ids[7], 1), (ids[8], "p", ids[0], 1)]
    want = _ref_edge_jaccard(rows)
    adjacency = ray.data.from_arrow(_adj(rows)).repartition(3)
    assert [tuple(r.values()) for r in G.edge_jaccard(adjacency).take_all()] == want
    with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0), mock.patch.object(
        G, "derive_n_parts", lambda n, **kw: 4
    ):
        assert [tuple(r.values()) for r in G.edge_jaccard(adjacency).take_all()] == want


def _kcore_ref(edges, k):
    """Brute-force peel: repeatedly drop nodes with degree < k."""
    es = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    while True:
        deg = defaultdict(int)
        for a, b in es:
            deg[a] += 1
            deg[b] += 1
        dead = {n for n, d in deg.items() if d < k}
        if not dead:
            return sorted(deg.items())
        es = {e for e in es if e[0] not in dead and e[1] not in dead}


def test_kcore_chain_clique_and_bridge(ray_session):
    from relation_extraction_ray.functions.graph import kcore

    # 4-clique (every node deg 3) + a chain hanging off it + a self loop
    rows = [
        ("k1", "p", "k2", 1), ("k1", "p", "k3", 1), ("k1", "p", "k4", 1),
        ("k2", "p", "k3", 1), ("k2", "p", "k4", 1), ("k3", "p", "k4", 1),
        ("k4", "p", "c1", 1), ("c1", "p", "c2", 1), ("c2", "p", "c3", 1),
        ("z", "p", "z", 1),
    ]
    ds = ray.data.from_arrow(_adj(rows)).repartition(3)
    got = [(r["node"], r["deg"]) for r in kcore(ds, k=2).take_all()]
    assert got == [("k1", 3), ("k2", 3), ("k3", 3), ("k4", 3)]
    # k=3: the clique survives intact; k=4: nothing survives
    got3 = [(r["node"], r["deg"]) for r in kcore(ds, k=3).take_all()]
    assert got3 == [("k1", 3), ("k2", 3), ("k3", 3), ("k4", 3)]
    assert kcore(ds, k=4).take_all() == []


@pytest.mark.parametrize("k", [2, 3])
def test_kcore_random_graph_vs_bruteforce(ray_session, k):
    from relation_extraction_ray.functions.graph import kcore

    rng = np.random.default_rng(17)
    n = 60
    edges = [
        (f"n{int(rng.integers(n))}", f"n{int(rng.integers(n))}") for _ in range(150)
    ]
    rows = [(a, "p", b, 1) for a, b in edges]
    ds = ray.data.from_arrow(_adj(rows)).repartition(5)
    got = [(r["node"], r["deg"]) for r in kcore(ds, k=k, max_rounds=32).take_all()]
    assert got == _kcore_ref(edges, k)


def test_kcore_block_invariant(ray_session):
    from relation_extraction_ray.functions.graph import kcore

    rng = np.random.default_rng(5)
    rows = [
        (f"n{int(rng.integers(25))}", "p", f"n{int(rng.integers(25))}", 1)
        for _ in range(60)
    ]
    outs = []
    for nb in (1, 6):
        ds = ray.data.from_arrow(_adj(rows)).repartition(nb)
        outs.append([(r["node"], r["deg"]) for r in kcore(ds, k=2).take_all()])
    assert outs[0] == outs[1] and len(outs[0]) > 0


def test_degree_histogram_vs_bruteforce(ray_session):
    from relation_extraction_ray.functions.graph import degree_histogram

    rng = np.random.default_rng(3)
    rows = [
        (f"n{int(rng.integers(30))}", "p", f"n{int(rng.integers(30))}", 1)
        for _ in range(80)
    ]
    ds = ray.data.from_arrow(_adj(rows)).repartition(4)
    got = [(r["deg"], r["n_nodes"]) for r in degree_histogram(ds).take_all()]
    es = {tuple(sorted((a, b))) for a, _, b, _ in rows if a != b}
    deg = defaultdict(int)
    for a, b in es:
        deg[a] += 1
        deg[b] += 1
    hist = defaultdict(int)
    for d in deg.values():
        hist[d] += 1
    assert got == sorted(hist.items())
    assert sum(n for _, n in got) == len(deg)


def test_pred_bigrams_vs_bruteforce(ray_session):
    from relation_extraction_ray.functions.graph import pred_bigrams

    rng = np.random.default_rng(7)
    rows = [
        (
            f"n{int(rng.integers(15))}",
            f"p{int(rng.integers(4))}",
            f"n{int(rng.integers(15))}",
            1,
        )
        for _ in range(60)
    ]
    # adjacency semantics: rows unique per (src, pred, dst)
    rows = sorted({(a, p, b) for a, p, b, _ in rows})
    rows = [(a, p, b, 1) for a, p, b in rows]
    ds = ray.data.from_arrow(_adj(rows)).repartition(4)
    got = [(r["p1"], r["p2"], r["n_paths"]) for r in pred_bigrams(ds).take_all()]
    want = defaultdict(int)
    for a1, p1, b1, _ in rows:
        for a2, p2, b2, _ in rows:
            if a2 == b1:
                want[(p1, p2)] += 1
    assert got == sorted((p1, p2, n) for (p1, p2), n in want.items())


def test_pred_bigrams_hub_no_enumeration_blowup(ray_session):
    from relation_extraction_ray.functions.graph import pred_bigrams

    # star hub: 200 in-edges x 200 out-edges = 40,000 paths but only ONE
    # output row (pa, pb) — the cross product is of tallies, not paths
    rows = [(f"i{i}", "pa", "hub", 1) for i in range(200)] + [
        ("hub", "pb", f"o{i}", 1) for i in range(200)
    ]
    ds = ray.data.from_arrow(_adj(rows)).repartition(3)
    got = [(r["p1"], r["p2"], r["n_paths"]) for r in pred_bigrams(ds).take_all()]
    assert got == [("pa", "pb", 40000)]


# --- bfs_hops / label_propagation / random_walks -----------------------------

def _rand_adj(seed=7, n=60, m=220):
    rng = np.random.RandomState(seed)
    names = np.array([f"e{i:03d}" for i in range(n)])
    src, dst = rng.randint(0, n, m), rng.randint(0, n, m)
    return names, src, dst, pa.table(
        {
            "src_id": pa.array(names[src]),
            "dst_id": pa.array(names[dst]),
            "pred": pa.array(["p"] * m),
            "weight": pa.array(np.ones(m, np.int64)),
        }
    )


def _undirected_nbrs(names, src, dst):
    nbr = {}
    for u, v in zip(names[src], names[dst]):
        if u != v:
            nbr.setdefault(u, set()).add(v)
            nbr.setdefault(v, set()).add(u)
    return nbr


def test_bfs_hops_vs_bruteforce(ray_session):
    import hashlib

    from relation_extraction_ray.functions.graph import bfs_hops

    names, src, dst, adj = _rand_adj()
    nbr = _undirected_nbrs(names, src, dst)
    seeds = {
        n
        for n in nbr
        if int(hashlib.md5(("seed:" + n).encode()).hexdigest()[:8], 16) % 100 < 5
    }
    dist = {n: 0 for n in seeds}
    for _ in range(6):
        new = dict(dist)
        for n, d in dist.items():
            for m in nbr[n]:
                if new.get(m, 1 << 60) > d + 1:
                    new[m] = d + 1
        dist = new
    got = [
        (r["node"], r["dist"])
        for r in bfs_hops(ray.data.from_arrow(adj).repartition(5), 5, 6).take_all()
    ]
    assert got == sorted(dist.items())
    # monotonicity: extra rounds are no-ops once converged
    got9 = [
        (r["node"], r["dist"])
        for r in bfs_hops(ray.data.from_arrow(adj).repartition(3), 5, 9).take_all()
    ]
    assert got9 == got or len(got9) >= len(got)


def test_label_propagation_vs_bruteforce(ray_session):
    from relation_extraction_ray.functions.graph import label_propagation

    names, src, dst, adj = _rand_adj(seed=11)
    nbr = _undirected_nbrs(names, src, dst)
    lab = {n: n for n in nbr}
    for _ in range(3):
        new = {}
        for n in nbr:
            cnt = {}
            for m in nbr[n]:
                cnt[lab[m]] = cnt.get(lab[m], 0) + 1
            new[n] = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
        lab = new
    got = [
        (r["node"], r["community"])
        for r in label_propagation(ray.data.from_arrow(adj).repartition(5), 3).take_all()
    ]
    assert got == sorted(lab.items())


def test_label_propagation_two_cliques(ray_session):
    """Two 4-cliques joined by one bridge edge resolve to two communities."""
    from relation_extraction_ray.functions.graph import label_propagation

    rows = []
    for grp in (["a1", "a2", "a3", "a4"], ["b1", "b2", "b3", "b4"]):
        for i, u in enumerate(grp):
            for v in grp[i + 1:]:
                rows.append((u, v))
    rows.append(("a1", "b1"))
    adj = pa.table(
        {
            "src_id": [r[0] for r in rows],
            "dst_id": [r[1] for r in rows],
            "pred": ["p"] * len(rows),
            "weight": pa.array([1] * len(rows), pa.int64()),
        }
    )
    got = {
        r["node"]: r["community"]
        for r in label_propagation(ray.data.from_arrow(adj), 4).take_all()
    }
    assert len({got[n] for n in ("a1", "a2", "a3", "a4")}) == 1
    assert len({got[n] for n in ("b1", "b2", "b3", "b4")}) == 1
    assert got["a2"] != got["b2"]


def test_random_walks_vs_bruteforce_and_block_invariance(ray_session):
    import hashlib

    from relation_extraction_ray.functions.graph import random_walks

    names, src, dst, adj = _rand_adj(seed=3)
    out = {}
    for u, v in zip(names[src], names[dst]):
        out.setdefault(u, set()).add(v)
    out = {u: sorted(vs) for u, vs in out.items()}
    exp = []
    for s in sorted(out):
        cur = s
        exp.append((s, 0, s))
        for t in range(1, 5):
            ns = out.get(cur)
            if not ns:
                break
            idx = int(hashlib.md5(f"{s}|{cur}|{t}".encode()).hexdigest()[:16], 16) % len(ns)
            cur = ns[idx]
            exp.append((s, t, cur))
    for parts in (1, 7):
        got = [
            (r["walk_id"], r["step"], r["node"])
            for r in random_walks(
                ray.data.from_arrow(adj).repartition(parts), 4
            ).take_all()
        ]
        assert got == sorted(exp)


def test_random_walks_dead_end_stops(ray_session):
    from relation_extraction_ray.functions.graph import random_walks

    adj = pa.table(
        {
            "src_id": ["x", "y"],
            "dst_id": ["y", "z"],
            "pred": ["p", "p"],
            "weight": pa.array([1, 1], pa.int64()),
        }
    )
    got = [
        (r["walk_id"], r["step"], r["node"])
        for r in random_walks(ray.data.from_arrow(adj), 4).take_all()
    ]
    # walk from x: x->y->z then z has no out-edges; walk from y: y->z stop
    assert got == [
        ("x", 0, "x"), ("x", 1, "y"), ("x", 2, "z"),
        ("y", 0, "y"), ("y", 1, "z"),
    ]


def test_walk_pairs_vs_bruteforce(ray_session):
    from relation_extraction_ray.functions.graph import random_walks, walk_pairs

    names, src, dst, adj = _rand_adj(seed=3)
    ds = ray.data.from_arrow(adj).repartition(3)
    walks = {}
    for r in random_walks(ds, 6).take_all():
        walks.setdefault(r["walk_id"], []).append((r["step"], r["node"]))
    from collections import Counter

    cnt = Counter()
    for steps in walks.values():
        steps.sort()
        nodes = [n for _, n in steps]
        for i in range(len(nodes)):
            for d in (1, 2):
                if i + d < len(nodes):
                    cnt[(nodes[i], nodes[i + d])] += 1
                    cnt[(nodes[i + d], nodes[i])] += 1
    exp = sorted((c, x, n) for (c, x), n in cnt.items())
    got = [
        (r["center"], r["context"], r["n"])
        for r in walk_pairs(ds, walk_len=6, window=2).take_all()
    ]
    assert got == exp


def test_kg_node_embeddings_quality_and_determinism(ray_session):
    """Two 5-cliques + one bridge: DeepWalk embeddings place intra-clique
    pairs far above inter-clique pairs, and the result is bit-identical
    at any partitioning (deterministic walks + sorted-pair SGNS)."""
    from relation_extraction_ray.functions.graph import kg_node_embeddings

    rows = []
    for grp in (["a1", "a2", "a3", "a4", "a5"], ["b1", "b2", "b3", "b4", "b5"]):
        for u in grp:
            for v in grp:
                if u != v:
                    rows.append((u, v))
    rows += [("a1", "b1"), ("b1", "a1")]
    adj = pa.table(
        {
            "src_id": [r[0] for r in rows],
            "dst_id": [r[1] for r in rows],
            "pred": ["p"] * len(rows),
            "weight": pa.array([1] * len(rows), pa.int64()),
        }
    )
    nodes, emb = kg_node_embeddings(
        ray.data.from_arrow(adj).repartition(3), dim=8, walk_len=6, window=2, epochs=20
    )
    n2i = {n: i for i, n in enumerate(nodes)}
    e = emb / np.linalg.norm(emb, axis=1, keepdims=True)

    def cos(a, b):
        return float(e[n2i[a]] @ e[n2i[b]])

    intra = np.mean([cos("a2", "a3"), cos("a4", "a5"), cos("b2", "b3"), cos("b4", "b5")])
    inter = np.mean([cos("a2", "b3"), cos("a4", "b2"), cos("a3", "b5")])
    assert intra > inter + 0.2
    nodes2, emb2 = kg_node_embeddings(
        ray.data.from_arrow(adj).repartition(7), dim=8, walk_len=6, window=2, epochs=20
    )
    assert nodes2 == nodes and np.array_equal(emb, emb2)


def test_sssp_hops_vs_bruteforce(ray_session):
    import hashlib

    from relation_extraction_ray.functions.graph import sssp_hops

    rng = np.random.RandomState(13)
    n, m = 50, 180
    names = np.array([f"e{i:03d}" for i in range(n)])
    src, dst = rng.randint(0, n, m), rng.randint(0, n, m)
    w = rng.randint(1, 9, m)
    adj = pa.table(
        {
            "src_id": pa.array(names[src]),
            "dst_id": pa.array(names[dst]),
            "pred": pa.array(["p"] * m),
            "weight": pa.array(w.astype(np.int64)),
        }
    )
    # undirected pair weights: sum over both directions
    pw = {}
    for u, v, ww in zip(names[src], names[dst], w):
        if u != v:
            k = (min(u, v), max(u, v))
            pw[k] = pw.get(k, 0) + int(ww)
    nbr = {}
    for (a, b), ww in pw.items():
        nbr.setdefault(a, []).append((b, ww))
        nbr.setdefault(b, []).append((a, ww))
    seeds = {
        x
        for x in nbr
        if int(hashlib.md5(("seed:" + x).encode()).hexdigest()[:8], 16) % 100 < 5
    }
    dist = {x: 0 for x in seeds}
    for _ in range(6):
        new = dict(dist)
        for x, d in dist.items():
            for y, ww in nbr[x]:
                if new.get(y, 1 << 60) > d + ww:
                    new[y] = d + ww
        dist = new
    got = [
        (r["node"], r["dist"])
        for r in sssp_hops(ray.data.from_arrow(adj).repartition(5), 5, 6).take_all()
    ]
    assert got == sorted(dist.items())


def test_personalized_pagerank_vs_reference_and_seed_proximity(ray_session):
    import hashlib

    from relation_extraction_ray.functions.graph import pagerank

    names, src, dst, adj = _rand_adj(seed=21, n=40, m=140)
    ew = {}
    for u, v in zip(names[src], names[dst]):
        ew[(u, v)] = ew.get((u, v), 0) + 1
    nodes = sorted({u for u, _ in ew} | {v for _, v in ew})
    ow = {}
    for (u, _), w in ew.items():
        ow[u] = ow.get(u, 0) + w
    seeds = {
        n
        for n in nodes
        if int(hashlib.md5(("seed:" + n).encode()).hexdigest()[:8], 16) % 100 < 20
    }
    rank = {n: (SCALE if n in seeds else 0) for n in nodes}
    for _ in range(5):
        contrib = {}
        for (u, v), w in ew.items():
            contrib[v] = contrib.get(v, 0) + rank[u] * w // ow[u]
        rank = {
            n: (15 * SCALE // 100 if n in seeds else 0) + 85 * contrib.get(n, 0) // 100
            for n in nodes
        }
    exp = sorted(((r, n) for n, r in rank.items()), key=lambda t: (-t[0], t[1]))
    got = [
        (r["rank"], r["node"])
        for r in pagerank(ray.data.from_arrow(adj).repartition(4), iters=5, seed_pct=20).take_all()
    ]
    assert got == exp
    # non-seed nodes with no in-path from seeds carry zero rank
    reachable = set(seeds)
    for _ in range(5):
        reachable |= {v for (u, v) in ew if u in reachable}
    for r, n in got:
        if n not in reachable:
            assert r == 0


def test_fanout_sample_vs_bruteforce(ray_session):
    import hashlib

    from relation_extraction_ray.functions.graph import fanout_sample

    names, src, dst, adj = _rand_adj(seed=31)
    out = {}
    for u, v in zip(names[src], names[dst]):
        out.setdefault(u, set()).add(v)
    out = {u: sorted(vs) for u, vs in out.items()}

    def h64(u, v, h):
        return int(hashlib.md5(f"fan:{u}|{v}|{h}".encode()).hexdigest()[:16], 16)

    frontier = {
        u
        for u in out
        if int(hashlib.md5(("seed:" + u).encode()).hexdigest()[:8], 16) % 100 < 5
    }
    exp = []
    for h, f in enumerate((3, 2)):
        nxt = set()
        for u in sorted(frontier):
            cand = out.get(u, [])
            kept = sorted(cand, key=lambda v: (h64(u, v, h), v))[:f]
            for v in kept:
                exp.append((h, u, v))
                nxt.add(v)
        frontier = nxt
    exp.sort()
    for parts in (1, 6):
        got = [
            (r["hop"], r["src"], r["dst"])
            for r in fanout_sample(
                ray.data.from_arrow(adj).repartition(parts), 5, (3, 2)
            ).take_all()
        ]
        assert got == exp
    # fanout bound: no src emits more than its hop's fanout
    from collections import Counter

    per = Counter((h, u) for h, u, _ in exp)
    assert all(c <= (3 if h == 0 else 2) for (h, _), c in per.items())


def test_modularity_two_triangles_exact(ray_session):
    """Two triangles joined by one bridge: with triangle communities
    Q = (4·7·6 − (7²+7²)) / (4·7²) = 70/196; with everything in one
    community Q = 0; duplicate/reversed adjacency rows must not change
    the edge set."""
    from relation_extraction_ray.functions.graph import modularity

    tri = [("x1", "x2"), ("x2", "x3"), ("x1", "x3"),
           ("y1", "y2"), ("y2", "y3"), ("y1", "y3"),
           ("x1", "y1")]
    # duplicates + reversed direction + self loop: all collapse away
    rows = tri + [("x2", "x1"), ("x1", "x2"), ("x1", "x1")]
    adj = pa.table(
        {
            "src_id": [r[0] for r in rows],
            "dst_id": [r[1] for r in rows],
            "pred": ["p"] * len(rows),
            "weight": pa.array([1] * len(rows), pa.int64()),
        }
    )
    comm = pa.table(
        {
            "node": ["x1", "x2", "x3", "y1", "y2", "y3"],
            "community": ["X", "X", "X", "Y", "Y", "Y"],
        }
    )
    got = modularity(
        ray.data.from_arrow(adj).repartition(3), ray.data.from_arrow(comm)
    ).take_all()[0]
    assert got["n_edges"] == 7
    assert got["n_communities"] == 2
    import math

    assert got["q_nano"] == int(math.floor(70 / 196 * 1e9 + 0.5))

    one = pa.table(
        {"node": comm.column("node"), "community": ["Z"] * 6}
    )
    got1 = modularity(ray.data.from_arrow(adj), ray.data.from_arrow(one)).take_all()[0]
    assert got1["q_nano"] == 0 and got1["n_communities"] == 1


def test_modularity_vs_bruteforce_lpa(ray_session):
    """Q of the LPA assignment on a random graph equals a plain-python
    replay (edges deduped, self-label fallback for unlabeled nodes)."""
    import math

    from relation_extraction_ray.functions.graph import label_propagation, modularity

    names, src, dst, adj = _rand_adj(seed=23)
    ds = ray.data.from_arrow(adj).repartition(4)
    comm_ds = label_propagation(ds, rounds=2)
    comm = {r["node"]: r["community"] for r in comm_ds.take_all()}
    edges = {
        (min(a, b), max(a, b)) for a, b in zip(names[src], names[dst]) if a != b
    }
    m = len(edges)
    lab = lambda n: comm.get(n, n)
    mc = {}
    deg = {}
    for a, b in edges:
        ca, cb = lab(a), lab(b)
        deg[ca] = deg.get(ca, 0) + 1
        deg[cb] = deg.get(cb, 0) + 1
        if ca == cb:
            mc[ca] = mc.get(ca, 0) + 1
    num = 4 * m * sum(mc.values()) - sum(d * d for d in deg.values())
    want = int(math.floor(num / (4 * m * m) * 1e9 + 0.5))
    got = modularity(ds, label_propagation(ds, rounds=2)).take_all()[0]
    assert got["n_edges"] == m
    assert got["q_nano"] == want


def test_assortativity_star_and_regular(ray_session):
    """Star graph: every edge joins the hub (deg n-1) to a leaf (deg 1),
    all pair points sit on the line x + y = n → r = −1 exactly.
    Degree-regular graph (triangle): zero variance → r_nano = 0 by
    convention.  Duplicate/reversed rows and self loops collapse away."""
    from relation_extraction_ray.functions.graph import degree_assortativity

    rows = [("h", "p", "l1", 1), ("h", "p", "l2", 1), ("h", "p", "l3", 1),
            ("h", "p", "l4", 1), ("l1", "p", "h", 2), ("h", "p", "h", 1)]
    got = degree_assortativity(
        ray.data.from_arrow(_adj(rows)).repartition(3)
    ).take_all()[0]
    assert got["n_edges"] == 4 and got["n_nodes"] == 5
    assert got["r_nano"] == -1000000000

    tri = [("a", "p", "b", 1), ("b", "p", "c", 1), ("a", "p", "c", 1)]
    got = degree_assortativity(ray.data.from_arrow(_adj(tri))).take_all()[0]
    assert got["n_edges"] == 3 and got["r_nano"] == 0


def test_assortativity_vs_bruteforce(ray_session):
    """Random graph: r equals a plain-python replay of the definition
    (Pearson corr over both orientations of every deduped undirected
    edge), and the result is invariant to input partitioning."""
    import hashlib
    import math

    from relation_extraction_ray.functions.graph import degree_assortativity

    rng_nodes = [f"n{i}" for i in range(40)]
    rows = []
    for i, u in enumerate(rng_nodes):
        for j, v in enumerate(rng_nodes):
            if i < j and int(hashlib.md5(f"{u}|{v}".encode()).hexdigest(), 16) % 7 == 0:
                rows.append((u, "p", v, 1))
    # brute force
    edges = sorted({(min(u, v), max(u, v)) for u, _, v, _ in rows if u != v})
    deg: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    n = 2 * len(edges)
    sx = sum(deg[a] + deg[b] for a, b in edges)
    sxx = sum(deg[a] ** 2 + deg[b] ** 2 for a, b in edges)
    sxy = sum(2 * deg[a] * deg[b] for a, b in edges)
    num = n * sxy - sx * sx
    a2 = n * sxx - sx * sx
    want = (
        int(math.floor(float(num) / (np.sqrt(float(a2)) * np.sqrt(float(a2))) * 1e9 + 0.5))
        if a2 > 0
        else 0
    )
    for nb in (1, 5):
        got = degree_assortativity(
            ray.data.from_arrow(_adj(rows)).repartition(nb)
        ).take_all()[0]
        assert got["n_edges"] == len(edges)
        assert got["n_nodes"] == len(deg)
        assert got["r_nano"] == want


def test_clustering_coefficient_bruteforce(ray_session):
    """Per-node C(v) equals a plain-python triangle enumeration on a
    random graph (+ a triangle-with-tail fixture: tail node deg 1 → 0,
    apex deg 3 with 1 triangle → 2/6), at any partitioning."""
    import hashlib

    from relation_extraction_ray.functions.graph import clustering_coefficient

    tri_tail = [("a", "p", "b", 1), ("b", "p", "c", 1), ("a", "p", "c", 1),
                ("a", "p", "t", 1)]
    got = {
        r["node"]: (r["deg"], r["n_tri"], r["coef_milli"])
        for r in clustering_coefficient(
            ray.data.from_arrow(_adj(tri_tail)).repartition(2)
        ).take_all()
    }
    assert got["t"] == (1, 0, 0)
    assert got["b"] == (2, 1, 1000) and got["c"] == (2, 1, 1000)
    assert got["a"] == (3, 1, (2000 * 2 + 6) // 12)  # 2/6 → 333

    nodes = [f"n{i}" for i in range(25)]
    rows = []
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i < j and int(hashlib.md5(f"{u}|{v}".encode()).hexdigest(), 16) % 4 == 0:
                rows.append((u, "p", v, 1))
    edges = sorted({(min(u, v), max(u, v)) for u, _, v, _ in rows})
    eset = set(edges)
    adjm: dict = {}
    for a, b in edges:
        adjm.setdefault(a, set()).add(b)
        adjm.setdefault(b, set()).add(a)
    want = {}
    for v, nbrs in adjm.items():
        d = len(nbrs)
        t = sum(1 for x in nbrs for y in nbrs if x < y and (x, y) in eset)
        dd = d * (d - 1)
        want[v] = (d, t, (2000 * 2 * t + dd) // (2 * dd) if dd else 0)
    for nb in (1, 5):
        got = {
            r["node"]: (r["deg"], r["n_tri"], r["coef_milli"])
            for r in clustering_coefficient(
                ray.data.from_arrow(_adj(rows)).repartition(nb)
            ).take_all()
        }
        assert got == want, nb


def test_reciprocity(ray_session):
    """a→b & b→a reciprocated; a→c one-way; self loops and duplicate
    (multi-predicate) rows collapse; partitioning invariant."""
    from relation_extraction_ray.functions.graph import reciprocity

    rows = [("a", "p1", "b", 1), ("b", "p2", "a", 1), ("a", "p1", "c", 1),
            ("a", "p2", "b", 1), ("c", "p1", "c", 1)]
    for nb in (1, 3):
        got = reciprocity(
            ray.data.from_arrow(_adj(rows)).repartition(nb)
        ).take_all()[0]
        assert got["n_directed"] == 3
        assert got["n_reciprocated"] == 2
        assert got["reciprocity_milli"] == (2000 * 2 + 3) // 6  # 667
    # empty / no-reciprocation
    got = reciprocity(ray.data.from_arrow(_adj([("x", "p", "y", 1)]))).take_all()[0]
    assert (got["n_directed"], got["n_reciprocated"], got["reciprocity_milli"]) == (1, 0, 0)


def test_harmonic_centrality_bruteforce(ray_session):
    """Landmark harmonic centrality equals a plain-python per-seed BFS
    replay (fixed-hop clipping, self excluded, per-term integer
    rounding), at any partitioning; a path graph's interior node beats
    its endpoints."""
    import hashlib
    from collections import deque

    from relation_extraction_ray.functions.graph import harmonic_centrality

    nodes = [f"n{i}" for i in range(30)]
    rows = []
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i < j and int(hashlib.md5(f"{u}|{v}".encode()).hexdigest(), 16) % 6 == 0:
                rows.append((u, "p", v, 1))
    edges = sorted({(u, v) for u, _, v, _ in rows})
    nbr: dict = {}
    for a, b in edges:
        nbr.setdefault(a, set()).add(b)
        nbr.setdefault(b, set()).add(a)
    seeds = [
        n
        for n in sorted(nbr)
        if int(hashlib.md5(("seed:" + n).encode()).hexdigest()[:8], 16) % 100 < 30
    ]
    H = 4
    want: dict = {}
    for s in seeds:
        dist = {s: 0}
        q = deque([s])
        while q:
            x = q.popleft()
            if dist[x] >= H:
                continue
            for y in nbr[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    q.append(y)
        for n, d in dist.items():
            if d > 0:
                c, h = want.get(n, (0, 0))
                want[n] = (c + 1, h + (2_000_000 + d) // (2 * d))
    for nb in (1, 4):
        got = {
            r["node"]: (r["n_reached"], r["h_micro"])
            for r in harmonic_centrality(
                ray.data.from_arrow(_adj(rows)).repartition(nb),
                seed_pct=30,
                max_hops=H,
            ).take_all()
        }
        assert got == want, nb


def test_ktruss(ray_session):
    """3-truss keeps the two bridged triangles and sheds the bridge and
    the tail (bridge/tail edges sit in 0 triangles); 4-truss of a
    4-clique keeps all 6 edges (every edge in 2 triangles); a brute
    force peel replay agrees on a random graph; partitioning
    invariant."""
    import hashlib

    from relation_extraction_ray.functions.graph import ktruss

    rows = [("x1", "p", "x2", 1), ("x2", "p", "x3", 1), ("x1", "p", "x3", 1),
            ("y1", "p", "y2", 1), ("y2", "p", "y3", 1), ("y1", "p", "y3", 1),
            ("x1", "p", "y1", 1), ("x3", "p", "t", 1)]
    got = [
        (r["node_a"], r["node_b"], r["support"])
        for r in ktruss(ray.data.from_arrow(_adj(rows)).repartition(3), k=3).take_all()
    ]
    assert got == [("x1", "x2", 1), ("x1", "x3", 1), ("x2", "x3", 1),
                   ("y1", "y2", 1), ("y1", "y3", 1), ("y2", "y3", 1)]

    clique = [(a, "p", b, 1) for a in "abcd" for b in "abcd" if a < b]
    got4 = [
        (r["node_a"], r["node_b"], r["support"])
        for r in ktruss(ray.data.from_arrow(_adj(clique)), k=4).take_all()
    ]
    assert len(got4) == 6 and all(s == 2 for _, _, s in got4)

    # brute-force synchronized peel replay (fixed rounds, final support)
    nodes = [f"n{i}" for i in range(20)]
    rows2 = []
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i < j and int(hashlib.md5(f"{u}|{v}".encode()).hexdigest(), 16) % 3 == 0:
                rows2.append((u, "p", v, 1))
    edges = sorted({(min(u, v), max(u, v)) for u, _, v, _ in rows2})  # string canon
    K, R = 3, 3

    def supports(es):
        eset = set(es)
        nbrs: dict = {}
        for a, b in es:
            nbrs.setdefault(a, set()).add(b)
            nbrs.setdefault(b, set()).add(a)
        return {
            (a, b): len(nbrs[a] & nbrs[b]) for a, b in es
        }

    cur = list(edges)
    for _ in range(R):
        sup = supports(cur)
        cur = [e for e in cur if sup[e] >= K - 2]
    want = sorted((a, b, supports(cur)[(a, b)]) for a, b in cur)
    got2 = [
        (r["node_a"], r["node_b"], r["support"])
        for r in ktruss(
            ray.data.from_arrow(_adj(rows2)).repartition(4), k=K, max_rounds=R
        ).take_all()
    ]
    assert got2 == want


def test_power_law_alpha_replay(ray_session):
    """Alpha equals the python histogram replay (per-term nano-rounded
    ln, integer final form); a star graph (n−1 leaves at deg 1, hub at
    n−1) gets a concrete closed-form check."""
    import hashlib
    import math

    from relation_extraction_ray.functions.graph import power_law_alpha

    rows = [("h", "p", f"l{i}", 1) for i in range(9)]
    got = power_law_alpha(ray.data.from_arrow(_adj(rows)).repartition(3)).take_all()[0]
    # hist: deg 1 × 9, deg 9 × 1
    s = 9 * int(math.floor(math.log(2.0) * 1e9 + 0.5)) + 1 * int(
        math.floor(math.log(18.0) * 1e9 + 0.5)
    )
    want = 1_000_000_000 + (2 * 10 * 10**18 + s) // (2 * s)
    assert got["n_nodes"] == 10 and got["max_deg"] == 9
    assert got["alpha_nano"] == want

    nodes = [f"n{i}" for i in range(25)]
    rows2 = []
    for i, u in enumerate(nodes):
        for j, v in enumerate(nodes):
            if i < j and int(hashlib.md5(f"{u}|{v}".encode()).hexdigest(), 16) % 5 == 0:
                rows2.append((u, "p", v, 1))
    edges = sorted({(min(u, v), max(u, v)) for u, _, v, _ in rows2})
    deg: dict = {}
    for a, b in edges:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    from collections import Counter

    hist = Counter(deg.values())
    n = sum(hist.values())
    s2 = sum(c * int(math.floor(math.log(2.0 * d) * 1e9 + 0.5)) for d, c in hist.items())
    want2 = 1_000_000_000 + (2 * n * 10**18 + s2) // (2 * s2)
    got2 = power_law_alpha(ray.data.from_arrow(_adj(rows2)).repartition(4)).take_all()[0]
    assert (got2["n_nodes"], got2["max_deg"], got2["alpha_nano"]) == (
        n,
        max(hist),
        want2,
    )


def test_component_size_hist_handcrafted(ray_session):
    """Component-size histogram: a 3-chain, a 2-pair and a 4-star fold
    to {2:1, 3:1, 4:1}; duplicate/self-loop edges collapse; the hex16
    id → int64 mapping is order-preserving including the top-bit ids;
    partitioning invariant."""
    import pyarrow as pa

    from relation_extraction_ray.functions.graph import component_size_hist

    def eid(n: int) -> str:
        return f"e_{n:016x}"

    big = (1 << 63) + 5  # top-bit-set uint64 → exercises the xor shift
    edges = [
        (eid(1), eid(2)), (eid(2), eid(3)),          # chain of 3
        (eid(10), eid(11)),                           # pair
        (eid(big), eid(big + 1)), (eid(big), eid(big + 2)), (eid(big), eid(big + 3)),  # star of 4
        (eid(1), eid(2)),                             # duplicate edge
        (eid(10), eid(10)),                           # self loop (dropped)
    ]
    t = pa.table(
        {
            "src_id": pa.array([e[0] for e in edges], pa.string()),
            "pred": pa.array(["P"] * len(edges), pa.string()),
            "dst_id": pa.array([e[1] for e in edges], pa.string()),
        }
    )
    for nb in (1, 3):
        got = {
            r["size"]: r["n_components"]
            for r in component_size_hist(
                ray.data.from_arrow(t).repartition(nb)
            ).take_all()
        }
        assert got == {2: 1, 3: 1, 4: 1}


def test_hits_star_and_chain_closed_forms(ray_session):
    """Star: the center is the pure hub, leaves pure authorities.
    Chain a→b→c: hubs (1e6, 1e6, 0), auths (0, 1e6, 1e6) — stable from
    round 1 under the max-rescale."""
    from relation_extraction_ray.functions.graph import hits

    star = [("hub", "p", f"leaf{i}", 1) for i in range(3)]
    got = {
        r["node"]: (r["hub_scaled"], r["auth_scaled"])
        for r in hits(ray.data.from_arrow(_adj(star)).repartition(3)).take_all()
    }
    assert got["hub"] == (1_000_000, 0)
    for i in range(3):
        assert got[f"leaf{i}"] == (0, 1_000_000)

    chain = [("a", "p", "b", 1), ("b", "q", "c", 2)]
    got = {
        r["node"]: (r["hub_scaled"], r["auth_scaled"])
        for r in hits(ray.data.from_arrow(_adj(chain)).repartition(2)).take_all()
    }
    assert got == {
        "a": (1_000_000, 0),
        "b": (1_000_000, 1_000_000),
        "c": (0, 1_000_000),
    }


def test_hits_block_and_multigraph_invariance(ray_session):
    """Duplicate (u,pred,v) rows collapse to ONE directed edge; result
    identical at 1 and 7 blocks."""
    from relation_extraction_ray.functions.graph import hits

    rows = [
        ("a", "p", "b", 1), ("a", "q", "b", 5), ("b", "p", "c", 1),
        ("c", "p", "a", 2), ("a", "p", "c", 1), ("d", "p", "a", 1),
    ]
    base = [("a", "p", "b", 1), ("b", "p", "c", 1), ("c", "p", "a", 1),
            ("a", "p", "c", 1), ("d", "p", "a", 1)]
    a = hits(ray.data.from_arrow(_adj(rows)).repartition(1)).take_all()
    b = hits(ray.data.from_arrow(_adj(rows)).repartition(7)).take_all()
    c = hits(ray.data.from_arrow(_adj(base)).repartition(3)).take_all()
    assert a == b == c and len(a) == 4


def test_trim_core_closed_forms(ray_session):
    """DAG chain peels to empty (2 rounds); a 3-cycle with a tail keeps
    its cycle and reports the fixpoint round; a self-loop survives."""
    from relation_extraction_ray.functions.graph import trim_core

    chain = [("a", "p", "b", 1), ("b", "p", "c", 1), ("c", "p", "d", 1)]
    got = trim_core(ray.data.from_arrow(_adj(chain)).repartition(3)).take_all()
    assert [(r["round"], r["removed"], r["core_after"]) for r in got] == [
        (1, 2, 2),
        (2, 2, 0),
    ]

    cyc = [("a", "p", "b", 1), ("b", "p", "c", 1), ("c", "p", "a", 1),
           ("t", "p", "a", 1)]
    got = trim_core(ray.data.from_arrow(_adj(cyc)).repartition(2)).take_all()
    assert [(r["round"], r["removed"], r["core_after"]) for r in got] == [
        (1, 1, 3),
        (2, 0, 3),
    ]

    loop = [("x", "p", "x", 1)]
    got = trim_core(ray.data.from_arrow(_adj(loop)).repartition(1)).take_all()
    assert [(r["round"], r["removed"], r["core_after"]) for r in got] == [(1, 0, 1)]


def test_diameter_2sweep_closed_forms(ray_session):
    """Path a-b-c-d-e: src = 'a', ecc 4, far 'e', second sweep returns
    to 'a' with the same diameter (exact on trees).  A cycle of 6 has
    true diameter 3; two sweeps from any node report 3."""
    from relation_extraction_ray.functions.graph import diameter_2sweep

    path = [(x, "p", y, 1) for x, y in zip("abcd", "bcde")]
    r = diameter_2sweep(ray.data.from_arrow(_adj(path)).repartition(3)).take_all()[0]
    assert (r["src"], r["ecc_src"], r["far_node"], r["diameter_lb"], r["far_node_2"]) == (
        "a", 4, "e", 4, "a",
    )

    ring = [(f"n{i}", "p", f"n{(i + 1) % 6}", 1) for i in range(6)]
    r = diameter_2sweep(ray.data.from_arrow(_adj(ring)).repartition(2)).take_all()[0]
    assert r["src"] == "n0" and r["ecc_src"] == 3 and r["diameter_lb"] == 3


def test_local_planner_bit_equal_to_distributed(ray_session):
    """Small-graph planner: forcing ``joins.LOCAL_BYTES_BOUND`` = 0
    (distributed rounds AND keyed exchanges) must give bit-identical
    results to the local numpy path for every operator that has one."""
    import random
    import unittest.mock as mock

    import relation_extraction_ray.functions.graph as G
    from relation_extraction_ray.functions import joins

    rng = random.Random(5)
    rows = [
        (f"n{rng.randrange(40):02d}", "p", f"n{rng.randrange(40):02d}", rng.randrange(1, 5))
        for _ in range(160)
    ]
    kg_adjacency = ray.data.from_arrow(_adj(rows)).repartition(4)

    def rows(ds, cols):
        return sorted(tuple(r[c] for c in cols) for r in ds.take_all())

    cases = [
        (lambda: G.pagerank(kg_adjacency, iters=3), ["node", "rank"]),
        (lambda: G.pagerank(kg_adjacency, iters=2, seed_pct=20), ["node", "rank"]),
        (lambda: G.hits(kg_adjacency, iters=2), ["node", "hub_scaled", "auth_scaled"]),
        (
            lambda: G.edge_jaccard(kg_adjacency),
            ["node_a", "node_b", "deg_a", "deg_b", "n_common", "jacc_micro"],
        ),
        (
            lambda: G.clustering_coefficient(kg_adjacency),
            ["node", "deg", "n_tri", "coef_milli"],
        ),
        (lambda: G.ktruss(kg_adjacency, k=3), ["node_a", "node_b", "support"]),
        (lambda: G.triangle_count(kg_adjacency), ["n_triangles"]),
        (lambda: G.bfs_hops(kg_adjacency, seed_pct=10, max_hops=4), ["node", "dist"]),
        (lambda: G.bfs_hops(kg_adjacency, seeds=["n01"], max_hops=4), ["node", "dist"]),
        (lambda: G.sssp_hops(kg_adjacency, seed_pct=10, rounds=4), ["node", "dist"]),
        (lambda: G.label_propagation(kg_adjacency, rounds=3), ["node", "community"]),
        (lambda: G.kcore(kg_adjacency, k=3), ["node", "deg"]),
        (
            lambda: G.modularity(kg_adjacency, G.label_propagation(kg_adjacency, rounds=2)),
            ["n_edges", "n_communities", "q_nano"],
        ),
        (lambda: G.degree_assortativity(kg_adjacency), ["n_edges", "n_nodes", "r_nano"]),
        (
            lambda: G.harmonic_centrality(kg_adjacency, seed_pct=10, max_hops=3),
            ["node", "n_reached", "h_micro"],
        ),
        (lambda: G.trim_core(kg_adjacency), ["round", "removed", "core_after"]),
        (lambda: G.random_walks(kg_adjacency, walk_len=3), ["walk_id", "step", "node"]),
        (lambda: G.walk_pairs(kg_adjacency, walk_len=3), ["center", "context", "n"]),
        (lambda: G.fanout_sample(kg_adjacency, seed_pct=10), ["hop", "src", "dst"]),
    ]
    for make, cols in cases:
        local = rows(make(), cols)
        with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0):
            dist = rows(make(), cols)
            # every test graph derives ONE partition; force four so the
            # distributed exchanges really co-partition their two sides
            with mock.patch.object(G, "derive_n_parts", lambda n, **kw: 4):
                dist4 = rows(make(), cols)
        assert local == dist, cols
        assert local == dist4, cols
        assert len(local) > 0

    # Self-loop-only graph: the undirected operators see an empty edge
    # set, and both paths must still agree on rows AND column names.  The
    # cases close over ``kg_adjacency``, so rebinding it re-runs them all.
    kg_adjacency = ray.data.from_arrow(
        _adj([("n01", "p", "n01", 2), ("n02", "p", "n02", 1)])
    ).repartition(2)

    def shape(ds, cols):
        ds = ds.materialize()
        schema = ds.schema()
        return (schema.names if schema is not None else None), rows(ds, cols)

    for make, cols in cases:
        local = shape(make(), cols)
        with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0):
            dist = shape(make(), cols)
        assert local == dist, cols
        assert local[0] is not None, cols  # typed, never schema-less


_KINDS = ("empty", "self_loops", "star", "chain", "random")


def _graph_rows(kind: str, n: int, seed: int) -> list:
    import random

    rng = random.Random(seed)
    node = [f"n{i:02d}" for i in range(n)]
    if kind == "empty":
        return []
    if kind == "self_loops":
        return [(x, "p", x, 1 + i % 3) for i, x in enumerate(node)]
    if kind == "star":  # hub out to every leaf, a few leaves back in
        return [(node[0], "p", x, 1 + i % 2) for i, x in enumerate(node[1:])] + [
            (x, "q", node[0], 2) for x in node[1 : 1 + n // 3]
        ]
    if kind == "chain":
        return [(a, "p", b, 1 + i % 3) for i, (a, b) in enumerate(zip(node, node[1:]))]
    return [
        (rng.choice(node), rng.choice(["p", "q"]), rng.choice(node), rng.randrange(1, 4))
        for _ in range(3 * n)
    ]


def _typed_adj(rows):
    return ray.data.from_arrow(
        pa.table(
            {
                "src_id": pa.array([r[0] for r in rows], pa.string()),
                "pred": pa.array([r[1] for r in rows], pa.string()),
                "dst_id": pa.array([r[2] for r in rows], pa.string()),
                "weight": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
    ).repartition(3)


def _nine_operators(G):
    return [
        (lambda a: G.pagerank(a, iters=2), ["node", "rank"]),
        (lambda a: G.pagerank(a, iters=1, seed_pct=30), ["node", "rank"]),
        (lambda a: G.hits(a, iters=1), ["node", "hub_scaled", "auth_scaled"]),
        (lambda a: G.bfs_hops(a, seed_pct=30, max_hops=3), ["node", "dist"]),
        (lambda a: G.sssp_hops(a, seed_pct=30, rounds=2), ["node", "dist"]),
        (
            lambda a: G.harmonic_centrality(a, seed_pct=30, max_hops=2),
            ["node", "n_reached", "h_micro"],
        ),
        (lambda a: G.label_propagation(a, rounds=2), ["node", "community"]),
        (lambda a: G.kcore(a, k=2, max_rounds=3), ["node", "deg"]),
        (lambda a: G.trim_core(a, max_rounds=4), ["round", "removed", "core_after"]),
        (lambda a: G.random_walks(a, walk_len=2), ["walk_id", "step", "node"]),
        (lambda a: G.fanout_sample(a, seed_pct=30, fanouts=(2, 1)), ["hop", "src", "dst"]),
    ]


def _wedge_operators(G):
    """The edge_jaccard family, written on the same executor."""
    return [
        (G.edge_jaccard, ["node_a", "node_b", "deg_a", "deg_b", "n_common", "jacc_micro"]),
        (G.triangle_count, ["n_triangles"]),
        (G.clustering_coefficient, ["node", "deg", "n_tri", "coef_milli"]),
        (lambda a: G.ktruss(a, k=3, max_rounds=2), ["node_a", "node_b", "support"]),
        (G.degree_assortativity, ["n_edges", "n_nodes", "r_nano"]),
        (
            lambda a: G.modularity(a, G.label_propagation(a, rounds=1)),
            ["n_edges", "n_communities", "q_nano"],
        ),
    ]


@settings(max_examples=6, deadline=None)
@given(
    kind=st.sampled_from(_KINDS),
    n=st.integers(2, 9),
    seed=st.integers(0, 2**16),
    n_parts=st.sampled_from([1, 4]),
)
@example(kind="empty", n=2, seed=0, n_parts=1)
@example(kind="self_loops", n=3, seed=0, n_parts=4)
@example(kind="star", n=7, seed=0, n_parts=4)
@example(kind="chain", n=6, seed=0, n_parts=1)
@example(kind="random", n=8, seed=1, n_parts=4)
def test_iterate_drivers_same_rows(ray_session, kind, n, seed, n_parts):
    """Every operator written on :func:`_iterate`'s executor (the
    iterative ones and the edge_jaccard family) gives the same rows and
    column names under both of its drivers: in-process (the default
    bound) and keyed exchanges (``joins.LOCAL_BYTES_BOUND`` = 0) over
    ``n_parts`` partitions."""
    import unittest.mock as mock

    import relation_extraction_ray.functions.graph as G
    from relation_extraction_ray.functions import joins

    adjacency = _typed_adj(_graph_rows(kind, n, seed))

    def shape(ds, cols):
        ds = ds.materialize()
        names = ds.schema().names if ds.schema() is not None else None
        return names, sorted(tuple(r[c] for c in cols) for r in ds.take_all())

    for op, cols in _nine_operators(G) + _wedge_operators(G):
        in_process = shape(op(adjacency), cols)
        with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0), mock.patch.object(
            G, "derive_n_parts", lambda rows, **kw: n_parts
        ):
            exchanged = shape(op(adjacency), cols)
        assert in_process == exchanged, (kind, cols)
        assert in_process[0] == cols


def test_exchange_rounds_keep_at_most_n_parts_blocks(ray_session):
    """Above the bound every round of ``_min_plus_hops`` and
    ``label_propagation`` is ``cogroup`` calls, and each call's output
    holds at most ``n_parts`` blocks however many rounds run — a round
    output that re-enters the next round cannot compound its block
    count.  The same holds for the components label fold
    (``_global_min``) in rounds that pointer-jump."""
    import unittest.mock as mock

    import relation_extraction_ray.functions.graph as G
    from relation_extraction_ray.functions import joins

    adjacency = _typed_adj(_graph_rows("chain", 12, 0)).repartition(6)
    blocks = []
    real_cogroup = G.cogroup

    def counting_cogroup(*args, **kwargs):
        out = real_cogroup(*args, **kwargs).materialize()
        blocks.append(out.num_blocks())
        return out

    with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0), mock.patch.object(
        G, "derive_n_parts", lambda rows, **kw: 4
    ), mock.patch.object(G, "cogroup", counting_cogroup):
        dist = G.bfs_hops(adjacency, seeds=["n00"], max_hops=8).take_all()
        assert len(blocks) == 2 * 8 and max(blocks) <= 4, blocks
        assert [r["dist"] for r in dist] == list(range(9))
        blocks.clear()
        labels = G.label_propagation(adjacency, rounds=6).take_all()
        assert len(blocks) == 2 * 6 and max(blocks) <= 4, blocks
        assert len(labels) == 12

    # components' label fold: a 12-node chain runs past round 3, so its
    # rounds include the pointer jump, and every _global_min output —
    # round k's labels ∪ messages — holds at most n_parts blocks
    from relation_extraction_ray.functions import components as C

    real_min = C._global_min
    blocks = []

    def counting_min(*args, **kwargs):
        out = real_min(*args, **kwargs).materialize()
        blocks.append(out.num_blocks())
        return out

    chain = ray.data.from_arrow(pa.table({"a": list(range(11)), "b": list(range(1, 12))}))
    with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0), mock.patch.object(
        C, "derive_n_parts", lambda rows, **kw: 4
    ), mock.patch.object(C, "_global_min", counting_min):
        comp = C.connected_components(chain.repartition(6), id_a="a", id_b="b").take_all()
    assert len(blocks) >= 4 and max(blocks) <= 4, blocks
    assert sorted((r["doc_id"], r["canonical_id"]) for r in comp) == [(i, 0) for i in range(12)]


def _hex_adj(rows):
    """``_adj`` of (n<k>, pred, n<k>, weight) rows with every node id
    rewritten to 'e_<16 hex>' (component_size_hist's id form)."""
    return _adj([(f"e_{int(u[1:]):016x}", p, f"e_{int(v[1:]):016x}", w) for u, p, v, w in rows])


def _random_rows(n_nodes: int, n_edges: int, seed: int):
    import random

    rng = random.Random(seed)
    return [
        (f"n{rng.randrange(n_nodes)}", rng.choice(["p", "q"]), f"n{rng.randrange(n_nodes)}", rng.randrange(1, 4))
        for _ in range(n_edges)
    ]


@pytest.fixture
def executions(monkeypatch):
    """The plan of every Ray Data execution started while the test runs."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    plans = []
    real = StreamingExecutor.execute

    def counted(self, dag, initial_stats=None):
        plans.append(dag.dag_str)
        return real(self, dag, initial_stats)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return plans


def _four_queries():
    from relation_extraction_ray.functions import graph as G
    from relation_extraction_ray.functions.components import connected_components

    return [
        ("pagerank", "adjacency", G.pagerank),
        ("bfs_hops", "adjacency", G.bfs_hops),
        ("component_size_hist", "adjacency", G.component_size_hist),
        ("connected_components", "pairs", lambda p: connected_components(p, id_a="a", id_b="b")),
    ]


def _one_execution_queries():
    """The four queries, the wedge operators with one input, and a
    ``cogroup`` of the read with a materialized dataset."""
    from functools import partial

    from relation_extraction_ray.functions import graph as G
    from relation_extraction_ray.functions.joins import cogroup

    tags = ray.data.from_arrow(
        pa.table({"node": [f"e_{i:016x}" for i in range(0, 40, 3)], "tag": list(range(0, 40, 3))})
    ).materialize()
    attach = partial(G._attach, left_on=["src_id"], right_on=["node"], value="tag", out="tag")
    return _four_queries() + [
        ("edge_jaccard", "adjacency", G.edge_jaccard),
        ("triangle_count", "adjacency", G.triangle_count),
        ("clustering_coefficient", "adjacency", G.clustering_coefficient),
        ("ktruss", "adjacency", G.ktruss),
        ("degree_assortativity", "adjacency", G.degree_assortativity),
        ("cogroup", "adjacency", lambda a: cogroup(a, tags, ["src_id"], ["node"], attach, 4)),
    ]


def _write_graph_inputs(tmp_path) -> dict:
    """A small random adjacency and an int64 pair table, each written
    as four parquet files."""
    adjacency = str(tmp_path / "adjacency")
    ray.data.from_arrow(_hex_adj(_random_rows(40, 160, 3))).repartition(4).write_parquet(adjacency)
    rng = np.random.default_rng(3)
    pairs = str(tmp_path / "pairs")
    ray.data.from_arrow(
        pa.table({"a": rng.integers(0, 50, 60), "b": rng.integers(0, 50, 60)})
    ).repartition(4).write_parquet(pairs)
    return {"adjacency": adjacency, "pairs": pairs}


def test_sub_bound_graph_query_is_one_execution(ray_session, tmp_path, executions):
    """Below the bound a graph query over a parquet read, followed by
    ``write_parquet``, is ONE Ray Data execution — read, the query's one
    worker call and the write — with the rows of the exchange path; so
    is a ``cogroup`` of the read with a materialized dataset."""
    import unittest.mock as mock

    import pyarrow.parquet as pq

    from relation_extraction_ray.functions import joins

    inputs = _write_graph_inputs(tmp_path)
    for name, src, query in _one_execution_queries():
        executions.clear()
        out = str(tmp_path / name)
        query(ray.data.read_parquet(inputs[src])).write_parquet(out)
        assert len(executions) == 1, (name, executions)
        assert "ReadParquet" in executions[0] and "Write" in executions[0], executions
        got = pq.read_table(out)
        with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0):
            # rows, not blocks: a keyed cogroup may emit an empty block
            # with no schema (a sort-shuffle reducer that got no partition)
            want = query(ray.data.read_parquet(inputs[src])).take_all()
        assert got.num_rows > 0
        assert sorted(got.to_pylist(), key=str) == sorted(want, key=str), name


def test_sub_bound_graph_query_gathers_nothing_on_the_driver(ray_session, tmp_path, monkeypatch):
    """Below the bound no graph or components query pulls rows into the
    driver: ``Dataset.iter_batches`` and ``Dataset.take_all`` are never
    called while the queries are planned and written."""
    from relation_extraction_ray.functions import graph as G

    inputs = _write_graph_inputs(tmp_path)
    calls = []

    def refuse(name):
        def spy(self, *args, **kwargs):
            calls.append(name)
            raise AssertionError(f"driver {name}")

        return spy

    queries = _four_queries() + [
        ("hits", "adjacency", G.hits),
        ("edge_jaccard", "adjacency", G.edge_jaccard),
        ("triangle_count", "adjacency", G.triangle_count),
        ("clustering_coefficient", "adjacency", G.clustering_coefficient),
        ("ktruss", "adjacency", G.ktruss),
        ("degree_assortativity", "adjacency", G.degree_assortativity),
        ("modularity", "adjacency", lambda a: G.modularity(a, G.label_propagation(a))),
        ("trim_core", "adjacency", G.trim_core),
    ]
    monkeypatch.setattr(ray.data.Dataset, "iter_batches", refuse("iter_batches"))
    monkeypatch.setattr(ray.data.Dataset, "take_all", refuse("take_all"))
    for name, src, query in queries:
        query(ray.data.read_parquet(inputs[src])).write_parquet(str(tmp_path / name))
    monkeypatch.undo()
    assert calls == []


def _local_arm_queries(G):
    """Every graph operator with a sub-bound one-call path, and its
    columns."""
    return _nine_operators(G) + _wedge_operators(G) + [
        (G.component_size_hist, ["size", "n_components"]),
    ]


@pytest.mark.parametrize("kind", ["empty", "self_loops"])
@pytest.mark.parametrize("n_parts", [1, 4])
def test_empty_and_self_loop_graphs_typed_on_every_arm(ray_session, executions, kind, n_parts):
    """An adjacency with no rows, and one whose edge preps come out empty
    (self-loops only), give every operator its typed result on the
    one-call arm and on the exchange arm at ``n_parts`` partitions; an
    input sized at 0 rows gets it without any Ray Data execution."""
    import unittest.mock as mock

    import relation_extraction_ray.functions.graph as G
    from relation_extraction_ray.functions import joins

    typed = pa.schema(
        [("src_id", pa.string()), ("pred", pa.string()), ("dst_id", pa.string()), ("weight", pa.int64())]
    )
    adjacency = ray.data.from_arrow(_hex_adj(_graph_rows(kind, 5, 0)).cast(typed))

    def shape(ds, cols):
        ds = ds.materialize()
        names = ds.schema().names if ds.schema() is not None else None
        return names, sorted(tuple(r[c] for c in cols) for r in ds.take_all())

    for op, cols in _local_arm_queries(G):
        executions.clear()
        planned = op(adjacency)
        if kind == "empty":
            assert executions == [], cols
        local = shape(planned, cols)
        with mock.patch.object(joins, "LOCAL_BYTES_BOUND", 0), mock.patch.object(
            G, "derive_n_parts", lambda rows, **kw: n_parts
        ):
            exchanged = shape(op(adjacency), cols)
        assert local == exchanged, (kind, cols)
        assert local[0] == cols
