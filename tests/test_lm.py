"""Bigram-LM quality scoring — functions/lm.py."""

import math

import pyarrow as pa
import ray.data

from relation_extraction_ray.functions.lm import UNK, bigram_lm_score

DOCS = [
    (0, "the cat sat on the mat"),
    (1, "the cat sat"),
    (2, "zzyzx"),            # single token → no bigrams
    (3, ""),                  # empty → no tokens
    (4, "the the the the"),
    (5, "qwrk bleb the cat"),  # two OOV tokens at min_count=2
    (6, "THE CAT  sat"),      # case-folds; double space makes an empty token (dropped)
]


def _py_oracle(rows, min_count):
    toks = {d: [t for t in text.lower().split(" ") if t] for d, text in rows}
    uni_raw: dict[str, int] = {}
    for ts in toks.values():
        for t in ts:
            uni_raw[t] = uni_raw.get(t, 0) + 1
    vocab = {t for t, c in uni_raw.items() if c >= min_count}
    v = len(vocab) + 1
    mapped = {d: [t if t in vocab else UNK for t in ts] for d, ts in toks.items()}
    uni: dict[str, int] = {}
    big: dict[tuple[str, str], int] = {}
    for ts in mapped.values():
        for t in ts:
            uni[t] = uni.get(t, 0) + 1
        for a, b in zip(ts, ts[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
    out = {}
    for d, ts in mapped.items():
        nll = [math.log(uni[a] + v) - math.log(big[(a, b)] + 1) for a, b in zip(ts, ts[1:])]
        nb = len(nll)
        milli = int(math.floor(1000.0 * (sum(nll) / nb) + 0.5)) if nb else 0
        out[d] = (
            len(ts),
            sum(1 for t in ts if t == UNK),
            nb,
            milli,
        )
    return out


def test_bigram_lm_matches_python_oracle(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {"doc_id": [d for d, _ in DOCS], "text": [t for _, t in DOCS]}
        )
    )
    got = bigram_lm_score(ds, min_count=2).sort("doc_id").to_pandas()
    want = _py_oracle(DOCS, min_count=2)
    assert len(got) == len(DOCS)
    for _, r in got.iterrows():
        nt, nu, nb, milli = want[int(r["doc_id"])]
        assert (int(r["n_tokens"]), int(r["n_unk"]), int(r["n_bigrams"]), int(r["nll_milli"])) == (
            nt,
            nu,
            nb,
            milli,
        ), r["doc_id"]


def test_unk_and_edge_rows(ray_session):
    ds = ray.data.from_arrow(
        pa.table({"doc_id": [d for d, _ in DOCS], "text": [t for _, t in DOCS]})
    )
    got = (
        bigram_lm_score(ds, min_count=2)
        .sort("doc_id")
        .to_pandas()
        .set_index("doc_id")
    )
    assert got.loc[2, "n_bigrams"] == 0 and got.loc[2, "nll_milli"] == 0
    assert got.loc[3, "n_tokens"] == 0 and got.loc[3, "nll_milli"] == 0
    assert got.loc[5, "n_unk"] == 2  # qwrk + bleb below min_count
    assert got.loc[6, "n_tokens"] == 3  # empty token from double space dropped


def test_heaps_law_closed_form(ray_session):
    """8 docs, doc k introduces k-specific tokens so V grows with n;
    checkpoints at 1,2,4,8 docs; β replayed via the same nano-ln OLS;
    block-invariant."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray

    from relation_extraction_ray.functions.text import heaps_law

    texts = [" ".join(f"w{d}_{i}" for i in range(d + 1)) + " common" for d in range(8)]
    t = pa.table(
        {
            "doc_id": pa.array(range(8), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    for nb in (1, 3):
        got = heaps_law(ray.data.from_arrow(t).repartition(nb)).to_pylist()
        assert [r["checkpoint"] for r in got] == [1, 2, 4, 8]
        assert [r["n_docs"] for r in got] == [1, 2, 4, 8]
        # prefix of k docs: sum_{d<k}(d+1) unique + 1 shared "common"
        assert [r["v_tokens"] for r in got] == [2, 4, 11, 37]
        L = lambda x: int(math.floor(math.log(float(x)) * 1e9 + 0.5))
        xs = [L(n) for n in (1, 2, 4, 8)]
        ys = [L(v) for v in (2, 4, 11, 37)]
        num = 4 * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
        den = 4 * sum(x * x for x in xs) - sum(xs) ** 2
        assert got[0]["beta_milli"] == (2000 * num + den) // (2 * den)


def test_heaps_law_tiny_corpus(ray_session):
    """Fewer than 8 docs: the ⅛ (and maybe ¼) prefix is empty (n=0) and
    would feed ln(0) — those checkpoints are skipped, not crashed on
    (advisor round 4).  A token-less prefix (v=0) is skipped the same
    way."""
    import pyarrow as pa
    import ray

    from relation_extraction_ray.functions.text import heaps_law

    t = pa.table(
        {
            "doc_id": pa.array(range(3), pa.int64()),
            "text": pa.array(["a b", "a c", "b c d"], pa.string()),
        }
    )
    got = heaps_law(ray.data.from_arrow(t)).to_pylist()
    # top=3: prefixes 0,0,1,3 docs → checkpoints 1,2 dropped (n=0)
    assert [r["checkpoint"] for r in got] == [4, 8]
    assert [r["n_docs"] for r in got] == [1, 3]
    assert [r["v_tokens"] for r in got] == [2, 4]

    # a prefix whose only doc is empty text → v=0 → skipped
    t2 = pa.table(
        {
            "doc_id": pa.array(range(8), pa.int64()),
            "text": pa.array([""] * 4 + ["x y"] * 4, pa.string()),
        }
    )
    got2 = heaps_law(ray.data.from_arrow(t2)).to_pylist()
    assert [r["checkpoint"] for r in got2] == [8]

    # all-empty corpus → empty result, stable schema
    t3 = pa.table(
        {"doc_id": pa.array(range(2), pa.int64()), "text": pa.array(["", ""], pa.string())}
    )
    got3 = heaps_law(ray.data.from_arrow(t3))
    assert got3.num_rows == 0
    assert got3.schema.names == ["checkpoint", "n_docs", "v_tokens", "beta_milli"]


def test_zipf_law_closed_form(ray_session):
    """A perfectly Zipfian corpus (token w_r appears floor(64/r) times,
    r = 1,2,4,8) recovers s ≈ 1000 milli; ranks tie-break by token."""
    import math

    import pyarrow as pa
    import ray

    from relation_extraction_ray.functions.text import zipf_law

    words = []
    for r in (1, 2, 4, 8):
        words += [f"w{r:02d}"] * (64 // r)
    t = pa.table(
        {"doc_id": pa.array([0], pa.int64()), "text": pa.array([" ".join(words)], pa.string())}
    )
    got = zipf_law(ray.data.from_arrow(t), k=4).to_pylist()
    assert [r["cnt"] for r in got] == [64, 32, 16, 8]
    # exact slope on the 4 nano-ln points: ln(cnt) = ln64 − ln(rank_pos)
    L = lambda x: int(math.floor(math.log(float(x)) * 1e9 + 0.5))
    xs = [L(i + 1) for i in range(4)]
    ys = [L(c) for c in (64, 32, 16, 8)]
    num = 4 * sum(a * b for a, b in zip(xs, ys)) - sum(xs) * sum(ys)
    den = 4 * sum(a * a for a in xs) - sum(xs) ** 2
    assert got[0]["s_milli"] == (2000 * (-num) + den) // (2 * den)
    # ranks 1..4 in frequency order
    assert [r["rank"] for r in got] == [1, 2, 3, 4]


def test_char_entropy_closed_form(ray_session):
    """Hand-computable fixtures: uniform 2-char doc, single-char doc,
    empty doc; block-invariant."""
    import math

    import pyarrow as pa
    import ray

    from relation_extraction_ray.functions.text import char_entropy

    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["abab", "aaaa", "", "abcd"], pa.string()),
        }
    )
    L = lambda x: int(math.floor(math.log(float(x)) * 1e9 + 0.5))

    def H(counts):
        n = sum(counts)
        num = sum(c * (L(n) - L(c)) for c in counts)
        return (2 * num + n) // (2 * n)

    for nb in (1, 3):
        got = {
            r["doc_id"]: (r["n_chars"], r["n_distinct"], r["entropy_nano"])
            for r in char_entropy(ray.data.from_arrow(t).repartition(nb)).take_all()
        }
        assert got[0] == (4, 2, H([2, 2]))  # ln 2
        assert got[1] == (4, 1, 0)
        assert got[2] == (0, 0, 0)
        assert got[3] == (4, 4, H([1, 1, 1, 1]))  # ln 4
    # ln2 in nanos via the difference-of-rounded-logs convention:
    # L(4)−L(2) = 1386294361 − 693147181 = 693147180 (one ulp below the
    # directly rounded ln2 — the per-term rounding is the spec)
    assert got[0][2] == 693147180


def test_silhouette_closed_form(ray_session):
    """Two tight clusters far apart → s ≈ 1; a label blended into
    another's points → s near/below 0.  Compared against a plain-python
    brute force with the exact integer conventions."""
    import math

    import pyarrow as pa
    import ray

    from relation_extraction_ray.functions.ann import silhouette_by_label

    vecs = [
        (0, [0.0, 0.0], 0), (1, [0.01, 0.0], 0), (2, [0.0, 0.01], 0),
        (3, [10.0, 10.0], 1), (4, [10.01, 10.0], 1), (5, [10.0, 10.01], 1),
        (6, [0.005, 0.005], 2), (7, [9.99, 10.0], 2),
    ]
    t = pa.table(
        {
            "vec_id": pa.array([v[0] for v in vecs], pa.int64()),
            "embedding": pa.array([v[1] for v in vecs], pa.list_(pa.float32())),
            "label": pa.array([v[2] for v in vecs], pa.int32()),
        }
    )

    # independent brute force (python ints, same conventions)
    import numpy as np

    M = [
        [int(math.floor(float(np.float32(x)) * 1e6 + 0.5)) for x in v[1]]
        for v in vecs
    ]
    lab = [v[2] for v in vecs]
    import collections

    stats = collections.defaultdict(lambda: [0, 0])
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            if i == j:
                continue
            d2 = sum((a - b) * (a - b) for a, b in zip(M[i], M[j]))
            d = int(math.floor(math.sqrt(float(d2))))
            st = stats[(i, lab[j])]
            st[0] += d
            st[1] += 1
    per_label = collections.defaultdict(lambda: [0, 0])
    for i in range(len(vecs)):
        as_, ac = stats.get((i, lab[i]), [0, 0])
        best = None
        for l in sorted(set(lab)):
            if l == lab[i] or (i, l) not in stats:
                continue
            bs, bc = stats[(i, l)]
            if best is None or bs * best[1] < best[0] * bc:
                best = (bs, bc)
        if ac <= 0 or best is None:
            s = 0
        else:
            bs, bc = best
            N = bs * ac - as_ * bc
            D = max(bs * ac, as_ * bc)
            s = 0 if D == 0 else (1 if N >= 0 else -1) * ((2000 * abs(N) + D) // (2 * D))
        o = per_label[lab[i]]
        o[0] += 1
        o[1] += s

    for nb in (1, 4):
        got = {
            r["label"]: (r["n_vecs"], r["sum_s_milli"], r["mean_s_milli"])
            for r in silhouette_by_label(ray.data.from_arrow(t).repartition(nb)).take_all()
        }
        for l, (cnt, ssum) in per_label.items():
            mean = (1 if ssum >= 0 else -1) * (abs(ssum) // cnt)
            assert got[l] == (cnt, ssum, mean), (l, got[l], (cnt, ssum, mean))
    # tight well-separated clusters sit near 1000 milli
    assert got[0][2] > 950 and got[1][2] > 950
    # the blended label straddles both clusters — far from cohesive
    assert got[2][2] < 500


def test_silhouette_sampled(ray_session):
    """sample ≥ n is identical to full; sample < n matches a plain
    brute force against the md5-picked reference subset."""
    import collections
    import hashlib
    import math

    import numpy as np
    import pyarrow as pa
    import ray

    from relation_extraction_ray.functions.ann import silhouette_by_label

    rng = np.random.default_rng(11)
    n = 40
    emb = rng.normal(size=(n, 4)).astype(np.float32)
    lab = (np.arange(n) % 3).astype(np.int32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array([list(map(float, e)) for e in emb], pa.list_(pa.float32())),
            "label": pa.array(lab, pa.int32()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)

    def rows_of(res):
        return sorted(
            (r["label"], r["n_vecs"], r["sum_s_milli"], r["mean_s_milli"])
            for r in res.take_all()
        )

    full = rows_of(silhouette_by_label(ds))
    assert rows_of(silhouette_by_label(ds, sample=n)) == full

    k = 15
    got = rows_of(silhouette_by_label(ds, sample=k))

    # independent replay: md5-smallest-k reference, python-int brute force
    h = [(int(hashlib.md5(str(i).encode()).hexdigest()[:16], 16), i) for i in range(n)]
    ref = sorted(i for _, i in sorted(h)[:k])
    M = [[int(math.floor(float(x) * 1e6 + 0.5)) for x in emb[i]] for i in range(n)]
    stats = collections.defaultdict(lambda: [0, 0])
    for i in range(n):
        for j in ref:
            if i == j:
                continue
            d2 = sum((a - b) * (a - b) for a, b in zip(M[i], M[j]))
            d = int(math.floor(math.sqrt(float(d2))))
            st = stats[(i, int(lab[j]))]
            st[0] += d
            st[1] += 1
    per_label = collections.defaultdict(lambda: [0, 0])
    ref_set = set(ref)
    for i in range(n):
        own = stats.get((i, int(lab[i])))
        if own is None:
            s = 0
        else:
            as_, ac = own
            ac = ac  # count of own-label ref rows != i
            best = None
            for l in sorted(set(int(x) for x in lab)):
                if l == int(lab[i]) or (i, l) not in stats:
                    continue
                bs, bc = stats[(i, l)]
                if best is None or bs * best[1] < best[0] * bc:
                    best = (bs, bc)
            if ac <= 0 or best is None:
                s = 0
            else:
                bs, bc = best
                N = bs * ac - as_ * bc
                D = max(bs * ac, as_ * bc)
                s = 0 if D == 0 else (1 if N >= 0 else -1) * ((2000 * abs(N) + D) // (2 * D))
        o = per_label[int(lab[i])]
        o[0] += 1
        o[1] += s
    want = sorted(
        (l, cnt, ssum, (1 if ssum >= 0 else -1) * (abs(ssum) // cnt))
        for l, (cnt, ssum) in per_label.items()
    )
    assert got == want


def test_silhouette_broadcast_bound_raises(ray_session):
    """A reference matrix past ``broadcast_bytes`` is refused with a
    ValueError (which survives ``python -O``) before any driver gather."""
    import pyarrow as pa
    import pytest
    import ray

    from relation_extraction_ray.functions.ann import silhouette_by_label

    t = pa.table(
        {
            "vec_id": pa.array([0, 1, 2], pa.int64()),
            "embedding": pa.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], pa.list_(pa.float32())),
            "label": pa.array([0, 0, 1], pa.int32()),
        }
    )
    # 3 rows × 2 dims × 8 B = 48 B of int64 matrix
    with pytest.raises(ValueError, match="broadcast_bytes"):
        silhouette_by_label(ray.data.from_arrow(t), broadcast_bytes=47)
    assert len(silhouette_by_label(ray.data.from_arrow(t), broadcast_bytes=48).take_all()) == 2
