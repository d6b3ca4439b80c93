"""Property-based tests (hypothesis) for the pure vectorized kernels —
the determinism contracts the SQL oracles and the distributed exchanges
lean on, probed over randomized inputs rather than fixtures.  No Ray:
every target here is a batch-level or scalar kernel."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

TOKENS = st.text(alphabet="abcxyz", min_size=1, max_size=3)


# --- n-gram windows vs brute force ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(TOKENS, min_size=0, max_size=12), min_size=1, max_size=6))
def test_ngram_windows_match_bruteforce(docs):
    from relation_extraction_ray.functions.text import _ngram_windows

    n = 3
    col = pa.chunked_array([pa.array([" ".join(toks) for toks in docs], pa.string())])
    row, pos, joined = _ngram_windows(col, n)
    got = (
        []
        if row is None
        else list(zip(row.tolist(), pos.tolist(), joined.to_pylist()))
    )
    want = []
    for r, toks in enumerate(docs):
        # the kernel splits the JOINED string, so empty docs still yield ['']
        toks = " ".join(toks).lower().split(" ")
        for i in range(len(toks) - n + 1):
            want.append((r, i, " ".join(toks[i : i + n])))
    assert got == want


# --- int8 quantizer ----------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=8),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_quantize_i8_props(rows):
    from relation_extraction_ray.functions.ann import _quantize_i8

    m = np.asarray(rows, dtype=np.float64)
    c = _quantize_i8(m)
    assert (np.abs(c) <= 127).all() and (c == np.floor(c)).all()
    # positive scaling invariance: codes depend only on direction
    c2 = _quantize_i8(m * 7.5)
    assert (c == c2).all()
    # the max-|x| component quantizes to exactly ±127 (nonzero rows)
    for i, r in enumerate(m):
        if np.abs(r).max() > 0:
            j = int(np.argmax(np.abs(r)))
            assert abs(c[i, j]) == 127


# --- stable key hash ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=50, unique=True))
def test_hash_columns_deterministic_and_chunk_invariant(keys):
    from relation_extraction_ray.functions.joins import hash_columns

    t1 = pa.table({"k": pa.array(keys, pa.int64())})
    h1 = hash_columns(t1, ["k"])
    h2 = hash_columns(t1, ["k"])
    assert (h1 == h2).all()
    # chunk layout must not matter (the exchange hashes per batch)
    mid = len(keys) // 2
    t2 = pa.table(
        {"k": pa.chunked_array([pa.array(keys[:mid], pa.int64()), pa.array(keys[mid:], pa.int64())])}
    )
    assert (hash_columns(t2, ["k"]) == h1).all()
    # distinct keys should essentially never collide at these sizes
    assert len(set(h1.tolist())) == len(keys)


# --- HLL exact bit-length ----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=100))
def test_bit_length_u64_matches_python(ws):
    from relation_extraction_ray.functions.sketch import _bit_length_u64

    w = np.array(ws, dtype=np.uint64)
    got = _bit_length_u64(w)
    assert got.tolist() == [int(x).bit_length() for x in ws]


# --- Bloom positions ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.text(alphabet="abc123", min_size=1, max_size=8), min_size=1, max_size=30))
def test_bloom_positions_range_and_determinism(keys):
    from relation_extraction_ray.functions.sketch import BLOOM_K, BLOOM_M, _bloom_positions

    p1 = _bloom_positions(keys)
    p2 = _bloom_positions(list(keys))
    assert (p1 == p2).all()
    assert p1.shape == (len(keys), BLOOM_K)
    assert p1.min() >= 0 and p1.max() < BLOOM_M


# --- BPE rewrite rule: Arrow replace == Python str.replace -------------------


@settings(max_examples=80, deadline=None)
@given(
    st.lists(TOKENS, min_size=0, max_size=12),
    TOKENS,
    TOKENS,
)
def test_replace_substring_matches_python_semantics(toks, x, y):
    seq = " " + " ".join(toks) + " "
    pat, rep = f" {x} {y} ", f" {x}_{y} "
    got = pc.replace_substring(pa.array([seq]), pattern=pat, replacement=rep)[0].as_py()
    assert got == seq.replace(pat, rep)


# --- PQ codes ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_pq_codes_range_and_determinism(seed):
    from relation_extraction_ray.functions.ann import _pq_codes

    rng = np.random.default_rng(seed)
    m = rng.standard_normal((12, 8))
    books = np.stack(
        [
            m[rng.integers(0, 12, 4), :4] / np.maximum(1e-9, 1),
            m[rng.integers(0, 12, 4), 4:],
        ]
    )
    c1 = _pq_codes(m, books)
    c2 = _pq_codes(m.copy(), books.copy())
    assert (c1 == c2).all()
    assert c1.shape == (12, 2) and c1.min() >= 0 and c1.max() < 4


# --- NTILE sizing rule -------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.integers(1, 12))
def test_ntile_sizing_rule(n, k):
    # the vectorized bucket formula used by segment_balance_deciles:
    # first n%k tiles get ceil(n/k) rows, the rest floor(n/k)
    idx = np.arange(n, dtype=np.int64)
    big, rem = n // k, n % k
    cut = rem * (big + 1)
    tile = np.where(
        idx < cut,
        idx // max(big + 1, 1),
        rem + (np.where(big > 0, (idx - cut) // max(big, 1), 0)),
    ) + 1
    sizes = np.bincount(tile)[1:]
    assert sizes.sum() == n
    assert len(sizes) == min(k, n)
    if big > 0:
        assert set(sizes.tolist()) <= {big, big + 1}
        assert (sizes == big + 1).sum() == rem
    # tiles are contiguous and non-decreasing over the sorted order
    assert (np.diff(tile) >= 0).all()


# --- round-5 kernels ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(TOKENS, min_size=0, max_size=10), min_size=1, max_size=8))
def test_simhash_batch_matches_scalar(docs):
    """Vectorized per-batch SimHash ≡ the scalar reference on arbitrary
    token soups (incl. empty docs and repeated tokens)."""
    from relation_extraction_ray.functions.dedup import _simhash_batch, simhash64

    texts = [" ".join(toks) for toks in docs]
    got = list(_simhash_batch(pa.array(texts, pa.string())))
    assert got == [simhash64(t) for t in texts]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(TOKENS, min_size=0, max_size=10), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
)
def test_shingle_flat_matches_shingle_set(docs, n):
    """Flat vectorized shingling covers exactly shingle_set per doc
    (multiset ⊇ set; set equality after dedup)."""
    from relation_extraction_ray.functions.dedup import _shingle_flat, shingle_set

    texts = [" ".join(toks) for toks in docs]
    sh, di, nd = _shingle_flat(pa.array(texts, pa.string()), n)
    assert nd == len(texts)
    per_doc: dict = {}
    for s, d in zip(sh.to_pylist(), di):
        per_doc.setdefault(int(d), set()).add(s)
    for i, t in enumerate(texts):
        assert per_doc.get(i, set()) == shingle_set(t, n), (i, t)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abc xyz", max_size=12), min_size=1, max_size=8))
def test_char_entropy_kernel_matches_python(texts):
    """char_entropy's packed-key fold ≡ a plain per-doc python replay."""
    import math

    from relation_extraction_ray.functions import text as T

    class FakeDS:
        def __init__(self, t):
            self.t = t

        def map_batches(self, fn, batch_format=None):
            self.out = fn(self.t)
            return self

    tab = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    ds = FakeDS(tab)
    T.char_entropy(ds)
    got = {
        r["doc_id"]: (r["n_chars"], r["n_distinct"], r["entropy_nano"])
        for r in ds.out.to_pylist()
    }
    L = lambda x: int(math.floor(math.log(float(x)) * 1e9 + 0.5))
    for i, t in enumerate(texts):
        n = len(t)
        counts: dict = {}
        for ch in t:
            counts[ch] = counts.get(ch, 0) + 1
        if n:
            num = sum(c * (L(n) - L(c)) for c in counts.values())
            ent = (2 * num + n) // (2 * n)
        else:
            ent = 0
        assert got[i] == (n, len(counts), ent), (i, t)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_asof_kernel_matches_bruteforce(data):
    """_asof_kernel's rank-composite searchsorted ≡ a brute-force scan
    over random (user, bucket, ts) layouts with ties."""
    import numpy as np

    from relation_extraction_ray.functions.relational import _asof_kernel

    n = data.draw(st.integers(min_value=1, max_value=40))
    user = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), np.int64)
    bucket = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), np.int64)
    ts = np.array(data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), np.int64)
    eid = np.arange(n, dtype=np.int64)
    side = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    is_left, is_right = side, ~side
    m_user, m_eid, m_prior, um_user, um_bucket, um_eid, c_user, c_bucket, c_eid = _asof_kernel(
        user, bucket, ts, eid, is_left, is_right
    )
    got = dict(zip(m_eid.tolist(), m_prior.tolist()))
    got_um = set(um_eid.tolist())
    for i in range(n):
        if not is_left[i]:
            continue
        # brute force: latest same-(user,bucket) right with ts<=, max eid on tie
        best = None
        for j in range(n):
            if not is_right[j] or user[j] != user[i] or bucket[j] != bucket[i]:
                continue
            if ts[j] > ts[i]:
                continue
            if best is None or (ts[j], eid[j]) > (ts[best], eid[best]):
                best = j
        if best is None:
            assert int(eid[i]) in got_um
        else:
            assert got.get(int(eid[i])) == int(eid[best]), (i, best)
    # carry rows: per (user,bucket) the max-(ts,eid) right
    want_c = {}
    for j in range(n):
        if not is_right[j]:
            continue
        k = (int(user[j]), int(bucket[j]))
        if k not in want_c or (ts[j], eid[j]) > want_c[k][0]:
            want_c[k] = ((int(ts[j]), int(eid[j])), int(eid[j]))
    got_c = {
        (int(u), int(b)): int(e) for u, b, e in zip(c_user, c_bucket, c_eid)
    }
    assert got_c == {k: v[1] for k, v in want_c.items()}


# --- flat-offsets padding vs the per-row loop --------------------------------

RAGGED_IDS = st.lists(st.lists(st.integers(0, 2**31 - 1), max_size=9), max_size=12)


def _pad_loop(word_ids, dep_ids, pos_ids):
    """The per-row padding loop ``pad_paths`` ran before ``pad_flat``."""
    b = len(word_ids)
    lengths = np.array([len(p) for p in word_ids], dtype=np.int32)
    t = max(1, int(lengths.max()) if b else 1)
    w, d, p = (np.zeros((b, t), dtype=np.int32) for _ in range(3))
    for i in range(b):
        n = lengths[i]
        w[i, :n] = word_ids[i]
        d[i, :n] = dep_ids[i]
        p[i, :n] = pos_ids[i]
    return w, d, p, lengths


def _assert_same_pads(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


@settings(max_examples=80, deadline=None)
@given(RAGGED_IDS, st.data())
def test_pad_flat_matches_loop(rows, data):
    from relation_extraction_ray.state.scorer import pad_flat, pad_paths

    deps = [[v % 97 for v in r] for r in rows]
    poss = [[v % 13 for v in r] for r in rows]
    want = _pad_loop(rows, deps, poss)
    _assert_same_pads(pad_paths(rows, deps, poss), want)
    # a sliced ListArray: non-zero first offset, values past the slice
    k = data.draw(st.integers(0, len(rows)))
    n = data.draw(st.integers(0, len(rows) - k))
    sliced = pa.array(rows, pa.list_(pa.int32())).slice(k, n)
    got, lengths = pad_flat(sliced.values.to_numpy(), sliced.offsets.to_numpy())
    w, _, _, want_lengths = _pad_loop(rows[k : k + n], deps[k : k + n], poss[k : k + n])
    _assert_same_pads([got, lengths], [w, want_lengths])


# --- ParseStage's flat tokens column vs one dict per token --------------------

WORDS = st.sampled_from(
    ["The", "cat", "sat", "on", "a", "mat", "Paris", "is", "in", "France", "42", "of", ".", ",", "!", "?", "--"]
)
SPAN = st.one_of(
    st.builds(
        lambda words, sep: {"kind": "text", "text": sep.join(words), "media_ref": "", "offset": 0},
        st.lists(WORDS, max_size=14),
        st.sampled_from([" ", "  "]),
    ),
    st.builds(
        lambda ref: {"kind": "image", "text": "", "media_ref": ref, "offset": 0},
        st.text(alphabet="abc", max_size=4),
    ),
)


def _parse_reference(batch: pa.Table) -> pa.Table:
    """The per-token-dict ``tokens`` build ``ParseStage`` used before it
    went columnar."""
    from relation_extraction_ray import schemas
    from relation_extraction_ray.nlp.parser import parse_sentence, split_sentences
    from relation_extraction_ray.sources.synth import span_sequence_hash

    out = {k: [] for k in ("doc_id", "span_idx", "sent_id", "text", "tokens", "span_hash")}
    for doc_id, spans in zip(batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()):
        spans = spans or []
        shash = span_sequence_hash(
            [s["kind"] for s in spans], [s["text"] for s in spans], [s["media_ref"] for s in spans]
        )
        sent_id = 0
        for span_idx, span in enumerate(spans):
            if span["kind"] != "text":
                continue
            for text in split_sentences(span["text"]):
                s = parse_sentence(text)
                out["doc_id"].append(doc_id)
                out["span_idx"].append(span_idx)
                out["sent_id"].append(sent_id)
                out["text"].append(text)
                out["tokens"].append(
                    [
                        {
                            "text": s.tokens[i], "idx": s.idx[i], "pos": s.pos[i], "dep": s.dep[i],
                            "head": s.head[i], "is_punct": s.is_punct[i], "like_num": s.like_num[i],
                        }
                        for i in range(len(s))
                    ]
                )
                out["span_hash"].append(shash)
                sent_id += 1
    return pa.Table.from_pydict(out, schema=schemas.SENTENCES)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.lists(SPAN, max_size=4)), max_size=6))
def test_parse_stage_flat_tokens_match_dict_build(docs):
    from relation_extraction_ray import schemas
    from relation_extraction_ray.pipelines.kg import ParseStage

    batch = pa.Table.from_pydict(
        {"doc_id": [f"d{i}" for i in range(len(docs))], "spans": docs}, schema=schemas.DOCUMENTS
    )
    got = ParseStage()(batch)
    want = _parse_reference(batch)
    assert got.schema == want.schema == schemas.SENTENCES
    assert got.equals(want)
