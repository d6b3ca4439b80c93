"""Numpy GRU relation scorer — the engine's stand-in for the reference's
TF-0.x ``RelEmbed`` model (``relembed.py:45-799``).

The reference pins one in-process TF session holding word/dep/pos embedding
matrices, a GRU cell and a softmax head (``relembed.py:144-170,216-258``),
and classifies padded integer path tensors via ``predict()``
(``relembed.py:726-743``). No TF/torch exists in this sandbox and training
is out of scope (SURVEY.md §3.2), so the engine ships a deterministic
seeded weight fixture (FIXTURES.md F7) and a hand-rolled, fully vectorized
numpy forward pass. Bit-reproducible across runs and parallelism levels:
weights are a pure function of (vocab sizes, seed); masking freezes each
row's hidden state at its true length so padding never changes results.

In the Ray pipeline this runs inside an actor-pool ``map_batches`` stage
with weights built once per actor in ``__init__`` (SURVEY.md T2).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from ..nlp.labeler import LABELS

D_WORD, D_DEP, D_POS, D_HIDDEN = 32, 8, 8, 64
D_TARGET = 32
N_LABELS = len(LABELS)


@dataclass
class ScorerWeights:
    word_emb: np.ndarray  # [Vw, D_WORD]
    dep_emb: np.ndarray   # [Vd, D_DEP]
    pos_emb: np.ndarray   # [Vp, D_POS]
    w_z: np.ndarray
    u_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    u_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    u_h: np.ndarray
    b_h: np.ndarray
    w_out: np.ndarray     # [D_HIDDEN + n_targets*D_TARGET, N_LABELS]
    b_out: np.ndarray
    # Target-entity embedding table (reference: RelEmbed scores phrase
    # embeddings AGAINST left/right target-entity embeddings,
    # ``relembed.py:144-170`` `left_target_embeddings`/`right_...`; the
    # classifier consumes both the path and the nominals).  None → the
    # path-only model (round-1 fixtures, the untrained KG scorer).
    t_emb: np.ndarray | None = None  # [Vw, D_TARGET]

    @property
    def d_hidden(self) -> int:
        return self.u_z.shape[0]

    @property
    def n_targets(self) -> int:
        if self.t_emb is None:
            return 0
        return (self.w_out.shape[0] - self.d_hidden) // self.t_emb.shape[1]


def fields_of(wts: ScorerWeights) -> list[str]:
    """The weight-field names present in this bundle (adds ``t_emb`` for
    target-aware models)."""
    return WEIGHT_FIELDS + (["t_emb"] if wts.t_emb is not None else [])


def weights_fixture(
    vocab_size: int,
    dep_size: int,
    pos_size: int,
    seed: int = 7,
    n_out: int = N_LABELS,
    n_targets: int = 0,
    d_word: int = D_WORD,
    d_hidden: int = D_HIDDEN,
    d_target: int = D_TARGET,
) -> ScorerWeights:
    """Deterministic weight bundle — pure function of shapes + seed.

    ``n_out`` sizes the softmax head: ``N_LABELS`` for the supervised
    classifier, ``num_clusters**2`` for the clustered variant (T4,
    ``relembed_clustered.py:85,257-292`` — full softmax over Brown
    cluster-pair ids in place of the binary NEG objective).

    ``n_targets`` > 0 adds a target-entity embedding table and widens the
    softmax input to ``[h ; t_emb[t_1] ; … ; t_emb[t_n]]`` (2 for the
    unidirectional classifier's (x, y) pair, 1 for the single-mode duals)."""
    # n_out/n_targets/dims enter the seed only when non-default so the
    # untrained KG-scorer fixture stays bit-identical to round-1 artifacts.
    entropy = (
        [seed, vocab_size, dep_size, pos_size]
        + ([n_out] if n_out != N_LABELS else [])
        + ([7919, n_targets] if n_targets else [])
        + (
            [104651, d_word, d_hidden, d_target]
            if (d_word, d_hidden, d_target) != (D_WORD, D_HIDDEN, D_TARGET)
            else []
        )
    )
    rng = np.random.default_rng(np.random.SeedSequence(entropy))

    def mat(*shape):
        return (rng.standard_normal(shape) * 0.1).astype(np.float32)

    d_in = d_word + D_DEP + D_POS
    d_feat = d_hidden + n_targets * d_target
    return ScorerWeights(
        word_emb=mat(vocab_size, d_word),
        dep_emb=mat(dep_size, D_DEP),
        pos_emb=mat(pos_size, D_POS),
        w_z=mat(d_in, d_hidden), u_z=mat(d_hidden, d_hidden), b_z=np.zeros(d_hidden, np.float32),
        w_r=mat(d_in, d_hidden), u_r=mat(d_hidden, d_hidden), b_r=np.zeros(d_hidden, np.float32),
        w_h=mat(d_in, d_hidden), u_h=mat(d_hidden, d_hidden), b_h=np.zeros(d_hidden, np.float32),
        w_out=mat(d_feat, n_out), b_out=np.zeros(n_out, np.float32),
        t_emb=mat(vocab_size, d_target) if n_targets else None,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def pad_flat(values: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One ragged id column in Arrow list layout — flat ``values`` plus
    ``offsets`` [B + 1], where a non-zero ``offsets[0]`` is a sliced list —
    densified to a zero-padded [B, T] int32 matrix + lengths [B] int32
    (reference batch layout: ``data_handler.py:106-124``).  One
    fancy-index scatter, no per-row Python."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lengths = np.diff(offsets).astype(np.int32)
    b = len(lengths)
    t = max(1, int(lengths.max()) if b else 1)
    out = np.zeros((b, t), dtype=np.int32)
    rows = np.repeat(np.arange(b), lengths)
    cols = np.arange(len(rows)) - np.repeat(offsets[:-1] - offsets[0], lengths)
    out[rows, cols] = np.asarray(values)[offsets[0] : offsets[-1]]
    return out, lengths


def pad_paths(
    word_ids: list[list[int]], dep_ids: list[list[int]], pos_ids: list[list[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Densify ragged id lists to zero-padded [B, T] int32 + lengths [B]:
    the lists are concatenated and padded by :func:`pad_flat`."""
    offsets = np.zeros(len(word_ids) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in word_ids], out=offsets[1:])

    def flat(rows: list[list[int]]) -> np.ndarray:
        return np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int32, count=int(offsets[-1]))

    w, lengths = pad_flat(flat(word_ids), offsets)
    d, _ = pad_flat(flat(dep_ids), offsets)
    p, _ = pad_flat(flat(pos_ids), offsets)
    return w, d, p, lengths


FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    """Path of a committed trained-weights fixture (``fixtures/<name>.npz``,
    produced by ``tools/train_fixture.py`` — the engine's analogue of the
    reference's model checkpoint files, ``relembed.py:745-753``)."""
    return os.path.join(FIXTURE_DIR, f"{name}.npz")


WEIGHT_FIELDS = [
    "word_emb", "dep_emb", "pos_emb",
    "w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h",
    "w_out", "b_out",
]


def save_weights(wts: ScorerWeights, path: str, vocabs: tuple[list, list, list]) -> None:
    """Persist trained weights + the vocabularies they are indexed by (a
    weight matrix without its vocab id order is meaningless)."""
    word_v, dep_v, pos_v = vocabs
    np.savez_compressed(
        path,
        **{f: getattr(wts, f) for f in fields_of(wts)},
        word_vocab=np.array(word_v, dtype=object),
        dep_vocab=np.array(dep_v, dtype=object),
        pos_vocab=np.array(pos_v, dtype=object),
    )


def load_weights(path: str) -> tuple[ScorerWeights, tuple[list, list, list]]:
    z = np.load(path, allow_pickle=True)
    wts = ScorerWeights(
        **{f: z[f] for f in WEIGHT_FIELDS},
        t_emb=z["t_emb"] if "t_emb" in z.files else None,
    )
    return wts, (
        [str(t) for t in z["word_vocab"]],
        [str(t) for t in z["dep_vocab"]],
        [str(t) for t in z["pos_vocab"]],
    )


def grad_batch(
    wts: ScorerWeights,
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    labels: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + FULL backward pass (softmax xent → GRU-through-time →
    embedding scatter): mean loss over the batch and the gradient for every
    weight, in float64.  The hand-rolled analogue of the reference's
    ``partial_class_fit`` graph (``relembed.py:627-648``); verified against
    numerical differentiation in ``tests/test_fit.py``.

    ``targets`` ([B, n_targets] int32 word-vocab ids of the entity
    nominals) is required iff ``wts.t_emb`` is present: the softmax then
    reads ``[h ; t_emb[targets[:,0]] ; …]`` (reference left/right target
    embeddings feeding the scorer, ``relembed.py:144-170``)."""
    b, t = word_ids.shape
    fields = fields_of(wts)
    W = {f: getattr(wts, f).astype(np.float64) for f in fields}
    x, h, cache = _gru_forward_f64(W, word_ids, dep_ids, pos_ids, lengths)

    if wts.t_emb is not None:
        if targets is None:
            raise ValueError("target-aware weights need a targets array")
        feat = np.concatenate(
            [h] + [W["t_emb"][targets[:, j]] for j in range(targets.shape[1])], axis=1
        )
    else:
        feat = h
    logits = feat @ W["w_out"] + W["b_out"]
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.clip(probs[np.arange(b), labels], 1e-12, None)).mean())

    g = {f: np.zeros_like(W[f]) for f in fields}
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    g["w_out"] = feat.T @ dlogits
    g["b_out"] = dlogits.sum(axis=0)
    dfeat = dlogits @ W["w_out"].T
    d_hidden = wts.d_hidden
    dh = dfeat[:, :d_hidden]
    if wts.t_emb is not None:
        d_target = wts.t_emb.shape[1]
        for j in range(targets.shape[1]):
            lo = d_hidden + j * d_target
            np.add.at(g["t_emb"], targets[:, j], dfeat[:, lo : lo + d_target])
    _gru_backward_f64(W, g, cache, x, dh, word_ids, dep_ids, pos_ids)
    return loss, g


def _gru_forward_f64(W: dict, word_ids, dep_ids, pos_ids, lengths):
    """Shared float64 GRU-through-time forward: returns (x [B,T,Din],
    final h [B,H], per-step cache for BPTT)."""
    b, t = word_ids.shape
    x = np.concatenate(
        [W["word_emb"][word_ids], W["dep_emb"][dep_ids], W["pos_emb"][pos_ids]], axis=-1
    )  # [B, T, Din]
    h = np.zeros((b, W["u_z"].shape[0]))
    cache = []
    for step in range(t):
        xt = x[:, step, :]
        z = 1.0 / (1.0 + np.exp(-(xt @ W["w_z"] + h @ W["u_z"] + W["b_z"])))
        r = 1.0 / (1.0 + np.exp(-(xt @ W["w_r"] + h @ W["u_r"] + W["b_r"])))
        hc = np.tanh(xt @ W["w_h"] + (r * h) @ W["u_h"] + W["b_h"])
        h_new = (1.0 - z) * h + z * hc
        mask = (step < lengths)[:, None]
        cache.append((xt, h, z, r, hc, mask))
        h = np.where(mask, h_new, h)
    return x, h, cache


def _gru_backward_f64(W: dict, g: dict, cache, x, dh, word_ids, dep_ids, pos_ids) -> None:
    """Shared GRU BPTT + embedding scatter: accumulates trunk gradients
    into ``g`` given the gradient w.r.t. the final hidden state."""
    t = x.shape[1]
    dx = np.zeros_like(x)
    for step in range(t - 1, -1, -1):
        xt, h_prev, z, r, hc, mask = cache[step]
        dh_new = dh * mask
        dh_prev = dh * (~mask)
        dz = dh_new * (hc - h_prev)
        dhc = dh_new * z
        dh_prev = dh_prev + dh_new * (1.0 - z)
        da_h = dhc * (1.0 - hc * hc)
        g["w_h"] += xt.T @ da_h
        g["u_h"] += (r * h_prev).T @ da_h
        g["b_h"] += da_h.sum(axis=0)
        dxt = da_h @ W["w_h"].T
        drh = da_h @ W["u_h"].T
        dh_prev = dh_prev + drh * r
        dr = drh * h_prev
        da_r = dr * r * (1.0 - r)
        g["w_r"] += xt.T @ da_r
        g["u_r"] += h_prev.T @ da_r
        g["b_r"] += da_r.sum(axis=0)
        dxt += da_r @ W["w_r"].T
        dh_prev = dh_prev + da_r @ W["u_r"].T
        da_z = dz * z * (1.0 - z)
        g["w_z"] += xt.T @ da_z
        g["u_z"] += h_prev.T @ da_z
        g["b_z"] += da_z.sum(axis=0)
        dxt += da_z @ W["w_z"].T
        dh_prev = dh_prev + da_z @ W["u_z"].T
        dx[:, step, :] = dxt
        dh = dh_prev

    d_word, d_dep = g["word_emb"].shape[1], g["dep_emb"].shape[1]
    d_pos = g["pos_emb"].shape[1]
    dw = dx[:, :, :d_word].reshape(-1, d_word)
    dd = dx[:, :, d_word : d_word + d_dep].reshape(-1, d_dep)
    dp = dx[:, :, d_word + d_dep :].reshape(-1, d_pos)
    np.add.at(g["word_emb"], word_ids.reshape(-1), dw)
    np.add.at(g["dep_emb"], dep_ids.reshape(-1), dd)
    np.add.at(g["pos_emb"], pos_ids.reshape(-1), dp)


# ---------------------------------------------------------------------------
# Unsupervised NEG-sampling objective (reference ``partial_unsup_fit``,
# ``relembed.py:650-671``): the phrase GRU is trained to score TRUE target
# pairs above corrupted ones via the bilinear-diagonal form
# ``logit = Σ_k left_emb[x]_k · h_k · right_emb[y]_k``  (reference "x^T fI y",
# ``relembed.py:272-274``) with sigmoid cross-entropy (``relembed.py:284``).
# left/right target tables are separate [Vw, D_HIDDEN] matrices exactly as
# the reference keeps ``left_target_embeddings``/``right_target_embeddings``
# (``relembed.py:147-160``).
# ---------------------------------------------------------------------------

UNSUP_FIELDS = ["left_emb", "right_emb"]


def unsup_fixture(vocab_size: int, seed: int = 7, d_hidden: int = D_HIDDEN) -> dict[str, np.ndarray]:
    """Deterministic left/right target tables for the NEG objective
    (``d_hidden`` must match the trunk's — the bilinear form contracts
    over the hidden dimension)."""
    entropy = [seed, vocab_size, 104729] + ([d_hidden] if d_hidden != D_HIDDEN else [])
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return {
        f: (rng.standard_normal((vocab_size, d_hidden)) * 0.1).astype(np.float32)
        for f in UNSUP_FIELDS
    }


def unsup_grad_batch(
    wts: ScorerWeights,
    unsup: dict[str, np.ndarray],
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    labels01: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean sigmoid-xent NEG loss + gradients for the GRU trunk
    (word/dep/pos embeddings + gates) AND the left/right target tables.
    ``labels01`` is 1 for true pairs, 0 for corrupted ones."""
    b = len(lengths)
    trunk = [f for f in WEIGHT_FIELDS if f not in ("w_out", "b_out")]
    W = {f: getattr(wts, f).astype(np.float64) for f in trunk}
    U = {f: unsup[f].astype(np.float64) for f in UNSUP_FIELDS}
    x, h, cache = _gru_forward_f64(W, word_ids, dep_ids, pos_ids, lengths)
    L = U["left_emb"][x_ids]    # [B, H]
    R = U["right_emb"][y_ids]   # [B, H]
    logits = np.sum(L * h * R, axis=1)
    p = 1.0 / (1.0 + np.exp(-logits))
    y = labels01.astype(np.float64)
    loss = float(np.mean(-(y * np.log(np.clip(p, 1e-12, None))
                           + (1 - y) * np.log(np.clip(1 - p, 1e-12, None)))))
    dlogit = (p - y) / b  # [B]
    g = {f: np.zeros_like(W[f]) for f in trunk}
    g.update({f: np.zeros_like(U[f]) for f in UNSUP_FIELDS})
    dh = dlogit[:, None] * L * R
    np.add.at(g["left_emb"], x_ids, dlogit[:, None] * h * R)
    np.add.at(g["right_emb"], y_ids, dlogit[:, None] * L * h)
    _gru_backward_f64(W, g, cache, x, dh, word_ids, dep_ids, pos_ids)
    return loss, g


def _final_h_f32(
    wts: ScorerWeights,
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Inference-precision GRU-through-time: final hidden state [B, H]
    (shared by the unidirectional head and each direction of the bi trunk)."""
    b, t = word_ids.shape
    x = np.concatenate(
        [wts.word_emb[word_ids], wts.dep_emb[dep_ids], wts.pos_emb[pos_ids]], axis=-1
    )  # [B, T, d_in]
    h = np.zeros((b, wts.d_hidden), dtype=np.float32)
    for step in range(t):
        xt = x[:, step, :]
        z = _sigmoid(xt @ wts.w_z + h @ wts.u_z + wts.b_z)
        r = _sigmoid(xt @ wts.w_r + h @ wts.u_r + wts.b_r)
        hc = np.tanh(xt @ wts.w_h + (r * h) @ wts.u_h + wts.b_h)
        h_new = (1.0 - z) * h + z * hc
        mask = (step < lengths)[:, None]
        h = np.where(mask, h_new, h)
    return h


def score_batch(
    wts: ScorerWeights,
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched GRU forward → (pred_label_idx [B] int32, prob [B, N] float32).

    Rows with length 0 get uniform probabilities.  ``targets`` ([B,
    n_targets] word-vocab ids) is required iff the weights carry ``t_emb``.
    """
    h = _final_h_f32(wts, word_ids, dep_ids, pos_ids, lengths)
    if wts.t_emb is not None:
        if targets is None:
            raise ValueError("target-aware weights need a targets array")
        h = np.concatenate(
            [h] + [wts.t_emb[targets[:, j]] for j in range(targets.shape[1])], axis=1
        )
    logits = h @ wts.w_out + wts.b_out
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = (e / e.sum(axis=1, keepdims=True)).astype(np.float32)
    return probs.argmax(axis=1).astype(np.int32), probs


# ---------------------------------------------------------------------------
# T3 — "single" dual-direction model (reference ``relembed_single.py``).
#
# The reference's single model keeps TWO direction GRUs over ONE shared set
# of embedding matrices; a per-row boolean ``predict_x``
# (``relembed_single.py:123``) selects which RNN's hidden state feeds the
# softmax head (``tf.select``, ``relembed_single.py:225``).  The engine
# represents this as a flat param dict: shared ``word_emb``/``dep_emb``/
# ``pos_emb`` plus ``fwd_*`` and ``bwd_*`` copies of every GRU/head field.
# ---------------------------------------------------------------------------

EMB_FIELDS = ["word_emb", "dep_emb", "pos_emb"]
GRU_FIELDS = [f for f in WEIGHT_FIELDS if f not in EMB_FIELDS]
DUAL_FIELDS = EMB_FIELDS + [f"fwd_{f}" for f in GRU_FIELDS] + [f"bwd_{f}" for f in GRU_FIELDS]


def dual_fields_of(params: dict[str, np.ndarray]) -> list[str]:
    """Field names present in a dual-param dict (``t_emb`` — shared across
    directions like the other embedding tables — when target-aware)."""
    return DUAL_FIELDS + (["t_emb"] if "t_emb" in params else [])


def dual_fixture(
    vocab_size: int,
    dep_size: int,
    pos_size: int,
    seed: int = 7,
    n_out: int = N_LABELS,
    n_targets: int = 0,
    **dims,
) -> dict[str, np.ndarray]:
    """Deterministic dual-model params: embeddings from the forward seed,
    direction stacks from seed and seed+1 (distinct inits so the two RNNs
    break symmetry, as the reference's independent variable scopes do).
    ``n_targets`` adds a SHARED target table (single mode carries one
    target — the reduced "other entity" of M15 — so pass 1)."""
    fwd = weights_fixture(
        vocab_size, dep_size, pos_size, seed=seed, n_out=n_out, n_targets=n_targets, **dims
    )
    bwd = weights_fixture(
        vocab_size, dep_size, pos_size, seed=seed + 1, n_out=n_out, n_targets=n_targets, **dims
    )
    params = {f: getattr(fwd, f) for f in EMB_FIELDS}
    params.update({f"fwd_{f}": getattr(fwd, f) for f in GRU_FIELDS})
    params.update({f"bwd_{f}": getattr(bwd, f) for f in GRU_FIELDS})
    if n_targets:
        params["t_emb"] = fwd.t_emb
    return params


def dual_view(params: dict[str, np.ndarray], direction: str) -> ScorerWeights:
    """ScorerWeights view of one direction (embeddings aliased, not copied)."""
    kw = {f: params[f] for f in EMB_FIELDS}
    kw.update({f: params[f"{direction}_{f}"] for f in GRU_FIELDS})
    return ScorerWeights(**kw, t_emb=params.get("t_emb"))


def score_batch_dual(
    params: dict[str, np.ndarray],
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    predict_x: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row direction dispatch (``relembed_single.py:225``): rows with
    ``predict_x`` True run the forward GRU, the rest the backward GRU;
    outputs are reassembled in input row order."""
    b = len(lengths)
    n_out = params["fwd_w_out"].shape[1]
    preds = np.zeros(b, dtype=np.int32)
    probs = np.zeros((b, n_out), dtype=np.float32)
    flags = np.asarray(predict_x, dtype=bool)
    for direction, mask in (("fwd", flags), ("bwd", ~flags)):
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        p_sub, pr_sub = score_batch(
            dual_view(params, direction),
            word_ids[idx], dep_ids[idx], pos_ids[idx], lengths[idx],
            targets=None if targets is None else targets[idx],
        )
        preds[idx] = p_sub
        probs[idx] = pr_sub
    return preds, probs


def grad_batch_dual(
    params: dict[str, np.ndarray],
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    labels: np.ndarray,
    predict_x: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss + gradient over a mixed-direction batch.  Each direction's
    subset gradient is a mean over its rows; rescaling by subset size /
    batch size makes the combination the exact full-batch mean.  Shared
    embedding gradients (incl. ``t_emb``) sum across directions (one
    embedding table feeds both RNNs, ``relembed_single.py:117-150``)."""
    b = len(lengths)
    flags = np.asarray(predict_x, dtype=bool)
    shared = EMB_FIELDS + (["t_emb"] if "t_emb" in params else [])
    grads = {f: np.zeros_like(params[f], dtype=np.float64) for f in dual_fields_of(params)}
    loss_sum = 0.0
    for direction, mask in (("fwd", flags), ("bwd", ~flags)):
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        loss, g = grad_batch(
            dual_view(params, direction),
            word_ids[idx], dep_ids[idx], pos_ids[idx], lengths[idx], labels[idx],
            targets=None if targets is None else targets[idx],
        )
        w = idx.size / b
        loss_sum += loss * idx.size
        for f in shared:
            grads[f] += g[f] * w
        for f in GRU_FIELDS:
            grads[f"{direction}_{f}"] += g[f] * w
    return loss_sum / max(1, b), grads


def save_dual(params: dict[str, np.ndarray], path: str, vocabs: tuple[list, list, list]) -> None:
    word_v, dep_v, pos_v = vocabs
    np.savez_compressed(
        path,
        **params,
        word_vocab=np.array(word_v, dtype=object),
        dep_vocab=np.array(dep_v, dtype=object),
        pos_vocab=np.array(pos_v, dtype=object),
    )


def load_dual(path: str) -> tuple[dict[str, np.ndarray], tuple[list, list, list]]:
    z = np.load(path, allow_pickle=True)
    params = {f: z[f] for f in DUAL_FIELDS + (["t_emb"] if "t_emb" in z.files else [])}
    return params, (
        [str(t) for t in z["word_vocab"]],
        [str(t) for t in z["dep_vocab"]],
        [str(t) for t in z["pos_vocab"]],
    )


# ---------------------------------------------------------------------------
# Bidirectional GRU trunk (reference ``relembed.py:87`` ``self.bidirectional``
# and ``:230-235`` ``tf.nn.bidirectional_rnn`` — the configuration of the
# reference's BEST run, ``RelEmbed_semeval-bi.ipynb`` cell 38, 80.38 test F1).
#
# Two GRU stacks share the word/dep/pos embedding tables: the ``fw`` stack
# reads the path left-to-right, the ``bw`` stack reads the SAME path
# right-to-left (per-row reversal of the first ``length`` steps — padding
# never moves), and their final hidden states CONCATENATE into the softmax
# input ``[h_fw ; h_bw ; t_emb[x] ; t_emb[y]]``.  Unlike the "single" dual
# model (one direction per row, selected by ``predict_x``), BOTH stacks see
# every row and ONE shared head consumes the joint encoding.
# ---------------------------------------------------------------------------

GATE_FIELDS = [f for f in GRU_FIELDS if f not in ("w_out", "b_out")]
BI_FIELDS = (
    EMB_FIELDS
    + [f"fw_{f}" for f in GATE_FIELDS]
    + [f"bw_{f}" for f in GATE_FIELDS]
    + ["w_out", "b_out"]
)


def bi_fields_of(params: dict[str, np.ndarray]) -> list[str]:
    return BI_FIELDS + (["t_emb"] if "t_emb" in params else [])


def bi_fixture(
    vocab_size: int,
    dep_size: int,
    pos_size: int,
    seed: int = 7,
    n_out: int = N_LABELS,
    n_targets: int = 0,
    d_word: int = D_WORD,
    d_hidden: int = D_HIDDEN,
    d_target: int = D_TARGET,
) -> dict[str, np.ndarray]:
    """Deterministic bi-trunk params: embeddings from the forward seed,
    direction stacks from seed / seed+1 (symmetry break, as the reference's
    separate fw/bw variable scopes), plus ONE shared head sized for the
    concatenated state ``[2·d_hidden + n_targets·d_target, n_out]``."""
    fwd = weights_fixture(
        vocab_size, dep_size, pos_size, seed=seed, n_out=n_out, n_targets=n_targets,
        d_word=d_word, d_hidden=d_hidden, d_target=d_target,
    )
    bwd = weights_fixture(
        vocab_size, dep_size, pos_size, seed=seed + 1, n_out=n_out, n_targets=n_targets,
        d_word=d_word, d_hidden=d_hidden, d_target=d_target,
    )
    params = {f: getattr(fwd, f) for f in EMB_FIELDS}
    params.update({f"fw_{f}": getattr(fwd, f) for f in GATE_FIELDS})
    params.update({f"bw_{f}": getattr(bwd, f) for f in GATE_FIELDS})
    rng = np.random.default_rng(
        np.random.SeedSequence(
            [seed, vocab_size, dep_size, pos_size, 1299709, n_out, n_targets,
             d_word, d_hidden, d_target]
        )
    )
    d_feat = 2 * d_hidden + n_targets * d_target
    params["w_out"] = (rng.standard_normal((d_feat, n_out)) * 0.1).astype(np.float32)
    params["b_out"] = np.zeros(n_out, np.float32)
    if n_targets:
        params["t_emb"] = fwd.t_emb
    return params


def bi_view(params: dict[str, np.ndarray], direction: str) -> ScorerWeights:
    """ScorerWeights view of one direction's stack (embeddings aliased; the
    shared head is carried along for shape bookkeeping but the helpers that
    take this view never apply it)."""
    kw = {f: params[f] for f in EMB_FIELDS}
    kw.update({f: params[f"{direction}_{f}"] for f in GATE_FIELDS})
    return ScorerWeights(**kw, w_out=params["w_out"], b_out=params["b_out"],
                         t_emb=params.get("t_emb"))


def reverse_padded(arrays: list[np.ndarray], lengths: np.ndarray) -> list[np.ndarray]:
    """Row-wise reversal of the first ``lengths[i]`` entries of each [B, T]
    array; padding positions are untouched (what feeds the ``bw`` stack —
    the reference reverses the sequence, not the pad, before the second
    RNN)."""
    b, t = arrays[0].shape
    ar = np.arange(t)[None, :]
    valid = ar < lengths[:, None]
    idx = np.where(valid, lengths[:, None] - 1 - ar, ar)
    return [np.take_along_axis(a, idx, axis=1) for a in arrays]


def _bi_feat_f32(params, word_ids, dep_ids, pos_ids, lengths, targets):
    h_fw = _final_h_f32(bi_view(params, "fw"), word_ids, dep_ids, pos_ids, lengths)
    wr, dr, pr = reverse_padded([word_ids, dep_ids, pos_ids], lengths)
    h_bw = _final_h_f32(bi_view(params, "bw"), wr, dr, pr, lengths)
    parts = [h_fw, h_bw]
    if params.get("t_emb") is not None:
        if targets is None:
            raise ValueError("target-aware weights need a targets array")
        parts += [params["t_emb"][targets[:, j]] for j in range(targets.shape[1])]
    return np.concatenate(parts, axis=1)


def score_batch_bi(
    params: dict[str, np.ndarray],
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched bi-GRU forward → (pred_label_idx [B], probs [B, N])."""
    feat = _bi_feat_f32(params, word_ids, dep_ids, pos_ids, lengths, targets)
    logits = feat @ params["w_out"] + params["b_out"]
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = (e / e.sum(axis=1, keepdims=True)).astype(np.float32)
    return probs.argmax(axis=1).astype(np.int32), probs


def _bi_forward_f64(params, word_ids, dep_ids, pos_ids, lengths):
    """Shared float64 bi-trunk forward for the two training objectives:
    returns (h [B, 2H], per-direction caches for BPTT)."""
    emb64 = {f: params[f].astype(np.float64) for f in EMB_FIELDS}
    W_fw = {**emb64, **{f: params[f"fw_{f}"].astype(np.float64) for f in GATE_FIELDS}}
    W_bw = {**emb64, **{f: params[f"bw_{f}"].astype(np.float64) for f in GATE_FIELDS}}
    x_fw, h_fw, cache_fw = _gru_forward_f64(W_fw, word_ids, dep_ids, pos_ids, lengths)
    wr, dr, pr = reverse_padded([word_ids, dep_ids, pos_ids], lengths)
    x_bw, h_bw, cache_bw = _gru_forward_f64(W_bw, wr, dr, pr, lengths)
    h = np.concatenate([h_fw, h_bw], axis=1)
    fw_ctx = (W_fw, cache_fw, x_fw, word_ids, dep_ids, pos_ids)
    bw_ctx = (W_bw, cache_bw, x_bw, wr, dr, pr)
    return h, fw_ctx, bw_ctx


def _bi_backward_f64(g: dict, fw_ctx, bw_ctx, dh: np.ndarray) -> None:
    """BPTT through both stacks given the gradient w.r.t. the concatenated
    hidden state: per-direction trunk grads land in ``g['fw_*']``/``g['bw_*']``,
    shared embedding grads SUM across directions (one table feeds both)."""
    d_hidden = fw_ctx[0]["u_z"].shape[0]
    for prefix, ctx, dh_dir in (("fw", fw_ctx, dh[:, :d_hidden]),
                                ("bw", bw_ctx, dh[:, d_hidden:])):
        W, cache, x, wi, di, pi = ctx
        g_dir = {f: np.zeros_like(W[f]) for f in EMB_FIELDS + GATE_FIELDS}
        _gru_backward_f64(W, g_dir, cache, x, dh_dir, wi, di, pi)
        for f in EMB_FIELDS:
            g[f] += g_dir[f]
        for f in GATE_FIELDS:
            g[f"{prefix}_{f}"] = g_dir[f]


def grad_batch_bi(
    params: dict[str, np.ndarray],
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    labels: np.ndarray,
    targets: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + full backward for the bi trunk (softmax xent → per-direction
    BPTT → shared-embedding scatter): mean loss + gradient for every field.
    Numerically verified against central differences in tests/test_fit.py."""
    b = len(lengths)
    fields = bi_fields_of(params)
    h, fw_ctx, bw_ctx = _bi_forward_f64(params, word_ids, dep_ids, pos_ids, lengths)
    t_emb64 = params["t_emb"].astype(np.float64) if params.get("t_emb") is not None else None
    if t_emb64 is not None:
        if targets is None:
            raise ValueError("target-aware weights need a targets array")
        feat = np.concatenate(
            [h] + [t_emb64[targets[:, j]] for j in range(targets.shape[1])], axis=1
        )
    else:
        feat = h
    w_out = params["w_out"].astype(np.float64)
    logits = feat @ w_out + params["b_out"].astype(np.float64)
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = float(-np.log(np.clip(probs[np.arange(b), labels], 1e-12, None)).mean())

    g = {f: np.zeros(params[f].shape, dtype=np.float64) for f in fields}
    dlogits = probs.copy()
    dlogits[np.arange(b), labels] -= 1.0
    dlogits /= b
    g["w_out"] = feat.T @ dlogits
    g["b_out"] = dlogits.sum(axis=0)
    dfeat = dlogits @ w_out.T
    two_h = h.shape[1]
    if t_emb64 is not None:
        d_target = params["t_emb"].shape[1]
        for j in range(targets.shape[1]):
            lo = two_h + j * d_target
            np.add.at(g["t_emb"], targets[:, j], dfeat[:, lo : lo + d_target])
    _bi_backward_f64(g, fw_ctx, bw_ctx, dfeat[:, :two_h])
    return loss, g


def unsup_grad_batch_bi(
    params: dict[str, np.ndarray],
    unsup: dict[str, np.ndarray],
    word_ids: np.ndarray,
    dep_ids: np.ndarray,
    pos_ids: np.ndarray,
    lengths: np.ndarray,
    x_ids: np.ndarray,
    y_ids: np.ndarray,
    labels01: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """NEG objective over the CONCATENATED bi encoding (the reference's
    ``x^T fI y`` bilinear-diagonal form, relembed.py:272-284, with the
    phrase embedding being the bidirectional state): left/right target
    tables are [Vw, 2H] (``unsup_fixture(d_hidden=2H)``).  Mean sigmoid
    xent + gradients for both stacks, shared embeddings and both tables."""
    b = len(lengths)
    trunk = EMB_FIELDS + [f"fw_{f}" for f in GATE_FIELDS] + [f"bw_{f}" for f in GATE_FIELDS]
    U = {f: unsup[f].astype(np.float64) for f in UNSUP_FIELDS}
    h, fw_ctx, bw_ctx = _bi_forward_f64(params, word_ids, dep_ids, pos_ids, lengths)
    L = U["left_emb"][x_ids]
    R = U["right_emb"][y_ids]
    logits = np.sum(L * h * R, axis=1)
    p = 1.0 / (1.0 + np.exp(-logits))
    y = labels01.astype(np.float64)
    loss = float(np.mean(-(y * np.log(np.clip(p, 1e-12, None))
                           + (1 - y) * np.log(np.clip(1 - p, 1e-12, None)))))
    dlogit = (p - y) / b
    g = {f: np.zeros(params[f].shape, dtype=np.float64) for f in trunk}
    g.update({f: np.zeros_like(U[f]) for f in UNSUP_FIELDS})
    np.add.at(g["left_emb"], x_ids, dlogit[:, None] * h * R)
    np.add.at(g["right_emb"], y_ids, dlogit[:, None] * L * h)
    _bi_backward_f64(g, fw_ctx, bw_ctx, dlogit[:, None] * L * R)
    return loss, g


#: bi params persist exactly like dual params (a flat dict + its vocabs)
save_bi = save_dual


def load_bi(path: str) -> tuple[dict[str, np.ndarray], tuple[list, list, list]]:
    z = np.load(path, allow_pickle=True)
    params = {f: z[f] for f in BI_FIELDS + (["t_emb"] if "t_emb" in z.files else [])}
    return params, (
        [str(t) for t in z["word_vocab"]],
        [str(t) for t in z["dep_vocab"]],
        [str(t) for t in z["pos_vocab"]],
    )


def is_bi_fixture(path: str) -> bool:
    """True when a fixture .npz holds a bi-trunk param dict (fw_/bw_ gate
    stacks) rather than unidirectional ScorerWeights fields."""
    with np.load(path, allow_pickle=True) as z:
        return "fw_w_z" in z.files
