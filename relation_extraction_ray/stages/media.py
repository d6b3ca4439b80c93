"""Multimodal span processing: decode / feature-extract / resize /
frame-sample as task ``map_batches`` stages, each stage instance cached
per worker process (:func:`..taskexec.cached_stage_fn`).

The interleaved-documents table carries media spans (``kind`` in
image/audio/video, ``media_ref`` a URI) alongside text spans; the KG text
stages pass them through untouched (span-sequence invariant).  This module
is the media side: the Ray plumbing — schemas, cached task stages, batch sizing,
deterministic outputs — is real and tested; the *codec* itself is stubbed
(no image/audio libraries in this sandbox): each stage tries the real
library import and otherwise uses a clearly-marked deterministic fake
derived from the payload bytes, recording which backend produced the row.

Payload bytes are synthesized deterministically from the media_ref (the
stand-in for an object-store fetch); batch sizes stay small because rows
carry binary payloads (memory-aware batching)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..taskexec import cached_stage_fn

MEDIA_SPANS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("kind", pa.string()),
        ("media_ref", pa.string()),
    ]
)

PAYLOADS = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("kind", pa.string()),
        ("media_ref", pa.string()),
        ("payload", pa.binary()),
    ]
)

FEATURES = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("kind", pa.string()),
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),  # 0 for still media
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("feature", pa.list_(pa.float32())),
        ("backend", pa.string()),  # 'pil' | 'fake' | ...
    ]
)

FEATURE_DIM = 16

#: Driver-checkable projection of FEATURES: the float vector replaced by a
#: scalar md5 digest (cross-engine-hashable).
FEATURES_DIGEST = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("kind", pa.string()),
        ("media_ref", pa.string()),
        ("frame_idx", pa.int32()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("backend", pa.string()),
        ("feat_fp", pa.string()),
    ]
)


def media_spans(documents: ray.data.Dataset) -> ray.data.Dataset:
    """Explode the interleaved docs into one row per media span (text spans
    are handled by the NLP pipeline)."""

    def explode(batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {k: [] for k in ("doc_id", "span_idx", "kind", "media_ref")}
        for doc_id, spans in zip(batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()):
            for i, s in enumerate(spans or []):
                if s["kind"] != "text":
                    out["doc_id"].append(doc_id)
                    out["span_idx"].append(i)
                    out["kind"].append(s["kind"])
                    out["media_ref"].append(s["media_ref"])
        return pa.Table.from_pydict(out, schema=MEDIA_SPANS)

    return documents.map_batches(explode, batch_format="pyarrow")


def _synth_payload(media_ref: str, n_bytes: int = 4096) -> bytes:
    """Deterministic pseudo-content for a media_ref (object-store fetch
    stand-in): blake2b keyed stream."""
    out = bytearray()
    counter = 0
    while len(out) < n_bytes:
        out += hashlib.blake2b(f"{media_ref}:{counter}".encode(), digest_size=64).digest()
        counter += 1
    return bytes(out[:n_bytes])


class FetchStage:
    """Payload fetch (deterministic synthesis here; an s3/Lance blob read
    in production — connection pools live in ``__init__``, built once per
    worker by the stage cache)."""

    def __init__(self, n_bytes: int = 4096) -> None:
        self.n_bytes = n_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = [_synth_payload(r, self.n_bytes) for r in batch.column("media_ref").to_pylist()]
        return pa.Table.from_pydict(
            {
                "doc_id": batch.column("doc_id"),
                "span_idx": batch.column("span_idx"),
                "kind": batch.column("kind"),
                "media_ref": batch.column("media_ref"),
                "payload": pa.array(payloads, pa.binary()),
            },
            schema=PAYLOADS,
        )


def _fake_decode(payload: bytes, width: int, height: int, frame_idx: int = 0) -> np.ndarray:
    """Deterministic FAKE decode+feature (clearly marked: no codec in this
    sandbox).  Pure function of (payload, w, h, frame) so outputs are
    identical at any parallelism level."""
    h = hashlib.blake2b(payload, digest_size=8, salt=f"{width}x{height}f{frame_idx}".encode()[:16]).digest()
    rng = np.random.default_rng(int.from_bytes(h, "big"))
    return rng.standard_normal(FEATURE_DIM).astype(np.float32)


class DecodeStage:
    """Decode + feature extraction.

    Real path: PIL (images) when importable — model/codec handles built
    once per worker in ``__init__``.  Sandbox path: ``_fake_decode``.
    Videos emit ``frames_per_video`` rows (frame sampling); image/audio one.
    """

    def __init__(self, width: int = 64, height: int = 64, frames_per_video: int = 3) -> None:
        self.width = width
        self.height = height
        self.frames = frames_per_video
        try:
            from PIL import Image

            self._pil_image = Image
        except ImportError:
            self._pil_image = None

    def _decode(self, payload: bytes, kind: str, frame_idx: int) -> tuple[np.ndarray, str]:
        """Decode one payload → (feature vector, backend used).

        PIL path (images, when Pillow is importable): open → grayscale →
        resize → FEATURE_DIM mean-pooled row blocks.  Any decode failure —
        Pillow missing, non-image kind, corrupt/synthetic payload — falls
        through to the deterministic fake, recorded per row as
        ``backend='fake'`` (never an exception: a 100-TB run must not die
        on one bad blob)."""
        if self._pil_image is not None and kind == "image":
            try:
                import io

                img = self._pil_image.open(io.BytesIO(payload)).convert("L")
                img = img.resize((self.width, self.height))
                px = np.asarray(img, dtype=np.float32) / 255.0
                # FEATURE_DIM mean-pooled horizontal bands — cheap, deterministic
                bands = np.array_split(px, FEATURE_DIM, axis=0)
                feat = np.array([b.mean() for b in bands], dtype=np.float32)
                return feat, "pil"
            except Exception:
                pass  # not a decodable image — fake fallback below
        return _fake_decode(payload, self.width, self.height, frame_idx), "fake"

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {k: [] for k in (
            "doc_id", "span_idx", "kind", "media_ref", "frame_idx", "width", "height", "feature", "backend"
        )}
        for doc_id, span_idx, kind, ref, payload in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("span_idx").to_pylist(),
            batch.column("kind").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            n_frames = self.frames if kind == "video" else 1
            for f in range(n_frames):
                feat, backend = self._decode(payload, kind, f)
                out["doc_id"].append(doc_id)
                out["span_idx"].append(span_idx)
                out["kind"].append(kind)
                out["media_ref"].append(ref)
                out["frame_idx"].append(f)
                out["width"].append(self.width)
                out["height"].append(self.height)
                out["feature"].append(feat.tolist())
                out["backend"].append(backend)
        return pa.Table.from_pydict(out, schema=FEATURES)


def feature_fp(feature: list[float]) -> str:
    """Scalar digest of a feature vector (md5 of the float32 bytes) — used
    by the driver-checkable media query so the oracle comparison hashes a
    string column instead of a list<float> (cross-engine-stable)."""
    return hashlib.md5(np.asarray(feature, dtype=np.float32).tobytes()).hexdigest()


def media_features(
    documents: ray.data.Dataset,
    width: int = 64,
    height: int = 64,
    frames_per_video: int = 3,
    payload_bytes: int = 4096,
    batch_size: int = 64,  # binary payloads: keep batches small (memory)
) -> ray.data.Dataset:
    """documents → per-media-span (or per-sampled-frame) feature rows.
    Fetch and decode run as task stages with a per-worker stage cache
    (:func:`..taskexec.cached_stage_fn`), which hold no CPU between
    batches."""
    decode = {"width": width, "height": height, "frames_per_video": frames_per_video}
    return _fetched(documents, payload_bytes, batch_size).map_batches(
        cached_stage_fn(DecodeStage, tuple(decode.values()), decode),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def _fetched(documents: ray.data.Dataset, payload_bytes: int, batch_size: int) -> ray.data.Dataset:
    """The media spans of ``documents`` with their payloads, fetched by a
    cached :class:`FetchStage` task stage."""
    return media_spans(documents).map_batches(
        cached_stage_fn(FetchStage, payload_bytes, {"n_bytes": payload_bytes}),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
# Perceptual-hash image near-dup (round-5 multimodal family)
# ---------------------------------------------------------------------------

#: dHash grid: 8 rows × 9 cols → 64 adjacent-column comparisons;
#: aHash uses the left 8×8 of the same grid.
PHASH_H, PHASH_W = 8, 9

PHASH_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("span_idx", pa.int32()),
        ("uid", pa.int64()),  # doc_index·64 + span_idx — the int id the
        # components/keep-one machinery needs
        ("kind", pa.string()),
        ("media_ref", pa.string()),
        ("dhash", pa.uint64()),
        ("ahash", pa.uint64()),
        ("backend", pa.string()),
    ]
)

#: span_idx < 64 always for synth docs (≤ ~10 spans; the generator is
#: bounded by 2·n_sent+1 ≤ 9) — uid packing headroom, checked per row.
_UID_SPANS = 64


def _span_uid(doc_id: str | None, span_idx: int | None) -> tuple[int | None, str | None]:
    """``(doc_index·64 + span_idx, None)`` for a ``doc%09d`` id (at most
    16 digits, so the uid fits int64) and ``0 ≤ span_idx < 64``; else
    ``(None, reason)``.  The round trip through ``%09d`` rejects any
    other spelling of the same index, so two rows never share a uid."""
    digits = doc_id[3:] if isinstance(doc_id, str) and doc_id.startswith("doc") else ""
    if not (digits.isascii() and digits.isdigit() and len(digits) <= 16):
        return None, f"doc_id {doc_id!r} is not doc%09d"
    if f"doc{int(digits):09d}" != doc_id:
        return None, f"doc_id {doc_id!r} is not doc%09d"
    if span_idx is None or not 0 <= span_idx < _UID_SPANS:
        return None, f"span_idx {span_idx!r} outside [0, {_UID_SPANS})"
    return int(digits) * _UID_SPANS + span_idx, None


#: Docs per near-dup locality window: the synthetic family key is
#: (doc_index // _LOCALITY_DOCS, payload[0]), so a family holds only the
#: spans of ONE 4096-doc window sharing a payload byte (~15 spans) —
#: cluster sizes stay BOUNDED while the family count grows with the
#: corpus, i.e. near-dup pairs are O(n), the realistic crawl shape.  (A
#: fixed 256-family design measured 12.8M pairs at just 90k spans —
#: O(n²/256) — before this window existed; below 4096 docs the window is
#: 0 and behavior is bit-identical to the pre-window generator, which
#: keeps every committed oracle value.)
_LOCALITY_DOCS = 4096


def _fake_pixels(
    payload: bytes, height: int = PHASH_H, width: int = PHASH_W, locality: int = 0
) -> np.ndarray:
    """Deterministic FAKE pixel decode (clearly marked: no codec in this
    sandbox).  Family-structured so near-duplicate media EXIST in the
    synthetic corpus: the base grid depends only on
    ``(locality, payload[0])`` (callers derive ``locality`` as
    ``doc_index // _LOCALITY_DOCS`` — see the constant above for the
    scale shape), then two payload-seeded pixel perturbations are
    applied — each perturbed pixel moves ≤ 2 dHash bits, so same-family
    images sit within a small Hamming ball and cross-family images are
    ~32 bits apart (the structure a perceptual-hash dedup is built to
    find).  Pure function of (payload, h, w, locality): identical at any
    parallelism level, replayed row-for-row by the python oracle."""
    fam = payload[0] if locality == 0 else f"{locality}:{payload[0]}"
    base_seed = int.from_bytes(
        hashlib.blake2b(f"pxfam:{fam}:{width}x{height}".encode(), digest_size=8).digest(),
        "big",
    )
    px = (
        np.random.default_rng(base_seed)
        .integers(0, 256, size=(height, width))
        .astype(np.int16)
    )
    noise_seed = int.from_bytes(
        hashlib.blake2b(payload, digest_size=8, salt=b"pxnoise").digest(), "big"
    )
    nrng = np.random.default_rng(noise_seed)
    for _ in range(2):
        r = int(nrng.integers(0, height))
        c = int(nrng.integers(0, width))
        px[r, c] = int(nrng.integers(0, 256))
    return px


def dhash64(px: np.ndarray) -> int:
    """Difference hash: bit r·8+c set iff px[r, c] < px[r, c+1] (the
    standard left<right gradient convention) over the 8×9 grid."""
    bits = (px[:, :-1] < px[:, 1:]).astype(np.uint64).reshape(-1)
    return int((bits << np.arange(64, dtype=np.uint64)).sum())


def ahash64(px: np.ndarray) -> int:
    """Average hash over the left 8×8: bit r·8+c set iff 64·px[r,c] >
    sum(px) — the strict integer-exact mean threshold (no float mean, so
    the SQL/python replay can never drift on rounding)."""
    a = px[:, :8].astype(np.int64)
    total = int(a.sum())
    bits = ((a * 64) > total).astype(np.uint64).reshape(-1)
    return int((bits << np.arange(64, dtype=np.uint64)).sum())


class PhashStage:
    """Perceptual hash: payload → pixel grid → dHash64 +
    aHash64.  Real path: PIL grayscale-resize to 8×9 when importable and
    the payload decodes; sandbox path: :func:`_fake_pixels` (backend
    recorded per row, never an exception — one bad blob must not kill a
    100-TB run).  A row whose (doc_id, span_idx) has no uid
    (:func:`_span_uid`) is recorded, not hashed: null uid and hashes,
    ``backend`` = ``"error: <reason>"``."""

    def __init__(self) -> None:
        try:
            from PIL import Image

            self._pil_image = Image
        except ImportError:
            self._pil_image = None

    def _pixels(self, payload: bytes, kind: str, locality: int = 0) -> tuple[np.ndarray, str]:
        if self._pil_image is not None and kind == "image":
            try:
                import io

                img = self._pil_image.open(io.BytesIO(payload)).convert("L")
                img = img.resize((PHASH_W, PHASH_H))
                return np.asarray(img, dtype=np.int16), "pil"
            except Exception:
                pass
        return _fake_pixels(payload, locality=locality), "fake"

    def __call__(self, batch: pa.Table) -> pa.Table:
        out: dict[str, list] = {k: [] for k in (
            "doc_id", "span_idx", "uid", "kind", "media_ref", "dhash", "ahash", "backend"
        )}
        for doc_id, span_idx, kind, ref, payload in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("span_idx").to_pylist(),
            batch.column("kind").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            uid, err = _span_uid(doc_id, span_idx)
            if err is None:
                locality = uid // _UID_SPANS // _LOCALITY_DOCS
                px, backend = self._pixels(payload, kind, locality)
                dh, ah = dhash64(px), ahash64(px)
            else:
                dh = ah = None
                backend = f"error: {err}"
            out["doc_id"].append(doc_id)
            out["span_idx"].append(span_idx)
            out["uid"].append(uid)
            out["kind"].append(kind)
            out["media_ref"].append(ref)
            out["dhash"].append(dh)
            out["ahash"].append(ah)
            out["backend"].append(backend)
        return pa.Table.from_pydict(out, schema=PHASH_SCHEMA)


def media_phash(
    documents: ray.data.Dataset,
    payload_bytes: int = 4096,
    batch_size: int = 64,
) -> ray.data.Dataset:
    """documents → one perceptual-hash row per media span (all kinds —
    audio/video hash their payload's pseudo-frame grid the same way, the
    production analogue of first-frame / spectrogram hashing).  Fetch and
    hash are cached task stages, as in :func:`media_features`."""
    return _fetched(documents, payload_bytes, batch_size).map_batches(
        cached_stage_fn(PhashStage, (), {}), batch_format="pyarrow", batch_size=batch_size
    )


def media_dup_pairs(
    documents: ray.data.Dataset,
    max_hamming: int = 3,
    max_bucket: int = 1024,
) -> ray.data.Dataset:
    """Near-duplicate MEDIA pairs: Hamming(dhash_a, dhash_b) ≤ k over the
    perceptual hashes, via the SAME pigeonhole (k+1)-block machinery as
    the text simhash family
    (:func:`..functions.dedup.hamming_pairs_from_signatures`) — one
    (block, value) keyed shuffle, exact within the Hamming ball.  Output
    ``(doc_a, doc_b, hamming)`` where the ids are media-span uids."""
    return _dup_pairs_from_phash(media_phash(documents), max_hamming, max_bucket)


def _dup_pairs_from_phash(
    phash: ray.data.Dataset, max_hamming: int, max_bucket: int = 1024
) -> ray.data.Dataset:
    from ..functions.dedup import hamming_pairs_from_signatures

    def hashed(t: pa.Table) -> pa.Table:  # recorded-error rows carry no hash
        return t.select(["uid", "dhash"]).filter(pc.is_valid(t.column("uid")))

    return hamming_pairs_from_signatures(
        phash.map_batches(hashed, batch_format="pyarrow"),
        id_col="uid",
        sig_col="dhash",
        max_hamming=max_hamming,
        max_bucket=max_bucket,
    )


def media_keep_one(
    documents: ray.data.Dataset,
    max_hamming: int = 3,
) -> ray.data.Dataset:
    """Media-aware keep-one dedup: drop every media span except its
    near-dup cluster's canonical (min-uid) member — the composition of
    :func:`media_dup_pairs` with the generic
    :func:`..functions.components.dedup_keep_one` (connected components
    over the pair graph + planner-split anti-join), applied at the
    media-SPAN level so the span-sequence invariant of the text pipeline
    is untouched.  Returns the KEPT phash rows."""
    from ..functions.components import dedup_keep_one

    phash = media_phash(documents).materialize()  # feeds pairs AND the filter
    pairs = _dup_pairs_from_phash(phash, max_hamming)
    return dedup_keep_one(phash, pairs, id_col="uid")
