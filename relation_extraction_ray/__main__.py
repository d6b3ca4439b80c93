"""CLI entry points — ``python -m relation_extraction_ray <cmd>``.

The reference exposes its builders as click scripts (``wiki2sdp.py:275-288``,
``semeval2sdp.py:279-289``, ``wiki_and_semeval2sdp.py:319-330``: corpus
size, vocab limits, path-length bounds, ``--include_ends``, ``--sentence``,
``--single``); this is the engine's equivalent surface.  ``--sentence`` and
``--single`` shape supervised classification inputs only (``KGConfig``'s
``sentence_mode``/``single``), so the KG builders do not take them.  The
CLI owns the Ray session (the library never calls ``ray.init`` — driver
contract).

Commands
--------
build-kg          documents parquet → triples/entities/adjacency/vocab parquet;
                  with ``--checkpoint`` the run is resumable (the sharded
                  runner over one shard under OUT/checkpoints): a rerun
                  recomputes only the steps its manifest does not hold
build-kg-sharded  same as ``build-kg --checkpoint`` over ``--shards``
                  doc_id-hash shards; prints the per-step recompute list
semeval-classify  SemEval-format records → predictions parquet
                  (+ official P/R/F1 when a key file is given)
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _init_ray(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        kw = {"include_dashboard": False, "logging_level": "ERROR"}
        if num_cpus:
            kw["num_cpus"] = num_cpus
        ray.init(address="local", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _cfg_from(args: argparse.Namespace):
    from .config import KGConfig

    return KGConfig(
        min_len=args.minlen,
        max_len=args.maxlen,
        include_ends=args.include_ends,
        vocab_limit=args.vocab_limit,
        min_count=args.min_count,
    )


def _runner(args: argparse.Namespace, out_dir: str, n: int):
    """The resumable KG run over ``--input`` split into ``n`` doc_id-hash
    shards."""
    import ray.data as rd

    from .pipelines.sharded import ShardedKGRunner, hash_split

    split, tagged = hash_split(rd.read_parquet(args.input, columns=["doc_id", "spans"]), n)
    return ShardedKGRunner(out_dir, n, split, cfg=_cfg_from(args), tagged_docs=tagged).run()


def cmd_build_kg(args: argparse.Namespace) -> int:
    _init_ray(args.num_cpus)
    import glob
    import shutil

    import pyarrow.parquet as pq
    import ray.data as rd

    from . import schemas
    from .pipelines.kg import KGPipeline, vocab_table

    if args.checkpoint:
        # the runner's shard=0 directories are resume state; the final
        # tables below keep build-kg's flat layout, so they are copied out
        out = _runner(args, os.path.join(args.out, "checkpoints"), 1)
        for name, (vocab, _, dist) in zip(("vocab", "dep_vocab", "pos_vocab"), out["vocabs"]):
            out[name] = vocab_table(vocab, dist)
    else:
        docs = rd.read_parquet(args.input, columns=["doc_id", "spans"])
        out = KGPipeline(_cfg_from(args)).run(docs)
    counts = {}
    for name in ("triples", "entities", "adjacency", "vocab", "dep_vocab", "pos_vocab"):
        ds = out[name]
        target = os.path.join(args.out, name)
        shutil.rmtree(target, ignore_errors=True)  # write_parquet appends
        if hasattr(ds, "write_parquet"):
            ds.write_parquet(target)
            counts[name] = ds.count()
            if not glob.glob(os.path.join(target, "*.parquet")):
                # an empty dataset writes no fragment: leave a zero-row
                # file so readers still find the table and its schema
                os.makedirs(target, exist_ok=True)
                pq.write_table(
                    getattr(schemas, name.upper()).empty_table(),
                    os.path.join(target, "part-0.parquet"),
                )
        else:  # in-memory vocab tables (pyarrow)
            os.makedirs(target, exist_ok=True)
            pq.write_table(ds, os.path.join(target, "part-0.parquet"))
            counts[name] = ds.num_rows
    summary = {"out": args.out, "rows": counts}
    if args.checkpoint:
        summary["recomputed"] = out["recomputed"]
    print(json.dumps(summary))
    return 0


def cmd_build_kg_sharded(args: argparse.Namespace) -> int:
    _init_ray(args.num_cpus)
    result = _runner(args, args.out, args.shards)
    summary = {name: result[name].count() for name in ("triples", "entities", "adjacency")}
    print(json.dumps({"out": args.out, **summary, "recomputed": result["recomputed"]}))
    return 0


def cmd_semeval_train(args: argparse.Namespace) -> int:
    _init_ray(args.num_cpus)
    from .config import KGConfig
    from .pipelines.fit import (
        build_record_vocabs,
        encode_examples,
        fit_alternating,
        fit_alternating_distributed,
        fit_classifier,
        fit_classifier_distributed,
    )
    from .sources.semeval import parsed_records, read_semeval_records
    from .state.scorer import save_weights

    cfg = KGConfig(min_count=2)
    parsed = parsed_records(read_semeval_records(args.input)).materialize()
    vocabs = build_record_vocabs(parsed, cfg)
    (wv, w2i, _), (dv, _, _), (pv, _, _) = vocabs
    sizes = (len(wv), len(dv), len(pv))
    examples = encode_examples(parsed, vocabs, cfg).materialize()
    init_w = None
    if getattr(args, "pretrain_init", False):
        from .functions.training import pretrain_word_vectors
        from .state.scorer import D_WORD

        init_w = pretrain_word_vectors(parsed, w2i, dim=D_WORD, window=4, epochs=10, lr=0.05)
    ck = getattr(args, "checkpoint", None)
    if ck and args.mode not in ("distributed", "alternating-distributed"):
        raise SystemExit(
            "--checkpoint is only supported by the distributed modes "
            "(--mode distributed / alternating-distributed); the local fits "
            "run in seconds and keep no optimizer snapshot"
        )
    if args.mode == "alternating":
        wts, losses_d = fit_alternating(
            examples, sizes, cycles=3, unsup_epochs=1,
            sup_epochs=max(1, args.epochs // 3), lr=args.lr, init_word_emb=init_w,
        )
        losses = losses_d["sup"]
    elif args.mode == "alternating-distributed":
        wts, losses_d = fit_alternating_distributed(
            examples, sizes, cycles=3, unsup_epochs=1,
            sup_epochs=max(1, args.epochs // 3), steps_per_epoch=8, lr=args.lr,
            init_word_emb=init_w, checkpoint_path=ck,
        )
        losses = losses_d["sup"]
    elif args.mode == "distributed":
        wts, losses = fit_classifier_distributed(
            examples, sizes, epochs=args.epochs, lr=args.lr,
            init_word_emb=init_w, checkpoint_path=ck,
        )
    else:
        wts, losses = fit_classifier(
            examples, sizes, epochs=args.epochs, lr=args.lr, init_word_emb=init_w
        )
    save_weights(wts, args.out, (wv, dv, pv))
    print(
        json.dumps(
            {
                "out": args.out,
                "examples": examples.count(),
                "vocab": len(wv),
                "loss_first": round(losses[0], 4),
                "loss_last": round(losses[-1], 4),
            }
        )
    )
    return 0


def cmd_semeval_classify(args: argparse.Namespace) -> int:
    _init_ray(args.num_cpus)
    from .config import KGConfig
    from .pipelines.fit import model_classify_any
    from .sources.semeval import parsed_records, read_semeval_records

    fixture = args.fixture
    if not os.path.exists(fixture):
        fixture = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "state", "fixtures", f"{args.fixture}.npz"
        )
    cfg = KGConfig(min_count=2)
    parsed = parsed_records(read_semeval_records(args.input))
    preds = model_classify_any(parsed, fixture, cfg)
    preds.write_parquet(args.out)
    n = preds.count()
    summary = {"out": args.out, "rows": n}
    if args.keys:
        from .eval_semeval import official_scores_from_pairs, read_key_file

        key = read_key_file(args.keys, allow_nodir=True)
        pairs: dict[tuple[str, str], int] = {}
        skipped = 0
        for r in preds.take_all():
            gold = key.get(r["sent_id"])
            if gold is None:  # id not in the key file — score the intersection
                skipped += 1
                continue
            k = (r["pred"], gold)
            pairs[k] = pairs.get(k, 0) + 1
        scores = official_scores_from_pairs([(p, a, c) for (p, a), c in pairs.items()])
        if skipped:
            summary["skipped_no_key"] = skipped
        summary["official_f1"] = round(scores["official_f1"], 2)
        summary["macro_p"] = round(scores["macro_p"], 2)
        summary["macro_r"] = round(scores["macro_r"], 2)
    print(json.dumps(summary))
    return 0


def _add_kg_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="documents parquet file or directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--minlen", type=int, default=1)
    p.add_argument("--maxlen", type=int, default=10)
    p.add_argument("--include-ends", dest="include_ends", action="store_true")
    p.add_argument("--vocab-limit", dest="vocab_limit", type=int, default=None)
    p.add_argument("--min-count", dest="min_count", type=int, default=None)
    p.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)



def cmd_clean_corpus(args: argparse.Namespace) -> int:
    """documents parquet -> cleaned keeper table (quality + language +
    exact keep-first dedup, one scan; see functions/clean.py)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .functions.clean import clean_corpus

    docs = rd.read_parquet(args.input, columns=["doc_id", "text"])
    n_in = docs.count()
    out = clean_corpus(
        docs,
        min_tokens=args.min_tokens,
        max_token_len=args.max_token_len,
        lang=args.lang,
    )
    out.write_parquet(args.out)
    n_out = out.count()
    print(json.dumps({"out": args.out, "docs_in": n_in, "docs_kept": n_out}))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """orders-shaped parquet -> ANALYZE report: per-column catalog
    statistics + the constraint-audit counters, one JSON line."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .functions.relational import audit_orders, column_stats

    orders = rd.read_parquet(args.input)
    stats = {r["col_name"]: {k: v for k, v in r.items() if k != "col_name"}
             for r in column_stats(orders).take_all()}
    report: dict = {"input": args.input, "columns": stats}
    if args.customer:
        cust = rd.read_parquet(args.customer, columns=["c_custkey"])
        report["audit"] = {
            r["check_name"]: r["n_violations"]
            for r in audit_orders(
                orders.select_columns(["o_custkey", "o_totalprice", "o_orderdate"]), cust
            ).take_all()
        }
    print(json.dumps(report, default=str))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="relation_extraction_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build-kg", help="documents parquet -> KG parquet")
    _add_kg_flags(p)
    p.add_argument("--checkpoint", action="store_true",
                   help="resumable run: checkpoint every stage under OUT/checkpoints")
    p.set_defaults(fn=cmd_build_kg)

    p = sub.add_parser("build-kg-sharded", help="resumable sharded KG build")
    _add_kg_flags(p)
    p.add_argument("--shards", type=int, default=8)
    p.set_defaults(fn=cmd_build_kg_sharded)

    p = sub.add_parser("semeval-train", help="train the GRU classifier on SemEval-format records")
    p.add_argument("--input", required=True, help="SemEval 4-line-record file")
    p.add_argument("--out", required=True, help="weights .npz path to write")
    p.add_argument("--mode",
                   choices=["supervised", "alternating", "distributed", "alternating-distributed"],
                   default="alternating",
                   help="alternating = NEG-pretrain cycles (best F1); "
                        "distributed / alternating-distributed = data-parallel Adam "
                        "(the corpus-scale paths)")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--pretrain-init", action="store_true", dest="pretrain_init",
                   help="initialize word embeddings from self-trained skip-gram "
                        "vectors over the training sentences (S9→T5; +2.9 official "
                        "F1 on real SemEval)")
    p.add_argument("--checkpoint", default=None,
                   help="optimizer-state snapshot path for the distributed modes "
                        "(wall-clock cadence; rerun with the same path to resume)")
    p.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    p.set_defaults(fn=cmd_semeval_train)

    p = sub.add_parser("semeval-classify", help="classify SemEval-format records")
    p.add_argument("--input", required=True, help="SemEval 4-line-record file")
    p.add_argument("--out", required=True, help="predictions parquet directory")
    p.add_argument("--fixture", default="semeval_real", help="fixture name or .npz path")
    p.add_argument("--keys", default=None, help="key file for official scoring")
    p.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    p.set_defaults(fn=cmd_semeval_classify)

    p = sub.add_parser("clean-corpus", help="quality+language+dedup cleaning recipe")
    p.add_argument("--input", required=True, help="documents parquet (doc_id, text)")
    p.add_argument("--out", required=True, help="cleaned keeper parquet directory")
    p.add_argument("--min-tokens", dest="min_tokens", type=int, default=5)
    p.add_argument("--max-token-len", dest="max_token_len", type=int, default=30)
    p.add_argument("--lang", default="en")
    p.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    p.set_defaults(fn=cmd_clean_corpus)

    p = sub.add_parser("analyze", help="catalog statistics + constraint audit")
    p.add_argument("--input", required=True, help="orders-shaped parquet")
    p.add_argument("--customer", default=None, help="customer parquet for the FK audit")
    p.add_argument("--num-cpus", dest="num_cpus", type=int, default=None)
    p.set_defaults(fn=cmd_analyze)

    args = ap.parse_args(argv)
    import ray

    owned = not ray.is_initialized()
    rc = args.fn(args)
    if owned:  # never tear down a caller's session (e.g. the pytest fixture)
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
