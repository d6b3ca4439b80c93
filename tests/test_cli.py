"""CLI surface (python -m relation_extraction_ray) — the engine's
equivalent of the reference's click builder scripts
(wiki2sdp.py:275-288, semeval2sdp.py:279-289)."""

import json
import os

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def docs_parquet(ray_session, tmp_path_factory):
    from relation_extraction_ray.sources.synth import documents_dataset

    d = str(tmp_path_factory.mktemp("cli") / "docs")
    documents_dataset(120, override_num_blocks=4).write_parquet(d)
    return d


def test_build_kg_cli(docs_parquet, tmp_path, capsys):
    from relation_extraction_ray.__main__ import main

    out = str(tmp_path / "kg")
    rc = main(["build-kg", "--input", docs_parquet, "--out", out])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"]["triples"] > 0
    t = pq.read_table(os.path.join(out, "triples"))
    assert {"subj", "pred", "obj", "span_hash"} <= set(t.schema.names)
    assert t.num_rows == summary["rows"]["triples"]
    assert pq.read_table(os.path.join(out, "vocab")).num_rows == summary["rows"]["vocab"]


def test_build_kg_sharded_cli_resumes(docs_parquet, tmp_path, capsys):
    from relation_extraction_ray.__main__ import main

    out = str(tmp_path / "kgsh")
    args = ["build-kg-sharded", "--input", docs_parquet, "--out", out, "--shards", "2"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert first["triples"] > 0 and len(first["recomputed"]) == 6  # 2 stages x 2 shards + entities/adjacency
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert second["recomputed"] == []
    assert second["triples"] == first["triples"]


@pytest.mark.parametrize("flag", ["--single", "--sentence"])
@pytest.mark.parametrize("cmd", ["build-kg", "build-kg-sharded"])
def test_build_kg_rejects_supervised_only_flags(cmd, flag, tmp_path):
    """--single/--sentence shape supervised classification only; no KG
    stage reads them, so the KG builders reject them as usage errors."""
    from relation_extraction_ray.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main([cmd, "--input", str(tmp_path / "docs"), "--out", str(tmp_path / "kg"), flag])
    assert exc.value.code == 2


def test_build_kg_cli_empty_corpus_writes_empty_tables(ray_session, tmp_path, capsys):
    """An empty corpus still leaves readable zero-row triples/entities/
    adjacency tables with their declared schemas."""
    from relation_extraction_ray import schemas
    from relation_extraction_ray.__main__ import main

    docs = tmp_path / "docs"
    docs.mkdir()
    pq.write_table(schemas.DOCUMENTS.empty_table(), str(docs / "part-0.parquet"))
    out = str(tmp_path / "kg")
    assert main(["build-kg", "--input", str(docs), "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    for name, schema in (
        ("triples", schemas.TRIPLES),
        ("entities", schemas.ENTITIES),
        ("adjacency", schemas.ADJACENCY),
    ):
        assert summary["rows"][name] == 0
        assert pq.read_table(os.path.join(out, name)).equals(schema.empty_table()), name


def test_semeval_classify_cli(tmp_path, capsys, ray_session):
    from relation_extraction_ray.__main__ import main
    from relation_extraction_ray.oracle import SEMEVAL_DATA

    test_file = os.path.join(
        SEMEVAL_DATA, "SemEval2010_task8_testing_keys", "TEST_FILE_CLEAN.TXT"
    )
    if not os.path.exists(test_file):
        pytest.skip("reference SemEval data not present")
    out = str(tmp_path / "preds")
    rc = main([
        "semeval-classify", "--input", test_file, "--out", out,
        "--keys", os.path.join(SEMEVAL_DATA, "test_keys.txt"),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 2717
    assert summary["official_f1"] > 60.0


def test_semeval_train_then_classify_cli(tmp_path, capsys, ray_session):
    """Train on the synthetic SemEval-style corpus, classify it with the
    written weights — the reference's end-to-end train→predict workflow."""
    import ray.data as rd

    from relation_extraction_ray.__main__ import main
    from relation_extraction_ray.sources.semeval import labeled_sentences_table

    # write a record file in the 4-line format from the synthetic table
    tbl = labeled_sentences_table(120)
    rec_file = str(tmp_path / "train.txt")
    with open(rec_file, "w") as f:
        for r in tbl.to_pylist():
            f.write(f'{r["sent_id"]}\t"{r["text"]}"\n{r["label"]}\n{r["comment"]}\n\n')
    wpath = str(tmp_path / "wts.npz")
    rc = main(["semeval-train", "--input", rec_file, "--out", wpath,
               "--mode", "supervised", "--epochs", "8"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["loss_last"] < summary["loss_first"]
    out = str(tmp_path / "preds")
    rc = main(["semeval-classify", "--input", rec_file, "--out", out, "--fixture", wpath])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["rows"] == 120


def test_semeval_train_cli_alternating_distributed_with_init(tmp_path, capsys, ray_session):
    """The corpus-scale CLI path: --mode alternating-distributed with
    skip-gram init and a checkpoint file (written at the wall-clock
    cadence; this run just verifies the flags drive the real code)."""
    from relation_extraction_ray.__main__ import main
    from relation_extraction_ray.sources.semeval import labeled_sentences_table

    tbl = labeled_sentences_table(80)
    rec_file = str(tmp_path / "train.txt")
    with open(rec_file, "w") as f:
        for r in tbl.to_pylist():
            f.write(f'{r["sent_id"]}\t"{r["text"]}"\n{r["label"]}\n{r["comment"]}\n\n')
    wpath = str(tmp_path / "wts.npz")
    rc = main([
        "semeval-train", "--input", rec_file, "--out", wpath,
        "--mode", "alternating-distributed", "--epochs", "6",
        "--pretrain-init", "--checkpoint", str(tmp_path / "fit.ck.npz"),
    ])
    assert rc == 0
    import json as _json

    summary = _json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["loss_last"] < summary["loss_first"]


def test_clean_corpus_cli(tmp_path, capsys, ray_session):
    import pyarrow as pa

    from relation_extraction_ray.__main__ import main

    d = str(tmp_path / "docs")
    en = "the cat and the dog sat with that hat for fun"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": [en, en, "the and of to", "der und das ist nicht mit ein von"],
        }
    )
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(d, "part-0.parquet"))
    out = str(tmp_path / "clean")
    rc = main(["clean-corpus", "--input", d, "--out", out])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary == {"out": out, "docs_in": 4, "docs_kept": 1}
    kept = pq.read_table(out)
    assert kept.column("doc_id").to_pylist() == [1]


def test_analyze_cli(capsys, ray_session):
    import json

    from relation_extraction_ray.__main__ import main

    rc = main([
        "analyze",
        "--input", "/root/testdata/sf0.001/orders.parquet",
        "--customer", "/root/testdata/sf0.001/customer.parquet",
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["audit"]["rows"] == 1500 and report["audit"]["fk_orphan"] == 0
    ok = report["columns"]["o_orderkey"]
    assert ok["n"] == 1500 and ok["n_distinct"] == 1500 and ok["n_null"] == 0


def test_resumable_build_kg_rerun_recomputes_nothing(docs_parquet, tmp_path, capsys):
    """``build-kg --checkpoint`` is resumable: a second run recomputes no
    step, prints the same row counts, and both runs write the same final
    tables as the in-memory build."""
    from relation_extraction_ray.__main__ import main

    def run(out, *flags):
        assert main(["build-kg", "--input", docs_parquet, "--out", out, *flags]) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    out = str(tmp_path / "kgck")
    first = run(out, "--checkpoint")
    assert len(first["recomputed"]) == 4  # sentences, triples, entities, adjacency
    second = run(out, "--checkpoint")
    assert second["recomputed"] == []
    assert second["rows"] == first["rows"]
    plain = run(str(tmp_path / "kg"))
    assert plain["rows"] == second["rows"]

    def rows(root, name):
        return sorted(tuple(r.values()) for r in pq.read_table(os.path.join(root, name)).to_pylist())

    for name in ("triples", "entities", "adjacency", "vocab", "dep_vocab", "pos_vocab"):
        assert rows(out, name) == rows(str(tmp_path / "kg"), name), name


def test_resumable_build_kg_empty_corpus(ray_session, tmp_path, capsys):
    """``build-kg --checkpoint`` over an empty corpus writes the empty
    tables with their schemas, and its rerun recomputes nothing."""
    from relation_extraction_ray import schemas
    from relation_extraction_ray.__main__ import main

    docs = tmp_path / "docs"
    docs.mkdir()
    pq.write_table(schemas.DOCUMENTS.empty_table(), str(docs / "part-0.parquet"))
    out = str(tmp_path / "kg")
    for recomputed in (4, 0):
        assert main(["build-kg", "--input", str(docs), "--out", out, "--checkpoint"]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert len(summary["recomputed"]) == recomputed
        for name in ("triples", "entities", "adjacency"):
            assert summary["rows"][name] == 0
            assert pq.read_table(os.path.join(out, name)).equals(getattr(schemas, name.upper()).empty_table())
