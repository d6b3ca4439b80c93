"""Checkpointed exchanges (state/resume.py): kill/resume with
byte-identical outputs and no recompute of finished partitions."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from relation_extraction_ray.state.resume import input_fingerprint, resumable_exchange

SF = "/root/testdata/sf0.001"


def _mk_ds(n=2000, nb=6):
    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 200, n), pa.int64()),
            "v": pa.array(rng.integers(0, 10_000, n), pa.int64()),
        }
    )
    return ray.data.from_arrow(t).repartition(nb)


def _sum_kernel(marker_dir):
    def per_part(t: pa.Table) -> pa.Table:
        # side-marker so tests can count kernel invocations per part
        g = t.group_by("k").aggregate([("v", "sum")]).rename_columns(["k", "v_sum"])
        g = g.take(pa.compute.sort_indices(g, sort_keys=[("k", "ascending")]))
        if marker_dir and g.num_rows:
            p = int(g.column("k")[0].as_py())
            open(os.path.join(marker_dir, f"ran-{os.getpid()}-{p}-{np.random.randint(1 << 30)}"), "w").close()
        return g

    return per_part


def _rows(ds):
    return sorted((r["k"], r["v_sum"]) for r in ds.take_all())


def test_resume_after_simulated_crash(ray_session, tmp_path):
    """Crash after 1 phase-B part → rerun completes, byte-identical, and
    finished parts are NOT recomputed (mtime + marker evidence)."""
    d = str(tmp_path / "ckpt")
    marker = str(tmp_path / "markers")
    os.makedirs(marker)
    fp = input_fingerprint("t1")
    ds = _mk_ds()
    want = _rows(
        ray.data.from_arrow(
            pa.concat_tables(
                [b for b in _mk_ds().map_batches(lambda t: t, batch_format="pyarrow").iter_batches(batch_format="pyarrow")]
            )
            .group_by("k")
            .aggregate([("v", "sum")])
            .rename_columns(["k", "v_sum"])
        )
    )

    with pytest.raises(RuntimeError, match="simulated crash"):
        resumable_exchange(ds, ["k"], _sum_kernel(marker), 8, d, fp, _fail_after_parts=1)
    import time

    time.sleep(3)  # let force-canceled stragglers finish their marker writes
    ran_before = len(os.listdir(marker))
    assert ran_before >= 1
    # the resume contract is MANIFEST-based: parts recorded done before
    # the crash are skipped; concurrently-finished-but-unrecorded parts
    # are legitimately recomputed (their atomic rewrite is idempotent)
    from relation_extraction_ray.state.lineage import Manifest

    done_parts = [
        s for (st, s), e in Manifest(d).load().items()
        if st == "exchange_output" and e.get("status") == "done"
    ]
    assert len(done_parts) == 1  # _fail_after_parts=1
    mtimes = {
        p: os.path.getmtime(os.path.join(d, "output", f"part-{p}.parquet"))
        for p in done_parts
    }

    got = resumable_exchange(_mk_ds(), ["k"], _sum_kernel(marker), 8, d, fp)
    assert _rows(got) == want
    # manifest-done parts skipped: file bytes untouched
    for p, m in mtimes.items():
        assert os.path.getmtime(os.path.join(d, "output", f"part-{p}.parquet")) == m
    # resume ran exactly the 7 unrecorded parts, no more
    assert len(os.listdir(marker)) == ran_before + 7

    # third run: nothing recomputed at all, same rows
    n_markers = len(os.listdir(marker))
    got2 = resumable_exchange(_mk_ds(), ["k"], _sum_kernel(marker), 8, d, fp)
    assert _rows(got2) == want
    assert len(os.listdir(marker)) == n_markers


def test_resume_after_deleted_parts(ray_session, tmp_path):
    """Deleting a subset of output parts (the post-kill disk state)
    recomputes exactly those parts, byte-identically."""
    d = str(tmp_path / "ckpt")
    fp = input_fingerprint("t2")
    got1 = resumable_exchange(_mk_ds(), ["k"], _sum_kernel(None), 8, d, fp)
    want = _rows(got1)
    o_dir = os.path.join(d, "output")
    files = sorted(os.listdir(o_dir))
    byte0 = {f: open(os.path.join(o_dir, f), "rb").read() for f in files}
    for f in files[: len(files) // 2]:
        os.remove(os.path.join(o_dir, f))
    got2 = resumable_exchange(_mk_ds(), ["k"], _sum_kernel(None), 8, d, fp)
    assert _rows(got2) == want
    for f in files:
        assert open(os.path.join(o_dir, f), "rb").read() == byte0[f]  # byte-identical


def test_empty_input_returns_typed_kernel_output(ray_session, tmp_path):
    """An empty input spills no partition; the result still carries the
    kernel's output columns, not a schema-less table."""
    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    )
    fp = input_fingerprint("empty")
    got = resumable_exchange(empty, ["k"], _sum_kernel(None), 8, str(tmp_path / "ckpt"), fp)
    assert got.schema().names == ["k", "v_sum"]
    assert got.count() == 0


def test_worker_kill_retries_part(ray_session, tmp_path):
    """A hard worker kill (os._exit) inside one part's kernel is retried
    by Ray; the atomic tmp+rename write means the retried part lands
    exactly once."""
    d = str(tmp_path / "ckpt")
    marker = str(tmp_path / "kill.marker")
    fp = input_fingerprint("t3")

    def killer(t: pa.Table) -> pa.Table:
        g = t.group_by("k").aggregate([("v", "sum")]).rename_columns(["k", "v_sum"])
        g = g.take(pa.compute.sort_indices(g, sort_keys=[("k", "ascending")]))
        if not os.path.exists(marker):
            open(marker, "w").close()
            os._exit(1)
        return g

    got = resumable_exchange(_mk_ds(), ["k"], killer, 8, d, fp)
    assert os.path.exists(marker), "kill never fired"
    ref = resumable_exchange(_mk_ds(), ["k"], _sum_kernel(None), 8, str(tmp_path / "ref"), fp)
    assert _rows(got) == _rows(ref)


def test_fingerprint_change_respills(ray_session, tmp_path):
    d = str(tmp_path / "ckpt")
    r1 = resumable_exchange(_mk_ds(), ["k"], _sum_kernel(None), 8, d, input_fingerprint("a"))
    w1 = _rows(r1)
    # different fingerprint (logical input changed) → full recompute, not
    # a stale read
    ds2 = ray.data.from_arrow(
        pa.table({"k": pa.array([1, 1, 2], pa.int64()), "v": pa.array([5, 6, 7], pa.int64())})
    )
    r2 = resumable_exchange(ds2, ["k"], _sum_kernel(None), 8, d, input_fingerprint("b"))
    assert _rows(r2) == [(1, 11), (2, 7)]
    assert _rows(r2) != w1


# --- the three expensive contract queries, resumable ----------------------


def _del_half_outputs(root):
    """Simulate a killed run: drop half of every exchange's output parts."""
    removed = 0
    for dirpath, _, files in os.walk(root):
        if os.path.basename(dirpath) != "output":
            continue
        fs = sorted(f for f in files if f.endswith(".parquet"))
        for f in fs[: max(1, len(fs) // 2)]:
            os.remove(os.path.join(dirpath, f))
            removed += 1
    return removed


def test_fuzzy_pairs_resumable(ray_session, tmp_path):
    from relation_extraction_ray.functions.dedup import fuzzy_ed1_pairs

    cust = ray.data.read_parquet(f"{SF}/customer.parquet", columns=["c_name"])
    ref = sorted(
        (r["a"], r["b"], r["kind"]) for r in fuzzy_ed1_pairs(cust, "c_name").take_all()
    )
    d = str(tmp_path / "fz")
    r1 = sorted(
        (r["a"], r["b"], r["kind"])
        for r in fuzzy_ed1_pairs(cust, "c_name", resume_dir=d).take_all()
    )
    assert r1 == ref and len(ref) > 0
    assert _del_half_outputs(d) > 0
    r2 = sorted(
        (r["a"], r["b"], r["kind"])
        for r in fuzzy_ed1_pairs(cust, "c_name", resume_dir=d).take_all()
    )
    assert r2 == ref


def test_fuzzy_pairs_resume_detects_changed_content(ray_session, tmp_path):
    """A resume dir written for one input must not be reused for another
    input with the same row and distinct counts: changing one c_name
    gives the same result as a fresh run without resume."""
    from relation_extraction_ray.functions.dedup import fuzzy_ed1_pairs

    def rows(ds, resume_dir):
        return sorted(
            (r["a"], r["b"], r["kind"])
            for r in fuzzy_ed1_pairs(ds, "c_name", resume_dir=resume_dir).take_all()
        )

    names = pa.concat_tables(
        ray.data.read_parquet(f"{SF}/customer.parquet", columns=["c_name"])
        .iter_batches(batch_format="pyarrow")
    ).column("c_name").to_pylist()
    changed = list(names)
    changed[0] = "Unrelated Name"
    assert len(set(changed)) == len(set(names)) and "Unrelated Name" not in names
    orig = ray.data.from_arrow(pa.table({"c_name": names}))
    edited = ray.data.from_arrow(pa.table({"c_name": changed}))
    d = str(tmp_path / "fz")
    assert rows(orig, d) == rows(orig, None)
    fresh = rows(edited, None)
    assert fresh != rows(orig, None)
    assert rows(edited, d) == fresh


def test_alias_clusters_resumable(ray_session, tmp_path):
    """alias_clusters composes the resumable fuzzy join + components."""
    import pyarrow.compute as pc

    from relation_extraction_ray.functions.components import connected_components
    from relation_extraction_ray.functions.dedup import fuzzy_ed1_pairs

    cust = ray.data.read_parquet(f"{SF}/customer.parquet", columns=["c_name"])

    def clusters(resume_dir):
        pairs = fuzzy_ed1_pairs(cust, "c_name", resume_dir=resume_dir)
        keys = pairs.map_batches(
            lambda b: pa.table(
                {
                    "a": pc.cast(pc.utf8_slice_codeunits(b.column("a"), 9, 2**30), pa.int64()),
                    "b": pc.cast(pc.utf8_slice_codeunits(b.column("b"), 9, 2**30), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        return sorted(
            (r["doc_id"], r["canonical_id"], r["cluster_size"])
            for r in connected_components(keys, id_a="a", id_b="b").take_all()
        )

    ref = clusters(None)
    d = str(tmp_path / "al")
    assert clusters(d) == ref and len(ref) > 0
    assert _del_half_outputs(d) > 0
    assert clusters(d) == ref


def test_cf_item_topk_resumable(ray_session, tmp_path):
    from relation_extraction_ray.functions.relational import cf_item_topk

    li = ray.data.read_parquet(f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"])
    orders = ray.data.read_parquet(f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey"])

    def run(resume_dir):
        return sorted(
            tuple(r.values())
            for r in cf_item_topk(li, orders, resume_dir=resume_dir).take_all()
        )

    ref = run(None)
    d = str(tmp_path / "cf")
    assert run(d) == ref and len(ref) > 0
    assert _del_half_outputs(d) > 0
    assert run(d) == ref
