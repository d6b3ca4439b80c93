"""One resume mechanism: a manifest-checked checkpoint per (stage, shard).

The reference checkpoints only model weights (``relembed.py:745-753``)
and has no data-pipeline resume.  Here every resumable step — a shard of
the KG runner (``pipelines/sharded.py``, behind ``build-kg-sharded`` and
``build-kg --checkpoint``) or one partition of a checkpointed exchange
(:func:`resumable_exchange`, behind the alias/fuzzy/CF queries) — is
recorded the same way:

* its output parquet files are written under ``<out_dir>`` (a
  ``write_parquet`` directory, or one file written by :func:`atomic_write`
  so a crashed write never looks complete);
* one line is appended to ``<out_dir>/manifest.jsonl``: the step's
  ``(stage, shard)``, a :func:`input_fingerprint` of everything its output
  depends on (input content, config, stage version), the parquet FOOTER
  row count of each of its file globs, and its counters;
* a rerun loads the manifest once and skips a step only when
  :meth:`Manifest.done` holds: same fingerprint, ``status`` done, and
  every recorded glob still has its recorded footer rows.  A manifest
  that outlives its data, a partial write or a changed input therefore
  recomputes the step instead of returning a stale answer.

Side-stream counters (:func:`write_partial`): a per-batch tap writes an
idempotent content-keyed fragment whose scalars ride its parquet footer,
so retried tasks re-write the same file and the step folds footers only
(:func:`fold_partial_scalars`) — no synchronous cross-process call.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.joins import part_array

MANIFEST = "manifest.jsonl"


def input_fingerprint(*parts) -> str:
    """The one fingerprint hasher: blake2b over the parts' ``str`` forms
    (table digests, parameters, config, stage versions)."""
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()


def atomic_write(table: pa.Table, path: str) -> None:
    """tmp + rename: a crashed write never looks complete; the pid-salted
    tmp name keeps concurrent retries of one task apart."""
    d, name = os.path.split(path)
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{name}.tmp.{os.getpid()}")
    pq.write_table(table, tmp)
    os.replace(tmp, path)


def write_partial(table: pa.Table, d: str, key: str, scalars: dict[str, int]) -> str:
    """Write one batch's side-stream partial as ``<d>/part-<key>.parquet``,
    ``scalars`` in its footer under a fold convention (``xor:<name>`` or
    ``sum:<name>``).  ``key`` is a content fingerprint of the batch, so a
    retried task re-writes the same file."""
    meta = {k.encode(): str(int(v)).encode() for k, v in scalars.items()}
    path = os.path.join(d, f"part-{key}.parquet")
    atomic_write(table.replace_schema_metadata(meta), path)
    return path


def fold_partial_scalars(d: str) -> dict[str, int]:
    """Fold every partial fragment's footer scalars under ``d``."""
    out: dict[str, int] = {}
    for p in sorted(glob.glob(os.path.join(d, "part-*.parquet"))):
        for k, v in (pq.ParquetFile(p).metadata.metadata or {}).items():
            op, _, name = k.decode().partition(":")
            if op == "xor":
                out[name] = out.get(name, 0) ^ int(v)
            elif op == "sum":
                out[name] = out.get(name, 0) + int(v)
    return out


class Manifest:
    """Append-only JSONL manifest under ``out_dir``, loaded once; one entry
    per (stage, shard), the last one appended wins."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, MANIFEST)
        os.makedirs(out_dir, exist_ok=True)
        self.entries = self.load()

    def load(self) -> dict[tuple[str, int], dict]:
        entries: dict[tuple[str, int], dict] = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    try:
                        e = json.loads(line)
                    except ValueError:  # a line torn by a killed driver
                        continue
                    entries[(e["stage"], e["shard"])] = e
        return entries

    def shard_dir(self, stage: str, shard: int) -> str:
        return os.path.join(self.out_dir, stage, f"shard={shard}")

    def rows(self, pattern: str) -> int | None:
        """Footer rows over the files matching ``pattern`` (relative to
        ``out_dir``); None when one of them is unreadable."""
        try:
            return sum(
                pq.ParquetFile(p).metadata.num_rows
                for p in glob.glob(os.path.join(self.out_dir, pattern))
            )
        except (OSError, pa.ArrowException):
            return None

    def done(self, stage: str, shard: int, fingerprint: str) -> dict | None:
        """The entry of a step whose recorded output is intact, else None."""
        e = self.entries.get((stage, shard))
        if not (e and e["fingerprint"] == fingerprint and e["status"] == "done" and e.get("files")):
            return None
        return e if all(self.rows(p) == n for p, n in e["files"].items()) else None

    def append(self, stage: str, shard: int, fingerprint: str, files: list[str], **counters) -> dict:
        """Record a finished step: the footer rows of each of its ``files``
        globs (``rows`` is the first one's) plus its counters."""
        done = {p: self.rows(p) for p in files}
        e = {"stage": stage, "shard": shard, "status": "done", "fingerprint": fingerprint,
             "files": done, "rows": done[files[0]], **counters}
        line = json.dumps(e, sort_keys=True).encode() + b"\n"
        with open(self.path, "ab+") as f:  # single writer: the driver
            end = f.seek(0, os.SEEK_END)
            if end:
                f.seek(end - 1)
                if f.read(1) != b"\n":
                    line = b"\n" + line  # end a line torn by a killed driver
            f.write(line)
        self.entries[(stage, shard)] = e
        return e

    def checkpoint(
        self, ds: "ray.data.Dataset", stage: str, shard: int, fingerprint: str,
        side: str | None = None, **counters,
    ) -> dict:
        """Run one step: clear its shard directory (``write_parquet``
        appends) and its ``side`` partials directory, write ``ds``, fold
        the side partials over ``counters`` (their zero defaults) and
        append the entry."""
        stages = [stage] + ([side] if side else [])
        for s in stages:
            shutil.rmtree(self.shard_dir(s, shard), ignore_errors=True)
        ds.write_parquet(self.shard_dir(stage, shard))
        if side:
            counters.update(fold_partial_scalars(self.shard_dir(side, shard)))
        files = [os.path.join(s, f"shard={shard}", "*.parquet") for s in stages]
        return self.append(stage, shard, fingerprint, files, **counters)


def _sorted_all_cols(t: pa.Table) -> pa.Table:
    """Deterministic row order: sort by every column, left to right —
    resume byte-identity cannot depend on block arrival order."""
    return t.take(pc.sort_indices(t, sort_keys=[(n, "ascending") for n in t.column_names]))


def resumable_exchange(
    ds: "ray.data.Dataset",
    key_cols: list[str],
    per_partition,
    n_parts: int,
    out_dir: str,
    fingerprint: str,
    _fail_after_parts: int | None = None,
) -> "ray.data.Dataset":
    """Checkpointed twin of ``joins.hash_partitioned_groups``.

    * **Spill** (step ``exchange_input``): ONE keyed exchange co-locates
      each hash partition's rows and writes them, sorted by every column
      (so the bytes are a function of the row multiset), as
      ``<out_dir>/input/part-<p>.parquet``.
    * **Kernel** (step ``exchange_output``, one per partition): one Ray
      task per partition not yet done reads its spill, runs
      ``per_partition`` and writes ``<out_dir>/output/part-<p>.parquet``.

    A rerun after a kill skips a valid spill and runs only the missing
    partitions; the result is a ``read_parquet`` over the output files.
    ``per_partition`` must be a pure function of its partition's row
    multiset.  ``_fail_after_parts`` is a test hook: raise after k kernel
    parts, as a killed driver would stop."""
    in_dir = os.path.join(out_dir, "input")
    o_dir = os.path.join(out_dir, "output")
    manifest = Manifest(out_dir)
    spill = manifest.done("exchange_input", -1, fingerprint)
    if spill is None:
        for d in (in_dir, o_dir):  # a new spill makes every output stale
            shutil.rmtree(d, ignore_errors=True)

        def tag(batch: pa.Table) -> pa.Table:
            return batch.append_column("__part__", part_array(batch, key_cols, n_parts))

        def spill_part(group: pa.Table) -> pa.Table:
            p = int(group.column("__part__")[0].as_py())
            atomic_write(
                _sorted_all_cols(group.drop_columns(["__part__"])),
                os.path.join(in_dir, f"part-{p}.parquet"),
            )
            return pa.table({"part": pa.array([p], pa.int64())})

        markers = (
            ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__part__")
            .map_groups(spill_part, batch_format="pyarrow")
            .take_all()
        )
        parts = sorted(int(m["part"]) for m in markers)
        spill = manifest.append(
            "exchange_input", -1, fingerprint, [os.path.join("input", "*.parquet")], parts=parts
        )
    parts = spill["parts"]
    todo = [p for p in parts if manifest.done("exchange_output", p, fingerprint) is None]

    @ray.remote
    def run_part(p: int) -> int:
        out = per_partition(pq.read_table(os.path.join(in_dir, f"part-{p}.parquet")))
        atomic_write(out, os.path.join(o_dir, f"part-{p}.parquet"))
        return p

    pending = [run_part.remote(p) for p in todo]
    for done_ct in range(1, len(todo) + 1):
        ready, pending = ray.wait(pending, num_returns=1)
        p = ray.get(ready[0])
        manifest.append(
            "exchange_output", p, fingerprint, [os.path.join("output", f"part-{p}.parquet")]
        )
        if _fail_after_parts is not None and done_ct >= _fail_after_parts and pending:
            for ref in pending:
                ray.cancel(ref, force=True)
            raise RuntimeError(f"test hook: simulated crash after {done_ct} parts")

    files = [os.path.join(o_dir, f"part-{p}.parquet") for p in parts]
    files = [f for f in files if os.path.exists(f) and pq.ParquetFile(f).metadata.num_rows > 0]
    if files:
        return ray.data.read_parquet(files)
    # every partition produced zero rows, or the input had none: type the
    # empty result by running the kernel on an empty input table
    if parts:
        empty_in = pq.read_table(os.path.join(in_dir, f"part-{parts[0]}.parquet")).slice(0, 0)
    else:
        sch = ds.schema()
        if sch is None:  # schema-less empty input: nothing to type from
            return ray.data.from_arrow(pa.table({}))
        empty_in = pa.schema(list(zip(sch.names, sch.types))).empty_table()
    return ray.data.from_arrow(per_partition(empty_in))
