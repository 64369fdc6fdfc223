"""Structured Streaming REPT equals the sequential processor exactly."""
import dataclasses
import os
import shutil
import threading

import pandas as pd
import pytest
from pyspark.errors import StreamingQueryException
from pyspark.sql.streaming import StreamingQueryListener

from repro.core.structured import rept_structured_counts, write_stream_files
from repro.graphs.datasets import load_stream, stream_pdf
from repro.stream.rept import rept_processor


@pytest.fixture(scope="module")
def small():
    return load_stream("YouTube", scale=0.05, seed=7)


def _expected(stream, m, c, seed):
    return [rept_processor(stream, m, i, seed)["tau"] for i in range(c)]


def test_single_batch(spark, small, tmp_path):
    m, c, seed = 4, 3, 99
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=1)
    res = rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt")
    )
    assert res["tau"].tolist() == _expected(small, m, c, seed)


def test_multi_batch_ordered(spark, small, tmp_path):
    m, c, seed = 3, 2, 5
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=3)
    res = rept_structured_counts(
        spark, str(tmp_path / "in"), m, c, seed, str(tmp_path / "ckpt"),
        max_files_per_trigger=1,
    )
    assert res["tau"].tolist() == _expected(small, m, c, seed)


def test_restart_from_checkpoint(spark, small, tmp_path):
    m, c, seed = 3, 2, 5
    paths = write_stream_files(stream_pdf(small), str(tmp_path / "all"), n_files=3)
    src, ckpt = tmp_path / "in", str(tmp_path / "ckpt")
    src.mkdir()
    for p in paths[:2]:
        shutil.copy2(p, src)
    first = rept_structured_counts(
        spark, str(src), m, c, seed, ckpt, max_files_per_trigger=1
    )
    n = sum(len(pd.read_parquet(p)) for p in paths[:2])
    prefix = dataclasses.replace(
        small, t=small.t[:n], u=small.u[:n], v=small.v[:n], k=small.k[:n]
    )
    assert first["tau"].tolist() == _expected(prefix, m, c, seed)
    # The restarted query sees only the third file (copied with its later
    # mtime), so it ends at the whole stream's counts only if it resumed
    # the processors' state from the checkpoint.
    for p in paths[:2]:
        os.remove(src / os.path.basename(p))
    shutil.copy2(paths[2], src)
    res = rept_structured_counts(
        spark, str(src), m, c, seed, ckpt, max_files_per_trigger=1
    )
    assert res["tau"].tolist() == _expected(small, m, c, seed)


def test_rejects_out_of_order_batches(spark, small, tmp_path):
    paths = write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=3)
    for p, when in zip(paths, reversed([os.path.getmtime(p) for p in paths])):
        os.utime(p, (when, when))
    with pytest.raises(StreamingQueryException, match="out of stream order"):
        rept_structured_counts(
            spark, str(tmp_path / "in"), 3, 2, 5, str(tmp_path / "ckpt"),
            max_files_per_trigger=1,
        )


class _Progress(StreamingQueryListener):
    """Collects a query's progress events until it terminates."""

    def __init__(self):
        self.progress = []
        self.done = threading.Event()

    def onQueryStarted(self, event):
        pass

    def onQueryProgress(self, event):
        self.progress.append(event.progress)

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        self.done.set()


def test_state_operator_one_partition_per_core(spark, small, tmp_path):
    write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=1)
    listener = _Progress()
    spark.streams.addListener(listener)
    try:
        rept_structured_counts(
            spark, str(tmp_path / "in"), 4, 3, 99, str(tmp_path / "ckpt")
        )
        assert listener.done.wait(timeout=60)
    finally:
        spark.streams.removeListener(listener)
    ops = [op for p in listener.progress for op in p.stateOperators]
    assert ops
    cores = spark.sparkContext.defaultParallelism
    assert all(op.numShufflePartitions == cores for op in ops)


def test_rejects_c_gt_m(spark, small, tmp_path):
    with pytest.raises(ValueError):
        rept_structured_counts(
            spark, str(tmp_path / "in"), 2, 5, 1, str(tmp_path / "ckpt")
        )


def test_write_stream_files_ordered(small, tmp_path):
    paths = write_stream_files(stream_pdf(small), str(tmp_path / "in"), n_files=4)
    assert len(paths) == 4
    mtimes = [os.path.getmtime(p) for p in paths]
    assert mtimes == sorted(mtimes)
