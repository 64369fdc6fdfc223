"""Structured Streaming REPT equals the sequential processor exactly."""
import os

import pytest

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
