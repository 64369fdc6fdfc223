"""Tests for the per-job semi-triangle counting kernels."""
import numpy as np
import pandas as pd
import pytest

from repro.core.indicator import per_job_counts, per_job_key_counts
from repro.graphs.datasets import Stream

N_EDGES = 60


def _table(spark, n=1000, seed=0):
    """A random narrow table over a 60-edge stream; the labels below do
    not need real triangles, only arrival positions t1 < t2 < t3."""
    g = np.random.default_rng(seed)
    t = np.sort(np.stack([g.choice(N_EDGES, 3, replace=False) for _ in range(n)]), axis=1)
    pdf = pd.DataFrame({
        "x": g.integers(0, 20, n), "y": g.integers(20, 40, n), "z": g.integers(40, 60, n),
        "t1": t[:, 0], "t2": t[:, 1], "t3": t[:, 2],
    })
    u = np.arange(N_EDGES, dtype=np.int64)
    stream = Stream("test", u, u, u + N_EDGES, g.integers(0, 2**63, N_EDGES).astype(np.uint64))
    return spark.createDataFrame(pdf).repartition(4), pdf, stream


def _mod_kernel(keys, job):
    """Edge on processor key % mod, except processors ≥ lim."""
    lab = (keys % np.uint64(job["mod"])).astype(np.int64)
    return np.where(lab < job["lim"], lab, -1)


def _semi(pdf, stream, job):
    lab = _mod_kernel(stream.k, job)
    l1, l2 = lab[pdf["t1"]], lab[pdf["t2"]]
    return (l1 >= 0) & (l1 == l2)


def test_per_job_counts_matches_pandas(spark):
    df, pdf, stream = _table(spark)
    jobs = [{"mod": 2, "lim": 2}, {"mod": 3, "lim": 1}, {"mod": 5, "lim": 4}]
    out = per_job_counts(df, jobs, _mod_kernel, stream)
    assert out["job"].tolist() == [0, 1, 2]
    for j, job in enumerate(jobs):
        assert out.loc[j, "cnt"] == _semi(pdf, stream, job).sum()
        assert out.loc[j, "eta"] == 0


def test_per_job_counts_zero_fill(spark):
    df, _, stream = _table(spark)
    jobs = [{"mod": 2, "lim": 0}, {"mod": 1, "lim": 1}]
    out = per_job_counts(df, jobs, _mod_kernel, stream)
    assert out.loc[0, "cnt"] == 0
    assert out.loc[1, "cnt"] == df.count()


def test_per_job_counts_empty_jobs(spark):
    df, _, stream = _table(spark)
    assert len(per_job_counts(df, [], _mod_kernel, stream)) == 0


def test_per_job_key_counts_matches_pandas(spark):
    df, pdf, stream = _table(spark)
    jobs = [{"mod": 2, "lim": 2}, {"mod": 3, "lim": 3}]
    out = per_job_key_counts(df, jobs, _mod_kernel, stream)
    for j, job in enumerate(jobs):
        semi = pdf[_semi(pdf, stream, job)]
        want = pd.concat([semi["x"], semi["y"], semi["z"]]).value_counts()
        got = out[out["job"] == j].set_index("v")["cnt"]
        assert got.to_dict() == want.to_dict()


def test_per_job_key_counts_multi_columns(spark):
    # a semi-triangle counts once at each of its three nodes
    df, pdf, stream = _table(spark)
    jobs = [{"mod": 2, "lim": 2}]
    out = per_job_key_counts(df, jobs, _mod_kernel, stream)
    assert out["cnt"].sum() == 3 * _semi(pdf, stream, jobs[0]).sum()


def test_kernel_sees_edge_keys(spark):
    # labels are gathered by arrival position: t indexes stream.k
    df, pdf, stream = _table(spark)
    out = per_job_counts(df, [{}], lambda keys, job: np.where(keys == stream.k[7], 0, -1), stream)
    assert out.loc[0, "cnt"] == 0  # one edge cannot make a semi-triangle
    out = per_job_counts(df, [{}], lambda keys, job: np.where(keys % 2 == 0, 0, -1), stream)
    even = stream.k % 2 == 0
    assert out.loc[0, "cnt"] == (even[pdf["t1"]] & even[pdf["t2"]]).sum()


@pytest.mark.parametrize("local", [False, True])
def test_eta_matches_pair_formula(spark, local):
    """η = Σ_g C(x_g, 2) + x_g·y_g summed over edges g (per node: over
    the edges at the node), from one pass over four partitions."""
    df, pdf, stream = _table(spark)
    job = {"mod": 3, "lim": 2}
    lab = _mod_kernel(stream.k, job)
    semi = pdf[_semi(pdf, stream, job)]
    x = np.bincount(np.concatenate([semi["t1"], semi["t2"]]), minlength=N_EDGES)
    last = semi[lab[semi["t3"]] == lab[semi["t1"]]]
    y = np.bincount(last["t3"], minlength=N_EDGES)
    eta_g = x * (x - 1) // 2 + x * y
    if local:
        out = per_job_key_counts(df, [job], _mod_kernel, stream, eta=True)
        want = pd.Series(np.concatenate([eta_g, eta_g]),
                         index=np.concatenate([stream.u, stream.v])).groupby(level=0).sum()
        got = out.set_index("v")["eta"].reindex(want.index, fill_value=0)
        assert (got == want).all()
    else:
        out = per_job_counts(df, [job], _mod_kernel, stream, eta=True)
        assert out.loc[0, "eta"] == eta_g.sum() > 0
