"""Property-based cross-checks (hypothesis) on random tiny graphs.

These never touch Spark — they pin the sequential simulator to the
numpy reference over a randomized family of graphs, stream orders,
m, c (Algorithm 1 and every group of Algorithm 2) and seeds, which is
where subtle semi-triangle accounting bugs would hide.
"""
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream.mascot import mascot_processor
from repro.stream.rept import group_seed, rept_processor, rept_run
from tests.helpers import brute_force, tiny_stream
from tests.reference import mascot_trial_count, rept_processor_counts


def _triangle_frame(stream) -> pd.DataFrame:
    """The narrow triangle table ``(x, y, z, t1, t2, t3)``, from brute force."""
    pos = {(a, b): t for t, a, b in zip(stream.t.tolist(), stream.u.tolist(), stream.v.tolist())}
    rows = [
        (*nodes, *(pos[e] for e in edges)) for nodes, edges in brute_force(stream)["triangles"]
    ]
    return pd.DataFrame(rows, columns=["x", "y", "z", "t1", "t2", "t3"], dtype="int64")


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 6),
    hash_seed=st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_rept_stream_equals_reference(seed, m, hash_seed):
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    tri = _triangle_frame(stream)
    c = min(m, 3)
    ref = rept_processor_counts(tri, stream.k, m, c, hash_seed)
    for i in range(c):
        r = rept_processor(stream, m, i, hash_seed, track_eta=True)
        assert r["tau"] == ref["tau"][i]
        assert r["eta"] == ref["eta"][i]


@given(
    seed=st.integers(0, 10_000),
    m=st.integers(1, 4),
    extra=st.integers(1, 7),
    hash_seed=st.integers(0, 2**32),
)
@settings(max_examples=25, deadline=None)
def test_rept_alg2_groups_equal_reference(seed, m, extra, hash_seed):
    """c > m: every group g (seed ``group_seed``) of an Algorithm 2 run,
    the leftover group of c2 processors included."""
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    tri = _triangle_frame(stream)
    c = m + extra
    c1, c2 = divmod(c, m)
    tau, eta = [], []
    for g in range(c1 + (1 if c2 else 0)):
        ref = rept_processor_counts(tri, stream.k, m, m if g < c1 else c2, group_seed(hash_seed, g))
        tau += ref["tau"].tolist()
        eta += ref["eta"].tolist()
    procs = rept_run(stream, m, c, hash_seed)["procs"]
    assert [p["tau"] for p in procs] == tau
    assert [p["eta"] for p in procs] == eta


@given(seed=st.integers(0, 10_000), hash_seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_mascot_stream_equals_reference(seed, hash_seed):
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    tri = _triangle_frame(stream)
    p = 0.5
    ref = mascot_trial_count(tri, stream.k, p, hash_seed)
    got = mascot_processor(stream, p, hash_seed)
    assert got["cnt"] == ref


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_semi_triangle_totals_bounded_by_tau(seed):
    stream = tiny_stream(n_nodes=18, n_edges=60, seed=seed)
    bf = brute_force(stream)
    m = 3
    total = sum(rept_processor(stream, m, i, 1)["tau"] for i in range(m))
    assert total <= bf["tau"]
