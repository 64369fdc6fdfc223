"""Tests for the Table II analog dataset registry and stream memoization."""
import numpy as np
import pytest

from repro.core.hashing import edge_key
from repro.graphs.datasets import (
    CONFIGS,
    DATASETS,
    PAPER_TABLE2,
    load_stream,
    stream_pdf,
)


@pytest.mark.parametrize("name", DATASETS)
class TestRegistry:
    def test_loads(self, name):
        s = load_stream(name, scale=0.1, seed=7)
        assert s.n_edges > 20
        assert s.n_nodes > 5

    def test_canonical_and_unique(self, name):
        s = load_stream(name, scale=0.1, seed=7)
        assert (s.u < s.v).all()
        assert len(set(zip(s.u.tolist(), s.v.tolist()))) == s.n_edges

    def test_keys_match_endpoints(self, name):
        s = load_stream(name, scale=0.1, seed=7)
        assert (s.k == edge_key(s.u, s.v)).all()

    def test_arrival_positions(self, name):
        s = load_stream(name, scale=0.1, seed=7)
        assert (s.t == np.arange(s.n_edges)).all()

    def test_paper_stats_present(self, name):
        nodes, edges, triangles = PAPER_TABLE2[name]
        assert nodes > 0 and edges > nodes / 2 and triangles > 0

    def test_deterministic(self, name, monkeypatch):
        import repro.graphs.datasets as ds

        s1 = load_stream(name, scale=0.1, seed=7)
        monkeypatch.setattr(ds, "_STREAMS", {})
        s2 = load_stream(name, scale=0.1, seed=7)
        assert s1 is not s2
        assert (s1.u == s2.u).all() and (s1.v == s2.v).all()


def test_registry_covers_paper_table():
    assert set(CONFIGS) == set(PAPER_TABLE2)


def test_memoized_and_read_only():
    s1 = load_stream("YouTube", scale=0.05, seed=3)
    assert load_stream("YouTube", scale=0.05, seed=3) is s1
    for arr in (s1.t, s1.u, s1.v, s1.k):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_stream_pdf_columns():
    s = load_stream("YouTube", scale=0.05, seed=3)
    pdf = stream_pdf(s)
    assert list(pdf.columns) == ["t", "a", "b", "k"]
    assert (pdf["k"].to_numpy().view(np.uint64) == s.k).all()


def test_scale_changes_size():
    small = load_stream("LiveJournal", scale=0.05, seed=7)
    big = load_stream("LiveJournal", scale=0.2, seed=7)
    assert big.n_edges > small.n_edges * 2
