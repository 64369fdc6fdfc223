"""The benchmark's own exact triangle statistics of an edge stream.

Independent of the program's Spark SQL enumeration: every triangle is
found once, at its last stream edge, by intersecting the neighbour sets
of the edges that arrived before it. The results are the truths the
correctness gates compare the program's outputs with. Sampling
decisions use the program's hash functions, as its own tests do.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hashing import uniform01


@dataclass(frozen=True)
class Triangles:
    """Triangles ``(x, y, w)`` of a stream with the indices of their two
    earlier edges ``e1``, ``e2`` and their last edge ``e3``."""

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    n_edges: int

    @property
    def tau(self) -> int:
        return len(self.e3)

    @property
    def eta(self) -> int:
        """η = Σ_g C(n_g, 2), n_g = triangles in which edge g is not last."""
        n = np.bincount(np.concatenate([self.e1, self.e2]), minlength=self.n_edges)
        return int((n * (n - 1) // 2).sum())

    def tau_v(self, mask: np.ndarray | None = None) -> dict[int, int]:
        """Triangles per node; only those ``mask`` selects, if given."""
        sel = slice(None) if mask is None else mask
        nodes, counts = np.unique(
            np.concatenate([self.x[sel], self.y[sel], self.w[sel]]), return_counts=True
        )
        return dict(zip(nodes.tolist(), counts.tolist()))

    def semi_counts(self, edge_bucket: np.ndarray, m: int) -> np.ndarray:
        """Semi-triangles per processor: triangles whose two earlier
        edges both fall in the processor's bucket."""
        b1 = edge_bucket[self.e1]
        semi = b1 == edge_bucket[self.e2]
        return np.bincount(b1[semi], minlength=m)


def mascot_hits(tri: Triangles, keys: np.ndarray, p: float, seed: int) -> np.ndarray:
    """One MASCOT trial: the triangles whose two earlier edges both pass
    the Bernoulli(p) test ``uniform01(key, seed) < p``."""
    sampled = uniform01(keys, seed) < p
    return sampled[tri.e1] & sampled[tri.e2]


def enumerate_triangles(u: np.ndarray, v: np.ndarray) -> Triangles:
    """Triangles of the stream whose i-th edge is ``(u[i], v[i])``."""
    adj: dict[int, set[int]] = {}
    index: dict[tuple[int, int], int] = {}
    xs: list[int] = []
    ys: list[int] = []
    ws: list[int] = []
    e1: list[int] = []
    e2: list[int] = []
    e3: list[int] = []
    for j, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
        na = adj.setdefault(a, set())
        nb = adj.setdefault(b, set())
        for w in na & nb:
            xs.append(a)
            ys.append(b)
            ws.append(w)
            e1.append(index[(a, w) if a < w else (w, a)])
            e2.append(index[(b, w) if b < w else (w, b)])
            e3.append(j)
        na.add(b)
        nb.add(a)
        index[(a, b) if a < b else (b, a)] = j
    arr = lambda xs_: np.asarray(xs_, dtype=np.int64)  # noqa: E731
    return Triangles(arr(xs), arr(ys), arr(ws), arr(e1), arr(e2), arr(e3), len(u))


def local_nrmse(runs: list[dict[int, float]], tau_v: dict[int, int]) -> float:
    """Mean over nodes with τ_v > 0 of the per-node NRMSE across runs;
    a node missing from a run's estimates was estimated as 0."""
    total = 0.0
    for node, truth in tau_v.items():
        sq = sum((run.get(node, 0.0) - truth) ** 2 for run in runs)
        total += (sq / len(runs)) ** 0.5 / truth
    return total / len(tau_v)
