"""Registry of synthetic analogs of the paper's Table II graphs.

Each entry maps a paper dataset name to a generator config, scaled down
~10³–10⁴× (see DESIGN.md §6 for the substitution rationale). ``scale``
multiplies node/edge counts so tests can run tiny instances of the same
shapes the benchmarks use.

``load_stream`` returns the numpy arrays every engine consumes (memoized
in-process: generating all eight analogs takes about a second, so
nothing is cached on disk); ``edge_stream_df`` wraps them as a Spark
DataFrame ``(t, a, b, k)`` with ``a < b`` and ``k`` the canonical edge
key. The paper's true statistics are kept alongside for EXPERIMENTS.md.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.hashing import edge_key
from repro.graphs import generators as gen

#: nodes / edges / triangles of the real graphs (paper Table II).
PAPER_TABLE2 = {
    "Twitter": (41_652_231, 1_202_513_046, 34_824_916_864),
    "Orkut": (3_072_441, 117_185_803, 627_584_181),
    "LiveJournal": (5_189_809, 48_688_097, 177_820_130),
    "Pokec": (1_632_803, 22_301_964, 32_557_458),
    "Flickr": (105_938, 2_316_948, 107_987_357),
    "Wiki-Talk": (2_394_385, 4_659_565, 9_203_519),
    "Web-Google": (875_713, 4_322_051, 13_391_903),
    "YouTube": (1_138_499, 2_990_443, 3_056_386),
}

#: generator configs at scale=1.0 (the benchmark profile). Tuned so the
#: measured η/τ spans ~0.7–80 (the paper's real graphs span ≈11–3900;
#: the compression at laptop scale is documented in EXPERIMENTS.md —
#: reaching η/τ ~10³ would force τ into the tens of millions).
CONFIGS: dict[str, dict] = {
    # two large overlaid communities — the biggest η/τ (~78), like Twitter
    "Twitter": dict(kind="cliques", n_cliques=2, k=100, noise_nodes=2500, noise_edges=14000),
    "Orkut": dict(kind="hk", n=3500, m=20, p_triad=0.5),
    "LiveJournal": dict(kind="hk", n=6000, m=8, p_triad=0.45),
    "Pokec": dict(kind="hk", n=5000, m=8, p_triad=0.12),
    # few nodes, huge triangle count (clique overlays), η/τ ~ 42
    "Flickr": dict(kind="cliques", n_cliques=12, k=55, noise_nodes=600, noise_edges=5000),
    # hub-heavy, low clustering but high hub-edge overlap, η/τ ~ 38
    "Wiki-Talk": dict(kind="hub", n=4000, n_edges=30000, alpha=1.3),
    "Web-Google": dict(kind="hk", n=4500, m=5, p_triad=0.55),
    "YouTube": dict(kind="hk", n=6000, m=3, p_triad=0.35),
}

DATASETS = list(CONFIGS)


@dataclass(frozen=True)
class Stream:
    """An edge stream: arrival position ``t``, canonical endpoints
    ``u < v``, and precomputed canonical edge keys ``k`` (uint64)."""

    name: str
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    k: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.t)

    @property
    def n_nodes(self) -> int:
        return len(np.unique(np.concatenate([self.u, self.v])))


_STREAMS: dict[tuple, Stream] = {}


def _generate(name: str, scale: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    cfg = dict(CONFIGS[name])
    kind = cfg.pop("kind")
    if kind == "hk":
        n = max(cfg["m"] + 2, int(cfg["n"] * scale))
        return gen.holme_kim(n, cfg["m"], cfg["p_triad"], seed=seed)
    if kind == "cliques":
        # k scales too, else tiny test instances would keep full cliques.
        return gen.planted_cliques(
            max(2, int(cfg["n_cliques"] * scale)),
            max(6, int(cfg["k"] * scale)),
            int(cfg["noise_nodes"] * scale),
            int(cfg["noise_edges"] * scale),
            seed=seed,
        )
    if kind == "hub":
        return gen.hub_graph(
            max(64, int(cfg["n"] * scale)), max(32, int(cfg["n_edges"] * scale)),
            cfg["alpha"], seed=seed,
        )
    raise ValueError(f"unknown generator kind {kind!r}")


def load_stream(name: str, scale: float = 1.0, seed: int = 7) -> Stream:
    """Generate the named dataset's edge stream, once per process.

    Every caller shares the returned arrays, so they are read-only.
    """
    key = (name, scale, seed)
    if key not in _STREAMS:
        u, v = _generate(name, scale, seed)
        t, u, v = gen.to_stream(u, v, seed=seed + 1)
        arrays = (t, u, v, edge_key(u, v))
        for a in arrays:
            a.flags.writeable = False
        _STREAMS[key] = Stream(name, *arrays)
    return _STREAMS[key]


def stream_pdf(stream: Stream) -> pd.DataFrame:
    """Pandas frame ``(t, a, b, k)`` of a stream (k as int64 bit-pattern,
    Spark has no unsigned type)."""
    return pd.DataFrame(
        {
            "t": stream.t,
            "a": stream.u,
            "b": stream.v,
            "k": stream.k.view(np.int64),
        }
    )


def edge_stream_df(spark: SparkSession, stream: Stream) -> DataFrame:
    """Spark DataFrame view of a stream: ``(t, a, b, k)``, a < b."""
    return spark.createDataFrame(stream_pdf(stream))
