"""Pure helpers for the benchmark: percentiles, fixed/marginal split and
Spark job-group accounting. No Spark import, so they are unit-testable."""
from __future__ import annotations

import math

#: percentiles tried, highest first, when reporting a tail.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: samples a reported tail percentile must have beyond it.
MIN_BEYOND = 10


def tail_percentile(values):
    """Highest percentile of ``values`` with at least :data:`MIN_BEYOND`
    samples above it.

    Returns ``(pct, value, n_beyond)`` or ``None`` when even the median
    has fewer than :data:`MIN_BEYOND` samples beyond it. The percentile is
    the nearest-rank sample ``sorted[ceil(pct/100 * n) - 1]``; samples
    beyond it are the ``n - ceil(pct/100 * n)`` ranks after it.
    """
    vals = sorted(values)
    n = len(vals)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return pct, float(vals[rank - 1]), beyond
    return None


def fixed_marginal(t_one: float, t_many: float, n_many: int) -> tuple[float, float]:
    """Split call time into fixed cost and marginal cost per seed, from
    a 1-seed call taking ``t_one`` and an ``n_many``-seed call taking
    ``t_many``: ``t = fixed + n * per_seed``."""
    if n_many <= 1:
        raise ValueError("the many-seed call needs more than one seed")
    per_seed = (t_many - t_one) / (n_many - 1)
    return t_one - per_seed, per_seed


def group_work(tracker, group: str, seen_stages: set[int]) -> tuple[int, int]:
    """Spark jobs and completed tasks tagged with job group ``group``.

    ``tracker`` is a ``pyspark.StatusTracker``. A stage that a later
    job reuses (a skipped shuffle stage) is listed by both jobs; only
    the first listing counts, so ``seen_stages`` is shared by every
    group of a run. A stage that is no longer retained counts no tasks.
    """
    jobs = tracker.getJobIdsForGroup(group)
    tasks = 0
    for job_id in jobs:
        info = tracker.getJobInfo(job_id)
        if info is None:
            continue
        for stage_id in info.stageIds:
            if stage_id in seen_stages:
                continue
            seen_stages.add(stage_id)
            stage = tracker.getStageInfo(stage_id)
            if stage is not None:
                tasks += stage.numCompletedTasks
    return len(jobs), tasks
