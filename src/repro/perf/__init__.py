"""Performance engineering: parallel deterministic trial execution.

``repro.perf`` is the execution layer under every experiment runner:

* :func:`run_trials` fans independent trials (Monte-Carlo repetitions,
  sweep points, chaos jobs) out over a ``ProcessPoolExecutor`` and
  returns their results **in submission order**, so any fold over them
  is order-deterministic.  It owns everything a fan-out shares: base
  snapshots reach trials through :func:`base_snapshot` (fork workers
  inherit the parent's cached build), and the caller's
  :class:`Sinks` (metrics registry, span tracer, event trace, volatile
  timings) reach each trial fresh and fold back in trial order, for
  any worker count;
* :func:`canonical_json` / :func:`rows_digest` give every runner a
  stable result fingerprint — the parallelism safety gate is that the
  digest is identical for ``--workers 1`` and ``--workers N``.

The combination makes "parallel" an execution detail rather than a
semantic one: experiment rows are a pure function of the config.  Every
runner therefore says "how to run" the same way,
``run_x(config, workers=None, sinks=None)`` (plus ``audit`` where it
audits), and hands both straight to :func:`run_trials`.
"""

from repro.perf.compact import CompactOverlay, CompactSnapshot
from repro.perf.digest import canonical_json, rows_digest
from repro.perf.parallel import (
    Sinks,
    base_snapshot,
    resolve_workers,
    run_trials,
)

__all__ = [
    "CompactOverlay",
    "CompactSnapshot",
    "canonical_json",
    "rows_digest",
    "Sinks",
    "resolve_workers",
    "run_trials",
    "base_snapshot",
]
