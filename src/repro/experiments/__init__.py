"""Experiment harness: one module per figure of the paper.

Every module exposes ``run_figN(config) -> list[dict]`` returning tidy
rows (one dict per plotted point, including the matching closed-form
expectation where one exists) plus a module-level default config at
paper scale and a ``fast()`` config for CI-sized runs.  The rows are
rendered as tables and CSV by :mod:`repro.experiments.runner`.

Runners share one contract: ``run_x(config, workers=None, sinks=None)``
plus ``audit`` where the runner audits, each argument only where the
runner uses it.  ``workers`` fans trials out (rows are identical for
any value) and ``sinks`` is a :class:`repro.perf.Sinks` carrying the
caller's metrics registry, span tracer, event trace and volatile
timings.  Configs hold science parameters only.
"""

from repro.experiments.config import (
    Fig2Config,
    Fig3Config,
    Fig4Config,
    Fig5Config,
    Fig6Config,
)
from repro.experiments.fig2_failures import run_fig2
from repro.experiments.fig3_collusion import run_fig3
from repro.experiments.fig4_params import run_fig4a, run_fig4b
from repro.experiments.fig5_churn import run_fig5
from repro.experiments.fig6_latency import run_fig6
from repro.experiments.ablation import (
    HintStalenessConfig,
    ScatterConfig,
    TradeoffConfig,
    run_hint_staleness,
    run_scatter,
    run_tradeoff,
)
from repro.experiments.timing_attack import TimingAttackConfig, run_timing_attack
from repro.experiments.secure_routing_exp import (
    SecureRoutingConfig,
    run_secure_routing,
)
from repro.experiments.session_survival import (
    SessionSurvivalConfig,
    run_session_survival,
)
from repro.experiments.anonymity_comparison import (
    ComparisonConfig,
    run_anonymity_comparison,
)
from repro.experiments.reply_durability import (
    ReplyDurabilityConfig,
    run_reply_durability,
)
from repro.experiments.scale_churn import ScaleChurnConfig, run_scale_churn
from repro.experiments.scale_latency import ScaleLatencyConfig, run_scale_latency
from repro.experiments.config import DurabilityConfig
from repro.experiments.durability import run_durability
from repro.experiments.runner import render_table, rows_to_csv

__all__ = [
    "Fig2Config",
    "Fig3Config",
    "Fig4Config",
    "Fig5Config",
    "Fig6Config",
    "run_fig2",
    "run_fig3",
    "run_fig4a",
    "run_fig4b",
    "run_fig5",
    "run_fig6",
    "TradeoffConfig",
    "HintStalenessConfig",
    "ScatterConfig",
    "run_tradeoff",
    "run_hint_staleness",
    "run_scatter",
    "TimingAttackConfig",
    "run_timing_attack",
    "SecureRoutingConfig",
    "run_secure_routing",
    "SessionSurvivalConfig",
    "run_session_survival",
    "ComparisonConfig",
    "run_anonymity_comparison",
    "ReplyDurabilityConfig",
    "run_reply_durability",
    "ScaleChurnConfig",
    "run_scale_churn",
    "ScaleLatencyConfig",
    "run_scale_latency",
    "DurabilityConfig",
    "run_durability",
    "render_table",
    "rows_to_csv",
]
