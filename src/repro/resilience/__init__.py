"""Resilience layer: checkpoint/resume, run supervision, degradation.

The paper's pitch is that reordering is cheap enough to run *just in
time* inside a production pipeline — which means a run must survive what
production brings: killed processes and wall-clock / memory budgets.
This package provides the three pieces, for the sequential engines
(``fast`` and ``dict``; the Algorithm 3 model neither checkpoints nor
runs supervised):

* :mod:`repro.resilience.checkpoint` — periodic, atomically-written,
  CRC-guarded snapshots of the aggregation state, restorable into either
  sequential engine (``resume=`` on the detection entry points);
* :mod:`repro.resilience.supervisor` — a :class:`RunSupervisor` wrapping
  an entry point with budgets, a budget watchdog, and a degradation
  ladder ``fastseq → dict``;
* :mod:`repro.resilience.policy` — the declarative budget/ladder policy the
  supervisor executes.

See ``docs/RESILIENCE.md`` for the checkpoint format and the policy
semantics.
"""

from __future__ import annotations

from repro.resilience.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    Snapshot,
    as_checkpointer,
    build_snapshot,
    graph_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    require_fingerprint_match,
    save_checkpoint,
)
from repro.resilience.policy import (
    Budgets,
    LadderRung,
    SupervisorPolicy,
    default_ladder,
    parse_ladder,
)
from repro.resilience.runtime import RunControl, current_control, heartbeat
from repro.resilience.supervisor import (
    RunAttempt,
    RunReport,
    RunSupervisor,
    current_rss_bytes,
    supervised_rabbit_order,
)

__all__ = [
    "CheckpointConfig",
    "Checkpointer",
    "Snapshot",
    "as_checkpointer",
    "build_snapshot",
    "graph_fingerprint",
    "latest_checkpoint",
    "load_checkpoint",
    "require_fingerprint_match",
    "save_checkpoint",
    "Budgets",
    "LadderRung",
    "SupervisorPolicy",
    "default_ladder",
    "parse_ladder",
    "RunControl",
    "current_control",
    "heartbeat",
    "RunAttempt",
    "RunReport",
    "RunSupervisor",
    "current_rss_bytes",
    "supervised_rabbit_order",
]
