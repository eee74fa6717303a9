"""Interprocedural dataflow analyzers, registered as project-wide rules.

Importing this package registers the three analyzers, each the only
rule for its contract:

* ``async-blocking-reachable`` (:mod:`.asyncreach`) — blocking sinks
  called in a coroutine or reachable from one through sync helper
  chains.
* ``state-ownership`` (:mod:`.ownership`) — any access to protected
  shared state from outside its owner modules, and writes reached from
  outside the owning protocol.
* ``dtype-flow`` (:mod:`.dtypeflow`) — int32/platform-int dtypes and
  float index arrays where they are built, and int32/float values
  flowing into index positions across assignments, returns, and calls.

All three share one call-graph build per run
(:func:`repro.check.interproc.project_state`); findings that follow a
chain report at the *sink* line with the full call/flow path attached
as ``Finding.trace``.
"""

from __future__ import annotations

from repro.check.analyzers import asyncreach, dtypeflow, ownership

__all__ = ["asyncreach", "dtypeflow", "ownership"]
