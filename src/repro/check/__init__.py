"""Project static analysis: the ``repro.check`` subsystem.

Two halves, both built for the invariants this codebase actually relies
on rather than generic style:

* :mod:`repro.check.engine` — an AST-based lint engine with a rule
  registry, per-line / per-file ``# repro: ignore[rule-id]``
  suppressions, and text/JSON reporters.  Eleven project-specific
  rules, one per contract: the eight lexical ones live in
  :mod:`repro.check.rules` (no locks on the lock-free aggregation path,
  determinism, import hygiene, atomic artifact writes).  Run it as
  ``python -m repro check src/``.
* :mod:`repro.check.races` — a dynamic race detector for the parallel
  aggregation pipeline: instrumented atomics and shared arrays record
  per-worker event logs, and a vector-clock happens-before checker flags
  unsynchronised conflicting accesses.  Wired into
  :func:`repro.rabbit.par.community_detection_par` (``detect_races=``)
  and ``repro stress --races``.

On top of the engine sits the interprocedural layer:
:mod:`repro.check.callgraph` builds the project call graph and
:mod:`repro.check.analyzers` runs three dataflow analyzers over it —
the only rules for the event-loop, shared-state-ownership (against the
:mod:`repro.check.facts` table) and index-dtype contracts.  Their
findings carry the call path that reached the flagged line.

The whole subsystem self-hosts: ``repro check src/`` must run clean, so
every intentional exception in the tree carries an inline suppression
with its justification, and the self-host tests
(``tests/check/test_selfhost.py``) reject a pragma without one or one
that names no live rule for its file.
"""

from __future__ import annotations

from repro.check.engine import (
    CheckReport,
    FileContext,
    Finding,
    Rule,
    Suppression,
    all_rules,
    get_rule,
    register_rule,
    run_check,
    scan_suppressions,
)

__all__ = [
    "CheckReport",
    "FileContext",
    "Finding",
    "Rule",
    "Suppression",
    "all_rules",
    "get_rule",
    "register_rule",
    "run_check",
    "scan_suppressions",
]
