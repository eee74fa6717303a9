"""Shipped lint rules; importing this package registers all of them.

Rule catalogue (ids, rationale, suppression syntax): ``docs/CHECKS.md``.
"""

from __future__ import annotations

from repro.check import analyzers
from repro.check.rules import concurrency, determinism, imports, io

__all__ = ["analyzers", "concurrency", "determinism", "imports", "io"]
