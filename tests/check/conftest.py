"""Fixtures shared by the check-subsystem tests."""

from __future__ import annotations

import pytest

from repro.check.analyzers import ownership
from repro.check.facts import OwnershipFact

#: A bump-allocator cursor guarded by reserve/commit-style entry points:
#: the protected state the ownership fixtures below are written against.
ARENA_CURSOR = OwnershipFact(
    attr="_cursor",
    owner_modules=("repro.rabbit.arena",),
    entry_points=(
        "repro.rabbit.arena.AdjacencyArena.__init__",
        "repro.rabbit.arena.AdjacencyArena.reserve",
        "repro.rabbit.arena.AdjacencyArena.commit",
        "repro.rabbit.arena.AdjacencyArena.store",
    ),
    note="a bump-allocator cursor",
)


@pytest.fixture
def arena_cursor_fact(monkeypatch):
    """Declare :data:`ARENA_CURSOR` in the ownership table for one test.
    The shipped tree has no such allocator, so the ``state-ownership``
    analyzer's sensitivity is tested on fixtures."""
    monkeypatch.setattr(
        ownership, "OWNERSHIP_FACTS", (*ownership.OWNERSHIP_FACTS, ARENA_CURSOR)
    )
