"""Post-run auditor for dendrogram integrity.

Faldu et al. ("A Closer Look at Lightweight Graph Reordering") observe
that reordering pipelines whose invariants are silently violated still
emit *plausible* permutations — the damage shows up as degraded locality,
not as a crash.  This module makes the invariants machine-checked.  After
a (possibly fault-injected) parallel detection run, :func:`audit_dendrogram`
verifies:

1. **forest** — ``child``/``sibling`` links form an acyclic forest whose
   top-level subtrees partition the vertex set exactly
   (:meth:`Dendrogram.validate`, the bounded ordering DFS: a corrupted
   link is a violation, not a loop);
2. **counts** — ``stats.merges + stats.toplevels == n`` and the recorded
   top-level count matches the dendrogram;
3. **degree conservation** — each root's final atomic community degree
   equals the sum of its members' initial Newman degrees (CAS merges must
   neither lose nor double-count degree mass), and no root is left in the
   invalidated state;
4. **ordering** — the generated ordering is a bijection on ``[0, n)``;
5. **modularity** — the final modularity of the extracted communities is
   finite (NaN/inf betrays corrupted weights or a broken partition).

Violations are collected, not raised one at a time, so a single audit
reports everything that went wrong; ``raise_if_failed()`` converts a bad
report into an :class:`~repro.errors.AuditError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.community.dendrogram import Dendrogram
from repro.community.modularity import modularity, newman_degrees
from repro.errors import AuditError, GraphFormatError, PermutationError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.perm import validate_permutation
from repro.parallel.atomics import INVALID_DEGREE
from repro.rabbit.common import RabbitStats

__all__ = ["AuditReport", "audit_dendrogram"]


@dataclass
class AuditReport:
    """Outcome of one audit: which checks ran, what they found."""

    passed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            raise AuditError(
                "dendrogram audit failed: " + "; ".join(self.violations)
            )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else "FAILED"
        lines = [f"audit {status}: {len(self.passed)} checks passed"]
        lines += [f"  violation: {v}" for v in self.violations]
        lines += [f"  skipped: {s}" for s in self.skipped]
        return "\n".join(lines)


def audit_dendrogram(
    graph: CSRGraph,
    dendrogram: Dendrogram,
    *,
    stats: RabbitStats | None = None,
    degrees: np.ndarray | None = None,
    rtol: float = 1e-9,
    atol: float = 1e-6,
) -> AuditReport:
    """Audit *dendrogram* against *graph*; returns an :class:`AuditReport`.

    Parameters
    ----------
    stats:
        run counters; enables the ``merges + toplevels == n`` check.
    degrees:
        the final per-vertex community degrees (the atomic array's view
        after workers quiesced); enables degree conservation.
    """
    report = AuditReport()
    n = dendrogram.num_vertices

    if n != graph.num_vertices:
        report.violations.append(
            f"dendrogram has {n} vertices but graph has {graph.num_vertices}"
        )
        return report

    try:
        dendrogram.validate()
    except GraphFormatError as exc:
        forest_ok = False
        report.violations.append(f"forest: {exc}")
    else:
        forest_ok = True
        report.passed.append("forest")

    if stats is not None:
        if stats.merges + stats.toplevels != n:
            report.violations.append(
                f"counts: merges ({stats.merges}) + toplevels "
                f"({stats.toplevels}) != n ({n})"
            )
        elif stats.toplevels != dendrogram.toplevel.size:
            report.violations.append(
                f"counts: stats.toplevels ({stats.toplevels}) != recorded "
                f"top-level vertices ({dendrogram.toplevel.size})"
            )
        else:
            report.passed.append("counts")
    else:
        report.skipped.append("counts (no stats)")

    if degrees is not None and forest_ok and n > 0:
        base = newman_degrees(graph)
        bad = None
        for root in dendrogram.toplevel:
            r = int(root)
            d = float(degrees[r])
            if d == INVALID_DEGREE or not np.isfinite(d):
                bad = f"root {r} left in the invalidated state"
                break
            expect = float(base[dendrogram.members(r)].sum())
            if not np.isclose(d, expect, rtol=rtol, atol=atol):
                bad = (
                    f"root {r} holds degree {d!r} but its members sum to "
                    f"{expect!r}"
                )
                break
        if bad is None:
            report.passed.append("degree-conservation")
        else:
            report.violations.append(f"degree-conservation: {bad}")
    elif degrees is None:
        report.skipped.append("degree-conservation (no degrees)")
    else:
        report.skipped.append("degree-conservation (forest invalid)")

    if forest_ok:
        try:
            validate_permutation(dendrogram.ordering(), n)
            report.passed.append("ordering-bijection")
        except (PermutationError, ReproError) as exc:
            report.violations.append(f"ordering-bijection: {exc}")
        labels = dendrogram.community_labels()
        q = modularity(graph, labels) if n else 0.0
        if np.isfinite(q):
            report.passed.append("modularity-finite")
        else:
            report.violations.append(
                f"modularity-finite: modularity is {q!r}"
            )
    else:
        report.skipped.append("ordering-bijection (forest invalid)")
        report.skipped.append("modularity-finite (forest invalid)")

    return report
