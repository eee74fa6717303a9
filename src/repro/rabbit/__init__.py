"""Rabbit Order: the paper's primary contribution.

Public API: :func:`rabbit_order` (Algorithm 2) plus the component pieces.
Three detection paths remain, each with one job:

* :func:`community_detection_fastseq` — the production engine, the
  compiled sweep (what ``rabbit_order(graph)`` runs);
* :func:`community_detection_seq` with ``engine="dict"`` — the reference
  oracle every other path must match bit for bit;
* :func:`community_detection_par` — Algorithm 3 on the oracle's state
  under the seeded interleaving model (CAS, lazy aggregation, fault
  injection, race certification).
"""

from repro.rabbit.audit import AuditReport, audit_dendrogram
from repro.rabbit.common import AggregationState, RabbitStats
from repro.rabbit.dynamic import DynamicReorderer, ReorderEvent
from repro.rabbit.eager import community_detection_eager
from repro.rabbit.order import (
    RabbitResult,
    ordering_generation_seq,
    rabbit_order,
)
from repro.rabbit.native import community_detection_fastseq
from repro.rabbit.par import ParallelDetectionResult, community_detection_par
from repro.rabbit.seq import community_detection_seq

__all__ = [
    "rabbit_order",
    "RabbitResult",
    "RabbitStats",
    "AggregationState",
    "community_detection_seq",
    "community_detection_fastseq",
    "community_detection_par",
    "community_detection_eager",
    "DynamicReorderer",
    "ReorderEvent",
    "ParallelDetectionResult",
    "ordering_generation_seq",
    "AuditReport",
    "audit_dendrogram",
]
