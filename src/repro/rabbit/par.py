"""Parallel Rabbit Order community detection (Algorithm 3).

The worker logic is one generator per vertex chunk; yields mark the
scheduling points that bracket atomic operations, and the workers run
under :class:`~repro.parallel.scheduler.InterleavingScheduler` — a
deterministic, seed-replayable model of ``num_threads`` hardware threads
interleaving at exactly those points.  This is the paper-fidelity model
of Algorithm 3 (CAS merges, lazy aggregation), not a production engine:
the workers share the dict reference state
(:class:`~repro.rabbit.common.AggregationState`) and its fold
(:func:`~repro.rabbit.common.aggregate_vertex`), and scalability is
*projected* from the work and contention counters by
:mod:`repro.parallel.costmodel`.

Faithfulness notes relative to the paper's pseudocode:

* ``atom[u] = (degree, child)`` is :class:`AtomicPairArray`; invalidation
  uses ``INVALID_DEGREE`` for ``UINT64_MAX``.
* Algorithm 3 line 16's validity test is implemented as "destination must
  be *valid* to register" (the transcribed pseudocode's comparison is
  inverted relative to the prose; the prose is authoritative).
* Neighbours whose degree is invalidated while we evaluate ΔQ cannot be
  scored; if one exists and nothing valid is mergeable we roll back and
  retry (the paper's line 25), with a retry cap after which the vertex is
  decided from valid neighbours only — this bounds livelock between
  mutually-retrying vertices, a case the paper leaves unspecified.

The driver runs the degree-ordered chunk list as a sequence of *rounds*:
each round is one seeded scheduler run over a slice of the chunks, ends
when every worker has quiesced, and is followed by crash recovery (under
a fault plan) and a snapshot (when checkpointing).  An uncheckpointed run
is a single round seeded with ``scheduler_seed`` and the fault plan's own
seed.  With ``checkpoint=``/``resume=`` a round holds
``ceil(every / chunk_size)`` chunks and is seeded with
``derive_seed(seed, chunks_done)`` — its schedule depends only on where
it starts, so a resumed run replays exactly the rounds the uninterrupted
run executes.  Generator frames cannot be serialised, so a round boundary
is the only point at which the shared state is a snapshot.

Fault tolerance (beyond the paper): with a
:class:`~repro.parallel.faults.FaultPlan`, the scheduler may stall or
*crash* workers and the atomics may lie (forced CAS failures, spurious
invalidation windows).  After each round a recovery pass repairs the
shared state a dead worker left behind — committed CAS merges whose
``dest`` write never landed, dangling pre-CAS ``sibling`` writes,
vertices stranded in the invalidated state — and drives the residual
(orphaned) vertex set through a *sequential* fallback aggregation pass.
The fallback runs with injection disabled and all community degrees
restored, so it cannot retry indefinitely: termination is guaranteed, a
checkpoint never stores a dead worker's partial writes, and the result
is a complete dendrogram, auditable via ``audit=True``.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.community.dendrogram import (
    NO_VERTEX,
    Dendrogram,
    chain_walk,
    dfs_preorder,
)
from repro.community.modularity import newman_degrees
from repro.errors import AuditError, GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.validate import require_symmetric
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.parallel.atomics import INVALID_DEGREE, AtomicPairArray, OpCounter
from repro.parallel.faults import (
    FaultCounters,
    FaultInjector,
    FaultPlan,
    FaultyAtomicPairArray,
)
from repro.parallel.scheduler import InterleavingScheduler, drive
from repro.rabbit.audit import AuditReport, audit_dendrogram
from repro.rabbit.common import AggregationState, RabbitStats, aggregate_vertex
from repro.rabbit.seq import restore_stats
from repro.resilience.checkpoint import (
    Snapshot,
    as_checkpointer,
    graph_fingerprint,
    require_fingerprint_match,
)
from repro.resilience.policy import derive_seed
from repro.resilience.runtime import heartbeat

__all__ = ["community_detection_par", "ParallelDetectionResult"]


class ParallelDetectionResult:
    """Dendrogram plus instrumentation from a parallel detection run."""

    def __init__(
        self,
        dendrogram: Dendrogram,
        stats: RabbitStats,
        op_counter: OpCounter,
        num_workers: int,
        worker_work: np.ndarray,
        fault_counters: FaultCounters | None = None,
        audit_report: AuditReport | None = None,
        race_report=None,
    ):
        self.dendrogram = dendrogram
        self.stats = stats
        self.op_counter = op_counter
        self.num_workers = num_workers
        #: edges folded by each worker (load-balance signal for the model)
        self.worker_work = worker_work
        #: faults actually injected (None when fault injection is off)
        self.fault_counters = fault_counters
        #: post-run audit report (None unless ``audit=True``)
        self.audit_report = audit_report
        #: happens-before :class:`~repro.check.races.RaceReport`
        #: (None unless ``detect_races=True``)
        self.race_report = race_report


def _worker(
    state: AggregationState,
    atoms: AtomicPairArray,
    chunk: np.ndarray,
    toplevel_sink: list[int],
    stats: RabbitStats,
    *,
    merge_threshold: float,
    max_attempts: int,
):
    """Process one chunk of vertices; a generator yielding at scheduling
    points (see module docstring).

    The fold (Algorithm 4, :func:`~repro.rabbit.common.aggregate_vertex`)
    runs between two yields with no internal scheduling point; the
    scoring loop then visits the folded ``(neighbour, weight)`` pairs in
    first-encounter order, the self-loop excluded.
    """
    m = state.total_weight
    two_m = 2.0 * m
    dest = state.dest
    sibling = state.sibling
    pending: deque[tuple[int, int]] = deque((int(u), 0) for u in chunk)
    while pending:
        u, attempts = pending.popleft()
        # First attempts count as supervisor progress; retries do not, so
        # a CAS-failure livelock storm registers as a stall, not progress.
        heartbeat(1 if attempts == 0 else 0)
        yield
        degree_u = atoms.swap_degree(u, INVALID_DEGREE)  # invalidate u (line 9)
        yield
        neighbors = list(aggregate_vertex(state, u, stats).items())
        neighbors.pop()  # the self-loop key u, always inserted last
        # Score neighbours with valid (finite) community degrees.
        best_v = -1
        best_dq = -np.inf
        # Upper bound on the gain any currently-invalidated neighbour
        # could still offer (its degree is unreadable; dq <= 2*w/(2m)).
        invalid_bound = -np.inf
        saw_invalid = False
        penalty = degree_u / (two_m * two_m)
        inv_2m = 1.0 / two_m
        for v, w in neighbors:
            yield
            d_v = atoms.load_degree(v)
            if d_v == INVALID_DEGREE:
                saw_invalid = True
                bound = 2.0 * w * inv_2m
                if bound > invalid_bound:
                    invalid_bound = bound
                continue
            dq = 2.0 * (w * inv_2m - d_v * penalty)
            if dq > best_dq:
                best_dq = dq
                best_v = v
        mergeable = best_v >= 0 and best_dq > merge_threshold
        if not mergeable:
            if saw_invalid and attempts < max_attempts:
                # A busy neighbour might still be the right destination:
                # roll back and retry the whole merge later (line 25).
                atoms.store_degree(u, degree_u)
                stats.retries += 1
                pending.append((u, attempts + 1))
                continue
            atoms.store_degree(u, degree_u)  # restore (line 12)
            toplevel_sink.append(u)
            stats.toplevels += 1
            continue
        yield
        d_v, child_v = atoms.load(best_v)  # line 15
        if d_v == INVALID_DEGREE:  # line 16: destination busy
            atoms.store_degree(u, degree_u)
            stats.retries += 1
            if attempts < max_attempts:
                pending.append((u, attempts + 1))
            else:
                toplevel_sink.append(u)
                stats.toplevels += 1
            continue
        sibling[u] = child_v  # line 17
        yield
        if atoms.cas(best_v, (d_v, child_v), (d_v + degree_u, u)):  # lines 18-20
            dest[u] = best_v  # line 21; u stays invalidated forever
            stats.merges += 1
            continue
        # CAS failed: roll back and retry later (lines 23-25).
        sibling[u] = NO_VERTEX
        atoms.store_degree(u, degree_u)
        stats.retries += 1
        if attempts < max_attempts:
            pending.append((u, attempts + 1))
        else:
            toplevel_sink.append(u)
            stats.toplevels += 1


def _subtree_degree(
    child: np.ndarray,
    sibling: np.ndarray,
    base_degrees: np.ndarray,
    root: int,
) -> float:
    """Sum of the initial Newman degrees over *root*'s subtree.

    This is exactly the degree mass the CAS protocol accumulates into a
    community root, so it reconstructs the value a dead worker swapped
    out and lost.  The subtree comes from the bounded ordering DFS, summed
    in its pop order: corrupted links raise instead of looping.
    """
    try:
        members = dfs_preorder(child, sibling, [int(root)])
    except GraphFormatError as exc:
        raise AuditError(
            "corrupted child/sibling links encountered while restoring "
            f"the degree of vertex {root}: {exc}"
        ) from exc
    total = 0.0
    for v in members:
        total += float(base_degrees[v])
    return total


def _recover_from_faults(
    state: AggregationState,
    atoms: AtomicPairArray,
    base_degrees: np.ndarray,
    sinks: list[list[int]],
    admitted: np.ndarray,
    *,
    vertex_work: np.ndarray,
    merge_threshold: float,
    max_attempts: int,
) -> RabbitStats:
    """Crash recovery: repair partial writes, then sequentially finish.

    Call with fault injection already disabled.  Dead workers leave three
    kinds of damage, each repaired here:

    1. *committed-but-unrecorded merges* — the CAS landed (the vertex is
       linked into a destination's child chain) but the worker died
       before writing ``dest``; the merge is completed from the chain.
    2. *dangling pre-CAS writes* — ``sibling`` was set (Algorithm 3
       line 17) but the CAS never executed; the link is cleared.
    3. *stranded invalidations* — the vertex's degree was swapped to
       ``INVALID_DEGREE`` and the old value died with the worker; it is
       reconstructed as the subtree sum of initial Newman degrees (the
       protocol's conservation invariant).

    The residual vertices (orphans: neither merged nor decided top-level,
    including untouched vertices from a dead worker's queue) are then
    driven through the normal worker logic *sequentially*.

    *admitted* is the boolean mask of vertices the rounds so far have
    handed to workers; the orphan scan is restricted to it, because
    recovery runs after every round, when the unprocessed suffix of the
    visit order is still legitimately untouched (not orphaned).  Chained
    vertices are always admitted, so steps 1–2 need no mask.  With
    injection off and every community degree valid, no retry path can
    trigger, so this pass terminates in one sweep — bounded livelock
    degrades to guaranteed termination with a complete dendrogram.  The
    fallback pass counts its work into the run's *vertex_work*.
    """
    rec = RabbitStats()
    n = base_degrees.size
    dest = state.dest
    sibling = state.sibling
    child = atoms.children_view()
    in_sink = np.zeros(n, dtype=bool)
    for sink in sinks:
        for u in sink:
            in_sink[u] = True
    # 1. Parents according to the authoritative CAS'd chains.
    try:
        owners, links = chain_walk(child.tolist(), sibling.tolist(), range(n))
    except GraphFormatError as exc:
        raise AuditError(f"cannot recover: {exc}") from exc
    parent = np.full(n, NO_VERTEX, dtype=np.int64)
    parent[links] = owners
    chained = parent != NO_VERTEX
    unmerged = dest == np.arange(n, dtype=np.int64)
    # 2. Complete merges whose dest write was lost in a crash.
    for u in np.flatnonzero(chained & unmerged):
        dest[u] = parent[u]
        rec.merges += 1
        rec.partial_repairs += 1
    # 3. Orphans: neither merged, nor in a chain, nor decided top-level.
    orphans = np.flatnonzero(unmerged & ~chained & ~in_sink & admitted)
    if orphans.size == 0:
        return rec
    rec.orphans_recovered = int(orphans.size)
    for u in orphans:
        u = int(u)
        sibling[u] = NO_VERTEX  # clear a dangling pre-CAS sibling write
        if atoms.load_degree(u) == INVALID_DEGREE:
            atoms.store_degree(
                u, _subtree_degree(child, sibling, base_degrees, u)
            )
    # 4. Sequential fallback pass, smallest base degree first (the same
    # admission policy as the parallel run).
    order = orphans[np.argsort(base_degrees[orphans], kind="stable")]
    rec_sink: list[int] = []
    fallback = RabbitStats(vertex_work=vertex_work)
    drive(
        _worker(
            state,
            atoms,
            order,
            rec_sink,
            fallback,
            merge_threshold=merge_threshold,
            max_attempts=max_attempts,
        )
    )
    rec.merge_from(fallback)
    rec.fallback_merges = fallback.merges
    rec.fallback_toplevels = fallback.toplevels
    sinks.append(rec_sink)
    return rec


def community_detection_par(
    graph: CSRGraph,
    *,
    num_threads: int = 4,
    scheduler_seed: int = 0,
    chunk_size: int | None = None,
    merge_threshold: float = 0.0,
    max_attempts: int = 100,
    fault_plan: FaultPlan | None = None,
    audit: bool = False,
    detect_races: bool = False,
    checkpoint=None,
    resume: Snapshot | None = None,
) -> ParallelDetectionResult:
    """Parallel incremental aggregation (Algorithm 3) under the seeded
    interleaving model.

    Parameters
    ----------
    num_threads:
        modelled hardware threads: the scheduler keeps this many worker
        tasks live at once (its admission window).
    scheduler_seed:
        seed of the interleaving schedule; the same seed replays the same
        run exactly.
    chunk_size:
        vertices per worker task; defaults to fine-grained chunks of at
        most 32 vertices (dynamic scheduling smooths imbalance).
    fault_plan:
        inject faults from this seed-replayable plan (forced CAS
        failures, spurious invalidation windows, worker stalls/crashes)
        and run crash recovery after every round.  ``None`` (the
        default) uses the unfaulted atomics and no scheduler hook.
    audit:
        run the post-run integrity auditor
        (:func:`repro.rabbit.audit.audit_dendrogram`) and raise
        :class:`~repro.errors.AuditError` on any violated invariant.
    detect_races:
        trace every shared-memory access of the aggregation phase and
        run the happens-before race detector
        (:mod:`repro.check.races`) over the log; the verdict is attached
        as ``result.race_report``.  Off by default (a single predictable
        ``None`` test per atomic operation).
    checkpoint:
        a :class:`~repro.resilience.checkpoint.CheckpointConfig` or
        :class:`~repro.resilience.checkpoint.Checkpointer`: split the run
        into rounds of ~``every`` vertices and snapshot the shared state
        after each (module docstring).  Incompatible with
        ``detect_races`` (the tracing proxies cannot cross a round
        boundary).
    resume:
        a :class:`~repro.resilience.checkpoint.Snapshot` (from any
        engine) to restore and continue from.  The completed run is
        bit-identical to an uninterrupted run in the same checkpointed
        mode.
    """
    require_symmetric(graph, "Rabbit Order")
    n = graph.num_vertices
    checkpointed = checkpoint is not None or resume is not None
    if checkpointed and detect_races:
        raise ValueError(
            "detect_races cannot be combined with checkpoint/resume: "
            "the race log cannot span a quiescence boundary"
        )
    if graph.total_edge_weight() <= 0.0:
        stats = RabbitStats(toplevels=n, vertex_work=np.zeros(n, dtype=np.int64))
        dendrogram = Dendrogram(
            child=np.full(n, NO_VERTEX, dtype=np.int64),
            sibling=np.full(n, NO_VERTEX, dtype=np.int64),
            toplevel=np.arange(n, dtype=np.int64),
        )
        get_registry().absorb_rabbit_stats(stats)
        audit_report = None
        if audit:
            audit_report = audit_dendrogram(graph, dendrogram, stats=stats)
            audit_report.raise_if_failed()
        return ParallelDetectionResult(
            dendrogram=dendrogram,
            stats=stats,
            op_counter=OpCounter(),
            num_workers=0,
            worker_work=np.zeros(0, dtype=np.int64),
            audit_report=audit_report,
        )
    checkpointer = as_checkpointer(checkpoint)
    with span("rabbit.par.setup", n=n):
        state = AggregationState.initialize(graph)
        counter = OpCounter()
        base_degrees = newman_degrees(graph)
        injector = None if fault_plan is None else FaultInjector(fault_plan)
        if injector is None:
            atoms = AtomicPairArray(base_degrees, counter)
        else:
            atoms = FaultyAtomicPairArray(base_degrees, injector, counter)
        # Aggregation must see children the instant their CAS lands, exactly as
        # the paper's single 16-byte record guarantees: alias the dendrogram
        # child links to the atomic array's storage.
        state.child = atoms.children_view()
        # One per-vertex work array for the whole run: every worker task
        # and the recovery pass count into it.
        stats = RabbitStats(vertex_work=np.zeros(n, dtype=np.int64))
        toplevel: list[int] = []
        worker_work: list[int] = []  # edges folded per completed chunk
        if checkpointed:
            fingerprint = graph_fingerprint(graph, merge_threshold=merge_threshold)
        if resume is None:
            start = 0
            order = np.argsort(graph.degrees(), kind="stable")
        else:
            require_fingerprint_match(resume, fingerprint)
            start = resume.progress
            order = resume.order.copy()
            state.restore(resume)  # child links land in the atomics (aliased)
            # Merged vertices legitimately carry INVALID_DEGREE, which the
            # constructor would reject: restore through the view.
            atoms.degrees_view()[:] = resume.degrees
            toplevel = resume.toplevel.tolist()
            worker_work = resume.chunk_edges.tolist()
            restore_stats(stats, resume)
            if injector is not None:
                # Fault caps (max_crashes/max_stalls) are cumulative
                # across the whole logical run, not per process.
                for name, value in resume.fault_counters.items():
                    setattr(injector.counters, name, value)
        race_log = None
        if detect_races:
            from repro.check.races import (
                RELAXED,
                EventLog,
                TracingArray,
                TracingList,
            )

            race_log = EventLog()
            atoms.tracer = race_log
            # dest is RELAXED: path compression + the final dest write are
            # the algorithm's deliberate idempotent data race (module
            # docstring of repro.check.races); everything else is PLAIN
            # and must be happens-before ordered by the CAS protocol.
            state.dest = TracingArray(state.dest, race_log, "dest", RELAXED)
            state.sibling = TracingArray(state.sibling, race_log, "sibling")
            state.child = TracingArray(state.child, race_log, "child")
            state.adj = TracingList(state.adj, race_log, "adj")
        if chunk_size is None:
            stored = None if resume is None else resume.config.get("chunk_size")
            chunk_size = (
                int(stored) if stored else _default_chunk_size(n, num_threads)
            )
        chunks = [order[i : i + chunk_size] for i in range(start, n, chunk_size)]
        chunks_done = start // chunk_size
        round_chunks = max(1, len(chunks))
        if checkpointed:
            every = (
                checkpointer.every
                if checkpointer is not None
                else int(resume.config.get("checkpoint_every", chunk_size))
            )
            round_chunks = max(1, -(-every // chunk_size))
            config = {
                "engine": "par",
                "num_threads": int(num_threads),
                "scheduler_seed": int(scheduler_seed),
                "chunk_size": int(chunk_size),
                "checkpoint_every": int(every),
                "merge_threshold": float(merge_threshold),
                "max_attempts": int(max_attempts),
                "parallel": True,
            }

    pos = start
    race_report = None
    with span(
        "rabbit.par.aggregate", n=n, workers=len(chunks), threads=num_threads
    ):
        for first in range(0, len(chunks), round_chunks):
            batch = chunks[first : first + round_chunks]
            batch_stats = [
                RabbitStats(vertex_work=stats.vertex_work) for _ in batch
            ]
            sinks: list[list[int]] = [[] for _ in batch]
            tasks = [
                _worker(state, atoms, chunk, sinks[j], batch_stats[j],
                        merge_threshold=merge_threshold, max_attempts=max_attempts)
                for j, chunk in enumerate(batch)
            ]
            seed = scheduler_seed
            if checkpointed:
                seed = derive_seed(scheduler_seed, chunks_done)
                if injector is not None:
                    injector.reseed(derive_seed(fault_plan.seed, chunks_done))
                    injector.enable()
            if race_log is not None:
                from repro.check.races import tag_worker

                tasks = [tag_worker(task, first + j) for j, task in enumerate(tasks)]
            # Window = thread count: the scheduler models num_threads hardware
            # threads, each advancing one task, admitted in degree order.
            InterleavingScheduler(seed=seed, faults=injector).run(
                tasks, window=num_threads
            )
            chunks_done += len(batch)
            pos += sum(len(c) for c in batch)

            if race_log is not None:
                race_report = _close_race_log(race_log, state, atoms)
            recovery_stats = None
            if injector is not None:
                # Recovery (and its sequential fallback pass) must see
                # truthful atomics: no further injected lies or crashes.
                injector.disable()
                admitted = np.zeros(n, dtype=bool)
                admitted[order[:pos]] = True
                sinks.insert(0, toplevel)
                with span("rabbit.par.recover", n=n):
                    recovery_stats = _recover_from_faults(
                        state, atoms, base_degrees, sinks, admitted,
                        vertex_work=stats.vertex_work,
                        merge_threshold=merge_threshold, max_attempts=max_attempts,
                    )
                del sinks[0]
            for s in batch_stats:
                stats.merge_from(s)
                worker_work.append(s.edges_scanned)
            if recovery_stats is not None:
                stats.merge_from(recovery_stats)
            for sink in sinks:
                toplevel.extend(sink)
            if checkpointer is not None:
                checkpointer.save(
                    state.capture(
                        engine="par",
                        progress=pos,
                        order=order,
                        comm_deg=atoms.degrees_view(),
                        toplevel=toplevel,
                        stats=stats,
                        fingerprint=fingerprint,
                        config=config,
                        chunk_edges=worker_work,
                        fault_counters=(
                            None
                            if injector is None
                            else injector.counters.snapshot()
                        ),
                    )
                )

    # The dendrogram's child links live in atoms (authoritative); state.child
    # aliases them, so the atomic array's view is exact once workers quiesce.
    dendrogram = Dendrogram(
        child=atoms.children_view().copy(),
        sibling=state.sibling.copy(),
        toplevel=np.array(toplevel, dtype=np.int64),
    )
    # Fold this run's counters into the process-wide metrics registry so
    # harnesses (bench, stress) read one coherent snapshot.
    registry = get_registry()
    registry.absorb_rabbit_stats(stats)
    registry.absorb_op_counter(counter.snapshot())
    if injector is not None:
        registry.absorb_fault_counters(injector.counters)
    audit_report = None
    if audit:
        with span("rabbit.par.audit", n=n):
            audit_report = audit_dendrogram(
                graph, dendrogram, stats=stats, degrees=atoms.degrees_view()
            )
        audit_report.raise_if_failed()
    return ParallelDetectionResult(
        dendrogram=dendrogram,
        stats=stats,
        op_counter=counter,
        num_workers=len(worker_work),
        worker_work=np.array(worker_work, dtype=np.int64),
        fault_counters=None if injector is None else injector.counters,
        audit_report=audit_report,
        race_report=race_report,
    )


def _close_race_log(race_log, state: AggregationState, atoms: AtomicPairArray):
    """Stop recording, strip every tracing proxy and analyse the log.

    The workers have quiesced; the whole-array phases that follow
    (recovery compares and permutes ``dest`` and ``sibling`` in bulk)
    need the raw arrays, which the scalar-only proxies refuse by design.
    """
    from repro.check.races import analyze_log, unwrap

    race_log.close()
    atoms.tracer = None
    state.dest = unwrap(state.dest)
    state.sibling = unwrap(state.sibling)
    state.child = unwrap(state.child)
    state.adj = unwrap(state.adj)
    with span(
        "rabbit.par.racecheck", n=state.dest.size, events=len(race_log.events)
    ):
        return analyze_log(race_log)


def _default_chunk_size(n: int, num_threads: int) -> int:
    """Fine-grained dynamic chunks keep the in-flight vertices close
    together in the degree-sorted order (the paper's threads pull
    individual vertices): a wide per-thread degree window measurably
    hurts community quality."""
    return max(1, min(32, -(-n // max(1, 8 * num_threads))))
