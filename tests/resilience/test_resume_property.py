"""The resume property: a checkpoint taken after *any* prefix of the
visit order must resume — on any engine — to the bit-identical
permutation of the uninterrupted run."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.rabbit.order import rabbit_order
from repro.rabbit.par import community_detection_par
from repro.rabbit.seq import community_detection_seq
from repro.resilience.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    load_checkpoint,
)

SEEDS = range(10)


def seq_perm(graph, *, engine, checkpoint=None, resume=None):
    dendrogram, _ = community_detection_seq(
        graph, engine=engine, checkpoint=checkpoint, resume=resume
    )
    return dendrogram.ordering()


class TestEveryPrefixEverySeed:
    """``every=1`` retains a snapshot after every decided vertex; each one
    must resume identically, on the engine that wrote it *and* on the
    other sequential engine (the schema is engine-agnostic)."""

    @pytest.mark.parametrize("engine", ["dict", "fast"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_prefixes_resume_bit_identical(self, tmp_path, engine, seed):
        graph = erdos_renyi_graph(24, 0.18, rng=seed)
        ck = Checkpointer(
            CheckpointConfig(directory=tmp_path, every=1, keep=10**6)
        )
        baseline = seq_perm(graph, engine=engine, checkpoint=ck)
        assert len(ck.saved) >= graph.num_vertices - 1
        other = "fast" if engine == "dict" else "dict"
        for path in ck.saved:
            snap = load_checkpoint(path)
            same = seq_perm(graph, engine=engine, resume=snap)
            cross = seq_perm(graph, engine=other, resume=snap)
            assert np.array_equal(same, baseline), (
                f"engine={engine} seed={seed} prefix={snap.progress}"
            )
            assert np.array_equal(cross, baseline), (
                f"{engine}->{other} seed={seed} prefix={snap.progress}"
            )


def par_perm(graph, seed, *, num_threads, directory, every, resume=None):
    res = community_detection_par(
        graph,
        num_threads=num_threads,
        scheduler_seed=seed,
        checkpoint=CheckpointConfig(directory=directory, every=every),
        resume=resume,
        audit=True,
    )
    return res.dendrogram.ordering()


class TestKillResumeSweep:
    """The acceptance sweep: 25 seeds, parallel engine, at four modelled
    threads and at one — resume from a mid-run checkpoint is
    bit-identical to the same (checkpointed) run left uninterrupted."""

    @pytest.mark.parametrize("num_threads", [
        pytest.param(4, id="interleave-4"),
        pytest.param(1, id="interleave-1"),
    ])
    def test_25_seed_sweep(self, tmp_path, num_threads):
        for seed in range(25):
            graph = erdos_renyi_graph(40, 0.12, rng=100 + seed)
            every = max(1, graph.num_vertices // 4)
            ckpt_dir = tmp_path / f"{num_threads}-{seed}"
            baseline = par_perm(
                graph, seed, num_threads=num_threads,
                directory=ckpt_dir, every=every,
            )
            # the run's own snapshots stand in for the kill point: resume
            # from an interior one, as a killed process would
            interior = [
                p for p in sorted(ckpt_dir.glob("*.rbk"))
                if load_checkpoint(p).progress < graph.num_vertices
            ]
            assert interior, "expected a mid-run snapshot to resume from"
            snap = load_checkpoint(interior[0])
            resumed = par_perm(
                graph, seed, num_threads=num_threads,
                directory=ckpt_dir, every=every, resume=snap,
            )
            assert np.array_equal(resumed, baseline), (
                f"num_threads={num_threads} seed={seed} from={snap.progress}"
            )


class TestSeqKillResumeSweep:
    """Same 25-seed sweep for the sequential engines."""

    @pytest.mark.parametrize("engine", ["dict", "fast"])
    def test_25_seed_sweep(self, tmp_path, engine):
        for seed in range(25):
            graph = erdos_renyi_graph(40, 0.12, rng=200 + seed)
            every = max(1, graph.num_vertices // 4)
            ck = Checkpointer(
                CheckpointConfig(
                    directory=tmp_path / f"{engine}-{seed}", every=every,
                    keep=10**6,
                )
            )
            baseline = seq_perm(graph, engine=engine, checkpoint=ck)
            interior = [
                p for p in ck.saved
                if load_checkpoint(p).progress < graph.num_vertices
            ]
            assert interior
            snap = load_checkpoint(interior[0])
            resumed = seq_perm(graph, engine=engine, resume=snap)
            assert np.array_equal(resumed, baseline), (
                f"engine={engine} seed={seed} from={snap.progress}"
            )


def test_rabbit_order_resume_from_directory(tmp_path):
    """The public entry point accepts a checkpoint *directory* and
    resumes from its newest snapshot to the identical permutation."""
    graph = erdos_renyi_graph(50, 0.1, rng=5)
    baseline = rabbit_order(
        graph, checkpoint=CheckpointConfig(directory=tmp_path, every=10)
    )
    resumed = rabbit_order(graph, resume=tmp_path)
    assert np.array_equal(resumed.permutation, baseline.permutation)
