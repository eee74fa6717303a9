"""The resume property: a checkpoint taken after *any* prefix of the
visit order must resume — on either sequential engine — to the
bit-identical permutation of the uninterrupted run."""

import numpy as np
import pytest

from repro.graph.generators import erdos_renyi_graph
from repro.rabbit.order import rabbit_order
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


class TestSeqKillResumeSweep:
    """The acceptance sweep: 25 seeds per sequential engine — resume
    from a mid-run checkpoint is bit-identical to the run left
    uninterrupted."""

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
