"""Pinned outputs of the Algorithm 3 model.

The other parallel tests compare the model with itself (replay, resume)
or, at one thread, with the dict oracle.  A broken reordering pipeline
still emits plausible permutations, so these cases pin what the model
*outputs* at one and four threads, under injected faults, and across
checkpoint/resume: each digest covers the dendrogram arrays, the
ordering, ``worker_work``, every :class:`RabbitStats` counter and the
op and fault counters.  A change to the driver, the scheduler loop or
the fault hooks that moves any of them fails here.
"""

import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.experiments.stress import DEFAULT_CASES
from repro.graph.generators import erdos_renyi_graph
from repro.parallel.faults import FaultPlan
from repro.rabbit import community_detection_par
from repro.rabbit.common import RabbitStats
from repro.resilience.checkpoint import (
    CheckpointConfig,
    Checkpointer,
    load_checkpoint,
)

PLANS = {
    "none": None,
    "cas-storm": FaultPlan(cas_failure_rate=0.5),
    "chaos": next(c.plan for c in DEFAULT_CASES if c.name == "chaos"),
}

#: SHA-256 per (plan, threads, seed, mode), recorded from a separate
#: implementation of the model; regenerate only for a deliberate change
#: of what the model outputs.
EXPECTED = {
    "cas-storm/t1/s0/plain": "bdb3a49639f8f0bc12235cda2dcdfa8a1a77e6d2e3e15f35564a4de763e95818",
    "cas-storm/t1/s0/checkpointed": "f077158982465abfa265a5292ffebaf99eeaee184f77d0cc77787b3f8bad7ee6",
    "cas-storm/t1/s0/resumed": "9b45c51aab79d653e0b6e62ec311abe5cea7ba98f4f82a6dc77c4a678ba8da5c",
    "cas-storm/t1/s1/plain": "a06ca28cb3edad6de8759d9745c34b284435f6a9fcc9548ab72415bc85e6087b",
    "cas-storm/t1/s1/checkpointed": "4ab9bd9a5e5ec04ecde9fe91239326d699ecd492e5c62e65baf268fb6c4372c0",
    "cas-storm/t1/s1/resumed": "b846e305b9055bdc9c4e73b1c6fb75b5bcbee64068dd04811d0b334e42adc2bf",
    "cas-storm/t4/s0/plain": "4c68a16bec21e0f0ac96d459849c52c5671d10e73f796a4721e17d70c027f3c3",
    "cas-storm/t4/s0/checkpointed": "77f207dc3d1a7d1b2fadc7eb46b18ded9cfc998ca91097045bf7b1a5eaa83a45",
    "cas-storm/t4/s0/resumed": "722163a2e71ae43ff677bf7e88426074cf83133dae28b2a1fa962fe5a2e01fb3",
    "cas-storm/t4/s1/plain": "bf2d2cee40f80ed2a832996ededbc6508efa0740134f6926446e9b6c9fe729e5",
    "cas-storm/t4/s1/checkpointed": "206de6147562a3ad8d317c73e5f471393951c11985cb6ca41e82e2e823657b6e",
    "cas-storm/t4/s1/resumed": "15c29b66892faa975336be3d56334a4afe4e565a88aac00ba8d39e903a55052c",
    "chaos/t1/s0/plain": "0137cdc3228cb53fdc32b3d0e6e63a6011a80f3a1c5f2813de30ef55f2496418",
    "chaos/t1/s0/checkpointed": "cd9e8b8e7d7e71363bce0692e062b327ce8f3235f91da5f27226f7d19fdd8b3e",
    "chaos/t1/s0/resumed": "f893a18158e582258198a3f949308f127392cec04ab86fce497f4e5c891abbb0",
    "chaos/t1/s1/plain": "408ebc99de53c068dc1f9a0913ac61e5f3ee410bb1d5ec09e2fedf6310e0cd6b",
    "chaos/t1/s1/checkpointed": "c453f798a96b060b8cd8e4324c6d49ded383639d066e142dc970a17e39995eed",
    "chaos/t1/s1/resumed": "d9488282bf5f551d96b8a940c8bd2068fb1d01adb35562e2d88f815240f64a40",
    "chaos/t4/s0/plain": "29286cf3fda302f6beb3b360a118f7adc5e08aff86834682ce0c25609cde9169",
    "chaos/t4/s0/checkpointed": "8191526648c34bf8b0f92b3527a2b4369962b8ea65aabefa2bfba6298b811a61",
    "chaos/t4/s0/resumed": "b05c0b248cc2f1371fa52e6091cfa285150f160c9334f08cb4fdf99477a55ae2",
    "chaos/t4/s1/plain": "7f05ff9778d22e30da70f38cf6a220c0a794363ef4cc4b21027acababaaf4da5",
    "chaos/t4/s1/checkpointed": "70c620a427b0d27815e5127f0137dfc12c40e52e0f0495b9c55782db17d0ef95",
    "chaos/t4/s1/resumed": "eaae02ce1b204df6ed8a0b8248a37146d273bdde63cde35502ce1529dde5a198",
    "none/t1/s0/plain": "547cc4dd5ffefca6d64e4c5cf4253409e79007166ad7c88ad3cc71c91ec770fd",
    "none/t1/s0/checkpointed": "547cc4dd5ffefca6d64e4c5cf4253409e79007166ad7c88ad3cc71c91ec770fd",
    "none/t1/s0/resumed": "663d2cbf9b9e77a9aa800b2966c29e5737f7e1554626288591fb20d748c7bdee",
    "none/t1/s1/plain": "547cc4dd5ffefca6d64e4c5cf4253409e79007166ad7c88ad3cc71c91ec770fd",
    "none/t1/s1/checkpointed": "547cc4dd5ffefca6d64e4c5cf4253409e79007166ad7c88ad3cc71c91ec770fd",
    "none/t1/s1/resumed": "663d2cbf9b9e77a9aa800b2966c29e5737f7e1554626288591fb20d748c7bdee",
    "none/t4/s0/plain": "f7c67ba7b8becf72a8597a0c4ff348cac45106e6667ae557ce4f92a886ec14cd",
    "none/t4/s0/checkpointed": "34933c8d004abd1c3138a448ba11febbf494f279f65e64bb8dcf77869e53ede3",
    "none/t4/s0/resumed": "9f7eaf27f7e3fd664b0a5ac518034278b158b5126ccfcba8930ca88e0985f5d0",
    "none/t4/s1/plain": "08b1d2595f727e282ce55b0ae2d10ac32d8fd00c70a29f0c9d23e8cb68325153",
    "none/t4/s1/checkpointed": "370d102b25c94eec51eaae54596672049f8bbacc8d4c6181fdde0339d4cf87d7",
    "none/t4/s1/resumed": "137427d624fc94e8426fd1ec06ae2020103623187769e444bb6af4312889ec22",
}


def _digest(res) -> str:
    h = hashlib.sha256()
    d = res.dendrogram
    for arr in (d.child, d.sibling, d.toplevel, d.ordering(), res.worker_work):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    counters = {
        "stats": {
            f.name: getattr(res.stats, f.name)
            for f in fields(RabbitStats)
            if f.name != "vertex_work"
        },
        "ops": res.op_counter.snapshot(),
        "faults": (
            None if res.fault_counters is None
            else res.fault_counters.snapshot()
        ),
        "num_workers": res.num_workers,
    }
    h.update(json.dumps(counters, sort_keys=True).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(60, 0.1, rng=4)


@pytest.mark.parametrize("mode", ["plain", "checkpointed", "resumed"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("plan", sorted(PLANS))
def test_output_is_pinned(graph, tmp_path, plan, threads, seed, mode):
    fault_plan = None if PLANS[plan] is None else replace(PLANS[plan], seed=seed)
    kwargs = dict(
        num_threads=threads, scheduler_seed=seed, fault_plan=fault_plan,
        audit=True,
    )
    if mode == "plain":
        res = community_detection_par(graph, **kwargs)
    else:
        n = graph.num_vertices
        every = n // 5
        ck = Checkpointer(CheckpointConfig(tmp_path / "a", every=every, keep=n))
        res = community_detection_par(graph, checkpoint=ck, **kwargs)
        if mode == "resumed":
            interior = [p for p in ck.saved if load_checkpoint(p).progress < n]
            snap = load_checkpoint(interior[len(interior) // 2])
            res = community_detection_par(
                graph, resume=snap,
                checkpoint=CheckpointConfig(tmp_path / "b", every=every),
                **kwargs,
            )
    assert _digest(res) == EXPECTED[f"{plan}/t{threads}/s{seed}/{mode}"]
