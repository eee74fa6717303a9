#!/usr/bin/env python
"""The lock-free merge protocol under an adversarial scheduler
(paper §III-B2).

Runs parallel community detection (Algorithm 3) under the deterministic
interleaving scheduler at several seeds and modelled thread counts, and
reports CAS successes/failures, rollback retries and the resulting
quality — demonstrating the paper's Table IV claim that the asynchronous
execution does not degrade the ordering.

Run:  python examples/concurrency_lab.py
"""

from repro import modularity
from repro.experiments.config import ExperimentConfig, prepared
from repro.rabbit import community_detection_par, community_detection_seq


def main() -> None:
    config = ExperimentConfig(scale="small", datasets=("uk-2002",))
    graph = prepared("uk-2002", config).graph
    print(f"uk-2002 stand-in: {graph}\n")

    dendro, stats = community_detection_seq(graph)
    q_seq = modularity(graph, dendro.community_labels())
    print(f"sequential: Q={q_seq:.3f}  merges={stats.merges}  "
          f"communities={dendro.toplevel.size}\n")

    print(f"{'mode':24s} {'Q':>6s} {'CAS ok':>7s} {'CAS fail':>9s} {'retries':>8s}")
    for seed in (0, 1, 2):
        res = community_detection_par(
            graph, scheduler_seed=seed, num_threads=8
        )
        q = modularity(graph, res.dendrogram.community_labels())
        c = res.op_counter
        print(
            f"{'interleaved seed=' + str(seed):24s} {q:6.3f} "
            f"{c.cas_success:7d} {c.cas_failure:9d} {res.stats.retries:8d}"
        )
    for threads in (1, 2, 32):
        res = community_detection_par(graph, num_threads=threads)
        q = modularity(graph, res.dendrogram.community_labels())
        c = res.op_counter
        print(
            f"{'modelled threads=' + str(threads):24s} {q:6.3f} "
            f"{c.cas_success:7d} {c.cas_failure:9d} {res.stats.retries:8d}"
        )
    print("\nEvery schedule yields a valid dendrogram with quality matching"
          "\nthe sequential run — the paper's Table IV result.")


if __name__ == "__main__":
    main()
