"""Child/sibling links that are not a forest, shared by every test of a
walk over them.

Each case gives the phrase of the ``GraphFormatError`` that every walk
meeting its damage raises, and says which walks meet it:

* a walk from all the roots (the ordering DFS, ``validate``,
  ``community_labels``) meets every case;
* a walk from one root at a time (``members``) misses damage that is
  only a vertex reached from two roots (``between_roots``);
* the chain walk (``children``, crash recovery's parent scan) reads no
  roots, so it meets only a chain that leaves ``[0, n)`` or never ends
  (``in_chains``), and, when it follows the chains of every vertex at
  once (``chain_walk`` itself, recovery), a vertex linked from two heads
  (``linked_twice``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.community.dendrogram import Dendrogram


class NotForest(NamedTuple):
    dendrogram: Dendrogram
    phrase: str
    in_chains: bool = False
    between_roots: bool = False
    linked_twice: bool = False


def _bad(child, sibling, toplevel, phrase, **where) -> NotForest:
    dendrogram = Dendrogram(
        child=np.array(child, dtype=np.int64),
        sibling=np.array(sibling, dtype=np.int64),
        toplevel=np.array(toplevel, dtype=np.int64),
    )
    return NotForest(dendrogram, phrase, **where)


NOT_FORESTS = {
    "two-cycle": _bad([1, 0], [-1, -1], [0], "not a forest"),
    "two-parents": _bad(
        [2, 2, -1], [-1, -1, -1], [0, 1], "not a forest",
        between_roots=True, linked_twice=True,
    ),
    "child-out-of-range": _bad(
        [5, -1], [-1, -1], [0, 1], "id 5 out of range", in_chains=True
    ),
    "negative-child": _bad(
        [-3, -1], [-1, -1], [0, 1], "id -3 out of range", in_chains=True
    ),
    # A sibling chain that never ends: a chain walk without a bound
    # loops here.
    "sibling-cycle": _bad(
        [1, -1, -1], [-1, 2, 1], [0], "not a forest", in_chains=True
    ),
    "sibling-self-link": _bad([1, -1], [-1, 1], [0], "not a forest", in_chains=True),
    "root-out-of-range": _bad([-1], [-1], [1], "id 1 out of range"),
    # More roots than vertices, one out of range: the ids are checked
    # before the push budget, in both DFS walks.
    "surplus-root-out-of-range": _bad(
        [-1, -1], [-1, -1], [0, 1, 9], "id 9 out of range"
    ),
    "repeated-root": _bad([-1], [-1], [0, 0], "not a forest", between_roots=True),
}
