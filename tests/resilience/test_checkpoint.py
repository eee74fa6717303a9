"""Checkpoint file format: atomic install, corruption rejection, pruning."""

import io

import numpy as np
import pytest

from repro.community.dendrogram import NO_VERTEX
from repro.errors import CheckpointError
from repro.graph.generators import erdos_renyi_graph
from repro.rabbit.seq import community_detection_seq
from repro.resilience.checkpoint import (
    SCHEMA_VERSION,
    CheckpointConfig,
    Checkpointer,
    graph_fingerprint,
    latest_checkpoint,
    load_checkpoint,
    require_fingerprint_match,
    save_checkpoint,
)
from tests.conftest import (
    SEAL_HEADER,
    UNALLOCATABLE,
    reseal,
    reseal_members,
    reseal_meta,
)


@pytest.fixture
def graph():
    return erdos_renyi_graph(60, 0.1, rng=7)


def snapshots_of(graph, directory, *, every=10, keep=1000):
    """Run a checkpointed sequential detection; return the saved paths."""
    ck = Checkpointer(CheckpointConfig(directory=directory, every=every, keep=keep))
    community_detection_seq(graph, checkpoint=ck)
    return ck.saved


#: child/sibling links (valid ids all) that are no forest: walking a
#: community's members along them never ends.
LINK_DAMAGE = ("sibling-self-link", "two-parents", "sibling-cycle")

#: Damage past the header and CRC checks: a payload that claims to be a
#: zip archive but is not, members ``np.load`` would allocate past their
#: bytes (an npy header claiming an unallocatable shape, deflated
#: members), meta fields the resume paths cannot use, and links that
#: are no forest.
MALFORMED = [
    "zip-magic", "huge-claim", "deflated", "no-progress", "bad-progress",
    "no-engine", "bad-stats", *LINK_DAMAGE,
]


def relink(path, how):
    """Rewrite the checkpoint's child/sibling links per *how*."""
    payload = path.read_bytes()[SEAL_HEADER.size :]
    with np.load(io.BytesIO(payload)) as data:
        arrays = {name: data[name].copy() for name in data.files}
    child, sibling = arrays["child"], arrays["sibling"]
    # Vertices nothing links to: undecided or top-level.
    linked = set(child.tolist()) | set(sibling.tolist())
    roots = [v for v in range(child.size) if v not in linked]
    if how == "sibling-self-link":
        u, x = roots[:2]
        child[u], sibling[x] = x, x
    elif how == "two-parents":
        a = int(np.flatnonzero(child != NO_VERTEX)[0])
        b = next(v for v in roots if v != a)
        child[b] = child[a]
    else:  # a 2-cycle of sibling links that no child link reaches
        p, q = roots[:2]
        sibling[p], sibling[q] = q, p
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    reseal(path, buf.getvalue())


def damage(path, how):
    """Rewrite the checkpoint at *path* with a valid header and CRC over
    a malformed payload."""
    if how == "zip-magic":
        reseal(path, b"PK\x03\x04" + b"not a zip archive" * 4)
        return
    if how == "huge-claim":
        reseal_members(path, claim=("order", UNALLOCATABLE))
        return
    if how == "deflated":
        reseal_members(path, compress=True)
        return
    if how in LINK_DAMAGE:
        relink(path, how)
        return
    meta = load_checkpoint(path).meta
    if how == "no-progress":
        del meta["progress"]
    elif how == "bad-progress":
        meta["progress"] = "x"
    elif how == "no-engine":
        del meta["engine"]
    else:
        meta["stats"]["merges"] = "x"
    reseal_meta(path, meta)


class TestRoundTrip:
    def test_save_load_roundtrip(self, graph, tmp_path):
        paths = snapshots_of(graph, tmp_path)
        assert paths, "expected at least one snapshot"
        snap = load_checkpoint(paths[0])
        snap.validate()
        assert snap.progress == 10
        assert snap.engine in ("fast", "dict")
        assert snap.order.size == graph.num_vertices
        require_fingerprint_match(snap, graph_fingerprint(graph, merge_threshold=0.0))

    def test_latest_checkpoint_picks_newest(self, graph, tmp_path):
        snapshots_of(graph, tmp_path)
        found = latest_checkpoint(tmp_path)
        assert found is not None
        path, snap = found
        assert snap.progress == max(
            load_checkpoint(p).progress for p in tmp_path.glob("*.rbk")
        )

    def test_latest_checkpoint_empty_dir_is_none(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None


class TestRejection:
    def test_truncated_checkpoint_rejected(self, graph, tmp_path):
        (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corrupt_payload_rejected_by_crc(self, graph, tmp_path):
        (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC|corrupt"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, graph, tmp_path):
        (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_stale_schema_version_rejected(self, graph, tmp_path):
        import struct

        (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
        data = bytearray(path.read_bytes())
        # header: <8s I I Q  — version is the first I after the magic
        struct.pack_into("<I", data, 8, SCHEMA_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_latest_checkpoint_skips_corrupt_newest(self, graph, tmp_path):
        paths = snapshots_of(graph, tmp_path)
        newest = sorted(tmp_path.glob("*.rbk"))[-1]
        newest.write_bytes(b"garbage")
        found = latest_checkpoint(tmp_path)
        assert found is not None
        assert found[0] != newest

    def test_all_corrupt_raises(self, graph, tmp_path):
        snapshots_of(graph, tmp_path, keep=2)
        for p in tmp_path.glob("*.rbk"):
            p.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            latest_checkpoint(tmp_path)

    @pytest.mark.parametrize("how", MALFORMED)
    def test_malformed_payload_rejected(self, graph, tmp_path, how):
        (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
        damage(path, how)
        with pytest.raises(CheckpointError, match="malformed|meta"):
            load_checkpoint(path)

    @pytest.mark.parametrize("how", MALFORMED)
    def test_latest_checkpoint_skips_malformed_newest(self, graph, tmp_path, how):
        snapshots_of(graph, tmp_path)
        *_, older, newest = sorted(tmp_path.glob("*.rbk"))
        damage(newest, how)
        found = latest_checkpoint(tmp_path)
        assert found is not None
        assert found[0] == older
        assert found[1].progress == load_checkpoint(older).progress

    def test_fingerprint_mismatch_rejected(self, graph, tmp_path):
        (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
        snap = load_checkpoint(path)
        other = erdos_renyi_graph(60, 0.1, rng=8)
        with pytest.raises(CheckpointError, match="fingerprint|graph"):
            require_fingerprint_match(
                snap, graph_fingerprint(other, merge_threshold=0.0)
            )


class TestRetention:
    def test_keep_retains_newest_n(self, graph, tmp_path):
        snapshots_of(graph, tmp_path, every=5, keep=3)
        remaining = sorted(tmp_path.glob("*.rbk"))
        assert len(remaining) == 3
        progresses = [load_checkpoint(p).progress for p in remaining]
        # the three newest snapshot points, in order
        assert progresses == sorted(progresses)
        assert progresses[-1] == (graph.num_vertices // 5) * 5

    def test_no_premature_pruning_below_keep(self, graph, tmp_path):
        # regression: a negative excess must not slice from the end
        snapshots_of(graph, tmp_path, every=30, keep=10)
        assert len(list(tmp_path.glob("*.rbk"))) == 2

    def test_every_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every=0)
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, keep=0)

    def test_on_save_hook_sees_every_snapshot(self, graph, tmp_path):
        seen = []
        ck = Checkpointer(
            CheckpointConfig(directory=tmp_path, every=20),
            on_save=lambda progress, path: seen.append(progress),
        )
        community_detection_seq(graph, checkpoint=ck)
        assert seen == list(range(20, graph.num_vertices + 1, 20))


def test_atomic_install_leaves_no_tmp_files(graph, tmp_path):
    snapshots_of(graph, tmp_path)
    stray = [p for p in tmp_path.iterdir() if not p.name.endswith(".rbk")]
    assert stray == []


def test_save_checkpoint_validates(graph, tmp_path):
    (path,) = snapshots_of(graph, tmp_path, every=10, keep=1)
    snap = load_checkpoint(path)
    snap.order = snap.order[:-1]  # wrong length must be caught before write
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "bad.rbk", snap)
    assert not (tmp_path / "bad.rbk").exists()


@pytest.mark.parametrize(
    "field, value",
    [("child", 60), ("sibling", -2), ("dest", -1), ("order", 99),
     ("adj_keys", 60), ("adj_lengths", -7)],
)
def test_vertex_ids_outside_the_graph_are_refused(graph, tmp_path, field, value):
    """A CRC-valid snapshot whose ids do not name vertices must fail
    closed before the compiled sweep indexes its arrays with them."""
    (path,) = snapshots_of(graph, tmp_path, every=30, keep=1)
    snap = load_checkpoint(path)
    getattr(snap, field)[0] = value
    with pytest.raises(CheckpointError, match=field):
        snap.validate()
    with pytest.raises(CheckpointError, match=field):
        community_detection_seq(graph, resume=snap)


def test_vertex_work_of_another_size_is_refused(graph, tmp_path):
    """Every resume copies the snapshot's per-vertex work into the run's
    n-sized array, so a snapshot holding another size fails closed."""
    (path,) = snapshots_of(graph, tmp_path, every=30, keep=1)
    snap = load_checkpoint(path)
    snap.vertex_work = snap.vertex_work[:-1]
    with pytest.raises(CheckpointError, match="vertex_work"):
        snap.validate()
    with pytest.raises(CheckpointError, match="vertex_work"):
        community_detection_seq(graph, resume=snap)


def test_more_toplevels_than_decided_vertices_are_refused(graph, tmp_path):
    (path,) = snapshots_of(graph, tmp_path, every=30, keep=1)
    snap = load_checkpoint(path)
    snap.meta["progress"] = snap.toplevel.size - 1
    with pytest.raises(CheckpointError, match="top-level"):
        community_detection_seq(graph, resume=snap)


def engine_snapshots(graph, directory, engine):
    """Checkpoint a full *engine* run every 10 vertices; return its
    permutation and the interior snapshot paths."""
    ck = Checkpointer(CheckpointConfig(directory=directory, every=10, keep=1000))
    dendrogram, _ = community_detection_seq(graph, engine=engine, checkpoint=ck)
    interior = [p for p in ck.saved if load_checkpoint(p).progress < graph.num_vertices]
    return dendrogram.ordering(), interior


@pytest.mark.parametrize("engine", ["fast", "dict"])
@pytest.mark.parametrize("extra", [{"vertex_work": 3}, {"bogus": 4}])
def test_stats_naming_unknown_counters_are_refused(
    graph, tmp_path, capsys, engine, extra
):
    """Resume assigns each stats entry to the counter it names, so a key
    outside ``STAT_FIELDS`` fails closed at load: ``vertex_work`` would
    replace the per-vertex array with an int, ``bogus`` would add an
    attribute."""
    from repro.cli import main
    from repro.graph import save_npz

    _, (path, *_) = engine_snapshots(graph, tmp_path / "ck", engine)
    meta = load_checkpoint(path).meta
    meta["stats"].update(extra)
    reseal_meta(path, meta)
    (key,) = extra
    with pytest.raises(CheckpointError, match=key):
        load_checkpoint(path)
    graph_path = tmp_path / "g.npz"
    save_npz(graph, graph_path)
    assert main(["resume", str(path), str(graph_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("engine", ["fast", "dict"])
def test_snapshot_with_a_chunk_edges_member_still_resumes(graph, tmp_path, engine):
    """Snapshots once carried a ``chunk_edges`` member (empty for the
    sequential engines).  The reader reads named members only, so such a
    file loads and resumes to the uninterrupted run's permutation."""
    from repro.ioutil import write_sealed

    baseline, interior = engine_snapshots(graph, tmp_path / "ck", engine)
    path = interior[len(interior) // 2]
    payload = path.read_bytes()[SEAL_HEADER.size :]
    with np.load(io.BytesIO(payload)) as data:
        arrays = {n: data[n] for n in data.files if n != "meta_json"}
    meta = load_checkpoint(path).meta
    old = write_sealed(
        tmp_path / "old.rbk", b"RBO-CKPT", SCHEMA_VERSION,
        {**arrays, "chunk_edges": np.zeros(0, dtype=np.int64)}, meta,
    )
    with np.load(io.BytesIO(old.read_bytes()[SEAL_HEADER.size :])) as data:
        assert "chunk_edges" in data.files
    snap = load_checkpoint(old)
    assert snap.progress == meta["progress"]
    for other in ("fast", "dict"):
        dendrogram, _ = community_detection_seq(graph, engine=other, resume=snap)
        assert np.array_equal(dendrogram.ordering(), baseline), other
