"""End-to-end daemon tests: the tentpole acceptance criteria.

* two concurrent clients on the same unseen graph → exactly one
  detection run (``serve.coalesced`` == 1), both receive bit-identical
  permutations matching a direct :func:`~repro.rabbit.order.rabbit_order`;
* a restarted daemon serves the same graph from the disk cache without
  recomputing;
* a poisoned disk entry triggers a recompute, not a 500;
* quotas reject with 429 + ``retry_after_s``; draining rejects with 503;
  malformed requests with 400; unknown ops/analyses with 404;
* a drain closes idle connections: the client reads EOF and asyncio
  logs no cancelled handler.

The daemon runs in-process (:class:`~repro.serve.daemon.ServerThread`)
over a unix socket, so ``serve.*`` counters land in this process's
metrics registry and every assertion can use exact counter deltas.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import QuotaExceededError, ServeError
from repro.obs.metrics import counter_delta, get_registry
from repro.serve import protocol
from repro.serve.cache import entry_path
from repro.serve.client import ServeClient
from repro.serve.daemon import ReorderServer, ServerConfig, ServerThread
from tests.conftest import HUGE_ID_EDGE_LIST, forge_graph_npz

EDGES = [
    [0, 1], [1, 2], [2, 0], [2, 3], [3, 4], [4, 5], [5, 3],
    [0, 6], [6, 7], [7, 0], [5, 6],
]


def direct_permutation(edges=EDGES):
    from repro.graph.csr import CSRGraph
    from repro.rabbit.order import rabbit_order

    graph = CSRGraph.from_edges(
        [e[0] for e in edges], [e[1] for e in edges], symmetrize=True
    )
    return [int(v) for v in rabbit_order(graph).permutation]


def _counters():
    return get_registry().counter_values("serve.")


def _delta(before):
    return counter_delta(before, _counters())


@pytest.fixture
def sock(tmp_path):
    return str(tmp_path / "daemon.sock")


@pytest.fixture
def sent(monkeypatch):
    """Every request frame encoded in this process, decoded again."""
    frames = []
    encode = protocol.encode_message

    def recording(message):
        data = encode(message)
        if "op" in message:
            frames.append(json.loads(data))
        return data

    monkeypatch.setattr(protocol, "encode_message", recording)
    return frames


class TestReorder:
    def test_cold_then_warm(self, tmp_path, sock):
        config = ServerConfig(unix_path=sock, cache_dir=str(tmp_path / "c"))
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            first = client.reorder(edges=EDGES, full_response=True)
            assert first["cache"] == "computed"
            assert first["permutation"] == direct_permutation()
            second = client.reorder(edges=EDGES, full_response=True)
            assert second["cache"] == "memory"
            assert second["permutation"] == first["permutation"]
            assert second["key"] == first["key"]

    def test_two_concurrent_clients_coalesce(self, sock, monkeypatch):
        """The acceptance criterion: one run, coalesced counter == 1,
        bit-identical permutations for both clients."""
        compute = ReorderServer._compute_sync

        def slow_compute(self, graph):
            # Hold the first miss open so the second request finds it.
            time.sleep(0.5)
            return compute(self, graph)

        monkeypatch.setattr(ReorderServer, "_compute_sync", slow_compute)
        config = ServerConfig(unix_path=sock, cache_dir=None)
        with ServerThread(config):
            # Connect both clients first so the two requests are fired
            # as close to simultaneously as threads allow.
            clients = [ServeClient(unix_path=sock) for _ in range(2)]
            barrier = threading.Barrier(2)
            results = [None, None]

            def fire(i):
                barrier.wait()
                results[i] = clients[i].reorder(
                    edges=EDGES, full_response=True
                )

            before = _counters()
            threads = [
                threading.Thread(target=fire, args=(i,)) for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for c in clients:
                c.close()
            delta = _delta(before)
            assert delta.get("serve.compute.runs") == 1
            assert delta.get("serve.coalesced") == 1
            assert sorted(r["cache"] for r in results) == [
                "coalesced", "computed",
            ]
            expected = direct_permutation()
            assert results[0]["permutation"] == expected
            assert results[1]["permutation"] == expected

    def test_restart_serves_from_disk_without_recompute(self, tmp_path, sock):
        cache_dir = str(tmp_path / "cache")
        config = ServerConfig(unix_path=sock, cache_dir=cache_dir)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            first = client.reorder(edges=EDGES, full_response=True)
        # Fresh daemon, same disk tier: cold memory, warm disk.
        with ServerThread(ServerConfig(unix_path=sock, cache_dir=cache_dir)):
            before = _counters()
            with ServeClient(unix_path=sock) as client:
                again = client.reorder(edges=EDGES, full_response=True)
            delta = _delta(before)
            assert again["cache"] == "disk"
            assert again["permutation"] == first["permutation"]
            assert delta.get("serve.compute.runs") is None  # zero delta
            assert delta.get("serve.cache.hit.disk") == 1

    def test_poisoned_disk_entry_triggers_recompute_not_500(
        self, tmp_path, sock
    ):
        cache_dir = tmp_path / "cache"
        config = ServerConfig(unix_path=sock, cache_dir=str(cache_dir))
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            first = client.reorder(edges=EDGES, full_response=True)
        # Bit-flip the stored entry's payload.
        path = entry_path(cache_dir, first["key"])
        raw = bytearray(path.read_bytes())
        raw[-4] ^= 0xFF
        path.write_bytes(bytes(raw))
        with ServerThread(ServerConfig(unix_path=sock, cache_dir=str(cache_dir))):
            before = _counters()
            with ServeClient(unix_path=sock) as client:
                again = client.reorder(edges=EDGES, full_response=True)
            delta = _delta(before)
            assert again["cache"] == "computed"  # recomputed, no error
            assert again["permutation"] == first["permutation"]
            assert delta.get("serve.cache.corrupt") == 1
            assert delta.get("serve.compute.runs") == 1

    def test_distinct_graphs_distinct_keys(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            a = client.reorder(edges=EDGES, full_response=True)
            b = client.reorder(
                edges=EDGES + [[1, 7]], full_response=True
            )
            assert a["key"] != b["key"]
            assert b["cache"] == "computed"


class TestWireForms:
    """The client packs integer pairs and sends anything else as the
    JSON list; both forms of one graph share its cache entry."""

    @pytest.mark.parametrize("make", [
        lambda: EDGES,
        lambda: [tuple(e) for e in EDGES],
        lambda: tuple(tuple(e) for e in EDGES),
        lambda: (e for e in EDGES),
        lambda: np.array(EDGES, dtype=np.int32),
        lambda: np.array(EDGES, dtype=np.int64),
        lambda: np.array(EDGES, dtype=np.uint64),
    ], ids=["lists", "tuples", "tuple-of-tuples", "generator", "int32", "int64",
            "uint64"])
    def test_integer_pairs_travel_packed(self, sock, sent, make):
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            perm = client.reorder(edges=make(), num_vertices=8)
        assert sent[-1]["graph"] == {
            "edges_b64": protocol.pack_edges(EDGES), "num_vertices": 8,
        }
        assert perm == direct_permutation()

    def test_weighted_edges_travel_as_the_list(self, sock, sent):
        weighted = [[u, v, 2.0] for u, v in EDGES]
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            response = client.reorder(edges=weighted, full_response=True)
        assert sent[-1]["graph"] == {"edges": weighted}
        assert response["cache"] == "computed"

    def test_malformed_edges_keep_the_per_edge_error(self, sock, sent):
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            with pytest.raises(ServeError, match=r"edges\[1\]: endpoints"):
                client.reorder(edges=[[0, 1], [1, -2]])
        assert sent[-1]["graph"] == {"edges": [[0, 1], [1, -2]]}

    def test_ids_past_int64_travel_as_the_list(self, sock, sent):
        """A uint64 id that int64 cannot hold is sent as it was given,
        and refused as over the vertex bound, not wrapped negative."""
        edges = np.array([[0, 1], [1, 2**63]], dtype=np.uint64)
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            with pytest.raises(ServeError, match="vertex bound"):
                client.reorder(edges=edges)
        assert sent[-1]["graph"] == {"edges": [[0, 1], [1, 2**63]]}

    def test_packed_then_list_frame_share_one_entry(self, sock):
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            first = client.reorder(edges=EDGES, full_response=True)
            second = client.request("reorder", graph={"edges": EDGES})
        assert first["cache"] == "computed"
        assert second["ok"] is True
        assert second["cache"] == "memory"
        assert second["key"] == first["key"]
        assert second["permutation"] == first["permutation"] == direct_permutation()

    def test_loadgen_edges_are_one_int64_array(self):
        from repro.serve.loadgen import _inline_edges, _workload_graph

        graph = _workload_graph(3)
        edges = _inline_edges(graph)
        assert edges.dtype == np.int64 and edges.shape == (len(edges), 2)
        rebuilt = protocol.build_graph({"graph": {
            "edges_b64": protocol.pack_edges(edges),
            "num_vertices": graph.num_vertices,
        }})
        assert rebuilt.indptr.tobytes() == graph.indptr.tobytes()
        assert rebuilt.indices.tobytes() == graph.indices.tobytes()

    def test_list_form_when_only_it_fits_the_line_ceiling(
        self, sock, sent, monkeypatch
    ):
        envelope = {"op": "reorder", "id": 1, "tenant": "default"}
        listed = protocol.encode_message({**envelope, "graph": {"edges": EDGES}})
        packed = protocol.encode_message(
            {**envelope, "graph": {"edges_b64": protocol.pack_edges(EDGES)}}
        )
        ceiling = (len(listed) + len(packed)) // 2
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", ceiling)
            response = client.reorder(edges=EDGES, full_response=True)
        assert sent[-1]["graph"] == {"edges": EDGES}
        assert response["permutation"] == direct_permutation()


class TestAnalyzeAndStatus:
    def test_analyze_runs_on_reordered_graph(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            response = client.analyze("pagerank", edges=EDGES)
            assert response["analysis"] == "pagerank"
            assert response["result"]["converged"] is True
            assert "permutation" not in response  # not requested
            comp = client.analyze("components", edges=EDGES)
            assert comp["result"]["num_components"] == 1

    def test_components_cost_grows_with_the_graph_not_its_square(
        self, sock, alarm
    ):
        """One edge among 2**17 vertices is 131,071 components: one BFS
        forest answers within the alarm, where an n-sized allocation per
        component would be quadratic."""
        n = 1 << 17
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            comp = client.analyze("components", edges=[[0, 1]], num_vertices=n)
            assert comp["result"] == {"num_components": n - 1, "largest": 2}

    def test_analyze_can_include_permutation(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            response = client.analyze(
                "bfs", edges=EDGES, include_permutation=True
            )
            assert response["permutation"] == direct_permutation()

    def test_status(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            client.reorder(edges=EDGES)
            status = client.status()
            assert status["draining"] is False
            assert status["uptime_s"] >= 0.0
            assert status["cache"]["memory_entries"] == 1
            assert status["counters"]["serve.compute.runs"] >= 1.0


class TestRejections:
    def test_quota_429_with_retry_after(self, sock):
        config = ServerConfig(
            unix_path=sock,
            quotas={"tenants": {"limited": {"rate": 0.01, "burst": 1}}},
        )
        with ServerThread(config):
            with ServeClient(unix_path=sock, tenant="limited") as client:
                client.reorder(edges=EDGES)  # burst token
                with pytest.raises(QuotaExceededError) as excinfo:
                    client.reorder(edges=EDGES)
                assert excinfo.value.retry_after_s > 0.0
            # Other tenants are untouched (no default quota configured).
            with ServeClient(unix_path=sock, tenant="other") as client:
                client.reorder(edges=EDGES)

    def test_status_is_not_charged(self, sock):
        config = ServerConfig(
            unix_path=sock,
            quotas={"default": {"rate": 0.01, "burst": 1}},
        )
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            for _ in range(5):
                client.status()
            client.reorder(edges=EDGES)  # the burst token is still there

    def test_draining_rejects_work_but_answers_status(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config) as server, ServeClient(unix_path=sock) as client:
            server._draining = True  # drain mode without closing listeners
            with pytest.raises(ServeError, match="draining"):
                client.reorder(edges=EDGES)
            assert client.status()["draining"] is True
            server._draining = False
            client.reorder(edges=EDGES)

    def test_malformed_json_is_400(self, sock):
        import socket as socketlib

        config = ServerConfig(unix_path=sock)
        with ServerThread(config):
            raw = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
            raw.settimeout(10.0)
            raw.connect(sock)
            with raw, raw.makefile("rwb") as stream:
                stream.write(b"{this is not json\n")
                stream.flush()
                import json

                response = json.loads(stream.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == 400

    def test_unknown_op_is_404(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            response = client.request("transmogrify")
            assert response["error"]["code"] == 404
            assert "unknown op" in response["error"]["message"]

    def test_unknown_analysis_is_404(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            response = client.request("analyze", analysis="quantum")
            assert response["error"]["code"] == 404

    def test_bad_graph_payload_is_400(self, sock):
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            response = client.request("reorder", graph={"edges": [[0]]})
            assert response["error"]["code"] == 400

    @pytest.mark.parametrize("members", [
        {"format_version": [1], "indptr": [0]},  # no indices
        {"format_version": [], "indptr": [0], "indices": []},
    ], ids=["missing-indices", "empty-version"])
    def test_malformed_graph_path_archive_is_400(self, tmp_path, sock, members):
        """A graph_path archive with a missing or empty member must get
        the 400 protocol error frame, not a dropped connection."""
        import numpy as np

        gpath = tmp_path / "bad.npz"
        np.savez(gpath, **{k: np.array(v, dtype=np.int64) for k, v in members.items()})
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            response = client.request("reorder", graph_path=str(gpath))
            assert response["ok"] is False
            assert response["error"]["code"] == 400
            assert response["error"]["kind"] == "protocol"
            assert "graph_path" in response["error"]["message"]
            # The connection survives and serves the next request.
            assert client.reorder(edges=EDGES) == direct_permutation()

    def test_forged_graph_path_header_is_400(self, tmp_path, sock):
        """An archive member whose npy header declares 2**45 elements
        gets the 400 frame, and the connection serves the next request."""
        from repro.graph.csr import CSRGraph
        from repro.graph.npz import save_npz

        gpath = tmp_path / "forged.npz"
        save_npz(CSRGraph.from_edges([0, 1], [1, 2]), gpath)
        forge_graph_npz(gpath)
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            response = client.request("reorder", graph_path=str(gpath))
            assert response["ok"] is False
            assert response["error"]["code"] == 400
            assert "declares shape" in response["error"]["message"]
            assert client.reorder(edges=EDGES) == direct_permutation()

    def test_unallocatable_graph_path_is_400(
        self, tmp_path, sock, refuse_huge_arrays
    ):
        """A two-id edge list whose row index cannot be allocated gets
        the 400 frame, and the connection serves the next request."""
        gpath = tmp_path / "huge_id.txt"
        gpath.write_text(HUGE_ID_EDGE_LIST)
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            response = client.request("reorder", graph_path=str(gpath))
            assert response["ok"] is False
            assert response["error"]["code"] == 400
            assert "3000000001 vertices" in response["error"]["message"]
            assert client.reorder(edges=EDGES) == direct_permutation()

    @pytest.mark.parametrize("op, fields", [
        ("reorder", {}),
        ("reorder", {"include_permutation": False}),
        ("analyze", {"analysis": "pagerank"}),
        ("analyze", {"analysis": "components", "include_permutation": True}),
    ], ids=["reorder", "reorder-no-permutation", "analyze", "analyze-permutation"])
    def test_over_bound_inline_graph_is_400(self, sock, op, fields):
        """The vertex bound holds whether or not the reply would carry
        the permutation."""
        with ServerThread(ServerConfig(unix_path=sock)), ServeClient(
            unix_path=sock
        ) as client:
            response = client.request(
                op, graph={"edges": [[0, 1]], "num_vertices": 20_000_000}, **fields
            )
            assert response["error"]["code"] == 400
            assert "vertex bound" in response["error"]["message"]
            assert client.reorder(edges=EDGES) == direct_permutation()

    def test_oversized_response_is_413_not_a_dropped_connection(
        self, tmp_path, sock, monkeypatch
    ):
        """A response over the line ceiling must come back as a small
        413 error frame, not a silently closed connection."""
        from repro.graph.csr import CSRGraph
        from repro.graph.npz import save_npz
        from repro.serve import protocol

        n = 300  # permutation JSON >> the patched ceiling below
        graph = CSRGraph.from_edges(
            list(range(n - 1)), list(range(1, n)), symmetrize=True
        )
        gpath = tmp_path / "big.npz"
        save_npz(graph, gpath)
        original_limit = protocol.MAX_LINE_BYTES
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            # Patch after start so only message encoding sees the small
            # ceiling (the graph_path request itself stays tiny).
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 512)
            before = _counters()
            response = client.request("reorder", graph_path=str(gpath))
            assert response["ok"] is False
            assert response["error"]["code"] == 413
            assert response["error"]["kind"] == "response-too-large"
            assert _delta(before).get("serve.errors.response_too_large") == 1
            # The connection survives and serves the next request.
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", original_limit)
            assert client.reorder(edges=EDGES) == direct_permutation()

    def test_stale_socket_file_is_replaced(self, tmp_path, sock):
        from pathlib import Path

        Path(sock).touch()  # simulate a crashed daemon's leftover socket
        config = ServerConfig(unix_path=sock)
        with ServerThread(config), ServeClient(unix_path=sock) as client:
            client.status()


@contextlib.contextmanager
def idle_connection(sock):
    """A raw connection that has had one ``status`` answered and now
    waits; yields its stream, whose next ``readline`` should see EOF."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
        raw.settimeout(30)
        raw.connect(sock)
        with raw.makefile("rwb") as stream:
            stream.write(b'{"op": "status", "id": 1}\n')
            stream.flush()
            assert json.loads(stream.readline())["ok"]
            yield stream


class TestDrain:
    """Python 3.11's stream server does not close the connections it
    accepted, and it logs a handler cancelled at loop shutdown as an
    error with a traceback.  So a drain closes every connection still
    open once no request is left."""

    def test_stop_closes_idle_connections(self, sock, caplog, capfd):
        server = ServerThread(ServerConfig(unix_path=sock))
        server.__enter__()
        try:
            with ServeClient(unix_path=sock) as client, \
                    idle_connection(sock) as stream:
                client.reorder(edges=EDGES)
                server.stop()
                assert stream.readline() == b""
        finally:
            server.stop()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
        err = capfd.readouterr().err
        assert "Traceback" not in err and "Exception in callback" not in err

    def test_sigterm_closes_idle_connections(self, sock, tmp_path):
        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log = tmp_path / "serve.log"
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock,
                 "--cache-dir", str(tmp_path / "cache")],
                stdout=out, stderr=subprocess.STDOUT, env=env,
            )
        try:
            deadline = time.monotonic() + 30
            while b"listening on" not in log.read_bytes():
                assert proc.poll() is None, log.read_text()
                assert time.monotonic() < deadline, "daemon never listened"
                time.sleep(0.05)
            with ServeClient(unix_path=sock) as client, \
                    idle_connection(sock) as stream:
                client.reorder(edges=EDGES)
                proc.send_signal(signal.SIGTERM)
                assert stream.readline() == b""
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        output = log.read_text()
        assert "draining" in output
        assert "Traceback" not in output, output
        assert "Exception in callback" not in output, output


class TestConfigValidation:
    def test_needs_an_endpoint(self):
        with pytest.raises(ServeError, match="listen"):
            ServerConfig()

    def test_rejects_bad_workers(self, sock):
        with pytest.raises(ServeError, match="compute_workers"):
            ServerConfig(unix_path=sock, compute_workers=0)

    def test_rejects_negative_drain_timeout(self, sock):
        with pytest.raises(ServeError, match="drain_timeout"):
            ServerConfig(unix_path=sock, drain_timeout_s=-1.0)

    @pytest.mark.parametrize("budget", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_budget_that_fails_or_never_trips(self, sock, budget):
        """Refused at boot: zero or less would fail every cache miss
        with a 500, NaN and infinity would never trip."""
        with pytest.raises(ServeError, match="time_budget_s"):
            ServerConfig(unix_path=sock, time_budget_s=budget)

    def test_rejects_nan_merge_threshold(self, sock):
        """Every ΔQ test is false against NaN, so every vertex would merge."""
        with pytest.raises(ServeError, match="merge_threshold"):
            ServerConfig(unix_path=sock, merge_threshold=float("nan"))
