"""The three interprocedural analyzers: positives, negatives, and the
seeded mutants the acceptance gate requires.

Each test builds a tiny ``repro/`` tree under ``tmp_path`` (the module
anchoring keys off the ``repro`` path component) and runs ``run_check``
with just the analyzer under test, so lexical rules cannot mask an
analyzer regression.
"""

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.check import run_check

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def write_tree(root: Path, files: dict) -> Path:
    for rel, content in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content).lstrip("\n"))
    pkg_dirs = {p.parent for p in (root / "repro").rglob("*.py")}
    pkg_dirs.add(root / "repro")
    for d in pkg_dirs:
        init = d / "__init__.py"
        if not init.exists():
            init.write_text("")
    return root / "repro"


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


class TestAsyncReachability:
    def test_blocking_sink_behind_sync_chain_is_flagged(self, tmp_path):
        tree = write_tree(tmp_path, {
            "svc.py": """
                import time


                async def handle(req):
                    return describe(req)


                def describe(req):
                    return summarize(req)


                def summarize(req):
                    time.sleep(1.0)
                    return req
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        found = findings_for(report, "async-blocking-reachable")
        assert len(found) == 1
        f = found[0]
        assert "time.sleep" in f.message
        assert "handle" in f.message
        # the finding lands on the sink line, with the chain in the trace
        assert f.line == 13
        assert any("repro.svc.handle" in step for step in f.trace)
        assert any("repro.svc.summarize" in step for step in f.trace)

    def test_executor_handoff_is_sanctioned(self, tmp_path):
        tree = write_tree(tmp_path, {
            "svc.py": """
                import asyncio


                def crunch():
                    import time
                    time.sleep(5.0)


                async def handle(req):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(None, crunch)
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        assert findings_for(report, "async-blocking-reachable") == []

    def test_lambda_body_does_not_leak_into_coroutine(self, tmp_path):
        tree = write_tree(tmp_path, {
            "svc.py": """
                import asyncio
                import time


                async def handle(req):
                    loop = asyncio.get_running_loop()
                    return await loop.run_in_executor(
                        None, lambda: time.sleep(1.0)
                    )
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        assert findings_for(report, "async-blocking-reachable") == []

    def test_depth_zero_sink_in_serve_is_flagged(self, tmp_path):
        # A time.sleep written directly in a repro/serve/ coroutine is
        # flagged at its own line.
        tree = write_tree(tmp_path, {
            "serve/svc.py": """
                import time


                async def handle(req):
                    time.sleep(1.0)
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        found = findings_for(report, "async-blocking-reachable")
        assert [f.line for f in found] == [5]
        assert "called directly in coroutine" in found[0].message

    def test_depth_zero_sink_outside_lexical_scope_is_covered(self, tmp_path):
        # Outside repro/serve/ too: no coroutine anywhere in the tree may
        # call a blocking sink directly.
        tree = write_tree(tmp_path, {
            "order/svc.py": """
                import time


                async def drive(req):
                    time.sleep(1.0)
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        found = findings_for(report, "async-blocking-reachable")
        assert len(found) == 1
        assert "called directly in coroutine" in found[0].message

    def test_dynamic_path_io_sink(self, tmp_path):
        tree = write_tree(tmp_path, {
            "svc.py": """
                async def handle(path):
                    return load(path)


                def load(path):
                    return path.read_text()
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        found = findings_for(report, "async-blocking-reachable")
        assert len(found) == 1
        assert "read_text" in found[0].message

    def test_suppressible_at_the_sink_line(self, tmp_path):
        tree = write_tree(tmp_path, {
            "svc.py": """
                import time


                async def handle(req):
                    return describe(req)


                def describe(req):
                    time.sleep(0.001)  # repro: ignore[async-blocking-reachable] sub-ms backoff, measured
                    return req
            """,
        })
        report = run_check([tree], rules=["async-blocking-reachable"])
        assert findings_for(report, "async-blocking-reachable") == []


@pytest.mark.usefixtures("arena_cursor_fact")
class TestStateOwnership:
    def test_direct_write_outside_owner_module(self, tmp_path):
        tree = write_tree(tmp_path, {
            "rabbit/arena.py": """
                class AdjacencyArena:
                    def __init__(self):
                        self._cursor = 0
            """,
            "order/rogue.py": """
                def hijack(arena):
                    arena._cursor += 1
            """,
        })
        report = run_check([tree], rules=["state-ownership"])
        found = findings_for(report, "state-ownership")
        assert len(found) == 1
        assert "rogue.py" in found[0].path
        assert "_cursor" in found[0].message

    def test_escaped_mutator_reachable_from_outside(self, tmp_path):
        tree = write_tree(tmp_path, {
            "rabbit/arena.py": """
                class AdjacencyArena:
                    def __init__(self):
                        self._cursor = 0

                    def _grow(self):
                        self._cursor += 16
            """,
            "order/client.py": """
                def expand(arena):
                    arena._grow()
            """,
        })
        report = run_check([tree], rules=["state-ownership"])
        found = findings_for(report, "state-ownership")
        assert len(found) == 1
        f = found[0]
        assert "arena.py" in f.path  # the write is the sink
        assert "_grow" in f.message
        assert "repro.order.client.expand" in f.message
        assert any("expand" in step for step in f.trace)

    def test_entry_point_chain_is_sanctioned(self, tmp_path):
        # store() is a declared entry point for _cursor: reaching the
        # internal writer through it is the sanctioned protocol.
        tree = write_tree(tmp_path, {
            "rabbit/arena.py": """
                class AdjacencyArena:
                    def __init__(self):
                        self._cursor = 0

                    def store(self, count):
                        self._bump(count)

                    def _bump(self, count):
                        self._cursor += count
            """,
            "order/client.py": """
                def use(arena):
                    arena.store(1)
            """,
        })
        report = run_check([tree], rules=["state-ownership"])
        assert findings_for(report, "state-ownership") == []

    def test_internal_only_mutator_is_clean(self, tmp_path):
        tree = write_tree(tmp_path, {
            "rabbit/arena.py": """
                class AdjacencyArena:
                    def __init__(self):
                        self._cursor = 0

                    def _rebuild(self):
                        self._cursor = 0
            """,
        })
        report = run_check([tree], rules=["state-ownership"])
        assert findings_for(report, "state-ownership") == []


class TestDtypeFlow:
    def test_float_from_division_through_return(self, tmp_path):
        tree = write_tree(tmp_path, {
            "graph/util.py": """
                def _midpoint(lo, hi):
                    return (lo + hi) / 2


                def bisect(arr, lo, hi):
                    mid = _midpoint(lo, hi)
                    return arr[mid]
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        found = findings_for(report, "dtype-flow")
        assert len(found) == 1
        f = found[0]
        assert f.line == 7
        assert "float" in f.message
        assert "division" in f.message

    def test_float64_default_constructor(self, tmp_path):
        tree = write_tree(tmp_path, {
            "graph/util.py": """
                import numpy as np


                def fetch(arr):
                    idx = np.zeros(4)
                    return arr[idx]
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        found = findings_for(report, "dtype-flow")
        assert len(found) == 1
        assert "float64 by default" in found[0].message

    def test_int32_flows_into_index_parameter(self, tmp_path):
        tree = write_tree(tmp_path, {
            "graph/util.py": """
                import numpy as np


                def pick(arr, pos):
                    return arr[pos]


                def caller(arr):
                    j = np.arange(3, dtype=np.int32)
                    return pick(arr, j)
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        found = findings_for(report, "dtype-flow")
        # the sink inside pick(), and the np.int32 construction site
        assert [f.line for f in found] == [5, 9]
        f = found[0]
        assert "int32" in f.message
        assert "'pos'" in f.message
        assert any("caller" in step for step in f.trace)

    def test_int64_and_bool_mask_indexing_clean(self, tmp_path):
        tree = write_tree(tmp_path, {
            "graph/util.py": """
                import numpy as np


                def clean(arr):
                    k = np.arange(5)
                    mask = np.zeros(5, dtype=bool)
                    first = arr[0]
                    return arr[k], arr[mask], first
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        assert findings_for(report, "dtype-flow") == []

    def test_astype_launders_the_dtype(self, tmp_path):
        tree = write_tree(tmp_path, {
            "graph/util.py": """
                import numpy as np


                def fixed(arr):
                    idx = np.zeros(4).astype(np.int64)
                    return arr[idx]
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        assert findings_for(report, "dtype-flow") == []

    def test_sinks_outside_numeric_core_not_reported(self, tmp_path):
        tree = write_tree(tmp_path, {
            "obs/report.py": """
                import numpy as np


                def fetch(arr):
                    idx = np.zeros(4)
                    return arr[idx]
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        assert findings_for(report, "dtype-flow") == []

    def test_rebind_to_other_dtype_kills_tracking(self, tmp_path):
        # idx is float, then rebound to an int64 value: the later index
        # use is fine and must not inherit the stale float dtype.
        tree = write_tree(tmp_path, {
            "graph/util.py": """
                import numpy as np


                def fetch(arr):
                    idx = np.zeros(4)
                    idx = np.arange(4)
                    return arr[idx]
            """,
        })
        report = run_check([tree], rules=["dtype-flow"])
        assert findings_for(report, "dtype-flow") == []


@pytest.fixture(scope="module")
def mutant_tree(tmp_path_factory):
    """A full copy of src/repro with the acceptance mutants seeded, one
    per contract:

    * async: a blocking call in a coroutine-reachable sync helper; a
      daemon coroutine that loads the compiled sweep itself instead of on
      the executor; a daemon coroutine that opens a socket directly;
    * ownership: a rogue arena-cursor write in a non-owner module; a read
      of the serve cache's memory tier from the obs layer;
    * dtype: a float64-default ``indptr`` in the CSR module.
    """
    root = tmp_path_factory.mktemp("mutants")
    tree = root / "repro"
    shutil.copytree(
        REPO_SRC, tree,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    protocol = tree / "serve" / "protocol.py"
    text = protocol.read_text()
    needle = "def encode_message(message: dict[str, Any]) -> bytes:"
    assert needle in text
    protocol.write_text(text.replace(
        needle,
        needle + "\n    import time\n    time.sleep(0.01)",
        1,
    ))
    registry = tree / "order" / "registry.py"
    registry.write_text(
        registry.read_text()
        + "\n\ndef _mutant_rogue(arena):\n    arena._cursor = 0\n"
    )
    daemon = tree / "serve" / "daemon.py"
    text = daemon.read_text()
    needle = "    async def _dispatch(self, op: str, request: dict[str, Any])"
    assert needle in text
    daemon.write_text(text.replace(
        needle,
        "    async def _mutant_warm_up(self):\n"
        "        from repro.rabbit import native\n"
        "        native.library()\n\n"
        "    async def _mutant_probe(self):\n"
        "        import socket\n"
        "        socket.create_connection(('localhost', 1))\n\n" + needle,
        1,
    ))
    metrics = tree / "obs" / "metrics.py"
    metrics.write_text(
        metrics.read_text()
        + "\n\ndef _mutant_peek(cache):\n    return len(cache._memory)\n"
    )
    csr = tree / "graph" / "csr.py"
    csr.write_text(
        csr.read_text()
        + "\n\ndef _mutant_indptr(n):\n    indptr = np.zeros(n)\n"
        "    return indptr\n"
    )
    return tree


def mutant_findings(mutant_tree, rule, filename):
    report = run_check([mutant_tree], rules=[rule])
    return [
        f for f in findings_for(report, rule) if Path(f.path).name == filename
    ]


class TestSeededMutants:
    def test_blocking_call_in_async_reachable_helper_is_flagged(
        self, mutant_tree
    ):
        report = run_check([mutant_tree], rules=["async-blocking-reachable"])
        found = findings_for(report, "async-blocking-reachable")
        assert found, "seeded time.sleep in encode_message not detected"
        assert any(
            "protocol.py" in f.path and "time.sleep" in f.message
            for f in found
        )
        # the trace names the coroutine that reaches it
        traced = [f for f in found if "protocol.py" in f.path][0]
        assert any("repro.serve.daemon" in step for step in traced.trace)

    def test_compiler_run_on_the_event_loop_is_flagged(self, mutant_tree):
        """The sweep's build shells out to ``cc``; the shipped daemon
        reaches it only through its executor, so a coroutine that loads
        the library directly must be caught."""
        report = run_check([mutant_tree], rules=["async-blocking-reachable"])
        found = [
            f for f in findings_for(report, "async-blocking-reachable")
            if "native.py" in f.path and "subprocess.run" in f.message
        ]
        assert found, "compiler subprocess reachable from a coroutine"
        assert all("_mutant_warm_up" in f.message for f in found)

    def test_socket_opened_in_a_daemon_coroutine_is_flagged(self, mutant_tree):
        """A direct sink in a repro/serve/ coroutine that the lexical
        rule's sink list lacked and the analyzer left to it."""
        found = mutant_findings(
            mutant_tree, "async-blocking-reachable", "daemon.py"
        )
        assert [f.message for f in found if "socket" in f.message], found
        assert all("_mutant_probe" in f.message for f in found)

    @pytest.mark.usefixtures("arena_cursor_fact")
    def test_rogue_cursor_write_is_flagged(self, mutant_tree):
        report = run_check([mutant_tree], rules=["state-ownership"])
        found = findings_for(report, "state-ownership")
        assert found, "seeded rogue ._cursor write not detected"
        assert any(
            "registry.py" in f.path and "_cursor" in f.message
            for f in found
        )

    def test_cache_memory_read_from_obs_is_flagged(self, mutant_tree):
        """A read (not a write) from a package outside rabbit/ and
        parallel/, the lexical rule's scope."""
        found = mutant_findings(mutant_tree, "state-ownership", "metrics.py")
        assert len(found) == 1
        assert "._memory" in found[0].message

    def test_float_indptr_in_csr_is_flagged(self, mutant_tree):
        found = mutant_findings(mutant_tree, "dtype-flow", "csr.py")
        assert len(found) == 1
        assert "'indptr'" in found[0].message
        assert "float64 by default" in found[0].message

    def test_unmutated_rules_stay_clean_on_mutant_tree(self, mutant_tree):
        # Each mutant trips only the rule it targets, only in the file it
        # was seeded into; every other rule stays quiet.
        report = run_check([mutant_tree])
        assert {(f.rule, Path(f.path).name) for f in report.findings} == {
            ("async-blocking-reachable", "protocol.py"),
            ("async-blocking-reachable", "native.py"),
            ("async-blocking-reachable", "daemon.py"),
            ("state-ownership", "metrics.py"),
            ("dtype-flow", "csr.py"),
        }
