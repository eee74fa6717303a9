"""Per-rule positive (flagged) and negative (clean) snippets.

Each rule must fire on code exhibiting the defect and stay silent on the
idiomatic fix — both directions, so a rule can neither rot into a no-op
nor grow false positives unnoticed.
"""

import pytest

from repro.check import run_check


def findings(tmp_path, source, rule, *, name="repro/rabbit/mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return run_check([path], rules=[rule]).findings


class TestLockInLockfreePath:
    RULE = "lock-in-lockfree-path"

    def test_flags_lock_in_worker_path(self, tmp_path):
        src = "import threading\nlock = threading.Lock()\n"
        found = findings(tmp_path, src, self.RULE)
        assert len(found) == 1
        assert "threading.Lock()" in found[0].message
        assert found[0].line == 2

    def test_flags_from_import_and_other_primitives(self, tmp_path):
        src = "from threading import RLock, Semaphore\na = RLock()\nb = Semaphore(2)\n"
        assert len(findings(tmp_path, src, self.RULE)) == 2

    def test_flags_references_that_are_not_calls(self, tmp_path):
        src = (
            "import threading\n"
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Tally:\n"
            "    lock: object = field(default_factory=threading.Lock)\n"
            "make = threading.Condition\n"
        )
        found = findings(tmp_path, src, self.RULE, name="repro/parallel/x.py")
        assert [f.line for f in found] == [5, 6]
        assert "threading.Lock referenced" in found[0].message
        assert "threading.Condition referenced" in found[1].message

    def test_clean_on_atomic_layer_usage(self, tmp_path):
        src = (
            "from repro.parallel.atomics import AtomicPairArray\n"
            "a = AtomicPairArray([1.0, 2.0])\n"
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_clean_on_local_name_shadowing_threading(self, tmp_path):
        src = "def f(threading):\n    return threading.Lock()\n"
        assert findings(tmp_path, src, self.RULE) == []


class TestPrivateAtomicState:
    """The retired lexical ``private-atomic-state`` rule's cases, now
    checked by ``state-ownership``: every positive flagged at its line,
    every negative clean."""

    RULE = "state-ownership"

    def test_flags_private_attribute_reach_in(self, tmp_path):
        src = "def peek(atoms, i):\n    return atoms._degree[i]\n"
        found = findings(tmp_path, src, self.RULE, name="repro/parallel/x.py")
        assert [f.line for f in found] == [2]
        assert "._degree" in found[0].message

    def test_clean_on_public_api(self, tmp_path):
        src = (
            "def read(atoms, i):\n"
            "    d, c = atoms.load(i)\n"
            "    return d, atoms.children_view()\n"
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_atomics_module_itself_is_exempt(self, tmp_path):
        src = "class A:\n    def f(self, i):\n        return self._degree[i]\n"
        found = findings(
            tmp_path, src, self.RULE, name="src/repro/parallel/atomics.py"
        )
        assert found == []

    def test_flags_atomic_child_array(self, tmp_path):
        src = "def peek(atoms, v):\n    return atoms._child[v]\n"
        found = findings(tmp_path, src, self.RULE, name="repro/rabbit/x.py")
        assert [f.line for f in found] == [2]
        assert "._child" in found[0].message
        assert "repro.parallel.atomics" in found[0].message

    @pytest.mark.usefixtures("arena_cursor_fact")
    def test_flags_arena_cursor(self, tmp_path):
        src = "def used(arena):\n    return arena._cursor\n"
        found = findings(tmp_path, src, self.RULE, name="repro/rabbit/x.py")
        assert [f.line for f in found] == [2]
        assert "._cursor" in found[0].message

    @pytest.mark.usefixtures("arena_cursor_fact")
    def test_each_owner_is_exempt_for_its_own_attrs_only(self, tmp_path):
        # arena.py owns _cursor but not the atomic arrays.
        src = (
            "def f(arena, atoms, i):\n"
            "    return arena._cursor, atoms._degree[i]\n"
        )
        found = findings(
            tmp_path, src, self.RULE, name="src/repro/rabbit/arena.py"
        )
        assert [f.line for f in found] == [2]
        assert "._degree" in found[0].message


class TestUnsortedSetIteration:
    RULE = "unsorted-set-iteration"

    def test_flags_for_over_set_call(self, tmp_path):
        src = "for x in set([3, 1, 2]):\n    print(x)\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_flags_set_literal_and_comprehension_iter(self, tmp_path):
        src = "ys = [x for x in {1, 2, 3}]\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_flags_keys_algebra(self, tmp_path):
        src = "for k in a.keys() - b.keys():\n    print(k)\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_clean_when_sorted(self, tmp_path):
        src = (
            "for x in sorted(set([3, 1, 2])):\n    print(x)\n"
            "for k in sorted(a.keys() - b.keys()):\n    print(k)\n"
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_clean_on_dict_and_list_iteration(self, tmp_path):
        src = "for k in {'a': 1}:\n    print(k)\nfor v in [1, 2]:\n    print(v)\n"
        assert findings(tmp_path, src, self.RULE) == []


class TestUnseededRng:
    RULE = "unseeded-rng"

    def test_flags_numpy_global_rng(self, tmp_path):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        found = findings(tmp_path, src, self.RULE)
        assert len(found) == 1
        assert "global RNG" in found[0].message

    def test_flags_zero_arg_default_rng(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_flags_none_reaching_default_rng(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def _gen(rng):\n"
            "    return np.random.default_rng(rng)\n"
            "def graph(n, *, rng=None):\n"
            "    return _gen(rng).random(n)\n"
            "def order(n, seed=None):\n"
            "    return np.random.default_rng(seed=seed).permutation(n)\n"
            "noise = np.random.default_rng(None)\n"
        )
        found = findings(tmp_path, src, self.RULE)
        assert [f.line for f in found] == [3, 7, 8]
        assert "can receive None" in found[0].message

    def test_clean_when_no_none_reaches_default_rng(self, tmp_path):
        src = (
            "import numpy as np\n"
            "def _gen(rng):\n"
            "    return np.random.default_rng(rng)\n"
            "def graph(n, *, rng=0):\n"
            "    return _gen(rng).random(n)\n"
            "def order(n, seed=None):\n"
            "    if seed is None:\n"
            "        seed = 0\n"
            "    return np.random.default_rng(seed).permutation(n)\n"
            "def reseed(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_flags_stdlib_global_random(self, tmp_path):
        src = "import random\nx = random.shuffle([1, 2])\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_clean_on_seeded_generators(self, tmp_path):
        src = (
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random(4)\n"
            "r = random.Random(7)\n"
        )
        assert findings(tmp_path, src, self.RULE) == []


class TestWallClockInResultPath:
    RULE = "wall-clock-in-result-path"

    def test_flags_perf_counter_in_numeric_core(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        found = findings(tmp_path, src, self.RULE, name="repro/order/x.py")
        assert len(found) == 1
        assert "repro.obs" in found[0].message

    def test_flags_datetime_now(self, tmp_path):
        src = "import datetime\nts = datetime.datetime.now()\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_obs_layer_may_read_clocks(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        found = findings(tmp_path, src, self.RULE, name="repro/obs/trace.py")
        assert found == []

    def test_clean_on_non_clock_time_use(self, tmp_path):
        src = "import time\ntime.sleep(0)\n"
        assert findings(tmp_path, src, self.RULE) == []


class TestInt32Index:
    """The retired lexical ``int32-index`` rule's cases, now checked by
    ``dtype-flow``'s construction-site pass."""

    RULE = "dtype-flow"

    def test_flags_np_int32(self, tmp_path):
        src = "import numpy as np\nidx = np.zeros(4, dtype=np.int32)\n"
        assert [f.line for f in findings(tmp_path, src, self.RULE)] == [2]

    def test_flags_platform_int_dtype_and_astype(self, tmp_path):
        src = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=int)\n"
            "b = a.astype(int)\n"
        )
        assert [f.line for f in findings(tmp_path, src, self.RULE)] == [2, 3]

    def test_clean_on_int64(self, tmp_path):
        src = (
            "import numpy as np\n"
            "a = np.zeros(4, dtype=np.int64)\n"
            "b = a.astype(np.int64)\n"
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_out_of_scope_files_unchecked(self, tmp_path):
        src = "import numpy as np\nidx = np.zeros(4, dtype=np.int32)\n"
        found = findings(tmp_path, src, self.RULE, name="repro/obs/plot.py")
        assert found == []


class TestFloatIndexArray:
    """The retired lexical ``float-index-array`` rule's cases, now checked
    by ``dtype-flow``'s construction-site pass."""

    RULE = "dtype-flow"

    def test_flags_index_named_array_without_dtype(self, tmp_path):
        src = "import numpy as np\nindptr = np.zeros(5)\n"
        found = findings(tmp_path, src, self.RULE)
        assert [f.line for f in found] == [2]
        assert "float64" in found[0].message

    def test_flags_explicit_float_dtype(self, tmp_path):
        src = "import numpy as np\nperm = np.empty(5, dtype=np.float64)\n"
        assert [f.line for f in findings(tmp_path, src, self.RULE)] == [2]

    def test_flags_arange_under_true_division(self, tmp_path):
        src = "import numpy as np\ntargets = np.arange(1, 4) * 10 / 3\n"
        assert [f.line for f in findings(tmp_path, src, self.RULE)] == [2]

    def test_clean_on_integer_constructions(self, tmp_path):
        src = (
            "import numpy as np\n"
            "indptr = np.zeros(5, dtype=np.int64)\n"
            "targets = (np.arange(1, 4) * 10) // 3\n"
            "ceil = -((np.arange(1, 4) * 10) // -3)\n"
            "weights = np.zeros(5)\n"
        )
        assert findings(tmp_path, src, self.RULE) == []


class TestNetworkxInSrc:
    RULE = "networkx-in-src"

    def test_flags_networkx_import(self, tmp_path):
        src = "import networkx as nx\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_flags_lazy_function_level_import_too(self, tmp_path):
        src = "def f():\n    from networkx import Graph\n    return Graph\n"
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_tests_tree_is_exempt(self, tmp_path):
        src = "import networkx as nx\n"
        found = findings(
            tmp_path, src, self.RULE, name="tests/graph/test_oracle.py"
        )
        assert found == []


class TestLayering:
    RULE = "layering"

    def test_flags_graph_importing_obs(self, tmp_path):
        src = "from repro.obs.trace import span\n"
        found = findings(
            tmp_path, src, self.RULE, name="src/repro/graph/csr.py"
        )
        assert len(found) == 1
        assert "repro.graph may not import repro.obs" in found[0].message

    def test_flags_errors_importing_anything(self, tmp_path):
        src = "from repro.graph.csr import CSRGraph\n"
        found = findings(
            tmp_path, src, self.RULE, name="src/repro/errors.py"
        )
        assert len(found) == 1

    def test_graph_may_import_errors_and_itself(self, tmp_path):
        src = (
            "from repro.errors import GraphFormatError\n"
            "from repro.graph.perm import validate_permutation\n"
        )
        found = findings(
            tmp_path, src, self.RULE, name="src/repro/graph/ops2.py"
        )
        assert found == []

    def test_unrestricted_packages_import_freely(self, tmp_path):
        src = "from repro.obs.trace import span\n"
        found = findings(
            tmp_path, src, self.RULE, name="src/repro/order/registry2.py"
        )
        assert found == []


class TestImportCycle:
    RULE = "import-cycle"

    def test_flags_two_module_cycle(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "order"
        pkg.mkdir(parents=True)
        (pkg / "alpha.py").write_text("import repro.order.beta\n")
        (pkg / "beta.py").write_text("import repro.order.alpha\n")
        report = run_check([tmp_path], rules=[self.RULE])
        assert len(report.findings) == 1
        assert "repro.order.alpha -> repro.order.beta" in report.findings[0].message

    def test_lazy_import_breaks_the_cycle(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "order"
        pkg.mkdir(parents=True)
        (pkg / "alpha.py").write_text("import repro.order.beta\n")
        (pkg / "beta.py").write_text(
            "def f():\n    import repro.order.alpha\n    return repro\n"
        )
        assert run_check([tmp_path], rules=[self.RULE]).ok

    def test_from_import_resolves_to_module(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "order"
        pkg.mkdir(parents=True)
        (pkg / "alpha.py").write_text("from repro.order.beta import thing\n")
        (pkg / "beta.py").write_text("from repro.order.alpha import other\n")
        assert len(run_check([tmp_path], rules=[self.RULE]).findings) == 1


class TestBareOpenWrite:
    RULE = "bare-open-write"

    def test_flags_positional_write_mode(self, tmp_path):
        src = 'with open("out.txt", "w") as fh:\n    fh.write("x")\n'
        found = findings(tmp_path, src, self.RULE)
        assert len(found) == 1
        assert "atomic" in found[0].message
        assert "'w'" in found[0].message

    def test_flags_mode_keyword_and_append_and_exclusive(self, tmp_path):
        src = (
            'a = open("a.bin", mode="wb")\n'
            'b = open("b.log", "a")\n'
            'c = open("c.json", "x")\n'
        )
        assert len(findings(tmp_path, src, self.RULE)) == 3

    def test_flags_io_open_via_import(self, tmp_path):
        src = 'import io\nfh = io.open("out.txt", "w")\n'
        assert len(findings(tmp_path, src, self.RULE)) == 1

    def test_clean_on_reads(self, tmp_path):
        src = (
            'a = open("in.txt")\n'
            'b = open("in.txt", "r")\n'
            'c = open("in.bin", "rb")\n'
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_clean_on_variable_mode(self, tmp_path):
        # a non-literal mode is invisible to the AST; the rule must not guess
        src = 'def f(p, mode):\n    return open(p, mode)\n'
        assert findings(tmp_path, src, self.RULE) == []

    def test_clean_on_shadowed_open(self, tmp_path):
        src = 'def f(open, p):\n    return open(p, "w")\n'
        assert findings(tmp_path, src, self.RULE) == []

    def test_pragma_suppresses_with_justification(self, tmp_path):
        src = (
            'fh = open("stream.txt", "w")  '
            "# repro: ignore[bare-open-write] streaming transport\n"
        )
        assert findings(tmp_path, src, self.RULE) == []

    def test_out_of_scope_paths_not_checked(self, tmp_path):
        src = 'open("notes.txt", "w")\n'
        found = findings(tmp_path, src, self.RULE, name="scripts/tool.py")
        assert found == []


class TestBlockingCallInAsync:
    """The retired lexical ``blocking-call-in-async`` rule's cases, now
    checked by ``async-blocking-reachable``: every positive flagged at its
    line, every negative clean."""

    RULE = "async-blocking-reachable"
    NAME = "repro/serve/handler.py"

    def test_flags_time_sleep_in_async_def(self, tmp_path):
        src = (
            "import time\n"
            "async def handle():\n"
            "    time.sleep(1)\n"
        )
        found = findings(tmp_path, src, self.RULE, name=self.NAME)
        assert [f.line for f in found] == [3]
        assert "asyncio.sleep" in found[0].message

    def test_flags_builtin_open_and_subprocess(self, tmp_path):
        src = (
            "import subprocess\n"
            "async def handle(path):\n"
            "    data = open(path).read()\n"
            "    subprocess.run(['ls'])\n"
        )
        found = findings(tmp_path, src, self.RULE, name=self.NAME)
        assert [f.line for f in found] == [3, 4]

    def test_flags_aliased_import(self, tmp_path):
        src = (
            "import time as t\n"
            "async def handle():\n"
            "    t.sleep(0.1)\n"
        )
        found = findings(tmp_path, src, self.RULE, name=self.NAME)
        assert [f.line for f in found] == [3]

    def test_clean_on_sync_function(self, tmp_path):
        src = (
            "import time\n"
            "def compute():\n"
            "    time.sleep(1)\n"
        )
        assert findings(tmp_path, src, self.RULE, name=self.NAME) == []

    def test_clean_on_nested_sync_helper(self, tmp_path):
        # The sanctioned pattern: blocking work in a sync closure handed
        # to the executor never runs on the loop.
        src = (
            "import asyncio, time\n"
            "async def handle():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    def work():\n"
            "        time.sleep(1)\n"
            "        return open('/etc/hostname').read()\n"
            "    return await loop.run_in_executor(None, work)\n"
        )
        assert findings(tmp_path, src, self.RULE, name=self.NAME) == []

    def test_clean_on_asyncio_sleep(self, tmp_path):
        src = (
            "import asyncio\n"
            "async def handle():\n"
            "    await asyncio.sleep(1)\n"
        )
        assert findings(tmp_path, src, self.RULE, name=self.NAME) == []

    def test_clean_when_open_is_shadowed(self, tmp_path):
        src = (
            "from gzip import open\n"
            "async def handle(p):\n"
            "    return open(p)\n"
        )
        assert findings(tmp_path, src, self.RULE, name=self.NAME) == []

    def test_scope_covers_non_serve_files(self, tmp_path):
        # The lexical rule looked only under repro/serve/; a coroutine
        # anywhere in the tree blocks whatever loop runs it.
        src = (
            "import time\n"
            "async def handle():\n"
            "    time.sleep(1)\n"
        )
        found = findings(tmp_path, src, self.RULE, name="repro/rabbit/mod.py")
        assert [f.line for f in found] == [3]

    def test_suppression_pragma(self, tmp_path):
        src = (
            "import time\n"
            "async def handle():\n"
            "    time.sleep(1)  # repro: ignore[async-blocking-reachable] startup probe\n"
        )
        assert findings(tmp_path, src, self.RULE, name=self.NAME) == []
